//! The threaded driver: one [`PeerCore`] incarnation on its own OS
//! thread, over a real transport and the supervisor's channels. The
//! driver owns what the core leaves out — the thread, the clock, the
//! control and event channels, and the receive wait — and nothing else.

use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use distclass_core::{ClassifierNode, Instance};
use distclass_gossip::wire::WireSummary;
use distclass_net::NodeId;
use distclass_obs::Phase;

use super::{Ctrl, PeerConfig, PeerCore, PeerEvent, PeerExit, PeerIo, RestoreState};
use crate::transport::Transport;

/// The driver's side of [`PeerIo`]: frames go to the transport (the chaos
/// layer included — it is part of the medium), events to the
/// supervisor's channel.
struct Wire<T, S> {
    transport: T,
    events: Sender<PeerEvent<S>>,
}

impl<T: Transport, S> PeerIo<S> for Wire<T, S> {
    fn send(&mut self, to: NodeId, frame: &[u8]) -> bool {
        self.transport.send(to, frame).is_ok()
    }

    fn report(&mut self, event: PeerEvent<S>) -> bool {
        self.events.send(event).is_ok()
    }
}

/// Runs one incarnation of a peer to completion. The loop exits on
/// `Ctrl::Exit`, `Ctrl::Crash`, when the harness hangs up, or when a
/// retiree has nothing left to hand off.
///
/// Each lap: drain control commands; [`PeerCore::on_tick`] (handoff,
/// drift, gossip tick and probe, retransmissions); receive until the
/// core's next deadline, clamped to 0.5–5 ms for control responsiveness;
/// [`PeerCore::on_frame`]; [`PeerCore::on_report`] (checkpoint, status).
pub(crate) fn run_peer<I, T>(
    node: ClassifierNode<I>,
    transport: T,
    cfg: PeerConfig,
    restore: RestoreState,
    ctrl: Receiver<Ctrl>,
    events: Sender<PeerEvent<I::Summary>>,
) -> PeerExit<I::Summary>
where
    I: Instance,
    I::Summary: WireSummary,
    T: Transport,
{
    // One profile thread per incarnation; the core dedups respawned
    // labels (`peer3`, `peer3#1`, …) so lifetimes never overlap-merge.
    // Dropping `prof` on return finalizes the thread's lifetime.
    let prof = cfg.run.profiler.thread(&format!("peer{}", cfg.id));
    let mut io = Wire { transport, events };
    let mut core = PeerCore::new(node, cfg, restore, &prof, Instant::now(), &mut io);
    'run: loop {
        loop {
            match ctrl.try_recv() {
                Ok(cmd) => core.on_ctrl(cmd),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => core.on_ctrl(Ctrl::Exit),
            }
            if core.done() {
                break 'run;
            }
        }
        let now = Instant::now();
        core.on_tick(now, &mut io);
        let wait = core
            .next_deadline()
            .saturating_duration_since(now)
            .clamp(Duration::from_micros(500), Duration::from_millis(5));
        let idle_span = prof.span(Phase::IdleWait);
        let received = io.transport.recv_timeout(wait);
        drop(idle_span);
        let now = Instant::now();
        match received {
            Ok(Some(buf)) => core.on_frame(now, &buf, &mut io),
            Ok(None) => {}
            Err(_) => core.on_recv_error(),
        }
        core.on_report(now, &mut io);
        if core.done() {
            break;
        }
    }
    core.finish()
}

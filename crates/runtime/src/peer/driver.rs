//! The threaded driver: one [`PeerCore`] incarnation on its own OS
//! thread, over a real transport and the supervisor's channels. The
//! driver owns what the core leaves out — the thread, the clock, the
//! control and event channels, the receive wait, and the hold queue that
//! plays the fault medium's delays on the real clock — and nothing else.

use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use distclass_core::{ClassifierNode, Instance};
use distclass_gossip::wire::WireSummary;
use distclass_net::NodeId;
use distclass_obs::Phase;

use super::{Ctrl, PeerConfig, PeerCore, PeerEvent, PeerExit, PeerIo, RestoreState};
use crate::chaos::FaultMedium;
use crate::transport::Transport;

/// A lap waits for a frame until the core's next deadline, clamped to
/// this window: a spin guard, and prompt pickup of control commands.
pub(crate) const MIN_WAIT: Duration = Duration::from_micros(500);
pub(crate) const MAX_WAIT: Duration = Duration::from_millis(5);

/// The driver's side of [`PeerIo`]: frames go through the fault medium to
/// the transport, events to the supervisor's channel.
struct Wire<T, S> {
    transport: T,
    medium: FaultMedium,
    /// The cluster's start, shared by every peer so windows align.
    epoch: Instant,
    /// Frames the medium delayed, with their release times; only this
    /// sender's own sends and receives release them.
    held: Vec<(Instant, NodeId, Vec<u8>)>,
    events: Sender<PeerEvent<S>>,
}

impl<T: Transport, S> Wire<T, S> {
    /// Releases every held frame whose delay has elapsed, in hold order.
    fn release(&mut self) {
        let now = Instant::now();
        for (_, to, frame) in self.held.extract_if(.., |(due, _, _)| *due <= now) {
            let _ = self.transport.send(to, &frame);
        }
    }
}

impl<T: Transport, S> PeerIo<S> for Wire<T, S> {
    fn send(&mut self, to: NodeId, frame: &[u8]) -> bool {
        self.release();
        let now = Instant::now();
        let t = now.saturating_duration_since(self.epoch);
        let fate = self.medium.send(t, to, frame);
        if fate.copies == 0 || !fate.delay.is_zero() {
            // Dropped (no copies), or held until due.
            let due = now + fate.delay;
            self.held
                .extend((0..fate.copies).map(|_| (due, to, frame.to_vec())));
            return true;
        }
        let sent = self.transport.send(to, frame).is_ok();
        if fate.copies > 1 {
            let _ = self.transport.send(to, frame);
        }
        sent
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
/// core's next deadline, clamped to [`MIN_WAIT`]–[`MAX_WAIT`];
/// [`PeerCore::on_frame`]; [`PeerCore::on_report`] (checkpoint, status).
pub(crate) fn run_peer<I, T>(
    node: ClassifierNode<I>,
    transport: T,
    medium: FaultMedium,
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
    let mut io = Wire {
        transport,
        medium,
        epoch: cfg.epoch,
        held: Vec::new(),
        events,
    };
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
            .clamp(MIN_WAIT, MAX_WAIT);
        io.release();
        let idle_span = prof.span(Phase::IdleWait);
        let received = io.transport.recv_timeout(wait);
        drop(idle_span);
        io.release();
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

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::sync::Arc;

    use super::*;
    use crate::chaos::FaultPlan;
    use crate::transport::ChannelNet;

    #[test]
    fn delayed_frames_are_held_until_their_release_time() {
        let plan =
            FaultPlan::new(7).delay(1.0, Duration::from_millis(20), Duration::from_millis(25));
        let mut peers = ChannelNet::reliable(2);
        let mut b = peers.pop().unwrap();
        let (events, _rx) = mpsc::channel::<PeerEvent<()>>();
        let mut a = Wire {
            transport: peers.pop().unwrap(),
            medium: FaultMedium::new(Arc::new(plan), 0, 0),
            epoch: Instant::now(),
            held: Vec::new(),
            events,
        };
        assert!(a.send(1, &[4]), "a delay is not a refusal");
        // Too early: the frame is still in the sender's hold queue, and
        // only the sender's own sends and receives release it.
        assert_eq!(b.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        std::thread::sleep(Duration::from_millis(30));
        a.release();
        let got = b.recv_timeout(Duration::from_millis(50)).unwrap();
        assert_eq!(got, Some(vec![4]));
    }
}

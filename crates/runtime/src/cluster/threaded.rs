//! The threaded driver: one OS thread per peer incarnation over real
//! transports, the calling thread stepping the [`SupervisorCore`]. It owns
//! what the cores leave out — threads, channels, endpoints and their fault
//! medium, the clock and wall-clock stamp, the live console and the
//! supervisor's profiler thread — and nothing else.

use std::any::Any;
use std::io::{self, Write};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use distclass_core::{ClassifierNode, Instance};
use distclass_gossip::wire::WireSummary;
use distclass_net::{NodeId, Topology};
use distclass_obs::{AnalyzeOptions, Health, LiveAggregator, LiveConsole, Phase, TraceSink};

use super::supervisor::{SupervisorCore, SupervisorIo};
use super::{cluster_size, ClusterConfig, ClusterReport};
use crate::chaos::{FaultMedium, FaultPlan};
use crate::peer::{run_peer, Ctrl, PeerConfig, PeerEvent, PeerExit, RestoreState, MAX_WAIT};
use crate::transport::EndpointNet;

/// The driver's side of [`SupervisorIo`]: each spawn mints an endpoint,
/// wraps it in the run's fault medium and starts a peer thread.
struct Threads<N, S> {
    net: N,
    plan: Arc<FaultPlan>,
    events: Sender<PeerEvent<S>>,
    ctrls: Vec<Option<Sender<Ctrl>>>,
    handles: Vec<Option<JoinHandle<PeerExit<S>>>>,
}

impl<I, N> SupervisorIo<I> for Threads<N, I::Summary>
where
    I: Instance + 'static,
    I::Summary: WireSummary + 'static,
    N: EndpointNet,
{
    fn spawn(
        &mut self,
        node: ClassifierNode<I>,
        cfg: PeerConfig,
        restore: RestoreState,
    ) -> io::Result<()> {
        let (id, inc) = (cfg.id, restore.incarnation);
        let endpoint = self.net.endpoint(id, inc)?;
        let medium = FaultMedium::new(Arc::clone(&self.plan), id, inc);
        let (ctrl_tx, ctrl_rx) = mpsc::channel();
        let events = self.events.clone();
        let handle = thread::Builder::new()
            .name(format!("distclass-peer-{id}-i{inc}"))
            .spawn(move || run_peer(node, endpoint, medium, cfg, restore, ctrl_rx, events))
            .expect("spawn peer thread");
        self.ctrls[id] = Some(ctrl_tx);
        self.handles[id] = Some(handle);
        Ok(())
    }

    fn ctrl(&mut self, id: NodeId, cmd: Ctrl) {
        if let Some(tx) = &self.ctrls[id] {
            let _ = tx.send(cmd);
        }
    }

    fn unix_ms(&self) -> Option<u64> {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .ok()
            .map(|d| d.as_millis() as u64)
    }
}

/// A panic payload as the node's error message.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs a supervised cluster over endpoints minted by `net` — a
/// [`ChannelNet`](crate::ChannelNet), a [`UdpNet`](crate::UdpNet), or caller-built
/// transports in a [`PrebuiltNet`](crate::PrebuiltNet) — under the fault
/// `plan`, and returns the final report. Crashed peers respawn from their
/// checkpoints where the net can mint replacement endpoints; a prebuilt
/// net reports a panicked peer instead, and fails a scripted join.
///
/// # Panics
///
/// Panics if `values` disagrees with the topology size, or with the
/// [`PlanNodeError`](super::PlanNodeError) message if `plan` or a plan in
/// `config` names a node outside the cluster ([`super::check_plan_nodes`]).
pub fn run_cluster_with_faults<I, N>(
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    net: N,
    plan: &FaultPlan,
    config: &ClusterConfig,
) -> ClusterReport<I::Summary>
where
    I: Instance + 'static,
    I::Summary: WireSummary + 'static,
    N: EndpointNet,
{
    let epoch = Instant::now();
    // Dropped before the profile snapshot, like the peers' threads.
    let sup_prof = config.profiler.thread("supervisor");
    // The live console: an aggregator teed into the run's trace path,
    // which the supervisor and every peer share, served over HTTP.
    let health = config.dash_listen.as_ref().map(|_| Arc::new(Health::new()));
    let live = config.dash_listen.as_ref().map(|_| {
        Arc::new(LiveAggregator::new(AnalyzeOptions {
            level: config.tol,
            ..AnalyzeOptions::default()
        }))
    });
    let mut config = config.clone();
    if let Some(agg) = &live {
        config.tracer = config.tracer.tee(Arc::clone(agg) as Arc<dyn TraceSink>);
    }
    let config = Arc::new(config);
    // A bind failure is reported but never kills the run.
    let _dash = config.dash_listen.as_ref().and_then(|addr| {
        let registry = config.metrics.registry().map(Arc::clone);
        let profiler = config.profiler.clone();
        match LiveConsole::start(addr, registry, live.clone(), profiler, health.clone()) {
            Ok(server) => {
                // With `:0` the kernel picks the port: this line finds it.
                let addr = server.local_addr();
                // A closed stdout must not end the run.
                let _ = writeln!(io::stdout(), "dashboard listening on http://{addr}/");
                Some(server)
            }
            Err(e) => {
                eprintln!("warning: could not bind dashboard listener on {addr}: {e}");
                None
            }
        }
    });
    let n = cluster_size(topology, &config);
    let (event_tx, event_rx) = mpsc::channel();
    let mut io = Threads {
        net,
        plan: Arc::new(plan.clone()),
        events: event_tx,
        ctrls: (0..n).map(|_| None).collect(),
        handles: (0..n).map(|_| None).collect(),
    };
    let shared = Arc::clone(&config);
    let mut core = SupervisorCore::new(topology, instance, values, plan, shared, epoch, &mut io);
    // Each step waits for one peer event (at most 5 ms), reaps finished
    // peer threads — delivering their last events first — and runs the
    // core's timed work.
    loop {
        let idle_span = sup_prof.span(Phase::IdleWait);
        let received = event_rx.recv_timeout(MAX_WAIT);
        drop(idle_span);
        if let Ok(ev) = received {
            core.on_event(ev, &mut io);
        }
        for id in 0..n {
            if let Some(handle) = io.handles[id].take_if(|h| h.is_finished()) {
                while let Ok(ev) = event_rx.try_recv() {
                    core.on_event(ev, &mut io);
                }
                core.on_exit(Instant::now(), id, handle.join().map_err(panic_message));
            }
        }
        let now = Instant::now();
        let running = core.on_tick(now, &mut io);
        match &health {
            Some(h) if core.quiescing() => h.set_quiesced(),
            Some(h) => h.set_round((now - epoch).as_millis() as u64),
            None => {}
        }
        if !running {
            break;
        }
    }
    // Snapshot: every peer was told to exit. Collect them all, then any
    // last checkpoint batches (durable — never rolled back).
    for id in 0..n {
        if let Some(handle) = io.handles[id].take() {
            core.on_exit(Instant::now(), id, handle.join().map_err(panic_message));
        }
    }
    while let Ok(ev) = event_rx.try_recv() {
        core.on_event(ev, &mut io);
    }
    let mut report = core.finish(Instant::now(), &sup_prof);
    // Every thread's profile is final once this one's is.
    drop(sup_prof);
    report.profile = config.profiler.core().map(|core| core.snapshot());
    report
}

//! The virtual-time driver: every [`PeerCore`] and the
//! [`SupervisorCore`] of a run on the calling thread, stepped over one
//! seeded event queue ([`EventQueue`], ordered by time, then insertion).
//!
//! Frames travel a constant [`HOP`] plus whatever the run's
//! [`FaultMedium`] adds; a frame that arrives while its addressee is down
//! is lost, as in a rebooted sensor's radio buffer. Peers wake at their
//! next deadline, clamped like the threaded driver's receive window, and
//! the supervisor at its own or every 5 ms; commands and reports between
//! them take effect at once. Nothing here reads a clock after the start,
//! so every frame, trace event and report field is a function of the
//! inputs and seeds alone.
//!
//! What it does not model: thread preemption and scheduling noise,
//! sockets, the live console and the phase profiler (a configured
//! `dash_listen` or profiler is ignored, and [`ClusterReport::profile`]
//! stays `None`).

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use distclass_core::{ClassifierNode, Instance};
use distclass_gossip::wire::WireSummary;
use distclass_net::{EventQueue, NodeId, Topology};
use distclass_obs::ThreadProfiler;

use super::supervisor::{SupervisorCore, SupervisorIo};
use super::{cluster_size, ClusterConfig, ClusterReport};
use crate::chaos::{FaultMedium, FaultPlan};
use crate::peer::{
    Ctrl, PeerConfig, PeerCore, PeerEvent, PeerExit, PeerIo, RestoreState, MAX_WAIT, MIN_WAIT,
};

/// A frame's time in flight on the in-process medium.
const HOP: Duration = Duration::from_micros(100);

enum Step {
    /// A peer's timed work; stale once that incarnation (`life`) ended.
    Wake(NodeId, u64),
    Deliver(NodeId, Vec<u8>),
    Supervise,
}

/// Everything but the supervisor core: the peers, the queue, and what the
/// peers reported since the supervisor last ran. It is the io of both.
struct World<'p, I: Instance> {
    epoch: Instant,
    now: Instant,
    plan: Arc<FaultPlan>,
    prof: &'p ThreadProfiler,
    /// Each node's running incarnation and its life id.
    peers: Vec<Option<(PeerCore<'p, I>, u64)>>,
    /// Each node's latest incarnation's sending medium.
    media: Vec<Option<FaultMedium>>,
    /// The node whose step is running: its frames go through its medium.
    sender: NodeId,
    lives: u64,
    queue: EventQueue<Instant, Step>,
    events: Vec<PeerEvent<I::Summary>>,
    exits: Vec<(NodeId, PeerExit<I::Summary>)>,
}

impl<I: Instance> PeerIo<I::Summary> for World<'_, I> {
    fn send(&mut self, to: NodeId, frame: &[u8]) -> bool {
        if to >= self.peers.len() {
            return false;
        }
        let medium = self.media[self.sender]
            .as_mut()
            .expect("a sender has a medium");
        let fate = medium.send(self.now - self.epoch, to, frame);
        for _ in 0..fate.copies {
            let at = self.now + HOP + fate.delay;
            self.queue.push(at, Step::Deliver(to, frame.to_vec()));
        }
        true
    }

    fn report(&mut self, event: PeerEvent<I::Summary>) -> bool {
        self.events.push(event);
        true
    }
}

impl<'p, I> World<'p, I>
where
    I: Instance,
    I::Summary: WireSummary,
{
    /// Runs `step` on node `id`'s core (if it is up, and is incarnation
    /// `life` when given), then retires the incarnation if it is done.
    /// `true` if the core is still running.
    fn step(
        &mut self,
        id: NodeId,
        life: Option<u64>,
        step: impl FnOnce(&mut PeerCore<'p, I>, Instant, &mut Self),
    ) -> bool {
        let Some((mut core, l)) = self.peers[id].take() else {
            return false;
        };
        let current = life.is_none_or(|life| life == l);
        if current {
            self.sender = id;
            step(&mut core, self.now, self);
            if core.done() {
                self.exits.push((id, core.finish()));
                return false;
            }
        }
        self.peers[id] = Some((core, l));
        current
    }

    /// A peer's timed work, then its next wake.
    fn wake(&mut self, id: NodeId, life: u64) {
        let running = self.step(id, Some(life), |core, now, io| {
            core.on_tick(now, io);
            core.on_report(now, io);
        });
        if let Some((core, _)) = self.peers[id].as_ref().filter(|_| running) {
            let now = self.now;
            let at = core.next_deadline().clamp(now + MIN_WAIT, now + MAX_WAIT);
            self.queue.push(at, Step::Wake(id, life));
        }
    }

    /// Hands the supervisor what the peers reported — each peer's events
    /// before its exit — until nothing is left.
    fn pump(&mut self, sup: &mut SupervisorCore<'_, I>) {
        while !self.events.is_empty() || !self.exits.is_empty() {
            for ev in std::mem::take(&mut self.events) {
                sup.on_event(ev, self);
            }
            for (id, exit) in std::mem::take(&mut self.exits) {
                sup.on_exit(self.now, id, Ok(exit));
            }
        }
    }
}

impl<I> SupervisorIo<I> for World<'_, I>
where
    I: Instance,
    I::Summary: WireSummary,
{
    fn spawn(
        &mut self,
        node: ClassifierNode<I>,
        cfg: PeerConfig,
        restore: RestoreState,
    ) -> io::Result<()> {
        let (id, inc, prof) = (cfg.id, restore.incarnation, self.prof);
        self.media[id] = Some(FaultMedium::new(Arc::clone(&self.plan), id, inc));
        self.sender = id;
        let core = PeerCore::new(node, cfg, restore, prof, self.now, self);
        self.lives += 1;
        self.peers[id] = Some((core, self.lives));
        self.queue.push(self.now, Step::Wake(id, self.lives));
        Ok(())
    }

    fn ctrl(&mut self, id: NodeId, cmd: Ctrl) {
        self.step(id, None, |core, _, _| core.on_ctrl(cmd));
    }

    fn unix_ms(&self) -> Option<u64> {
        None
    }
}

/// Runs the cluster of [`run_cluster_with_faults`](super::run_cluster_with_faults)
/// in virtual time, on the calling thread: the same peer and supervisor
/// cores over a constant-latency in-process medium under the fault
/// `plan`, with every duration in `config` measured on the virtual
/// clock. Two runs with equal inputs return equal reports and write
/// byte-identical traces.
///
/// # Panics
///
/// Panics if `values` disagrees with the topology size, or with the
/// [`PlanNodeError`](super::PlanNodeError) message if `plan` or a plan in
/// `config` names a node outside the cluster ([`super::check_plan_nodes`]).
pub fn run_sim_cluster<I>(
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    plan: &FaultPlan,
    config: &ClusterConfig,
) -> ClusterReport<I::Summary>
where
    I: Instance,
    I::Summary: WireSummary,
{
    let prof = ThreadProfiler::disabled();
    // The virtual clock's origin; only offsets from it are ever used.
    let epoch = Instant::now();
    let n = cluster_size(topology, config);
    let mut world = World {
        epoch,
        now: epoch,
        plan: Arc::new(plan.clone()),
        prof: &prof,
        peers: (0..n).map(|_| None).collect(),
        media: (0..n).map(|_| None).collect(),
        sender: 0,
        lives: 0,
        queue: EventQueue::new(),
        events: Vec::new(),
        exits: Vec::new(),
    };
    let config = Arc::new(config.clone());
    let mut sup = SupervisorCore::new(topology, instance, values, plan, config, epoch, &mut world);
    world.queue.push(epoch, Step::Supervise);
    while let Some((now, step)) = world.queue.pop() {
        world.now = now;
        match step {
            Step::Wake(id, life) => world.wake(id, life),
            Step::Deliver(to, frame) => {
                world.step(to, None, |core, now, io| {
                    core.on_frame(now, &frame, io);
                    core.on_report(now, io);
                });
            }
            Step::Supervise => {
                let running = sup.on_tick(now, &mut world);
                world.pump(&mut sup);
                if !running {
                    break;
                }
                let at = sup.next_deadline().clamp(now + HOP, now + MAX_WAIT);
                world.queue.push(at, Step::Supervise);
            }
        }
        world.pump(&mut sup);
    }
    sup.finish(world.now, &prof)
}

//! Deterministic dynamic-workload schedules: sensor drift and membership
//! churn.
//!
//! The paper's protocol is one-shot — inputs are fixed at t = 0 and
//! membership only shrinks. A continuously-serving deployment faces two
//! further kinds of change, both scripted here in the same deterministic
//! style as [`crate::chaos::FaultPlan`] and the adversary plan:
//!
//! * A [`DriftSchedule`] makes nodes *re-read their sensor* mid-run: at
//!   each scheduled instant a node decays its current contribution by the
//!   schedule's forgetting fraction and injects a fresh unit-weight
//!   collection built from the new reading
//!   ([`distclass_core::ClassifierNode::refresh_reading`]). Step changes,
//!   linear ramps and seeded re-draws all materialize to plain
//!   `(time, reading)` events at parse time, so the schedule — and its
//!   [`DriftSchedule::digest`] — is byte-identical across runs.
//! * A [`ChurnPlan`] scripts true join/leave membership churn, distinct
//!   from crash faults: joins spawn brand-new peers mid-run (their unit
//!   weight is declared as an *injection*, not part of the initial
//!   grains), and leaves retire peers gracefully — the supervisor tells
//!   the victim to hand its entire classification off to a live neighbor
//!   and drain, rather than killing it for a death receipt.
//!
//! Both plans carry an FNV-1a digest over their canonical serialization,
//! the replayability proof handle the chaos and Byzantine layers already
//! use: a dynamic-workload failure in CI is reproducible from the spec
//! string and seed alone.

use std::fmt;
use std::time::Duration;

use distclass_net::{derive_seed, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{parse_duration, parse_nodes, parse_window, Fnv, MAX_CLAUSE_EVENTS};

/// One scheduled sensor re-read: at `at`, `node` decays its contribution
/// and injects a fresh unit-weight collection at `reading`.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// Re-read time, relative to cluster start.
    pub at: Duration,
    /// The node whose sensor moves.
    pub node: NodeId,
    /// The new reading (one component per dimension).
    pub reading: Vec<f64>,
}

/// A complete, deterministic sensor-drift schedule for one cluster run.
///
/// Build one with the fluent constructors or parse the CLI grammar with
/// [`DriftSchedule::parse`]. Ramps and seeded re-draws are expanded into
/// concrete [`DriftEvent`]s at construction time, so the materialized
/// schedule is what the digest covers.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSchedule {
    /// Seed used to materialize `redraw` clauses.
    pub seed: u64,
    /// Forgetting fraction applied at each re-read, as `(num, den)`: the
    /// node's pre-drift collections lose `num/den` of their grains
    /// (integer-exact, accounted as the auditor's `forgotten` term).
    pub decay: (u64, u64),
    /// The materialized re-read events, sorted by time.
    pub events: Vec<DriftEvent>,
}

impl DriftSchedule {
    /// An empty schedule with the given seed and the default half-life
    /// forgetting fraction (1/2).
    pub fn new(seed: u64) -> DriftSchedule {
        DriftSchedule {
            seed,
            decay: (1, 2),
            events: Vec::new(),
        }
    }

    /// Sets the forgetting fraction.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero or `num > den`.
    #[must_use]
    pub fn decay(mut self, num: u64, den: u64) -> DriftSchedule {
        assert!(den > 0 && num <= den, "decay fraction must be in [0, 1]");
        self.decay = (num, den);
        self
    }

    /// Adds a step re-read of `node` at `at`.
    #[must_use]
    pub fn step(mut self, at: Duration, node: NodeId, reading: Vec<f64>) -> DriftSchedule {
        self.events.push(DriftEvent { at, node, reading });
        self.sort();
        self
    }

    /// Adds a linear ramp for `node`: `steps` evenly spaced re-reads in
    /// `[from, until]`, interpolating component-wise from `start` to
    /// `end`.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero, the window is inverted, or the
    /// endpoint dimensions disagree.
    #[must_use]
    pub fn ramp(
        mut self,
        from: Duration,
        until: Duration,
        node: NodeId,
        start: Vec<f64>,
        end: Vec<f64>,
        steps: usize,
    ) -> DriftSchedule {
        assert!(steps > 0, "ramp needs at least one step");
        assert!(until > from, "ramp window ends before it starts");
        assert_eq!(start.len(), end.len(), "ramp endpoints disagree on dims");
        self.events
            .extend(ramp_events(from, until, node, &start, &end, steps));
        self.sort();
        self
    }

    /// Adds a seeded re-draw for `node` at `at`: the reading is drawn
    /// uniformly from `center ± spread` per component, deterministically
    /// from the schedule seed, the node id and the event time.
    #[must_use]
    pub fn redraw(
        mut self,
        at: Duration,
        node: NodeId,
        center: Vec<f64>,
        spread: f64,
    ) -> DriftSchedule {
        let reading = draw_reading(self.seed, node, at, &center, spread);
        self.events.push(DriftEvent { at, node, reading });
        self.sort();
        self
    }

    fn sort(&mut self) {
        self.events
            .sort_by(|a, b| a.at.cmp(&b.at).then(a.node.cmp(&b.node)));
    }

    /// Whether the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The time of the last event, or zero for an empty schedule — the
    /// supervisor keeps the run alive at least this long.
    pub fn horizon(&self) -> Duration {
        self.events.last().map(|e| e.at).unwrap_or(Duration::ZERO)
    }

    /// The materialized `(time, reading)` series for one node, in order.
    pub fn events_for(&self, node: NodeId) -> Vec<(Duration, Vec<f64>)> {
        self.events
            .iter()
            .filter(|e| e.node == node)
            .map(|e| (e.at, e.reading.clone()))
            .collect()
    }

    /// Parses the CLI drift grammar: `;`-separated clauses, each one of
    ///
    /// * `step@<at>:<nodes>=<comps>` — e.g. `step@300ms:0-3=5.0,5.0`
    ///   (nodes as a `-` range or single id; comps comma-separated);
    /// * `ramp@<from>-<until>:<nodes>=<comps>><comps>/<steps>` — e.g.
    ///   `ramp@200ms-800ms:2=1.0,1.0>9.0,9.0/4`;
    /// * `redraw@<at>:<nodes>=<comps>~<spread>` — seeded uniform draw in
    ///   `center ± spread`, e.g. `redraw@500ms:0-7=5.0,5.0~1.0`;
    /// * `decay=<num>/<den>` — the forgetting fraction (default `1/2`).
    ///
    /// Durations take `ms`/`s` suffixes; a bare integer means
    /// milliseconds, and a duration past `u64::MAX` milliseconds is an
    /// error. A node set names at most [`crate::MAX_SPEC_NODES`] ids,
    /// and a clause expands to at most [`MAX_CLAUSE_EVENTS`] events
    /// (a ramp's nodes times its steps).
    ///
    /// # Errors
    ///
    /// A [`DynSpecError`] naming the offending clause.
    pub fn parse(spec: &str, seed: u64) -> Result<DriftSchedule, DynSpecError> {
        let mut plan = DriftSchedule::new(seed);
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let err = |msg: &str| DynSpecError(format!("clause `{clause}`: {msg}"));
            if let Some(rest) = clause.strip_prefix("step@") {
                let (head, comps) = rest
                    .split_once('=')
                    .ok_or_else(|| err("expected `<at>:<nodes>=<comps>`"))?;
                let (at, nodes) = parse_at_nodes(head).map_err(|m| err(&m))?;
                let reading = parse_reading(comps).map_err(|m| err(&m))?;
                for node in nodes {
                    plan.events.push(DriftEvent {
                        at,
                        node,
                        reading: reading.clone(),
                    });
                }
            } else if let Some(rest) = clause.strip_prefix("ramp@") {
                let (head, tail) = rest
                    .split_once('=')
                    .ok_or_else(|| err("expected `<from>-<until>:<nodes>=<a>><b>/<steps>`"))?;
                let (window, nodes) = head
                    .split_once(':')
                    .ok_or_else(|| err("expected `<from>-<until>:<nodes>`"))?;
                let (from, until) = parse_window(window).map_err(|m| err(&m))?;
                let nodes = parse_nodes(nodes).map_err(|m| err(&m))?;
                let (endpoints, steps) = tail
                    .rsplit_once('/')
                    .ok_or_else(|| err("expected `/<steps>` after the endpoints"))?;
                let (a, b) = endpoints
                    .split_once('>')
                    .ok_or_else(|| err("expected `<start>><end>` endpoints"))?;
                let start = parse_reading(a).map_err(|m| err(&m))?;
                let end = parse_reading(b).map_err(|m| err(&m))?;
                if start.len() != end.len() {
                    return Err(err("ramp endpoints disagree on dimensions"));
                }
                let steps: usize = steps.trim().parse().map_err(|_| err("bad step count"))?;
                if steps == 0 {
                    return Err(err("ramp needs at least one step"));
                }
                if nodes.len().saturating_mul(steps) > MAX_CLAUSE_EVENTS {
                    return Err(err(&format!(
                        "ramp expands to more than {MAX_CLAUSE_EVENTS} events"
                    )));
                }
                for node in nodes {
                    plan.events
                        .extend(ramp_events(from, until, node, &start, &end, steps));
                }
            } else if let Some(rest) = clause.strip_prefix("redraw@") {
                let (head, tail) = rest
                    .split_once('=')
                    .ok_or_else(|| err("expected `<at>:<nodes>=<comps>~<spread>`"))?;
                let (at, nodes) = parse_at_nodes(head).map_err(|m| err(&m))?;
                let (comps, spread) = tail
                    .rsplit_once('~')
                    .ok_or_else(|| err("expected `~<spread>` after the center"))?;
                let center = parse_reading(comps).map_err(|m| err(&m))?;
                let spread: f64 = spread.trim().parse().map_err(|_| err("bad spread"))?;
                if !spread.is_finite() || spread < 0.0 {
                    return Err(err("spread must be finite and non-negative"));
                }
                for node in nodes {
                    let reading = draw_reading(seed, node, at, &center, spread);
                    plan.events.push(DriftEvent { at, node, reading });
                }
            } else if let Some(rest) = clause.strip_prefix("decay=") {
                let (num, den) = rest
                    .split_once('/')
                    .ok_or_else(|| err("expected `<num>/<den>`"))?;
                let num: u64 = num.trim().parse().map_err(|_| err("bad numerator"))?;
                let den: u64 = den.trim().parse().map_err(|_| err("bad denominator"))?;
                if den == 0 || num > den {
                    return Err(err("decay fraction must be in [0, 1]"));
                }
                plan.decay = (num, den);
            } else {
                return Err(err("unknown clause"));
            }
        }
        plan.sort();
        Ok(plan)
    }

    /// A deterministic fingerprint of the materialized schedule. Two
    /// schedules drive byte-identical drift iff their digests match.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(&self.seed.to_be_bytes());
        h.eat(&self.decay.0.to_be_bytes());
        h.eat(&self.decay.1.to_be_bytes());
        for e in &self.events {
            h.eat(&e.at.as_nanos().to_be_bytes());
            h.eat(&(e.node as u64).to_be_bytes());
            for &c in &e.reading {
                h.eat(&c.to_bits().to_be_bytes());
            }
            h.eat(b"|");
        }
        h.finish()
    }
}

/// One scripted join: at `at` the supervisor spawns brand-new peer
/// `node` holding `reading` at unit weight — declared to the auditor as
/// an injection, not initial mass.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEvent {
    /// Spawn time, relative to cluster start.
    pub at: Duration,
    /// The joiner's id — must be `≥ n` for a cluster of `n` seed nodes
    /// (validated by the supervisor, which sizes the transport for it).
    pub node: NodeId,
    /// The joiner's initial sensor reading.
    pub reading: Vec<f64>,
}

/// One scripted graceful leave: at `at` the supervisor tells `node` to
/// hand its entire classification off to a live neighbor, drain, and
/// exit retired — no grains are lost, unlike a permanent crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaveEvent {
    /// Retirement time, relative to cluster start.
    pub at: Duration,
    /// The retiring node.
    pub node: NodeId,
}

/// A complete, deterministic membership-churn plan for one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPlan {
    /// Seed (carried for digest parity with the other plans; the
    /// schedule itself is fully explicit).
    pub seed: u64,
    /// Scripted joins, sorted by time.
    pub joins: Vec<JoinEvent>,
    /// Scripted graceful leaves, sorted by time.
    pub leaves: Vec<LeaveEvent>,
}

impl ChurnPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> ChurnPlan {
        ChurnPlan {
            seed,
            joins: Vec::new(),
            leaves: Vec::new(),
        }
    }

    /// Adds a join of `node` at `at` with the given reading.
    #[must_use]
    pub fn join(mut self, at: Duration, node: NodeId, reading: Vec<f64>) -> ChurnPlan {
        self.joins.push(JoinEvent { at, node, reading });
        self.sort();
        self
    }

    /// Adds a graceful leave of `node` at `at`.
    #[must_use]
    pub fn leave(mut self, at: Duration, node: NodeId) -> ChurnPlan {
        self.leaves.push(LeaveEvent { at, node });
        self.sort();
        self
    }

    fn sort(&mut self) {
        self.joins
            .sort_by(|a, b| a.at.cmp(&b.at).then(a.node.cmp(&b.node)));
        self.leaves
            .sort_by(|a, b| a.at.cmp(&b.at).then(a.node.cmp(&b.node)));
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty() && self.leaves.is_empty()
    }

    /// The time of the last scheduled event, or zero when empty.
    pub fn horizon(&self) -> Duration {
        let j = self.joins.last().map(|e| e.at).unwrap_or(Duration::ZERO);
        let l = self.leaves.last().map(|e| e.at).unwrap_or(Duration::ZERO);
        j.max(l)
    }

    /// Parses the CLI churn grammar: `;`-separated clauses, each one of
    ///
    /// * `join@<at>:<id>=<comps>` — e.g. `join@400ms:16=5.0,5.0`;
    /// * `leave@<at>:<node>` — e.g. `leave@600ms:3`.
    ///
    /// Durations take `ms`/`s` suffixes; a bare integer means
    /// milliseconds, and a duration past `u64::MAX` milliseconds is an
    /// error. Duplicate join ids are rejected (each joiner gets
    /// exactly one endpoint), as is a join scheduled at or after a leave
    /// of the same node (a joiner that immediately retires is a spec
    /// bug, not a scenario).
    ///
    /// # Errors
    ///
    /// A [`DynSpecError`] naming the offending clause.
    pub fn parse(spec: &str, seed: u64) -> Result<ChurnPlan, DynSpecError> {
        let mut plan = ChurnPlan::new(seed);
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let err = |msg: &str| DynSpecError(format!("clause `{clause}`: {msg}"));
            if let Some(rest) = clause.strip_prefix("join@") {
                let (head, comps) = rest
                    .split_once('=')
                    .ok_or_else(|| err("expected `<at>:<id>=<comps>`"))?;
                let (at, id) = head
                    .split_once(':')
                    .ok_or_else(|| err("expected `<at>:<id>`"))?;
                let at = parse_duration(at).map_err(|m| err(&m))?;
                let node: NodeId = id.trim().parse().map_err(|_| err("bad node id"))?;
                if plan.joins.iter().any(|j| j.node == node) {
                    return Err(err("duplicate join id"));
                }
                let reading = parse_reading(comps).map_err(|m| err(&m))?;
                plan.joins.push(JoinEvent { at, node, reading });
            } else if let Some(rest) = clause.strip_prefix("leave@") {
                let (at, id) = rest
                    .split_once(':')
                    .ok_or_else(|| err("expected `<at>:<node>`"))?;
                let at = parse_duration(at).map_err(|m| err(&m))?;
                let node: NodeId = id.trim().parse().map_err(|_| err("bad node id"))?;
                plan.leaves.push(LeaveEvent { at, node });
            } else {
                return Err(err("unknown clause"));
            }
        }
        for l in &plan.leaves {
            if let Some(j) = plan.joins.iter().find(|j| j.node == l.node) {
                if l.at <= j.at {
                    return Err(DynSpecError(format!(
                        "node {} leaves at {:?} but only joins at {:?}",
                        l.node, l.at, j.at
                    )));
                }
            }
        }
        plan.sort();
        Ok(plan)
    }

    /// A deterministic fingerprint of the plan.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(&self.seed.to_be_bytes());
        for j in &self.joins {
            h.eat(&j.at.as_nanos().to_be_bytes());
            h.eat(&(j.node as u64).to_be_bytes());
            for &c in &j.reading {
                h.eat(&c.to_bits().to_be_bytes());
            }
            h.eat(b"|");
        }
        for l in &self.leaves {
            h.eat(&l.at.as_nanos().to_be_bytes());
            h.eat(&(l.node as u64).to_be_bytes());
            h.eat(b"~");
        }
        h.finish()
    }
}

/// A malformed `--drift` or `--churn` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynSpecError(pub String);

impl fmt::Display for DynSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad dynamic-workload spec: {}", self.0)
    }
}

impl std::error::Error for DynSpecError {}

fn ramp_events(
    from: Duration,
    until: Duration,
    node: NodeId,
    start: &[f64],
    end: &[f64],
    steps: usize,
) -> Vec<DriftEvent> {
    (1..=steps)
        .map(|i| {
            let f = i as f64 / steps as f64;
            // Past 2^53 ns a float product can round beyond the window.
            let at = (from + (until - from).mul_f64(f)).min(until);
            let reading = start
                .iter()
                .zip(end)
                .map(|(&a, &b)| a + (b - a) * f)
                .collect();
            DriftEvent { at, node, reading }
        })
        .collect()
}

/// Deterministic uniform draw in `center ± spread`, seeded by the plan
/// seed, the node and the event time — stable across runs and across
/// reorderings of the spec string.
fn draw_reading(seed: u64, node: NodeId, at: Duration, center: &[f64], spread: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(derive_seed(
        seed,
        0xD81F ^ node as u64 ^ (at.as_nanos() as u64).rotate_left(17),
    ));
    center
        .iter()
        .map(|&c| {
            if spread == 0.0 {
                c
            } else {
                c + rng.gen_range(-spread..=spread)
            }
        })
        .collect()
}

fn parse_at_nodes(s: &str) -> Result<(Duration, Vec<NodeId>), String> {
    let (at, nodes) = s
        .split_once(':')
        .ok_or_else(|| format!("bad `{s}` (want `<at>:<nodes>`)"))?;
    Ok((parse_duration(at)?, parse_nodes(nodes)?))
}

fn parse_reading(s: &str) -> Result<Vec<f64>, String> {
    let comps: Vec<f64> = s
        .split(',')
        .map(|c| {
            c.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad component `{c}`"))
        })
        .collect::<Result<_, _>>()?;
    if comps.is_empty() {
        return Err("empty reading".to_string());
    }
    if comps.iter().any(|c| !c.is_finite()) {
        return Err(format!("non-finite reading `{s}`"));
    }
    Ok(comps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_parse_round_trips_the_grammar() {
        let spec = "step@300ms:0-3=5.0,5.0; ramp@200ms-800ms:4=1.0,1.0>9.0,9.0/4; \
                    redraw@500ms:5,6=2.0,2.0~0.5; decay=1/4";
        let plan = DriftSchedule::parse(spec, 42).unwrap();
        assert_eq!(plan.decay, (1, 4));
        // 4 step events + 4 ramp events + 2 redraws.
        assert_eq!(plan.events.len(), 10);
        let steps = plan.events_for(0);
        assert_eq!(steps, vec![(Duration::from_millis(300), vec![5.0, 5.0])]);
        let ramp = plan.events_for(4);
        assert_eq!(ramp.len(), 4);
        assert_eq!(ramp[0].0, Duration::from_millis(350));
        assert_eq!(ramp[3].0, Duration::from_millis(800));
        assert_eq!(ramp[3].1, vec![9.0, 9.0]);
        // Events are globally time-sorted.
        assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(plan.horizon(), Duration::from_millis(800));
    }

    #[test]
    fn drift_redraw_is_seed_deterministic() {
        let spec = "redraw@500ms:0-7=5.0,5.0~1.0";
        let a = DriftSchedule::parse(spec, 9).unwrap();
        let b = DriftSchedule::parse(spec, 9).unwrap();
        let c = DriftSchedule::parse(spec, 10).unwrap();
        assert_eq!(a, b, "same seed must materialize identically");
        assert_ne!(a, c, "seed must perturb the drawn readings");
        for e in &a.events {
            for &x in &e.reading {
                assert!((4.0..=6.0).contains(&x), "draw {x} outside center±spread");
            }
        }
        // Different nodes draw different readings.
        assert_ne!(a.events[0].reading, a.events[1].reading);
    }

    #[test]
    fn drift_parse_rejects_malformed_clauses() {
        for bad in [
            "step@300ms:0",                     // missing reading
            "step@300ms:0=",                    // empty reading
            "step@300ms:0=nan",                 // unparsable component
            "ramp@800ms-200ms:0=1.0>2.0/3",     // inverted window
            "ramp@200ms-800ms:0=1.0>2.0,3.0/3", // dim mismatch
            "ramp@200ms-800ms:0=1.0>2.0/0",     // zero steps
            "redraw@500ms:0=5.0~-1.0",          // negative spread
            "decay=3/2",                        // fraction above 1
            "decay=1/0",                        // zero denominator
            "mystery=1",
        ] {
            assert!(DriftSchedule::parse(bad, 0).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn drift_digest_is_deterministic_and_sensitive() {
        let spec = "step@300ms:0-3=5.0,5.0; decay=1/4";
        let a = DriftSchedule::parse(spec, 42).unwrap();
        let b = DriftSchedule::parse(spec, 42).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_ne!(
            a.digest(),
            DriftSchedule::parse("step@301ms:0-3=5.0,5.0; decay=1/4", 42)
                .unwrap()
                .digest(),
            "any schedule change must perturb the digest"
        );
        assert_ne!(
            a.digest(),
            DriftSchedule::parse("step@300ms:0-3=5.0,5.0; decay=1/2", 42)
                .unwrap()
                .digest(),
            "the decay fraction is part of the schedule"
        );
        assert_ne!(a.digest(), DriftSchedule::parse(spec, 43).unwrap().digest());
    }

    #[test]
    fn churn_parse_round_trips_the_grammar() {
        let plan =
            ChurnPlan::parse("join@400ms:16=5.0,5.0; leave@600ms:3; leave@700ms:16", 7).unwrap();
        assert_eq!(plan.joins.len(), 1);
        assert_eq!(plan.joins[0].node, 16);
        assert_eq!(plan.joins[0].reading, vec![5.0, 5.0]);
        assert_eq!(plan.leaves.len(), 2);
        assert_eq!(plan.leaves[0].node, 3);
        assert_eq!(plan.horizon(), Duration::from_millis(700));
        assert!(!plan.is_empty());
        assert!(ChurnPlan::new(0).is_empty());
    }

    #[test]
    fn churn_parse_rejects_malformed_clauses() {
        for bad in [
            "join@400ms:16",                     // missing reading
            "join@400ms:16=",                    // empty reading
            "join@1:5=1.0; join@2:5=2.0",        // duplicate join id
            "join@400ms:16=1.0; leave@300ms:16", // leaves before joining
            "leave@600ms",                       // missing node
            "mystery=1",
        ] {
            assert!(ChurnPlan::parse(bad, 0).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn churn_digest_is_deterministic_and_sensitive() {
        let spec = "join@400ms:16=5.0,5.0; leave@600ms:3";
        let a = ChurnPlan::parse(spec, 7).unwrap();
        let b = ChurnPlan::parse(spec, 7).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_ne!(
            a.digest(),
            ChurnPlan::parse("join@400ms:16=5.0,5.0; leave@601ms:3", 7)
                .unwrap()
                .digest()
        );
        assert_ne!(a.digest(), ChurnPlan::parse(spec, 8).unwrap().digest());
    }

    #[test]
    fn builders_match_parsed_plans() {
        let built =
            DriftSchedule::new(42)
                .decay(1, 4)
                .step(Duration::from_millis(300), 0, vec![5.0, 5.0]);
        let parsed = DriftSchedule::parse("step@300ms:0=5.0,5.0; decay=1/4", 42).unwrap();
        assert_eq!(built.digest(), parsed.digest());

        let built = ChurnPlan::new(7)
            .join(Duration::from_millis(400), 16, vec![5.0, 5.0])
            .leave(Duration::from_millis(600), 3);
        let parsed = ChurnPlan::parse("join@400ms:16=5.0,5.0; leave@600ms:3", 7).unwrap();
        assert_eq!(built.digest(), parsed.digest());
    }
}

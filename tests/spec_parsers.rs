//! Hostile input for the four plan grammars (`--faults`,
//! `--adversaries`, `--drift`, `--churn`).
//!
//! Specs are built from the grammars' own tokens — clause heads,
//! separators, digits, numbers past every bound, and `ms`/`s` suffixes —
//! and each parser must return a plan or a typed error, never panic. An
//! accepted plan must stay within the stated caps (a node set names at
//! most `MAX_SPEC_NODES` ids, a drift clause expands to at most
//! `MAX_CLAUSE_EVENTS` events), and its times must be the durations its
//! text says. A debug build panics on an overflowing duration, but a
//! release build wraps it silently, so run this file in release too.

use std::time::Duration;

use distclass::runtime::{
    AdversaryPlan, ChurnPlan, DriftSchedule, FaultPlan, MAX_CLAUSE_EVENTS, MAX_SPEC_NODES,
};
use proptest::prelude::*;

const HEADS: &[&str] = &[
    "partition@",
    "crash@",
    "delay=",
    "dup=",
    "reorder=",
    "mint@",
    "poison@",
    "cartel@",
    "sigma=",
    "units=",
    "shift=",
    "step@",
    "ramp@",
    "redraw@",
    "decay=",
    "join@",
    "leave@",
];
const SEPARATORS: &[&str] = &["@", ":", ";", ",", "-", "=", ">", "/", "~", "+", " "];
/// Durations, counts and node ids, from ordinary to past `u64`.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "7",
    "250",
    "65535",
    "65536",
    "99999999999",
    "18446744073709551",
    "18446744073709552",
    "18446744073709551615",
    "18446744073709551616",
];
const UNITS: &[&str] = &["", "ms", "s"];
const PROBS: &[&str] = &["0", "0.05", "0.5", "1", "1.5", "-1", "nan"];
const FLOATS: &[&str] = &["0", "1.0", "-2.5", "0.5", "1e308", "inf", "nan"];

/// Draws grammar pieces from a list of pre-rolled dice.
struct Dice(std::vec::IntoIter<usize>);

impl Dice {
    fn below(&mut self, n: usize) -> usize {
        self.0.next().unwrap_or(0) % n
    }

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.below(pool.len())]
    }

    /// A duration token; the time it denotes, when that fits in `u64`
    /// milliseconds, is pushed onto `said`.
    fn duration(&mut self, said: &mut Vec<Duration>) -> String {
        let (num, unit) = (self.pick(NUMBERS), self.pick(UNITS));
        let scale: u128 = if unit == "s" { 1000 } else { 1 };
        let ms = num.parse::<u128>().map(|v| u64::try_from(v * scale));
        if let Ok(Ok(ms)) = ms {
            said.push(Duration::from_millis(ms));
        }
        format!("{num}{unit}")
    }

    fn nodes(&mut self) -> String {
        match self.below(3) {
            0 => self.pick(NUMBERS).to_string(),
            1 => format!("{}-{}", self.pick(NUMBERS), self.pick(NUMBERS)),
            _ => format!("{},{}", self.pick(NUMBERS), self.pick(NUMBERS)),
        }
    }

    fn reading(&mut self) -> String {
        match self.below(2) {
            0 => self.pick(FLOATS).to_string(),
            _ => format!("{},{}", self.pick(FLOATS), self.pick(FLOATS)),
        }
    }
}

/// What a structured spec says: its text, clause count, the durations its
/// tokens denote, and the windows its ramps span.
struct Said {
    spec: String,
    clauses: usize,
    times: Vec<Duration>,
    ramps: Vec<(Duration, Duration)>,
}

impl Said {
    fn build(dice: Vec<usize>, clause: impl Fn(&mut Dice, &mut Said) -> String) -> Said {
        let mut d = Dice(dice.into_iter());
        let mut said = Said {
            spec: String::new(),
            clauses: 1 + d.below(3),
            times: Vec::new(),
            ramps: Vec::new(),
        };
        let clauses: Vec<String> = (0..said.clauses)
            .map(|_| clause(&mut d, &mut said))
            .collect();
        said.spec = clauses.join("; ");
        said
    }

    fn says(&self, t: Duration) -> bool {
        self.times.contains(&t)
            || self
                .ramps
                .iter()
                .any(|&(from, until)| from < t && t <= until)
    }
}

fn fault_clause(d: &mut Dice, s: &mut Said) -> String {
    match d.below(6) {
        0 => {
            let (from, until) = (d.duration(&mut s.times), d.duration(&mut s.times));
            format!("partition@{from}-{until}:{}", d.nodes())
        }
        1 => format!("crash@{}:{}", d.duration(&mut s.times), d.pick(NUMBERS)),
        2 => {
            let at = d.duration(&mut s.times);
            let node = d.pick(NUMBERS);
            format!("crash@{at}:{node}+{}", d.duration(&mut s.times))
        }
        3 => {
            let p = d.pick(PROBS);
            let (min, max) = (d.duration(&mut s.times), d.duration(&mut s.times));
            format!("delay={p}:{min}-{max}")
        }
        4 => format!("dup={}", d.pick(PROBS)),
        _ => format!("reorder={}", d.pick(PROBS)),
    }
}

fn adversary_clause(d: &mut Dice, _: &mut Said) -> String {
    match d.below(5) {
        0 => format!("mint@{}", d.nodes()),
        1 => format!("mint@{}:units={}", d.nodes(), d.pick(NUMBERS)),
        2 => format!("poison@{}:shift={}", d.nodes(), d.pick(FLOATS)),
        3 => format!("cartel@{}", d.nodes()),
        _ => format!("sigma={}", d.pick(FLOATS)),
    }
}

fn drift_clause(d: &mut Dice, s: &mut Said) -> String {
    match d.below(4) {
        0 => {
            let at = d.duration(&mut s.times);
            format!("step@{at}:{}={}", d.nodes(), d.reading())
        }
        1 => {
            let mut window = Vec::new();
            let (from, until) = (d.duration(&mut window), d.duration(&mut window));
            if let [a, b] = window[..] {
                s.ramps.push((a, b));
            }
            let (nodes, a, b) = (d.nodes(), d.reading(), d.reading());
            format!("ramp@{from}-{until}:{nodes}={a}>{b}/{}", d.pick(NUMBERS))
        }
        2 => {
            let at = d.duration(&mut s.times);
            let (nodes, center) = (d.nodes(), d.reading());
            format!("redraw@{at}:{nodes}={center}~{}", d.pick(FLOATS))
        }
        _ => format!("decay={}/{}", d.pick(NUMBERS), d.pick(NUMBERS)),
    }
}

fn churn_clause(d: &mut Dice, s: &mut Said) -> String {
    let at = d.duration(&mut s.times);
    match d.below(2) {
        0 => format!("join@{at}:{}={}", d.pick(NUMBERS), d.reading()),
        _ => format!("leave@{at}:{}", d.pick(NUMBERS)),
    }
}

/// Every time a fault plan schedules.
fn fault_times(plan: &FaultPlan) -> Vec<Duration> {
    let windows = plan.partitions.iter().flat_map(|w| [w.from, w.until]);
    let crashes = plan
        .crashes
        .iter()
        .flat_map(|c| std::iter::once(c.at).chain(c.restart_after));
    let delay = plan.delay.iter().flat_map(|d| [d.min, d.max]);
    windows.chain(crashes).chain(delay).collect()
}

/// Checks the caps every accepted plan keeps, whatever its text.
fn check_caps(spec: &str) -> Result<(), TestCaseError> {
    let clauses = spec.split(';').filter(|c| !c.trim().is_empty()).count();
    if let Ok(plan) = FaultPlan::parse(spec, 1) {
        for w in &plan.partitions {
            prop_assert!(w.side.len() <= MAX_SPEC_NODES, "{spec}");
        }
        prop_assert!(plan.crashes.len() <= clauses, "{spec}");
    }
    if let Ok(plan) = AdversaryPlan::parse(spec, 1) {
        prop_assert!(plan.roles.len() <= clauses * MAX_SPEC_NODES, "{spec}");
    }
    if let Ok(plan) = DriftSchedule::parse(spec, 1) {
        prop_assert!(plan.events.len() <= clauses * MAX_CLAUSE_EVENTS, "{spec}");
    }
    if let Ok(plan) = ChurnPlan::parse(spec, 1) {
        prop_assert!(plan.joins.len() + plan.leaves.len() <= clauses, "{spec}");
    }
    Ok(())
}

fn dice() -> impl Strategy<Value = Vec<usize>> {
    collection::vec(0usize..1 << 20, 48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Token soup: any sequence of grammar tokens parses or errs under all
    /// four grammars, and what parses keeps the caps.
    #[test]
    fn token_soup_never_panics_and_keeps_the_caps(dice in collection::vec(0usize..1 << 20, 1..24)) {
        let tokens = [HEADS, SEPARATORS, NUMBERS, UNITS, PROBS];
        let spec: String = dice
            .iter()
            .map(|&r| {
                let pool = tokens[r % tokens.len()];
                pool[(r / tokens.len()) % pool.len()]
            })
            .collect();
        check_caps(&spec)?;
    }

    #[test]
    fn fault_plans_schedule_the_times_their_text_says(dice in dice()) {
        let said = Said::build(dice, fault_clause);
        if let Ok(plan) = FaultPlan::parse(&said.spec, 3) {
            for t in fault_times(&plan) {
                prop_assert!(said.says(t), "{t:?} is not in `{}`", said.spec);
            }
        }
        check_caps(&said.spec)?;
    }

    #[test]
    fn adversary_plans_keep_the_caps(dice in dice()) {
        let said = Said::build(dice, adversary_clause);
        check_caps(&said.spec)?;
    }

    #[test]
    fn drift_schedules_schedule_the_times_their_text_says(dice in dice()) {
        let said = Said::build(dice, drift_clause);
        if let Ok(plan) = DriftSchedule::parse(&said.spec, 3) {
            for e in &plan.events {
                prop_assert!(said.says(e.at), "{:?} is not in `{}`", e.at, said.spec);
            }
        }
        check_caps(&said.spec)?;
    }

    #[test]
    fn churn_plans_schedule_the_times_their_text_says(dice in dice()) {
        let said = Said::build(dice, churn_clause);
        if let Ok(plan) = ChurnPlan::parse(&said.spec, 3) {
            let joins = plan.joins.iter().map(|j| j.at);
            for t in joins.chain(plan.leaves.iter().map(|l| l.at)) {
                prop_assert!(said.says(t), "{t:?} is not in `{}`", said.spec);
            }
        }
        check_caps(&said.spec)?;
    }
}

/// The inputs that once crashed `run-cluster` or wrapped its schedule.
#[test]
fn known_hostile_specs_are_typed_errors() {
    let err = FaultPlan::parse("crash@18446744073709552s:1", 0).unwrap_err();
    assert!(err.0.contains("overflows u64 milliseconds"), "{err}");
    let err = FaultPlan::parse("partition@0ms-1s:0-99999999999", 0).unwrap_err();
    assert!(err.0.contains("names more than 65536 nodes"), "{err}");
    let err = AdversaryPlan::parse("cartel@0-99999999999", 0).unwrap_err();
    assert!(err.0.contains("names more than 65536 nodes"), "{err}");
    let err =
        DriftSchedule::parse("ramp@0ms-1s:0=1.0,1.0>2.0,2.0/18446744073709551615", 0).unwrap_err();
    assert!(
        err.0.contains("ramp expands to more than 65536 events"),
        "{err}"
    );

    // One step inside each bound still parses, to the exact time.
    let plan = FaultPlan::parse("crash@18446744073709551s:1", 0).expect("fits u64 ms");
    assert_eq!(
        plan.crashes[0].at,
        Duration::from_secs(18_446_744_073_709_551)
    );
    let plan = AdversaryPlan::parse("cartel@0-65535", 0).expect("65,536 ids");
    assert_eq!(plan.roles.len(), MAX_SPEC_NODES);
    let plan = DriftSchedule::parse("ramp@0ms-1s:0-1=1.0>2.0/32768", 0).expect("65,536 events");
    assert_eq!(plan.events.len(), MAX_CLAUSE_EVENTS);

    // A ramp ends at its window's end, however long the window.
    let longest = Duration::from_millis(u64::MAX);
    let plan = DriftSchedule::parse("ramp@1ms-18446744073709551615ms:0=1.0>2.0/3", 0)
        .expect("a window inside u64 ms");
    assert!(plan.events.iter().all(|e| e.at <= longest), "{plan:?}");
    assert_eq!(plan.events[2].at, longest);
}

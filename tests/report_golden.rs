//! Golden byte-identity pins for the four offline trace reports.
//!
//! Each digest is FNV-1a over a report's `to_json()` text followed by its
//! `Display` text (and, for the causal report read from events, its DOT
//! rendering). They were recorded before the reports became one-pass
//! folds over a line reader, and pin every byte of their output over
//! three traces:
//!
//! * `data/crash_restart_round_sim.jsonl`: a seeded centroid `RoundSim`
//!   (12 nodes, seed 11, 10 rounds) with three scheduled crashes, two of
//!   them revived, and the failure detector off, so crashes, restarts
//!   and drops to crashed nodes all appear (12 nodes: the influence
//!   matrix prints in full);
//! * `data/partition_round_sim.jsonl`: the same engine (24 nodes, seed
//!   5, 9 rounds) with nodes 0–7 cut off in rounds 2–5, so partitioned
//!   drops appear (24 nodes: the matrix prints as a summary);
//! * a hand-built runtime-shaped event list that uses every
//!   `TraceEvent` variant: grain deltas with causal stamps and frame
//!   wait/transit times, checkpoints (one disagreeing), voids (open
//!   tail, drift terms, one matching nothing), drift, a join beyond the
//!   declared head count and a retirement, audit probes and verdicts,
//!   strikes and a conviction, rejections and bandwidth, the audit and
//!   byz summaries, converging telemetry, and the truncation marker.
//!
//! The two round-engine traces are fixtures because the simulators no
//! longer model crash-restarts or partitions (deployment faults live in
//! the runtime's `FaultPlan`). They were written by the round engine
//! that still had those models, and each parses back to the events it
//! was written from.
//!
//! Every trace is fed both as a slice (`from_events`) and as JSONL text
//! (`from_jsonl`); the JSONL copy of the hand-built trace also carries a
//! blank line and a line of an unknown event type. A change that moves
//! any byte of any report fails here.

use std::collections::BTreeSet;

use distclass::obs::{
    AnalyzeOptions, ByzReport, CausalReport, DropReason, DynOptions, DynReport, GrainOp,
    TelemetrySample, TraceEvent, TraceReport,
};

/// `[trace, causal, byz, dyn]` digests, read from a slice.
const CRASH_RESTART_EVENTS: [u64; 4] = [
    0x3a61_7b76_1d9c_3fe6,
    0xb932_9767_44b0_e178,
    0x3a30_ccec_123a_1dc1,
    0x6de0_f16d_d6ef_f29d,
];
/// The same trace read as JSONL.
const CRASH_RESTART_JSONL: [u64; 4] = [
    0x3a61_7b76_1d9c_3fe6,
    0xb74f_b64f_3f48_e5b0,
    0x3a30_ccec_123a_1dc1,
    0x6de0_f16d_d6ef_f29d,
];
const PARTITION_EVENTS: [u64; 4] = [
    0x92e0_03ff_2b41_e8a8,
    0x591f_34d9_aa38_cead,
    0x4e10_85ff_64f9_bb4f,
    0xebc1_c52d_08a2_86ad,
];
const PARTITION_JSONL: [u64; 4] = [
    0x92e0_03ff_2b41_e8a8,
    0x3ffd_719f_6a99_725e,
    0x4e10_85ff_64f9_bb4f,
    0xebc1_c52d_08a2_86ad,
];
/// The causal digests pin provenance through sensor re-reads: node 0's
/// durable re-read (+48) enters its `expected`, node 1's voided one does
/// not.
const RUNTIME_EVENTS: [u64; 4] = [
    0x07e1_3f89_ebbb_23de,
    0x795f_00e7_af05_b98d,
    0x66bd_f67e_c62d_947f,
    0x4aca_2df1_c7d0_8f27,
];
const RUNTIME_JSONL: [u64; 4] = [
    0xad16_54db_81b2_bcee,
    0x4045_743f_7e7e_1758,
    0x66bd_f67e_c62d_947f,
    0x4aca_2df1_c7d0_8f27,
];

/// FNV-1a of the hand-built trace's JSONL text (one `format!("{e}\n")`
/// per event), recorded with the tree-building encoder the typed codec
/// replaced: it pins the encoder's key order, omissions and float text.
const RUNTIME_JSONL_TEXT: u64 = 0x5288_1125_764f_136e;

/// FNV-1a over the bytes of each text, with a separator byte after each
/// one so moving a byte across texts still counts.
fn digest(texts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for text in texts {
        for b in text.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The four report digests of one trace, from the slice and from JSONL:
/// each over the report's JSON, then its text (then, for the causal
/// report from the slice, its DOT rendering).
fn digests(events: &[TraceEvent], jsonl: &str) -> ([u64; 4], [u64; 4]) {
    let opts = AnalyzeOptions::default();
    let dyn_opts = DynOptions::default();
    let slice = {
        let t = TraceReport::from_events(events, &opts);
        let c = CausalReport::from_events(events, &opts);
        let b = ByzReport::from_events(events);
        let d = DynReport::from_events(events, &dyn_opts);
        let dot = CausalReport::to_dot(events, &opts);
        [
            digest(&[&t.to_json().to_string(), &t.to_string()]),
            digest(&[&c.to_json().to_string(), &c.to_string(), &dot]),
            digest(&[&b.to_json().to_string(), &b.to_string()]),
            digest(&[&d.to_json().to_string(), &d.to_string()]),
        ]
    };
    let text = {
        let t = TraceReport::from_jsonl(jsonl, &opts).expect("trace report parses");
        let c = CausalReport::from_jsonl(jsonl, &opts).expect("causal report parses");
        let b = ByzReport::from_jsonl(jsonl).expect("byz report parses");
        let d = DynReport::from_jsonl(jsonl, &dyn_opts).expect("dyn report parses");
        [
            digest(&[&t.to_json().to_string(), &t.to_string()]),
            digest(&[&c.to_json().to_string(), &c.to_string()]),
            digest(&[&b.to_json().to_string(), &b.to_string()]),
            digest(&[&d.to_json().to_string(), &d.to_string()]),
        ]
    };
    (slice, text)
}

fn jsonl(events: &[TraceEvent]) -> String {
    events.iter().map(|e| format!("{e}\n")).collect()
}

fn check(label: &str, events: &[TraceEvent], jsonl: &str, want: ([u64; 4], [u64; 4])) {
    let got = digests(events, jsonl);
    assert_eq!(
        got, want,
        "{label}: report bytes moved; got\n  events {:#018x?}\n  jsonl  {:#018x?}",
        got.0, got.1
    );
}

/// A recorded round-engine trace: the events its JSONL text parses to,
/// and the text itself.
fn fixture(text: &str) -> (Vec<TraceEvent>, &str) {
    let events = text
        .lines()
        .map(|line| TraceEvent::from_json(line).expect("fixture line parses"))
        .collect();
    (events, text)
}

#[test]
fn crash_restart_round_sim_reports_are_unchanged() {
    let (events, text) = fixture(include_str!("data/crash_restart_round_sim.jsonl"));
    assert_eq!(events.len(), 251);
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::MessageDropped { .. })));
    check(
        "crash-restart",
        &events,
        text,
        (CRASH_RESTART_EVENTS, CRASH_RESTART_JSONL),
    );
}

#[test]
fn partition_round_sim_reports_are_unchanged() {
    let (events, text) = fixture(include_str!("data/partition_round_sim.jsonl"));
    assert_eq!(events.len(), 450);
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::MessageDropped {
            reason: DropReason::Partitioned,
            ..
        }
    )));
    check(
        "partition",
        &events,
        text,
        (PARTITION_EVENTS, PARTITION_JSONL),
    );
}

fn split(node: usize, inc: u16, grains: u64, peer: usize, lamport: u64, seq: u64) -> TraceEvent {
    TraceEvent::GrainDelta {
        node,
        incarnation: inc,
        op: GrainOp::Split,
        grains,
        peer,
        lamport: Some(lamport),
        seq: Some(seq),
        span_inc: None,
        span_seq: None,
        wait_us: None,
        transit_us: None,
    }
}

/// A merge of `peer`'s span `(peer, span_inc, span_seq)`, with frame times.
fn merge(node: usize, grains: u64, peer: usize, lamport: u64, span: (u64, u64)) -> TraceEvent {
    TraceEvent::GrainDelta {
        node,
        incarnation: 0,
        op: GrainOp::Merge,
        grains,
        peer,
        lamport: Some(lamport),
        seq: None,
        span_inc: Some(span.0),
        span_seq: Some(span.1),
        wait_us: Some(100 * span.1 + node as u64),
        transit_us: Some(250 + 7 * lamport),
    }
}

fn telemetry(round: u64, dispersion: f64) -> TraceEvent {
    TraceEvent::Telemetry(TelemetrySample {
        round,
        live: 4,
        classifications_mean: 1.5,
        classifications_max: 2,
        weight_spread: 0.25,
        mean_error: Some(0.125),
        max_error: None,
        dispersion: Some(dispersion),
        unix_ms: None,
    })
}

fn cluster_telemetry(elapsed_ms: f64, dispersion: f64) -> TraceEvent {
    TraceEvent::ClusterTelemetry {
        elapsed_ms,
        live: 4,
        dispersion,
        unix_ms: Some(1_754_000_000_000 + elapsed_ms as u64),
    }
}

fn voided(node: usize, inc: u16, wire: [u64; 3], drift: [u64; 2]) -> TraceEvent {
    TraceEvent::GrainsVoided {
        node,
        incarnation: inc,
        split: wire[0],
        merged: wire[1],
        returned: wire[2],
        injected: drift[0],
        forgotten: drift[1],
    }
}

fn runtime_shaped() -> Vec<TraceEvent> {
    let mut ev = vec![
        TraceEvent::ClusterStarted {
            nodes: 4,
            initial_grains: 4000,
        },
        TraceEvent::AdversaryActivated {
            node: 3,
            role: "mint".to_string(),
        },
        TraceEvent::TickCompleted { node: 0, time: 0.5 },
        telemetry(0, 0.5),
        cluster_telemetry(10.0, 0.4),
        split(0, 0, 200, 1, 1, 1),
        merge(1, 200, 0, 2, (0, 1)),
        split(1, 0, 100, 2, 3, 1),
        merge(2, 100, 1, 4, (0, 1)),
        split(2, 0, 50, 3, 5, 1),
        // The frame never arrived: its grains came home.
        TraceEvent::GrainDelta {
            node: 2,
            incarnation: 0,
            op: GrainOp::Return,
            grains: 50,
            peer: 3,
            lamport: Some(6),
            seq: None,
            span_inc: Some(0),
            span_seq: Some(1),
            wait_us: None,
            transit_us: None,
        },
        TraceEvent::PeerCheckpoint {
            node: 0,
            incarnation: 0,
            split: 200,
            merged: 0,
            returned: 0,
        },
        TraceEvent::PeerCheckpoint {
            node: 1,
            incarnation: 0,
            split: 100,
            merged: 200,
            returned: 0,
        },
        // Disagrees with the traced split of 50.
        TraceEvent::PeerCheckpoint {
            node: 2,
            incarnation: 0,
            split: 40,
            merged: 100,
            returned: 50,
        },
        telemetry(1, 0.2),
        cluster_telemetry(20.0, 0.011),
        TraceEvent::MessageSent {
            from: 0,
            to: 3,
            bytes: 64,
            at: 1.0,
            lamport: Some(2),
            seq: Some(1),
        },
        TraceEvent::MessageDelivered {
            from: 0,
            to: 3,
            bytes: 64,
            at: 2.5,
            lamport: Some(3),
            span_seq: Some(1),
        },
        TraceEvent::MessageSent {
            from: 3,
            to: 1,
            bytes: 48,
            at: 2.5,
            lamport: Some(4),
            seq: Some(1),
        },
        TraceEvent::MessageDropped {
            from: 3,
            to: 1,
            reason: DropReason::Partitioned,
        },
        // A legacy send without causal stamps.
        TraceEvent::MessageSent {
            from: 1,
            to: 0,
            bytes: 32,
            at: 1.5,
            lamport: None,
            seq: None,
        },
        TraceEvent::RoundCompleted {
            round: 0,
            live: 4,
            sent: 3,
            delivered: 1,
            dropped: 1,
        },
        split(0, 0, 30, 2, 5, 2),
        merge(2, 30, 0, 7, (0, 2)),
        TraceEvent::FaultActivated {
            kind: "crash".to_string(),
            node: Some(2),
            at: 300.0,
        },
        TraceEvent::PeerCrashed {
            node: 2,
            incarnation: 0,
        },
        // The crash voids node 2's unflushed merge.
        voided(2, 0, [0, 30, 0], [0, 0]),
        TraceEvent::PeerRestarted {
            node: 2,
            incarnation: 1,
        },
        TraceEvent::FaultHealed {
            kind: "crash".to_string(),
            node: Some(2),
            at: 500.0,
        },
        TraceEvent::FaultActivated {
            kind: "partition".to_string(),
            node: None,
            at: 520.0,
        },
        TraceEvent::SensorDrift {
            node: 1,
            incarnation: 0,
            injected: 64,
            forgotten: 32,
            tick: 17,
        },
        voided(1, 0, [0, 0, 0], [64, 32]),
        TraceEvent::SensorDrift {
            node: 0,
            incarnation: 0,
            injected: 64,
            forgotten: 16,
            tick: 18,
        },
        TraceEvent::PeerJoined {
            node: 4,
            grains: 1000,
            at: 350.0,
        },
        split(4, 0, 500, 0, 1, 1),
        merge(0, 500, 4, 8, (0, 1)),
        // A merge whose frame carried no span.
        TraceEvent::GrainDelta {
            node: 3,
            incarnation: 0,
            op: GrainOp::Merge,
            grains: 10,
            peer: 4,
            lamport: Some(9),
            seq: None,
            span_inc: None,
            span_seq: None,
            wait_us: None,
            transit_us: None,
        },
        split(2, 1, 60, 3, 9, 1),
        merge(3, 60, 2, 10, (1, 1)),
        TraceEvent::PeerRetired {
            node: 3,
            grains: 500,
            at: 612.5,
        },
        TraceEvent::AuditProbe {
            node: 0,
            target: 3,
            tick: 20,
        },
        TraceEvent::AuditVerdict {
            node: 0,
            target: 3,
            passed: false,
            vacuous: false,
            tick: 21,
        },
        TraceEvent::AuditVerdict {
            node: 1,
            target: 2,
            passed: true,
            vacuous: true,
            tick: 22,
        },
        TraceEvent::PeerStrike {
            node: 0,
            target: 3,
            reason: "drift".to_string(),
            tick: 21,
        },
        TraceEvent::PeerStrike {
            node: 1,
            target: 2,
            reason: "minted".to_string(),
            tick: 23,
        },
        TraceEvent::PeerConvicted {
            target: 3,
            strikes: 2,
            tick: 23,
        },
        TraceEvent::PeerConvicted {
            target: 2,
            strikes: 1,
            tick: 24,
        },
        TraceEvent::FrameRejected {
            node: 1,
            sender: 3,
            grains: 170,
            reason: "minted".to_string(),
            tick: 24,
        },
        // Matches no traced segment.
        voided(1, 0, [7, 9, 0], [0, 0]),
    ];
    // Converging telemetry: the round series settles at round 6 under the
    // default window of 5, the wall-clock series under the dyn window.
    for (i, d) in [0.04, 0.0401, 0.0402, 0.0401, 0.04].into_iter().enumerate() {
        ev.push(telemetry(2 + i as u64, d));
        ev.push(cluster_telemetry(30.0 + 10.0 * i as f64, d / 10.0));
    }
    ev.extend([
        // Past convergence: these must not extend the critical path.
        split(1, 0, 20, 4, 11, 2),
        merge(4, 20, 1, 12, (0, 2)),
        cluster_telemetry(90.0, 0.5),
        TraceEvent::PeerFinal {
            node: 0,
            outcome: "completed".to_string(),
            grains: 1270,
        },
        TraceEvent::PeerFinal {
            node: 1,
            outcome: "completed".to_string(),
            grains: 1112,
        },
        TraceEvent::PeerFinal {
            node: 2,
            outcome: "dead".to_string(),
            grains: 0,
        },
        TraceEvent::PeerFinal {
            node: 3,
            outcome: "retired".to_string(),
            grains: 0,
        },
        TraceEvent::PeerFinal {
            node: 4,
            outcome: "panicked".to_string(),
            grains: 520,
        },
        TraceEvent::PeerBandwidth {
            node: 0,
            bytes: 12_000,
            audit_bytes: 300,
        },
        TraceEvent::PeerBandwidth {
            node: 1,
            bytes: 9_000,
            audit_bytes: 150,
        },
        TraceEvent::ByzSummary {
            minted_grains: 170,
            rejected_frames: 2,
        },
        TraceEvent::AuditSummary {
            initial: 4000,
            final_grains: 2382,
            gains: 50,
            losses: 30,
            injected: 1128,
            forgotten: 16,
            exact: false,
            conserved: true,
        },
        TraceEvent::TraceTruncated {
            bytes_written: 4096,
        },
    ]);
    ev
}

#[test]
fn runtime_shaped_reports_are_unchanged() {
    let events = runtime_shaped();
    let kinds: BTreeSet<&str> = events.iter().map(TraceEvent::kind).collect();
    assert_eq!(kinds.len(), 29, "every event variant appears: {kinds:?}");
    let mut text = jsonl(&events);
    // A blank line and a line from a newer taxonomy, mid-file.
    let cut = text.match_indices('\n').nth(20).expect("long trace").0 + 1;
    text.insert_str(cut, "\n{\"type\":\"future_event\",\"x\":1}\n");
    check(
        "runtime-shaped",
        &events,
        &text,
        (RUNTIME_EVENTS, RUNTIME_JSONL),
    );
}

/// The encoder writes what the fixtures hold: every line re-encodes from
/// its parsed event to the same bytes.
#[test]
fn fixtures_re_encode_byte_for_byte() {
    for text in [
        include_str!("data/crash_restart_round_sim.jsonl"),
        include_str!("data/partition_round_sim.jsonl"),
    ] {
        let (events, text) = fixture(text);
        for (line, e) in text.lines().zip(&events) {
            assert_eq!(format!("{e}\n"), format!("{line}\n"));
        }
        assert_eq!(jsonl(&events), text);
    }
}

/// Every variant's encoding, byte for byte.
#[test]
fn every_variant_encodes_to_the_pinned_bytes() {
    let text = jsonl(&runtime_shaped());
    assert_eq!(
        digest(&[&text]),
        RUNTIME_JSONL_TEXT,
        "encoder bytes moved; got {:#018x}",
        digest(&[&text])
    );
}

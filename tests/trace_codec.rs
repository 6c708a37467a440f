//! The trace line codec under generated and hostile input.
//!
//! Events of every variant, with integers up to 2^53, finite floats and
//! strings that need escapes, must read back from their own line as the
//! same event. Truncated, byte-flipped and token-soup lines must read as
//! an event or an error, never a panic, and an event only where the
//! JSON tree parser reads an object. `read_jsonl` must count a
//! well-formed line of an unknown type instead of failing on it, and an
//! integer outside its field's type must be an error that names the
//! field. Above 2^53 the codec is exact too: it writes integers as
//! integers and reads them as the field's own type, never through `f64`.

use std::collections::BTreeSet;

use distclass::obs::{read_jsonl, DropReason, GrainOp, Json, TelemetrySample, TraceEvent};
use proptest::prelude::*;

/// Draws event fields from a list of pre-rolled dice.
struct Dice(std::vec::IntoIter<u64>);

impl Dice {
    fn roll(&mut self) -> u64 {
        self.0.next().unwrap_or(0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.roll() % n
    }

    /// An integer up to 2^53, from 0 to the edge.
    fn int(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(10),
            1 => self.below(1 << 20),
            2 => (1 << 53) - self.below(3),
            _ => self.roll() % ((1 << 53) + 1),
        }
    }

    fn node(&mut self) -> usize {
        self.int() as usize
    }

    fn inc(&mut self) -> u16 {
        self.roll() as u16
    }

    fn opt(&mut self) -> Option<u64> {
        (self.below(2) == 0).then(|| self.int())
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 0
    }

    /// A finite float: zero, small, fractional, huge or tiny.
    fn float(&mut self) -> f64 {
        let x = self.roll() as f64 / (1u64 << 20) as f64;
        match self.below(6) {
            0 => 0.0,
            1 => x,
            2 => -x,
            3 => x * 1e290,
            4 => x * 1e-300,
            _ => f64::from_bits(self.roll() >> 2),
        }
    }

    fn opt_float(&mut self) -> Option<f64> {
        (self.below(2) == 0).then(|| self.float())
    }

    /// A string with the characters JSON must escape, and some it need not.
    fn text(&mut self) -> String {
        const PIECES: &[&str] = &[
            "crash", "\"", "\\", "\n", "\r\t", "\u{1}", "\u{7f}", "é", "→", "😀", " ", "/",
        ];
        let len = self.below(5);
        (0..len)
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }
}

/// Every variant the codec knows, one per `pick`.
const VARIANTS: u64 = 29;

fn event(d: &mut Dice, pick: u64) -> TraceEvent {
    match pick % VARIANTS {
        0 => TraceEvent::ClusterStarted {
            nodes: d.node(),
            initial_grains: d.int(),
        },
        1 => TraceEvent::RoundCompleted {
            round: d.int(),
            live: d.node(),
            sent: d.int(),
            delivered: d.int(),
            dropped: d.int(),
        },
        2 => TraceEvent::TickCompleted {
            node: d.node(),
            time: d.float(),
        },
        3 => TraceEvent::MessageSent {
            from: d.node(),
            to: d.node(),
            bytes: d.int(),
            at: d.float(),
            lamport: d.opt(),
            seq: d.opt(),
        },
        4 => TraceEvent::MessageDelivered {
            from: d.node(),
            to: d.node(),
            bytes: d.int(),
            at: d.float(),
            lamport: d.opt(),
            span_seq: d.opt(),
        },
        5 => TraceEvent::MessageDropped {
            from: d.node(),
            to: d.node(),
            reason: if d.flag() {
                DropReason::Crashed
            } else {
                DropReason::Partitioned
            },
        },
        6 => TraceEvent::FaultActivated {
            kind: d.text(),
            node: d.opt().map(|n| n as usize),
            at: d.float(),
        },
        7 => TraceEvent::FaultHealed {
            kind: d.text(),
            node: d.opt().map(|n| n as usize),
            at: d.float(),
        },
        8 => TraceEvent::PeerCrashed {
            node: d.node(),
            incarnation: d.inc(),
        },
        9 => TraceEvent::PeerRestarted {
            node: d.node(),
            incarnation: d.inc(),
        },
        10 => TraceEvent::PeerCheckpoint {
            node: d.node(),
            incarnation: d.inc(),
            split: d.int(),
            merged: d.int(),
            returned: d.int(),
        },
        11 => TraceEvent::GrainDelta {
            node: d.node(),
            incarnation: d.inc(),
            op: [GrainOp::Split, GrainOp::Merge, GrainOp::Return][d.below(3) as usize],
            grains: d.int(),
            peer: d.node(),
            lamport: d.opt(),
            seq: d.opt(),
            span_inc: d.opt(),
            span_seq: d.opt(),
            wait_us: d.opt(),
            transit_us: d.opt(),
        },
        12 => TraceEvent::GrainsVoided {
            node: d.node(),
            incarnation: d.inc(),
            split: d.int(),
            merged: d.int(),
            returned: d.int(),
            injected: d.opt().unwrap_or(0),
            forgotten: d.opt().unwrap_or(0),
        },
        13 => TraceEvent::PeerFinal {
            node: d.node(),
            outcome: d.text(),
            grains: d.int(),
        },
        14 => TraceEvent::SensorDrift {
            node: d.node(),
            incarnation: d.inc(),
            injected: d.int(),
            forgotten: d.int(),
            tick: d.int(),
        },
        15 => TraceEvent::PeerJoined {
            node: d.node(),
            grains: d.int(),
            at: d.float(),
        },
        16 => TraceEvent::PeerRetired {
            node: d.node(),
            grains: d.int(),
            at: d.float(),
        },
        17 => TraceEvent::AuditSummary {
            initial: d.int(),
            final_grains: d.int(),
            gains: d.int(),
            losses: d.int(),
            injected: d.opt().unwrap_or(0),
            forgotten: d.opt().unwrap_or(0),
            exact: d.flag(),
            conserved: d.flag(),
        },
        18 => TraceEvent::TraceTruncated {
            bytes_written: d.int(),
        },
        19 => TraceEvent::Telemetry(TelemetrySample {
            round: d.int(),
            live: d.node(),
            classifications_mean: d.float(),
            classifications_max: d.node(),
            weight_spread: d.float(),
            mean_error: d.opt_float(),
            max_error: d.opt_float(),
            dispersion: d.opt_float(),
            unix_ms: d.opt(),
        }),
        20 => TraceEvent::ClusterTelemetry {
            elapsed_ms: d.float(),
            live: d.node(),
            dispersion: d.float(),
            unix_ms: d.opt(),
        },
        21 => TraceEvent::AdversaryActivated {
            node: d.node(),
            role: d.text(),
        },
        22 => TraceEvent::AuditProbe {
            node: d.node(),
            target: d.node(),
            tick: d.int(),
        },
        23 => TraceEvent::AuditVerdict {
            node: d.node(),
            target: d.node(),
            passed: d.flag(),
            vacuous: d.flag(),
            tick: d.int(),
        },
        24 => TraceEvent::PeerStrike {
            node: d.node(),
            target: d.node(),
            reason: d.text(),
            tick: d.int(),
        },
        25 => TraceEvent::PeerConvicted {
            target: d.node(),
            strikes: d.int(),
            tick: d.int(),
        },
        26 => TraceEvent::FrameRejected {
            node: d.node(),
            sender: d.node(),
            grains: d.int(),
            reason: d.text(),
            tick: d.int(),
        },
        27 => TraceEvent::PeerBandwidth {
            node: d.node(),
            bytes: d.int(),
            audit_bytes: d.int(),
        },
        _ => TraceEvent::ByzSummary {
            minted_grains: d.int(),
            rejected_frames: d.int(),
        },
    }
}

fn dice() -> impl Strategy<Value = Vec<u64>> {
    collection::vec(0u64..u64::MAX, 40)
}

/// Reads `line` with `from_json` and, as a one-line file, with
/// `read_jsonl`; they must agree on the event, on an unknown type (which
/// `read_jsonl` counts), or on an error, except that `read_jsonl` skips a
/// line of JSON whitespace. Neither may panic, and the decoder accepts no
/// line that the tree parser rejects: a line it reads as an event parses
/// as an object.
fn read_both(line: &str) -> Result<Option<TraceEvent>, TestCaseError> {
    let direct = TraceEvent::from_json(line);
    if direct.is_ok() {
        let tree = Json::parse(line);
        prop_assert!(
            matches!(tree, Ok(Json::Obj(_))),
            "from_json read {direct:?} from {line:?}, Json::parse gives {tree:?}"
        );
    }
    let blank = line.bytes().all(|b| matches!(b, b' ' | b'\t' | b'\r'));
    // `read_jsonl` splits at newlines, which JSON takes as whitespace.
    if !line.contains('\n') {
        let mut seen = Vec::new();
        let streamed = read_jsonl(line.as_bytes(), |ev| seen.push(ev));
        let agree = match (&direct, &streamed) {
            (Ok(ev), Ok(0)) => seen == [ev.clone()],
            (Err(_), Ok(n)) => seen.is_empty() && (*n == 1 || blank && *n == 0),
            (Err(_), Err(_)) => true,
            _ => false,
        };
        prop_assert!(
            agree,
            "from_json {direct:?} and read_jsonl {streamed:?} {seen:?} disagree on {line:?}"
        );
    }
    Ok(direct.ok())
}

/// Token soup for JSON lines: structure, keys of real events, and values
/// at and past every type's edge.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\"type\"",
    "\"telemetry\"",
    "\"grain_delta\"",
    "\"message_sent\"",
    "\"peer_crashed\"",
    "\"node\"",
    "\"incarnation\"",
    "\"op\"",
    "\"merge\"",
    "\"at\"",
    "\"lamport\"",
    "\"unix_ms\"",
    "\"x\"",
    "0",
    "1",
    "-1",
    "1.5",
    "1e999",
    "-0",
    "65535",
    "65536",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "null",
    "true",
    "fals",
    "\"\\u00zz\"",
    "\"\\",
    "\"é",
    "\u{0}",
    "\u{b}",
    "\u{c}",
    "\u{a0}",
    "\u{2028}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// An event reads back from its own line as itself, and that line is
    /// what the event encodes to again.
    #[test]
    fn generated_events_round_trip(dice in dice(), pick in 0u64..VARIANTS) {
        let mut d = Dice(dice.into_iter());
        let e = event(&mut d, pick);
        let line = e.to_string();
        prop_assert!(!line.contains('\n'), "{line}");
        let back = TraceEvent::from_json(&line);
        prop_assert!(back.as_ref().ok() == Some(&e), "{line}: {back:?}");
        prop_assert_eq!(back.map(|b| b.to_string()).ok(), Some(line));
    }

    /// Any prefix of a line, and a line with one byte replaced, reads as
    /// an event or an error; an event it reads is one its own line
    /// reads back as.
    #[test]
    fn truncated_and_flipped_lines_never_panic(dice in dice(), pick in 0u64..VARIANTS, cut in 0usize..400, at in 0usize..400, byte in 0u8..128) {
        let mut d = Dice(dice.into_iter());
        let line = event(&mut d, pick).to_string();
        let mut cut = cut % (line.len() + 1);
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        let mut at = at % line.len();
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let width = line[at..].chars().next().map_or(1, char::len_utf8);
        let flipped = format!("{}{}{}", &line[..at], byte as char, &line[at + width..]);
        for hostile in [&line[..cut], flipped.as_str()] {
            if let Some(ev) = read_both(hostile)? {
                prop_assert_eq!(TraceEvent::from_json(&ev.to_string()).ok(), Some(ev));
            }
        }
    }

    /// Lines made of JSON tokens and real keys, in any order.
    #[test]
    fn token_soup_never_panics(tokens in collection::vec(0usize..TOKENS.len(), 0..40)) {
        let soup: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        for line in [soup.clone(), format!("{{\"type\":\"grain_delta\",{soup}"), format!("{{{soup}}}")] {
            read_both(&line)?;
        }
    }
}

#[test]
fn generator_covers_every_variant() {
    let kinds: BTreeSet<&str> = (0..VARIANTS)
        .map(|pick| event(&mut Dice(vec![7; 40].into_iter()), pick).kind())
        .collect();
    assert_eq!(kinds.len(), VARIANTS as usize, "{kinds:?}");
}

/// A well-formed line of a type this binary does not know is counted,
/// whatever its members hold; the same line malformed is an error.
#[test]
fn read_jsonl_counts_unknown_types() {
    let tick = r#"{"type":"tick_completed","node":0,"time":1.5}"#;
    for unknown in [
        r#"{"type":"warp_core_breach"}"#,
        r#"{"x":[1,{"y":null}],"type":"later","node":"not a number"}"#,
        r#"{"type":"Tick_Completed","node":0,"time":1.5}"#,
    ] {
        let text = format!("{tick}\n{unknown}\n{tick}\n");
        let mut events = Vec::new();
        let skipped =
            read_jsonl(text.as_bytes(), |ev| events.push(ev)).expect("an unknown type is no error");
        assert_eq!((events.len(), skipped), (2, 1), "{unknown}");
        assert!(
            TraceEvent::from_json(unknown).is_err(),
            "from_json has no event for it"
        );
    }
    for malformed in [
        r#"{"type":"later","x":[1,}"#,
        r#"{"type":"later"} trailing"#,
        r#"{"type":"later","x":01.}"#,
        r#"{"type":"later","x":"\u+041"}"#,
        r#"{"type":later}"#,
        r#"{"x":1}"#,
        r#"{"type":7}"#,
    ] {
        let err =
            read_jsonl(format!("{tick}\n{malformed}\n").as_bytes(), |_| {}).expect_err(malformed);
        assert!(err.message.starts_with("trace line 2:"), "{err}");
    }
}

/// Each integer field takes only an integer of its type: past the range,
/// negative, fractional or in exponent form is an error naming the field.
#[test]
fn integers_outside_their_type_are_field_errors() {
    let crashed = |incarnation: &str| {
        format!(r#"{{"type":"peer_crashed","node":1,"incarnation":{incarnation}}}"#)
    };
    assert_eq!(
        TraceEvent::from_json(&crashed("65535")).expect("in range"),
        TraceEvent::PeerCrashed {
            node: 1,
            incarnation: u16::MAX
        }
    );
    for bad in [
        "65536", "-1", "1.5", "1.0", "1e2", "\"1\"", "null", "true", "[1]",
    ] {
        let err = TraceEvent::from_json(&crashed(bad)).expect_err(bad);
        assert!(
            err.message.contains("incarnation") && err.message.contains("expected"),
            "{bad}: {err}"
        );
    }
    let started = |nodes: &str| {
        format!(r#"{{"type":"cluster_started","nodes":{nodes},"initial_grains":{nodes}}}"#)
    };
    for bad in ["18446744073709551616", "-0", "1e999"] {
        let err = TraceEvent::from_json(&started(bad)).expect_err(bad);
        assert!(err.message.contains("nodes"), "{bad}: {err}");
    }
    // Optional fields too: a mistyped one is an error, not an absence.
    let sent = r#"{"type":"message_sent","from":1,"to":2,"bytes":3,"at":0,"lamport":-4}"#;
    assert!(TraceEvent::from_json(sent)
        .expect_err("negative")
        .message
        .contains("lamport"));
}

/// Integers past 2^53 are written and read exactly, up to each type's
/// maximum.
#[test]
fn integers_past_f64_precision_are_exact() {
    let e = TraceEvent::ClusterStarted {
        nodes: usize::MAX,
        initial_grains: (1 << 53) + 1,
    };
    let line = e.to_string();
    assert_eq!(
        line,
        r#"{"type":"cluster_started","nodes":18446744073709551615,"initial_grains":9007199254740993}"#
    );
    assert_eq!(TraceEvent::from_json(&line).expect("parses"), e);
}

/// The reading rules: members in any order, the first of a repeated key
/// counts, unknown keys are skipped whatever they hold, and absent or
/// `null` optional fields read as their default.
#[test]
fn members_read_in_any_order_and_first_wins() {
    let e = TraceEvent::GrainDelta {
        node: 4,
        incarnation: 2,
        op: GrainOp::Merge,
        grains: 64,
        peer: 1,
        lamport: Some(9),
        seq: None,
        span_inc: Some(1),
        span_seq: Some(5),
        wait_us: None,
        transit_us: Some(30),
    };
    let line = e.to_string();
    let Json::Obj(mut members) = Json::parse(&line).expect("a JSON object") else {
        panic!("{line} is not an object");
    };
    members.reverse();
    let reversed = Json::Obj(members).to_string();
    assert!(!reversed.starts_with(r#"{"type""#));
    assert_eq!(TraceEvent::from_json(&reversed).expect("any order"), e);

    let tail =
        r#","node":99,"type":"peer_crashed","extra":{"deep":[[[{}]]],"s":"\"}"},"seq":null}"#;
    let repeated = format!("{}{tail}", line.strip_suffix('}').expect("an object"));
    assert_eq!(TraceEvent::from_json(&repeated).expect("first wins"), e);
    let spaced = concat!(
        " { \"op\" : \"merge\" ,\t\"type\":\"grain_delta\", \"node\":4,\"incarnation\":2,",
        "\"grains\":64,\"peer\":1,\"lamport\":9,\"span_inc\":1,\"span_seq\":5,",
        "\"wait_us\":null,\"transit_us\":30 }\r "
    );
    assert_eq!(
        TraceEvent::from_json(spaced).expect("whitespace and null"),
        e
    );

    let legacy =
        r#"{"type":"audit_verdict","node":1,"target":2,"passed":true,"tick":3,"vacuous":null}"#;
    assert_eq!(
        TraceEvent::from_json(legacy).expect("null reads as false"),
        TraceEvent::AuditVerdict {
            node: 1,
            target: 2,
            passed: true,
            vacuous: false,
            tick: 3
        }
    );
}

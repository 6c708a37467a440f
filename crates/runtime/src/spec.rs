//! What the four plan grammars (`--faults`, `--adversaries`, `--drift`
//! and `--churn`) share: durations, time windows, node sets and the
//! FNV-1a digest.
//!
//! A spec comes from outside the program, so each parser bounds what it
//! builds. Durations are checked: one that overflows `u64` milliseconds
//! is an error, not a wrapped time. A `<nodes>` field names at most
//! [`MAX_SPEC_NODES`] ids, and a drift clause expands to at most
//! [`MAX_CLAUSE_EVENTS`] events, so no clause of any plan holds more than
//! 65,536 entries.

use std::time::Duration;

use distclass_net::NodeId;

/// The most node ids one `<nodes>` field may name. Frame headers carry
/// the sender id in 16 bits, so no cluster has more nodes.
pub const MAX_SPEC_NODES: usize = 1 << 16;

/// The most re-read events one drift clause may expand to: a step or
/// redraw clause makes one per node, a ramp its nodes times its steps.
pub const MAX_CLAUSE_EVENTS: usize = MAX_SPEC_NODES;

/// Parses `<n>ms`, `<n>s` or a bare `<n>` (milliseconds).
pub(crate) fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (digits, scale) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1000)
    } else {
        (s, 1)
    };
    let v: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad duration `{s}` (want e.g. `250ms` or `2s`)"))?;
    v.checked_mul(scale)
        .map(Duration::from_millis)
        .ok_or_else(|| format!("duration `{s}` overflows u64 milliseconds"))
}

/// Parses `<from>-<until>`, a window that must end after it starts.
pub(crate) fn parse_window(s: &str) -> Result<(Duration, Duration), String> {
    let (a, b) = s
        .split_once('-')
        .ok_or_else(|| format!("bad window `{s}` (want `<from>-<until>`)"))?;
    let (from, until) = (parse_duration(a)?, parse_duration(b)?);
    if until <= from {
        return Err(format!("window `{s}` ends before it starts"));
    }
    Ok((from, until))
}

/// Parses a node set: a `<lo>-<hi>` range or a `,` list, naming at most
/// [`MAX_SPEC_NODES`] ids.
pub(crate) fn parse_nodes(s: &str) -> Result<Vec<NodeId>, String> {
    let too_many = || format!("node set `{s}` names more than {MAX_SPEC_NODES} nodes");
    if let Some((a, b)) = s.split_once('-') {
        let (lo, hi): (NodeId, NodeId) = (
            a.trim().parse().map_err(|_| format!("bad node `{a}`"))?,
            b.trim().parse().map_err(|_| format!("bad node `{b}`"))?,
        );
        if hi < lo {
            return Err(format!("bad node range `{s}`"));
        }
        if hi - lo >= MAX_SPEC_NODES {
            return Err(too_many());
        }
        return Ok((lo..=hi).collect());
    }
    if s.matches(',').count() >= MAX_SPEC_NODES {
        return Err(too_many());
    }
    s.split(',')
        .map(|n| n.trim().parse().map_err(|_| format!("bad node `{n}`")))
        .collect()
}

/// FNV-1a over a plan's canonical serialization: its digest.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_are_checked() {
        assert_eq!(parse_duration("250ms"), Ok(Duration::from_millis(250)));
        assert_eq!(parse_duration(" 2s "), Ok(Duration::from_secs(2)));
        assert_eq!(parse_duration("7"), Ok(Duration::from_millis(7)));
        let max = u64::MAX / 1000;
        assert_eq!(
            parse_duration(&format!("{max}s")),
            Ok(Duration::from_secs(max))
        );
        let err = parse_duration(&format!("{}s", max + 1)).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        assert!(parse_duration(&format!("{}", u64::MAX)).is_ok());
        assert!(parse_duration("18446744073709551616").is_err());
    }

    #[test]
    fn node_sets_are_capped() {
        assert_eq!(parse_nodes("2-4"), Ok(vec![2, 3, 4]));
        assert_eq!(parse_nodes("5,1"), Ok(vec![5, 1]));
        let last = MAX_SPEC_NODES - 1;
        assert_eq!(
            parse_nodes(&format!("0-{last}")).map(|v| v.len()),
            Ok(MAX_SPEC_NODES)
        );
        for bad in [format!("0-{MAX_SPEC_NODES}"), "0-99999999999".to_string()] {
            let err = parse_nodes(&bad).unwrap_err();
            assert!(err.contains("more than 65536 nodes"), "{err}");
        }
        let list = vec!["1"; MAX_SPEC_NODES + 1].join(",");
        assert!(parse_nodes(&list).is_err());
    }
}

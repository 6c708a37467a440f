//! The seeded, deterministic adversary schedule.
//!
//! An [`AdversaryPlan`] mirrors [`FaultPlan`](crate::chaos::FaultPlan):
//! it is parsed from a CLI spec string (or built fluently), carries a
//! seed that fixes every random decision the adversaries make, and has an
//! FNV digest so a detection failure reported by CI is replayable from
//! the spec + seed alone.

use std::collections::BTreeMap;
use std::fmt;

use distclass_net::NodeId;

use crate::spec::{parse_nodes, Fnv};

/// Grains a minter adds to every outgoing data frame, in weight units.
/// Large on purpose: a minted frame must clear the defense's ingress
/// bound deterministically, whatever the sender's true holdings are.
pub const DEFAULT_MINT_UNITS: u64 = 16;

/// Default poisoning shift, in multiples of the plan's `sigma`: inside
/// the 1.5σ stealth bound that naive trimming enforces, outside the
/// defense's reply-drift tolerance.
pub const DEFAULT_SHIFT: f64 = 1.2;

/// What a Byzantine node does to its outgoing data frames.
///
/// All attacks are *wire-only*: the adversary's internal classification,
/// grain ledger and audit replies stay truthful. A fully consistent liar
/// — one that also believed its lie — would be indistinguishable from an
/// honest node with a shifted sensor reading, whose influence the robust
/// merge already bounds; the interesting adversary is the one whose wire
/// story diverges from its own books, and that divergence is exactly
/// what the stochastic audit checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryRole {
    /// Weight inflation: every outgoing half classification claims
    /// `units` whole weight units more than the sender actually gave up.
    Mint {
        /// Minted weight units added per frame.
        units: u64,
    },
    /// Summary poisoning: outgoing collection locations are shifted by a
    /// per-node seeded direction of length `shift · sigma`.
    Poison {
        /// Shift magnitude in multiples of the plan's `sigma`.
        shift: f64,
    },
    /// Collusion: like `Poison`, but every cartel member derives the
    /// *same* direction from the shared plan seed, so their lies
    /// reinforce instead of cancelling.
    Cartel {
        /// Shift magnitude in multiples of the plan's `sigma`.
        shift: f64,
    },
}

impl AdversaryRole {
    /// Short role name used in trace events and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            AdversaryRole::Mint { .. } => "mint",
            AdversaryRole::Poison { .. } => "poison",
            AdversaryRole::Cartel { .. } => "cartel",
        }
    }
}

/// A complete, deterministic adversary schedule for one cluster run.
///
/// # Example
///
/// ```
/// use distclass_runtime::byz::AdversaryPlan;
///
/// let plan = AdversaryPlan::parse("cartel@1,5:shift=1.2; sigma=1", 42)?;
/// assert_eq!(plan.adversaries(), vec![1, 5]);
/// assert_eq!(plan.digest(), AdversaryPlan::parse("cartel@1,5:shift=1.2; sigma=1", 42)?.digest());
/// # Ok::<(), distclass_runtime::byz::AdversarySpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryPlan {
    /// Seed for every seeded decision adversaries make (shift
    /// directions, collusion strategy).
    pub seed: u64,
    /// Role per Byzantine node; nodes absent here are honest.
    pub roles: BTreeMap<NodeId, AdversaryRole>,
    /// The data scale σ that shift magnitudes multiply; defaults to 1.
    pub sigma: f64,
}

impl AdversaryPlan {
    /// An empty (all-honest) plan with the given seed.
    pub fn new(seed: u64) -> AdversaryPlan {
        AdversaryPlan {
            seed,
            roles: BTreeMap::new(),
            sigma: 1.0,
        }
    }

    /// Marks `nodes` as grain minters adding `units` per frame.
    #[must_use]
    pub fn mint(mut self, nodes: &[NodeId], units: u64) -> AdversaryPlan {
        for &n in nodes {
            self.roles.insert(n, AdversaryRole::Mint { units });
        }
        self
    }

    /// Marks `nodes` as independent poisoners with the given shift.
    #[must_use]
    pub fn poison(mut self, nodes: &[NodeId], shift: f64) -> AdversaryPlan {
        for &n in nodes {
            self.roles.insert(n, AdversaryRole::Poison { shift });
        }
        self
    }

    /// Marks `nodes` as one colluding cartel with the given shift.
    #[must_use]
    pub fn cartel(mut self, nodes: &[NodeId], shift: f64) -> AdversaryPlan {
        for &n in nodes {
            self.roles.insert(n, AdversaryRole::Cartel { shift });
        }
        self
    }

    /// Sets the data scale σ.
    #[must_use]
    pub fn sigma(mut self, sigma: f64) -> AdversaryPlan {
        self.sigma = sigma;
        self
    }

    /// Whether the plan turns nobody Byzantine.
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// The Byzantine node ids, ascending.
    pub fn adversaries(&self) -> Vec<NodeId> {
        self.roles.keys().copied().collect()
    }

    /// The role of `node`, if it is Byzantine.
    pub fn role_of(&self, node: NodeId) -> Option<AdversaryRole> {
        self.roles.get(&node).copied()
    }

    /// Whether any adversary mints weight (the grain auditor's concern).
    pub fn has_minters(&self) -> bool {
        self.roles
            .values()
            .any(|r| matches!(r, AdversaryRole::Mint { .. }))
    }

    /// Parses the CLI adversary grammar: `;`-separated clauses, each one
    /// of
    ///
    /// * `mint@<nodes>[:units=<u>]` — e.g. `mint@3` or `mint@3:units=16`;
    /// * `poison@<nodes>[:shift=<s>]` — e.g. `poison@1,4:shift=1.2`;
    /// * `cartel@<nodes>[:shift=<s>]` — e.g. `cartel@0-2`;
    /// * `sigma=<x>` — the data scale shifts multiply (default 1).
    ///
    /// Nodes parse as a `-` range or `,` list of at most
    /// [`crate::MAX_SPEC_NODES`] ids, like the fault grammar. A node may
    /// carry at most one role.
    ///
    /// # Errors
    ///
    /// An [`AdversarySpecError`] naming the offending clause.
    pub fn parse(spec: &str, seed: u64) -> Result<AdversaryPlan, AdversarySpecError> {
        let mut plan = AdversaryPlan::new(seed);
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let err = |msg: &str| AdversarySpecError(format!("clause `{clause}`: {msg}"));
            let mut assign =
                |nodes: Vec<NodeId>, role: AdversaryRole| -> Result<(), AdversarySpecError> {
                    for n in nodes {
                        if plan.roles.insert(n, role).is_some() {
                            return Err(err(&format!("node {n} already has a role")));
                        }
                    }
                    Ok(())
                };
            if let Some(rest) = clause.strip_prefix("mint@") {
                let (nodes, units) = match rest.split_once(':') {
                    Some((nodes, opt)) => {
                        let u = opt
                            .strip_prefix("units=")
                            .ok_or_else(|| err("expected `units=<u>`"))?;
                        (nodes, u.trim().parse().map_err(|_| err("bad unit count"))?)
                    }
                    None => (rest, DEFAULT_MINT_UNITS),
                };
                if units == 0 {
                    return Err(err("mint units must be positive"));
                }
                let nodes = parse_nodes(nodes).map_err(|m| err(&m))?;
                assign(nodes, AdversaryRole::Mint { units })?;
            } else if let Some(rest) = clause.strip_prefix("poison@") {
                let (nodes, shift) = parse_shift_clause(rest).map_err(|m| err(&m))?;
                assign(nodes, AdversaryRole::Poison { shift })?;
            } else if let Some(rest) = clause.strip_prefix("cartel@") {
                let (nodes, shift) = parse_shift_clause(rest).map_err(|m| err(&m))?;
                assign(nodes, AdversaryRole::Cartel { shift })?;
            } else if let Some(rest) = clause.strip_prefix("sigma=") {
                let sigma: f64 = rest.trim().parse().map_err(|_| err("bad sigma"))?;
                if !(sigma.is_finite() && sigma > 0.0) {
                    return Err(err("sigma must be a positive finite number"));
                }
                plan.sigma = sigma;
            } else {
                return Err(err("unknown clause"));
            }
        }
        Ok(plan)
    }

    /// A deterministic fingerprint of the schedule: seed, sigma and every
    /// role assignment. Two plans drive byte-identical adversaries iff
    /// their digests match.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(&self.seed.to_be_bytes());
        h.eat(&self.sigma.to_bits().to_be_bytes());
        for (&node, role) in &self.roles {
            h.eat(&(node as u64).to_be_bytes());
            match role {
                AdversaryRole::Mint { units } => {
                    h.eat(b"mint");
                    h.eat(&units.to_be_bytes());
                }
                AdversaryRole::Poison { shift } => {
                    h.eat(b"poison");
                    h.eat(&shift.to_bits().to_be_bytes());
                }
                AdversaryRole::Cartel { shift } => {
                    h.eat(b"cartel");
                    h.eat(&shift.to_bits().to_be_bytes());
                }
            }
            h.eat(b"|");
        }
        h.finish()
    }
}

/// A malformed `--adversaries` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversarySpecError(pub String);

impl fmt::Display for AdversarySpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad adversary spec: {}", self.0)
    }
}

impl std::error::Error for AdversarySpecError {}

fn parse_shift_clause(rest: &str) -> Result<(Vec<NodeId>, f64), String> {
    let (nodes, shift) = match rest.split_once(':') {
        Some((nodes, opt)) => {
            let s = opt
                .strip_prefix("shift=")
                .ok_or_else(|| "expected `shift=<s>`".to_string())?;
            let shift: f64 = s.trim().parse().map_err(|_| format!("bad shift `{s}`"))?;
            if !(shift.is_finite() && shift > 0.0) {
                return Err(format!("shift `{s}` must be a positive finite number"));
            }
            (nodes, shift)
        }
        None => (rest, DEFAULT_SHIFT),
    };
    Ok((parse_nodes(nodes)?, shift))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_grammar() {
        let plan = AdversaryPlan::parse(
            "mint@3:units=8; poison@1:shift=0.9; cartel@5,7; sigma=2",
            42,
        )
        .unwrap();
        assert_eq!(plan.role_of(3), Some(AdversaryRole::Mint { units: 8 }));
        assert_eq!(plan.role_of(1), Some(AdversaryRole::Poison { shift: 0.9 }));
        assert_eq!(
            plan.role_of(5),
            Some(AdversaryRole::Cartel {
                shift: DEFAULT_SHIFT
            })
        );
        assert_eq!(plan.role_of(7), plan.role_of(5));
        assert_eq!(plan.role_of(0), None);
        assert_eq!(plan.sigma, 2.0);
        assert_eq!(plan.adversaries(), vec![1, 3, 5, 7]);
        assert!(plan.has_minters());
        // Ranges and defaults.
        let plan = AdversaryPlan::parse("mint@0-2", 0).unwrap();
        assert_eq!(plan.adversaries(), vec![0, 1, 2]);
        assert_eq!(
            plan.role_of(0),
            Some(AdversaryRole::Mint {
                units: DEFAULT_MINT_UNITS
            })
        );
        assert!(!AdversaryPlan::parse("", 0).unwrap().has_minters());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "mint@",              // no nodes
            "mint@2:units=0",     // zero mint
            "mint@2:bogus=1",     // unknown option
            "poison@1:shift=-1",  // negative shift
            "poison@1:shift=nan", // non-finite shift
            "cartel@5; mint@5",   // conflicting roles
            "sigma=0",            // non-positive sigma
            "mystery@1",          // unknown clause
        ] {
            assert!(AdversaryPlan::parse(bad, 0).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn digest_is_deterministic_and_seed_sensitive() {
        let spec = "cartel@1,5:shift=1.2; sigma=1";
        let a = AdversaryPlan::parse(spec, 42).unwrap();
        assert_eq!(a.digest(), AdversaryPlan::parse(spec, 42).unwrap().digest());
        assert_ne!(a.digest(), AdversaryPlan::parse(spec, 43).unwrap().digest());
        assert_ne!(
            a.digest(),
            AdversaryPlan::parse("cartel@1,5:shift=1.3; sigma=1", 42)
                .unwrap()
                .digest()
        );
    }
}

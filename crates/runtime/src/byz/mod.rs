//! Byzantine adversary subsystem: seeded attacks, stochastic audit,
//! conviction.
//!
//! The chaos layer ([`crate::chaos`]) injects *crash* and *omission*
//! faults — peers that stop, restart, or lose frames. This module adds
//! the remaining fault class of the Byzantine spectrum: peers that keep
//! running the protocol but lie on the wire. Three pieces:
//!
//! * [`plan`] — the [`AdversaryPlan`]: which nodes attack, how, under
//!   which seed. Parsed from a CLI spec string like
//!   `"cartel@2,5:shift=1.2 sigma=1"`; digested (FNV) so runs are
//!   replayable from the spec alone. Mirrors `FaultPlan`.
//! * [`attack`] — [`AttackState`]: the wire-side corruption a Byzantine
//!   peer applies to outgoing data frames (weight minting, summary
//!   poisoning, colluding cartel shifts).
//! * [`defense`] — [`DefenseState`]: ingress screening against minted or
//!   non-finite weight, the stochastic audit probe/reply protocol, and
//!   conviction bookkeeping. Strikes are tallied cluster-wide by the
//!   supervisor, which convicts at a threshold and broadcasts the
//!   quarantine to every live peer.
//!
//! Ground truth for evaluation is the exact `i128` grain auditor
//! ([`crate::audit`]): rejected frames are reconciled against the
//! sender's durable ledger, so minted weight is *measured*, not
//! estimated, and the offline byz report can verify that detection
//! metrics agree with the arithmetic.

pub mod attack;
pub mod defense;
pub mod plan;

pub use attack::AttackState;
pub use defense::{AuditOutcome, DefenseConfig, DefenseState, RejectReason, StrikeReason};
pub use plan::{
    AdversaryPlan, AdversaryRole, AdversarySpecError, DEFAULT_MINT_UNITS, DEFAULT_SHIFT,
};

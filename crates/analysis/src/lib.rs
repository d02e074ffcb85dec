//! Static analyses for the CPR reproduction: everything that can be decided
//! about a subject program *without* running the concolic executor or the
//! constraint solver.
//!
//! The crate has one customer, **`cpr-lint`**: the [`lint`] pass over
//! [`cfg`], [`dataflow`], [`absint`] and [`zones`] gives authoring-time
//! diagnostics for `.cpr` subjects (undefined/dead variables, unreachable
//! statements and bug locations, type mismatches, constant conditions,
//! possible division by zero or out-of-bounds indexing). Shipped subjects
//! must lint clean; CI enforces it. The interval domain is shared with the
//! solver ([`cpr_smt::Interval`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod cfg;
pub mod dataflow;
pub mod lint;
pub mod zones;

pub use absint::{analyze, AbsBool, AbsState, AbsSummary, AbsVal};
pub use cfg::{Cfg, CfgNode, NodeId, NodeKind};
pub use dataflow::{dead_variables, liveness, Liveness};
pub use lint::{lint_program, lint_source, Diagnostic};
pub use zones::{analyze_zones, LoopHeadStats, Zone, ZoneSummary};

//! Concolic program repair — the core algorithms of the PLDI 2021 paper
//! *"Concolic Program Repair"* (Shariffdeen, Noller, Grunske, Roychoudhury).
//!
//! The crate wires the substrate crates together:
//!
//! * [`cpr_synth`] enumerates patch templates (Phase 1, §3.3);
//! * [`cpr_concolic`] explores the input space, injecting patch formulas
//!   into path constraints (Phase 2, §3.4);
//! * [`reduce`](mod@reduce) implements Algorithms 2 and 3 — patch-pool
//!   reduction and abstract-patch refinement over exact parameter regions
//!   (Phase 3, §3.5 and §4);
//! * [`repair`] runs the full anytime loop of Algorithm 1 and produces a
//!   [`RepairReport`] carrying every statistic of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use cpr_core::{repair, RepairConfig, RepairProblem, test_input};
//! use cpr_lang::{parse, check};
//! use cpr_synth::{ComponentSet, SynthConfig};
//!
//! # fn main() -> Result<(), cpr_lang::LangError> {
//! let program = parse(
//!     "program demo {
//!        input x in [-10, 10];
//!        if (__patch_cond__(x)) { return 1; }
//!        bug div_by_zero requires (x != 0);
//!        return 100 / x;
//!      }",
//! )?;
//! check(&program)?;
//!
//! let problem = RepairProblem::new(
//!     "demo",
//!     program,
//!     ComponentSet::new()
//!         .with_all_comparisons()
//!         .with_variables(["x"])
//!         .with_constants(&[0]),
//!     SynthConfig::default(),
//!     vec![test_input(&[("x", 0)])],
//! )
//! .with_developer_patch("x == 0");
//!
//! let report = repair(&problem, &RepairConfig::quick());
//! assert!(report.p_final <= report.p_init);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
pub mod driver;
pub mod expand;
mod lower;
mod problem;
mod ranking;
pub mod reduce;
mod repair;
mod session;
mod synthesize;

pub use apply::{apply_patch, term_to_expr};
pub use driver::{
    check_snapshot_header, subject_digest, RepairDriver, SnapshotError, StepStatus, StopReason,
    MIN_SNAPSHOT_VERSION, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use expand::{expand, ExpandOutcome, ExpandStats};
pub use lower::{lower_expr, lower_expr_src, LowerError};
pub use problem::{test_input, RepairConfig, RepairProblem, TestInput};
pub use ranking::{rank_order, PoolEntry, RankScore};
pub use reduce::{reduce, refine_patch, ReduceStats};
pub use repair::{developer_rank, equivalent, repair, RankedPatch, RepairReport};
pub use session::{PoolMark, Session};
pub use synthesize::{build_patch_pool, SynthStats};

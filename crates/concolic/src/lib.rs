//! Concolic execution engine for the CPR reproduction.
//!
//! This crate plays the role KLEE plays in the original tool: it executes a
//! subject program on a concrete input while collecting the symbolic path
//! constraint `φ_t`, injects the patch formula `ψ_ρ` when the execution
//! reaches the patch hole, reports whether the patch and bug locations were
//! exercised (`hit_patch` / `hit_bug` in the paper's Algorithm 1), and
//! captures the specification `σ` at the bug location. The executor is
//! `cpr-lang`'s evaluator run with a term-building [`Shadow`], so a
//! concolic run and a [`cpr_lang::Interp`] run of the same program agree on
//! the outcome, the steps and the hits by construction.
//!
//! [`Shadow`]: cpr_lang::Shadow
//!
//! [`search`] implements the generational-search input generation of §3.4:
//! negate every suffix term of the last path constraint, keep a dedup set of
//! prefixes, and score candidate inputs by patch/bug-location evidence.
//!
//! # Example
//!
//! ```
//! use cpr_concolic::{ConcolicExecutor, HolePatch};
//! use cpr_lang::{parse, check};
//! use cpr_smt::{Model, Sort, TermPool};
//!
//! # fn main() -> Result<(), cpr_lang::LangError> {
//! let program = parse(
//!     "program p {
//!        input x in [-10, 10];
//!        if (__patch_cond__(x)) { return 1; }
//!        bug div_by_zero requires (x != 0);
//!        return 100 / x;
//!      }",
//! )?;
//! check(&program)?;
//!
//! let mut pool = TermPool::new();
//! // Patch candidate: x >= a with representative a = 0.
//! let x = pool.named_var("x", Sort::Int);
//! let a_var = pool.var("a", Sort::Int);
//! let a = pool.var_term(a_var);
//! let theta = pool.ge(x, a);
//! let mut params = Model::new();
//! params.set(a_var, 0i64);
//!
//! let x_var = pool.find_var("x").unwrap();
//! let mut input = Model::new();
//! input.set(x_var, 5i64);
//!
//! let result = ConcolicExecutor::new().execute(
//!     &mut pool,
//!     &program,
//!     &input,
//!     Some(&HolePatch { theta, params }),
//! );
//! assert!(result.hit_patch);
//! // The path constraint mentions the symbolic parameter `a`.
//! let phi = result.path_constraint(&mut pool);
//! assert!(pool.display(phi).contains('a'));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
pub mod search;

pub use exec::{ConcolicExecutor, ConcolicResult, HoleObservation, HolePatch, PathStep};
pub use search::{
    prefix_flips, score_candidate, CandidateInput, InputQueue, PrefixFlip, SeenPrefixes,
};

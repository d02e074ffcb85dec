//! Phase 1: initial patch-pool construction (paper §3.3).
//!
//! Candidates come from the component-based synthesizer; each is validated
//! against the initial (failing) test case — and any further provided tests —
//! by concolically executing the patched program and refining the parameter
//! constraint until the specification holds on the observed partition. The
//! refinement loop is the same machinery as Phase 3 (`RefinePatch`), applied
//! at construction time, which is what the paper means by "the constraints
//! shown in the table are already modified by the synthesizer to pass the
//! initial test case".

use cpr_concolic::{ConcolicExecutor, HolePatch};
use cpr_lang::Outcome;
use cpr_smt::Region;
use cpr_synth::{enumerate, AbstractPatch, PatchCandidate};

use crate::problem::{RepairConfig, RepairProblem};
use crate::ranking::PoolEntry;
use crate::reduce::refine_patch;
use crate::session::Session;

/// Statistics from pool construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthStats {
    /// Templates enumerated before validation.
    pub enumerated: usize,
    /// Templates surviving validation (the pool size in abstract patches).
    pub validated: usize,
    /// Total concrete patches covered by the validated pool (`|P_Init|`).
    pub concrete: u128,
}

/// Builds and validates the initial patch pool for `problem`.
pub fn build_patch_pool(
    sess: &mut Session,
    problem: &RepairProblem,
    config: &RepairConfig,
) -> (Vec<PoolEntry>, SynthStats) {
    let candidates = enumerate(&mut sess.pool, &problem.components, &problem.synth);
    let mut stats = SynthStats {
        enumerated: candidates.len(),
        ..SynthStats::default()
    };
    let (plo, phi) = problem.synth.param_range;
    let mut entries = Vec::new();
    let mut next_id = 0;
    for cand in candidates {
        let initial = if cand.params.is_empty() {
            AbstractPatch::concrete(next_id, cand.theta)
        } else {
            AbstractPatch::new(
                next_id,
                cand.theta,
                cand.params.clone(),
                Region::full(cand.params.clone(), plo, phi),
            )
        };
        if let Some(validated) = validate_candidate(sess, problem, config, &cand, initial) {
            entries.push(PoolEntry::new(validated));
            next_id += 1;
        }
    }
    stats.validated = entries.len();
    stats.concrete = entries.iter().map(|e| e.patch.concrete_count()).sum();
    (entries, stats)
}

/// Validates one candidate against all provided tests, refining its
/// parameter constraint. Returns the refined patch, or `None` when the
/// candidate cannot repair some test for any parameter value.
fn validate_candidate(
    sess: &mut Session,
    problem: &RepairProblem,
    config: &RepairConfig,
    cand: &PatchCandidate,
    mut patch: AbstractPatch,
) -> Option<AbstractPatch> {
    let exec = ConcolicExecutor::with_budgets(config.exec_max_steps, config.exec_max_path);
    for input in problem
        .failing_inputs
        .iter()
        .chain(problem.passing_inputs.iter())
    {
        let input_model = sess.input_model(input);
        let mut accepted = false;
        for _round in 0..config.max_validation_rounds {
            let rep = patch.representative()?;
            let hole = HolePatch {
                theta: cand.theta,
                params: rep.clone(),
            };
            // A run rejected before it reaches the solver leaves nothing a
            // later query reads: roll its terms back (a step-limited run
            // alone can intern tens of thousands).
            let mark = sess.mark();
            let run = exec.execute(&mut sess.pool, &problem.program, &input_model, Some(&hole));
            let reject = |sess: &mut Session| {
                sess.roll_back(mark);
                None
            };
            match &run.outcome {
                // A sanitizer crash the specification did not capture: the
                // candidate does not even keep the program crash-free on
                // this test — discard.
                Outcome::Crash { .. } => return reject(sess),
                Outcome::MissingPatch => unreachable!("patch provided"),
                // Vacuous paths carry no evidence.
                Outcome::AssumeFailed => {
                    accepted = true;
                    break;
                }
                // A diverging patched program does not pass the test.
                Outcome::StepLimit => return reject(sess),
                Outcome::AssertFailed { .. }
                | Outcome::SpecViolated { .. }
                | Outcome::Returned(_) => {
                    let failed = run.outcome.is_failure();
                    if !run.hit_patch {
                        // Patch location not exercised: the program is
                        // unchanged on this input, so a failing test stays
                        // failing.
                        if failed {
                            return reject(sess);
                        }
                        accepted = true;
                        break;
                    }
                    let Some(sigma) = run.spec_term(&mut sess.pool) else {
                        // No specification observed on this path.
                        if failed {
                            return reject(sess);
                        }
                        accepted = true;
                        break;
                    };
                    let phi = run.constraints_for_patch(&mut sess.pool, cand.theta);
                    let refined =
                        refine_patch(sess, &phi, &patch.constraint, sigma, 0, &mut 0, config);
                    if refined.is_empty() {
                        return None;
                    }
                    if !failed {
                        // The representative passes and the region is
                        // cleaned of the violations the solver could find:
                        // validated on this test (Phase 3 keeps refining
                        // during exploration).
                        patch = patch.with_constraint(refined);
                        accepted = true;
                        break;
                    }
                    // The representative failed. Make sure it is gone even
                    // when the budgeted refinement could not exclude it,
                    // then retry with a fresh representative.
                    let mut region = refined;
                    let rep_point: Vec<i64> = patch
                        .params
                        .iter()
                        .map(|&p| rep.int(p).unwrap_or(0))
                        .collect();
                    if region.contains_point(&rep_point) {
                        let parts = region.split_at(&rep_point);
                        region = cpr_smt::Region::union(patch.params.clone(), parts).merged();
                    }
                    if region.is_empty() {
                        return None;
                    }
                    patch = patch.with_constraint(region);
                }
            }
        }
        if !accepted {
            // Could not find a passing representative within budget.
            return None;
        }
    }
    Some(patch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{test_input, RepairProblem};
    use cpr_lang::{check, parse};
    use cpr_synth::{ComponentSet, SynthConfig};

    const DIV_SRC: &str = "program cve_2016_3623 {
        input x in [-10, 10];
        input y in [-10, 10];
        if (__patch_cond__(x, y)) { return 1; }
        bug div_by_zero requires (x * y != 0);
        return 100 / (x * y);
      }";

    fn problem() -> RepairProblem {
        let program = parse(DIV_SRC).unwrap();
        check(&program).unwrap();
        RepairProblem::new(
            "Libtiff/CVE-2016-3623",
            program,
            ComponentSet::new()
                .with_all_comparisons()
                .with_logic()
                .with_variables(["x", "y"])
                .with_constants(&[0]),
            SynthConfig::default(),
            vec![test_input(&[("x", 7), ("y", 0)])],
        )
        .with_developer_patch("x == 0 || y == 0")
    }

    #[test]
    fn pool_construction_produces_plausible_patches() {
        let problem = problem();
        let config = RepairConfig::quick();
        let mut sess = Session::new(&problem, &config);
        let (entries, stats) = build_patch_pool(&mut sess, &problem, &config);
        assert!(stats.enumerated > entries.len(), "validation filtered none");
        assert!(!entries.is_empty(), "no plausible patches found");
        assert!(stats.concrete > 0);

        // Every surviving patch repairs the failing test with its
        // representative parameters.
        let exec = ConcolicExecutor::new();
        let input = sess.input_model(&test_input(&[("x", 7), ("y", 0)]));
        for entry in &entries {
            let rep = entry.patch.representative().unwrap();
            let hole = HolePatch {
                theta: entry.patch.theta,
                params: rep,
            };
            let run = exec.execute(&mut sess.pool, &problem.program, &input, Some(&hole));
            assert!(
                !run.outcome.is_failure(),
                "patch {} does not repair the failing test",
                entry.patch.display(&sess.pool)
            );
        }
    }

    #[test]
    fn correct_patch_template_survives_with_correct_params() {
        let problem = problem();
        let config = RepairConfig::quick();
        let mut sess = Session::new(&problem, &config);
        let (entries, _) = build_patch_pool(&mut sess, &problem, &config);
        // The paper's correct patch template x == a || y == b must be in
        // the pool with (0, 0) still inside its parameter region.
        let found = entries.iter().any(|e| {
            let d = e.patch.display(&sess.pool);
            d.starts_with("(or (= x a) (= y b))") && e.patch.constraint.contains_point(&[0, 0])
        });
        assert!(
            found,
            "correct template missing or (0,0) refined away: {:?}",
            entries
                .iter()
                .map(|e| e.patch.display(&sess.pool))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tautology_survives_but_contradiction_like_guards_do_too() {
        // `true` deletes functionality (never reaches the bug) and so is
        // plausible; `false` leaves the program unchanged and keeps failing,
        // so it must be filtered out.
        let problem = problem();
        let config = RepairConfig::quick();
        let mut sess = Session::new(&problem, &config);
        let (entries, _) = build_patch_pool(&mut sess, &problem, &config);
        let displays: Vec<String> = entries
            .iter()
            .map(|e| e.patch.display(&sess.pool))
            .collect();
        assert!(displays.iter().any(|d| d == "true"), "{displays:?}");
        assert!(displays.iter().all(|d| d != "false"), "{displays:?}");
    }
}

//! Phase 1 keeps only the terms later queries can read: a candidate
//! rejected before its validation run reaches the solver (step limit,
//! crash, or an unrepaired failure) has its terms rolled back.

use cpr_core::{build_patch_pool, RepairConfig, Session};
use cpr_subjects::all_subjects;

#[test]
fn rejected_validation_runs_leave_no_terms_in_the_pool() {
    // On SV-COMP/loops/sum, 23 candidates drive the loop into the
    // executor's 100,000-step limit; kept, their runs' terms grow the
    // session pool past 600,000.
    let subject = all_subjects()
        .into_iter()
        .find(|s| s.name() == "SV-COMP/loops/sum")
        .expect("loops/sum in the registry");
    let problem = subject.problem();
    let config = RepairConfig::default();
    let mut sess = Session::new(&problem, &config);
    let (entries, stats) = build_patch_pool(&mut sess, &problem, &config);
    assert!(!entries.is_empty() && stats.enumerated > entries.len());
    assert!(
        sess.pool.len() < 10_000,
        "session pool holds {} terms after Phase 1",
        sess.pool.len()
    );
}

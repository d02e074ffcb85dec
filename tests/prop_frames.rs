//! Seeded property tests for the solver's assertion-frame stack: random
//! push/pop/check interleavings must be indistinguishable — verdicts *and*
//! model boxes — from re-checking the pushed conjunction from scratch with
//! every incremental feature disabled.
//!
//! Randomness comes from [`cpr_fuzz::rng::XorShiftRng`] with fixed seeds, so
//! every run checks the same cases — failures are reproducible from the
//! reported seed alone.

use cpr_fuzz::rng::XorShiftRng;
use cpr_smt::{Domains, Solver, SolverConfig, Sort, TermId, TermPool, VarId};

/// A solver with every incremental feature enabled (the defaults).
fn incremental_solver() -> Solver {
    let config = SolverConfig::default();
    assert!(config.incremental, "default must enable frames");
    assert!(config.batch_candidates, "default must enable batching");
    Solver::new(config)
}

/// A solver with every incremental feature disabled: the from-scratch
/// reference the frame path must match bit for bit.
fn scratch_solver() -> Solver {
    Solver::new(SolverConfig {
        incremental: false,
        batch_candidates: false,
        ..SolverConfig::default()
    })
}

fn setup_vars(pool: &mut TermPool, domains: &mut Domains) -> Vec<(VarId, TermId)> {
    ["x", "y", "z"]
        .iter()
        .map(|name| {
            let v = pool.var(name, Sort::Int);
            domains.bound(v, -16, 16);
            (v, pool.var_term(v))
        })
        .collect()
}

/// A random constraint mixing linear/nonlinear comparisons, conjunction,
/// disjunction, and negation over the given variables.
fn random_constraint(
    rng: &mut XorShiftRng,
    pool: &mut TermPool,
    vars: &[(VarId, TermId)],
) -> TermId {
    let a = vars[rng.gen_index(vars.len())].1;
    let b = vars[rng.gen_index(vars.len())].1;
    let c = rng.gen_range_i64(-12, 12);
    let c = pool.int(c);
    let lhs = match rng.gen_index(4) {
        0 => a,
        1 => pool.add(a, b),
        2 => pool.sub(a, b),
        _ => pool.mul(a, b),
    };
    let base = match rng.gen_index(5) {
        0 => pool.lt(lhs, c),
        1 => pool.le(lhs, c),
        2 => pool.gt(lhs, c),
        3 => pool.eq(lhs, c),
        _ => pool.ne(lhs, c),
    };
    match rng.gen_index(8) {
        0 => {
            let d = rng.gen_range_i64(-12, 12);
            let d = pool.int(d);
            let other = pool.ge(b, d);
            pool.or(base, other)
        }
        1 => {
            let d = rng.gen_range_i64(-12, 12);
            let d = pool.int(d);
            let other = pool.le(b, d);
            pool.and(base, other)
        }
        2 => pool.not(base),
        _ => base,
    }
}

/// The core equivalence: at *every* step of a random push/pop walk —
/// including pop-then-repush interleavings — `check_frames` on the session
/// returns exactly what a from-scratch `check` of the currently pushed
/// constraints returns, verdicts and model boxes alike.
#[test]
fn frame_walks_match_from_scratch_checks_at_every_step() {
    for seed in 0..48u64 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let mut pool = TermPool::new();
        let mut domains = Domains::new();
        let vars = setup_vars(&mut pool, &mut domains);
        let mut inc = incremental_solver();
        let mut scratch = scratch_solver();
        let mut frames = inc.open_frames(&pool, &domains);
        // Mirror of the pushed constraints, in push order.
        let mut stack: Vec<TermId> = Vec::new();

        // The empty session must agree with the empty conjunction.
        assert_eq!(
            inc.check_frames(&pool, &mut frames),
            scratch.check(&pool, &stack, &domains),
            "seed {seed}: empty session"
        );

        for step in 0..30 {
            let op = rng.gen_index(3);
            if op == 2 && !stack.is_empty() {
                inc.pop_frame(&mut frames);
                stack.pop();
            } else {
                let c = random_constraint(&mut rng, &mut pool, &vars);
                inc.push_frame(&pool, &mut frames, c);
                stack.push(c);
            }
            assert_eq!(frames.depth(), stack.len(), "seed {seed} step {step}");
            let framed = inc.check_frames(&pool, &mut frames);
            let rechecked = scratch.check(&pool, &stack, &domains);
            assert_eq!(
                framed, rechecked,
                "seed {seed} step {step}: frame stack {stack:?} diverged"
            );
        }

        // Unwind completely; the session must land back on the empty query.
        while frames.depth() > 0 {
            inc.pop_frame(&mut frames);
        }
        assert_eq!(frames.trail_len(), 0, "seed {seed}: trail not fully undone");
        assert_eq!(
            inc.check_frames(&pool, &mut frames),
            scratch.check(&pool, &[], &domains),
            "seed {seed}: unwound session"
        );
    }
}

/// `check_batch` answers exactly like checking `prefix ++ candidate`
/// individually — both against the batching solver itself and against a
/// from-scratch solver with all features off (the fallback path the knobs
/// select is literally that loop).
#[test]
fn check_batch_matches_individual_checks() {
    for seed in 0..32u64 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let mut pool = TermPool::new();
        let mut domains = Domains::new();
        let vars = setup_vars(&mut pool, &mut domains);

        let prefix: Vec<TermId> = (0..2)
            .map(|_| random_constraint(&mut rng, &mut pool, &vars))
            .collect();
        let candidates: Vec<Vec<TermId>> = (0..6)
            .map(|_| {
                (0..1 + rng.gen_index(2))
                    .map(|_| random_constraint(&mut rng, &mut pool, &vars))
                    .collect()
            })
            .collect();

        let mut batched = incremental_solver();
        let mut scratch = scratch_solver();
        let batch_results = batched.check_batch(&pool, &prefix, &candidates, &domains);
        assert_eq!(batch_results.len(), candidates.len());
        for (i, (cand, got)) in candidates.iter().zip(&batch_results).enumerate() {
            let mut q = prefix.clone();
            q.extend_from_slice(cand);
            let want = scratch.check(&pool, &q, &domains);
            assert_eq!(*got, want, "seed {seed} candidate {i}");
        }
        assert!(
            batched.stats().batched_queries >= candidates.len() as u64,
            "seed {seed}: batched queries not counted"
        );
    }
}

/// Popping back to an earlier depth and pushing a different suffix must
/// answer exactly as if the earlier pushes never happened — the trail undo
/// leaves no residue that could leak into later verdicts.
#[test]
fn pop_then_repush_leaves_no_residue() {
    for seed in 0..32u64 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let mut pool = TermPool::new();
        let mut domains = Domains::new();
        let vars = setup_vars(&mut pool, &mut domains);
        let mut inc = incremental_solver();
        let mut scratch = scratch_solver();

        let shared = random_constraint(&mut rng, &mut pool, &vars);
        let first: Vec<TermId> = (0..2)
            .map(|_| random_constraint(&mut rng, &mut pool, &vars))
            .collect();
        let second: Vec<TermId> = (0..2)
            .map(|_| random_constraint(&mut rng, &mut pool, &vars))
            .collect();

        let mut frames = inc.open_frames(&pool, &domains);
        inc.push_frame(&pool, &mut frames, shared);
        for &c in &first {
            inc.push_frame(&pool, &mut frames, c);
        }
        let _ = inc.check_frames(&pool, &mut frames);
        for _ in &first {
            inc.pop_frame(&mut frames);
        }
        for &c in &second {
            inc.push_frame(&pool, &mut frames, c);
        }
        let after_swap = inc.check_frames(&pool, &mut frames);

        let mut fresh: Vec<TermId> = vec![shared];
        fresh.extend_from_slice(&second);
        assert_eq!(
            after_swap,
            scratch.check(&pool, &fresh, &domains),
            "seed {seed}: suffix swap diverged from a fresh check"
        );
    }
}

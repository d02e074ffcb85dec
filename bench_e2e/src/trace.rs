//! The traced run: benchmark-owned spans around `RepairDriver`'s entry points,
//! with the metrics registry snapshotted at each span boundary, and an
//! outside replay of the executor and the enumerator.
//!
//! Self time is a span's duration minus the time of the children the
//! registry attributes to it (solver checks, certificate replay and frame
//! contraction), never below zero.

use std::collections::BTreeMap;
use std::time::Instant;

use cpr_concolic::{ConcolicExecutor, HolePatch};
use cpr_core::{RepairConfig, RepairDriver, RepairProblem, RepairReport, StepStatus, StopReason};
use cpr_lang::Outcome;
use cpr_obs::{MetricsRegistry, MetricsSnapshot};
use cpr_smt::{Model, Region, Sort, TermPool};
use cpr_synth::{enumerate, AbstractPatch};

/// Counters and histogram sums/counts of one snapshot, by name
/// (histograms as `<name>.sum` and `<name>.count`).
#[derive(Debug, Clone, Default)]
pub struct Snap(BTreeMap<String, u64>);

impl Snap {
    /// Flattens a registry snapshot.
    pub fn of(s: &MetricsSnapshot) -> Snap {
        let mut m = BTreeMap::new();
        for (k, v) in &s.counters {
            m.insert(k.clone(), *v);
        }
        for h in &s.histograms {
            m.insert(format!("{}.sum", h.name), h.sum);
            m.insert(format!("{}.count", h.name), h.count);
        }
        Snap(m)
    }

    /// Value of `key`, 0 when never registered.
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// Per-key growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Snap) -> Snap {
        Snap(
            self.0
                .iter()
                .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.get(k))))
                .collect(),
        )
    }

    /// Adds every key of `other` into `self`.
    pub fn add(&mut self, other: &Snap) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// Nanoseconds of child work the registry attributes inside a span:
    /// solver checks, screen certificate replay and frame contraction.
    /// The three are recorded at disjoint call sites.
    pub fn child_nanos(&self) -> u64 {
        self.get("solver.solve_nanos.sum")
            + self.get("screen.cert_replay_nanos.sum")
            + self.get("solver.frames.contract_nanos.sum")
    }
}

/// A span's duration minus its children's, floored at zero: with worker
/// threads, children summed across threads may exceed the span's wall time.
pub fn self_nanos(span: u64, children: u64) -> u64 {
    span.saturating_sub(children)
}

/// Per-layer totals of a traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// Σ `with_metrics` span.
    pub phase1_ns: u64,
    /// Σ Phase-1 self time.
    pub phase1_self_ns: u64,
    /// Registry growth inside `with_metrics` spans.
    pub phase1: Snap,
    /// Registry growth inside `step` spans.
    pub steps: Snap,
    /// Registry growth over whole subjects.
    pub total: Snap,
    /// Every step span that did an iteration, in ms.
    pub step_ms: Vec<f64>,
    /// Σ step spans.
    pub loop_ns: u64,
    /// Σ per step of reduce phase minus the step's children.
    pub reduce_self_ns: u64,
    /// Σ per step of step span minus reduce and expand phases.
    pub exec_rank_ns: u64,
    /// Σ `finish` span.
    pub finish_ns: u64,
    /// Σ report iterations.
    pub iterations: u64,
    /// Σ paths explored.
    pub paths_explored: u64,
    /// Σ paths skipped.
    pub paths_skipped: u64,
}

/// Runs one subject under spans, adding its attribution to `layers`.
/// Returns the report and stop reason, which must fingerprint exactly as
/// an untraced run's.
pub fn traced_subject(
    problem: &RepairProblem,
    config: &RepairConfig,
    registry: &MetricsRegistry,
    layers: &mut Layers,
) -> (RepairReport, Option<StopReason>) {
    let problem = problem.clone();
    let config = config.clone();
    let s0 = Snap::of(&registry.snapshot());

    let t = Instant::now();
    let mut driver = RepairDriver::with_metrics(problem, config, registry);
    let span = t.elapsed().as_nanos() as u64;
    let s1 = Snap::of(&registry.snapshot());
    let phase1 = s1.since(&s0);
    layers.phase1_ns += span;
    layers.phase1_self_ns += self_nanos(span, phase1.child_nanos());
    layers.phase1.add(&phase1);

    let mut prev = s1;
    loop {
        let before = driver.iterations();
        let t = Instant::now();
        let status = driver.step();
        let span = t.elapsed().as_nanos() as u64;
        let now = Snap::of(&registry.snapshot());
        let d = now.since(&prev);
        prev = now;
        let reduce = d.get("reduce.phase_nanos.sum");
        let expand = d.get("expand.phase_nanos.sum");
        layers.loop_ns += span;
        // Outside the reduce and expand phases a step executes and ranks
        // but asks the solver nothing, so the step's children sit inside
        // those two phases; charging them all to reduce bounds its self
        // time from below.
        layers.reduce_self_ns += self_nanos(reduce, d.child_nanos());
        layers.exec_rank_ns += self_nanos(span, reduce + expand);
        layers.steps.add(&d);
        if driver.iterations() > before {
            layers.step_ms.push(span as f64 / 1e6);
        }
        if let StepStatus::Done(_) = status {
            break;
        }
    }
    let stop = driver.stop_reason();

    let t = Instant::now();
    let report = driver.finish();
    layers.finish_ns += t.elapsed().as_nanos() as u64;
    layers.total.add(&Snap::of(&registry.snapshot()).since(&s0));
    layers.iterations += report.iterations as u64;
    layers.paths_explored += report.paths_explored as u64;
    layers.paths_skipped += report.paths_skipped as u64;
    (report, stop)
}

/// Enumerator and executor work replayed from outside the driver.
#[derive(Debug, Default)]
pub struct Replay {
    /// Σ time in `cpr_synth::enumerate`.
    pub enumerate_ns: u64,
    /// Σ candidates enumerated.
    pub candidates: u64,
    /// Σ time in `ConcolicExecutor::execute`.
    pub exec_ns: u64,
    /// Executor runs.
    pub runs: u64,
    /// Σ interpreter steps.
    pub steps: u64,
    /// Runs that hit the executor's step limit.
    pub step_limit_runs: u64,
}

/// Replays Phase 1's first validation run of every enumerated candidate:
/// the initial representative parameters on each provided input, with the
/// repair's executor budgets. A lower bound on Phase-1 executor time, since
/// validation re-runs refined candidates.
pub fn replay(problem: &RepairProblem, config: &RepairConfig, out: &mut Replay) {
    let mut pool = TermPool::new();
    let t = Instant::now();
    let candidates = enumerate(&mut pool, &problem.components, &problem.synth);
    out.enumerate_ns += t.elapsed().as_nanos() as u64;
    out.candidates += candidates.len() as u64;

    let inputs: Vec<Model> = problem
        .failing_inputs
        .iter()
        .chain(problem.passing_inputs.iter())
        .map(|input| {
            let mut m = Model::new();
            for (name, &v) in input {
                m.set(pool.var(name, Sort::Int), v);
            }
            m
        })
        .collect();
    let exec = ConcolicExecutor::with_budgets(config.exec_max_steps, config.exec_max_path);
    let (lo, hi) = problem.synth.param_range;
    for cand in &candidates {
        let patch = if cand.params.is_empty() {
            AbstractPatch::concrete(0, cand.theta)
        } else {
            let region = Region::full(cand.params.clone(), lo, hi);
            AbstractPatch::new(0, cand.theta, cand.params.clone(), region)
        };
        let Some(params) = patch.representative() else {
            continue;
        };
        let hole = HolePatch {
            theta: cand.theta,
            params,
        };
        for input in &inputs {
            let t = Instant::now();
            let run = exec.execute(&mut pool, &problem.program, input, Some(&hole));
            out.exec_ns += t.elapsed().as_nanos() as u64;
            out.runs += 1;
            out.steps += run.steps;
            if matches!(run.outcome, Outcome::StepLimit) {
                out.step_limit_runs += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_never_negative() {
        assert_eq!(self_nanos(10, 3), 7);
        assert_eq!(self_nanos(10, 10), 0);
        // Children summed over worker threads can exceed the span.
        assert_eq!(self_nanos(10, 25), 0);
    }

    #[test]
    fn snapshot_deltas_and_children() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("solver.solve_nanos");
        let c = reg.counter("solver.queries");
        h.record(5);
        let a = Snap::of(&reg.snapshot());
        h.record(7);
        reg.histogram("screen.cert_replay_nanos").record(2);
        c.add(3);
        let d = Snap::of(&reg.snapshot()).since(&a);
        assert_eq!(d.get("solver.solve_nanos.sum"), 7);
        assert_eq!(d.get("solver.solve_nanos.count"), 1);
        assert_eq!(d.get("solver.queries"), 3);
        assert_eq!(d.child_nanos(), 9);
        assert_eq!(d.get("never.registered"), 0);
    }
}

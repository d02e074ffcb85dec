//! End-to-end benchmark: concolic program repair on the paper's subjects.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload paper_serial --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run sets up (parses and type-checks every subject of the workload
//! and loads its golden fingerprints), then repeats sequential passes over
//! the subjects, in a seeded order, until `--seconds` have passed, timing
//! the set-up again after every subject; `setup_s` is the median. Every report is checked against its golden
//! fingerprint before any timing is read. The last line of standard output
//! is one JSON object: with `--trace 0` the end-to-end metrics of untraced
//! passes, with `--trace 1` the per-layer attribution of one traced pass and
//! the tracing overhead, from traced and untraced runs of the cheapest
//! subjects paired back to back. `bench_e2e/workloads.json` records why each
//! workload was chosen and which end-to-end metric each layer should move.
//!
//! `--fingerprints` instead prints one untraced pass's fingerprints in
//! registry order, the format of the files under `golden/`.

mod fingerprint;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cpr_core::{RepairConfig, RepairDriver, RepairProblem, RepairReport, StepStatus, StopReason};
use cpr_obs::MetricsRegistry;

use trace::{Layers, Replay};
use workload::{Selection, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    fingerprints: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut fingerprints = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--fingerprints" {
            fingerprints = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        fingerprints,
    })
}

/// Everything a pass needs, built before any timing.
struct Setup {
    /// `(name, problem)` in registry order.
    subjects: Vec<(String, RepairProblem)>,
    /// Golden fingerprint block per subject (empty when generating them).
    golden: BTreeMap<String, String>,
}

fn read_golden(file: &str) -> Result<BTreeMap<String, String>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    fingerprint::parse_golden(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses and type-checks the workload's subjects and loads its goldens.
/// Returns the set-up and the nanoseconds spent parsing and checking.
fn set_up(w: &Workload, need_golden: bool) -> Result<(Setup, u64), String> {
    let mut runnable: Vec<_> = cpr_subjects::all_subjects()
        .into_iter()
        .filter(|s| !s.not_supported)
        .collect();
    if w.selection == Selection::BudgetBound {
        let paper = read_golden(&workload::golden_file(workload::PAPER_ITERATIONS))?;
        runnable.retain(|s| {
            paper
                .get(&s.name())
                .and_then(|b| fingerprint::golden_stop(b))
                == Some(StopReason::IterationBudget.name())
        });
    }
    let golden = match read_golden(&w.golden_file()) {
        Ok(g) => g,
        Err(_) if !need_golden => BTreeMap::new(),
        Err(e) => return Err(e),
    };
    let t = Instant::now();
    let subjects: Vec<(String, RepairProblem)> =
        runnable.iter().map(|s| (s.name(), s.problem())).collect();
    let parse_ns = t.elapsed().as_nanos() as u64;
    if subjects.is_empty() {
        return Err(format!("workload {} selects no subject", w.name));
    }
    if need_golden {
        if let Some((name, _)) = subjects.iter().find(|(n, _)| !golden.contains_key(n)) {
            return Err(format!("no golden fingerprint for {name}"));
        }
    }
    Ok((Setup { subjects, golden }, parse_ns))
}

/// One subject's untraced repair.
struct SubjectRun {
    first_pool_ns: u64,
    total_ns: u64,
    report: RepairReport,
    stop: Option<StopReason>,
}

fn run_subject(problem: &RepairProblem, config: &RepairConfig) -> SubjectRun {
    let problem = problem.clone();
    let config = config.clone();
    let registry = MetricsRegistry::disabled();
    let t = Instant::now();
    let mut driver = RepairDriver::with_metrics(problem, config, &registry);
    let first_pool_ns = t.elapsed().as_nanos() as u64;
    while let StepStatus::Running = driver.step() {}
    let stop = driver.stop_reason();
    let report = driver.finish();
    SubjectRun {
        first_pool_ns,
        total_ns: t.elapsed().as_nanos() as u64,
        report,
        stop,
    }
}

/// Results of the passes of one run, checked before they are read.
#[derive(Default)]
struct Passes {
    attempted: u64,
    /// Subjects that panicked or whose fingerprint moved, once per run of them.
    failed: Vec<String>,
    /// Σ subject time per pass, seconds.
    repair_s: Vec<f64>,
    /// Σ time to first pool per pass, seconds.
    first_pool_s: Vec<f64>,
    /// Each subject's times to report, ms, one per pass, by subject index.
    subject_ms: Vec<Vec<f64>>,
    /// Reports of the last pass, in subject order.
    last: Vec<(RepairReport, Option<StopReason>)>,
    /// Set-up times, seconds: the process's own set-up, timed from process
    /// start, then one repeat after every subject run.
    setup_s: Vec<f64>,
    /// Parse and type-check part of each set-up, ms.
    parse_ms: Vec<f64>,
}

impl Passes {
    /// Repeats the set-up and records its time. Repeats run between
    /// subjects, so they see the caches a repair leaves behind, as a
    /// user's set-up does, and sample the machine across the whole run
    /// rather than in one burst.
    fn time_setup(&mut self, w: &Workload) {
        let t = Instant::now();
        let (again, parse_ns) = set_up(w, true).expect("set-up succeeded once");
        self.setup_s.push(t.elapsed().as_secs_f64());
        self.parse_ms.push(ms(parse_ns));
        drop(again);
    }

    /// Checks one subject's fingerprint; records a failure naming it.
    fn check(&mut self, setup: &Setup, idx: usize, fp: &str) {
        let name = &setup.subjects[idx].0;
        if setup.golden.get(name).map(String::as_str) != Some(fp) {
            eprintln!(
                "fingerprint moved: {name}\n--- golden\n{}--- got\n{fp}",
                setup.golden.get(name).map_or("(none)\n", String::as_str)
            );
            self.failed.push(name.clone());
        }
    }
}

/// Runs untraced passes until `seconds` have passed (at least one). With
/// `measure`, checks every fingerprint and repeats the set-up after every
/// subject; `out` holds what was measured before the passes.
fn untraced_passes(
    setup: &Setup,
    w: &Workload,
    seed: u64,
    seconds: u64,
    measure: bool,
    mut out: Passes,
) -> Passes {
    let config = w.config();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    out.subject_ms = vec![Vec::new(); setup.subjects.len()];
    for pass in 0.. {
        let mut repair_ns = 0;
        let mut first_pool_ns = 0;
        let mut reports = vec![None; setup.subjects.len()];
        for idx in workload::order(setup.subjects.len(), seed, pass) {
            out.attempted += 1;
            let problem = &setup.subjects[idx].1;
            match catch_unwind(AssertUnwindSafe(|| run_subject(problem, &config))) {
                Ok(run) => {
                    repair_ns += run.total_ns;
                    first_pool_ns += run.first_pool_ns;
                    out.subject_ms[idx].push(run.total_ns as f64 / 1e6);
                    if measure {
                        out.check(setup, idx, &fingerprint::render(&run.report, run.stop));
                        out.time_setup(w);
                    }
                    reports[idx] = Some((run.report, run.stop));
                }
                Err(_) => out.failed.push(setup.subjects[idx].0.clone()),
            }
        }
        out.repair_s.push(repair_ns as f64 / 1e9);
        out.first_pool_s.push(first_pool_ns as f64 / 1e9);
        out.last = reports.into_iter().flatten().collect();
        if started.elapsed() >= budget {
            break;
        }
    }
    out
}

/// A metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(p: &Passes) -> Vec<Metric> {
    // One sample per subject, its median over the passes, so the tail's
    // percentile depends on the workload alone, not on how many passes
    // fit in the run.
    let per_subject: Vec<f64> = p.subject_ms.iter().map(|v| stats::median(v)).collect();
    let (tail_pct, tail_ms) = stats::tail(&per_subject);
    eprintln!(
        "subject_tail_ms is p{tail_pct} of {} subjects (medians over {} passes)",
        per_subject.len(),
        p.repair_s.len()
    );
    let top10 = p
        .last
        .iter()
        .filter(|(r, _)| r.dev_rank.is_some_and(|k| k <= 10))
        .count();
    let reduction: Vec<f64> = p.last.iter().map(|(r, _)| r.reduction_ratio()).collect();
    let mean_reduction = reduction.iter().sum::<f64>() / reduction.len().max(1) as f64;
    vec![
        m("setup_s", stats::median(&p.setup_s), "s"),
        m("repair_s", stats::median(&p.repair_s), "s"),
        m("first_pool_s", stats::median(&p.first_pool_s), "s"),
        m("subject_p50_ms", stats::median(&per_subject), "ms"),
        m("subject_tail_ms", tail_ms, "ms"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m("top10_subjects", top10 as f64, "count"),
        m("mean_reduction_pct", mean_reduction, "%"),
    ]
}

/// Wall time and fingerprint of one untraced run.
fn untraced_once(problem: &RepairProblem, config: &RepairConfig) -> (u64, String) {
    let run = run_subject(problem, config);
    (run.total_ns, fingerprint::render(&run.report, run.stop))
}

/// Wall time and fingerprint of one traced run on a registry of its own.
fn traced_once(problem: &RepairProblem, config: &RepairConfig) -> (u64, String) {
    let registry = MetricsRegistry::new();
    let mut layers = Layers::default();
    let t = Instant::now();
    let (report, stop) = trace::traced_subject(problem, config, &registry, &mut layers);
    (
        t.elapsed().as_nanos() as u64,
        fingerprint::render(&report, stop),
    )
}

/// One traced pass, the outside replay, and paired untraced and traced
/// reruns of the cheapest subjects for the tracing overhead.
fn per_layer(
    setup: &Setup,
    w: &Workload,
    seed: u64,
    seconds: u64,
    mut checked: Passes,
) -> (Vec<Metric>, Passes) {
    let config = w.config();
    let registry = MetricsRegistry::new();
    let mut layers = Layers::default();
    let mut traced_ns = vec![0u64; setup.subjects.len()];
    for idx in workload::order(setup.subjects.len(), seed, 0) {
        checked.attempted += 1;
        let problem = &setup.subjects[idx].1;
        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            trace::traced_subject(problem, &config, &registry, &mut layers)
        }));
        traced_ns[idx] = t.elapsed().as_nanos() as u64;
        match run {
            Ok((report, stop)) => checked.check(setup, idx, &fingerprint::render(&report, stop)),
            Err(_) => checked.failed.push(setup.subjects[idx].0.clone()),
        }
        checked.time_setup(w);
    }

    let mut replay = Replay::default();
    for (_, problem) in &setup.subjects {
        trace::replay(problem, &config, &mut replay);
    }

    // The overhead compares an untraced and a traced run of the same
    // subject back to back, alternating which goes first so that drift in
    // machine speed cancels. A full untraced pass would double the run on
    // workloads dominated by one slow subject, so only the cheapest
    // subjects are paired, as many as fit in `seconds` (at least one).
    let mut by_cost: Vec<usize> = (0..setup.subjects.len()).collect();
    by_cost.sort_by_key(|&i| traced_ns[i]);
    let (mut traced_sum, mut untraced_sum) = (0u64, 0u64);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    for (k, idx) in by_cost.into_iter().enumerate() {
        let expected = Duration::from_nanos(2 * traced_ns[idx]);
        if k > 0 && started.elapsed() + expected > budget {
            break;
        }
        let problem = &setup.subjects[idx].1;
        checked.attempted += 2;
        let pair = catch_unwind(AssertUnwindSafe(|| {
            if k % 2 == 0 {
                let untraced = untraced_once(problem, &config);
                (untraced, traced_once(problem, &config))
            } else {
                let traced = traced_once(problem, &config);
                (untraced_once(problem, &config), traced)
            }
        }));
        match pair {
            Ok(((u_ns, u_fp), (t_ns, t_fp))) => {
                checked.check(setup, idx, &u_fp);
                checked.check(setup, idx, &t_fp);
                untraced_sum += u_ns;
                traced_sum += t_ns;
            }
            Err(_) => checked.failed.push(setup.subjects[idx].0.clone()),
        }
    }

    let l = &layers;
    let t = &l.total;
    let (step_tail_pct, step_tail) = stats::tail(&l.step_ms);
    eprintln!(
        "driver.step_tail_ms is p{step_tail_pct} of {} steps",
        l.step_ms.len()
    );
    let cache_lookups = t.get("solver.cache_hits") + t.get("solver.cache_misses");
    let refuted =
        |s: &trace::Snap| s.get("screen.refuted.interval") + s.get("screen.refuted.zones");
    // The program counts screen refutations, not screen attempts; every
    // check the screen does not close goes on to the solver, so refuted
    // plus solver queries is the number of decisions the screen saw.
    let decisions = refuted(t) + t.get("solver.queries");
    let metrics = vec![
        m(
            "lang.parse_check_ms",
            stats::median(&checked.parse_ms),
            "ms",
        ),
        m("synth.enumerate_ms", ms(replay.enumerate_ns), "ms"),
        m("synth.candidates", replay.candidates as f64, "count"),
        m("synthesize.phase_ms", ms(l.phase1_ns), "ms"),
        m("synthesize.self_ms", ms(l.phase1_self_ns), "ms"),
        m(
            "synthesize.solver_ms",
            ms(l.phase1.get("solver.solve_nanos.sum")),
            "ms",
        ),
        m(
            "synthesize.cert_replay_ms",
            ms(l.phase1.get("screen.cert_replay_nanos.sum")),
            "ms",
        ),
        m(
            "synthesize.queries",
            l.phase1.get("solver.queries") as f64,
            "count",
        ),
        m(
            "synthesize.screen_refuted",
            refuted(&l.phase1) as f64,
            "count",
        ),
        m(
            "synthesize.patches",
            t.get("synthesize.patches") as f64,
            "count",
        ),
        m(
            "synthesize.yield",
            ratio(t.get("synthesize.patches"), replay.candidates),
            "ratio",
        ),
        m("exec.replay_ms", ms(replay.exec_ns), "ms"),
        m("exec.replay_runs", replay.runs as f64, "count"),
        m("exec.replay_steps", replay.steps as f64, "count"),
        m(
            "exec.ns_per_step",
            ratio(replay.exec_ns, replay.steps),
            "ns",
        ),
        m(
            "exec.step_limit_runs",
            replay.step_limit_runs as f64,
            "count",
        ),
        m("driver.loop_ms", ms(l.loop_ns), "ms"),
        m("driver.step_p50_ms", stats::median(&l.step_ms), "ms"),
        m("driver.step_tail_ms", step_tail, "ms"),
        m("driver.step_tail_pct", step_tail_pct, "%"),
        m("driver.iterations", l.iterations as f64, "count"),
        m("driver.paths_explored", l.paths_explored as f64, "count"),
        m("driver.paths_skipped", l.paths_skipped as f64, "count"),
        m("explore.exec_rank_ms", ms(l.exec_rank_ns), "ms"),
        m(
            "loop.solver_ms",
            ms(l.steps.get("solver.solve_nanos.sum")),
            "ms",
        ),
        m(
            "loop.cert_replay_ms",
            ms(l.steps.get("screen.cert_replay_nanos.sum")),
            "ms",
        ),
        m(
            "loop.frames_contract_ms",
            ms(l.steps.get("solver.frames.contract_nanos.sum")),
            "ms",
        ),
        m(
            "loop.queries",
            l.steps.get("solver.queries") as f64,
            "count",
        ),
        m("reduce.phase_ms", ms(t.get("reduce.phase_nanos.sum")), "ms"),
        m("reduce.self_ms", ms(l.reduce_self_ns), "ms"),
        m(
            "reduce.patches_refined",
            t.get("reduce.patches_refined") as f64,
            "count",
        ),
        m(
            "reduce.patches_dropped",
            t.get("reduce.patches_dropped") as f64,
            "count",
        ),
        m("expand.phase_ms", ms(t.get("expand.phase_nanos.sum")), "ms"),
        m(
            "expand.flips_expanded",
            t.get("expand.flips_expanded") as f64,
            "count",
        ),
        m(
            "expand.candidates",
            t.get("expand.candidates") as f64,
            "count",
        ),
        m(
            "expand.model_reuse_hits",
            t.get("expand.model_reuse_hits") as f64,
            "count",
        ),
        m("solver.solve_ms", ms(t.get("solver.solve_nanos.sum")), "ms"),
        m("solver.queries", t.get("solver.queries") as f64, "count"),
        m("solver.cache_lookups", cache_lookups as f64, "count"),
        m(
            "solver.cache_hit_rate",
            ratio(t.get("solver.cache_hits"), cache_lookups),
            "ratio",
        ),
        m(
            "solver.unsat_share",
            ratio(t.get("solver.unsat"), t.get("solver.queries")),
            "ratio",
        ),
        m(
            "solver.nogood_hits",
            t.get("solver.nogood.hits") as f64,
            "count",
        ),
        m(
            "solver.nogood_learned",
            t.get("solver.nogood.learned") as f64,
            "count",
        ),
        m(
            "solver.nogood_hits_per_learned",
            ratio(t.get("solver.nogood.hits"), t.get("solver.nogood.learned")),
            "ratio",
        ),
        m(
            "solver.prefix_short_circuits",
            t.get("solver.prefix_short_circuits") as f64,
            "count",
        ),
        m(
            "solver.frames_contract_ms",
            ms(t.get("solver.frames.contract_nanos.sum")),
            "ms",
        ),
        m(
            "screen.queries_screened",
            t.get("solver.queries_screened") as f64,
            "count",
        ),
        m(
            "screen.refuted_interval",
            t.get("screen.refuted.interval") as f64,
            "count",
        ),
        m(
            "screen.refuted_zones",
            t.get("screen.refuted.zones") as f64,
            "count",
        ),
        m("screen.decisions", decisions as f64, "count"),
        m("screen.refute_rate", ratio(refuted(t), decisions), "ratio"),
        m(
            "screen.cert_replay_ms",
            ms(t.get("screen.cert_replay_nanos.sum")),
            "ms",
        ),
        m(
            "screen.cert_rejected",
            t.get("screen.cert_rejected") as f64,
            "count",
        ),
        m("finish.ms", ms(l.finish_ns), "ms"),
        m(
            "phase1_share",
            ratio(l.phase1_ns, l.phase1_ns + l.loop_ns),
            "ratio",
        ),
        m(
            "obs.trace_overhead",
            ratio(traced_sum, untraced_sum),
            "ratio",
        ),
        m("obs.overhead_base_ms", ms(untraced_sum), "ms"),
    ];
    (metrics, checked)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let first = set_up(&w, !args.fingerprints);
    let first_s = process_start.elapsed().as_secs_f64();
    let (setup, parse_ns) = match first {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_e2e: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };

    if args.fingerprints {
        let p = untraced_passes(&setup, &w, args.seed, 0, false, Passes::default());
        println!(
            "# Golden report fingerprints at max_iterations={}, written by\n\
             # `--workload {} --fingerprints`. Regenerate only with a change that\n\
             # declares which reports it moves and why.",
            w.iterations, w.name
        );
        for (report, stop) in &p.last {
            print!("{}", fingerprint::render(report, *stop));
        }
        return ExitCode::SUCCESS;
    }

    let measured = Passes {
        setup_s: vec![first_s],
        parse_ms: vec![ms(parse_ns)],
        ..Passes::default()
    };
    let (metrics, passes) = if args.trace {
        per_layer(&setup, &w, args.seed, args.seconds, measured)
    } else {
        let p = untraced_passes(&setup, &w, args.seed, args.seconds, true, measured);
        (end_to_end(&p), p)
    };
    let failed = passes.failed.len() as u64;
    if failed > 0 {
        let mut names = passes.failed.clone();
        names.sort();
        names.dedup();
        eprintln!(
            "bench_e2e: {failed} failed subject run(s): {}",
            names.join(", ")
        );
    }
    println!(
        "{}",
        result_line(failed == 0, passes.attempted, failed, &metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cheap registry subjects, so the check runs in a debug build.
    const CHEAP: [&str; 3] = [
        "gzip/f17cbd13a1",
        "SV-COMP/array-examples/unique_list",
        "Coreutils/Bugzilla 19784",
    ];

    #[test]
    fn traced_and_untraced_runs_fingerprint_identically() {
        let w = Workload::by_name("paper_serial").unwrap();
        let (setup, _) = set_up(&w, true).unwrap();
        let config = w.config();
        let registry = MetricsRegistry::new();
        let mut layers = Layers::default();
        for name in CHEAP {
            let (_, problem) = setup.subjects.iter().find(|(n, _)| n == name).unwrap();
            let plain = run_subject(problem, &config);
            let plain = fingerprint::render(&plain.report, plain.stop);
            let (report, stop) = trace::traced_subject(problem, &config, &registry, &mut layers);
            assert_eq!(plain, fingerprint::render(&report, stop), "{name}");
            assert_eq!(plain, setup.golden[name], "{name} moved from its golden");
        }
        assert!(layers.iterations > 0);
        assert!(layers.total.get("solver.queries") > 0);
    }

    #[test]
    fn explore_deep_selects_the_budget_bound_subjects() {
        let w = Workload::by_name("explore_deep").unwrap();
        let (setup, _) = set_up(&w, true).unwrap();
        let names: Vec<&str> = setup.subjects.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "Libtiff/bugzilla 2611",
                "Binutils/CVE-2018-10372",
                "Libxml2/CVE-2016-1838",
                "Libjpeg/CVE-2018-14498",
                "Coreutils/Bugzilla 26545",
            ]
        );
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[m("repair_s", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"repair_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}

//! Report fingerprints and the golden files they are checked against.
//!
//! A fingerprint is the part of a [`RepairReport`] that any
//! verdict-preserving change must leave alone: pool sizes, exploration
//! counts, why the loop stopped, the developer patch's rank and the
//! top-10 ranking. Wall times and query counts are left out on purpose.

use std::collections::BTreeMap;

use cpr_core::{RepairReport, StopReason};

/// Ranked patches the fingerprint pins.
const TOP: usize = 10;

/// Renders the fingerprint block of one report. The first line is
/// `== <subject>`; the block ends with a newline.
pub fn render(report: &RepairReport, stop: Option<StopReason>) -> String {
    let mut out = format!("== {}\n", report.subject);
    out.push_str(&format!(
        "p_init={} p_final={} abstract_init={} abstract_final={}\n",
        report.p_init, report.p_final, report.abstract_init, report.abstract_final
    ));
    out.push_str(&format!(
        "paths_explored={} paths_skipped={} iterations={} inputs_generated={}\n",
        report.paths_explored, report.paths_skipped, report.iterations, report.inputs_generated
    ));
    let rank = report
        .dev_rank
        .map_or_else(|| "none".to_string(), |r| r.to_string());
    out.push_str(&format!(
        "stop={} dev_rank={}\n",
        stop.map_or("none", StopReason::name),
        rank
    ));
    for (i, p) in report.ranked.iter().take(TOP).enumerate() {
        out.push_str(&format!("top{}={}\n", i + 1, p.display));
    }
    out
}

/// Parses a golden file: blocks as written by [`render`], keyed by subject.
/// Lines starting with `#` outside blocks are comments.
pub fn parse_golden(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut blocks = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in text.lines() {
        if let Some(name) = line.strip_prefix("== ") {
            if let Some((n, b)) = current.take() {
                blocks.insert(n, b);
            }
            if blocks.contains_key(name) {
                return Err(format!("subject {name} appears twice"));
            }
            current = Some((name.to_string(), format!("{line}\n")));
        } else if let Some((_, block)) = current.as_mut() {
            block.push_str(line);
            block.push('\n');
        } else if !line.starts_with('#') && !line.trim().is_empty() {
            return Err(format!("line outside a subject block: {line}"));
        }
    }
    if let Some((n, b)) = current {
        blocks.insert(n, b);
    }
    Ok(blocks)
}

/// The `stop=` value recorded in a golden block.
pub fn golden_stop(block: &str) -> Option<&str> {
    block
        .lines()
        .find_map(|l| l.strip_prefix("stop="))
        .and_then(|rest| rest.split_whitespace().next())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_core::RankedPatch;

    fn report() -> RepairReport {
        RepairReport {
            subject: "Demo/CVE-1".into(),
            p_init: 1234,
            p_final: 56,
            abstract_init: 40,
            abstract_final: 7,
            paths_explored: 12,
            paths_skipped: 3,
            iterations: 60,
            inputs_generated: 55,
            patch_loc_hit_ratio: 0.5,
            bug_loc_hit_ratio: 0.25,
            ranked: (0..12)
                .map(|i| RankedPatch {
                    id: i,
                    display: format!("(< x {i})"),
                    score: -(i as i64),
                    concrete: 1,
                    deletion_evidence: 0,
                })
                .collect(),
            dev_rank: Some(2),
            history: vec![1234, 56],
            top_patched_source: None,
            input_coverage: None,
            wall_millis: 99,
            solver_queries: 1000,
            queries_screened: 10,
        }
    }

    #[test]
    fn rendering_is_stable() {
        let expected = "== Demo/CVE-1\n\
            p_init=1234 p_final=56 abstract_init=40 abstract_final=7\n\
            paths_explored=12 paths_skipped=3 iterations=60 inputs_generated=55\n\
            stop=iteration_budget dev_rank=2\n\
            top1=(< x 0)\ntop2=(< x 1)\ntop3=(< x 2)\ntop4=(< x 3)\ntop5=(< x 4)\n\
            top6=(< x 5)\ntop7=(< x 6)\ntop8=(< x 7)\ntop9=(< x 8)\ntop10=(< x 9)\n";
        assert_eq!(
            render(&report(), Some(StopReason::IterationBudget)),
            expected
        );
    }

    #[test]
    fn timings_do_not_enter_the_fingerprint() {
        let a = report();
        let mut b = report();
        b.wall_millis = 1;
        b.solver_queries = 7;
        b.queries_screened = 0;
        let stop = Some(StopReason::PoolEmpty);
        assert_eq!(render(&a, stop), render(&b, stop));
        b.ranked.swap(0, 1);
        assert_ne!(render(&a, stop), render(&b, stop));
    }

    #[test]
    fn golden_round_trips() {
        let mut r = report();
        let one = render(&r, Some(StopReason::IterationBudget));
        r.subject = "Demo/CVE-2".into();
        r.dev_rank = None;
        let two = render(&r, Some(StopReason::InputsExhausted));
        let text = format!("# comment\n{one}{two}");
        let blocks = parse_golden(&text).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks["Demo/CVE-1"], one);
        assert_eq!(blocks["Demo/CVE-2"], two);
        assert_eq!(golden_stop(&blocks["Demo/CVE-1"]), Some("iteration_budget"));
        assert!(parse_golden(&format!("{one}{one}")).is_err());
        assert!(parse_golden("stray\n").is_err());
    }
}

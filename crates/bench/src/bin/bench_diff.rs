//! Gates the bench trajectory: compares the current `BENCH_*.json`
//! summaries against a committed baseline set and fails when a headline
//! metric regresses past the threshold.
//!
//! Only trajectory metrics are compared — numeric leaves named exactly
//! `makespan_us` or starting with `latency_p99` — addressed by their
//! full JSON path, so a reshuffled summary never produces a silent
//! mis-pairing. Counters, ratios and throughput are deliberately out of
//! scope: they move for legitimate reasons (payload tweaks, new fields)
//! and the makespan/tail pair is what the paper's claims ride on.
//!
//! ```text
//! bench_diff --baseline BENCH_BASELINE --current .          # gate CI
//! bench_diff ... --threshold 0.10                           # stricter
//! bench_diff ... --inject-makespan-scale 2   # self-test: must fail
//! ```
//!
//! Boolean headline claims are gated too, by [`rtr_bench::claims`]:
//! every leaf under a `claims` object must be `true`, and every claim
//! the baseline summary carries must still be present.
//!
//! A summary present today but missing from the baseline is reported
//! and its metrics skipped (first run after adding a scenario; its
//! claims are still checked), and a current-only metric inside a paired
//! summary only warns — but a metric the baseline tracks that the
//! current summary *dropped* fails the gate:
//! retiring a gated claim must be an explicit baseline edit, never a
//! silent skip. A *worse-than* `--threshold` relative increase on any
//! compared metric exits non-zero with one line per regression. `--inject-makespan-scale`
//! multiplies every current makespan before comparing — CI uses it as
//! a negative test proving the gate can actually fail.

use std::process::ExitCode;

use rtr_bench::claims;
use rtr_bench::scenario::ScenarioArgs;
use vp2_sim::Json;

/// Default tolerated relative increase before a metric counts as a
/// regression (15% — the scenarios are simulated and deterministic, so
/// anything past noise means the code path genuinely got slower).
const DEFAULT_THRESHOLD: f64 = 0.15;

/// True for the metric names the gate tracks.
fn tracked(key: &str) -> bool {
    key == "makespan_us" || key.starts_with("latency_p99")
}

/// Collects every tracked numeric leaf as `(json.path, value)`.
fn collect(json: &Json, path: &str, out: &mut Vec<(String, f64)>) {
    match json {
        Json::Obj(fields) => {
            for (key, value) in fields {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                if let (true, Some(v)) = (tracked(key), value.as_f64()) {
                    out.push((child, v));
                } else {
                    collect(value, &child, out);
                }
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                collect(item, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

fn main() -> ExitCode {
    let args = ScenarioArgs::parse();
    let (Some(baseline_dir), Some(current_dir)) =
        (args.value_of("--baseline"), args.value_of("--current"))
    else {
        eprintln!(
            "usage: bench_diff --baseline BENCH_BASELINE --current . \
             [--threshold 0.15] [--inject-makespan-scale 1.0]"
        );
        return ExitCode::from(2);
    };
    let threshold: f64 = args.parsed_or("--threshold", DEFAULT_THRESHOLD);
    let inject: f64 = args.parsed_or("--inject-makespan-scale", 1.0);

    // The current directory defines the file set; extra baseline files
    // (a retired scenario) are simply stale and harmless.
    let mut names: Vec<String> = match std::fs::read_dir(&current_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("[diff] {current_dir}: cannot list: {e}");
            return ExitCode::FAILURE;
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("[diff] {current_dir}: no BENCH_*.json summaries to compare");
        return ExitCode::FAILURE;
    }

    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for name in &names {
        let cur_path = format!("{current_dir}/{name}");
        let base_path = format!("{baseline_dir}/{name}");
        let cur_text = match std::fs::read_to_string(&cur_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("[diff] {cur_path}: cannot read: {e}");
                return ExitCode::FAILURE;
            }
        };
        let parse = |path: &str, text: &str| {
            Json::parse(text).unwrap_or_else(|e| panic!("{path}: not valid JSON: {e}"))
        };
        let cur = parse(&cur_path, &cur_text);
        let base = std::fs::read_to_string(&base_path)
            .ok()
            .map(|text| parse(&base_path, &text));
        // Claims gate every current summary, baseline or not.
        regressions.extend(
            claims::check(&cur, base.as_ref())
                .into_iter()
                .map(|problem| format!("{name}: {problem}")),
        );
        let Some(base) = base else {
            eprintln!("[diff] {name}: no baseline yet — skipped");
            continue;
        };
        let mut base_metrics = Vec::new();
        let mut cur_metrics = Vec::new();
        collect(&base, "", &mut base_metrics);
        collect(&cur, "", &mut cur_metrics);
        // A metric the baseline tracked but the current summary no
        // longer exports is a regression, not a skip: a silently
        // dropped key would otherwise retire a gated claim without
        // anyone noticing. New current-only metrics merely warn — they
        // gain a baseline on the next seeding.
        for (path, base) in &base_metrics {
            if !cur_metrics.iter().any(|(p, _)| p == path) {
                regressions.push(format!(
                    "{name}: {path}: baseline has {base:.1} but the \
                     current summary dropped the metric"
                ));
            }
        }
        for (path, cur) in &cur_metrics {
            let Some((_, base)) = base_metrics.iter().find(|(p, _)| p == path) else {
                eprintln!("[diff] {name}: {path}: new metric — skipped");
                continue;
            };
            let cur = if path.ends_with("makespan_us") {
                cur * inject
            } else {
                *cur
            };
            compared += 1;
            // A zero baseline can't support a relative comparison; any
            // nonzero current value on a zero baseline is flagged.
            let ratio = if *base > 0.0 {
                cur / base
            } else if cur == 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
            if ratio > 1.0 + threshold {
                regressions.push(format!(
                    "{name}: {path}: {base:.1} -> {cur:.1} ({:+.1}%)",
                    (ratio - 1.0) * 100.0
                ));
            }
        }
    }

    eprintln!(
        "[diff] {compared} metric(s) compared across {} summaries \
         (threshold {:.0}%)",
        names.len(),
        threshold * 100.0
    );
    if regressions.is_empty() {
        eprintln!("[diff] ok — no regressions past the threshold");
        ExitCode::SUCCESS
    } else {
        for r in &regressions {
            eprintln!("[diff] REGRESSION {r}");
        }
        ExitCode::FAILURE
    }
}

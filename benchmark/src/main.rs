//! Host-time benchmark of the simulated Virtex-II Pro platform.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark summarize RESULTS.json RECORD.json...  # medians, quartiles, determinism
//! benchmark compare A.json B.json                  # one verdict per workload and metric
//! ```
//!
//! A run makes its inputs from the seed before any clock starts, then
//! boots the workload's system cold and serves the inputs, again and again
//! until `--seconds` have passed (at least once). Untraced, it reports the
//! end-to-end metrics; traced, the per-layer replay (see `replay`). It
//! prints its metrics as a table on standard error and, as the last line
//! of standard output, one JSON object with the metrics `BENCHMARK.json`
//! publishes. `--out` also writes the full record, which `summarize`
//! folds into a results file and `compare` judges.

mod compare;
mod meter;
mod metrics;
mod replay;
mod stats;
mod workload;

use std::time::{Duration, Instant};

use vp2_sim::Json;

use crate::metrics::{layer_unit, END_TO_END};
use crate::stats::{peak_rss_mb, Quartiles, Verdict};
use crate::workload::{pass, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark summarize RESULTS.json RECORD.json...
       benchmark compare A.json B.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("summarize") => summarize(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run(&args),
    };
    if let Err(e) = result {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}

/// A seed in decimal or `0x` hexadecimal, `_` separators allowed.
fn parse_seed(text: &str) -> Result<u64, String> {
    let digits = text.replace('_', "");
    match digits.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => digits.parse(),
    }
    .map_err(|_| format!("bad seed {text:?}"))
}

/// What one benchmark process measured.
struct Record {
    workload: Workload,
    seed: u64,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    passes: usize,
    digest: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    metrics::end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| layer_unit(name))
        .expect("every metric is catalogued")
}

impl Record {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn metrics_json<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Result<Json, String> {
        let mut out = Json::obj();
        for name in names {
            let value = self
                .metric(name)
                .ok_or_else(|| format!("metric {name} is not measured"))?;
            out = out.field(
                name,
                Json::obj()
                    .field("value", value)
                    .field("unit", unit_of(name)),
            );
        }
        Ok(out)
    }

    /// The full record `summarize` reads.
    fn to_json(&self) -> Json {
        Json::obj()
            .field("workload", self.workload.name())
            .field("seed", self.seed.to_string())
            .field("traced", self.traced)
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("passes", self.passes)
            .field("sim_digest", format!("{:016x}", self.digest))
            .field(
                "problems",
                Json::Arr(
                    self.problems
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect(),
                ),
            )
            .field(
                "metrics",
                self.metrics_json(self.metrics.iter().map(|(n, _)| *n))
                    .expect("own metrics"),
            )
    }

    /// The one-line result: the metrics `BENCHMARK.json` publishes for
    /// this mode, in its order.
    fn result_line(&self) -> Result<String, String> {
        let section = if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        };
        let names = metrics::published(section);
        Ok(Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field(
                "metrics",
                self.metrics_json(names.iter().map(String::as_str))?,
            )
            .render())
    }

    fn print_table(&self) {
        eprintln!(
            "[benchmark] {} seed {} ({} pass{}, digest {:016x})",
            self.workload.name(),
            self.seed,
            self.passes,
            if self.passes == 1 { "" } else { "es" },
            self.digest
        );
        for (name, value) in &self.metrics {
            eprintln!("  {name:<30} {value:>16.4} {}", unit_of(name));
        }
        for problem in &self.problems {
            eprintln!("  PROBLEM: {problem}");
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 0.0;
    let mut traced = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = parse_seed(value()?)?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    let name = workload.ok_or(USAGE)?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let mut record = if traced {
        traced_record(workload, seed)
    } else {
        measure(workload, seed, seconds)?
    };
    if let Some((name, _)) = record.metrics.iter().find(|(_, v)| !v.is_finite()) {
        record
            .problems
            .push(format!("{name} is not a finite number"));
        record.correct = false;
    }
    record.print_table();
    if let Some(path) = out {
        std::fs::write(&path, record.to_json().render_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", record.result_line()?);
    Ok(())
}

/// Worker threads of the fleet in the end-to-end runs. Inline: on a 2-CPU
/// host, two worker threads per pool made the run-to-run spread of
/// requests per host-second 21% instead of 4–13%, because any load on the
/// second CPU stalls the pool. The traced run covers the threaded path.
const END_TO_END_THREADS: usize = 1;

/// Untraced cold passes for up to `seconds` (at least one): host metrics
/// are medians over the passes, in seconds at the meter's reference speed;
/// simulated metrics must agree across the passes.
fn measure(workload: Workload, seed: u64, seconds: f64) -> Result<Record, String> {
    let schedule = workload.schedule(seed);
    let mut problems = Vec::new();
    // Host seconds of an interval at the reference speed, or its wall
    // seconds (and a problem) if the meter took no sample in it.
    let mut host_s = |wall: Duration, reading: &meter::Reading| {
        meter::normalize(wall, reading).unwrap_or_else(|| {
            problems.push("the host-speed meter took no sample in a pass".to_string());
            wall.as_secs_f64()
        })
    };
    meter::start()?;
    let start = Instant::now();
    let mut passes = Vec::new();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    // Taken after the first pass: later passes only add allocator
    // fragmentation, and how many run depends on the host's speed.
    let mut peak_rss = None;
    // A pass starts only if, taking as long as the last one, it ends within
    // `seconds`: no run outlasts its budget but by a single first pass.
    let mut last = 0.0;
    while passes.is_empty() || start.elapsed().as_secs_f64() + last <= seconds {
        let begun = Instant::now();
        let p = pass(workload, seed, &schedule, END_TO_END_THREADS);
        last = begun.elapsed().as_secs_f64();
        peak_rss.get_or_insert_with(peak_rss_mb);
        let setup = host_s(p.setup, &p.setup_meter);
        let rate = p.outcome.total.completed as f64 / host_s(p.serve, &p.serve_meter);
        eprintln!(
            "[benchmark] {} pass {}: setup {:.3} s, serve {:.3} s wall; \
             setup {setup:.3} s, {rate:.1} req/s at reference speed (meter {:.1} us)",
            workload.name(),
            passes.len() + 1,
            p.setup.as_secs_f64(),
            p.serve.as_secs_f64(),
            p.serve_meter.typical.as_secs_f64() * 1e6
        );
        setups.push(setup);
        rates.push(rate);
        passes.push(p);
    }
    meter::stop()?;
    let first = &passes[0].outcome;
    if passes.iter().any(|p| p.outcome.digest != first.digest) {
        problems.push("passes over the same inputs simulated different outputs".to_string());
    }
    let rate = Quartiles::of(&rates).median;
    let setup = Quartiles::of(&setups).median;
    let failed: u64 = passes.iter().map(|p| p.outcome.failures()).sum();
    let metrics = vec![
        ("req_per_host_s", rate),
        ("setup_s", setup),
        ("peak_rss_mb", peak_rss.expect("at least one pass")),
        ("sim_makespan_ms", first.makespan.as_ms_f64()),
        ("sim_p50_us", first.total.latency_p50.as_us_f64()),
        ("sim_p99_us", first.total.latency_p99.as_us_f64()),
        ("fail_frac", first.failures() as f64 / first.requests as f64),
    ];
    debug_assert!(metrics
        .iter()
        .map(|(n, _)| *n)
        .eq(END_TO_END.iter().map(|m| m.name)));
    Ok(Record {
        workload,
        seed,
        traced: false,
        correct: problems.is_empty() && failed == 0,
        attempted: first.requests * passes.len() as u64,
        failed,
        passes: passes.len(),
        digest: first.digest,
        problems,
        metrics,
    })
}

fn traced_record(workload: Workload, seed: u64) -> Record {
    let schedule = workload.schedule(seed);
    let run = replay::traced_run(workload, seed, &schedule);
    Record {
        workload,
        seed,
        traced: true,
        correct: run.problems.is_empty() && run.failures == 0,
        attempted: 2 * run.requests,
        failed: run.failures,
        passes: 2,
        digest: run.digest,
        problems: run.problems,
        metrics: run.metrics,
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e:?}"))
}

fn str_field<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Folds untraced run records into a results file: per workload and
/// end-to-end metric, the median, quartiles and samples. Fails when a run
/// failed requests or was incorrect, or when repetitions disagree on any
/// simulated metric or on the simulated-output digest.
fn summarize(args: &[String]) -> Result<(), String> {
    let (out, inputs) = args.split_first().ok_or(USAGE)?;
    let records = inputs
        .iter()
        .map(|p| read_json(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut violations = Vec::new();
    let mut workloads = Vec::new();
    println!(
        "{:<12} {:<16} {:>14} {:<7} {:>8} {:>4}",
        "workload", "metric", "median", "unit", "IQR", "runs"
    );
    for workload in Workload::ALL {
        let name = workload.name();
        let runs: Vec<&Json> = records
            .iter()
            .filter(|r| {
                str_field(r, "workload") == name && r.get("traced") == Some(&Json::Bool(false))
            })
            .collect();
        let Some(first) = runs.first() else {
            violations.push(format!("{name}: no untraced runs"));
            continue;
        };
        let digest = str_field(first, "sim_digest");
        if runs.iter().any(|r| str_field(r, "sim_digest") != digest) {
            violations.push(format!("{name}: repetitions disagree on sim_digest"));
        }
        for run in &runs {
            if run.get("correct") != Some(&Json::Bool(true)) {
                violations.push(format!(
                    "{name}: a run is incorrect: {}",
                    run.get("problems").map(Json::render).unwrap_or_default()
                ));
            }
        }
        let mut entries = Vec::new();
        for m in &END_TO_END {
            let samples: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r.get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{name}: a record lacks {}", m.name))
                })
                .collect::<Result<_, _>>()?;
            if m.simulated && samples.iter().any(|&s| s != samples[0]) {
                violations.push(format!("{name}: {} differs between repetitions", m.name));
            }
            if m.name == "fail_frac" && samples.iter().any(|&s| s > 0.0) {
                violations.push(format!("{name}: fail_frac > 0"));
            }
            let q = Quartiles::of(&samples);
            println!(
                "{name:<12} {:<16} {:>14.4} {:<7} {:>7.2}% {:>4}",
                m.name,
                q.median,
                m.unit,
                100.0 * q.relative_iqr(),
                samples.len()
            );
            entries.push(
                Json::obj()
                    .field("name", m.name)
                    .field("unit", m.unit)
                    .field(
                        "better",
                        if m.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        },
                    )
                    .field("bound", m.bound)
                    .field("median", q.median)
                    .field("q1", q.q1)
                    .field("q3", q.q3)
                    .field(
                        "samples",
                        Json::Arr(samples.into_iter().map(Json::from).collect()),
                    ),
            );
        }
        workloads.push(
            Json::obj()
                .field("name", name)
                .field("sim_digest", digest)
                .field("runs", runs.len())
                .field("metrics", Json::Arr(entries)),
        );
    }
    let results = Json::obj().field("workloads", Json::Arr(workloads));
    std::fs::write(out, results.render_pretty()).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

/// Judges results file `B` against base `A`, one verdict per workload and
/// end-to-end metric. Fails when any pair got worse, or when `A` measured
/// a workload or metric that `B` lacks.
fn compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let c = compare::compare(&read_json(a)?, &read_json(b)?);
    println!(
        "{:<12} {:<16} {:>14} {:>8} {:>14} {:>8} {:>9}  verdict",
        "workload", "metric", "A median", "A IQR", "B median", "B IQR", "change"
    );
    for row in &c.rows {
        let (qa, qb) = (row.base, row.new);
        let change = if qa.median == 0.0 {
            qb.median - qa.median
        } else {
            100.0 * (qb.median - qa.median) / qa.median.abs()
        };
        println!(
            "{:<12} {:<16} {:>14.4} {:>7.2}% {:>14.4} {:>7.2}% {:>+8.2}%  {}",
            row.workload,
            row.metric,
            qa.median,
            100.0 * qa.relative_iqr(),
            qb.median,
            100.0 * qb.relative_iqr(),
            change,
            row.verdict.label()
        );
    }
    for extra in &c.extra {
        eprintln!("benchmark: warning: only {b} has {extra}; not judged");
    }
    let mut errors: Vec<String> = c
        .missing
        .iter()
        .map(|m| format!("{b} lacks {m}, which {a} has"))
        .collect();
    let worse = c
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Worse)
        .count();
    if worse > 0 {
        errors.push(format!("{worse} workload/metric pair(s) got worse"));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

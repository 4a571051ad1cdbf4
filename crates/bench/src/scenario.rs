//! Shared plumbing for the scenario binaries.
//!
//! `service_scenario`, `fault_scenario` and `cluster_scenario` all parse
//! the same `--flag value` arguments and emit a JSON summary either to
//! stdout or to the file `--json` names. The duplicated copies used to
//! live in each binary; they live here once now.

use std::io::Write as _;
use std::str::FromStr;

use rtr_telemetry::Telemetry;
use rtr_trace::{chrome_trace, Journal, JournalRow, Profiler, Tracer};
use vp2_sim::{Json, SimTime};

/// Parsed command-line arguments of a scenario binary.
pub struct ScenarioArgs {
    args: Vec<String>,
}

impl ScenarioArgs {
    /// Parses the process arguments.
    pub fn parse() -> ScenarioArgs {
        ScenarioArgs {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// The value following `name`, if present.
    pub fn value_of(&self, name: &str) -> Option<String> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .cloned()
    }

    /// The value following `name` parsed as `T`, or `default` when the
    /// flag is absent or unparsable.
    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> T {
        self.value_of(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The `--json` output path, if requested.
    pub fn json_path(&self) -> Option<String> {
        self.value_of("--json")
    }

    /// The `--trace` output path (Chrome trace-event JSON), if requested.
    pub fn trace_path(&self) -> Option<String> {
        self.value_of("--trace")
    }

    /// The `--profile` output path (makespan-attribution JSON), if
    /// requested.
    pub fn profile_path(&self) -> Option<String> {
        self.value_of("--profile")
    }

    /// The `--journal` base path (streamed per-shard JSONL journals),
    /// if requested. Shard `s` streams to `{base}.shard{s:03}.jsonl`
    /// and the merged export lands in `{base}.merged.jsonl`.
    pub fn journal_base(&self) -> Option<String> {
        self.value_of("--journal")
    }

    /// Worker threads for parallel shard execution (`--threads N`,
    /// default 1 = inline).
    pub fn threads(&self) -> usize {
        self.parsed_or("--threads", 1usize).max(1)
    }

    /// The `--telemetry` base path (streamed per-shard time-series),
    /// if requested. Shard `s` streams to `{base}.shard{s:03}.tl.jsonl`
    /// and the merged export lands in `{base}.merged.tl.jsonl`.
    pub fn telemetry_base(&self) -> Option<String> {
        self.value_of("--telemetry")
    }

    /// The telemetry sampling tick in picoseconds (`--tick PS`, default
    /// 1 ms of simulated time).
    pub fn tick_ps(&self) -> u64 {
        self.parsed_or("--tick", rtr_telemetry::DEFAULT_TICK_PS)
            .max(1)
    }

    /// A telemetry handle for the scenario's designated run: enabled
    /// (and streaming) when `--telemetry` was given, the free no-op
    /// handle otherwise. `--tick` sets the sampling period.
    pub fn telemetry(&self) -> Telemetry {
        let Some(base) = self.telemetry_base() else {
            return Telemetry::disabled();
        };
        let telemetry = Telemetry::with_tick(SimTime::from_ps(self.tick_ps()));
        stream(&telemetry, Some(base));
        telemetry
    }

    /// A tracer for the scenario's designated run: enabled when
    /// `--trace`, `--profile` or `--journal` was given, the free no-op
    /// handle otherwise. With `--journal` the tracer streams every
    /// event to per-shard JSONL files as it is emitted, so runs longer
    /// than the in-memory ring stay fully journaled.
    pub fn tracer(&self) -> Tracer {
        if self.trace_path().is_none()
            && self.profile_path().is_none()
            && self.journal_base().is_none()
        {
            return Tracer::disabled();
        }
        let tracer = Tracer::enabled();
        stream(&tracer, self.journal_base());
        tracer
    }
}

impl Default for ScenarioArgs {
    fn default() -> Self {
        ScenarioArgs::parse()
    }
}

/// Writes the summary to the `--json` path (if any) or stdout. `tag` is
/// the binary's log prefix (`[service]`, `[fault]`, `[cluster]`).
pub fn emit(tag: &str, json_path: Option<&str>, summary: &Json) {
    let rendered = summary.render_pretty();
    match json_path {
        Some(path) => {
            let mut f =
                std::fs::File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"));
            f.write_all(rendered.as_bytes()).expect("write json");
            eprintln!("[{tag}] wrote {path}");
        }
        None => print!("{rendered}"),
    }
}

/// Attaches per-shard stream files under `base` (when given) to either
/// plane's journal.
fn stream<R: JournalRow, S>(journal: &Journal<R, S>, base: Option<String>) {
    if let Some(base) = base {
        journal
            .stream_to(&base)
            .unwrap_or_else(|e| panic!("{} stream {base}: {e}", R::NOUN));
    }
}

/// Flushes either plane's per-shard stream files under `base` (when
/// given) and merges them into `<base>.merged<suffix>`, ordered by the
/// row kind's merge key. No-op on a disabled handle.
fn merge<R: JournalRow, S>(tag: &str, journal: &Journal<R, S>, base: Option<String>) {
    let Some(base) = base.filter(|_| journal.on()) else {
        return;
    };
    let noun = R::NOUN;
    let shard_files = journal
        .flush_streams()
        .unwrap_or_else(|e| panic!("flush {noun} streams {base}: {e}"));
    let merged = Journal::<R, S>::merged_path(&base);
    let lines = journal
        .merge_streams(&merged)
        .unwrap_or_else(|e| panic!("merge {noun} streams {base}: {e}"));
    eprintln!(
        "[{tag}] wrote {merged} ({lines} {noun} lines from {} shard stream(s))",
        shard_files.len()
    );
}

/// Exports what the scenario's designated run recorded: the Chrome
/// trace to `--trace`, the makespan attribution to `--profile` (with
/// the human-readable table echoed to stderr), and the merged journal
/// and telemetry streams under `--journal` and `--telemetry`. Each part
/// is a no-op when its handle is disabled.
pub fn export(tag: &str, args: &ScenarioArgs, tracer: &Tracer, telemetry: &Telemetry) {
    if tracer.on() {
        if let Some(path) = args.trace_path() {
            let rendered = chrome_trace(&tracer.events()).render();
            std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!(
                "[{tag}] wrote {path} ({} events, {} dropped)",
                tracer.len(),
                tracer.dropped()
            );
        }
        if let Some(path) = args.profile_path() {
            let report = Profiler.fold(tracer);
            std::fs::write(&path, report.to_json().render_pretty())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("[{tag}] wrote {path}");
            eprint!("{report}");
        }
    }
    merge(tag, tracer, args.journal_base());
    merge(tag, telemetry, args.telemetry_base());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing_covers_present_absent_and_garbage() {
        let args = ScenarioArgs {
            args: vec![
                "--requests".into(),
                "96".into(),
                "--seed".into(),
                "junk".into(),
                "--json".into(),
                "out.json".into(),
            ],
        };
        assert_eq!(args.parsed_or("--requests", 48usize), 96);
        assert_eq!(args.parsed_or("--seed", 7u64), 7, "garbage falls back");
        assert_eq!(args.parsed_or("--missing", 5u64), 5);
        assert_eq!(args.json_path().as_deref(), Some("out.json"));
        assert_eq!(args.value_of("--nope"), None);
    }
}

//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark computes, with its unit, and the subset `BENCHMARK.json`
//! publishes.

use vp2_sim::Json;

/// One end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen before a
    /// comparison calls it a regression. A host metric's bound covers the
    /// run-to-run spread measured on a shared 2-CPU host; a simulated
    /// metric repeats exactly for a seed, so its bound only matters when
    /// the program's behaviour changes.
    pub bound: f64,
    /// A simulated-clock metric: deterministic for a seed, so every
    /// repetition must read exactly the same.
    pub simulated: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    simulated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        simulated,
    }
}

/// Every end-to-end metric, in report order.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("req_per_host_s", "req/s", true, 0.25, false),
    e2e("setup_s", "s", false, 0.25, false),
    e2e("peak_rss_mb", "MB", false, 0.08, false),
    e2e("sim_makespan_ms", "sim_ms", false, 0.01, true),
    e2e("sim_p50_us", "sim_us", false, 0.01, true),
    e2e("sim_p99_us", "sim_us", false, 0.01, true),
    e2e("fail_frac", "ratio", false, 0.0, true),
];

/// Looks up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Every per-layer metric as `(name, unit)`, in report order. Layer names
/// follow the crates they measure (`ppc` = the PPC405 interpreter driven
/// through `Driver::run_sw`, `dock` = the hardware path through
/// `Driver::run_hw`, `core` = `ModuleManager`, `apps` = `Driver` set-up
/// and the reference implementations).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("service.calibrate_ms", "ms/boot"),
    ("core.register_ms", "ms/boot"),
    ("apps.preload_ms", "ms/boot"),
    ("service.boot_ms", "ms/boot"),
    ("service.boot_other_ms", "ms/boot"),
    ("federation.boot_ms_per_shard", "ms/shard"),
    ("ppc.run_sw_us", "us/call"),
    ("ppc.minstr_per_host_s", "Minstr/s"),
    ("dock.run_hw_us", "us/call"),
    ("apps.reference_us", "us/req"),
    ("core.load_ms", "ms/load"),
    ("ppc.run_sw_pct", "%"),
    ("dock.run_hw_pct", "%"),
    ("apps.reference_pct", "%"),
    ("core.load_pct", "%"),
    ("service.residual_pct", "%"),
    ("federation.admit_us", "us/call"),
    ("federation.flush_all_ms", "ms"),
    ("federation.admit_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("service.hw_items", "count"),
    ("service.sw_items", "count"),
    ("service.swaps", "count"),
    ("service.batches", "count"),
    ("ppc.instr_per_req", "instr/req"),
    ("trace.events_per_req", "events/req"),
    ("core.icap_words_per_swap", "words/load"),
    ("configplane.words_sent_frac", "ratio"),
    ("configplane.cache_hit_frac", "ratio"),
    ("core.load_retries", "count"),
    ("core.repaired_frames", "count"),
    ("core.scrub_frames", "count"),
    ("federation.steals", "count"),
    ("federation.sheds", "count"),
    ("cluster.peak_buffered", "count"),
];

/// Unit of a per-layer metric.
pub fn layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// The benchmark descriptor at the repository root.
const DESCRIPTOR: &str = include_str!("../../BENCHMARK.json");

/// Names `BENCHMARK.json` lists under `section` (`end_to_end` or
/// `per_layer`), in its order: the metrics a one-line result carries.
pub fn published(section: &str) -> Vec<String> {
    let doc = Json::parse(DESCRIPTOR).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("every metric has a name")
                .to_string()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor() -> Json {
        Json::parse(DESCRIPTOR).expect("BENCHMARK.json parses")
    }

    #[test]
    fn published_metrics_exist_with_the_same_unit_and_direction() {
        let doc = descriptor();
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let ours = end_to_end(name).unwrap_or_else(|| panic!("unknown metric {name}"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(ours.unit),
                "{name}"
            );
            let better = if ours.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better),
                "{name}"
            );
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(ours.bound),
                "{name}"
            );
        }
        for m in doc.get("per_layer").and_then(Json::as_arr).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let unit = layer_unit(name).unwrap_or_else(|| panic!("unknown layer metric {name}"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        }
    }

    /// Every per-layer metric is published except the federation layer's
    /// two host times: single-service workloads never enter that layer, so
    /// there they would read a constant 0, which is not a measurement.
    #[test]
    fn per_layer_publishes_all_but_the_federation_times() {
        let unpublished: Vec<&str> = PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !published("per_layer").iter().any(|p| p == name))
            .collect();
        assert_eq!(
            unpublished,
            ["federation.admit_us", "federation.flush_all_ms"]
        );
    }

    #[test]
    fn published_workloads_are_the_benchmarks_own() {
        let doc = descriptor();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}

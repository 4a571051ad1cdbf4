//! `benchmark compare`: judges one results file against a base, one
//! verdict per workload and end-to-end metric.

use vp2_sim::Json;

use crate::metrics::END_TO_END;
use crate::stats::{verdict, Quartiles, Verdict};

/// One judged workload and metric.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: Quartiles,
    pub new: Quartiles,
    pub verdict: Verdict,
}

/// Everything a comparison found.
pub struct Comparison {
    pub rows: Vec<Row>,
    /// What the base measured and the new file does not, or what either
    /// file holds without usable samples: the comparison cannot vouch
    /// for it, so it fails.
    pub missing: Vec<String>,
    /// What only the new file measured: reported, not judged.
    pub extra: Vec<String>,
}

fn name(json: &Json) -> &str {
    json.get("name").and_then(Json::as_str).unwrap_or("")
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

/// A metric's samples in a results-file workload: `Ok(None)` when the
/// metric is absent, an error when it is present without usable samples.
fn samples(workload: &Json, metric: &str) -> Result<Option<Vec<f64>>, ()> {
    let Some(entry) = workload
        .get("metrics")
        .and_then(Json::as_arr)
        .and_then(|ms| ms.iter().find(|m| name(m) == metric))
    else {
        return Ok(None);
    };
    let samples: Option<Vec<f64>> = entry
        .get("samples")
        .and_then(Json::as_arr)
        .and_then(|xs| xs.iter().map(Json::as_f64).collect());
    match samples {
        Some(xs) if !xs.is_empty() && xs.iter().all(|x| x.is_finite()) => Ok(Some(xs)),
        _ => Err(()),
    }
}

/// Judges results file `new` against `base`.
pub fn compare(base: &Json, new: &Json) -> Comparison {
    let mut comparison = Comparison {
        rows: Vec::new(),
        missing: Vec::new(),
        extra: Vec::new(),
    };
    for wb in workloads(new) {
        if !workloads(base).iter().any(|wa| name(wa) == name(wb)) {
            comparison.extra.push(format!("workload {}", name(wb)));
        }
    }
    for wa in workloads(base) {
        let workload = name(wa);
        let Some(wb) = workloads(new).iter().find(|wb| name(wb) == workload) else {
            comparison.missing.push(format!("workload {workload}"));
            continue;
        };
        for m in &END_TO_END {
            let what = format!("{workload} {}", m.name);
            match (samples(wa, m.name), samples(wb, m.name)) {
                (Ok(Some(sa)), Ok(Some(sb))) => comparison.rows.push(Row {
                    workload: workload.to_string(),
                    metric: m.name,
                    base: Quartiles::of(&sa),
                    new: Quartiles::of(&sb),
                    verdict: verdict(&sa, &sb, m.bound, m.higher_is_better),
                }),
                (Err(()), _) => comparison
                    .missing
                    .push(format!("{what}: base has no samples")),
                (_, Err(())) => comparison
                    .missing
                    .push(format!("{what}: new has no samples")),
                (Ok(Some(_)), Ok(None)) => comparison.missing.push(what),
                (Ok(None), Ok(Some(_))) => comparison.extra.push(what),
                (Ok(None), Ok(None)) => {}
            }
        }
    }
    comparison
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload's name and each of its metrics' samples.
    type Measured<'a> = (&'a str, &'a [(&'a str, &'a [f64])]);

    /// A results file with the given workloads.
    fn results(workloads: &[Measured]) -> Json {
        let workloads = workloads
            .iter()
            .map(|(workload, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|(metric, samples)| {
                        Json::obj().field("name", *metric).field(
                            "samples",
                            Json::Arr(samples.iter().map(|&x| Json::from(x)).collect()),
                        )
                    })
                    .collect();
                Json::obj()
                    .field("name", *workload)
                    .field("metrics", Json::Arr(metrics))
            })
            .collect();
        Json::obj().field("workloads", Json::Arr(workloads))
    }

    const RATE: &[f64] = &[100.0, 101.0, 99.0];
    const SETUP: &[f64] = &[0.40, 0.41, 0.39];

    #[test]
    fn equal_files_are_within_bound() {
        let a = results(&[("fleet", &[("req_per_host_s", RATE), ("setup_s", SETUP)])]);
        let c = compare(&a, &a);
        assert_eq!(c.rows.len(), 2);
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::WithinBound));
        assert!(c.missing.is_empty() && c.extra.is_empty());
    }

    #[test]
    fn a_workload_or_metric_the_new_file_lacks_is_missing() {
        let a = results(&[
            ("sw_interp", &[("req_per_host_s", RATE), ("setup_s", SETUP)]),
            ("fleet", &[("req_per_host_s", RATE)]),
        ]);
        let b = results(&[("sw_interp", &[("req_per_host_s", RATE)])]);
        let c = compare(&a, &b);
        assert_eq!(c.missing, ["sw_interp setup_s", "workload fleet"]);
        assert!(c.extra.is_empty());
        assert_eq!(c.rows.len(), 1);
    }

    #[test]
    fn what_only_the_new_file_has_is_extra() {
        let a = results(&[("sw_interp", &[("req_per_host_s", RATE)])]);
        let b = results(&[
            ("sw_interp", &[("req_per_host_s", RATE), ("setup_s", SETUP)]),
            ("fleet", &[("req_per_host_s", RATE)]),
        ]);
        let c = compare(&a, &b);
        assert!(c.missing.is_empty());
        assert_eq!(c.extra, ["workload fleet", "sw_interp setup_s"]);
    }

    #[test]
    fn a_metric_without_samples_is_missing_on_either_side() {
        let full = results(&[("fleet", &[("req_per_host_s", RATE)])]);
        let empty = results(&[("fleet", &[("req_per_host_s", &[])])]);
        assert_eq!(
            compare(&full, &empty).missing,
            ["fleet req_per_host_s: new has no samples"]
        );
        assert_eq!(
            compare(&empty, &full).missing,
            ["fleet req_per_host_s: base has no samples"]
        );
    }
}

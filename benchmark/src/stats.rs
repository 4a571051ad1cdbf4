//! Order statistics, the regression verdict, and the probes runs record:
//! peak resident memory, CPU time and the digest of the simulated output.

use std::time::Duration;

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles by the method of Python's `statistics.quantiles(xs, n=4)`
    /// (the default "exclusive" method), so the numbers this crate reports
    /// match any external check made with that function. A single sample
    /// is its own median and quartiles.
    ///
    /// # Panics
    /// Panics on an empty or non-finite sample set.
    pub fn of(samples: &[f64]) -> Quartiles {
        assert!(!samples.is_empty(), "quartiles of an empty sample set");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "non-finite sample in {samples:?}"
        );
        let mut data = samples.to_vec();
        data.sort_by(f64::total_cmp);
        let n = data.len();
        if n == 1 {
            return Quartiles {
                q1: data[0],
                median: data[0],
                q3: data[0],
            };
        }
        let m = n as i64 + 1;
        let cut = |i: i64| {
            let j = (i * m / 4).clamp(1, n as i64 - 1);
            let delta = (i * m - j * 4) as f64;
            let j = j as usize;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile range as a share of the median (0 when the samples
    /// are all equal, infinite when they vary around a zero median).
    pub fn relative_iqr(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

/// How a metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Moved by no more than the bound either way.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians cannot
    /// say which way the metric moved.
    Unresolved,
}

impl Verdict {
    /// Lowercase label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change from `base` to `new`, signed so that positive means
/// worse. From a zero base the change is absolute (any rise of a
/// lower-is-better zero, such as a failure fraction, counts as worse).
fn worsening(base: f64, new: f64, higher_is_better: bool) -> f64 {
    let change = if base == 0.0 {
        new - base
    } else {
        (new - base) / base.abs()
    };
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Compares run sets `new` against `base` under a regression bound (a
/// share of the base median). A spread wider than the bound on either side
/// makes the comparison unresolved, unless every new sample beats every
/// base sample.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let (qb, qn) = (Quartiles::of(base), Quartiles::of(new));
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    if qb.relative_iqr().max(qn.relative_iqr()) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse = worsening(qb.median, qn.median, higher_is_better);
    if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Peak resident set size in kB, from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// This process's peak resident set size in MB.
///
/// # Panics
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = parse_vm_hwm_kb(&status).expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// User plus system CPU time in clock ticks, from the text of
/// `/proc/<pid>/stat` (fields 14 and 15; the command name in field 2 may
/// hold spaces and parentheses, so fields count from its last `)`).
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time this process has used, over all its threads, at the 10 ms
/// resolution of `/proc` clock ticks (`USER_HZ` is 100 on Linux).
///
/// # Panics
/// Panics where `/proc/self/stat` cannot be read or parsed (not Linux).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_cpu_ticks(&stat).expect("CPU times in /proc/self/stat");
    Duration::from_millis(ticks * 10)
}

/// 64-bit FNV-1a: the digest of a run's rendered snapshot. Equal digests
/// across repetitions, and between traced and untraced runs, show the
/// simulated output did not change.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        let q = Quartiles::of(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        assert_eq!(q.relative_iqr(), 0.0);
        assert_eq!(Quartiles::of(&ten).relative_iqr(), 5.5 / 5.5);
    }

    #[test]
    fn verdicts_cover_every_outcome() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput (higher is better), 10% bound.
        let up = [120.0, 121.0, 119.0, 120.5, 119.5];
        let down = [80.0, 81.0, 79.0, 80.5, 79.5];
        let same = [103.0, 102.0, 104.0, 103.5, 102.5];
        assert_eq!(verdict(&base, &up, 0.10, true), Verdict::Better);
        assert_eq!(verdict(&base, &down, 0.10, true), Verdict::Worse);
        assert_eq!(verdict(&base, &same, 0.10, true), Verdict::WithinBound);
        // The same numbers read the other way for a lower-is-better metric.
        assert_eq!(verdict(&base, &up, 0.10, false), Verdict::Worse);
        assert_eq!(verdict(&base, &down, 0.10, false), Verdict::Better);
        // A spread wider than the bound leaves the comparison unresolved...
        let noisy = [60.0, 140.0, 95.0, 105.0, 100.0];
        assert_eq!(verdict(&base, &noisy, 0.10, true), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &base, 0.10, true), Verdict::Unresolved);
        // ...unless every new run beats every base run.
        let noisy_up = [150.0, 300.0, 200.0, 250.0, 160.0];
        assert_eq!(verdict(&base, &noisy_up, 0.10, true), Verdict::Better);
        // Deterministic metrics under a zero bound: equal is within bound,
        // any move is decided, and a rise from zero counts as worse.
        assert_eq!(
            verdict(&[5.0; 5], &[5.0; 5], 0.0, false),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&[5.0; 5], &[5.1; 5], 0.0, false), Verdict::Worse);
        assert_eq!(
            verdict(&[0.0; 5], &[0.0; 5], 0.0, false),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&[0.0; 5], &[0.001; 5], 0.0, false), Verdict::Worse);
        assert_eq!(verdict(&[0.001; 5], &[0.0; 5], 0.0, false), Verdict::Better);
    }

    #[test]
    fn vm_hwm_parses_from_proc_status() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  812340 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  190000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert!(peak_rss_mb() > 0.0, "this process has a resident set");
    }

    #[test]
    fn cpu_ticks_parse_from_proc_stat() {
        // A command name with a space and a parenthesis; utime 250, stime 31.
        let stat = "4242 (bench mark)) R 1 4242 4242 0 -1 4194304 900 0 0 0 250 31 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(stat), Some(281));
        assert_eq!(parse_cpu_ticks("4242 (benchmark) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
        let before = process_cpu();
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(60) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu() > before, "a 60 ms spin shows as CPU time");
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        let snap = r#"{"completed":1000,"elapsed_us":6012345.5}"#;
        assert_eq!(fnv1a64(snap.as_bytes()), fnv1a64(snap.as_bytes()));
        assert_ne!(
            fnv1a64(snap.as_bytes()),
            fnv1a64(snap.replace("1000", "999").as_bytes())
        );
    }
}

//! Host-speed meter: expresses host time at a fixed reference speed.
//!
//! The shared host this benchmark was built on changes speed from one
//! second to the next: for tens of seconds at a time the simulator runs at
//! half speed, and its CPU time slows with its wall time, so neither clock
//! alone gives a steady number. The slowdowns track how busy the rest of
//! the physical core is, so a fixed integer kernel with many independent
//! multiply, load and ALU chains — work that competes for the same
//! execution ports the simulator uses — slows with them.
//!
//! Once started, a timer signal interrupts the process every [`TICK_US`]
//! and the handler times one run of that kernel. A host interval is then
//! reported as its wall time minus the time the handler took, scaled by
//! [`REFERENCE_NS`] over the kernel's typical time in the interval: the
//! seconds the interval would have taken at the speed where the kernel
//! needs exactly [`REFERENCE_NS`]. The kernel and its reference time are
//! part of the benchmark's definition and do not depend on the program,
//! so a program change moves the reported times as it moves the wall time
//! it spends.
//!
//! Linux only: the timer is `setitimer(ITIMER_REAL)` and its `SIGALRM`.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Microseconds between kernel runs. At 40–80 µs a run, the meter takes
/// 1–2% of the process's time, which [`normalize`] subtracts.
pub const TICK_US: i64 = 4_000;

/// Nanoseconds one kernel run takes at the reference speed: its fastest
/// time on the benchmark's host (a shared 2-vCPU Xeon at 2.1 GHz), where
/// the median was 55–75 µs. Reported host times are in seconds at this
/// speed.
pub const REFERENCE_NS: f64 = 40_000.0;

/// Kernel timings kept: 65,536 ticks, about 4 minutes, more than any one
/// timed interval.
const CAPACITY: usize = 1 << 16;

/// Kernel timings in nanoseconds, a ring indexed by the tick count.
static SAMPLES: [AtomicU32; CAPACITY] = [const { AtomicU32::new(0) }; CAPACITY];
/// Ticks so far. The handler stores a sample, then publishes it by
/// advancing this counter with `Release`; readers load the counter with
/// `Acquire` before reading the samples below it.
static TICKS: AtomicUsize = AtomicUsize::new(0);

/// The kernel's lookup table: 16 KiB, resident in the first-level cache.
static TABLE: [u32; 4096] = table();

const fn table() -> [u32; 4096] {
    let mut t = [0; 4096];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut i = 0;
    while i < t.len() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t[i] = x as u32;
        i += 1;
    }
    t
}

/// The reference kernel: 4 multiply chains, 8 dependent-load chains and
/// 12 rotate/xor/add chains, all independent, so it runs as fast as the
/// core's execution ports allow.
#[inline(never)]
fn kernel() -> u64 {
    let mut mul = [1u64, 2, 3, 4];
    let mut load = [1usize, 2, 3, 4, 5, 6, 7, 8];
    let mut alu: [u64; 12] = std::array::from_fn(|j| j as u64 * 31 + 7);
    let mask = TABLE.len() - 1;
    for i in 0..4_000u64 {
        for m in &mut mul {
            *m = m.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ i;
        }
        for l in &mut load {
            *l = l.wrapping_add(TABLE[*l & mask] as usize);
        }
        for a in &mut alu {
            *a = (a.rotate_left(9) ^ i).wrapping_add(*a >> 5);
        }
    }
    let folded = mul.iter().chain(&alu).fold(0, |acc, v| acc ^ v);
    load.iter().fold(folded, |acc, &v| acc ^ v as u64)
}

/// The signal handler: one timed kernel run. It allocates nothing, takes
/// no lock and calls only `clock_gettime` (through `Instant`), which is
/// async-signal-safe. `SIGALRM` is blocked while it runs, so runs never
/// overlap.
extern "C" fn on_tick(_signal: i32) {
    let start = Instant::now();
    std::hint::black_box(kernel());
    let ns = u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX);
    let tick = TICKS.load(Ordering::Relaxed);
    SAMPLES[tick % CAPACITY].store(ns, Ordering::Relaxed);
    TICKS.store(tick + 1, Ordering::Release);
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Itimerval {
    it_interval: Timeval,
    it_value: Timeval,
}

const SIGALRM: i32 = 14;
const ITIMER_REAL: i32 = 0;
const SIG_ERR: usize = usize::MAX;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
}

fn set_timer(period_us: i64) -> Result<(), String> {
    let period = Timeval {
        tv_sec: 0,
        tv_usec: period_us,
    };
    let value = Timeval {
        tv_sec: 0,
        tv_usec: period_us,
    };
    let timer = Itimerval {
        it_interval: period,
        it_value: value,
    };
    // SAFETY: `timer` is a live, initialised `struct itimerval` (two
    // `struct timeval`s of 64-bit fields on 64-bit Linux) that outlives the
    // call, and a null `old` value is allowed.
    if unsafe { setitimer(ITIMER_REAL, &timer, std::ptr::null_mut()) } != 0 {
        return Err(format!("setitimer: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Starts sampling: installs the handler and a timer that fires every
/// [`TICK_US`]. glibc's `signal` installs it with `SA_RESTART`, so system
/// calls the signal interrupts are restarted.
pub fn start() -> Result<(), String> {
    // SAFETY: `on_tick` has the C signature of a signal handler and is
    // async-signal-safe (see its documentation).
    if unsafe { signal(SIGALRM, on_tick) } == SIG_ERR {
        return Err(format!("signal: {}", std::io::Error::last_os_error()));
    }
    set_timer(TICK_US)
}

/// Stops the timer; the handler stays installed for a signal in flight.
pub fn stop() -> Result<(), String> {
    set_timer(0)
}

/// A point in the stream of kernel timings.
#[derive(Debug, Clone, Copy)]
pub struct Mark(usize);

/// The current point in the stream of kernel timings.
pub fn mark() -> Mark {
    Mark(TICKS.load(Ordering::Acquire))
}

/// The kernel runs between a mark and now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Kernel runs.
    pub runs: usize,
    /// Time the handler spent in them.
    pub total: Duration,
    /// Mean time of one run over the middle 80% of runs (zero without
    /// runs). Interval times integrate the host's speed, so a mean tracks
    /// them better than the median does; trimming drops runs the host
    /// preempted.
    pub typical: Duration,
}

/// The kernel runs since `mark`.
pub fn since(mark: Mark) -> Reading {
    let now = TICKS.load(Ordering::Acquire);
    // The ring holds the last CAPACITY runs; an interval is far shorter.
    let first = mark.0.max(now.saturating_sub(CAPACITY));
    let mut ns: Vec<u64> = (first..now)
        .map(|tick| u64::from(SAMPLES[tick % CAPACITY].load(Ordering::Relaxed)))
        .collect();
    ns.sort_unstable();
    let cut = ns.len() / 10;
    let middle = &ns[cut..ns.len() - cut];
    Reading {
        runs: ns.len(),
        total: Duration::from_nanos(ns.iter().sum()),
        typical: Duration::from_nanos(middle.iter().sum::<u64>() / middle.len().max(1) as u64),
    }
}

/// Seconds at the reference speed for an interval of `wall` time over
/// which the meter took `reading`: `None` when no kernel ran in it.
pub fn normalize(wall: Duration, reading: &Reading) -> Option<f64> {
    if reading.runs == 0 {
        return None;
    }
    let own = wall.saturating_sub(reading.total).as_secs_f64();
    Some(own * REFERENCE_NS / reading.typical.as_nanos() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_scales_own_time_by_the_kernel_speed() {
        let at = |typical_ns: f64, runs: usize, total_ms: u64| Reading {
            runs,
            total: Duration::from_millis(total_ms),
            typical: Duration::from_nanos(typical_ns as u64),
        };
        let wall = Duration::from_millis(1_010);
        // At the reference speed only the handler's own time comes off.
        let full = normalize(wall, &at(REFERENCE_NS, 200, 10)).unwrap();
        assert!((full - 1.0).abs() < 1e-9, "{full}");
        // Half speed: the kernel takes twice as long, the interval counts
        // half.
        let half = normalize(wall, &at(2.0 * REFERENCE_NS, 100, 10)).unwrap();
        assert!((half - 0.5).abs() < 1e-9, "{half}");
        assert_eq!(normalize(wall, &at(0.0, 0, 0)), None);
    }

    #[test]
    fn meter_samples_while_started() {
        assert_eq!(kernel(), kernel(), "the kernel's work is fixed");
        let mark = mark();
        start().unwrap();
        let spin = Instant::now();
        while since(mark).runs < 5 && spin.elapsed() < Duration::from_secs(5) {
            std::hint::black_box(0u64);
        }
        stop().unwrap();
        let reading = since(mark);
        assert!(reading.runs >= 5, "{reading:?}");
        assert!(reading.typical > Duration::ZERO);
        assert!(reading.total >= reading.typical * (reading.runs as u32 / 2));
    }
}

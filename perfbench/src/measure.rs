//! Clocks and order statistics.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock id for CPU time consumed by every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by all threads of this process, at nanosecond
/// resolution (the tick counts in `/proc/self/stat` are 10 ms coarse).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `#[repr(C)]` above), and
    // `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Wall and process-CPU time of one measured phase, less the time spent in
/// [`Stopwatch::exclude`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
    excluded_wall: f64,
    excluded_cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_s(),
            excluded_wall: 0.0,
            excluded_cpu: 0.0,
        }
    }

    /// Wall seconds since start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64() - self.excluded_wall
    }

    /// `(wall seconds, CPU seconds)` since start.
    pub fn stop(&self) -> (f64, f64) {
        (
            self.wall_s(),
            process_cpu_s() - self.cpu - self.excluded_cpu,
        )
    }

    /// Runs `f` off the clock.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let inner = Stopwatch::start();
        let out = f();
        let (wall, cpu) = inner.stop();
        self.excluded_wall += wall;
        self.excluded_cpu += cpu;
        out
    }
}

/// Seconds the reference computation takes on an unloaded 2-vCPU Xeon
/// VM: calibrated times read in seconds of that machine.
const REFERENCE_NOMINAL_S: f64 = 0.004;
/// Least time between two reference samples inside a unit.
const REFERENCE_INTERVAL: Duration = Duration::from_millis(100);

/// Wall seconds of a fixed computation that uses no code of the system:
/// Gaussian-density arithmetic (`exp`, `ln`, `sqrt`) in registers.
fn reference_s() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    let mut x = 0.5f64;
    for i in 0..300_000u64 {
        x = x * 1.000_001 + 1e-7;
        let d = x - (i & 7) as f64 * 0.1;
        acc += (-0.5 * d * d).exp() / (1.0 + x).sqrt() + (1.0 + d * d).ln();
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Tracks how fast the machine runs right now, by timing a fixed
/// reference computation before, during and after each unit.
///
/// A shared host runs this process up to half again slower for seconds
/// to minutes at a time, and the slowdown hits the reference computation
/// and the workload alike. Scaling a unit's CPU-bound times by
/// `REFERENCE_NOMINAL_S ÷ mean reference time` over the unit cancels most
/// of it; the scaled times are in seconds of the reference machine, and a
/// change to the system moves them as it moves the raw ones.
#[derive(Debug)]
pub struct Calibrator {
    sum_s: f64,
    samples: u32,
    last: Instant,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// A calibrator with no samples yet, after one warm-up run of the
    /// reference (the first run in a process is slow).
    pub fn new() -> Self {
        reference_s();
        Calibrator {
            sum_s: 0.0,
            samples: 0,
            last: Instant::now(),
        }
    }

    /// Times the reference computation once.
    pub fn sample(&mut self) {
        self.sum_s += reference_s();
        self.samples += 1;
        self.last = Instant::now();
    }

    /// Samples, off `clock`, if the last sample is `REFERENCE_INTERVAL` old.
    pub fn tick(&mut self, clock: &mut Stopwatch) {
        if self.last.elapsed() >= REFERENCE_INTERVAL {
            clock.exclude(|| self.sample());
        }
    }

    /// Samples once more and returns the scale for the unit's times
    /// (reference seconds per second), forgetting the unit's samples.
    pub fn finish(&mut self) -> f64 {
        self.sample();
        let scale = REFERENCE_NOMINAL_S * f64::from(self.samples) / self.sum_s;
        self.sum_s = 0.0;
        self.samples = 0;
        scale
    }
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The nearest-rank quartile of `xs` on its better side: the lower
/// quartile when lower is better, the upper one when higher is better;
/// 0 when empty. With up to four values it is the best of them.
pub fn better_quartile(xs: &[f64], lower_is_better: bool) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    v[v.len().div_ceil(4) - 1]
}

/// The nearest-rank `q`-quantile of `xs` (sorted in place); 0 when empty.
pub fn quantile_u64(xs: &mut [u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excluded_time_stays_off_the_clock() {
        let mut clock = Stopwatch::start();
        clock.exclude(|| std::thread::sleep(Duration::from_millis(50)));
        assert!(clock.wall_s() < 0.025, "{}", clock.wall_s());
    }
}

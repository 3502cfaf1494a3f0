//! Clocks, summaries and process probes shared by the workloads.

use gssl_runtime::Executor;
use std::time::{Duration, Instant};

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Type-7 quantile of a non-empty sample (NaN for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    gssl_stats::describe::quantile(xs, q).unwrap_or(f64::NAN)
}

/// Median of a non-empty sample (NaN for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean (NaN for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Whether a `q`-quantile of `n` samples keeps at least ten samples
/// beyond it, the floor below which a tail percentile is not reported as
/// measured.
pub fn tail_ok(n: usize, q: f64) -> bool {
    (1.0 - q) * n as f64 >= 10.0
}

/// Repetition budget: at least `min_reps` repetitions, and more while
/// fewer than `seconds` have passed since the budget was made.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_reps: usize,
}

impl Budget {
    /// A budget starting now.
    pub fn new(seconds: f64, min_reps: usize) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            min_reps,
        }
    }

    /// Whether another repetition should run after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_reps || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or NaN where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median wall time in microseconds of one `map_chunks` call over eight
/// empty items on `executor`: the fixed cost every parallel dispatch pays.
pub fn dispatch_us(executor: &Executor, calls: usize) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let (out, secs) = time(|| {
                executor.map_chunks(8, 1, |range| {
                    Ok::<_, gssl_runtime::Error>(vec![(); range.len()])
                })
            });
            std::hint::black_box(out.map(|v| v.len()).unwrap_or(0));
            secs * 1e6
        })
        .collect();
    median(&samples)
}

/// Seconds since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Blocks until `at` seconds after `start`: sleeps while the wait is
/// long, then yields, so the wake-up is late by microseconds, not by a
/// scheduler tick.
pub fn wait_until(start: Instant, at: f64) {
    loop {
        let left = at - since(start);
        if left <= 0.0 {
            return;
        }
        if left > 300e-6 {
            std::thread::sleep(Duration::from_secs_f64(left - 150e-6));
        } else {
            std::thread::yield_now();
        }
    }
}

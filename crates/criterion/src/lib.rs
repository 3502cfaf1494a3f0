//! Workspace-local stand-in for the slice of the `criterion` bench API the
//! workspace uses.
//!
//! The build environment is offline, so the real crates-io `criterion`
//! cannot be fetched. This crate keeps the bench targets compiling and
//! running with the same source: it measures wall-clock time per iteration
//! with `std::time::Instant`, prints a one-line summary per benchmark, and
//! skips criterion's statistical machinery (outlier analysis, HTML reports).
//! Numbers are indicative, not publication-grade.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque hint preventing the optimizer from deleting a benchmarked value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A two-part id `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id carrying only the swept parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            id: name.to_owned(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// The bench driver handed to every registered bench function.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _criterion: self,
            sample_size: 10,
        }
    }
}

/// A group of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Registers and immediately runs a benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.into(), &mut f);
        self
    }

    /// Registers and immediately runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.into(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Ends the group (no-op in the shim; kept for API parity).
    pub fn finish(self) {}

    fn run(&mut self, id: BenchmarkId, f: &mut dyn FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            samples: Vec::with_capacity(self.sample_size),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        let summary = bencher.summarize();
        println!("  {:<40} {summary}", id.id);
    }
}

/// Collects timed iterations of one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `sample_size` executions of `body` (after one warm-up call).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        std::hint::black_box(body());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            let out = body();
            self.samples.push(start.elapsed());
            std::hint::black_box(out);
        }
    }

    fn summarize(&self) -> String {
        if self.samples.is_empty() {
            return "no samples (bencher.iter was never called)".to_owned();
        }
        let total: Duration = self.samples.iter().sum();
        let mean = total / self.samples.len() as u32;
        let min = self.samples.iter().min().copied().unwrap_or_default();
        let max = self.samples.iter().max().copied().unwrap_or_default();
        format!(
            "mean {mean:>12.3?}  min {min:>12.3?}  max {max:>12.3?}  ({} samples)",
            self.samples.len()
        )
    }
}

/// Declares a bench group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` that runs the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_runs_bodies_and_counts_samples() {
        let mut c = Criterion::default();
        let mut calls = 0usize;
        {
            let mut group = c.benchmark_group("shim");
            group.sample_size(3);
            group.bench_function("counting", |b| {
                b.iter(|| {
                    calls += 1;
                    black_box(calls)
                });
            });
            group.finish();
        }
        // One warm-up call plus three timed samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn bench_with_input_passes_the_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        group.bench_with_input(BenchmarkId::new("double", 21), &21u64, |b, &x| {
            b.iter(|| black_box(x * 2));
        });
        group.finish();
    }

    #[test]
    fn ids_render_as_expected() {
        assert_eq!(BenchmarkId::new("a", 3).id, "a/3");
        assert_eq!(BenchmarkId::from_parameter("p").id, "p");
        assert_eq!(BenchmarkId::from("name").id, "name");
    }
}

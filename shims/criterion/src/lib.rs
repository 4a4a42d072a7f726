//! Offline stand-in for `criterion`: enough API for the workspace's
//! `cargo bench` targets to compile and produce coarse wall-clock numbers
//! (median of a fixed number of timed batches). No statistics, plots or
//! regression tracking — just a smoke-runner so benches stay honest in an
//! environment without crates.io access.

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

/// Prevents the optimiser from discarding a benchmarked value.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Times `routine` with the shim's standard batch plan (median of 7 batches
/// of 64 iterations) and returns the median cost in nanoseconds per
/// iteration — the programmatic companion to [`Bencher::iter`], for callers
/// that need the number itself (e.g. to embed a wall-clock data point in a
/// machine-readable perf report) rather than a printed line.
pub fn measure_median_ns<O>(routine: impl FnMut() -> O) -> f64 {
    let mut bencher = Bencher::new();
    let mut routine = routine;
    bencher.iter(&mut routine);
    bencher.median_ns
}

/// Times `routine` in the warm steady state: one untimed block of `iters`
/// calls to pull the working set into cache and train branch predictors,
/// then `reps` timed blocks keeping the minimum block mean, in nanoseconds
/// per iteration.
///
/// Use this instead of [`measure_median_ns`] when the routine's working set
/// is large (e.g. a scheduler carrying 10⁵ tenant queues): the standard
/// 7×64-iteration batch plan never escapes the cold-cache transient at that
/// scale, so its median reports compulsory-miss cost rather than the
/// steady-state cost the number is meant to track, and the measurement
/// stops being comparable across working-set sizes. The min, as in
/// [`measure_interleaved_min_ns`], discards scheduler preemptions instead
/// of averaging them in.
pub fn measure_min_ns<O>(iters: u32, reps: u32, mut routine: impl FnMut() -> O) -> f64 {
    for _ in 0..iters {
        black_box(routine());
    }
    let mut best_ns = f64::MAX;
    for _ in 0..reps {
        best_ns = best_ns.min(block_ns(iters, &mut routine));
    }
    best_ns
}

/// Times two routines **interleaved** — alternating timed blocks of
/// `iters` calls each, `reps` repetitions with the side that goes first
/// alternating too, keeping each side's minimum block time — and returns
/// `(a_ns, b_ns)` per iteration.
///
/// This is the right shape for measuring a *difference* between two
/// variants of the same hot path (e.g. an instrumented scheduler round
/// against its plain twin): back-to-back blocks see the same thermal and
/// frequency conditions, so machine drift cancels out of the comparison,
/// and the min discards scheduler preemptions instead of averaging them
/// in. Two independent [`measure_median_ns`] calls cannot do this — on a
/// busy host they disagree with themselves by more than a 10% overhead
/// budget.
pub fn measure_interleaved_min_ns<O1, O2>(
    iters: u32,
    reps: u32,
    mut a: impl FnMut() -> O1,
    mut b: impl FnMut() -> O2,
) -> (f64, f64) {
    // One untimed block each warms caches, branch predictors and any
    // lazily-allocated state out of the measurement.
    for _ in 0..iters {
        black_box(a());
        black_box(b());
    }
    let mut a_ns = f64::MAX;
    let mut b_ns = f64::MAX;
    // The side that runs second inherits the first one's cache and frequency
    // state, so the two take turns going first.
    for rep in 0..reps {
        if rep % 2 == 0 {
            a_ns = a_ns.min(block_ns(iters, &mut a));
            b_ns = b_ns.min(block_ns(iters, &mut b));
        } else {
            b_ns = b_ns.min(block_ns(iters, &mut b));
            a_ns = a_ns.min(block_ns(iters, &mut a));
        }
    }
    (a_ns, b_ns)
}

/// Times one block of `iters` calls; nanoseconds per call.
fn block_ns<O>(iters: u32, routine: &mut impl FnMut() -> O) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(routine());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Builds an id from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// Timing harness handed to benchmark closures.
pub struct Bencher {
    batches: u32,
    iters_per_batch: u32,
    median_ns: f64,
}

impl Bencher {
    fn new() -> Self {
        Bencher {
            batches: 7,
            iters_per_batch: 64,
            median_ns: 0.0,
        }
    }

    /// Times `routine`, storing the median per-iteration cost.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let mut samples = Vec::with_capacity(self.batches as usize);
        for _ in 0..self.batches {
            let start = Instant::now();
            for _ in 0..self.iters_per_batch {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            samples.push(elapsed.as_nanos() as f64 / f64::from(self.iters_per_batch));
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        self.median_ns = samples[samples.len() / 2];
    }
}

fn report(group: &str, name: &str, median_ns: f64) {
    if median_ns >= 1_000_000.0 {
        println!("{group}/{name}: {:.3} ms/iter", median_ns / 1e6);
    } else if median_ns >= 1_000.0 {
        println!("{group}/{name}: {:.3} µs/iter", median_ns / 1e3);
    } else {
        println!("{group}/{name}: {median_ns:.1} ns/iter");
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the sample count (accepted for API compatibility; the shim uses
    /// a fixed batch plan).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the measurement time (accepted for API compatibility).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::new();
        f(&mut bencher, input);
        report(&self.name, &id.name, bencher.median_ns);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new();
        f(&mut bencher);
        report(&self.name, &id.to_string(), bencher.median_ns);
        self
    }

    /// Finishes the group (no-op in the shim).
    pub fn finish(self) {}
}

/// The benchmark runner.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new();
        f(&mut bencher);
        report("bench", &name.to_string(), bencher.median_ns);
        self
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

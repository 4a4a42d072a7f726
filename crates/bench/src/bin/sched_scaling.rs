//! Scheduler latency at production cardinality — the 10³/10⁴/10⁵-job
//! sweep over the `ThemisScheduler` hot paths and the five-lane
//! `StagedEngine` round.
//!
//! Each cardinality point heartbeats N distinct jobs (spread over 1024
//! users), refreshes once, backlogs one request per job, then measures the
//! per-op wall clock of the three paths a saturated server runs per
//! service slot: the token draw (`next` + re-enqueue of the served
//! request, so the population stays steady), an enqueue onto an
//! already-backlogged queue, and a `refresh` with the table and policy
//! unchanged (the revision-cached regime — what a heartbeat-driven refresh
//! storm pays per call). At 10⁵ jobs the five-lane staged round is
//! measured too.
//!
//! These are the series the heap-indexed queue, the incremental sampler
//! rebuild and the refresh revision cache are accountable to: with the old
//! O(jobs) scans, the 10⁵ column sat orders of magnitude above the 10³
//! anchor; with ~log(jobs) structures the sweep is near-flat, and the
//! cardinality-flatness gate in `check_regression` holds it there.
//!
//! Run with `cargo run --release -p themis-bench --bin sched_scaling`.
//!
//! Flags (the CI `bench` job uses both):
//!
//! * `--json PATH` — run every perf experiment (drain, restore, scrub,
//!   rebalance, replicate, the criterion-measured `StagedEngine`
//!   select/complete pair, plus the cardinality sweep printed above) and
//!   write the combined machine-readable [`BenchReport`] to `PATH`
//!   (e.g. `BENCH_pr10.json`);
//! * `--baseline PATH` — compare the freshly measured report against a
//!   committed baseline (`crates/bench/baseline.json`) and exit non-zero
//!   if a gated series regressed: a sim-derived slowdown by more than 20%,
//!   the 10⁵-job draw past its baseline-plus-floor, or the same-run
//!   10⁵:10³ ratio past 4×.
//!
//! [`BenchReport`]: themis_bench::experiments::BenchReport

use themis_bench::experiments::{
    emit_and_gate, flag_value, sched_cardinality_point, select_flatness_pair,
    staged_select_at_cardinality, BenchReport, ScalingNumbers,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = flag_value(&args, "--json");
    let baseline_path = flag_value(&args, "--baseline");

    println!("scheduler latency vs tenant cardinality");
    println!(
        "(N jobs heartbeated and backlogged, job-fair policy, one server;\n\
         select = one token draw + re-enqueue, refresh = revision-cache hit)\n"
    );
    println!(
        "  {:>9}  {:>12}  {:>12}  {:>12}",
        "jobs", "select ns/op", "enqueue ns/op", "refresh ns/op"
    );
    let sweep: Vec<(usize, themis_bench::experiments::CardinalityPoint)> =
        [1_000usize, 10_000, 100_000]
            .into_iter()
            .map(|n| (n, sched_cardinality_point(n)))
            .collect();
    for (jobs, point) in &sweep {
        println!(
            "  {jobs:>9}  {:>12.1}  {:>12.1}  {:>12.1}",
            point.select_ns, point.enqueue_ns, point.refresh_ns
        );
    }
    let (pair_1e3, pair_1e5) = select_flatness_pair();
    println!(
        "\n  gated select pair (interleaved, drift-free ratio): \
         {pair_1e3:.1} ns at 1e3 vs {pair_1e5:.1} ns at 1e5  ({:.2}x)",
        pair_1e5 / pair_1e3
    );
    let staged_1e5 = staged_select_at_cardinality(100_000);
    println!("\n  five-lane staged round at 100000 tenants: {staged_1e5:>8.1} ns/op");
    println!(
        "\n  The sweep should be near-flat: every hot path is a heap or binary-search\n  \
         operation, so 100x the tenants costs ~log(100) more, not 100x. The refresh\n  \
         column is the revision cache: an unchanged table costs a compare, not a\n  \
         100000-share recompute."
    );

    if json_path.is_none() && baseline_path.is_none() {
        return;
    }

    // The combined machine-readable snapshot and the shared gate. The sweep
    // printed above is reused — the interference halves and the wall-clock
    // pair still need measuring. The gated select keys come from the
    // interleaved pair, not the sweep table: the flatness gate divides
    // them, so they must share thermal/frequency conditions.
    let report = BenchReport::measure_with(ScalingNumbers {
        select_ns_1e3_jobs: pair_1e3,
        select_ns_1e4_jobs: sweep[1].1.select_ns,
        select_ns_1e5_jobs: pair_1e5,
        refresh_ns_1e5_jobs: sweep[2].1.refresh_ns,
        enqueue_ns_1e5_jobs: sweep[2].1.enqueue_ns,
        staged_select_ns_1e5_jobs: staged_1e5,
    });
    std::process::exit(emit_and_gate(
        &report,
        json_path.as_deref(),
        baseline_path.as_deref(),
    ));
}

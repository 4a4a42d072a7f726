//! The metric names, units, directions and regression bounds — the same
//! table `BENCHMARK.json` declares (a test holds the two equal).

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen before `compare`
    /// calls it a regression. Per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Def {
    e2e(name, unit, higher_is_better, 0.0)
}

/// Reported by every workload from the untraced run. `failed_frac` is not a
/// metric: the result line carries `attempted` and `failed`, and `compare`
/// rejects any increase.
///
/// The timing bounds are a quarter, not the tenth ISSUE 11 asked for: on the
/// shared two-core sandbox this was sized on, ten-run quartile spreads of
/// 1–8 % in quiet minutes become 17–19 % when a neighbour takes the host, and
/// medians of back-to-back ten-run batches differ by up to 22 % (see
/// README.md). A bound inside the noise would reject the unchanged program.
pub const END_TO_END: [Def; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("lat_p50_us", "us", false, 0.25),
    e2e("lat_p90_us", "us", false, 0.25),
    e2e("write_mib_s", "MiB/s", true, 0.25),
    e2e("read_mib_s", "MiB/s", true, 0.25),
    e2e("ops_per_s", "ops/s", true, 0.25),
    e2e("share_min_ratio", "ratio", true, 0.03),
];

/// Reported by every workload from the traced run; 0 where a layer is not on
/// the workload's path.
pub const PER_LAYER: [Def; 39] = [
    layer("client.ops", "count", true),
    layer("client.failed", "count", false),
    layer("client.self_ns_per_op", "ns/op", false),
    layer("client.lat_p99_us", "us", false),
    layer("client.gen_late_p99_us", "us", false),
    layer("net.send_ns_per_op", "ns/op", false),
    layer("net.wait_ns_per_op", "ns/op", false),
    layer("net.hop_ns_per_msg", "ns/msg", false),
    layer("net.payload_bytes_per_op", "B/op", false),
    layer("server.submit_ns_per_op", "ns/op", false),
    layer("server.poll_ns_per_op", "ns/op", false),
    layer("server.polls_per_op", "polls/op", false),
    layer("server.housekeeping_ns_per_op", "ns/op", false),
    layer("server.self_ns_per_op", "ns/op", false),
    layer("server.stepped_ops_per_s", "ops/s", true),
    layer("server.idle_wake_us", "us", false),
    layer("core.jobs", "count", true),
    layer("core.admit_ns_per_op", "ns/op", false),
    layer("core.select_ns_per_op", "ns/op", false),
    layer("core.complete_ns_per_op", "ns/op", false),
    layer("core.refresh_ns", "ns", false),
    layer("core.share_err_max_pct", "%", false),
    layer("stage.select_ns_per_op", "ns/op", false),
    layer("stage.poll_overhead_ns_per_op", "ns/op", false),
    layer("stage.backing_write_ns_per_mib", "ns/MiB", false),
    layer("stage.backing_read_ns_per_mib", "ns/MiB", false),
    layer("stage.flush_ms", "ms", false),
    layer("stage.drained_mib", "MiB", false),
    layer("stage.evicted_mib", "MiB", false),
    layer("stage.restored_mib", "MiB", false),
    layer("stage.parked_ops", "count", false),
    layer("device.dispatch_ns_per_op", "ns/op", false),
    layer("device.model_busy_frac", "ratio", false),
    layer("fs.write_ns_per_mib", "ns/MiB", false),
    layer("fs.read_ns_per_mib", "ns/MiB", false),
    layer("fs.small_op_ns", "ns/op", false),
    layer("telemetry.record_ns", "ns", false),
    layer("telemetry.snapshot_us", "us", false),
    layer("trace_overhead_pct", "%", false),
];

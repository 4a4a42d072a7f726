//! Foreground slowdown under policy-driven drain at different
//! foreground:drain weights.
//!
//! A 16-rank checkpoint job writes two 1 GiB bursts against one
//! burst-buffer server ([`DeviceConfig::optane_ssd`], the paper's ~22 GB/s
//! combined per-server tier) while the staging subsystem drains dirty bytes
//! to a capacity tier. The experiment compares a no-drain baseline against
//! foreground:drain weights of 1:1 and 8:1, for both a capacity tier as
//! fast as the burst buffer (the weight is the binding constraint) and the
//! disk-speed [`DeviceConfig::capacity_hdd`] preset (the tier is the
//! binding constraint).
//!
//! Run with `cargo run --release -p themis-bench --bin drain_weights`. The
//! machine-readable summary of this experiment (plus the restore-side one)
//! is emitted by the `sched_scaling` bin's `--json` flag.

use themis_bench::experiments::run_drain;
use themis_device::DeviceConfig;
use themis_sim::SimStagingConfig;

fn main() {
    println!("policy-driven drain: foreground slowdown vs foreground:drain weight");
    println!("(two 1 GiB checkpoint bursts, 16 ranks, one server)\n");

    let (baseline_secs, _, _) = run_drain(None);
    println!(
        "  {:<34} checkpoint time {baseline_secs:>7.3} s",
        "no drain (baseline)"
    );

    for (tier_name, backing) in [
        ("fast capacity tier", DeviceConfig::optane_ssd()),
        ("capacity_hdd tier", DeviceConfig::capacity_hdd()),
    ] {
        println!("\n  backing: {tier_name}");
        for weight in [1u32, 8] {
            let (secs, drained, residual) = run_drain(Some(SimStagingConfig {
                backing_device: backing,
                drain_weight: weight,
                ..SimStagingConfig::default()
            }));
            let slowdown = (secs / baseline_secs - 1.0) * 100.0;
            println!(
                "    fg:drain {weight}:1  checkpoint time {secs:>7.3} s  \
                 (+{slowdown:>5.1}% vs baseline)  drained {:>5} MiB  residual {:>3} MiB",
                drained >> 20,
                residual >> 20,
            );
        }
    }

    println!(
        "\n  With the 8:1 weight the foreground keeps ≥ 8/9 of the device while \
         draining;\n  at 1:1 drain legitimately takes half. Against the disk-speed \
         tier the drain\n  itself is tier-bound, so the weight mostly shapes burst-\
         time interference."
    );
}

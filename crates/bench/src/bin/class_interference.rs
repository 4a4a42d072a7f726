//! Foreground interference from one internal traffic class.
//!
//! A 16-rank premium checkpoint job writes 1 GiB against one server while a
//! background class works through a standing backlog — a restore storm, a
//! scrub pass, a shard migration or a durability debt, one row of
//! [`CLASS_INTERFERENCE`] each. The experiment compares foreground:class
//! weights of 1:1 and 8:1 against the run with the class idle: every class
//! must be bounded by its policy weight rather than stealing device time.
//!
//! Run with
//! `cargo run --release -p themis-bench --bin class_interference -- --class scrub`
//! (`restore`, `scrub`, `rebalance` or `replicate`). The machine-readable
//! numbers of all four are part of the `sched_scaling` bin's `--json`
//! report.

use themis_bench::experiments::{flag_value, CLASS_INTERFERENCE};
use themis_core::entity::JobId;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let wanted = flag_value(&args, "--class");
    let Some(row) = CLASS_INTERFERENCE
        .iter()
        .find(|row| Some(row.class.name()) == wanted.as_deref())
    else {
        let names: Vec<&str> = CLASS_INTERFERENCE.iter().map(|r| r.class.name()).collect();
        eprintln!("usage: class_interference --class <{}>", names.join("|"));
        std::process::exit(2);
    };
    let class = row.class;

    println!("{class} traffic: foreground slowdown vs foreground:{class} weight");
    println!(
        "(1 GiB premium checkpoint on one server, against\n{})\n",
        row.setup
    );

    let baseline = (row.run)(8, false);
    let even = (row.run)(1, true);
    let weighted = (row.run)(8, true);
    let numbers = row.numbers(&baseline, &even, &weighted);
    println!(
        "  {:<36} checkpoint time {:>7.3} s",
        row.baseline, numbers.baseline_secs
    );
    let runs = [
        (1, &even, numbers.fg_slowdown_pct_1_1),
        (8, &weighted, numbers.fg_slowdown_pct_8_1),
    ];
    for (weight, run, slowdown) in runs {
        println!(
            "    fg:{class} {weight}:1  checkpoint time {:>7.3} s  (+{slowdown:>5.1}% vs baseline)  \
             {} {:>4} MiB  {}",
            run.job_finish_ns[&JobId(1)] as f64 / 1e9,
            row.verb,
            (row.moved_bytes)(run) >> 20,
            (row.detail)(run),
        );
    }
    println!(
        "\n  At 8:1 the checkpointer keeps ≥ 8/9 of its baseline throughput \
         ({:.0} MiB/s {}) while\n  {}",
        numbers.moved_mib_s_8_1, row.verb, row.takeaway
    );
}

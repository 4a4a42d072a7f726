//! One benchmark run of one workload: the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer budget.

use crate::analyze::{self, Value, Window};
use crate::cluster::{now_ns, Cluster, Span, SpanLog, NO_PARENT};
use crate::json::Json;
use crate::layers;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workloads::{self, Finish, Kind, OpRec, Spec, Stop};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Set-up is repeated and its median reported, so one slow page-fault storm
/// does not decide `setup_s`: at least this many times, and until
/// [`SETUP_BUDGET_S`] is spent or [`SETUP_REPEATS_MAX`] is reached, so a
/// set-up of a few milliseconds is sampled often enough to be steady.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 60;
const SETUP_BUDGET_S: f64 = 2.0;
/// Discarded ahead of the measured window of an untraced run.
const WARMUP_S: f64 = 2.0;
/// Untraced/traced window pairs of a traced run.
const T1_ROUNDS: u64 = 2;
/// Operations a stepped replay applies with staging on, at full length.
const STAGED_REPLAY_OPS: u64 = 2048;

pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
    /// Quartile spread of the slices or repeats behind `value`, as a share
    /// of it; what `compare` holds against the bound.
    pub spread: f64,
}

pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks that failed.
    pub errors: Vec<String>,
    /// Validity guards that tripped.
    pub warnings: Vec<String>,
    /// Human-readable context printed with the metrics.
    pub notes: Vec<String>,
    pub op_hash: u64,
    pub spans: Vec<Vec<Span>>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result line the benchmark contract asks for.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let unit = Json::Str(m.def.unit.into());
                    (
                        m.def.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", unit)]),
                    )
                })),
            ),
        ])
    }

    /// The entry of this run in the `--out` result file.
    pub fn to_json(&self) -> Json {
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        Json::obj([
            ("workload", Json::Str(self.workload.into())),
            ("traced", Json::Bool(self.traced)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("op_hash", Json::Str(format!("{:016x}", self.op_hash))),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("errors", strings(&self.errors)),
            ("warnings", strings(&self.warnings)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.def.unit.into())),
                            ("spread", Json::Num(m.spread)),
                        ]),
                    )
                })),
            ),
        ])
    }

    pub fn print(&self) {
        println!(
            "== {} · seed {} · {} s · {} ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            }
        );
        for m in &self.metrics {
            let spread = if self.traced {
                String::new()
            } else {
                format!("   spread {:.1} %", m.spread * 100.0)
            };
            println!(
                "  {:<34} {:>16.3} {:<8}{spread}",
                m.def.name, m.value, m.def.unit
            );
        }
        println!(
            "  ops attempted {} · failed {}",
            self.attempted, self.failed
        );
        for n in &self.notes {
            println!("  note: {n}");
        }
        for w in &self.warnings {
            println!("  WARNING: {w}");
        }
        for e in &self.errors {
            println!("  CHECK FAILED: {e}");
        }
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Output checks and validity guards shared by both kinds of run.
fn judge(
    spec: &Spec,
    w: &Window,
    fin: &Finish,
    errors: &mut Vec<String>,
    warnings: &mut Vec<String>,
) {
    errors.extend(fin.errors.iter().cloned());
    warnings.extend(w.warnings.iter().cloned());
    if spec.name == "backlog_fair" {
        // The paper's claim: every bucket gets the share the policy entitles.
        for (bucket, ratio) in &w.buckets {
            if !(0.9..=1.1).contains(ratio) {
                errors.push(format!(
                    "bucket {bucket} was delivered {ratio:.3} of its entitled share"
                ));
            }
        }
    }
    if w.model_busy_frac > 0.8 {
        warnings.push(format!(
            "device.model_busy_frac = {:.2}: the device model, not the program, bounds this number",
            w.model_busy_frac
        ));
    }
    let late = fin.extras.iter().find(|e| e.0 == "client.gen_late_p99_us");
    if let Some((_, late_us)) = late.filter(|l| l.1 > w.lat_p50_us.value) {
        warnings.push(format!(
            "generator ran {late_us:.0} us late at p99, more than the {:.0} us median it measures",
            w.lat_p50_us.value
        ));
    }
    if spec.client_threads > available_threads() {
        warnings.push(format!(
            "{} load threads plus {} server threads on {} processors",
            spec.client_threads,
            spec.servers,
            available_threads()
        ));
    }
}

fn bucket_note(w: &Window) -> String {
    let worst = w
        .buckets
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or_else(String::new, |(k, r)| format!(", lowest {k} at {r:.4}"));
    format!(
        "{} policy buckets{worst}; {} write latencies",
        w.buckets.len(),
        w.lat_samples
    )
}

/// The end-to-end run: set-up repeated, one warm-up, one measured window,
/// tracing off.
pub fn untraced(spec: &Spec, seed: u64, seconds: f64) -> RunResult {
    let config = spec.server_config(spec.staging);
    let mut setups = Vec::new();
    let (cluster, mut workload) = loop {
        let t0 = now_ns();
        let cluster = Cluster::start(false, spec.servers, &config);
        let workload = workloads::setup(spec, &cluster, seed, spec.staging, || None);
        setups.push((now_ns() - t0) as f64 / 1e9);
        let spent: f64 = setups.iter().sum();
        let enough = setups.len() >= SETUP_REPEATS_MIN && spent >= SETUP_BUDGET_S;
        if enough || setups.len() == SETUP_REPEATS_MAX {
            break (cluster, workload);
        }
        drop(workload);
        cluster.shutdown();
    };

    let warm_ns = (WARMUP_S.min(seconds) * 1e9) as u64;
    let start = now_ns() + warm_ns;
    let end = start + (seconds * 1e9) as u64;
    let recs = workload.drive(Stop::At(end));
    let fin = workload.finish();
    drop(workload);
    cluster.shutdown();

    let w = analyze::window(spec, &recs, start, end);
    let (mut errors, mut warnings) = (Vec::new(), Vec::new());
    judge(spec, &w, &fin, &mut errors, &mut warnings);
    let setup = Value {
        value: median(&setups),
        spread: quartile_spread(&setups),
    };
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let v = if def.name == "setup_s" {
                setup
            } else {
                w.get(def.name)
            };
            Metric {
                def,
                value: v.value,
                spread: v.spread,
            }
        })
        .collect();
    RunResult {
        workload: spec.name,
        traced: false,
        seed,
        seconds,
        attempted: w.attempted,
        failed: w.failed,
        metrics,
        errors,
        warnings,
        notes: vec![
            bucket_note(&w),
            format!("device.model_busy_frac {:.3} (computed)", w.model_busy_frac),
            format!("{} processors available", available_threads()),
        ],
        op_hash: workloads::op_list_hash(spec.name, seed, 4096),
        spans: Vec::new(),
    }
}

/// Sums of span durations inside a window, by name, plus what the children
/// of `client.call` spans cover.
#[derive(Default)]
struct SpanSums {
    by_name: BTreeMap<&'static str, (u64, u64)>,
    child_ns: u64,
}

fn sum_spans(logs: &[Vec<Span>], starts: &[u64], window_ns: u64) -> SpanSums {
    let mut sums = SpanSums::default();
    let inside = |s: &&Span| {
        starts
            .iter()
            .any(|&t| (t..t + window_ns).contains(&s.end_ns))
    };
    for log in logs {
        for s in log.iter().filter(inside) {
            let e = sums.by_name.entry(s.name).or_default();
            e.0 += s.end_ns - s.start_ns;
            e.1 += 1;
            if s.parent != NO_PARENT {
                sums.child_ns += s.end_ns - s.start_ns;
            }
        }
    }
    sums
}

/// The traced run. T1: the workload on the threaded deployment, untraced and
/// traced windows alternating on the same connections (their difference is
/// the tracing overhead). T2: the same seed's operations stepped through an
/// owned `ServerCore` with staging on and off, then through each bare layer.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> RunResult {
    let logs: RefCell<Vec<Arc<SpanLog>>> = RefCell::new(Vec::new());
    let cluster = Cluster::start(false, spec.servers, &spec.server_config(spec.staging));
    let mut workload = workloads::setup(spec, &cluster, seed, spec.staging, || {
        let log = SpanLog::new();
        logs.borrow_mut().push(Arc::clone(&log));
        Some(log)
    });
    // Untraced and traced windows alternate, so drift over the run (which on
    // a shared machine exceeds the overhead being measured) cancels. The
    // windows of each kind are spliced into one timeline for analysis.
    let warm_ns = (seconds * 0.05 * 1e9) as u64;
    let window_ns = (seconds * 0.15 * 1e9) as u64;
    let mut spliced = [Vec::new(), Vec::new()];
    let mut traced_starts = Vec::new();
    for round in 0..T1_ROUNDS {
        for tracing in [false, true] {
            logs.borrow().iter().for_each(|l| l.set_enabled(tracing));
            let start = now_ns() + warm_ns;
            let recs = workload.drive(Stop::At(start + window_ns));
            let inside = recs
                .iter()
                .filter(|r| (start..start + window_ns).contains(&r.end_ns));
            spliced[usize::from(tracing)].extend(inside.map(|r| OpRec {
                end_ns: r.end_ns - start + round * window_ns,
                ..*r
            }));
            if tracing {
                traced_starts.push(start);
            }
        }
    }
    let fin = workload.finish();
    drop(workload);
    cluster.shutdown();
    let [u, t] = spliced.map(|recs| analyze::window(spec, &recs, 0, T1_ROUNDS * window_ns));
    let spans: Vec<Vec<Span>> = logs.borrow().iter().map(|l| l.take()).collect();
    let sums = sum_spans(&spans, &traced_starts, window_ns);

    let (mut errors, mut warnings) = (Vec::new(), Vec::new());
    judge(spec, &t, &fin, &mut errors, &mut warnings);

    // T2, sized from the run length so a short smoke run stays short.
    let scale = (seconds / 10.0).min(1.0);
    let replay_ops = ((spec.replay_ops as f64 * scale) as u64).max(256);
    // With staging on, every small write drains a whole 1 MiB extent: the
    // staged side of the pair is priced on a prefix of the same operations.
    let staged_ops = replay_ops
        .min((STAGED_REPLAY_OPS as f64 * scale) as u64)
        .max(256);
    let ops_for = |staging: bool| if staging { staged_ops } else { replay_ops };
    let own = layers::stepped_replay(spec, seed, ops_for(spec.staging), spec.staging);
    let toggled = layers::stepped_replay(spec, seed, ops_for(!spec.staging), !spec.staging);
    errors.extend(own.errors.iter().chain(&toggled.errors).cloned());
    let (on, off) = if spec.staging {
        (&own, &toggled)
    } else {
        (&toggled, &own)
    };
    let bare_ops = replay_ops.max((200_000.0 * scale) as u64);
    let core = layers::engine_cost(spec, layers::bare_engine(spec), bare_ops);
    let staged = layers::engine_cost(spec, layers::staged_engine(spec), bare_ops);
    let fs = layers::fs_cost(spec, replay_ops);
    let dispatch_ns = layers::device_dispatch_ns(spec, bare_ops);
    let hop_ns = layers::net_hop_ns(spec, replay_ops);
    let (backing_write, backing_read) = layers::backing_cost((256.0 * scale) as u64);
    let (record_ns, snapshot_us) = layers::telemetry_cost(spec);

    let ops = t.attempted.max(1) as f64;
    let span_ns = |name: &str| sums.by_name.get(name).map_or(0, |s| s.0) as f64;
    let calls = sums.by_name.get("client.call").map_or(0, |s| s.1).max(1) as f64;
    let busy_ns = own.times.busy_ns_per_op();
    let select_ns = if spec.staging {
        staged.select_ns_per_op
    } else {
        core.select_ns_per_op
    };
    let below_server = core.admit_ns_per_op
        + select_ns
        + core.complete_ns_per_op
        + dispatch_ns
        + layers::fs_ns_per_data_op(spec, &fs, &own.recs);
    let (hu, ht) = (u.get(spec.headline).value, t.get(spec.headline).value);
    let headline = END_TO_END
        .iter()
        .find(|d| d.name == spec.headline)
        .expect("headline is end-to-end");
    let overhead = if headline.higher_is_better {
        hu - ht
    } else {
        ht - hu
    } / hu
        * 100.0;

    let mut values: BTreeMap<&str, f64> = BTreeMap::from([
        ("client.ops", t.attempted as f64),
        ("client.failed", t.failed as f64),
        // Raw-connection workloads have no client library in the path.
        (
            "client.self_ns_per_op",
            if spec.pipelined {
                0.0
            } else {
                (span_ns("client.call") - sums.child_ns as f64) / calls
            },
        ),
        ("client.lat_p99_us", t.lat_p99_us),
        ("net.send_ns_per_op", span_ns("net.send") / ops),
        ("net.wait_ns_per_op", span_ns("net.wait") / ops),
        ("net.hop_ns_per_msg", hop_ns),
        ("net.payload_bytes_per_op", t.payload_bytes_per_op),
        ("server.submit_ns_per_op", own.times.submit_ns_per_op()),
        ("server.poll_ns_per_op", own.times.poll_ns_per_op()),
        ("server.polls_per_op", own.times.polls_per_op()),
        (
            "server.housekeeping_ns_per_op",
            own.times.housekeeping_ns_per_op(),
        ),
        (
            "server.self_ns_per_op",
            own.times.submit_ns_per_op() + own.times.poll_ns_per_op() - below_server,
        ),
        ("server.stepped_ops_per_s", own.ops_per_s()),
        // Only a request that finds the server idle pays a wake-up; with a
        // standing backlog the same difference would be queueing.
        (
            "server.idle_wake_us",
            if spec.depth > 1 {
                0.0
            } else {
                u.lat_p50_us.value - busy_ns / 1e3
            },
        ),
        ("core.jobs", spec.jobs.len() as f64),
        ("core.admit_ns_per_op", core.admit_ns_per_op),
        ("core.select_ns_per_op", core.select_ns_per_op),
        ("core.complete_ns_per_op", core.complete_ns_per_op),
        ("core.refresh_ns", layers::refresh_ns(spec)),
        ("core.share_err_max_pct", t.share_err_max_pct),
        ("stage.select_ns_per_op", staged.select_ns_per_op),
        (
            "stage.poll_overhead_ns_per_op",
            on.times.poll_ns_per_op() - off.times.poll_ns_per_op(),
        ),
        ("stage.backing_write_ns_per_mib", backing_write),
        ("stage.backing_read_ns_per_mib", backing_read),
        ("stage.flush_ms", t.flush_ms),
        ("device.dispatch_ns_per_op", dispatch_ns),
        ("device.model_busy_frac", t.model_busy_frac),
        ("fs.write_ns_per_mib", fs.write_ns_per_mib),
        ("fs.read_ns_per_mib", fs.read_ns_per_mib),
        ("fs.small_op_ns", fs.small_op_ns),
        ("telemetry.record_ns", record_ns),
        ("telemetry.snapshot_us", snapshot_us),
        ("trace_overhead_pct", overhead),
    ]);
    values.extend(fin.extras.iter().copied());
    assert!(
        values
            .keys()
            .all(|k| PER_LAYER.iter().any(|d| d.name == *k)),
        "every measured value is a declared per-layer metric"
    );

    let wall_ns = 1e9 / t.ops_per_s.value;
    let notes = vec![
        bucket_note(&t),
        format!(
            "{}: untraced window {hu:.3}, traced window {ht:.3} ({overhead:+.1} % worse traced)",
            spec.headline
        ),
        format!(
            "threaded wall time per op {wall_ns:.0} ns; stepped server loop {busy_ns:.0} ns/op \
             (submit + poll + stage replies + housekeeping) of which {below_server:.0} ns is bare \
             core + device + fs; net hop {hop_ns:.0} ns/msg, two messages per op"
        ),
        format!(
            "stepped replay: {} ops at {:.0} ops/s (write {:.1} us, read {:.1} us from send to \
             reply), staging {}; {} ops at {:.0} ops/s, staging {}",
            own.recs.len(),
            own.ops_per_s(),
            own.mean_call_us(Kind::Write),
            own.mean_call_us(Kind::Read),
            if spec.staging { "on" } else { "off" },
            toggled.recs.len(),
            toggled.ops_per_s(),
            if spec.staging { "off" } else { "on" },
        ),
        format!("{} processors available", available_threads()),
    ];
    RunResult {
        workload: spec.name,
        traced: true,
        seed,
        seconds,
        attempted: u.attempted + t.attempted,
        failed: u.failed + t.failed,
        metrics: PER_LAYER
            .iter()
            .map(|def| Metric {
                def,
                value: values.get(def.name).copied().unwrap_or(0.0),
                spread: 0.0,
            })
            .collect(),
        errors,
        warnings,
        notes,
        op_hash: workloads::op_list_hash(spec.name, seed, 4096),
        spans,
    }
}

/// Writes every span of a traced run as one JSON object per line.
pub fn write_spans(path: &str, runs: &[RunResult]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for run in runs {
        for (log, spans) in run.spans.iter().enumerate() {
            for (id, s) in spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::Num(f64::from(s.parent))
                };
                let line = Json::obj([
                    ("workload", Json::Str(run.workload.into())),
                    ("log", Json::Num(log as f64)),
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", parent),
                    ("req", Json::Num(s.req as f64)),
                ]);
                writeln!(out, "{line}")?;
            }
        }
    }
    out.flush()
}

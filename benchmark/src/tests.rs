//! Schema and determinism tests. The smoke runs drive the real threaded
//! deployment for half a second per workload: the shortest window that is
//! sure to hold both the write and the read phase of a `staged_ckpt` cycle.

use crate::json::Json;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::run::{self, RunResult};
use crate::workloads::{self, NAMES};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{entry} has no {key}"))
}

/// The benchmark's own metric table and `BENCHMARK.json` declare the same
/// names, units, directions and bounds, in the same order.
#[test]
fn metric_tables_equal_benchmark_json() {
    let declared = benchmark_json();
    let check = |key: &str, defs: &[Def], bounded: bool| {
        let entries = declared.get(key).expect(key).as_arr();
        assert_eq!(entries.len(), defs.len(), "{key}: count");
        for (entry, def) in entries.iter().zip(defs) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text(entry, "better"), better, "{}", def.name);
            if bounded {
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    Some(def.bound),
                    "{}",
                    def.name
                );
            }
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);
    let workloads: Vec<&str> = declared
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, NAMES);
}

/// The result line has exactly the contract's keys, and its metrics are
/// exactly `defs` with their units and finite values.
fn assert_schema(result: &RunResult, defs: &[Def]) {
    let line = Json::parse(&result.contract_line().to_string()).expect("result line parses");
    let Json::Obj(pairs) = &line else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), defs.len());
    for ((name, value), def) in metrics.iter().zip(defs) {
        assert_eq!(name, def.name);
        assert_eq!(text(value, "unit"), def.unit, "{name}");
        let v = value.get("value").and_then(Json::as_f64);
        assert!(
            v.is_some_and(f64::is_finite),
            "{} {name} = {v:?}",
            result.workload
        );
    }
    assert_eq!(result.failed, 0, "{}: {:?}", result.workload, result.errors);
}

const SMOKE_S: f64 = 0.5;

#[test]
fn smoke_run_of_every_workload_matches_the_schema() {
    for name in NAMES {
        let spec = workloads::spec(name).unwrap();
        let untraced = run::untraced(&spec, 7, SMOKE_S);
        assert_schema(&untraced, &END_TO_END);
        // End-to-end metrics must never read zero.
        for m in &untraced.metrics {
            assert!(m.value > 0.0, "{name} {} = {}", m.def.name, m.value);
        }
        let traced = run::traced(&spec, 7, SMOKE_S);
        assert_schema(&traced, &PER_LAYER);
        assert!(
            traced.spans.iter().any(|log| !log.is_empty()),
            "{name}: no spans recorded"
        );
    }
}

#[test]
fn generators_are_deterministic_in_the_seed() {
    for name in NAMES {
        let a = workloads::op_list_hash(name, 42, 1000);
        assert_eq!(
            a,
            workloads::op_list_hash(name, 42, 1000),
            "{name}: same seed"
        );
        assert_ne!(
            a,
            workloads::op_list_hash(name, 43, 1000),
            "{name}: different seed"
        );
    }
}

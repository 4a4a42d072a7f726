//! `compare <a.json> <b.json>`: holds every (end-to-end metric, workload)
//! pair of two result files against the metric's regression bound.

use crate::json::Json;
use crate::metrics::END_TO_END;

/// Set-up times of a few tens of milliseconds move by more than a quarter
/// on scheduler noise alone; below this absolute change they are not judged.
const SETUP_SLACK_S: f64 = 0.05;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The untraced runs of a result file, by workload.
fn untraced(file: &Json) -> Vec<(&str, &Json)> {
    file.get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .filter_map(|r| Some((r.get("workload")?.as_str()?, r)))
        .collect()
}

fn number(run: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(run, |j, k| j.get(k))?.as_f64()
}

pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    compare(&load(a_path)?, &load(b_path)?)
}

/// Prints one row per pair; `Ok(true)` when nothing regressed and no
/// workload failed a larger share of its operations.
fn compare(a_file: &Json, b_file: &Json) -> Result<bool, String> {
    let (a_runs, b_runs) = (untraced(a_file), untraced(b_file));
    let mut clean = true;
    println!(
        "{:<13} {:<16} {:>12} {:>12} {:>8}  {:<10} (bound; spread a, b)",
        "workload", "metric", "a", "b", "b/a", "verdict"
    );
    for (workload, a) in &a_runs {
        let Some((_, b)) = b_runs.iter().find(|(w, _)| w == workload) else {
            return Err(format!("the second file has no untraced run of {workload}"));
        };
        for def in &END_TO_END {
            let get = |run: &Json, field: &str| {
                number(run, &["metrics", def.name, field])
                    .ok_or_else(|| format!("{workload}: no {}.{field}", def.name))
            };
            let (va, vb) = (get(a, "value")?, get(b, "value")?);
            let (sa, sb) = (get(a, "spread")?, get(b, "spread")?);
            let worse = if def.higher_is_better {
                va - vb
            } else {
                vb - va
            } / va;
            let within_slack = def.name == "setup_s" && (vb - va).abs() <= SETUP_SLACK_S;
            let verdict = if sa > def.bound || sb > def.bound {
                "unresolved"
            } else if worse > def.bound && !within_slack {
                clean = false;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{workload:<13} {:<16} {va:>12.4} {vb:>12.4} {:>8.4}  {verdict:<10} ({:.0} %; {:.1} %, {:.1} %)",
                def.name,
                vb / va,
                def.bound * 100.0,
                sa * 100.0,
                sb * 100.0
            );
        }
        let frac = |run: &Json| {
            let failed = number(run, &["failed"]).unwrap_or(0.0);
            failed / number(run, &["attempted"]).unwrap_or(1.0).max(1.0)
        };
        let (fa, fb) = (frac(a), frac(b));
        let verdict = if fb > fa {
            clean = false;
            "regressed"
        } else {
            "ok"
        };
        println!(
            "{workload:<13} {:<16} {fa:>12.6} {fb:>12.6} {:>8}  {verdict:<10} (any increase)",
            "failed_frac", ""
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(p50: f64, spread: f64, failed: u64) -> Json {
        let metrics = END_TO_END.iter().map(|d| {
            let value = if d.name == "lat_p50_us" { p50 } else { 1.0 };
            let fields = [("value", Json::Num(value)), ("spread", Json::Num(spread))];
            (d.name, Json::obj(fields))
        });
        let run = Json::obj([
            ("workload", Json::Str("paced_small".into())),
            ("traced", Json::Bool(false)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]);
        Json::obj([("runs", Json::Arr(vec![run]))])
    }

    #[test]
    fn verdicts_follow_bound_spread_and_failures() {
        let base = file(100.0, 0.01, 0);
        // 20 % slower: inside the 25 % bound.
        assert_eq!(compare(&base, &file(120.0, 0.01, 0)), Ok(true));
        // 40 % slower: regressed.
        assert_eq!(compare(&base, &file(140.0, 0.01, 0)), Ok(false));
        // 40 % slower but noisier than the bound: unresolved, not a failure.
        assert_eq!(compare(&base, &file(140.0, 0.5, 0)), Ok(true));
        // Same speed, one more failed operation.
        assert_eq!(compare(&base, &file(100.0, 0.01, 1)), Ok(false));
        // A workload missing from the second file is an error, not a pass.
        assert!(compare(&base, &Json::obj([("runs", Json::Arr(Vec::new()))])).is_err());
    }
}

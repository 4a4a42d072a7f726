//! themis-lint: workspace-specific static analysis for themisio.
//!
//! Six deny rules guard the invariants the WFQ traffic-class machinery
//! depends on (see README "Static analysis & lockdep" for the full table):
//!
//! * **L1** — no raw `read_back(`/`read_back_with_checksum(` call sites
//!   outside `verified_extent`, the verified seam.
//! * **L2** — no integer literals in the reserved job-id range and no
//!   arithmetic on `RESERVED_JOB_BASE` outside `core/src/entity.rs`.
//! * **L3** — no direct device-timeline `.dispatch(` outside ServerCore's
//!   staging/execution path.
//! * **L4** — no `unwrap()`/`expect(` in non-test server/stage/fs hot paths.
//! * **L5** — every function body nesting two shim-lock guards must match
//!   the checked-in lock-order manifest.
//! * **L6** — no ad-hoc counter-width atomics (`AtomicU64` & friends) in
//!   server/stage hot paths; metrics go through `MetricsRegistry` handles
//!   so snapshots and the telemetry-consistency oracle observe them.
//!
//! Exemptions live in `crates/lint/allowlist.txt` (every entry justified;
//! stale entries are errors). Usage:
//!
//! ```text
//! cargo run -p themis-lint -- --workspace [--root DIR] [--json PATH]
//! cargo run -p themis-lint -- --self-test
//! ```
//!
//! Exit codes: 0 clean, 1 violations or failed self-test, 2 usage/config
//! error.

mod config;
mod rules;
mod scan;
mod selftest;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rules::{LockPair, Rule, Violation};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut self_test = false;
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--self-test" => self_test = true,
            "--root" => match it.next() {
                Some(d) => root = PathBuf::from(d),
                None => return usage("--root needs a directory"),
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => return usage("--json needs a path"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }

    if self_test {
        let failures = selftest::run();
        if failures.is_empty() {
            println!(
                "themis-lint self-test: all {} fixtures behave (L1-L6 fire on seeded \
                 violations, clean fixture stays silent)",
                selftest::fixtures().len()
            );
            return ExitCode::SUCCESS;
        }
        for f in &failures {
            eprintln!("self-test FAILED: {f}");
        }
        return ExitCode::FAILURE;
    }
    if !workspace {
        return usage("nothing to do: pass --workspace and/or --self-test");
    }
    if !root.join("Cargo.toml").is_file() {
        return usage(&format!(
            "{} does not look like the repo root (no Cargo.toml); use --root",
            root.display()
        ));
    }

    // ---- scan ------------------------------------------------------------
    let files = collect_files(&root);
    let mut violations: Vec<Violation> = Vec::new();
    let mut lock_pairs: Vec<LockPair> = Vec::new();
    for rel in &files {
        let src = match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("themis-lint: cannot read {rel}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = rules::analyze_file(rel, &src);
        violations.extend(report.violations);
        lock_pairs.extend(report.lock_pairs);
    }

    // ---- allowlist + lock-order manifest ---------------------------------
    let mut config_errors = Vec::new();
    let allow_text = read_config(&root, "crates/lint/allowlist.txt", &mut config_errors);
    let (mut allow, mut errs) = config::parse_allowlist(&allow_text);
    config_errors.append(&mut errs);
    let order_text = read_config(&root, "crates/lint/lock_order.txt", &mut config_errors);
    let (mut order, mut errs) = config::parse_lock_order(&order_text);
    config_errors.append(&mut errs);

    // L5: unlisted/inverted nested pairs become violations like any other.
    for (p, msg) in config::check_lock_pairs(&mut order, &lock_pairs) {
        violations.push(Violation {
            rule: Rule::L5,
            file: p.file.clone(),
            line: p.line,
            message: msg,
            scope_names: vec![p.function.clone()],
        });
    }

    let mut surviving: Vec<&Violation> = Vec::new();
    for v in &violations {
        if !allow.iter_mut().any(|e| config::allow_matches(e, v)) {
            surviving.push(v);
        }
    }
    for e in allow.iter().filter(|e| !e.used) {
        config_errors.push(format!(
            "allowlist:{}: stale entry ({} {}{}) matches nothing — remove it \
             (justification was: {})",
            e.line_no,
            e.rule,
            e.path,
            e.scope
                .as_deref()
                .map(|s| format!(" in={s}"))
                .unwrap_or_default(),
            e.justification
        ));
    }
    for e in order.iter().filter(|e| !e.used) {
        config_errors.push(format!(
            "lock_order:{}: stale entry `{} -> {}` matches no nested acquisition — remove it",
            e.line_no, e.first, e.second
        ));
    }

    // ---- report ----------------------------------------------------------
    surviving.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for v in &surviving {
        let scope = v
            .scope_names
            .last()
            .filter(|s| !s.is_empty())
            .map(|s| format!(" [in {s}]"))
            .unwrap_or_default();
        println!(
            "{} {}:{}{} — {}",
            v.rule.name(),
            v.file,
            v.line,
            scope,
            v.message
        );
    }
    for e in &config_errors {
        eprintln!("themis-lint config error: {e}");
    }

    let mut per_rule: BTreeMap<&str, usize> = Rule::all().iter().map(|r| (r.name(), 0)).collect();
    for v in &surviving {
        *per_rule.get_mut(v.rule.name()).unwrap() += 1;
    }
    if let Some(path) = &json_out {
        let json = render_json(
            files.len(),
            &per_rule,
            surviving.len(),
            &allow,
            &config_errors,
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("themis-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if !config_errors.is_empty() {
        return ExitCode::from(2);
    }
    if surviving.is_empty() {
        println!(
            "themis-lint: {} files clean under L1-L6 ({} allowlisted exemptions, \
             {} manifest lock orders)",
            files.len(),
            allow.len(),
            order.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("themis-lint: {} violation(s)", surviving.len());
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "themis-lint: {err}\nusage: themis-lint (--workspace [--root DIR] [--json PATH]) \
         | --self-test"
    );
    ExitCode::from(2)
}

fn read_config(root: &Path, rel: &str, errors: &mut Vec<String>) -> String {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(s) => s,
        Err(e) => {
            errors.push(format!("cannot read {rel}: {e}"));
            String::new()
        }
    }
}

/// Product + test sources the rules apply to: each crate's `src/`, the root
/// facade `src/`, integration `tests/`, and `examples/`. The vendored shims
/// are third-party stand-ins and are exempt (their lockcheck internals
/// legitimately poke at std primitives).
fn collect_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src"), root.join("tests"), root.join("examples")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            roots.push(e.path().join("src"));
        }
    }
    for r in roots {
        push_rs_files(&r, &mut out);
    }
    let root_str = root.to_string_lossy().into_owned();
    let mut rels: Vec<String> = out
        .into_iter()
        .map(|p| {
            let s = p.to_string_lossy().into_owned();
            let s = s
                .strip_prefix(&root_str)
                .unwrap_or(&s)
                .trim_start_matches('/')
                .to_string();
            s.replace('\\', "/")
        })
        .collect();
    rels.sort();
    rels
}

fn push_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            push_rs_files(&p, out);
        } else if p.extension().map(|x| x == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
}

/// Hand-rolled flat JSON (the workspace's serde shim has no serializer and
/// the bench crates emit `BENCH_*.json` the same way).
fn render_json(
    files_scanned: usize,
    per_rule: &BTreeMap<&str, usize>,
    total: usize,
    allow: &[config::AllowEntry],
    config_errors: &[String],
) -> String {
    let rules = per_rule
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"schema\": \"themis-lint/v1\",\n  \"files_scanned\": {files_scanned},\n  \
         \"violations_total\": {total},\n  \"violations_per_rule\": {{ {rules} }},\n  \
         \"allowlist_entries\": {},\n  \"config_errors\": {}\n}}\n",
        allow.len(),
        config_errors.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seeded fixture fires its rule; the clean fixture stays silent.
    /// This is the same corpus `--self-test` runs in CI.
    #[test]
    fn self_test_fixtures_all_behave() {
        let failures = selftest::run();
        assert!(failures.is_empty(), "{failures:?}");
    }

    /// The duplicated RESERVED_JOB_BASE constant must track entity.rs.
    #[test]
    fn reserved_base_matches_entity_rs() {
        assert_eq!(rules::RESERVED_JOB_BASE, (u64::MAX as u128) - (1 << 16));
    }

    #[test]
    fn allowlist_requires_justification_and_flags_unknown_rules() {
        let (entries, errors) = config::parse_allowlist(
            "# comment\n\
             L1 crates/stage/src/backing.rs in=tests -- unit tests probe the raw tier\n\
             L4 crates/fs/src/fs.rs\n\
             L9 nowhere.rs -- nope\n",
        );
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].scope.as_deref(), Some("tests"));
        assert_eq!(errors.len(), 2, "{errors:?}");
    }

    #[test]
    fn lock_order_rejects_inversions_and_duplicates() {
        let (entries, errors) = config::parse_lock_order(
            "a.x -> b.y -- a before b\n\
             b.y -> a.x -- backwards\n\
             a.x -> b.y -- again\n",
        );
        assert_eq!(entries.len(), 1);
        assert_eq!(errors.len(), 2, "{errors:?}");
    }

    #[test]
    fn allowlist_scope_restricts_matches() {
        let src = r#"
            fn stage_tick(t: &CapacityTier) { let _ = t.read_back_with_checksum("/p", 0); }
            fn elsewhere(t: &CapacityTier) { let _ = t.read_back_with_checksum("/p", 0); }
        "#;
        let report = rules::analyze_file("crates/server/src/core.rs", src);
        let (mut allow, errs) = config::parse_allowlist(
            "L1 crates/server/src/core.rs in=stage_tick -- scrub judge must see raw checksums\n",
        );
        assert!(errs.is_empty());
        let surviving: Vec<_> = report
            .violations
            .iter()
            .filter(|v| !allow.iter_mut().any(|e| config::allow_matches(e, v)))
            .collect();
        assert_eq!(surviving.len(), 1, "only the un-scoped call site survives");
        assert!(surviving[0].scope_names.contains(&"elsewhere".to_string()));
    }

    #[test]
    fn l5_pairs_check_against_manifest() {
        let src = r#"
            fn ordered(a: &Mutex<u32>, b: &Mutex<u32>) {
                let ga = a.lock();
                let gb = b.lock();
                let _ = (*ga, *gb);
            }
        "#;
        let report = rules::analyze_file("crates/harness/src/x.rs", src);
        assert_eq!(report.lock_pairs.len(), 1);
        // Listed in order: clean.
        let (mut order, _) = config::parse_lock_order("a -> b -- a guards admission, b stats\n");
        assert!(config::check_lock_pairs(&mut order, &report.lock_pairs).is_empty());
        assert!(order[0].used);
        // Inverted: violation naming the inversion.
        let (mut order, _) = config::parse_lock_order("b -> a -- backwards manifest\n");
        let bad = config::check_lock_pairs(&mut order, &report.lock_pairs);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].1.contains("INVERTS"));
    }

    #[test]
    fn temporaries_and_scoped_guards_do_not_pair() {
        let src = r#"
            fn f(a: &Mutex<Vec<u32>>, b: &Mutex<u32>) {
                { let ga = a.lock(); let _ = ga.len(); }
                let _gb = b.lock();
            }
        "#;
        let report = rules::analyze_file("crates/harness/src/x.rs", src);
        assert!(report.lock_pairs.is_empty(), "{:?}", report.lock_pairs);
    }
}

//! The six deny rules. Each inspects the token stream of one file with the
//! enclosing-scope stack available, and emits [`Violation`]s; the allowlist
//! (main.rs) filters them afterwards so every exemption is visible in one
//! audited file.

use crate::scan::{self, Scope, ScopeKind, Tok, TokKind};

/// Reserved job-id range floor, mirrored from `crates/core/src/entity.rs`
/// (`u64::MAX - (1 << 16)`). The lint cannot depend on themis-core — it must
/// lint it — so the constant is duplicated and cross-checked by a unit test
/// against the literal spelled in entity.rs.
pub const RESERVED_JOB_BASE: u128 = (u64::MAX as u128) - (1 << 16);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
        }
    }
    pub fn all() -> [Rule; 6] {
        [Rule::L1, Rule::L2, Rule::L3, Rule::L4, Rule::L5, Rule::L6]
    }
}

#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    /// Repo-relative path with forward slashes.
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Names of the enclosing fn/mod scopes, outermost first — what the
    /// allowlist's `in=` clause matches against.
    pub scope_names: Vec<String>,
}

/// A nested-lock acquisition pair observed by L5, fed to the lock-order
/// manifest check.
#[derive(Debug, Clone)]
pub struct LockPair {
    pub first: String,
    pub second: String,
    pub file: String,
    pub line: u32,
    pub function: String,
}

pub struct FileReport {
    pub violations: Vec<Violation>,
    pub lock_pairs: Vec<LockPair>,
}

/// Runs L1–L4 and the L5 pair collector over one file.
pub fn analyze_file(path: &str, src: &str) -> FileReport {
    let toks = scan::lex(src);
    let mut violations = Vec::new();
    let mut lock_pairs = Vec::new();

    let in_entity = path == "crates/core/src/entity.rs";
    let l3_allowed = path.starts_with("crates/device/src/")
        || path == "crates/server/src/core.rs"
        || path == "crates/server/src/staging.rs";
    let l4_applies = ["crates/server/src/", "crates/stage/src/", "crates/fs/src/"]
        .iter()
        .any(|p| path.starts_with(p));
    let l6_applies = ["crates/server/src/", "crates/stage/src/"]
        .iter()
        .any(|p| path.starts_with(p));

    // L5 state: currently-live let-bound lock guards in the enclosing fn.
    struct Guard {
        binding: String,
        receiver: String,
        depth: usize,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut prev_depth = 0usize;

    scan::walk_scopes(&toks, |toks, i, scopes| {
        let t = &toks[i];
        let depth = scopes.len();
        // Block/fn exit: guards bound deeper than the current depth died.
        if depth < prev_depth {
            guards.retain(|g| g.depth <= depth);
        }
        prev_depth = depth;
        let in_test = scopes.iter().any(|s| s.is_test);
        let names = scope_names(scopes);

        // ---- L1: raw capacity-tier reads outside the verified seam -------
        // `verified_extent` is the one function that may read the tier raw;
        // every other reader, `verified_read_back` included, goes through it.
        if (t.is_ident("read_back") || t.is_ident("read_back_with_checksum"))
            && next_is(toks, i, '(')
            && !prev_is_ident(toks, i, "fn")
        {
            let in_verified = scopes
                .iter()
                .any(|s| s.kind == ScopeKind::Fn && s.name == "verified_extent");
            if !in_verified {
                violations.push(Violation {
                    rule: Rule::L1,
                    file: path.to_string(),
                    line: t.line,
                    message: format!(
                        "raw `{}(` call site: stage-in must go through \
                         `verified_extent` so checksum failures cannot be laundered",
                        t.text
                    ),
                    scope_names: names.clone(),
                });
            }
        }

        // ---- L2: reserved job-id range aliasing --------------------------
        if !in_entity {
            if t.kind == TokKind::Num {
                if let Some(v) = scan::literal_value(&t.text) {
                    if v >= RESERVED_JOB_BASE && v <= u64::MAX as u128 {
                        violations.push(Violation {
                            rule: Rule::L2,
                            file: path.to_string(),
                            line: t.line,
                            message: format!(
                                "integer literal {} lies in the reserved job-id range; \
                                 construct reserved ids via `reserved_job_id(class, instance)`",
                                t.text
                            ),
                            scope_names: names.clone(),
                        });
                    }
                }
            }
            if t.is_ident("RESERVED_JOB_BASE") {
                let arith = |o: Option<&Tok>| {
                    o.map(|p| "+-*/%".chars().any(|c| p.is_punct(c)))
                        .unwrap_or(false)
                };
                if arith(i.checked_sub(1).and_then(|p| toks.get(p))) || arith(toks.get(i + 1)) {
                    violations.push(Violation {
                        rule: Rule::L2,
                        file: path.to_string(),
                        line: t.line,
                        message: "arithmetic on RESERVED_JOB_BASE outside core/src/entity.rs: \
                                  hand-built offsets alias the per-class sub-ranges; use \
                                  `reserved_job_id(class, instance)`"
                            .to_string(),
                        scope_names: names.clone(),
                    });
                }
            }
        }

        // ---- L3: DeviceTimeline dispatch outside policy admission --------
        if !l3_allowed
            && t.is_ident("dispatch")
            && prev_is_punct(toks, i, '.')
            && next_is(toks, i, '(')
        {
            violations.push(Violation {
                rule: Rule::L3,
                file: path.to_string(),
                line: t.line,
                message: "direct `.dispatch(` on a device timeline: all I/O must be \
                          admitted through ServerCore's policy/staging path"
                    .to_string(),
                scope_names: names.clone(),
            });
        }

        // ---- L4: unwrap/expect in non-test hot paths ---------------------
        if l4_applies
            && !in_test
            && (t.is_ident("unwrap") || t.is_ident("expect"))
            && prev_is_punct(toks, i, '.')
            && next_is(toks, i, '(')
        {
            violations.push(Violation {
                rule: Rule::L4,
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "`.{}(` in a non-test hot path: a panicking server thread takes the \
                     whole shard down; return an error or audit + allowlist",
                    t.text
                ),
                scope_names: names.clone(),
            });
        }

        // ---- L6: ad-hoc atomic counters bypassing the metrics registry ---
        // Server/stage hot paths record metrics only through MetricsRegistry
        // handles (themis-telemetry): a bare counter-width atomic is a shadow
        // metric that MetricsSnapshot, themis-top and the harness's
        // telemetry-consistency oracle can never see. AtomicBool stays legal
        // — it is control flow (stop flags), not measurement.
        if l6_applies
            && !in_test
            && [
                "AtomicU64",
                "AtomicUsize",
                "AtomicI64",
                "AtomicU32",
                "AtomicI32",
            ]
            .iter()
            .any(|n| t.is_ident(n))
        {
            violations.push(Violation {
                rule: Rule::L6,
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "ad-hoc `{}` in a server/stage hot path: counters and gauges must \
                     go through MetricsRegistry handles (themis-telemetry) so snapshots \
                     and the telemetry-consistency oracle observe them",
                    t.text
                ),
                scope_names: names.clone(),
            });
        }

        // ---- L5: nested shim-lock acquisitions ---------------------------
        if (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
            && prev_is_punct(toks, i, '.')
            && next_is(toks, i, '(')
            && toks.get(i + 2).map(|t| t.is_punct(')')).unwrap_or(false)
        {
            if let Some((binding, receiver)) = guard_binding(toks, i) {
                let function = scopes
                    .iter()
                    .rev()
                    .find(|s| s.kind == ScopeKind::Fn)
                    .map(|s| s.name.clone())
                    .unwrap_or_default();
                for held in guards.iter() {
                    lock_pairs.push(LockPair {
                        first: held.receiver.clone(),
                        second: receiver.clone(),
                        file: path.to_string(),
                        line: t.line,
                        function: function.clone(),
                    });
                }
                guards.push(Guard {
                    binding,
                    receiver,
                    depth,
                });
            }
        }
        // `drop(guard)` releases a binding early.
        if t.is_ident("drop") && next_is(toks, i, '(') {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Ident
                    && toks.get(i + 3).map(|t| t.is_punct(')')).unwrap_or(false)
                {
                    guards.retain(|g| g.binding != arg.text);
                }
            }
        }
    });

    FileReport {
        violations,
        lock_pairs,
    }
}

fn scope_names(scopes: &[Scope]) -> Vec<String> {
    scopes
        .iter()
        .filter(|s| matches!(s.kind, ScopeKind::Fn | ScopeKind::Mod))
        .map(|s| s.name.clone())
        .collect()
}

fn next_is(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i + 1).map(|t| t.is_punct(c)).unwrap_or(false)
}

fn prev_is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    i.checked_sub(1)
        .and_then(|p| toks.get(p))
        .map(|t| t.is_punct(c))
        .unwrap_or(false)
}

fn prev_is_ident(toks: &[Tok], i: usize, s: &str) -> bool {
    i.checked_sub(1)
        .and_then(|p| toks.get(p))
        .map(|t| t.is_ident(s))
        .unwrap_or(false)
}

/// If the `.lock()`/`.read()`/`.write()` at `i` is the tail of a let-bound
/// statement (`let g = expr.lock();`), returns `(binding, receiver)`.
/// Receiver is the dotted identifier path with index/call groups skipped
/// (`self.shards[i].write()` → `self.shards`), which is the lock-order
/// manifest's class name. Guards consumed as temporaries in a larger
/// expression die at end-of-statement and cannot nest, so they're ignored.
fn guard_binding(toks: &[Tok], i: usize) -> Option<(String, String)> {
    // The guard must be statement-final: `.lock());`-style temporaries and
    // `.lock().foo()` chains are not holds beyond their statement.
    if !toks.get(i + 3).map(|t| t.is_punct(';')).unwrap_or(false) {
        return None;
    }
    // Scan backwards over the receiver to the `=`, skipping bracket groups.
    let mut j = i.checked_sub(1)?; // the '.' before lock/read/write
    let mut receiver_rev: Vec<String> = Vec::new();
    loop {
        let t = toks.get(j)?;
        if t.is_punct('=') {
            break;
        }
        if t.is_punct(']') || t.is_punct(')') {
            // Skip the whole group.
            let (open, close) = if t.is_punct(']') {
                ('[', ']')
            } else {
                ('(', ')')
            };
            let mut depth = 1;
            while depth > 0 {
                j = j.checked_sub(1)?;
                let u = toks.get(j)?;
                if u.is_punct(close) {
                    depth += 1;
                } else if u.is_punct(open) {
                    depth -= 1;
                }
            }
        } else if t.kind == TokKind::Ident {
            receiver_rev.push(t.text.clone());
        } else if !(t.is_punct('.') || t.is_punct('&') || t.is_punct(':')) {
            // Anything else (operators, commas) means this is not a simple
            // `let g = path.lock();` statement.
            return None;
        }
        j = j.checked_sub(1)?;
    }
    // Before the `=`: `let [mut] binding`.
    let mut k = j.checked_sub(1)?;
    let binding = toks.get(k)?.clone();
    if binding.kind != TokKind::Ident {
        return None;
    }
    k = k.checked_sub(1)?;
    let kw = toks.get(k)?;
    let is_let = kw.is_ident("let")
        || (kw.is_ident("mut")
            && k.checked_sub(1)
                .and_then(|p| toks.get(p))
                .map(|t| t.is_ident("let"))
                .unwrap_or(false));
    if !is_let {
        return None;
    }
    receiver_rev.reverse();
    // Drop leading path qualifiers (`self`, crate paths) only if the tail
    // still has ≥ 1 segment; keep `self.x` two-segment names as-is.
    Some((binding.text, receiver_rev.join(".")))
}

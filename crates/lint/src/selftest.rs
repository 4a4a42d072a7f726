//! Seeded-violation fixtures: one snippet per rule that MUST fire, plus a
//! clean snippet that must stay silent. `themis-lint --self-test` runs them
//! all (CI does, too) so a scanner regression that silently stops a rule
//! from matching is caught the same day. The snippets live in string
//! literals, which the scanner strips — so linting the lint never trips
//! over its own fixtures.

use crate::rules::{self, Rule};

pub struct Fixture {
    pub name: &'static str,
    /// Virtual path, chosen so the rule's path scoping applies.
    pub path: &'static str,
    pub src: &'static str,
    /// Rule that must fire at least once; `None` = must be fully clean.
    pub expect: Option<Rule>,
}

pub fn fixtures() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "L1 raw read_back call site",
            path: "crates/harness/src/fixture.rs",
            src: r#"
                fn stage_in(tier: &CapacityTier) -> Option<Vec<u8>> {
                    tier.read_back("/ckpt", 0)
                }
            "#,
            expect: Some(Rule::L1),
        },
        Fixture {
            name: "L1 raw read_back_with_checksum call site",
            path: "crates/harness/src/fixture.rs",
            src: r#"
                fn peek(tier: &CapacityTier) {
                    let _ = tier.read_back_with_checksum("/ckpt", 0);
                }
            "#,
            expect: Some(Rule::L1),
        },
        Fixture {
            // The owning wrapper must reach the tier through the seam, not
            // around it.
            name: "L1 raw call inside verified_read_back",
            path: "crates/stage/src/fixture.rs",
            src: r#"
                pub fn verified_read_back(backing: &dyn BackingStore) -> Option<Vec<u8>> {
                    let (data, stored) = backing.read_back_with_checksum("/p", 0)?;
                    (extent_checksum(&data) == stored).then(|| data.into_vec())
                }
            "#,
            expect: Some(Rule::L1),
        },
        Fixture {
            name: "L2 literal in the reserved job-id range",
            path: "crates/harness/src/fixture.rs",
            src: "const SNEAKY: u64 = 18_446_744_073_709_500_000;",
            expect: Some(Rule::L2),
        },
        Fixture {
            name: "L2 arithmetic on RESERVED_JOB_BASE",
            path: "crates/harness/src/fixture.rs",
            src: "fn base(class: u64) -> u64 { RESERVED_JOB_BASE + class * 4096 }",
            expect: Some(Rule::L2),
        },
        Fixture {
            name: "L3 raw device dispatch",
            path: "crates/harness/src/fixture.rs",
            src: r#"
                fn rogue(timeline: &mut DeviceTimeline, req: &IoRequest) {
                    let (_s, _f) = timeline.dispatch(req, 0);
                }
            "#,
            expect: Some(Rule::L3),
        },
        Fixture {
            // Pipelines keep the ledger; charging a device timeline stays
            // with the server, which owns policy admission.
            name: "L3 device dispatch from a stage pipeline",
            path: "crates/stage/src/lifecycle.rs",
            src: r#"
                impl<T> ClassQueue<T> {
                    fn charge(&mut self, timeline: &mut DeviceTimeline, req: &IoRequest) {
                        let (_, finish) = timeline.dispatch(req, 0);
                        self.dispatched(req.seq, finish);
                    }
                }
            "#,
            expect: Some(Rule::L3),
        },
        Fixture {
            name: "L4 unwrap in a server hot path",
            path: "crates/server/src/fixture.rs",
            src: "fn hot(x: Option<u32>) -> u32 { x.unwrap() }",
            expect: Some(Rule::L4),
        },
        Fixture {
            name: "L4 expect in a stage hot path",
            path: "crates/stage/src/fixture.rs",
            src: "fn hot(x: Option<u32>) -> u32 { x.expect(\"always some\") }",
            expect: Some(Rule::L4),
        },
        Fixture {
            name: "L6 ad-hoc atomic counter in a server hot path",
            path: "crates/server/src/fixture.rs",
            src: r#"
                static REQUESTS_SERVED: AtomicU64 = AtomicU64::new(0);
                fn hot() {
                    REQUESTS_SERVED.fetch_add(1, Ordering::Relaxed);
                }
            "#,
            expect: Some(Rule::L6),
        },
        Fixture {
            name: "L5 nested lock pair",
            path: "crates/harness/src/fixture.rs",
            src: r#"
                fn nested(a: &Mutex<u32>, b: &Mutex<u32>) {
                    let ga = a.lock();
                    let gb = b.lock();
                    let _ = (*ga, *gb);
                }
            "#,
            expect: Some(Rule::L5),
        },
        Fixture {
            name: "clean: verified seam, tests, drop-released locks",
            path: "crates/stage/src/fixture.rs",
            src: r#"
                pub fn verified_extent(backing: &dyn BackingStore) -> Option<Extent> {
                    let (data, stored) = backing.read_back_with_checksum("/p", 0)?;
                    (extent_checksum(&data) == stored).then_some(data)
                }
                pub fn verified_read_back(backing: &dyn BackingStore) -> Option<Vec<u8>> {
                    verified_extent(backing).map(Extent::into_vec)
                }
                impl BackingStore for FixtureTier {
                    fn read_back_with_checksum(&self, path: &str, stripe: u64) -> Option<(Extent, u64)> {
                        self.stored.get(path, stripe)
                    }
                }
                fn sequential(a: &Mutex<u32>, b: &Mutex<u32>) {
                    let ga = a.lock();
                    drop(ga);
                    let _gb = b.lock();
                }
                fn base() -> u64 { reserved_job_id(2, 0).0 }
                fn should_stop(flag: &AtomicBool) -> bool {
                    flag.load(Ordering::Relaxed)
                }
                #[cfg(test)]
                mod tests {
                    #[test]
                    fn t() {
                        let v: Option<u32> = Some(3);
                        assert_eq!(v.unwrap(), 3);
                    }
                }
            "#,
            expect: None,
        },
    ]
}

/// Runs every fixture; returns human-readable failures (empty = all good).
pub fn run() -> Vec<String> {
    let mut failures = Vec::new();
    for f in fixtures() {
        let report = rules::analyze_file(f.path, f.src);
        // L5 pairs count as violations when unlisted in an (empty) manifest.
        let l5_fired = !report.lock_pairs.is_empty();
        match f.expect {
            Some(Rule::L5) => {
                if !l5_fired {
                    failures.push(format!(
                        "{}: expected an L5 nested-lock pair, got none",
                        f.name
                    ));
                }
            }
            Some(rule) => {
                if !report.violations.iter().any(|v| v.rule == rule) {
                    failures.push(format!(
                        "{}: expected {} to fire, got {:?}",
                        f.name,
                        rule.name(),
                        report
                            .violations
                            .iter()
                            .map(|v| v.rule.name())
                            .collect::<Vec<_>>()
                    ));
                }
            }
            None => {
                if !report.violations.is_empty() || l5_fired {
                    failures.push(format!(
                        "{}: expected silence, got {:?} (+{} lock pairs)",
                        f.name,
                        report
                            .violations
                            .iter()
                            .map(|v| format!("{} l{}", v.rule.name(), v.line))
                            .collect::<Vec<_>>(),
                        report.lock_pairs.len()
                    ));
                }
            }
        }
    }
    failures
}

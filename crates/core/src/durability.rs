//! Durability classes: the per-tenant / per-path replication demand a
//! client declares alongside its sharing policy.
//!
//! Burst buffers ack writes against local NVMe and replicate asynchronously;
//! *how much* durability a write needs is policy, not mechanism (lis'
//! burst-buffer design calls these `local_only` / `local_plus_one` / `sync`
//! modes). A [`DurabilitySpec`] maps sharing entities — a default, specific
//! jobs or users, or path prefixes — to a [`DurabilityMode`], and
//! round-trips through a small DSL exactly like the weighted policy tiers in
//! [`policy`](crate::policy):
//!
//! ```text
//! durability=local_only;user3=sync;/ckpt=local_plus_one
//! ```
//!
//! The first token is the mandatory default mode; every further `;`-separated
//! rule scopes a mode to `jobN`, `userN`, or an absolute path prefix.
//! Resolution is most-specific-wins: longest matching path prefix, then job,
//! then user, then the default. The spec says nothing about *when* replicas
//! are written — that is the replicate traffic class's policy weight — only
//! *which* bytes owe a replica and whether the ack may precede it.

use crate::entity::{JobId, UserId, RESERVED_JOB_BASE};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// How durable an acknowledged write must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DurabilityMode {
    /// The burst-buffer copy is enough: no early copy is owed. Losing the
    /// burst tier before drain loses this data — today's default.
    LocalOnly,
    /// Ack locally, then owe one copy off the burst buffer: the replicate
    /// class drains it early, under its own policy weight.
    LocalPlusOne,
    /// Defer the ack until the bytes are on the capacity tier: the client
    /// never observes a success a burst-tier crash could still lose.
    Sync,
}

impl DurabilityMode {
    /// Every mode, in increasing durability order.
    pub const ALL: [DurabilityMode; 3] = [
        DurabilityMode::LocalOnly,
        DurabilityMode::LocalPlusOne,
        DurabilityMode::Sync,
    ];

    /// Canonical lowercase DSL token.
    pub fn name(self) -> &'static str {
        match self {
            DurabilityMode::LocalOnly => "local_only",
            DurabilityMode::LocalPlusOne => "local_plus_one",
            DurabilityMode::Sync => "sync",
        }
    }

    /// Whether this mode owes a replica beyond the burst-buffer copy.
    pub fn replicates(self) -> bool {
        !matches!(self, DurabilityMode::LocalOnly)
    }

    /// Whether the write ack must wait for the replica.
    pub fn defers_ack(self) -> bool {
        matches!(self, DurabilityMode::Sync)
    }
}

impl fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DurabilityMode {
    type Err = DurabilityError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "local_only" => Ok(DurabilityMode::LocalOnly),
            "local_plus_one" => Ok(DurabilityMode::LocalPlusOne),
            "sync" => Ok(DurabilityMode::Sync),
            other => Err(DurabilityError::UnknownMode(other.to_string())),
        }
    }
}

/// What a durability rule attaches to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DurabilityScope {
    /// One batch job's writes (`jobN`).
    Job(u64),
    /// Every job of one user (`userN`).
    User(u32),
    /// Every write under an absolute path prefix (`/prefix`).
    Path(String),
}

impl fmt::Display for DurabilityScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityScope::Job(id) => write!(f, "job{id}"),
            DurabilityScope::User(id) => write!(f, "user{id}"),
            DurabilityScope::Path(p) => f.write_str(p),
        }
    }
}

/// Why a durability spec failed to validate or parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// The spec string was empty or missing its `durability=<mode>` head.
    MissingDefault,
    /// A mode token named no known [`DurabilityMode`].
    UnknownMode(String),
    /// Two rules named the same scope; which mode wins would be ambiguous.
    DuplicateScope(String),
    /// A `jobN` rule named an id inside the reserved system range —
    /// internal traffic classes carry no client durability demand.
    ReservedJob(u64),
    /// A rule's scope token was not `jobN`, `userN`, or an absolute path.
    BadScope(String),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::MissingDefault => {
                write!(f, "durability spec must start with `durability=<mode>`")
            }
            DurabilityError::UnknownMode(m) => write!(
                f,
                "unknown durability mode `{m}` (expected local_only, local_plus_one, or sync)"
            ),
            DurabilityError::DuplicateScope(s) => {
                write!(f, "duplicate durability rule for scope `{s}`")
            }
            DurabilityError::ReservedJob(id) => write!(
                f,
                "job id {id} is inside the reserved system job-id range (>= {RESERVED_JOB_BASE}); \
                 internal traffic classes take no durability rules"
            ),
            DurabilityError::BadScope(s) => write!(
                f,
                "bad durability scope `{s}` (expected jobN, userN, or an absolute /path prefix)"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

/// A validated durability policy: a default mode plus scoped overrides.
///
/// Construction is validating — [`DurabilitySpec::new`] plus the `with_*`
/// builders and [`FromStr`] funnel through the same checks, so a spec that
/// exists is well-formed (no duplicate scopes, no reserved jobs, absolute
/// path prefixes only) and its `Display` form parses back to an equal
/// value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilitySpec {
    default_mode: DurabilityMode,
    /// Scoped overrides in insertion order (preserved by Display/FromStr).
    rules: Vec<(DurabilityScope, DurabilityMode)>,
}

impl DurabilitySpec {
    /// A spec where every write gets `default_mode`.
    pub fn new(default_mode: DurabilityMode) -> Self {
        DurabilitySpec {
            default_mode,
            rules: Vec::new(),
        }
    }

    /// Adds a per-job override.
    pub fn with_job(self, job: u64, mode: DurabilityMode) -> Result<Self, DurabilityError> {
        self.with_rule(DurabilityScope::Job(job), mode)
    }

    /// Adds a per-user override.
    pub fn with_user(self, user: u32, mode: DurabilityMode) -> Result<Self, DurabilityError> {
        self.with_rule(DurabilityScope::User(user), mode)
    }

    /// Adds a path-prefix override. The prefix must be absolute.
    pub fn with_path(
        self,
        prefix: impl Into<String>,
        mode: DurabilityMode,
    ) -> Result<Self, DurabilityError> {
        self.with_rule(DurabilityScope::Path(prefix.into()), mode)
    }

    /// Adds one scoped rule, rejecting duplicates, reserved jobs, and
    /// malformed path prefixes.
    pub fn with_rule(
        mut self,
        scope: DurabilityScope,
        mode: DurabilityMode,
    ) -> Result<Self, DurabilityError> {
        match &scope {
            DurabilityScope::Job(id) if *id >= RESERVED_JOB_BASE => {
                return Err(DurabilityError::ReservedJob(*id));
            }
            DurabilityScope::Path(p)
                if !p.starts_with('/') || p.len() < 2 || p.contains([';', '=', ',']) =>
            {
                return Err(DurabilityError::BadScope(p.clone()));
            }
            _ => {}
        }
        if self.rules.iter().any(|(s, _)| *s == scope) {
            return Err(DurabilityError::DuplicateScope(scope.to_string()));
        }
        self.rules.push((scope, mode));
        Ok(self)
    }

    /// The default mode writes fall back to when no rule matches.
    pub fn default_mode(&self) -> DurabilityMode {
        self.default_mode
    }

    /// The scoped overrides, in canonical (insertion) order.
    pub fn rules(&self) -> &[(DurabilityScope, DurabilityMode)] {
        &self.rules
    }

    /// Whether any write under this spec owes a replica — i.e. whether the
    /// replicate traffic class has work at all.
    pub fn any_replicated(&self) -> bool {
        self.default_mode.replicates() || self.rules.iter().any(|(_, m)| m.replicates())
    }

    /// The mode governing one write: longest matching path prefix, then the
    /// job rule, then the user rule, then the default.
    pub fn resolve(&self, job: JobId, user: UserId, path: &str) -> DurabilityMode {
        let mut best_path: Option<(usize, DurabilityMode)> = None;
        let mut job_mode = None;
        let mut user_mode = None;
        for (scope, mode) in &self.rules {
            match scope {
                DurabilityScope::Path(p)
                    if path.starts_with(p.as_str())
                        && best_path.is_none_or(|(len, _)| p.len() > len) =>
                {
                    best_path = Some((p.len(), *mode));
                }
                DurabilityScope::Job(id) if *id == job.0 => job_mode = Some(*mode),
                DurabilityScope::User(id) if *id == user.0 => user_mode = Some(*mode),
                _ => {}
            }
        }
        best_path
            .map(|(_, m)| m)
            .or(job_mode)
            .or(user_mode)
            .unwrap_or(self.default_mode)
    }
}

impl fmt::Display for DurabilitySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "durability={}", self.default_mode)?;
        for (scope, mode) in &self.rules {
            write!(f, ";{scope}={mode}")?;
        }
        Ok(())
    }
}

impl FromStr for DurabilitySpec {
    type Err = DurabilityError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        let mut tokens = s.split(';');
        let head = tokens.next().unwrap_or("");
        let default_mode = head
            .strip_prefix("durability=")
            .ok_or(DurabilityError::MissingDefault)?
            .parse::<DurabilityMode>()?;
        let mut spec = DurabilitySpec::new(default_mode);
        for token in tokens {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (scope_str, mode_str) = token
                .split_once('=')
                .ok_or_else(|| DurabilityError::BadScope(token.to_string()))?;
            let mode = mode_str.parse::<DurabilityMode>()?;
            let scope = if let Some(id) = scope_str.strip_prefix("job") {
                DurabilityScope::Job(
                    id.parse::<u64>()
                        .map_err(|_| DurabilityError::BadScope(scope_str.to_string()))?,
                )
            } else if let Some(id) = scope_str.strip_prefix("user") {
                DurabilityScope::User(
                    id.parse::<u32>()
                        .map_err(|_| DurabilityError::BadScope(scope_str.to_string()))?,
                )
            } else if scope_str.starts_with('/') {
                DurabilityScope::Path(scope_str.to_string())
            } else {
                return Err(DurabilityError::BadScope(scope_str.to_string()));
            };
            spec = spec.with_rule(scope, mode)?;
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_round_trip_and_classify() {
        for mode in DurabilityMode::ALL {
            assert_eq!(mode.name().parse::<DurabilityMode>().unwrap(), mode);
        }
        assert!(!DurabilityMode::LocalOnly.replicates());
        assert!(DurabilityMode::LocalPlusOne.replicates());
        assert!(DurabilityMode::Sync.replicates());
        assert!(DurabilityMode::Sync.defers_ack());
        assert!(!DurabilityMode::LocalPlusOne.defers_ack());
    }

    #[test]
    fn spec_round_trips_through_display() {
        let spec: DurabilitySpec = "durability=local_only;user3=sync;/ckpt=local_plus_one"
            .parse()
            .unwrap();
        assert_eq!(
            spec.to_string(),
            "durability=local_only;user3=sync;/ckpt=local_plus_one"
        );
        assert_eq!(spec.to_string().parse::<DurabilitySpec>().unwrap(), spec);
    }

    #[test]
    fn constructors_and_dsl_agree() {
        let built = DurabilitySpec::new(DurabilityMode::LocalOnly)
            .with_user(3, DurabilityMode::Sync)
            .unwrap()
            .with_path("/ckpt", DurabilityMode::LocalPlusOne)
            .unwrap();
        let parsed: DurabilitySpec = "durability=local_only;user3=sync;/ckpt=local_plus_one"
            .parse()
            .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn parse_rejects_garbage() {
        for (input, why) in [
            ("", "empty"),
            ("local_only", "missing durability= head"),
            ("durability=paranoid", "unknown mode"),
            ("durability=sync;user1=atomic", "unknown rule mode"),
            ("durability=sync;user1=sync;user1=local_only", "duplicate"),
            ("durability=sync;ckpt=sync", "relative path"),
            ("durability=sync;user=sync", "missing user id"),
            ("durability=sync;jobx=sync", "bad job id"),
            ("durability=sync;user3", "rule without mode"),
        ] {
            assert!(input.parse::<DurabilitySpec>().is_err(), "{why}: {input}");
        }
    }

    #[test]
    fn reserved_jobs_take_no_rules() {
        let err = DurabilitySpec::new(DurabilityMode::LocalOnly)
            .with_job(crate::entity::reserved_job_id(0, 7).0, DurabilityMode::Sync)
            .unwrap_err();
        assert!(matches!(err, DurabilityError::ReservedJob(_)));
        let text = format!("durability=sync;job{}=sync", u64::MAX);
        assert!(matches!(
            text.parse::<DurabilitySpec>(),
            Err(DurabilityError::ReservedJob(_))
        ));
    }

    #[test]
    fn resolution_is_most_specific_wins() {
        let spec: DurabilitySpec =
            "durability=local_only;user3=local_plus_one;job9=sync;/a=local_plus_one;/a/b=sync"
                .parse()
                .unwrap();
        // Longest path prefix beats everything.
        assert_eq!(
            spec.resolve(JobId(9), UserId(3), "/a/b/file"),
            DurabilityMode::Sync
        );
        assert_eq!(
            spec.resolve(JobId(1), UserId(1), "/a/file"),
            DurabilityMode::LocalPlusOne
        );
        // Job beats user.
        assert_eq!(
            spec.resolve(JobId(9), UserId(3), "/other"),
            DurabilityMode::Sync
        );
        // User beats default.
        assert_eq!(
            spec.resolve(JobId(1), UserId(3), "/other"),
            DurabilityMode::LocalPlusOne
        );
        // Default otherwise.
        assert_eq!(
            spec.resolve(JobId(1), UserId(1), "/other"),
            DurabilityMode::LocalOnly
        );
    }

    #[test]
    fn any_replicated_spots_replica_demand() {
        assert!(!DurabilitySpec::new(DurabilityMode::LocalOnly).any_replicated());
        assert!(DurabilitySpec::new(DurabilityMode::Sync).any_replicated());
        assert!(DurabilitySpec::new(DurabilityMode::LocalOnly)
            .with_user(1, DurabilityMode::LocalPlusOne)
            .unwrap()
            .any_replicated());
    }
}

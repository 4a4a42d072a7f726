//! Sharing policies: weighted tiers, the administrator-facing policy DSL, and
//! the builder API.
//!
//! # Model
//!
//! A fair-sharing policy is an ordered list of **tiers** ([`WeightedLevel`]),
//! wrapped in a validated [`PolicySpec`]. Each tier splits the I/O resource of
//! its enclosing scope between the sharing entities at that level (§2.2.2 of
//! the paper). The final tier always resolves down to jobs: [`Level::Job`]
//! splits evenly between jobs, [`Level::Size`] in proportion to node counts,
//! [`Level::Priority`] in proportion to priority weights.
//!
//! Every tier carries an integer **weight** (default 1). A weight `w > 1`
//! marks the tier's *premium tenant*: within each enclosing scope, the
//! entity that sorts first at that tier (the lowest group id, user id, or job
//! id) receives `w×` the weight of each of its peers when the scope's
//! resource is divided. `user[2]` therefore schedules 2:1 between two users,
//! 2:1:1 between three, and degrades to the ordinary even split when `w = 1`.
//! Weighted job-level tiers multiply the premium job's natural weight (1,
//! node count, or priority) by `w`.
//!
//! # Policy DSL
//!
//! The string grammar accepted by [`FromStr`] and produced by
//! [`Display`](fmt::Display):
//!
//! ```text
//! policy  := "fifo" | tiers "-fair"
//! tiers   := tier ( ("-" | "-then-") tier )*
//! tier    := level ( "[" weight "]" )?
//! level   := "group" | "user" | "job" | "size" | "priority" | "prio"
//! weight  := non-zero decimal integer
//! ```
//!
//! Examples: `fifo`, `size-fair`, `user-then-size-fair`,
//! `group-user-size-fair`, `user[2]-then-size-fair`,
//! `group[3]-user-job[2]-fair`.
//!
//! # Canonical form
//!
//! Structurally, every fair policy ends in an explicit job-level tier: parsing
//! and all constructors append an even `job` split when the written form stops
//! at a scope tier (so `user-fair` *means* `user-then-job-fair`, as in §5.3.1).
//! [`Display`](fmt::Display) performs the inverse normalisation — a trailing
//! unweighted `job` tier after at least one scope tier is elided — so policy
//! strings round-trip: `"user-fair"` parses to `[user, job]` and prints as
//! `"user-fair"` again. [`Policy::canonical_name`] is the `Display` form.
//!
//! # Validation invariants
//!
//! * a fair policy has at least one tier and exactly one job-level tier,
//!   which is last;
//! * scope tiers follow the nesting order group ⊇ user;
//! * no level appears twice;
//! * every tier weight is ≥ 1 ([`PolicyError::ZeroWeight`] otherwise).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// One level of a sharing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Split across accounting groups.
    Group,
    /// Split across users (within the enclosing scope).
    User,
    /// Split evenly across jobs (within the enclosing scope).
    Job,
    /// Split across jobs in proportion to their node counts.
    Size,
    /// Split across jobs in proportion to their priority weights.
    Priority,
}

impl Level {
    /// Whether this level distributes shares directly onto jobs (and must
    /// therefore be the innermost tier of a policy).
    pub fn is_job_level(self) -> bool {
        matches!(self, Level::Job | Level::Size | Level::Priority)
    }

    /// The canonical name used in policy strings.
    pub fn name(self) -> &'static str {
        match self {
            Level::Group => "group",
            Level::User => "user",
            Level::Job => "job",
            Level::Size => "size",
            Level::Priority => "priority",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One tier of a sharing policy: a [`Level`] plus its premium-tenant weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WeightedLevel {
    /// The sharing level this tier splits on.
    pub level: Level,
    /// Premium-tenant weight (≥ 1). `1` is the ordinary unweighted split;
    /// `w > 1` gives the first-sorted entity in each scope `w×` the weight of
    /// its peers.
    pub weight: u32,
}

impl WeightedLevel {
    /// An unweighted tier (`weight = 1`).
    pub fn new(level: Level) -> Self {
        WeightedLevel { level, weight: 1 }
    }

    /// A weighted tier. `weight` must be ≥ 1 to pass validation.
    pub fn weighted(level: Level, weight: u32) -> Self {
        WeightedLevel { level, weight }
    }

    /// Whether this tier is a plain, unweighted split.
    pub fn is_unweighted(&self) -> bool {
        self.weight == 1
    }
}

impl From<Level> for WeightedLevel {
    fn from(level: Level) -> Self {
        WeightedLevel::new(level)
    }
}

impl fmt::Display for WeightedLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.weight == 1 {
            f.write_str(self.level.name())
        } else {
            write!(f, "{}[{}]", self.level.name(), self.weight)
        }
    }
}

/// A validated, canonical fair-sharing hierarchy: ordered [`WeightedLevel`]
/// tiers ending in exactly one job-level tier.
///
/// `PolicySpec` can only be obtained through validating constructors
/// ([`PolicySpec::new`], [`Policy::builder`], [`FromStr`]), so holders may
/// rely on the invariants documented at the [module level](self).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PolicySpec {
    tiers: Vec<WeightedLevel>,
}

impl PolicySpec {
    /// Builds a spec from tiers, normalising and validating.
    ///
    /// If the last tier is a scope split (group/user) an unweighted `job`
    /// tier is appended, mirroring the DSL's implicit job split.
    pub fn new(tiers: impl IntoIterator<Item = WeightedLevel>) -> Result<Self, PolicyError> {
        let mut tiers: Vec<WeightedLevel> = tiers.into_iter().collect();
        if matches!(tiers.last(), Some(t) if !t.level.is_job_level()) {
            tiers.push(WeightedLevel::new(Level::Job));
        }
        let spec = PolicySpec { tiers };
        spec.validate()?;
        Ok(spec)
    }

    /// Builds a spec from unweighted levels (weight 1 throughout).
    pub fn from_levels(levels: impl IntoIterator<Item = Level>) -> Result<Self, PolicyError> {
        PolicySpec::new(levels.into_iter().map(WeightedLevel::new))
    }

    /// The ordered tiers, innermost (job-level) last.
    pub fn tiers(&self) -> &[WeightedLevel] {
        &self.tiers
    }

    /// The ordered levels, without weights.
    pub fn levels(&self) -> Vec<Level> {
        self.tiers.iter().map(|t| t.level).collect()
    }

    /// Number of tiers.
    pub fn depth(&self) -> usize {
        self.tiers.len()
    }

    /// Checks the structural invariants listed in the [module docs](self).
    pub fn validate(&self) -> Result<(), PolicyError> {
        let tiers = &self.tiers;
        if tiers.is_empty() {
            return Err(PolicyError::Empty);
        }
        for t in tiers {
            if t.weight == 0 {
                return Err(PolicyError::ZeroWeight(t.level));
            }
        }
        let last = tiers.last().expect("non-empty");
        if !last.level.is_job_level() {
            return Err(PolicyError::MissingJobLevel(last.level));
        }
        for (i, t) in tiers.iter().enumerate() {
            if t.level.is_job_level() && i + 1 != tiers.len() {
                return Err(PolicyError::JobLevelNotLast(t.level));
            }
        }
        for w in tiers.windows(2) {
            // Group must enclose user: "user-then-group" is meaningless.
            if w[0].level == Level::User && w[1].level == Level::Group {
                return Err(PolicyError::BadNesting);
            }
        }
        for lvl in [Level::Group, Level::User] {
            if tiers.iter().filter(|t| t.level == lvl).count() > 1 {
                return Err(PolicyError::DuplicateLevel(lvl));
            }
        }
        Ok(())
    }
}

impl fmt::Display for PolicySpec {
    /// Canonical DSL form: tiers joined by `-` with a `-fair` suffix; a
    /// trailing unweighted `job` tier after a scope tier is elided.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let elide_tail = self.tiers.len() > 1
            && matches!(
                self.tiers.last(),
                Some(t) if t.level == Level::Job && t.is_unweighted()
            );
        let visible = if elide_tail {
            &self.tiers[..self.tiers.len() - 1]
        } else {
            &self.tiers[..]
        };
        for t in visible {
            write!(f, "{t}-")?;
        }
        f.write_str("fair")
    }
}

/// A sharing policy: either plain FIFO (no arbitration) or a fair-sharing
/// [`PolicySpec`].
///
/// `Policy` is the "single parameter" a system administrator supplies when
/// starting ThemisIO (§2.2.2) — and, since the control plane grew
/// `SetPolicy`, the value they can swap on a *live* server. It parses from
/// strings such as `"fifo"`, `"size-fair"`, `"user-then-size-fair"` or
/// `"user[2]-then-size-fair"` (grammar in the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// First-in-first-out: requests are served in arrival order with no
    /// fairness enforcement. This is the baseline behaviour of production
    /// burst buffers the paper argues against.
    Fifo,
    /// Fair sharing through the validated tier hierarchy.
    Fair(PolicySpec),
}

impl Policy {
    /// Starts a fluent [`PolicyBuilder`]:
    ///
    /// ```
    /// use themis_core::policy::Policy;
    /// let p = Policy::builder().group().user_weighted(2).size_fair().unwrap();
    /// assert_eq!(p.to_string(), "group-user[2]-size-fair");
    /// ```
    pub fn builder() -> PolicyBuilder {
        PolicyBuilder::default()
    }

    /// The job-fair primitive policy.
    pub fn job_fair() -> Self {
        Policy::Fair(PolicySpec::from_levels([Level::Job]).expect("valid primitive"))
    }

    /// The size-fair primitive policy (share ∝ node count).
    pub fn size_fair() -> Self {
        Policy::Fair(PolicySpec::from_levels([Level::Size]).expect("valid primitive"))
    }

    /// The user-fair primitive policy (canonically `[user, job]`).
    pub fn user_fair() -> Self {
        Policy::Fair(PolicySpec::from_levels([Level::User]).expect("valid primitive"))
    }

    /// The priority-fair primitive policy (share ∝ priority weight).
    pub fn priority_fair() -> Self {
        Policy::Fair(PolicySpec::from_levels([Level::Priority]).expect("valid primitive"))
    }

    /// The user-then-size-fair composite policy of §5.3.2 / Fig. 9.
    pub fn user_then_size_fair() -> Self {
        Policy::Fair(PolicySpec::from_levels([Level::User, Level::Size]).expect("valid composite"))
    }

    /// The group-then-user-then-size-fair composite policy of Fig. 10/11.
    pub fn group_user_size_fair() -> Self {
        Policy::Fair(
            PolicySpec::from_levels([Level::Group, Level::User, Level::Size])
                .expect("valid composite"),
        )
    }

    /// Builds a composite policy from explicit unweighted levels, normalising
    /// (implicit trailing `job` split) and validating the shape.
    pub fn composite(levels: Vec<Level>) -> Result<Self, PolicyError> {
        Ok(Policy::Fair(PolicySpec::from_levels(levels)?))
    }

    /// Builds a composite policy from explicit weighted tiers.
    pub fn weighted(tiers: Vec<WeightedLevel>) -> Result<Self, PolicyError> {
        Ok(Policy::Fair(PolicySpec::new(tiers)?))
    }

    /// The fair-sharing spec, or `None` for FIFO.
    pub fn spec(&self) -> Option<&PolicySpec> {
        match self {
            Policy::Fifo => None,
            Policy::Fair(spec) => Some(spec),
        }
    }

    /// The ordered tiers of a fair policy; empty for FIFO.
    pub fn tiers(&self) -> &[WeightedLevel] {
        match self {
            Policy::Fifo => &[],
            Policy::Fair(spec) => spec.tiers(),
        }
    }

    /// The ordered levels (without weights) of a fair policy; empty for FIFO.
    pub fn levels(&self) -> Vec<Level> {
        self.tiers().iter().map(|t| t.level).collect()
    }

    /// Depth (number of tiers); FIFO has depth 0.
    pub fn depth(&self) -> usize {
        self.tiers().len()
    }

    /// Whether this policy performs any fairness arbitration at all.
    pub fn is_fair(&self) -> bool {
        matches!(self, Policy::Fair(_))
    }

    /// Checks the structural invariants (always satisfied for specs built
    /// through the validating constructors; kept for defence in depth on
    /// deserialized or hand-assembled values).
    pub fn validate(&self) -> Result<(), PolicyError> {
        match self {
            Policy::Fifo => Ok(()),
            Policy::Fair(spec) => spec.validate(),
        }
    }

    /// Canonical policy-string form, e.g. `"group-user[2]-size-fair"`. This
    /// is the `Display` form and round-trips through [`FromStr`].
    pub fn canonical_name(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Fifo => f.write_str("fifo"),
            Policy::Fair(spec) => spec.fmt(f),
        }
    }
}

/// Fluent builder for [`Policy`] values.
///
/// Scope methods ([`group`](PolicyBuilder::group), [`user`](PolicyBuilder::user)
/// and their `_weighted` variants) append outer tiers; the terminal methods
/// ([`job_fair`](PolicyBuilder::job_fair), [`size_fair`](PolicyBuilder::size_fair),
/// [`priority_fair`](PolicyBuilder::priority_fair), or a bare
/// [`build`](PolicyBuilder::build)) close the hierarchy with a job-level split
/// and validate.
#[derive(Debug, Clone, Default)]
pub struct PolicyBuilder {
    tiers: Vec<WeightedLevel>,
}

impl PolicyBuilder {
    /// Appends an arbitrary tier.
    pub fn tier(mut self, tier: WeightedLevel) -> Self {
        self.tiers.push(tier);
        self
    }

    /// Appends an even group split.
    pub fn group(self) -> Self {
        self.tier(WeightedLevel::new(Level::Group))
    }

    /// Appends a group split whose first group is weighted `weight×`.
    pub fn group_weighted(self, weight: u32) -> Self {
        self.tier(WeightedLevel::weighted(Level::Group, weight))
    }

    /// Appends an even user split.
    pub fn user(self) -> Self {
        self.tier(WeightedLevel::new(Level::User))
    }

    /// Appends a user split whose first user is weighted `weight×`.
    pub fn user_weighted(self, weight: u32) -> Self {
        self.tier(WeightedLevel::weighted(Level::User, weight))
    }

    /// Closes with an even job split and validates.
    pub fn job_fair(self) -> Result<Policy, PolicyError> {
        self.tier(WeightedLevel::new(Level::Job)).build()
    }

    /// Closes with a node-count-proportional job split and validates.
    pub fn size_fair(self) -> Result<Policy, PolicyError> {
        self.tier(WeightedLevel::new(Level::Size)).build()
    }

    /// Closes with a priority-proportional job split and validates.
    pub fn priority_fair(self) -> Result<Policy, PolicyError> {
        self.tier(WeightedLevel::new(Level::Priority)).build()
    }

    /// Finishes the policy. An implicit even `job` split is appended when the
    /// last tier is a scope split; an empty builder is an error.
    pub fn build(self) -> Result<Policy, PolicyError> {
        Ok(Policy::Fair(PolicySpec::new(self.tiers)?))
    }
}

/// Errors produced when constructing or parsing a [`Policy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A fair policy with no tiers.
    Empty,
    /// The final tier does not resolve to jobs.
    MissingJobLevel(Level),
    /// A job-level split appears before the final position.
    JobLevelNotLast(Level),
    /// The same level appears twice.
    DuplicateLevel(Level),
    /// Scopes are nested inside-out (e.g. user before group).
    BadNesting,
    /// A tier carries weight 0, which would starve every tenant in it.
    ZeroWeight(Level),
    /// The policy string could not be parsed.
    Parse(String),
    /// The target engine does not derive its arbitration from a [`Policy`]
    /// (fixed-algorithm baselines), so a live policy swap cannot take effect.
    UnsupportedEngine(&'static str),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Empty => write!(f, "fair policy must have at least one tier"),
            PolicyError::MissingJobLevel(l) => write!(
                f,
                "last policy tier must split onto jobs (job/size/priority), got '{l}'"
            ),
            PolicyError::JobLevelNotLast(l) => {
                write!(f, "job-level split '{l}' must be the last policy tier")
            }
            PolicyError::DuplicateLevel(l) => {
                write!(f, "policy level '{l}' appears more than once")
            }
            PolicyError::BadNesting => {
                write!(f, "group must enclose user, not the other way round")
            }
            PolicyError::ZeroWeight(l) => {
                write!(f, "tier '{l}' has weight 0; weights must be at least 1")
            }
            PolicyError::Parse(s) => write!(f, "cannot parse policy string '{s}'"),
            PolicyError::UnsupportedEngine(name) => write!(
                f,
                "engine '{name}' does not derive arbitration from a policy; restart the server \
                 with the themis engine to use policy swaps"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

fn parse_tier(token: &str, whole: &str) -> Result<WeightedLevel, PolicyError> {
    let (name, weight) = match token.find('[') {
        Some(open) => {
            let close = token
                .rfind(']')
                .filter(|c| *c == token.len() - 1)
                .ok_or_else(|| PolicyError::Parse(whole.to_string()))?;
            let digits = &token[open + 1..close];
            let weight: u32 = digits
                .parse()
                .map_err(|_| PolicyError::Parse(whole.to_string()))?;
            (&token[..open], weight)
        }
        None => (token, 1),
    };
    let level = match name {
        "group" => Level::Group,
        "user" => Level::User,
        "job" => Level::Job,
        "size" => Level::Size,
        "priority" | "prio" => Level::Priority,
        _ => return Err(PolicyError::Parse(whole.to_string())),
    };
    if weight == 0 {
        return Err(PolicyError::ZeroWeight(level));
    }
    Ok(WeightedLevel::weighted(level, weight))
}

impl FromStr for Policy {
    type Err = PolicyError;

    /// Parses administrator-facing policy strings; grammar in the
    /// [module docs](self).
    ///
    /// Accepted forms (case-insensitive):
    ///
    /// * `fifo`
    /// * `<tier>-fair` for primitives: `job-fair`, `size-fair`, `user-fair`,
    ///   `priority-fair`
    /// * chained tiers with optional `then` separators and optional
    ///   `[weight]` suffixes: `user-then-size-fair`, `user-size-fair`,
    ///   `group-user-size-fair`, `user[2]-then-size-fair`,
    ///   `group[3]-user-job[2]-fair`
    ///
    /// A trailing `-fair` is required for all fair policies. A policy that
    /// does not end in a job-level split gets an implicit even `job` split
    /// appended (so `user-fair` means "split across users, then evenly across
    /// each user's jobs", §5.3.1).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase();
        if norm == "fifo" {
            return Ok(Policy::Fifo);
        }
        let stripped = norm
            .strip_suffix("-fair")
            .ok_or_else(|| PolicyError::Parse(s.to_string()))?;
        if stripped.is_empty() {
            return Err(PolicyError::Parse(s.to_string()));
        }
        let mut tiers = Vec::new();
        for tok in stripped.split('-') {
            if tok.is_empty() || tok == "then" {
                continue;
            }
            tiers.push(parse_tier(tok, s)?);
        }
        if tiers.is_empty() {
            return Err(PolicyError::Parse(s.to_string()));
        }
        Ok(Policy::Fair(PolicySpec::new(tiers)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fair(levels: &[Level]) -> Policy {
        Policy::composite(levels.to_vec()).unwrap()
    }

    #[test]
    fn parse_primitives() {
        assert_eq!("fifo".parse::<Policy>().unwrap(), Policy::Fifo);
        assert_eq!("job-fair".parse::<Policy>().unwrap(), Policy::job_fair());
        assert_eq!("size-fair".parse::<Policy>().unwrap(), Policy::size_fair());
        assert_eq!("user-fair".parse::<Policy>().unwrap(), Policy::user_fair());
        assert_eq!(
            "priority-fair".parse::<Policy>().unwrap(),
            Policy::priority_fair()
        );
    }

    #[test]
    fn parse_composites_with_and_without_then() {
        assert_eq!(
            "user-then-size-fair".parse::<Policy>().unwrap(),
            Policy::user_then_size_fair()
        );
        assert_eq!(
            "user-size-fair".parse::<Policy>().unwrap(),
            Policy::user_then_size_fair()
        );
        assert_eq!(
            "group-user-size-fair".parse::<Policy>().unwrap(),
            Policy::group_user_size_fair()
        );
        assert_eq!(
            "group-then-user-then-job-fair".parse::<Policy>().unwrap(),
            fair(&[Level::Group, Level::User, Level::Job])
        );
    }

    #[test]
    fn parse_case_insensitive_and_trimmed() {
        assert_eq!(
            "  User-Then-Job-Fair  ".parse::<Policy>().unwrap(),
            fair(&[Level::User, Level::Job])
        );
    }

    #[test]
    fn parse_appends_job_split_when_outer_scope_last() {
        // "group-user-fair" means evenly across groups, users, then jobs.
        assert_eq!(
            "group-user-fair".parse::<Policy>().unwrap(),
            fair(&[Level::Group, Level::User, Level::Job])
        );
    }

    #[test]
    fn parse_weighted_tiers() {
        let p: Policy = "user[2]-then-size-fair".parse().unwrap();
        assert_eq!(
            p.tiers(),
            &[
                WeightedLevel::weighted(Level::User, 2),
                WeightedLevel::new(Level::Size)
            ]
        );
        let p: Policy = "group[3]-user-job[2]-fair".parse().unwrap();
        assert_eq!(
            p.tiers(),
            &[
                WeightedLevel::weighted(Level::Group, 3),
                WeightedLevel::new(Level::User),
                WeightedLevel::weighted(Level::Job, 2),
            ]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Policy>().is_err());
        assert!("fair".parse::<Policy>().is_err());
        assert!("banana-fair".parse::<Policy>().is_err());
        assert!("job".parse::<Policy>().is_err());
        assert!("user[]-fair".parse::<Policy>().is_err());
        assert!("user[x]-fair".parse::<Policy>().is_err());
        assert!("user[2-fair".parse::<Policy>().is_err());
        assert!("user[2]x-fair".parse::<Policy>().is_err());
    }

    #[test]
    fn parse_rejects_zero_weight() {
        assert!(matches!(
            "user[0]-size-fair".parse::<Policy>(),
            Err(PolicyError::ZeroWeight(Level::User))
        ));
        assert!(matches!(
            "job[0]-fair".parse::<Policy>(),
            Err(PolicyError::ZeroWeight(Level::Job))
        ));
    }

    #[test]
    fn parse_rejects_duplicate_tiers() {
        assert!(matches!(
            "user-user-fair".parse::<Policy>(),
            Err(PolicyError::DuplicateLevel(Level::User))
        ));
        assert!(matches!(
            "group[2]-group-size-fair".parse::<Policy>(),
            Err(PolicyError::DuplicateLevel(Level::Group))
        ));
    }

    #[test]
    fn validate_rejects_job_level_in_middle() {
        assert!(matches!(
            PolicySpec::from_levels([Level::Size, Level::User, Level::Job]),
            Err(PolicyError::JobLevelNotLast(Level::Size))
        ));
    }

    #[test]
    fn validate_rejects_bad_nesting() {
        assert!(matches!(
            PolicySpec::from_levels([Level::User, Level::Group, Level::Job]),
            Err(PolicyError::BadNesting)
        ));
    }

    #[test]
    fn validate_rejects_duplicates_and_empty() {
        assert!(PolicySpec::from_levels([]).is_err());
        assert!(PolicySpec::from_levels([Level::User, Level::User, Level::Job]).is_err());
    }

    #[test]
    fn constructors_share_one_canonical_form() {
        // The normalisation satellite: every constructor ends in an explicit
        // job-level tier, and parsing agrees with construction.
        assert_eq!(Policy::user_fair().levels(), vec![Level::User, Level::Job]);
        assert_eq!(Policy::size_fair().levels(), vec![Level::Size]);
        assert_eq!(
            Policy::composite(vec![Level::User]).unwrap(),
            Policy::user_fair()
        );
        assert_eq!(
            Policy::composite(vec![Level::Group, Level::User])
                .unwrap()
                .levels(),
            vec![Level::Group, Level::User, Level::Job]
        );
        for p in [
            Policy::job_fair(),
            Policy::size_fair(),
            Policy::user_fair(),
            Policy::priority_fair(),
            Policy::user_then_size_fair(),
            Policy::group_user_size_fair(),
        ] {
            assert!(p.tiers().last().unwrap().level.is_job_level(), "{p}");
        }
    }

    #[test]
    fn builder_matches_parser() {
        let built = Policy::builder()
            .group()
            .user_weighted(2)
            .size_fair()
            .unwrap();
        let parsed: Policy = "group-user[2]-size-fair".parse().unwrap();
        assert_eq!(built, parsed);
        assert_eq!(
            Policy::builder().user().build().unwrap(),
            Policy::user_fair()
        );
        assert_eq!(Policy::builder().job_fair().unwrap(), Policy::job_fair());
        assert!(Policy::builder().build().is_err());
        // A terminal after an explicit job tier is rejected.
        assert!(Policy::builder()
            .tier(WeightedLevel::new(Level::Job))
            .size_fair()
            .is_err());
    }

    #[test]
    fn canonical_names_round_trip() {
        for p in [
            Policy::Fifo,
            Policy::job_fair(),
            Policy::size_fair(),
            Policy::user_fair(),
            Policy::user_then_size_fair(),
            Policy::group_user_size_fair(),
            Policy::builder().user_weighted(2).size_fair().unwrap(),
            Policy::builder()
                .group_weighted(4)
                .user()
                .job_fair()
                .unwrap(),
            "group[3]-user-job[2]-fair".parse::<Policy>().unwrap(),
        ] {
            let name = p.canonical_name();
            assert_eq!(name.parse::<Policy>().unwrap(), p, "round trip of {name}");
        }
    }

    #[test]
    fn display_matches_canonical() {
        assert_eq!(
            Policy::group_user_size_fair().to_string(),
            "group-user-size-fair"
        );
        assert_eq!(Policy::Fifo.to_string(), "fifo");
        // The elided canonical form: explicit [user, job] prints as the
        // administrator wrote it.
        assert_eq!(Policy::user_fair().to_string(), "user-fair");
        assert_eq!(
            "user-job-fair".parse::<Policy>().unwrap().to_string(),
            "user-fair"
        );
        // A weighted job tail is never elided.
        assert_eq!(
            "user-job[2]-fair".parse::<Policy>().unwrap().to_string(),
            "user-job[2]-fair"
        );
    }
}

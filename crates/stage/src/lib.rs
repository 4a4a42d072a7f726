//! # themis-stage
//!
//! The staging & drain subsystem of ThemisIO-RS: the burst buffer as a
//! *staging tier* in front of a slower capacity file system.
//!
//! The paper arbitrates the burst-buffer device itself; BurstMem-style
//! systems show that the *other* half of the sharing problem is drain
//! bandwidth — the background traffic that flushes buffered writes to the
//! capacity tier so the NVMe space can be reclaimed before the next
//! checkpoint burst. This crate supplies the three pieces that problem
//! needs:
//!
//! * [`BackingStore`] / [`CapacityTier`] — the capacity tier behind the
//!   burst buffer, modelled with its own [`DeviceConfig`]
//!   (e.g. [`DeviceConfig::capacity_hdd`]).
//! * [`TrafficClass`] + [`ClassWeights`] — the taxonomy of system-internal
//!   traffic (drain, restore, scrub, rebalance, replicate), registered in
//!   one [`TRAFFIC_CLASSES`] table, each with its own job-id sub-range of
//!   the reserved range and its own foreground:class weight.
//! * [`DrainPipeline`] / [`RestorePipeline`] / [`ScrubPipeline`] +
//!   [`DrainConfig`] — per-server bookkeeping of the extents moving in each
//!   direction (plus the background checksum verification of the capacity
//!   tier) and the synthesis of that traffic as ordinary
//!   [`IoRequest`](themis_core::request::IoRequest)s under the class's
//!   [job identity](TrafficClass::meta). Each embeds one [`ClassQueue`], the
//!   single in-flight ledger of a synthesized request's lifecycle, and the
//!   server drives all of them through [`ClassLifecycle`].
//! * [`StagedEngine`] — a [`PolicyEngine`](themis_core::engine::PolicyEngine)
//!   decorator that schedules the synthesized class requests *alongside*
//!   foreground traffic with configurable foreground:class weights. The
//!   weights are expressed through the policy crate's own
//!   [`WeightedLevel`](themis_core::policy::WeightedLevel) machinery, so the
//!   paper's fine-grained sharing extends to stage-out *and* stage-in
//!   without a second arbitration mechanism.
//!
//! The server runtime and the simulator both drive these pieces: the
//! pipelines decide *what* to move, the staged engine decides *when* each
//! class may consume device time, and the backing store decides *how fast*
//! the capacity tier absorbs or serves it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backing;
pub mod class;
pub mod engine;
pub mod lifecycle;
pub mod pipeline;
pub mod rebalance;
pub mod replicate;
pub mod scrub;
pub mod shard;

pub use backing::{
    extent_checksum, verified_extent, verified_read_back, BackingStore, CapacityTier,
};
pub use class::{ClassWeights, ClassWeightsError, TrafficClass, TrafficClassDef, TRAFFIC_CLASSES};
pub use engine::StagedEngine;
pub use lifecycle::{AdmitContext, ClassLifecycle, ClassQueue};
pub use pipeline::{
    write_back_guarded, DrainConfig, DrainPipeline, DrainStatus, InflightDrain, RestorePipeline,
    RestoreTarget, StagingConfig,
};
pub use rebalance::{RebalancePipeline, RebalanceStatus};
pub use replicate::{ReplicaTarget, ReplicatePipeline, ReplicateStatus};
pub use scrub::{ScrubPipeline, ScrubStatus, ScrubTarget};
pub use shard::{
    shard_byte, MigrationOutcome, MigrationPlan, PlacementReport, ShardMap, ShardSpec, ShardedStore,
};

// Re-exported so downstream crates configuring a capacity tier do not need a
// direct themis-device dependency.
pub use themis_device::DeviceConfig;

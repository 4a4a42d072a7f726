//! # themis-fs
//!
//! The user-space, byte-addressable burst-buffer file system of ThemisIO-RS
//! (§4.3 of the paper). Files and metadata are spread across burst-buffer
//! servers with a consistent hash ring, striping is recorded in per-file
//! metadata, and all data lives in in-memory extents standing in for the
//! Optane/NVMe regions of the paper's testbed.
//!
//! * [`path`] — namespace handling (`/fs/...` interception prefix);
//! * [`ring`] — consistent hashing of paths onto servers;
//! * [`layout`] — striping configuration and byte-range → chunk planning;
//! * [`store`] — the per-server shard: metadata, directory entries, extents;
//! * [`fs`] — the cluster-wide POSIX-flavoured file system and fd table;
//! * [`error`] — POSIX-style error type.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod fs;
pub mod layout;
pub mod path;
pub mod ring;
pub mod store;

pub use error::{FsError, FsResult};
pub use fs::{BurstBufferFs, OpenFlags, Whence};
pub use layout::{Chunk, FileLayout, StripeConfig, DEFAULT_STRIPE_SIZE};
pub use ring::{HashRing, ServerId};
pub use store::{DirtyExtent, Extent, ExtentRead, FileMeta, Shard, StatInfo, Writer};

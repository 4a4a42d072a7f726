//! Per-server storage shard: metadata and stripe data owned by one
//! burst-buffer server.
//!
//! §4.3: "both directories and files are stored as files, and files and
//! metadata are spread across ThemisIO servers using a consistent hash
//! function … an index specifies the NVMe region of the file's contents."
//! The shard plays the role of that NVMe region plus its index: stripe
//! contents live in byte-addressable extents, found through a hash table
//! keyed by path. A path's entry holds each of its stripes on this shard, in
//! stripe order: the extent and its dirty state, or the length it had when
//! it was evicted. A data call finds all of it with one hash probe on the
//! `&str` path, and a write or read of an existing extent allocates no key.
//!
//! # The ordered views
//!
//! Two scans have an order that callers see: the drain admits dirty extents
//! in `(path, stripe)` order ([`Shard::dirty_extents`]), and eviction picks
//! clean victims in that order ([`Shard::evict_clean_until`]). Hash-table
//! order differs from one process to the next, so these scans never walk
//! the table. They walk two ordered sets of `(path, stripe)` keys instead,
//! one of dirty keys and one of clean resident keys. A key enters or leaves
//! a set only when its state changes: created, removed, dirtied, cleaned,
//! evicted or restored. A write to an extent that is already dirty, the
//! steady state of a small-write workload, touches neither set.
//!
//! # Who shares an extent buffer
//!
//! An extent's bytes are an [`Extent`], a reference-counted buffer that the
//! shard, the capacity tier and the staging paths pass around instead of
//! copying. A drain snapshot hands the shard's buffer to the tier, a restore
//! or read-through hands the tier's buffer back, and a replicated tier keeps
//! one buffer for all of its replicas. So after a drain the shard and the
//! tier may hold the *same* buffer. Each holder that mutates one goes
//! through [`Extent::make_mut`], which copies the buffer once if anyone else
//! still holds it:
//!
//! * [`Shard::write_extent`] on a drained (or restored) extent copies it
//!   before applying the write, so the tier's copy keeps the drained bytes
//!   its checksum was computed over;
//! * the capacity tier's fault injection copies before flipping a bit, so
//!   injected corruption never reaches the shard or another replica.
//!
//! Nothing else mutates a buffer in place, so every other hand-off is a
//! reference-count bump. A write that covers an extent from its first byte
//! does not mutate at all: [`Shard::write_whole_extent`] keeps the writer's
//! own buffer as the extent and drops the shard's hold on the old one,
//! which any drain snapshot or tier copy still holding it keeps unchanged.

use crate::error::{FsError, FsResult};
use crate::layout::FileLayout;
use crate::ring::ServerId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use themis_core::entity::{JobId, UserId};

/// The bytes of one stripe extent, shared copy-on-write between the shard
/// that holds it resident, the capacity tier that holds its drained copy and
/// the staging paths that move it between the two (see the module docs).
///
/// Cloning shares the buffer; [`Extent::make_mut`] is the only way to change
/// the bytes, and it copies them first while anyone else holds the buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Extent(Arc<Vec<u8>>);

impl Extent {
    /// Mutable access to the bytes, copying the buffer first if another
    /// holder shares it (`Arc::make_mut`).
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        Arc::make_mut(&mut self.0)
    }

    /// The bytes as an owned vector: the buffer itself when this is its only
    /// holder, else a copy.
    pub fn into_vec(self) -> Vec<u8> {
        Arc::unwrap_or_clone(self.0)
    }

    /// Whether `self` and `other` share one buffer.
    pub fn shares_buffer(&self, other: &Extent) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<Vec<u8>> for Extent {
    fn from(bytes: Vec<u8>) -> Self {
        Extent(Arc::new(bytes))
    }
}

impl std::ops::Deref for Extent {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl PartialEq<Vec<u8>> for Extent {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl std::fmt::Debug for Extent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// The bytes of `extent` in `[offset, offset + len)`, clamped to its end: a
/// range past the written end reads short (or empty).
pub(crate) fn extent_range(extent: &[u8], offset: u64, len: u64) -> &[u8] {
    let end_of = |at: u64| at.min(extent.len() as u64) as usize;
    &extent[end_of(offset)..end_of(offset.saturating_add(len))]
}

/// Metadata of a file or directory, owned by the server to which the path
/// hashes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileMeta {
    /// Normalised path.
    pub path: String,
    /// Whether this entry is a directory.
    pub is_dir: bool,
    /// Logical file size in bytes (0 for directories).
    pub size: u64,
    /// Stripe placement (meaningless for directories).
    pub layout: FileLayout,
    /// Creation time (ns, virtual or wall clock).
    pub created_ns: u64,
    /// Last data or metadata modification time (ns).
    pub modified_ns: u64,
}

/// The result of a `stat()` call, the subset of [`FileMeta`] exposed to
/// clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatInfo {
    /// Whether the path is a directory.
    pub is_dir: bool,
    /// Logical size in bytes.
    pub size: u64,
    /// Creation time (ns).
    pub created_ns: u64,
    /// Last modification time (ns).
    pub modified_ns: u64,
    /// Number of stripes.
    pub stripe_count: usize,
}

impl From<&FileMeta> for StatInfo {
    fn from(m: &FileMeta) -> Self {
        StatInfo {
            is_dir: m.is_dir,
            size: m.size,
            created_ns: m.created_ns,
            modified_ns: m.modified_ns,
            stripe_count: m.layout.servers.len(),
        }
    }
}

/// The outcome of a residency-aware extent read ([`Shard::read_extent_checked`]).
///
/// Distinguishes the three reasons a read can return fewer bytes than asked
/// for — the staging subsystem must treat them very differently: a hole is
/// legitimately zero, a short read is clamped by what was written, but an
/// evicted extent's bytes exist *only in the capacity tier* and silently
/// zero-filling them would corrupt data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtentRead<'a> {
    /// The extent is resident; the bytes of the requested range, possibly
    /// short (or empty) where the range runs past the extent's written end,
    /// borrowed from the extent so the caller copies them once.
    Data(&'a [u8]),
    /// No extent was ever written at this `(path, stripe)` — a logical hole;
    /// the distributed layer fills holes with zeros up to the file size.
    Hole,
    /// The extent was written, drained to the capacity tier and then evicted
    /// from the burst buffer; it must be staged back in before reading.
    Evicted,
}

/// Who made an extent's last write: the job and user a durability rule
/// matches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Writer {
    /// The writing job.
    pub job: JobId,
    /// The user the job runs as.
    pub user: UserId,
}

/// The dirty state of one extent: its last write, and how much of its
/// history is already in the capacity tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtyExtent {
    /// Generation of the last write (monotonic per shard).
    pub generation: u64,
    /// Every write of this extent up to this generation has a copy in the
    /// capacity tier. An extent that turns dirty starts one below its first
    /// generation (it was clean); a copy that lands after a newer write
    /// raises it to the generation it carried ([`Shard::mark_clean`]).
    pub landed: u64,
    /// The last write's writer; `None` for a restore-for-write pin no write
    /// has landed on yet and for writes through the writer-less API.
    pub writer: Option<Writer>,
}

/// One stripe of a path on a shard: resident bytes, or the record that they
/// were evicted to the capacity tier.
#[derive(Debug, Clone)]
enum Stripe {
    /// In the burst buffer: the bytes and, while a write has no copy in the
    /// capacity tier yet, the dirty state.
    Resident {
        extent: Extent,
        dirty: Option<DirtyExtent>,
    },
    /// Drained, then evicted: the bytes exist only in the capacity tier.
    /// Holds the extent's logical length at eviction.
    Evicted(u64),
}

/// Every stripe of one path stored on a shard, in stripe order, and how
/// many of them are dirty.
#[derive(Debug, Clone, Default)]
struct FileStripes {
    stripes: BTreeMap<u64, Stripe>,
    dirty: usize,
}

/// One server's slice of the file system: the metadata of paths that hash to
/// it, the directory entries of directories that hash to it, and the stripe
/// extents placed on it.
///
/// The shard also carries the residency state the staging subsystem needs:
/// every written extent is *dirty* (tagged with a monotonically increasing
/// generation) until a copy of that generation lands in the capacity tier,
/// and *clean* extents may be evicted under memory pressure — their key
/// stays behind as an evicted record so reads can tell "hole" apart from
/// "data lives in the capacity tier".
///
/// Only the server that owns the shard copies its dirty extents out, one
/// copy per extent at a time, so each dirty generation is written back at
/// most once. Each entry records its last writer, which decides the copy's
/// durability lane, and the newest generation known to be in the capacity
/// tier, which releases `sync` acks on other servers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Shard {
    server: usize,
    /// Metadata keyed by path.
    meta: HashMap<String, FileMeta>,
    /// Directory entries (child names) keyed by directory path.
    dirents: BTreeMap<String, BTreeSet<String>>,
    /// Every stripe stored here, one entry per path: a data call finds its
    /// extent, dirty state and residency with one hash probe on the path.
    files: HashMap<String, FileStripes>,
    /// The dirty keys in `(path, stripe)` order, the order in which
    /// [`Shard::dirty_extents`] offers them for a copy-out.
    dirty_keys: BTreeSet<(String, u64)>,
    /// The clean resident keys in `(path, stripe)` order, the order in
    /// which [`Shard::evict_clean_until`] picks victims.
    clean_keys: BTreeSet<(String, u64)>,
    /// Number of evicted stripes.
    evicted: usize,
    /// Bytes stored in extents on this shard.
    bytes_stored: u64,
    /// Bytes in dirty extents (sum of their full lengths).
    bytes_dirty: u64,
    /// Monotonic write-generation counter for drain snapshot validation.
    next_generation: u64,
}

impl Shard {
    /// Creates the shard belonging to `server`.
    pub fn new(server: ServerId) -> Self {
        Shard {
            server: server.0,
            ..Shard::default()
        }
    }

    /// The server this shard belongs to.
    pub fn server(&self) -> ServerId {
        ServerId(self.server)
    }

    /// Total stripe bytes stored on this shard.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    // ---- metadata operations (path hashes to this server) ----

    /// Inserts metadata for a newly created file or directory.
    pub fn insert_meta(&mut self, meta: FileMeta) -> FsResult<()> {
        if self.meta.contains_key(&meta.path) {
            return Err(FsError::AlreadyExists(meta.path));
        }
        if meta.is_dir {
            self.dirents.entry(meta.path.clone()).or_default();
        }
        self.meta.insert(meta.path.clone(), meta);
        Ok(())
    }

    /// Looks up metadata.
    pub fn get_meta(&self, path: &str) -> Option<&FileMeta> {
        self.meta.get(path)
    }

    /// Stats a path owned by this shard.
    pub fn stat(&self, path: &str) -> FsResult<StatInfo> {
        self.meta
            .get(path)
            .map(StatInfo::from)
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// Updates the size/mtime of a file after a write. The new size is the
    /// maximum of the current size and `end_offset` (writes never shrink).
    pub fn update_size(&mut self, path: &str, end_offset: u64, now_ns: u64) -> FsResult<u64> {
        let meta = self
            .meta
            .get_mut(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        if meta.is_dir {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        meta.size = meta.size.max(end_offset);
        meta.modified_ns = now_ns;
        Ok(meta.size)
    }

    /// Removes metadata, returning it. The caller is responsible for checking
    /// directory emptiness and removing stripe extents on the data shards.
    pub fn remove_meta(&mut self, path: &str) -> FsResult<FileMeta> {
        if let Some(children) = self.dirents.get(path) {
            if !children.is_empty() {
                return Err(FsError::DirectoryNotEmpty(path.to_string()));
            }
        }
        self.dirents.remove(path);
        self.meta
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    // ---- directory entry operations (parent dir hashes to this server) ----

    /// Registers `child_name` under directory `dir` ("Directory and file
    /// creation updates the content of the parent directory").
    pub fn add_dirent(&mut self, dir: &str, child_name: &str) -> FsResult<()> {
        let set = self
            .dirents
            .get_mut(dir)
            .ok_or_else(|| FsError::NotFound(dir.to_string()))?;
        set.insert(child_name.to_string());
        Ok(())
    }

    /// Unregisters `child_name` from directory `dir`.
    pub fn remove_dirent(&mut self, dir: &str, child_name: &str) -> FsResult<()> {
        let set = self
            .dirents
            .get_mut(dir)
            .ok_or_else(|| FsError::NotFound(dir.to_string()))?;
        set.remove(child_name);
        Ok(())
    }

    /// Ensures a directory-entry set exists for `dir` (used when creating the
    /// root of a shard).
    pub fn ensure_dir_set(&mut self, dir: &str) {
        self.dirents.entry(dir.to_string()).or_default();
    }

    /// Lists the entries of a directory owned by this shard.
    pub fn read_dir(&self, dir: &str) -> FsResult<Vec<String>> {
        match self.dirents.get(dir) {
            Some(set) => Ok(set.iter().cloned().collect()),
            None => {
                if self.meta.contains_key(dir) {
                    Err(FsError::NotADirectory(dir.to_string()))
                } else {
                    Err(FsError::NotFound(dir.to_string()))
                }
            }
        }
    }

    // ---- stripe data operations (stripe hashes to this server) ----

    /// Writes `data` into the extent of stripe `stripe` of `path`, starting
    /// at `offset_in_stripe`. Extents grow on demand (byte-addressable
    /// allocation). The extent becomes dirty under a fresh generation, with
    /// `writer` as its last writer.
    ///
    /// Fails with [`FsError::NotResident`] when the extent was evicted to the
    /// capacity tier: a partial overwrite of evicted bytes would silently
    /// discard the capacity-tier copy's other bytes, so the caller must stage
    /// the extent back in first.
    ///
    /// An extent whose buffer the capacity tier still shares (drained or
    /// restored) is copied once before the write, so the tier's copy never
    /// changes under it.
    pub fn write_extent(
        &mut self,
        path: &str,
        stripe: u64,
        offset_in_stripe: u64,
        data: &[u8],
        writer: Option<Writer>,
    ) -> FsResult<()> {
        let start = offset_in_stripe as usize;
        let end = start + data.len();
        self.write_with(path, stripe, writer, |extent| {
            let bytes = extent.make_mut();
            if bytes.len() < end {
                bytes.resize(end, 0);
            }
            bytes[start..end].copy_from_slice(data);
        })
    }

    /// [`Shard::write_extent`] of `data` at the start of the extent, keeping
    /// `data`'s buffer as the extent instead of copying it when no older
    /// byte survives the write (the extent is absent or no longer than
    /// `data`). `data` is left empty when its buffer was kept; a longer
    /// extent takes the copying path and `data` is left as it was.
    ///
    /// A kept buffer replaces the extent's `Arc` rather than mutating it, so
    /// a drain snapshot or tier copy still holding the old buffer keeps the
    /// old bytes. Spare capacity is given back first: the extent's length
    /// is all that `bytes_stored` counts.
    ///
    /// Fails with [`FsError::NotResident`], `data` untouched, when the
    /// extent was evicted: the caller stages it back in and retries.
    pub fn write_whole_extent(
        &mut self,
        path: &str,
        stripe: u64,
        data: &mut Vec<u8>,
        writer: Option<Writer>,
    ) -> FsResult<()> {
        self.write_with(path, stripe, writer, |extent| {
            if extent.len() > data.len() {
                extent.make_mut()[..data.len()].copy_from_slice(data);
            } else {
                data.shrink_to_fit();
                *extent = Extent::from(std::mem::take(data));
            }
        })
    }

    /// Applies a write that never shrinks the extent of stripe `stripe` of
    /// `path` (created empty if absent), then dirties it under a fresh
    /// generation written by `writer`. Dirty bytes are the full lengths of
    /// dirty extents: a clean→dirty transition adds the whole extent, a
    /// write to an already-dirty extent adds only its growth and touches no
    /// ordered index.
    fn write_with(
        &mut self,
        path: &str,
        stripe: u64,
        writer: Option<Writer>,
        apply: impl FnOnce(&mut Extent),
    ) -> FsResult<()> {
        let file = match self.files.get_mut(path) {
            Some(file) => file,
            None => self.files.entry(path.to_string()).or_default(),
        };
        let mut created = false;
        let state = file.stripes.entry(stripe).or_insert_with(|| {
            created = true;
            Stripe::Resident {
                extent: Extent::default(),
                dirty: None,
            }
        });
        let Stripe::Resident { extent, dirty } = state else {
            return Err(FsError::NotResident(path.to_string()));
        };
        let old_len = extent.len() as u64;
        apply(extent);
        let new_len = extent.len() as u64;
        self.bytes_stored += new_len - old_len;
        self.next_generation += 1;
        let generation = self.next_generation;
        match dirty {
            Some(d) => {
                d.generation = generation;
                d.writer = writer;
                self.bytes_dirty += new_len - old_len;
            }
            None => {
                *dirty = Some(DirtyExtent {
                    generation,
                    landed: generation - 1,
                    writer,
                });
                file.dirty += 1;
                self.bytes_dirty += new_len;
                let key = (path.to_string(), stripe);
                if !created {
                    self.clean_keys.remove(&key);
                }
                self.dirty_keys.insert(key);
            }
        }
        Ok(())
    }

    /// The state of stripe `stripe` of `path`, `None` for a hole.
    fn stripe(&self, path: &str, stripe: u64) -> Option<&Stripe> {
        self.files.get(path)?.stripes.get(&stripe)
    }

    /// Borrows up to `len` bytes from stripe `stripe` of `path` starting at
    /// `offset_in_stripe`, reporting residency ([`ExtentRead`]).
    pub fn read_extent_checked(
        &self,
        path: &str,
        stripe: u64,
        offset_in_stripe: u64,
        len: u64,
    ) -> ExtentRead<'_> {
        match self.stripe(path, stripe) {
            None => ExtentRead::Hole,
            Some(Stripe::Evicted(_)) => ExtentRead::Evicted,
            Some(Stripe::Resident { extent, .. }) => {
                ExtentRead::Data(extent_range(extent, offset_in_stripe, len))
            }
        }
    }

    /// The whole buffer of a *resident* extent (clean or dirty), shared, or
    /// `None` for holes and evicted extents.
    pub fn resident_extent(&self, path: &str, stripe: u64) -> Option<Extent> {
        match self.stripe(path, stripe)? {
            Stripe::Resident { extent, .. } => Some(extent.clone()),
            Stripe::Evicted(_) => None,
        }
    }

    /// Drops every extent of `path` stored on this shard, returning the
    /// number of bytes freed. Dirty and evicted bookkeeping for the path is
    /// purged with the data.
    pub fn remove_extents(&mut self, path: &str) -> u64 {
        let Some(file) = self.files.remove(path) else {
            return 0;
        };
        let mut freed = 0;
        for (stripe, state) in file.stripes {
            let Stripe::Resident { extent, dirty } = state else {
                self.evicted -= 1;
                continue;
            };
            let len = extent.len() as u64;
            freed += len;
            let key = (path.to_string(), stripe);
            if dirty.is_some() {
                self.bytes_dirty = self.bytes_dirty.saturating_sub(len);
                self.dirty_keys.remove(&key);
            } else {
                self.clean_keys.remove(&key);
            }
        }
        self.bytes_stored = self.bytes_stored.saturating_sub(freed);
        freed
    }

    // ---- staging / drain operations (residency management) ----

    /// Bytes in dirty (not yet drained) extents.
    pub fn bytes_dirty(&self) -> u64 {
        self.bytes_dirty
    }

    /// Bytes in clean resident extents (drained, evictable).
    pub fn bytes_clean(&self) -> u64 {
        self.bytes_stored.saturating_sub(self.bytes_dirty)
    }

    /// Whether `path` has any dirty extent on this shard.
    pub fn has_dirty_for(&self, path: &str) -> bool {
        self.files.get(path).is_some_and(|file| file.dirty > 0)
    }

    /// Up to `limit` dirty extents `keep` accepts, as `(path, stripe, state,
    /// length)`, in `(path, stripe)` order.
    pub fn dirty_extents(
        &self,
        limit: usize,
        keep: impl Fn(&(String, u64), &DirtyExtent) -> bool,
    ) -> Vec<(String, u64, DirtyExtent, u64)> {
        self.dirty_keys
            .iter()
            .filter_map(|key| match self.stripe(&key.0, key.1)? {
                Stripe::Resident {
                    extent,
                    dirty: Some(d),
                } if keep(key, d) => Some((key.0.clone(), key.1, *d, extent.len() as u64)),
                _ => None,
            })
            .take(limit)
            .collect()
    }

    /// The dirty state of one extent, `None` when it is clean or absent.
    pub fn dirty_state(&self, path: &str, stripe: u64) -> Option<DirtyExtent> {
        match self.stripe(path, stripe)? {
            Stripe::Resident { dirty, .. } => *dirty,
            Stripe::Evicted(_) => None,
        }
    }

    /// A consistent snapshot of a dirty extent for its copy to the capacity
    /// tier: its buffer, shared rather than copied (a later write copies it
    /// first, see [`Shard::write_extent`]), and its generation. This is the
    /// only way a dirty extent's bytes leave the shard. `None` when the
    /// extent is clean or absent.
    pub fn copy_snapshot(&self, path: &str, stripe: u64) -> Option<(Extent, u64)> {
        match self.stripe(path, stripe)? {
            Stripe::Resident {
                extent,
                dirty: Some(d),
            } => Some((extent.clone(), d.generation)),
            _ => None,
        }
    }

    /// Lands a copy of `generation`: marks the extent clean if — and only
    /// if — its dirty generation still equals `generation` (the copy is
    /// current). A concurrent overwrite keeps it dirty, and the entry
    /// records that `generation` is in the capacity tier
    /// ([`DirtyExtent::landed`]). Returns whether the extent is now clean.
    pub fn mark_clean(&mut self, path: &str, stripe: u64, generation: u64) -> bool {
        let Some(file) = self.files.get_mut(path) else {
            return false;
        };
        let Some(Stripe::Resident { extent, dirty }) = file.stripes.get_mut(&stripe) else {
            return false;
        };
        match dirty {
            Some(d) if d.generation == generation => {
                *dirty = None;
                file.dirty -= 1;
                self.bytes_dirty = self.bytes_dirty.saturating_sub(extent.len() as u64);
                let key = (path.to_string(), stripe);
                self.dirty_keys.remove(&key);
                self.clean_keys.insert(key);
                true
            }
            Some(d) => {
                d.landed = d.landed.max(generation);
                false
            }
            None => false,
        }
    }

    /// Evicts clean extents until resident bytes fall to `target_bytes`,
    /// returning the evicted `(path, stripe, length)` records. Dirty extents
    /// are **never** evicted — their only copy is this shard.
    pub fn evict_clean_until(&mut self, target_bytes: u64) -> Vec<(String, u64, u64)> {
        let mut evicted = Vec::new();
        // Nothing to do when every stored byte is dirty (unevictable): the
        // server polls this under sustained watermark pressure.
        if self.bytes_clean() == 0 {
            return evicted;
        }
        while self.bytes_stored > target_bytes {
            let Some(key) = self.clean_keys.pop_first() else {
                break;
            };
            let state = self
                .files
                .get_mut(&key.0)
                .and_then(|file| file.stripes.get_mut(&key.1));
            let Some(state) = state else {
                continue;
            };
            let Stripe::Resident { extent, .. } = state else {
                continue;
            };
            let len = extent.len() as u64;
            *state = Stripe::Evicted(len);
            self.evicted += 1;
            self.bytes_stored = self.bytes_stored.saturating_sub(len);
            evicted.push((key.0, key.1, len));
        }
        evicted
    }

    /// Restores an evicted extent from its capacity-tier copy, keeping the
    /// tier's buffer rather than copying it. Restoring a resident extent is
    /// a no-op.
    ///
    /// With `mark_dirty = false` the extent re-enters the shard clean (the
    /// tier still holds an identical copy) and is immediately evictable
    /// again. With `mark_dirty = true` it re-enters dirty — eviction cannot
    /// touch it — which is how a restore-for-write pins the extent against a
    /// concurrent evictor until the write lands (the write would re-dirty it
    /// anyway).
    pub fn restore_extent(&mut self, path: &str, stripe: u64, data: Extent, mark_dirty: bool) {
        let file = match self.files.get_mut(path) {
            Some(file) => file,
            None => self.files.entry(path.to_string()).or_default(),
        };
        match file.stripes.get(&stripe) {
            Some(Stripe::Resident { .. }) => return,
            Some(Stripe::Evicted(_)) => self.evicted -= 1,
            None => {}
        }
        let len = data.len() as u64;
        self.bytes_stored += len;
        let key = (path.to_string(), stripe);
        let dirty = if mark_dirty {
            self.next_generation += 1;
            self.bytes_dirty += len;
            file.dirty += 1;
            self.dirty_keys.insert(key);
            Some(DirtyExtent {
                generation: self.next_generation,
                landed: self.next_generation - 1,
                writer: None,
            })
        } else {
            self.clean_keys.insert(key);
            None
        };
        file.stripes.insert(
            stripe,
            Stripe::Resident {
                extent: data,
                dirty,
            },
        );
    }

    /// Number of evicted extents on this shard (O(1) — the staging hot path
    /// uses it to skip residency scans when nothing is evicted).
    pub fn evicted_len(&self) -> usize {
        self.evicted
    }

    /// The evicted extents of `path` (or of every path when `None`) as
    /// `(path, stripe, length)`, in `(path, stripe)` order.
    pub fn evicted_extents(&self, path: Option<&str>) -> Vec<(String, u64, u64)> {
        let evicted_of = |path: &str, file: &FileStripes| {
            file.stripes
                .iter()
                .filter_map(|(&stripe, state)| match state {
                    Stripe::Evicted(len) => Some((path.to_string(), stripe, *len)),
                    Stripe::Resident { .. } => None,
                })
                .collect::<Vec<_>>()
        };
        match path {
            Some(p) => self
                .files
                .get(p)
                .map_or_else(Vec::new, |file| evicted_of(p, file)),
            None => {
                // Hash-table order differs from one process to the next:
                // sort, so callers see key order as they do for one path.
                let mut all: Vec<_> = self
                    .files
                    .iter()
                    .flat_map(|(p, file)| evicted_of(p, file))
                    .collect();
                all.sort_unstable();
                all
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StripeConfig;
    use crate::ring::HashRing;

    fn meta(path: &str, is_dir: bool) -> FileMeta {
        let ring = HashRing::new(2);
        FileMeta {
            path: path.to_string(),
            is_dir,
            size: 0,
            layout: FileLayout::place(path, StripeConfig::default(), &ring),
            created_ns: 1,
            modified_ns: 1,
        }
    }

    /// The requested range of a resident extent, with holes and evicted
    /// extents flattened to empty (only for tests that know which they hit).
    fn read(s: &Shard, path: &str, stripe: u64, offset: u64, len: u64) -> Vec<u8> {
        match s.read_extent_checked(path, stripe, offset, len) {
            ExtentRead::Data(d) => d.to_vec(),
            ExtentRead::Hole | ExtentRead::Evicted => Vec::new(),
        }
    }

    fn extent(bytes: &[u8]) -> Extent {
        Extent::from(bytes.to_vec())
    }

    #[test]
    fn insert_and_stat_meta() {
        let mut s = Shard::new(ServerId(0));
        s.insert_meta(meta("/a", false)).unwrap();
        let st = s.stat("/a").unwrap();
        assert!(!st.is_dir);
        assert_eq!(st.size, 0);
        assert!(matches!(s.stat("/missing"), Err(FsError::NotFound(_))));
        assert!(matches!(
            s.insert_meta(meta("/a", false)),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn update_size_grows_never_shrinks() {
        let mut s = Shard::new(ServerId(0));
        s.insert_meta(meta("/a", false)).unwrap();
        assert_eq!(s.update_size("/a", 100, 5).unwrap(), 100);
        assert_eq!(s.update_size("/a", 40, 6).unwrap(), 100);
        assert_eq!(s.get_meta("/a").unwrap().modified_ns, 6);
    }

    #[test]
    fn update_size_rejects_directories() {
        let mut s = Shard::new(ServerId(0));
        s.insert_meta(meta("/d", true)).unwrap();
        assert!(matches!(
            s.update_size("/d", 10, 1),
            Err(FsError::IsADirectory(_))
        ));
    }

    #[test]
    fn dirents_add_list_remove() {
        let mut s = Shard::new(ServerId(0));
        s.insert_meta(meta("/d", true)).unwrap();
        s.add_dirent("/d", "x").unwrap();
        s.add_dirent("/d", "y").unwrap();
        assert_eq!(s.read_dir("/d").unwrap(), vec!["x", "y"]);
        s.remove_dirent("/d", "x").unwrap();
        assert_eq!(s.read_dir("/d").unwrap(), vec!["y"]);
        assert!(matches!(s.read_dir("/nope"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn read_dir_on_file_is_not_a_directory() {
        let mut s = Shard::new(ServerId(0));
        s.insert_meta(meta("/f", false)).unwrap();
        assert!(matches!(s.read_dir("/f"), Err(FsError::NotADirectory(_))));
    }

    #[test]
    fn remove_meta_refuses_nonempty_dir() {
        let mut s = Shard::new(ServerId(0));
        s.insert_meta(meta("/d", true)).unwrap();
        s.add_dirent("/d", "x").unwrap();
        assert!(matches!(
            s.remove_meta("/d"),
            Err(FsError::DirectoryNotEmpty(_))
        ));
        s.remove_dirent("/d", "x").unwrap();
        assert!(s.remove_meta("/d").is_ok());
    }

    #[test]
    fn extent_write_read_roundtrip_and_growth() {
        let mut s = Shard::new(ServerId(1));
        s.write_extent("/a", 0, 10, b"hello", None).unwrap();
        assert_eq!(read(&s, "/a", 0, 10, 5), b"hello");
        // Bytes before the written region read as zeros.
        assert_eq!(read(&s, "/a", 0, 0, 3), vec![0, 0, 0]);
        // Reads past the extent are short.
        assert_eq!(read(&s, "/a", 0, 13, 100), b"lo");
        assert_eq!(read(&s, "/a", 7, 0, 10), Vec::<u8>::new());
        assert_eq!(s.bytes_stored(), 15);
    }

    #[test]
    fn overwrite_does_not_grow_storage() {
        let mut s = Shard::new(ServerId(1));
        s.write_extent("/a", 0, 0, &[1u8; 100], None).unwrap();
        s.write_extent("/a", 0, 20, &[2u8; 30], None).unwrap();
        assert_eq!(s.bytes_stored(), 100);
        assert_eq!(read(&s, "/a", 0, 20, 1), vec![2]);
    }

    #[test]
    fn checked_read_distinguishes_hole_short_read_and_data() {
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/f", 0, 10, b"hello", None).unwrap();
        // Never-written stripe: a logical hole, not data.
        assert_eq!(s.read_extent_checked("/f", 5, 0, 8), ExtentRead::Hole);
        // Written stripe: data, short at the extent tail.
        assert_eq!(
            s.read_extent_checked("/f", 0, 13, 100),
            ExtentRead::Data(b"lo")
        );
        // Range entirely past the written end of a resident extent: empty
        // data, still distinguishable from a hole.
        assert_eq!(
            s.read_extent_checked("/f", 0, 50, 10),
            ExtentRead::Data(&[])
        );
        // A range whose end would overflow u64 clamps instead.
        assert_eq!(
            s.read_extent_checked("/f", 0, 12, u64::MAX),
            ExtentRead::Data(b"llo")
        );
        // Only a resident extent hands out its whole buffer.
        assert_eq!(s.resident_extent("/f", 0).unwrap().len(), 15);
        assert!(s.resident_extent("/f", 5).is_none());
    }

    #[test]
    fn dirty_tracking_and_generation_guarded_clean() {
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/a", 0, 0, &[1u8; 100], None).unwrap();
        assert_eq!(s.bytes_dirty(), 100);
        assert!(s.has_dirty_for("/a"));
        let (data, generation) = s.copy_snapshot("/a", 0).unwrap();
        assert_eq!(data.len(), 100);
        // A write after the snapshot bumps the generation: the stale drain
        // must not mark the extent clean.
        s.write_extent("/a", 0, 0, &[2u8; 10], None).unwrap();
        assert!(!s.mark_clean("/a", 0, generation));
        assert_eq!(s.bytes_dirty(), 100);
        // Draining the current generation succeeds.
        let (_, generation) = s.copy_snapshot("/a", 0).unwrap();
        assert!(s.mark_clean("/a", 0, generation));
        assert_eq!(s.bytes_dirty(), 0);
        assert_eq!(s.bytes_clean(), 100);
        assert!(!s.has_dirty_for("/a"));
        assert!(s.copy_snapshot("/a", 0).is_none());
    }

    #[test]
    fn dirty_bytes_account_growth_not_overwrite() {
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/a", 0, 0, &[1u8; 100], None).unwrap();
        s.write_extent("/a", 0, 50, &[2u8; 100], None).unwrap();
        assert_eq!(s.bytes_dirty(), 150);
        assert_eq!(s.bytes_stored(), 150);
    }

    #[test]
    fn eviction_skips_dirty_extents_and_tracks_residency() {
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/clean", 0, 0, &[1u8; 100], None).unwrap();
        s.write_extent("/dirty", 0, 0, &[2u8; 100], None).unwrap();
        let (_, generation) = s.copy_snapshot("/clean", 0).unwrap();
        s.mark_clean("/clean", 0, generation);
        // Ask for full eviction: only the clean extent goes.
        let evicted = s.evict_clean_until(0);
        assert_eq!(evicted, vec![("/clean".to_string(), 0, 100)]);
        assert_eq!(s.bytes_stored(), 100);
        assert_eq!(s.bytes_dirty(), 100);
        // The evicted extent reads as Evicted, never as zeros.
        assert_eq!(
            s.read_extent_checked("/clean", 0, 0, 10),
            ExtentRead::Evicted
        );
        assert_eq!(s.evicted_extents(Some("/clean")).len(), 1);
        // Writing to an evicted extent is refused (stage in first).
        assert!(matches!(
            s.write_extent("/clean", 0, 0, b"x", None),
            Err(FsError::NotResident(_))
        ));
        // Restore brings the bytes back clean.
        s.restore_extent("/clean", 0, extent(&[1u8; 100]), false);
        assert_eq!(
            s.read_extent_checked("/clean", 0, 0, 3),
            ExtentRead::Data(&[1, 1, 1])
        );
        assert_eq!(s.bytes_stored(), 200);
        assert_eq!(s.bytes_dirty(), 100);
        assert!(s.evicted_extents(Some("/clean")).is_empty());
    }

    #[test]
    fn restore_for_write_pins_the_extent_dirty() {
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/w", 0, 0, &[3u8; 64], None).unwrap();
        let (_, generation) = s.copy_snapshot("/w", 0).unwrap();
        s.mark_clean("/w", 0, generation);
        s.evict_clean_until(0);
        // Restore-for-write: the extent comes back dirty, so eviction cannot
        // reclaim it before the write lands.
        s.restore_extent("/w", 0, extent(&[3u8; 64]), true);
        assert_eq!(s.bytes_dirty(), 64);
        assert!(s.evict_clean_until(0).is_empty());
        assert!(s.write_extent("/w", 0, 10, b"ok", None).is_ok());
    }

    #[test]
    fn dirty_extents_respects_limit_and_exclusion() {
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/a", 0, 0, &[1u8; 10], None).unwrap();
        s.write_extent("/a", 1, 0, &[1u8; 20], None).unwrap();
        s.write_extent("/b", 0, 0, &[1u8; 30], None).unwrap();
        let keep = |key: &(String, u64), _: &DirtyExtent| *key != ("/a".to_string(), 0);
        let d = s.dirty_extents(10, keep);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|(p, st, _, _)| !(p == "/a" && *st == 0)));
        assert_eq!(s.dirty_extents(1, keep).len(), 1);
    }

    #[test]
    fn remove_extents_purges_dirty_and_evicted_state() {
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/a", 0, 0, &[1u8; 50], None).unwrap();
        s.write_extent("/a", 1, 0, &[1u8; 50], None).unwrap();
        let (_, generation) = s.copy_snapshot("/a", 1).unwrap();
        s.mark_clean("/a", 1, generation);
        s.evict_clean_until(50);
        assert_eq!(s.evicted_extents(Some("/a")).len(), 1);
        s.remove_extents("/a");
        assert_eq!(s.bytes_dirty(), 0);
        assert_eq!(s.bytes_stored(), 0);
        assert!(s.evicted_extents(None).is_empty());
        // The previously evicted stripe now reads as a hole (unlinked), not
        // Evicted.
        assert_eq!(s.read_extent_checked("/a", 1, 0, 1), ExtentRead::Hole);
    }

    #[test]
    fn read_through_fetch_does_not_unevict_so_no_evictor_race() {
        // The read-through path serves evicted extents from the capacity
        // tier *without* restoring them into the shard (see
        // `BurstBufferFs::read_at_with`). The shard-level property that
        // makes this race-free: a fetch changes nothing, so an evictor
        // running before, between, or after fetches always sees the same
        // state, and repeated reads keep being served from the tier.
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/rt", 0, 0, &[9u8; 64], None).unwrap();
        let (tier_copy, generation) = s.copy_snapshot("/rt", 0).unwrap();
        s.mark_clean("/rt", 0, generation);
        s.evict_clean_until(0);
        for _ in 0..3 {
            // Reader: observes Evicted, would fetch `tier_copy`.
            assert_eq!(s.read_extent_checked("/rt", 0, 0, 64), ExtentRead::Evicted);
            // Evictor: nothing clean left; the evicted entry is stable.
            assert!(s.evict_clean_until(0).is_empty());
            assert_eq!(s.evicted_extents(Some("/rt")).len(), 1);
        }
        assert_eq!(tier_copy, vec![9u8; 64]);
    }

    #[test]
    fn restore_for_write_pin_beats_concurrent_evictor() {
        // The restore-for-write race: a writer stages an evicted extent
        // back in to apply a partial overwrite while an evictor is under
        // watermark pressure. The pin (restore dirty) must win: the evictor
        // between restore and write reclaims nothing, and the write lands
        // on the restored bytes.
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/pin", 0, 0, &[5u8; 128], None).unwrap();
        let (tier_copy, generation) = s.copy_snapshot("/pin", 0).unwrap();
        s.mark_clean("/pin", 0, generation);
        s.evict_clean_until(0);
        // Writer: restore pinned dirty.
        s.restore_extent("/pin", 0, tier_copy.clone(), true);
        // Evictor fires between the restore and the write — full pressure.
        assert!(s.evict_clean_until(0).is_empty(), "pinned extent evicted");
        // Writer retries; the overwrite merges with the restored bytes.
        s.write_extent("/pin", 0, 10, b"ok", None).unwrap();
        let got = read(&s, "/pin", 0, 0, 128);
        assert_eq!(&got[..10], &[5u8; 10]);
        assert_eq!(&got[10..12], b"ok");
        assert_eq!(&got[12..], &[5u8; 116]);
        // The write copied the buffer the restore shared with the tier.
        assert_eq!(tier_copy, vec![5u8; 128]);
        // Un-pinned restores (the plain stage-in path) stay evictable.
        let (_, generation) = s.copy_snapshot("/pin", 0).unwrap();
        s.mark_clean("/pin", 0, generation);
        assert_eq!(s.evict_clean_until(0).len(), 1);
    }

    #[test]
    fn cow_snapshot_shares_the_buffer_until_the_next_write() {
        // A drain snapshot is the shard's own buffer; the next write copies
        // the shard's side and leaves the snapshot's bytes alone. A restore
        // keeps the buffer it is handed.
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/c", 0, 0, &[1u8; 64], None).unwrap();
        let (snapshot, generation) = s.copy_snapshot("/c", 0).unwrap();
        assert!(snapshot.shares_buffer(&s.resident_extent("/c", 0).unwrap()));
        s.write_extent("/c", 0, 8, &[2u8; 8], None).unwrap();
        assert_eq!(snapshot, vec![1u8; 64]);
        assert!(!snapshot.shares_buffer(&s.resident_extent("/c", 0).unwrap()));
        assert_eq!(&read(&s, "/c", 0, 8, 8), &[2u8; 8]);
        assert!(!s.mark_clean("/c", 0, generation));

        let (latest, generation) = s.copy_snapshot("/c", 0).unwrap();
        assert!(s.mark_clean("/c", 0, generation));
        s.evict_clean_until(0);
        s.restore_extent("/c", 0, latest.clone(), false);
        assert!(latest.shares_buffer(&s.resident_extent("/c", 0).unwrap()));
    }

    #[test]
    fn cow_whole_extent_write_keeps_the_callers_buffer() {
        // A write from the first byte of an extent no longer than it keeps
        // the caller's buffer; the accounting and generation bump match the
        // copying path, and a drain snapshot keeps the buffer it took.
        let mut s = Shard::new(ServerId(0));
        let mut first = vec![1u8; 64];
        let ptr = first.as_ptr();
        s.write_whole_extent("/w", 0, &mut first, None).unwrap();
        assert!(first.is_empty());
        assert_eq!(s.resident_extent("/w", 0).unwrap().as_ptr(), ptr);
        assert_eq!((s.bytes_stored(), s.bytes_dirty()), (64, 64));
        let (snapshot, generation) = s.copy_snapshot("/w", 0).unwrap();

        // An adopting overwrite (growing the extent) while the snapshot is
        // out: the snapshot keeps its bytes and the extent stays dirty.
        let mut second = vec![2u8; 80];
        s.write_whole_extent("/w", 0, &mut second, None).unwrap();
        assert_eq!(snapshot, vec![1u8; 64]);
        assert!(!s.mark_clean("/w", 0, generation));
        assert_eq!((s.bytes_stored(), s.bytes_dirty()), (80, 80));
        let (_, generation) = s.copy_snapshot("/w", 0).unwrap();
        assert!(s.mark_clean("/w", 0, generation));
        assert_eq!(s.bytes_dirty(), 0);

        // A shorter write copies into the longer extent and leaves the
        // caller's buffer alone; clean→dirty adds the whole extent.
        let mut short = vec![3u8; 16];
        s.write_whole_extent("/w", 0, &mut short, None).unwrap();
        assert_eq!(short, vec![3u8; 16]);
        assert_eq!(
            &read(&s, "/w", 0, 0, 80)[..],
            &[[3u8; 16], [2u8; 16], [2u8; 16], [2u8; 16], [2u8; 16]].concat()[..]
        );
        assert_eq!((s.bytes_stored(), s.bytes_dirty()), (80, 80));

        // An evicted extent refuses the write and the buffer stays put.
        let (_, generation) = s.copy_snapshot("/w", 0).unwrap();
        s.mark_clean("/w", 0, generation);
        s.evict_clean_until(0);
        let mut late = vec![4u8; 80];
        assert!(matches!(
            s.write_whole_extent("/w", 0, &mut late, None),
            Err(FsError::NotResident(_))
        ));
        assert_eq!(late, vec![4u8; 80]);
    }

    #[test]
    fn stale_generation_cannot_clean_a_pinned_restore() {
        // Interleaving: drain completes for generation g, extent is evicted,
        // then restored-for-write (fresh generation g'). A drain ack still
        // in flight for g must not mark the pinned extent clean — that
        // would re-expose it to the evictor before the write lands.
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/g", 0, 0, &[1u8; 32], None).unwrap();
        let (data, g) = s.copy_snapshot("/g", 0).unwrap();
        assert!(s.mark_clean("/g", 0, g));
        s.evict_clean_until(0);
        s.restore_extent("/g", 0, data, true);
        // The stale drain ack arrives now.
        assert!(!s.mark_clean("/g", 0, g), "stale generation accepted");
        assert_eq!(s.bytes_dirty(), 32, "pin must survive the stale ack");
        assert!(s.evict_clean_until(0).is_empty());
        // The current generation still cleans normally.
        let (_, g2) = s.copy_snapshot("/g", 0).unwrap();
        assert!(g2 > g, "generations must be monotonic across restores");
        assert!(s.mark_clean("/g", 0, g2));
    }

    #[test]
    fn overwrite_mid_drain_keeps_extent_dirty_and_unevictable() {
        // Drain snapshots generation g; a concurrent overwrite bumps to
        // g+1 before the drain's capacity-tier write completes. The late
        // mark_clean(g) must fail, and until a fresh drain of g+1 lands the
        // extent must be invisible to the evictor.
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/mid", 0, 0, &[7u8; 100], None).unwrap();
        let (_, g) = s.copy_snapshot("/mid", 0).unwrap();
        // Concurrent overwrite while the drain is in flight.
        s.write_extent("/mid", 0, 40, &[8u8; 20], None).unwrap();
        assert!(!s.mark_clean("/mid", 0, g));
        assert!(s.evict_clean_until(0).is_empty(), "dirty extent evicted");
        assert_eq!(s.bytes_dirty(), 100);
        // The re-drain of the current generation succeeds and carries the
        // overwritten bytes.
        let (data, g2) = s.copy_snapshot("/mid", 0).unwrap();
        assert_eq!(&data[40..60], &[8u8; 20]);
        assert!(s.mark_clean("/mid", 0, g2));
        assert_eq!(s.evict_clean_until(0).len(), 1);
    }

    #[test]
    fn unlink_mid_drain_invalidates_the_completion() {
        // The extent vanishes (unlink) while its drain is in flight: the
        // completion must be a no-op, not resurrect state or corrupt
        // counters.
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/gone", 0, 0, &[3u8; 50], None).unwrap();
        let (_, g) = s.copy_snapshot("/gone", 0).unwrap();
        s.remove_extents("/gone");
        assert!(!s.mark_clean("/gone", 0, g));
        assert_eq!(s.bytes_dirty(), 0);
        assert_eq!(s.bytes_stored(), 0);
        assert_eq!(s.read_extent_checked("/gone", 0, 0, 1), ExtentRead::Hole);
    }

    #[test]
    fn seeded_interleavings_uphold_residency_invariants() {
        // State-machine fuzz of the drain/evict/restore protocol: random
        // interleavings of writer, drainer, evictor and reader steps (the
        // schedules a multi-threaded server would produce) must uphold, at
        // every step: dirty extents are never evicted, evicted extents are
        // never served as data, restores reproduce the tier copy exactly,
        // and a stale-generation mark_clean never succeeds.
        let mut seed: u64 = 0x5eed;
        let mut next = move || {
            // xorshift64* — deterministic, no external RNG needed here.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..64 {
            let mut s = Shard::new(ServerId(0));
            // Model: per stripe, (expected bytes, tier copy, inflight drain).
            let stripes = 3u64;
            let mut expected: Vec<Vec<u8>> = vec![Vec::new(); stripes as usize];
            let mut tier: Vec<Option<Extent>> = vec![None; stripes as usize];
            let mut inflight: Vec<Option<u64>> = vec![None; stripes as usize];
            for step in 0..200 {
                let stripe = (next() % stripes) as usize;
                match next() % 6 {
                    // Writer: overwrite a prefix of the stripe.
                    0 => {
                        let byte = (next() % 251) as u8;
                        let len = 8 + (next() % 56) as usize;
                        match s.write_extent("/f", stripe as u64, 0, &vec![byte; len], None) {
                            Ok(()) => {
                                if expected[stripe].len() < len {
                                    expected[stripe].resize(len, 0);
                                }
                                expected[stripe][..len].fill(byte);
                            }
                            Err(FsError::NotResident(_)) => {
                                // Writer must stage in first: restore-for-
                                // write pinned, then retry.
                                let copy = tier[stripe].clone().expect("evicted implies tier copy");
                                s.restore_extent("/f", stripe as u64, copy, true);
                                s.write_extent("/f", stripe as u64, 0, &vec![byte; len], None)
                                    .expect("restored extent must accept writes");
                                if expected[stripe].len() < len {
                                    expected[stripe].resize(len, 0);
                                }
                                expected[stripe][..len].fill(byte);
                            }
                            Err(e) => panic!("case {case} step {step}: {e}"),
                        }
                    }
                    // Drainer: snapshot the current generation.
                    1 => {
                        if let Some((data, g)) = s.copy_snapshot("/f", stripe as u64) {
                            tier[stripe] = Some(data);
                            inflight[stripe] = Some(g);
                        }
                    }
                    // Drain completion: generation-guarded mark_clean.
                    2 => {
                        if let Some(g) = inflight[stripe].take() {
                            let cleaned = s.mark_clean("/f", stripe as u64, g);
                            if cleaned {
                                assert_eq!(
                                    tier[stripe].as_deref(),
                                    Some(&expected[stripe][..]),
                                    "case {case} step {step}: drained copy is stale"
                                );
                            }
                        }
                    }
                    // Evictor: full watermark pressure.
                    3 => {
                        for (path, st, len) in s.evict_clean_until(0) {
                            assert_eq!(path, "/f");
                            assert_eq!(
                                tier[st as usize].as_ref().map(|t| t.len() as u64),
                                Some(len),
                                "case {case} step {step}: evicted without a tier copy"
                            );
                        }
                    }
                    // Stage-in: restore a random evicted stripe clean.
                    4 => {
                        if matches!(
                            s.read_extent_checked("/f", stripe as u64, 0, 1),
                            ExtentRead::Evicted
                        ) {
                            let copy = tier[stripe].clone().expect("tier copy exists");
                            s.restore_extent("/f", stripe as u64, copy, false);
                        }
                    }
                    // Reader: residency-aware read.
                    _ => {
                        match s.read_extent_checked(
                            "/f",
                            stripe as u64,
                            0,
                            expected[stripe].len().max(1) as u64,
                        ) {
                            ExtentRead::Data(d) => {
                                assert_eq!(
                                    d, expected[stripe],
                                    "case {case} step {step}: resident bytes diverged"
                                );
                            }
                            ExtentRead::Hole => {
                                assert!(
                                    expected[stripe].is_empty(),
                                    "case {case} step {step}: written stripe read as hole"
                                );
                            }
                            ExtentRead::Evicted => {
                                // Read-through: the tier copy must match the
                                // expected bytes exactly.
                                assert_eq!(
                                    tier[stripe].as_deref(),
                                    Some(&expected[stripe][..]),
                                    "case {case} step {step}: tier copy is stale"
                                );
                            }
                        }
                    }
                }
                // Global invariants after every step.
                assert!(s.bytes_dirty() <= s.bytes_stored());
            }
        }
    }

    /// A landed copy ends the extent's dirty entry: nothing is left to copy
    /// until the next write.
    #[test]
    fn copy_out_mark_clean_clears_the_claim() {
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/c", 0, 0, &[1u8; 64], None).unwrap();
        let (data, generation) = s.copy_snapshot("/c", 0).expect("dirty");
        assert_eq!(data, vec![1u8; 64]);
        assert!(s.mark_clean("/c", 0, generation));
        assert!(s.dirty_state("/c", 0).is_none());
        assert!(
            s.copy_snapshot("/c", 0).is_none(),
            "clean has nothing to copy"
        );
        // The next write dirties a fresh generation; every earlier one is in
        // the tier.
        s.write_extent("/c", 0, 0, &[2u8; 8], None).unwrap();
        let state = s.dirty_state("/c", 0).unwrap();
        assert!(state.generation > generation);
        assert_eq!(state.landed, state.generation - 1);
    }

    /// A write while a copy is in flight hands the next copy its newer
    /// generation; the late landing records the older one as landed.
    #[test]
    fn copy_out_newer_write_is_claimable() {
        let mut s = Shard::new(ServerId(0));
        s.write_extent("/c", 0, 0, &[1u8; 64], None).unwrap();
        let (old, g1) = s.copy_snapshot("/c", 0).unwrap();
        // A write lands while the copy of g1 is in flight.
        s.write_extent("/c", 0, 0, &[2u8; 8], None).unwrap();
        let (new, g2) = s.copy_snapshot("/c", 0).unwrap();
        assert!(g2 > g1);
        assert_eq!((old[0], new[0]), (1, 2));
        // The copy of g1 lands late: the extent stays dirty, but its entry
        // now says g1 is in the tier, and a stale landing never lowers that.
        assert!(!s.mark_clean("/c", 0, g1));
        assert_eq!(s.dirty_state("/c", 0).unwrap().landed, g1);
        assert!(!s.mark_clean("/c", 0, g1 - 1));
        assert_eq!(s.dirty_state("/c", 0).unwrap().landed, g1);
        assert_eq!(s.dirty_extents(8, |_, _| true).len(), 1);
        assert!(s.mark_clean("/c", 0, g2));
    }

    #[test]
    fn remove_extents_frees_bytes_for_that_path_only() {
        let mut s = Shard::new(ServerId(1));
        s.write_extent("/a", 0, 0, &[1u8; 50], None).unwrap();
        s.write_extent("/a", 3, 0, &[1u8; 25], None).unwrap();
        s.write_extent("/b", 0, 0, &[1u8; 10], None).unwrap();
        assert_eq!(s.remove_extents("/a"), 75);
        assert_eq!(s.bytes_stored(), 10);
        assert_eq!(read(&s, "/b", 0, 0, 10).len(), 10);
    }

    /// The stripe state as it was kept before the hashed per-path entries:
    /// three `BTreeMap`s keyed by `(path, stripe)`, scanned in key order.
    /// The reference [`Shard`]'s stripe operations are held to.
    #[derive(Default)]
    struct KeyedStripes {
        extents: BTreeMap<(String, u64), Vec<u8>>,
        dirty: BTreeMap<(String, u64), DirtyExtent>,
        evicted: BTreeMap<(String, u64), u64>,
        bytes_stored: u64,
        bytes_dirty: u64,
        next_generation: u64,
    }

    impl KeyedStripes {
        fn key(path: &str, stripe: u64) -> (String, u64) {
            (path.to_string(), stripe)
        }

        fn range(path: &str) -> std::ops::RangeInclusive<(String, u64)> {
            Self::key(path, 0)..=Self::key(path, u64::MAX)
        }

        fn write(&mut self, path: &str, stripe: u64, offset: u64, data: &[u8]) -> bool {
            let key = Self::key(path, stripe);
            if self.evicted.contains_key(&key) {
                return false;
            }
            let extent = self.extents.entry(key.clone()).or_default();
            let old_len = extent.len() as u64;
            let end = offset as usize + data.len();
            if extent.len() < end {
                extent.resize(end, 0);
            }
            extent[offset as usize..end].copy_from_slice(data);
            let new_len = extent.len() as u64;
            self.bytes_stored += new_len - old_len;
            let fresh = self.dirty_with(key);
            self.bytes_dirty += if fresh { new_len } else { new_len - old_len };
            true
        }

        fn dirty_with(&mut self, key: (String, u64)) -> bool {
            self.next_generation += 1;
            let generation = self.next_generation;
            let landed = self.dirty.get(&key).map_or(generation - 1, |d| d.landed);
            let entry = DirtyExtent {
                generation,
                landed,
                writer: None,
            };
            self.dirty.insert(key, entry).is_none()
        }

        fn read(&self, path: &str, stripe: u64, offset: u64, len: u64) -> ExtentRead<'_> {
            let key = Self::key(path, stripe);
            if self.evicted.contains_key(&key) {
                return ExtentRead::Evicted;
            }
            match self.extents.get(&key) {
                None => ExtentRead::Hole,
                Some(extent) => ExtentRead::Data(extent_range(extent, offset, len)),
            }
        }

        fn mark_clean(&mut self, path: &str, stripe: u64, generation: u64) -> bool {
            let key = Self::key(path, stripe);
            match self.dirty.get_mut(&key) {
                Some(d) if d.generation == generation => {
                    self.dirty.remove(&key);
                    let len = self.extents.get(&key).map_or(0, |e| e.len() as u64);
                    self.bytes_dirty -= len;
                    true
                }
                Some(d) => {
                    d.landed = d.landed.max(generation);
                    false
                }
                None => false,
            }
        }

        fn evict_clean_until(&mut self, target: u64) -> Vec<(String, u64, u64)> {
            let mut evicted = Vec::new();
            if self.bytes_stored <= target || self.bytes_stored == self.bytes_dirty {
                return evicted;
            }
            let clean: Vec<(String, u64)> = self
                .extents
                .keys()
                .filter(|k| !self.dirty.contains_key(*k))
                .cloned()
                .collect();
            for key in clean {
                if self.bytes_stored <= target {
                    break;
                }
                let len = self.extents.remove(&key).map_or(0, |e| e.len() as u64);
                self.bytes_stored -= len;
                self.evicted.insert(key.clone(), len);
                evicted.push((key.0, key.1, len));
            }
            evicted
        }

        fn restore(&mut self, path: &str, stripe: u64, data: &[u8], mark_dirty: bool) {
            let key = Self::key(path, stripe);
            if self.extents.contains_key(&key) {
                return;
            }
            self.evicted.remove(&key);
            self.bytes_stored += data.len() as u64;
            if mark_dirty {
                self.bytes_dirty += data.len() as u64;
                self.dirty_with(key.clone());
            }
            self.extents.insert(key, data.to_vec());
        }

        fn remove(&mut self, path: &str) -> u64 {
            let keys: Vec<_> = self
                .extents
                .range(Self::range(path))
                .map(|(k, _)| k.clone())
                .collect();
            let mut freed = 0;
            for key in keys {
                let len = self.extents.remove(&key).map_or(0, |e| e.len() as u64);
                freed += len;
                if self.dirty.remove(&key).is_some() {
                    self.bytes_dirty -= len;
                }
            }
            self.evicted.retain(|k, _| k.0 != path);
            self.bytes_stored -= freed;
            freed
        }

        fn dirty_extents(
            &self,
            limit: usize,
            keep: impl Fn(&(String, u64), &DirtyExtent) -> bool,
        ) -> Vec<(String, u64, DirtyExtent, u64)> {
            self.dirty
                .iter()
                .filter(|(k, d)| keep(k, d))
                .take(limit)
                .map(|(k, d)| (k.0.clone(), k.1, *d, self.extents[k].len() as u64))
                .collect()
        }
    }

    /// The shard's ordered indexes and counters agree with its per-path
    /// entries: every dirty key is in `dirty_keys`, every clean resident key
    /// in `clean_keys`, and nothing else is in either.
    fn assert_indexes_agree(s: &Shard, context: &str) {
        let (mut dirty, mut clean, mut evicted) = (BTreeSet::new(), BTreeSet::new(), 0);
        for (path, file) in &s.files {
            let mut dirty_here = 0;
            for (&stripe, state) in &file.stripes {
                let key = (path.clone(), stripe);
                match state {
                    Stripe::Resident { dirty: Some(_), .. } => {
                        dirty_here += 1;
                        dirty.insert(key);
                    }
                    Stripe::Resident { dirty: None, .. } => {
                        clean.insert(key);
                    }
                    Stripe::Evicted(_) => evicted += 1,
                }
            }
            assert_eq!(file.dirty, dirty_here, "{context}: dirty count of {path}");
        }
        assert_eq!(s.dirty_keys, dirty, "{context}: dirty index");
        assert_eq!(s.clean_keys, clean, "{context}: clean index");
        assert_eq!(s.evicted, evicted, "{context}: evicted count");
    }

    /// Twin model: seeded sequences of every stripe operation, on paths
    /// that share prefixes and several stripes each, leave the hashed
    /// shard's every view equal to the `(path, stripe)`-keyed reference
    /// after every step: reads, dirty state, copy snapshots, dirty scans in
    /// admission order (all, and the first one a filter keeps), eviction
    /// victims in order, evicted records and the byte counters.
    #[test]
    fn hashed_stripes_match_the_keyed_reference_property() {
        let mut seed: u64 = 0x7a1e_5eed;
        let mut next = move |n: u64| {
            // xorshift64*: deterministic, no external RNG in this crate.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1)
        };
        let paths = ["/a", "/a/b", "/ab", "/b", "/c/d"];
        let keep =
            |key: &(String, u64), d: &DirtyExtent| key.1 % 2 == 1 || d.generation.is_multiple_of(3);
        // How often each operation changed something, so a generator
        // change cannot quietly stop exercising one.
        let mut hits = [0u32; 8];
        for case in 0..64 {
            let mut s = Shard::new(ServerId(0));
            let mut m = KeyedStripes::default();
            for step in 0..300 {
                let context = format!("case {case} step {step}");
                let path = paths[next(paths.len() as u64) as usize];
                let stripe = next(4);
                let byte = 1 + next(255) as u8;
                let key = (path.to_string(), stripe);
                match next(10) {
                    0..=2 => {
                        let (offset, len) = (next(48), 1 + next(48));
                        let data = vec![byte; len as usize];
                        let got = s.write_extent(path, stripe, offset, &data, None);
                        let want = m.write(path, stripe, offset, &data);
                        assert_eq!(got.is_ok(), want, "{context}: copying write");
                        hits[0] += u32::from(want);
                    }
                    3 => {
                        let mut data = vec![byte; 1 + next(64) as usize];
                        let keeps = m.extents.get(&key).is_none_or(|e| e.len() <= data.len());
                        let want = m.write(path, stripe, 0, &data.clone());
                        let got = s.write_whole_extent(path, stripe, &mut data, None);
                        assert_eq!(got.is_ok(), want, "{context}: whole write");
                        assert_eq!(data.is_empty(), want && keeps, "{context}: kept buffer");
                        hits[1] += u32::from(want);
                    }
                    4 => {
                        let current = m.dirty.get(&key).map_or(next(8), |d| d.generation);
                        let cleaned = m.mark_clean(path, stripe, current);
                        assert_eq!(s.mark_clean(path, stripe, current), cleaned, "{context}");
                        hits[2] += u32::from(cleaned);
                    }
                    5 => {
                        let stale = m
                            .dirty
                            .get(&key)
                            .map_or(0, |d| d.generation.saturating_sub(1 + next(3)));
                        let cleaned = m.mark_clean(path, stripe, stale);
                        assert_eq!(s.mark_clean(path, stripe, stale), cleaned, "{context}");
                        hits[3] += u32::from(m.dirty.get(&key).is_some_and(|d| d.landed == stale));
                    }
                    6 => {
                        let target = next(m.bytes_stored + 16);
                        let victims = m.evict_clean_until(target);
                        assert_eq!(s.evict_clean_until(target), victims, "{context}: victims");
                        hits[4] += u32::from(!victims.is_empty());
                    }
                    7 | 8 => {
                        let mark_dirty = next(2) == 0;
                        let data = vec![byte; next(64) as usize];
                        let evicted = m.evicted.contains_key(&key);
                        m.restore(path, stripe, &data, mark_dirty);
                        s.restore_extent(path, stripe, Extent::from(data), mark_dirty);
                        hits[5 + usize::from(mark_dirty)] += u32::from(evicted);
                    }
                    _ => {
                        let freed = m.remove(path);
                        assert_eq!(s.remove_extents(path), freed, "{context}: freed");
                        hits[7] += u32::from(freed > 0);
                    }
                }
                for path in paths {
                    assert_eq!(
                        s.has_dirty_for(path),
                        m.dirty.range(KeyedStripes::range(path)).next().is_some(),
                        "{context}: {path}"
                    );
                    for stripe in 0..4 {
                        let key = format!("{context}: {path} stripe {stripe}");
                        let (offset, len) = (next(32), next(64));
                        assert_eq!(
                            s.read_extent_checked(path, stripe, offset, len),
                            m.read(path, stripe, offset, len),
                            "{key}"
                        );
                        assert_eq!(
                            s.read_extent_checked(path, stripe, 0, u64::MAX),
                            m.read(path, stripe, 0, u64::MAX),
                            "{key}"
                        );
                        let state = m.dirty.get(&(path.to_string(), stripe)).copied();
                        assert_eq!(s.dirty_state(path, stripe), state, "{key}");
                        let snapshot = s.copy_snapshot(path, stripe).map(|(e, g)| (e.to_vec(), g));
                        let want = state.map(|d| {
                            (m.extents[&(path.to_string(), stripe)].clone(), d.generation)
                        });
                        assert_eq!(snapshot, want, "{key}");
                    }
                }
                assert_eq!(
                    s.dirty_extents(usize::MAX, |_, _| true),
                    m.dirty_extents(usize::MAX, |_, _| true),
                    "{context}"
                );
                assert_eq!(
                    s.dirty_extents(1, keep),
                    m.dirty_extents(1, keep),
                    "{context}"
                );
                let evicted: Vec<_> = m
                    .evicted
                    .iter()
                    .map(|(k, len)| (k.0.clone(), k.1, *len))
                    .collect();
                assert_eq!(s.evicted_extents(None), evicted, "{context}");
                assert_eq!(s.evicted_len(), m.evicted.len(), "{context}");
                assert_eq!(
                    (s.bytes_stored(), s.bytes_dirty(), s.bytes_clean()),
                    (
                        m.bytes_stored,
                        m.bytes_dirty,
                        m.bytes_stored - m.bytes_dirty
                    ),
                    "{context}"
                );
                assert_indexes_agree(&s, &context);
            }
        }
        for (what, n) in [
            "copying writes",
            "whole writes",
            "current cleans",
            "stale landings",
            "evictions",
            "clean restores",
            "dirty restores",
            "removals",
        ]
        .iter()
        .zip(hits)
        {
            assert!(n > 100, "only {n} steps changed state by {what}");
        }
    }
}

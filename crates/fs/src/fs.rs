//! The distributed, user-space burst-buffer file system (§4.3).
//!
//! [`BurstBufferFs`] stitches the per-server [`Shard`]s together behind a
//! consistent-hash ring: metadata and directory content live on the server a
//! path hashes to, stripe data lives on the servers named by the file's
//! [`FileLayout`]. All operations are safe for concurrent use: concurrent
//! reads take shared locks, concurrent writes to non-conflicting byte ranges
//! proceed on independent shards, and metadata updates take the owning
//! shard's exclusive lock — matching the locking discipline described in the
//! paper ("Concurrent read operations … without locking; a locking mechanism
//! is used when multiple threads are updating the file metadata").

use crate::error::{FsError, FsResult};
use crate::layout::{Chunk, FileLayout, StripeConfig};
use crate::path;
use crate::ring::{HashRing, ServerId};
use crate::store::{
    extent_range, DirtyExtent, Extent, ExtentRead, FileMeta, Shard, StatInfo, Writer,
};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Flags accepted by [`BurstBufferFs::open`], a subset of POSIX `open(2)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Create the file if it does not exist (`O_CREAT`).
    pub create: bool,
    /// Truncate the file to zero length on open (`O_TRUNC`).
    pub truncate: bool,
    /// Position the cursor at the end of the file (`O_APPEND`).
    pub append: bool,
}

impl OpenFlags {
    /// Read-only open of an existing file.
    pub fn read_only() -> Self {
        OpenFlags::default()
    }

    /// Create-or-truncate, the usual "write a fresh output file" mode.
    pub fn create_truncate() -> Self {
        OpenFlags {
            create: true,
            truncate: true,
            append: false,
        }
    }
}

/// `whence` argument of [`BurstBufferFs::lseek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// Seek from the start of the file.
    Set,
    /// Seek relative to the current cursor.
    Cur,
    /// Seek relative to the end of the file.
    End,
}

/// A write resolved once: its normalised path, the server owning the path's
/// metadata, the file's stripe size and the write's per-server chunks.
struct WritePlan<'p> {
    path: Cow<'p, str>,
    owner: ServerId,
    stripe_size: u64,
    chunks: Vec<Chunk>,
}

/// An open file descriptor.
#[derive(Debug, Clone)]
struct OpenFile {
    path: String,
    cursor: u64,
}

/// The cluster-wide burst-buffer file system.
///
/// Cloning is cheap (`Arc` internally); clones share the same storage.
#[derive(Debug, Clone)]
pub struct BurstBufferFs {
    inner: Arc<FsInner>,
}

#[derive(Debug)]
struct FsInner {
    ring: HashRing,
    shards: Vec<RwLock<Shard>>,
    default_stripe: StripeConfig,
    fds: Mutex<HashMap<u64, OpenFile>>,
    next_fd: AtomicU64,
}

impl BurstBufferFs {
    /// Creates a file system over `n_servers` burst-buffer servers with the
    /// default striping (1 MiB, single stripe).
    pub fn new(n_servers: usize) -> Self {
        Self::with_stripe_config(n_servers, StripeConfig::default())
    }

    /// Creates a file system with an explicit default stripe configuration.
    pub fn with_stripe_config(n_servers: usize, default_stripe: StripeConfig) -> Self {
        let n = n_servers.max(1);
        let ring = HashRing::new(n);
        let shards: Vec<RwLock<Shard>> = (0..n)
            .map(|i| RwLock::new(Shard::new(ServerId(i))))
            .collect();
        let fs = BurstBufferFs {
            inner: Arc::new(FsInner {
                ring,
                shards,
                default_stripe,
                fds: Mutex::new(HashMap::new()),
                next_fd: AtomicU64::new(3), // 0/1/2 reserved, as in POSIX
            }),
        };
        // Materialise the root directory on its owning shard.
        let root_owner = fs.meta_owner("/");
        {
            let mut shard = fs.inner.shards[root_owner.0].write();
            let meta = FileMeta {
                path: "/".to_string(),
                is_dir: true,
                size: 0,
                layout: FileLayout {
                    config: default_stripe,
                    servers: vec![root_owner],
                },
                created_ns: 0,
                modified_ns: 0,
            };
            let _ = shard.insert_meta(meta);
            shard.ensure_dir_set("/");
        }
        fs
    }

    /// Number of burst-buffer servers.
    pub fn server_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The consistent-hash ring used for placement.
    pub fn ring(&self) -> &HashRing {
        &self.inner.ring
    }

    /// The server owning the *metadata* of `path`.
    pub fn meta_owner(&self, p: &str) -> ServerId {
        self.inner
            .ring
            .owner(p)
            .expect("ring always has at least one server")
    }

    /// Total bytes stored across all shards.
    pub fn total_bytes_stored(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().bytes_stored())
            .sum()
    }

    // --------------------------------------------- staging (per-server view)
    //
    // The drain pipeline of server `i` operates exclusively on shard `i`:
    // these accessors expose the residency state of one shard so the server
    // core can synthesize drain traffic, complete drains, evict under
    // watermark pressure and restore staged-out extents.

    /// Bytes resident on one server's shard (clean + dirty).
    pub fn resident_bytes_on(&self, server: usize) -> u64 {
        self.inner.shards[server].read().bytes_stored()
    }

    /// Bytes in dirty (not yet drained) extents on one server's shard.
    pub fn dirty_bytes_on(&self, server: usize) -> u64 {
        self.inner.shards[server].read().bytes_dirty()
    }

    /// Whether `path` has dirty extents on `server`'s shard.
    pub fn path_dirty_on(&self, server: usize, p: &str) -> FsResult<bool> {
        let p = path::normalized(p)?;
        Ok(self.inner.shards[server].read().has_dirty_for(&p))
    }

    /// Up to `limit` dirty extents on `server` that `keep` accepts (see
    /// [`Shard::dirty_extents`]). `keep` runs under the shard's read lock.
    pub fn dirty_extents_on(
        &self,
        server: usize,
        limit: usize,
        keep: &dyn Fn(&(String, u64), &DirtyExtent) -> bool,
    ) -> Vec<(String, u64, DirtyExtent, u64)> {
        self.inner.shards[server].read().dirty_extents(limit, keep)
    }

    /// The dirty state of one extent on `server` (see
    /// [`Shard::dirty_state`]).
    pub fn dirty_state_on(&self, server: usize, p: &str, stripe: u64) -> Option<DirtyExtent> {
        self.inner.shards[server].read().dirty_state(p, stripe)
    }

    /// Snapshots a dirty extent on `server` for its copy to the capacity tier
    /// (see [`Shard::copy_snapshot`]).
    pub fn copy_snapshot_on(&self, server: usize, p: &str, stripe: u64) -> Option<(Extent, u64)> {
        self.inner.shards[server].read().copy_snapshot(p, stripe)
    }

    /// Lands a copy of `generation` on `server` (see [`Shard::mark_clean`]).
    pub fn mark_clean_on(&self, server: usize, p: &str, stripe: u64, generation: u64) -> bool {
        self.inner.shards[server]
            .write()
            .mark_clean(p, stripe, generation)
    }

    /// Evicts clean extents on `server` until resident bytes reach
    /// `target_bytes`; returns the evicted `(path, stripe, length)` records.
    pub fn evict_clean_on(&self, server: usize, target_bytes: u64) -> Vec<(String, u64, u64)> {
        self.inner.shards[server]
            .write()
            .evict_clean_until(target_bytes)
    }

    /// Restores an evicted extent on `server` from its capacity-tier buffer
    /// (see [`Shard::restore_extent`] for the `mark_dirty` pinning
    /// semantics).
    pub fn restore_extent_on(
        &self,
        server: usize,
        p: &str,
        stripe: u64,
        data: Extent,
        mark_dirty: bool,
    ) {
        self.inner.shards[server]
            .write()
            .restore_extent(p, stripe, data, mark_dirty)
    }

    /// The evicted extents of `path` (or all paths) on `server`.
    pub fn evicted_extents_on(&self, server: usize, p: Option<&str>) -> Vec<(String, u64, u64)> {
        self.inner.shards[server].read().evicted_extents(p)
    }

    /// Number of evicted extents on `server` (O(1); the staging hot path's
    /// early-out before any per-request residency scan).
    pub fn evicted_count_on(&self, server: usize) -> usize {
        self.inner.shards[server].read().evicted_len()
    }

    /// The shared buffer of a *resident* extent on `server` (clean or
    /// dirty), or `None` for holes and evicted extents. The scrubber's
    /// repair source: a clean resident extent is byte-identical to what the
    /// capacity tier is supposed to hold (pair with
    /// [`BurstBufferFs::dirty_state_on`], which answers `Some` exactly for
    /// dirty extents, to tell the two apart).
    pub fn resident_extent_on(&self, server: usize, p: &str, stripe: u64) -> Option<Extent> {
        self.inner.shards[server].read().resident_extent(p, stripe)
    }

    fn shard(&self, s: ServerId) -> &RwLock<Shard> {
        &self.inner.shards[s.0]
    }

    fn check_parent_dir(&self, p: &str) -> FsResult<String> {
        let parent = path::parent(p).ok_or_else(|| FsError::InvalidPath(p.to_string()))?;
        let owner = self.meta_owner(&parent);
        let shard = self.shard(owner).read();
        match shard.get_meta(&parent) {
            Some(m) if m.is_dir => Ok(parent),
            Some(_) => Err(FsError::NotADirectory(parent)),
            None => Err(FsError::NotFound(parent)),
        }
    }

    // ---------------------------------------------------------------- dirs

    /// Creates a directory. The parent must already exist.
    pub fn mkdir(&self, p: &str, now_ns: u64) -> FsResult<()> {
        let p = path::normalize(p)?;
        if p == "/" {
            return Err(FsError::AlreadyExists(p));
        }
        let parent = self.check_parent_dir(&p)?;
        let owner = self.meta_owner(&p);
        {
            let mut shard = self.shard(owner).write();
            shard.insert_meta(FileMeta {
                path: p.clone(),
                is_dir: true,
                size: 0,
                layout: FileLayout {
                    config: self.inner.default_stripe,
                    servers: vec![owner],
                },
                created_ns: now_ns,
                modified_ns: now_ns,
            })?;
        }
        let parent_owner = self.meta_owner(&parent);
        let name = path::file_name(&p)
            .expect("non-root path has a name")
            .to_string();
        self.shard(parent_owner)
            .write()
            .add_dirent(&parent, &name)?;
        Ok(())
    }

    /// Creates every missing directory along `p` (like `mkdir -p`).
    pub fn mkdir_all(&self, p: &str, now_ns: u64) -> FsResult<()> {
        let p = path::normalize(p)?;
        let comps = path::components(&p);
        let mut cur = String::new();
        for c in comps {
            cur.push('/');
            cur.push_str(c);
            match self.mkdir(&cur, now_ns) {
                Ok(()) | Err(FsError::AlreadyExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Lists a directory's entries in name order.
    pub fn readdir(&self, p: &str) -> FsResult<Vec<String>> {
        let p = path::normalize(p)?;
        let owner = self.meta_owner(&p);
        self.shard(owner).read().read_dir(&p)
    }

    // --------------------------------------------------------------- files

    /// Creates a regular file with the default stripe configuration.
    pub fn create(&self, p: &str, now_ns: u64) -> FsResult<()> {
        self.create_striped(p, self.inner.default_stripe, now_ns)
    }

    /// Creates a regular file with an explicit stripe configuration.
    pub fn create_striped(&self, p: &str, stripe: StripeConfig, now_ns: u64) -> FsResult<()> {
        let p = path::normalize(p)?;
        if p == "/" {
            return Err(FsError::IsADirectory(p));
        }
        let parent = self.check_parent_dir(&p)?;
        let owner = self.meta_owner(&p);
        let layout = FileLayout::place(&p, stripe, &self.inner.ring);
        {
            let mut shard = self.shard(owner).write();
            shard.insert_meta(FileMeta {
                path: p.clone(),
                is_dir: false,
                size: 0,
                layout,
                created_ns: now_ns,
                modified_ns: now_ns,
            })?;
        }
        let parent_owner = self.meta_owner(&parent);
        let name = path::file_name(&p)
            .expect("non-root path has a name")
            .to_string();
        self.shard(parent_owner)
            .write()
            .add_dirent(&parent, &name)?;
        Ok(())
    }

    /// Stats a path.
    pub fn stat(&self, p: &str) -> FsResult<StatInfo> {
        let p = path::normalized(p)?;
        let owner = self.meta_owner(&p);
        self.shard(owner).read().stat(&p)
    }

    /// Whether a path exists.
    pub fn exists(&self, p: &str) -> bool {
        self.stat(p).is_ok()
    }

    /// The stripe layout of a file, used by clients and the simulator to
    /// route per-chunk requests to the right servers.
    pub fn layout_of(&self, p: &str) -> FsResult<FileLayout> {
        let p = path::normalized(p)?;
        self.with_file(self.meta_owner(&p), &p, |meta| meta.layout.clone())
    }

    /// `f` of the metadata of the regular file at normalised path `p`,
    /// under the read lock of `owner`, the server its metadata hashes to.
    fn with_file<T>(
        &self,
        owner: ServerId,
        p: &str,
        f: impl FnOnce(&FileMeta) -> T,
    ) -> FsResult<T> {
        let shard = self.shard(owner).read();
        let meta = shard
            .get_meta(p)
            .ok_or_else(|| FsError::NotFound(p.to_string()))?;
        if meta.is_dir {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        Ok(f(meta))
    }

    /// Splits a write of `len` bytes at `offset` into per-server chunks
    /// without performing it (planning step for the arbitration layer).
    pub fn plan_io(&self, p: &str, offset: u64, len: u64) -> FsResult<Vec<Chunk>> {
        Ok(self.layout_of(p)?.chunks(offset, len))
    }

    /// Removes a file (or an empty directory).
    pub fn unlink(&self, p: &str, _now_ns: u64) -> FsResult<()> {
        let p = path::normalize(p)?;
        if p == "/" {
            return Err(FsError::InvalidArgument("cannot unlink the root".into()));
        }
        let owner = self.meta_owner(&p);
        let meta = self.shard(owner).write().remove_meta(&p)?;
        // Drop stripe extents everywhere the file was striped.
        if !meta.is_dir {
            for s in &meta.layout.servers {
                self.shard(*s).write().remove_extents(&p);
            }
        }
        let parent = path::parent(&p).expect("non-root path has a parent");
        let name = path::file_name(&p).expect("non-root path has a name");
        let parent_owner = self.meta_owner(&parent);
        self.shard(parent_owner)
            .write()
            .remove_dirent(&parent, name)?;
        Ok(())
    }

    // ------------------------------------------------------- positional IO

    /// Writes `data` at `offset` with no writer recorded (see
    /// [`BurstBufferFs::write_at_as`]).
    pub fn write_at(&self, p: &str, offset: u64, data: &[u8], now_ns: u64) -> FsResult<u64> {
        self.write_at_as(p, offset, data, now_ns, None)
    }

    /// Writes `data` at `offset`, creating extents as needed and updating the
    /// file size, and records `writer` as every touched extent's last writer.
    /// Returns the number of bytes written. A write whose end would overflow
    /// the 64-bit file address space is rejected (offsets are
    /// client-controlled; the arithmetic below must stay panic-free).
    pub fn write_at_as(
        &self,
        p: &str,
        offset: u64,
        data: &[u8],
        now_ns: u64,
        writer: Option<Writer>,
    ) -> FsResult<u64> {
        let plan = self.plan_write(p, offset, data.len())?;
        self.copy_chunks(&plan, offset, data, writer)?;
        self.finish_write(&plan, offset, data.len(), now_ns)
    }

    /// [`BurstBufferFs::write_at_as`] of a buffer the caller gives up: a
    /// write that starts on a stripe boundary and stays inside that stripe
    /// keeps `data`'s buffer as the extent instead of copying it
    /// ([`Shard::write_whole_extent`]), leaving `data` empty. Every other
    /// write copies, exactly as `write_at_as` does, and leaves `data` as it
    /// was. A write refused before it reaches the extent, `NotResident`
    /// included, leaves the buffer in place, so the caller can stage an
    /// evicted extent back in and retry with it.
    pub fn write_at_owned_as(
        &self,
        p: &str,
        offset: u64,
        data: &mut Vec<u8>,
        now_ns: u64,
        writer: Option<Writer>,
    ) -> FsResult<u64> {
        let len = data.len();
        let plan = self.plan_write(p, offset, len)?;
        match plan.chunks[..] {
            [chunk] if chunk.offset % plan.stripe_size == 0 => self
                .shard(chunk.server)
                .write()
                .write_whole_extent(&plan.path, chunk.offset / plan.stripe_size, data, writer)?,
            _ => self.copy_chunks(&plan, offset, data, writer)?,
        }
        self.finish_write(&plan, offset, len, now_ns)
    }

    /// Resolves a write of `len` bytes at `offset` with one normalisation
    /// and one metadata lookup, rejecting one that would overflow the file
    /// address space.
    fn plan_write<'p>(&self, p: &'p str, offset: u64, len: usize) -> FsResult<WritePlan<'p>> {
        let path = path::normalized(p)?;
        if offset.checked_add(len as u64).is_none() {
            return Err(FsError::InvalidArgument(format!(
                "write of {len} bytes at offset {offset} overflows the file address space"
            )));
        }
        let owner = self.meta_owner(&path);
        let (stripe_size, chunks) = self.with_file(owner, &path, |meta| {
            let layout = &meta.layout;
            (layout.config.stripe_size, layout.chunks(offset, len as u64))
        })?;
        Ok(WritePlan {
            path,
            owner,
            stripe_size,
            chunks,
        })
    }

    /// Copies each chunk of `data` (written at `offset`) into its extent.
    fn copy_chunks(
        &self,
        plan: &WritePlan<'_>,
        offset: u64,
        data: &[u8],
        writer: Option<Writer>,
    ) -> FsResult<()> {
        for chunk in &plan.chunks {
            let stripe = chunk.offset / plan.stripe_size;
            let within = chunk.offset % plan.stripe_size;
            let lo = (chunk.offset - offset) as usize;
            let hi = lo + chunk.len as usize;
            self.shard(chunk.server).write().write_extent(
                &plan.path,
                stripe,
                within,
                &data[lo..hi],
                writer,
            )?;
        }
        Ok(())
    }

    /// Grows the file size to cover a write of `len` bytes at `offset`,
    /// returning `len`.
    fn finish_write(
        &self,
        plan: &WritePlan<'_>,
        offset: u64,
        len: usize,
        now_ns: u64,
    ) -> FsResult<u64> {
        self.shard(plan.owner)
            .write()
            .update_size(&plan.path, offset + len as u64, now_ns)?;
        Ok(len as u64)
    }

    /// Reads up to `len` bytes at `offset`; the result is truncated at the
    /// current file size (short read at EOF, like POSIX `pread`).
    pub fn read_at(&self, p: &str, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        self.read_at_with(p, offset, len, &|_, _| None)
    }

    /// [`BurstBufferFs::read_at`] with a read-through fetcher for evicted
    /// extents: `fetch(path, stripe)` returns the capacity tier's buffer of
    /// the full extent. Chunks whose extent is evicted are served from the
    /// fetched buffer *without* restoring it into the shard, so a concurrent
    /// evictor cannot race the read. A fetch miss surfaces as
    /// [`FsError::NotResident`].
    ///
    /// Every returned byte is copied once: each chunk is appended straight
    /// from its extent (under the shard's read lock) or from the fetched
    /// buffer, and holes and short extents are padded with zeros.
    pub fn read_at_with(
        &self,
        p: &str,
        offset: u64,
        len: u64,
        fetch: &dyn Fn(&str, u64) -> Option<Extent>,
    ) -> FsResult<Vec<u8>> {
        let p = path::normalized(p)?;
        // The size, clamped length and chunks, in one metadata lookup.
        let Some((len, stripe_size, chunks)) = self.with_file(self.meta_owner(&p), &p, |meta| {
            let len = len.min(meta.size.checked_sub(offset).filter(|&n| n > 0)?);
            let layout = &meta.layout;
            Some((len, layout.config.stripe_size, layout.chunks(offset, len)))
        })?
        else {
            return Ok(Vec::new());
        };
        let mut out = Vec::with_capacity(len as usize);
        // The chunks tile `[offset, offset + len)` in order, so each one
        // appends where the previous one ended.
        for chunk in chunks {
            let stripe = chunk.offset / stripe_size;
            let within = chunk.offset % stripe_size;
            let evicted = match self
                .shard(chunk.server)
                .read()
                .read_extent_checked(&p, stripe, within, chunk.len)
            {
                ExtentRead::Data(data) => {
                    out.extend_from_slice(data);
                    false
                }
                ExtentRead::Hole => false,
                ExtentRead::Evicted => true,
            };
            // The bytes exist only in the capacity tier: never fake them
            // with zeros — read through the fetcher (outside the shard lock),
            // or surface the miss so a staging-aware caller can stage in and
            // retry.
            if evicted {
                let extent =
                    fetch(&p, stripe).ok_or_else(|| FsError::NotResident(p.to_string()))?;
                out.extend_from_slice(extent_range(&extent, within, chunk.len));
            }
            // A hole inside the file size, or the tail past a short extent,
            // reads as zeros (sparse file).
            out.resize((chunk.offset - offset + chunk.len) as usize, 0);
        }
        Ok(out)
    }

    /// Truncates a file to zero length (extents are removed, size reset).
    pub fn truncate(&self, p: &str, now_ns: u64) -> FsResult<()> {
        let p = path::normalize(p)?;
        let layout = self.layout_of(&p)?;
        for s in &layout.servers {
            self.shard(*s).write().remove_extents(&p);
        }
        let owner = self.meta_owner(&p);
        let mut shard = self.shard(owner).write();
        // update_size never shrinks, so reach into the metadata directly via
        // remove+reinsert of size 0 semantics: reinsert is heavy, instead use
        // a dedicated path: stat to get meta, then overwrite via update.
        let meta = shard
            .get_meta(&p)
            .cloned()
            .ok_or_else(|| FsError::NotFound(p.clone()))?;
        let mut new_meta = meta;
        new_meta.size = 0;
        new_meta.modified_ns = now_ns;
        shard.remove_meta(&p)?;
        shard.insert_meta(new_meta)?;
        Ok(())
    }

    // --------------------------------------------------- descriptor-based IO

    /// Opens a file, optionally creating/truncating it, and returns a file
    /// descriptor (the `open()` of Listing 1).
    pub fn open(&self, p: &str, flags: OpenFlags, now_ns: u64) -> FsResult<u64> {
        let p = path::normalize(p)?;
        match self.stat(&p) {
            Ok(info) => {
                if info.is_dir {
                    return Err(FsError::IsADirectory(p));
                }
                if flags.truncate {
                    self.truncate(&p, now_ns)?;
                }
            }
            Err(FsError::NotFound(_)) if flags.create => {
                self.create(&p, now_ns)?;
            }
            Err(e) => return Err(e),
        }
        let cursor = if flags.append { self.stat(&p)?.size } else { 0 };
        let fd = self.inner.next_fd.fetch_add(1, Ordering::Relaxed);
        self.inner
            .fds
            .lock()
            .insert(fd, OpenFile { path: p, cursor });
        Ok(fd)
    }

    /// Closes a file descriptor.
    pub fn close(&self, fd: u64) -> FsResult<()> {
        self.inner
            .fds
            .lock()
            .remove(&fd)
            .map(|_| ())
            .ok_or(FsError::BadDescriptor(fd))
    }

    /// Number of currently open descriptors.
    pub fn open_count(&self) -> usize {
        self.inner.fds.lock().len()
    }

    /// The path behind an open descriptor.
    pub fn fd_path(&self, fd: u64) -> FsResult<String> {
        self.inner
            .fds
            .lock()
            .get(&fd)
            .map(|f| f.path.clone())
            .ok_or(FsError::BadDescriptor(fd))
    }

    /// Writes at the descriptor's cursor and advances it (`write()`), with no
    /// writer recorded.
    pub fn write(&self, fd: u64, data: &[u8], now_ns: u64) -> FsResult<u64> {
        self.write_as(fd, data, now_ns, None)
    }

    /// [`BurstBufferFs::write`] recording `writer` as the last writer (see
    /// [`BurstBufferFs::write_at_as`]).
    pub fn write_as(
        &self,
        fd: u64,
        data: &[u8],
        now_ns: u64,
        writer: Option<Writer>,
    ) -> FsResult<u64> {
        let (path, cursor) = self.fd_cursor(fd)?;
        let written = self.write_at_as(&path, cursor, data, now_ns, writer)?;
        self.set_cursor(fd, cursor + written);
        Ok(written)
    }

    /// [`BurstBufferFs::write_as`] through
    /// [`BurstBufferFs::write_at_owned_as`]: a write from a cursor on a
    /// stripe boundary keeps `data`'s buffer as its extent.
    pub fn write_owned_as(
        &self,
        fd: u64,
        data: &mut Vec<u8>,
        now_ns: u64,
        writer: Option<Writer>,
    ) -> FsResult<u64> {
        let (path, cursor) = self.fd_cursor(fd)?;
        let written = self.write_at_owned_as(&path, cursor, data, now_ns, writer)?;
        self.set_cursor(fd, cursor + written);
        Ok(written)
    }

    /// Reads at the descriptor's cursor and advances it (`read()`).
    pub fn read(&self, fd: u64, len: u64) -> FsResult<Vec<u8>> {
        self.read_with(fd, len, &|_, _| None)
    }

    /// [`BurstBufferFs::read`] with a read-through fetcher for evicted
    /// extents (see [`BurstBufferFs::read_at_with`]).
    pub fn read_with(
        &self,
        fd: u64,
        len: u64,
        fetch: &dyn Fn(&str, u64) -> Option<Extent>,
    ) -> FsResult<Vec<u8>> {
        let (path, cursor) = self.fd_cursor(fd)?;
        let data = self.read_at_with(&path, cursor, len, fetch)?;
        self.set_cursor(fd, cursor + data.len() as u64);
        Ok(data)
    }

    /// Repositions the descriptor's cursor (`lseek()`), returning the new
    /// absolute offset.
    pub fn lseek(&self, fd: u64, offset: i64, whence: Whence) -> FsResult<u64> {
        let (path, cursor) = self.fd_cursor(fd)?;
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => cursor as i64,
            Whence::End => self.stat(&path)?.size as i64,
        };
        let target = base + offset;
        if target < 0 {
            return Err(FsError::InvalidArgument(format!(
                "seek to negative offset {target}"
            )));
        }
        let target = target as u64;
        self.set_cursor(fd, target);
        Ok(target)
    }

    /// The path and cursor of an open descriptor.
    fn fd_cursor(&self, fd: u64) -> FsResult<(String, u64)> {
        let fds = self.inner.fds.lock();
        let f = fds.get(&fd).ok_or(FsError::BadDescriptor(fd))?;
        Ok((f.path.clone(), f.cursor))
    }

    /// Moves an open descriptor's cursor (a no-op once it is closed).
    fn set_cursor(&self, fd: u64, cursor: u64) {
        if let Some(f) = self.inner.fds.lock().get_mut(&fd) {
            f.cursor = cursor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(n: usize) -> BurstBufferFs {
        BurstBufferFs::new(n)
    }

    #[test]
    fn root_exists_on_construction() {
        let f = fs(4);
        let st = f.stat("/").unwrap();
        assert!(st.is_dir);
        assert_eq!(f.readdir("/").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn mkdir_create_stat_readdir() {
        let f = fs(4);
        f.mkdir("/input", 1).unwrap();
        f.create("/input/data.bin", 2).unwrap();
        assert!(f.stat("/input").unwrap().is_dir);
        assert!(!f.stat("/input/data.bin").unwrap().is_dir);
        assert_eq!(f.readdir("/").unwrap(), vec!["input"]);
        assert_eq!(f.readdir("/input").unwrap(), vec!["data.bin"]);
    }

    #[test]
    fn mkdir_requires_parent() {
        let f = fs(2);
        assert!(matches!(f.mkdir("/a/b", 0), Err(FsError::NotFound(_))));
        f.mkdir_all("/a/b/c", 0).unwrap();
        assert!(f.stat("/a/b/c").unwrap().is_dir);
        // mkdir_all is idempotent.
        f.mkdir_all("/a/b/c", 1).unwrap();
    }

    #[test]
    fn create_duplicate_fails() {
        let f = fs(2);
        f.create("/x", 0).unwrap();
        assert!(matches!(f.create("/x", 1), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn write_read_roundtrip_single_stripe() {
        let f = fs(3);
        f.create("/data", 0).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(f.write_at("/data", 0, &payload, 1).unwrap(), 10_000);
        assert_eq!(f.stat("/data").unwrap().size, 10_000);
        assert_eq!(f.read_at("/data", 0, 10_000).unwrap(), payload);
        // Partial read.
        assert_eq!(f.read_at("/data", 100, 50).unwrap(), payload[100..150]);
        // Read past EOF is short.
        assert_eq!(f.read_at("/data", 9_990, 100).unwrap().len(), 10);
        assert_eq!(f.read_at("/data", 20_000, 10).unwrap().len(), 0);
    }

    #[test]
    fn write_at_rejects_address_space_overflow() {
        // Offsets are client-controlled: a write whose end wraps u64 must be
        // a clean error, never a panic or a wrapped-offset write.
        let f = fs(1);
        f.create("/edge", 0).unwrap();
        assert!(matches!(
            f.write_at("/edge", u64::MAX - 1, &[1, 2, 3], 1),
            Err(FsError::InvalidArgument(_))
        ));
        assert!(matches!(
            f.write_at("/edge", u64::MAX, &[1], 1),
            Err(FsError::InvalidArgument(_))
        ));
        assert_eq!(f.stat("/edge").unwrap().size, 0);
    }

    #[test]
    fn striped_write_read_roundtrip_spans_servers() {
        let f = BurstBufferFs::with_stripe_config(4, StripeConfig::new(1024, 4));
        f.create("/big", 0).unwrap();
        let layout = f.layout_of("/big").unwrap();
        assert_eq!(layout.servers.len(), 4);
        let payload: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 256) as u8).collect();
        f.write_at("/big", 0, &payload, 1).unwrap();
        assert_eq!(f.read_at("/big", 0, 8192).unwrap(), payload);
        // Unaligned range crossing several stripes.
        assert_eq!(f.read_at("/big", 1000, 3000).unwrap(), payload[1000..4000]);
        // Data actually landed on more than one shard.
        let shards_with_data = (0..4)
            .filter(|i| f.inner.shards[*i].read().bytes_stored() > 0)
            .count();
        assert!(shards_with_data > 1);
    }

    #[test]
    fn read_at_with_matches_a_flat_byte_model_property() {
        // 256 seeded files, each striped over 1-4 servers, written at random
        // offsets (leaving holes and short extents), with a random subset of
        // extents drained to a model tier and evicted and, in some cases,
        // one tier copy lost. Every random read must equal the flat byte
        // model truncated at EOF, pull evicted chunks through `fetch`, and
        // fail with NotResident exactly when it touches the lost copy.
        use std::collections::{BTreeMap, HashSet};
        let mut seed: u64 = 0x5eed_f00d;
        let mut next = move |n: u64| {
            // xorshift64*: deterministic, no external RNG in this crate.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1)
        };
        // What the cases covered, so a generator change cannot quietly stop
        // exercising a path.
        let (mut holes, mut short, mut evicted, mut misses, mut eof, mut spans) =
            (0, 0, 0, 0, 0, 0);
        for case in 0..256 {
            let servers = 1 + next(4) as usize;
            let ss = [64u64, 100, 256][next(3) as usize];
            let f = BurstBufferFs::with_stripe_config(
                servers,
                StripeConfig::new(ss, 1 + next(servers as u64) as usize),
            );
            f.create("/p", 0).unwrap();
            let layout = f.layout_of("/p").unwrap();
            // The model: file bytes, and the written length of each extent.
            let mut model: Vec<u8> = Vec::new();
            let mut extent_len: BTreeMap<u64, u64> = BTreeMap::new();
            for _ in 0..1 + next(6) {
                let (off, len) = (next(8 * ss), 1 + next(2 * ss));
                let byte = 1 + next(255) as u8;
                f.write_at("/p", off, &vec![byte; len as usize], 1).unwrap();
                let end = (off + len) as usize;
                model.resize(model.len().max(end), 0);
                model[off as usize..end].fill(byte);
                for chunk in layout.chunks(off, len) {
                    let within_end = chunk.offset % ss + chunk.len;
                    let e = extent_len.entry(chunk.offset / ss).or_default();
                    *e = (*e).max(within_end);
                }
            }
            let size = model.len() as u64;
            // Drain a random subset to the model tier and evict it.
            let mut tier: BTreeMap<(String, u64), Extent> = BTreeMap::new();
            for server in 0..servers {
                for (p, stripe, _, _) in f.dirty_extents_on(server, usize::MAX, &|_, _| true) {
                    if next(2) == 0 {
                        let (data, generation) = f.copy_snapshot_on(server, &p, stripe).unwrap();
                        assert!(f.mark_clean_on(server, &p, stripe, generation));
                        tier.insert((p, stripe), data);
                    }
                }
                f.evict_clean_on(server, 0);
            }
            // Lose one tier copy in a quarter of the cases.
            let lost = tier.keys().next().cloned().filter(|_| next(4) == 0);
            if let Some(key) = &lost {
                tier.remove(key);
            }
            for _ in 0..8 {
                let offset = next(size + ss);
                let len = next(3 * ss + 1);
                let fetched = std::cell::Cell::new(0);
                let fetch = |p: &str, stripe: u64| {
                    fetched.set(fetched.get() + 1);
                    tier.get(&(p.to_string(), stripe)).cloned()
                };
                let got = f.read_at_with("/p", offset, len, &fetch);
                let (lo, hi) = (offset.min(size), offset.saturating_add(len).min(size));
                eof += usize::from(offset + len > size);
                let touched: Vec<u64> = if hi > lo {
                    (lo / ss..=(hi - 1) / ss).collect()
                } else {
                    Vec::new()
                };
                let in_tier = |s: &u64| tier.contains_key(&("/p".to_string(), *s));
                let servers_read: HashSet<_> = layout
                    .chunks(lo, hi - lo)
                    .iter()
                    .map(|c| c.server)
                    .collect();
                spans += usize::from(servers_read.len() > 1);
                if touched
                    .iter()
                    .any(|s| lost.as_ref().is_some_and(|k| k.1 == *s))
                {
                    assert!(
                        matches!(got, Err(FsError::NotResident(_))),
                        "case {case}: a read over the lost copy returned {got:?}"
                    );
                    misses += 1;
                    continue;
                }
                assert_eq!(
                    got.unwrap(),
                    model[lo as usize..hi as usize],
                    "case {case}: read {offset}+{len} of {size}"
                );
                let evicted_touched = touched.iter().filter(|s| in_tier(s)).count();
                assert_eq!(fetched.get(), evicted_touched, "case {case}: fetches");
                evicted += evicted_touched;
                holes += touched
                    .iter()
                    .filter(|s| !extent_len.contains_key(s))
                    .count();
                short += touched
                    .iter()
                    .filter(|&&s| {
                        extent_len
                            .get(&s)
                            .is_some_and(|e| s * ss + e < hi.min((s + 1) * ss))
                    })
                    .count();
            }
        }
        for (what, n) in [
            ("holes", holes),
            ("short extents", short),
            ("evicted chunks", evicted),
            ("fetch misses", misses),
            ("EOF truncations", eof),
            ("multi-server reads", spans),
        ] {
            assert!(n > 20, "only {n} reads covered {what}");
        }
    }

    #[test]
    fn sparse_write_reads_zeros_in_hole() {
        let f = fs(2);
        f.create("/sparse", 0).unwrap();
        f.write_at("/sparse", 100, b"tail", 1).unwrap();
        assert_eq!(f.stat("/sparse").unwrap().size, 104);
        let data = f.read_at("/sparse", 0, 104).unwrap();
        assert_eq!(&data[..100], vec![0u8; 100].as_slice());
        assert_eq!(&data[100..], b"tail");
    }

    #[test]
    fn overwrite_range() {
        let f = fs(2);
        f.create("/w", 0).unwrap();
        f.write_at("/w", 0, b"hello world", 1).unwrap();
        f.write_at("/w", 6, b"there", 2).unwrap();
        assert_eq!(f.read_at("/w", 0, 64).unwrap(), b"hello there");
    }

    #[test]
    fn fd_based_io_and_lseek() {
        let f = fs(2);
        let fd = f.open("/log", OpenFlags::create_truncate(), 0).unwrap();
        f.write(fd, b"abcdef", 1).unwrap();
        f.write(fd, b"ghij", 2).unwrap();
        assert_eq!(f.stat("/log").unwrap().size, 10);
        assert_eq!(f.lseek(fd, 0, Whence::Set).unwrap(), 0);
        assert_eq!(f.read(fd, 4).unwrap(), b"abcd");
        assert_eq!(f.read(fd, 100).unwrap(), b"efghij");
        assert_eq!(f.lseek(fd, -4, Whence::End).unwrap(), 6);
        assert_eq!(f.read(fd, 4).unwrap(), b"ghij");
        assert_eq!(f.lseek(fd, 2, Whence::Cur).unwrap(), 12);
        assert!(f.lseek(fd, -100, Whence::Cur).is_err());
        f.close(fd).unwrap();
        assert!(matches!(f.read(fd, 1), Err(FsError::BadDescriptor(_))));
        assert_eq!(f.open_count(), 0);
    }

    #[test]
    fn open_without_create_fails_on_missing() {
        let f = fs(2);
        assert!(matches!(
            f.open("/missing", OpenFlags::read_only(), 0),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn open_truncate_resets_contents() {
        let f = fs(2);
        let fd = f.open("/t", OpenFlags::create_truncate(), 0).unwrap();
        f.write(fd, &[9u8; 4096], 1).unwrap();
        f.close(fd).unwrap();
        let fd = f.open("/t", OpenFlags::create_truncate(), 2).unwrap();
        assert_eq!(f.stat("/t").unwrap().size, 0);
        assert_eq!(f.read(fd, 10).unwrap().len(), 0);
        f.close(fd).unwrap();
    }

    #[test]
    fn append_positions_cursor_at_end() {
        let f = fs(2);
        f.create("/a", 0).unwrap();
        f.write_at("/a", 0, b"12345", 1).unwrap();
        let fd = f
            .open(
                "/a",
                OpenFlags {
                    create: false,
                    truncate: false,
                    append: true,
                },
                2,
            )
            .unwrap();
        f.write(fd, b"678", 3).unwrap();
        assert_eq!(f.read_at("/a", 0, 64).unwrap(), b"12345678");
    }

    #[test]
    fn unlink_removes_data_and_dirent() {
        let f = fs(3);
        f.create("/victim", 0).unwrap();
        f.write_at("/victim", 0, &[1u8; 2048], 1).unwrap();
        assert!(f.total_bytes_stored() >= 2048);
        f.unlink("/victim", 2).unwrap();
        assert!(!f.exists("/victim"));
        assert_eq!(f.total_bytes_stored(), 0);
        assert_eq!(f.readdir("/").unwrap(), Vec::<String>::new());
        assert!(matches!(f.unlink("/victim", 3), Err(FsError::NotFound(_))));
    }

    #[test]
    fn unlink_refuses_nonempty_directory() {
        let f = fs(2);
        f.mkdir("/d", 0).unwrap();
        f.create("/d/x", 1).unwrap();
        assert!(matches!(
            f.unlink("/d", 2),
            Err(FsError::DirectoryNotEmpty(_))
        ));
        f.unlink("/d/x", 3).unwrap();
        f.unlink("/d", 4).unwrap();
        assert!(!f.exists("/d"));
    }

    #[test]
    fn plan_io_reports_chunks_without_touching_data() {
        let f = BurstBufferFs::with_stripe_config(4, StripeConfig::new(512, 2));
        f.create("/p", 0).unwrap();
        let chunks = f.plan_io("/p", 0, 2048).unwrap();
        assert_eq!(chunks.len(), 4);
        assert_eq!(f.stat("/p").unwrap().size, 0);
    }

    #[test]
    fn concurrent_writers_to_disjoint_files() {
        use std::thread;
        let f = fs(4);
        f.mkdir("/out", 0).unwrap();
        let mut handles = Vec::new();
        for t in 0..8 {
            let f = f.clone();
            handles.push(thread::spawn(move || {
                let p = format!("/out/rank-{t}");
                f.create(&p, 0).unwrap();
                for i in 0..32 {
                    f.write_at(&p, i * 512, &[t as u8; 512], i).unwrap();
                }
                f.read_at(&p, 0, 32 * 512).unwrap()
            }));
        }
        for (t, h) in handles.into_iter().enumerate() {
            let data = h.join().unwrap();
            assert_eq!(data.len(), 32 * 512);
            assert!(data.iter().all(|b| *b == t as u8));
        }
        assert_eq!(f.readdir("/out").unwrap().len(), 8);
    }

    #[test]
    fn dirty_extent_records_the_last_writer_property() {
        // Interleaved writers on 1-3 servers, with drains, evictions and
        // restore-for-write pins: every dirty extent names the job of the
        // last write that touched it.
        use std::collections::{BTreeMap, HashMap};
        use themis_core::entity::{JobId, UserId};
        let mut seed: u64 = 0x0917_7e55;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1)
        };
        let writer = |job: u64| Writer {
            job: JobId(job),
            user: UserId(100 + job as u32),
        };
        let mut pins = 0;
        for case in 0..48 {
            let servers = 1 + next(3) as usize;
            let ss = 64u64;
            let f = BurstBufferFs::with_stripe_config(servers, StripeConfig::new(ss, servers));
            f.create("/w", 0).unwrap();
            let layout = f.layout_of("/w").unwrap();
            let shard_of = |stripe: u64| layout.server_for_stripe(stripe).unwrap().0;
            let fd = f.open("/w", OpenFlags::read_only(), 0).unwrap();
            let mut last: HashMap<u64, u64> = HashMap::new();
            let mut tier: BTreeMap<u64, Extent> = BTreeMap::new();
            for step in 0..120 {
                match next(4) {
                    0 | 1 => {
                        let job = 1 + next(4);
                        let (off, len) = (next(6 * ss), 1 + next(2 * ss));
                        let data = vec![job as u8; len as usize];
                        let stripes = off / ss..=(off + len - 1) / ss;
                        // Stage evicted targets back in pinned, as the
                        // server's restore-for-write does.
                        for stripe in stripes.clone() {
                            let shard = shard_of(stripe);
                            let evicted = f.evicted_extents_on(shard, Some("/w"));
                            if evicted.iter().any(|(_, s, _)| *s == stripe) {
                                let copy = tier[&stripe].clone();
                                f.restore_extent_on(shard, "/w", stripe, copy, true);
                                let pinned = f.dirty_state_on(shard, "/w", stripe);
                                assert_eq!(pinned.unwrap().writer, None, "case {case}");
                                pins += 1;
                            }
                        }
                        if next(2) == 0 {
                            f.write_at_as("/w", off, &data, step, Some(writer(job)))
                                .unwrap();
                        } else {
                            f.lseek(fd, off as i64, Whence::Set).unwrap();
                            f.write_as(fd, &data, step, Some(writer(job))).unwrap();
                        }
                        for stripe in stripes {
                            last.insert(stripe, job);
                        }
                    }
                    2 => {
                        for server in 0..servers {
                            let dirty = f.dirty_extents_on(server, usize::MAX, &|_, _| true);
                            for (p, stripe, d, _) in dirty {
                                if next(2) == 0 {
                                    let (data, g) = f.copy_snapshot_on(server, &p, stripe).unwrap();
                                    assert_eq!(g, d.generation);
                                    assert!(f.mark_clean_on(server, &p, stripe, g));
                                    tier.insert(stripe, data);
                                }
                            }
                        }
                    }
                    _ => {
                        for server in 0..servers {
                            f.evict_clean_on(server, 0);
                        }
                    }
                }
                for server in 0..servers {
                    for (_, stripe, d, _) in f.dirty_extents_on(server, usize::MAX, &|_, _| true) {
                        let expected = last.get(&stripe).map(|job| writer(*job));
                        assert_eq!(d.writer, expected, "case {case} step {step}");
                    }
                }
            }
        }
        assert!(pins > 0, "no case pinned a restore-for-write");
    }

    #[test]
    fn cow_owned_and_copying_writes_are_indistinguishable_property() {
        // Twin file systems on 1-3 servers take the same seeded steps; one
        // writes through the copying `write_at_as`/`write_as`, the other
        // through their owned variants. Whether a buffer was kept or copied
        // must never show: bytes, sizes, residency, dirty state (generation,
        // landed, writer) and error kinds stay equal after every step.
        use std::collections::BTreeMap;
        use themis_core::entity::{JobId, UserId};
        let mut seed: u64 = 0x0c0f_fee5;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1)
        };
        // The last stripe of the address space starts here (ss = 64).
        let last_stripe = u64::MAX - 63;
        // Per write kind: how often the owned side kept the buffer, and how
        // often it copied or failed.
        let mut kept: BTreeMap<&str, u32> = BTreeMap::new();
        let mut other: BTreeMap<&str, u32> = BTreeMap::new();
        for case in 0..48 {
            let servers = 1 + next(3) as usize;
            let ss = 64u64;
            let twins = [0, 1].map(|_| {
                let f = BurstBufferFs::with_stripe_config(servers, StripeConfig::new(ss, servers));
                f.create("/w", 0).unwrap();
                f.create("/edge", 0).unwrap();
                f
            });
            let [copying, owned] = &twins;
            let fd = copying.open("/w", OpenFlags::read_only(), 0).unwrap();
            assert_eq!(owned.open("/w", OpenFlags::read_only(), 0).unwrap(), fd);
            let mut tiers: [BTreeMap<(String, u64), Extent>; 2] = Default::default();
            for step in 0..150 {
                let kind = match next(8) {
                    0 | 1 => "whole",
                    2 => "short",
                    3 => "unaligned",
                    4 => "multi",
                    5 => "edge",
                    6 => "drain",
                    _ => "evict",
                };
                if kind == "drain" || kind == "evict" {
                    // Drain a random subset (same choices on both twins),
                    // then maybe evict everything clean.
                    for server in 0..servers {
                        for (p, stripe, _, _) in
                            copying.dirty_extents_on(server, usize::MAX, &|_, _| true)
                        {
                            if next(2) == 0 {
                                for (f, tier) in twins.iter().zip(tiers.iter_mut()) {
                                    let (data, g) = f.copy_snapshot_on(server, &p, stripe).unwrap();
                                    assert!(
                                        f.mark_clean_on(server, &p, stripe, g),
                                        "case {case} step {step}"
                                    );
                                    tier.insert((p.clone(), stripe), data);
                                }
                            }
                        }
                        if kind == "evict" {
                            for f in &twins {
                                f.evict_clean_on(server, 0);
                            }
                        }
                    }
                } else {
                    let (path, off, len) = match kind {
                        "whole" => ("/w", next(6) * ss, ss),
                        "short" => ("/w", next(6) * ss, 1 + next(ss - 1)),
                        "unaligned" => ("/w", next(6) * ss + 1 + next(ss - 1), 1 + next(ss - 1)),
                        "multi" => ("/w", next(6 * ss), ss + 1 + next(2 * ss)),
                        _ => match next(3) {
                            // In the last stripe: aligned, unaligned, or
                            // overflowing the address space.
                            0 => ("/edge", last_stripe, 1 + next(ss - 1)),
                            1 => ("/edge", last_stripe + 1 + next(ss - 2), 1),
                            _ => ("/edge", u64::MAX - next(ss), ss),
                        },
                    };
                    let job = 1 + next(4);
                    let writer = Some(Writer {
                        job: JobId(job),
                        user: UserId(100 + job as u32),
                    });
                    let data: Vec<u8> = (0..len).map(|i| (step * 7 + i) as u8).collect();
                    let mut buffer = data.clone();
                    let ptr = buffer.as_ptr();
                    let by_cursor = path == "/w" && next(3) == 0;
                    let (want, got) = if by_cursor {
                        copying.lseek(fd, off as i64, Whence::Set).unwrap();
                        owned.lseek(fd, off as i64, Whence::Set).unwrap();
                        (
                            copying.write_as(fd, &data, step, writer),
                            owned.write_owned_as(fd, &mut buffer, step, writer),
                        )
                    } else {
                        (
                            copying.write_at_as(path, off, &data, step, writer),
                            owned.write_at_owned_as(path, off, &mut buffer, step, writer),
                        )
                    };
                    assert_eq!(got, want, "case {case} step {step} {kind}");
                    if buffer.is_empty() {
                        // A kept buffer is the extent itself, on a stripe
                        // start, and only when the write succeeded.
                        assert!(got.is_ok() && off % ss == 0, "case {case} step {step}");
                        let layout = owned.layout_of(path).unwrap();
                        let server = layout.server_for_offset(off).unwrap().0;
                        let extent = owned.resident_extent_on(server, path, off / ss).unwrap();
                        assert_eq!(extent.as_ptr(), ptr, "case {case} step {step}");
                        *kept.entry(kind).or_default() += 1;
                    } else {
                        assert_eq!(buffer, data, "case {case} step {step}");
                        *other.entry(kind).or_default() += 1;
                    }
                    if by_cursor {
                        let cursor = |f: &BurstBufferFs| f.lseek(fd, 0, Whence::Cur).unwrap();
                        assert_eq!(cursor(owned), cursor(copying));
                    }
                }
                for server in 0..servers {
                    let all =
                        |f: &BurstBufferFs| f.dirty_extents_on(server, usize::MAX, &|_, _| true);
                    assert_eq!(all(owned), all(copying), "case {case} step {step}");
                    let state = |f: &BurstBufferFs| {
                        (
                            f.resident_bytes_on(server),
                            f.dirty_bytes_on(server),
                            f.evicted_extents_on(server, None),
                            (0..8)
                                .map(|s| f.dirty_state_on(server, "/w", s))
                                .collect::<Vec<_>>(),
                        )
                    };
                    assert_eq!(state(owned), state(copying), "case {case} step {step}");
                }
                for (path, at) in [("/w", 0), ("/edge", last_stripe - ss)] {
                    let read = |i: usize| {
                        let tier = &tiers[i];
                        let fetch =
                            |p: &str, stripe: u64| tier.get(&(p.to_string(), stripe)).cloned();
                        (
                            twins[i].stat(path).unwrap().size,
                            twins[i].read_at_with(path, at, 9 * ss, &fetch),
                        )
                    };
                    assert_eq!(read(1), read(0), "case {case} step {step}");
                }
            }
        }
        // Every write kind ran, and the owned side kept buffers exactly
        // where it may: whole and short aligned writes and the last stripe.
        for kind in ["whole", "short", "unaligned", "multi", "edge"] {
            assert!(
                kept.get(kind).copied().unwrap_or(0) + other.get(kind).copied().unwrap_or(0) > 100,
                "{kind}"
            );
        }
        for kind in ["whole", "short", "edge"] {
            assert!(
                kept.get(kind).copied().unwrap_or(0) > 20,
                "{kind} never kept: {kept:?}"
            );
        }
        for kind in ["short", "edge"] {
            assert!(
                other.get(kind).copied().unwrap_or(0) > 20,
                "{kind} never copied: {other:?}"
            );
        }
        assert!(
            !kept.contains_key("unaligned") && !kept.contains_key("multi"),
            "{kept:?}"
        );
    }
}

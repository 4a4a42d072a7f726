//! File striping across burst-buffer servers (§4.3: "Striping is supported
//! with corresponding records in file metadata").

use crate::ring::{HashRing, ServerId};
use serde::{Deserialize, Serialize};

/// Default stripe size: 1 MiB, matching the block size used throughout the
/// paper's IOR experiments.
pub const DEFAULT_STRIPE_SIZE: u64 = 1 << 20;

/// Striping parameters recorded in a file's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeConfig {
    /// Bytes per stripe unit.
    pub stripe_size: u64,
    /// Number of servers the file is striped across.
    pub stripe_count: usize,
}

impl Default for StripeConfig {
    fn default() -> Self {
        StripeConfig {
            stripe_size: DEFAULT_STRIPE_SIZE,
            stripe_count: 1,
        }
    }
}

impl StripeConfig {
    /// Creates a config, clamping degenerate values.
    pub fn new(stripe_size: u64, stripe_count: usize) -> Self {
        StripeConfig {
            stripe_size: stripe_size.max(1),
            stripe_count: stripe_count.max(1),
        }
    }

    /// A config that stripes a file over every server of a ring — the
    /// "sufficiently large stripe number" case of §3.1 where every server
    /// sees every job without synchronisation.
    pub fn spanning(ring: &HashRing) -> Self {
        StripeConfig::new(DEFAULT_STRIPE_SIZE, ring.len().max(1))
    }
}

/// Maps a 64-bit index onto a ring of `len` slots. The modulo is computed
/// in `u64` *before* narrowing: `index as usize % len` would truncate the
/// index to 32 bits on 32-bit targets first, sending e.g. stripe `1 << 32`
/// to slot 0 instead of `(1 << 32) % len` — a silent mis-placement for any
/// file whose stripe numbers exceed `u32::MAX`. Every ring-placement site
/// (stripe→server here, hash-range→replica in the sharded capacity tier)
/// must go through this helper rather than re-deriving the cast.
pub fn ring_slot(index: u64, len: usize) -> usize {
    debug_assert!(len > 0, "ring_slot over an empty ring");
    (index % len.max(1) as u64) as usize
}

/// The placement of one file: its stripe parameters plus the ordered list of
/// servers holding stripe `0, 1, …, stripe_count-1` (stripe `i` of byte range
/// `[i*stripe_size, (i+1)*stripe_size)` modulo `stripe_count`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileLayout {
    /// Striping parameters.
    pub config: StripeConfig,
    /// Servers in stripe order.
    pub servers: Vec<ServerId>,
}

impl FileLayout {
    /// Computes the layout of `path` on `ring` under `config`: the stripe
    /// servers are the `stripe_count` distinct ring owners of the path.
    pub fn place(path: &str, config: StripeConfig, ring: &HashRing) -> Self {
        let servers = ring.owners(path, config.stripe_count);
        FileLayout { config, servers }
    }

    /// The server holding stripe `stripe` — the canonical stripe→server
    /// mapping every placement-aware caller must use.
    pub fn server_for_stripe(&self, stripe: u64) -> Option<ServerId> {
        if self.servers.is_empty() {
            return None;
        }
        Some(self.servers[ring_slot(stripe, self.servers.len())])
    }

    /// The server holding the stripe that contains file offset `offset`.
    pub fn server_for_offset(&self, offset: u64) -> Option<ServerId> {
        self.server_for_stripe(offset / self.config.stripe_size)
    }

    /// Splits the byte range `[offset, offset+len)` into per-server chunks,
    /// each fully contained in one stripe unit. The range must not wrap the
    /// 64-bit address space; one that ends in the last stripe is fine.
    pub fn chunks(&self, offset: u64, len: u64) -> Vec<Chunk> {
        let mut out = Vec::new();
        if len == 0 || self.servers.is_empty() {
            return out;
        }
        let ss = self.config.stripe_size;
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let stripe_index = cur / ss;
            // Saturating: the last stripe of the address space ends past
            // u64::MAX, and `end` never does.
            let stripe_end = (stripe_index + 1).saturating_mul(ss);
            let chunk_end = stripe_end.min(end);
            let server = self.servers[ring_slot(stripe_index, self.servers.len())];
            out.push(Chunk {
                server,
                offset: cur,
                len: chunk_end - cur,
            });
            cur = chunk_end;
        }
        out
    }
}

/// One per-server piece of a striped byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chunk {
    /// Server holding this piece.
    pub server: ServerId,
    /// Absolute file offset of the piece.
    pub offset: u64,
    /// Length of the piece in bytes.
    pub len: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(n_servers: usize, stripe_size: u64, stripe_count: usize) -> FileLayout {
        let ring = HashRing::new(n_servers);
        FileLayout::place(
            "/data/file",
            StripeConfig::new(stripe_size, stripe_count),
            &ring,
        )
    }

    #[test]
    fn default_config_is_single_stripe_1mib() {
        let c = StripeConfig::default();
        assert_eq!(c.stripe_size, 1 << 20);
        assert_eq!(c.stripe_count, 1);
    }

    #[test]
    fn config_clamps_degenerate_values() {
        let c = StripeConfig::new(0, 0);
        assert_eq!(c.stripe_size, 1);
        assert_eq!(c.stripe_count, 1);
    }

    #[test]
    fn spanning_covers_all_servers() {
        let ring = HashRing::new(7);
        assert_eq!(StripeConfig::spanning(&ring).stripe_count, 7);
    }

    #[test]
    fn placement_respects_stripe_count() {
        let l = layout(8, 1024, 4);
        assert_eq!(l.servers.len(), 4);
    }

    #[test]
    fn single_stripe_chunks_stay_on_one_server() {
        let l = layout(4, 1024, 1);
        let chunks = l.chunks(0, 10_000);
        assert!(chunks.iter().all(|c| c.server == l.servers[0]));
        let total: u64 = chunks.iter().map(|c| c.len).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn chunks_cover_range_exactly_and_split_on_stripe_boundaries() {
        let l = layout(4, 1000, 3);
        let chunks = l.chunks(500, 2_600);
        let total: u64 = chunks.iter().map(|c| c.len).sum();
        assert_eq!(total, 2_600);
        // First chunk ends at the first stripe boundary (offset 1000).
        assert_eq!(chunks[0].offset, 500);
        assert_eq!(chunks[0].len, 500);
        assert_eq!(chunks[1].offset, 1000);
        assert_eq!(chunks[1].len, 1000);
        // Contiguous coverage.
        for w in chunks.windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
        // Round-robin server assignment across stripes.
        assert_eq!(chunks[0].server, l.servers[0]);
        assert_eq!(chunks[1].server, l.servers[1]);
        assert_eq!(chunks[2].server, l.servers[2]);
    }

    #[test]
    fn server_for_offset_wraps_round_robin() {
        let l = layout(4, 100, 2);
        assert_eq!(l.server_for_offset(0).unwrap(), l.servers[0]);
        assert_eq!(l.server_for_offset(150).unwrap(), l.servers[1]);
        assert_eq!(l.server_for_offset(250).unwrap(), l.servers[0]);
    }

    #[test]
    fn zero_length_range_has_no_chunks() {
        let l = layout(2, 100, 2);
        assert!(l.chunks(42, 0).is_empty());
    }

    /// Regression: stripe numbers above `u32::MAX` must keep their `u64`
    /// modulo. The old `stripe as usize % len` truncated the stripe to 32
    /// bits first on 32-bit targets, so stripe `2^32 + 1` landed on the
    /// slot of stripe `1`'s *truncated* value — `ring_slot` computes the
    /// modulo before narrowing, which this pins on every target width.
    #[test]
    fn stripes_beyond_u32_keep_their_u64_modulo() {
        let l = layout(5, 1 << 20, 3);
        let huge = (1u64 << 32) + 1; // ≡ 2 (mod 3); truncating to u32 first gives 1
        assert_eq!(ring_slot(huge, 3), 2);
        assert_eq!(l.server_for_stripe(huge).unwrap(), l.servers[2]);
        // The offset path and the chunk path go through the same helper.
        let offset = huge * l.config.stripe_size;
        assert_eq!(l.server_for_offset(offset).unwrap(), l.servers[2]);
        let chunks = l.chunks(offset, 10);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].server, l.servers[2]);
        // u64::MAX stays in range too (u64::MAX ≡ 0 mod 5 fails; it is 15·…).
        assert_eq!(ring_slot(u64::MAX, 5), (u64::MAX % 5) as usize);
    }

    /// Regression: the last stripe of the address space ends at 2^64, one
    /// past `u64::MAX`. Its end used to overflow — a panic in debug builds,
    /// and in release a wrapped end that restarted the walk at offset 0.
    #[test]
    fn chunks_in_the_last_stripe_of_the_address_space() {
        let l = layout(3, 1 << 20, 3);
        let chunks = l.chunks(u64::MAX - 9, 9);
        assert_eq!(chunks.len(), 1);
        assert_eq!((chunks[0].offset, chunks[0].len), (u64::MAX - 9, 9));
        let start = u64::MAX - (u64::MAX % (1 << 20)) - (1 << 20);
        let chunks = l.chunks(start + 5, (2 << 20) - 6);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].offset, start + (1 << 20));
        assert_eq!(chunks[1].offset + chunks[1].len, u64::MAX);
    }
}

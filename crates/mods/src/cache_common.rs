//! Shared plumbing for the block-cache LabMods ([`crate::lru`],
//! [`crate::arc_cache`]): per-block entries over the payload handles that
//! flow through, lba shard hashing, and the per-entry in-flight miss guard
//! that replaces the old drop-and-relock pattern.

use std::collections::HashSet;

use parking_lot::{Condvar, Mutex};

use labstor_ipc::BufHandle;

/// Cache entry granularity: one entry per 4 KiB block.
pub const CACHE_BLOCK: usize = 4096;
/// Sectors per cache block (entries are keyed by sector LBA).
pub const BLOCK_SECTORS: u64 = (CACHE_BLOCK / labstor_sim::SECTOR_SIZE) as u64;

/// The cache entries for `buf` landing at `lba`: one refcounted slice per
/// 4 KiB block (the last may be shorter), keyed by the block's own LBA.
/// A coalesced multi-block write thus replaces every block it covers, so
/// a later single-block read can never hit a stale entry.
pub fn block_entries(lba: u64, buf: &BufHandle) -> impl Iterator<Item = (u64, BufHandle)> + '_ {
    (0..buf.len().div_ceil(CACHE_BLOCK)).filter_map(move |i| {
        let off = i * CACHE_BLOCK;
        let slice = buf.slice(off, (buf.len() - off).min(CACHE_BLOCK))?;
        Some((lba + i as u64 * BLOCK_SECTORS, slice))
    })
}

/// [`block_entries`] for `buf` at `lba`, batched by shard: `f` runs once
/// per maximal run of consecutive blocks that hash to one shard (of
/// `shards`), so a cache takes each shard lock once per run instead of
/// once per block.
pub fn shard_runs(
    lba: u64,
    buf: &BufHandle,
    shards: usize,
    mut f: impl FnMut(usize, Vec<(u64, BufHandle)>),
) {
    let mut run = Vec::new();
    let mut cur = 0;
    for (blba, slice) in block_entries(lba, buf) {
        let si = shard_of(blba, shards);
        if si != cur && !run.is_empty() {
            f(cur, std::mem::take(&mut run));
        }
        cur = si;
        run.push((blba, slice));
    }
    if !run.is_empty() {
        f(cur, run);
    }
}

/// Serve a read of `len` bytes at `lba` from per-block entries: `lookup`
/// yields each block's first `want` bytes, and the views are stitched
/// into one ([`BufHandle::extend`]) when they are adjacent slices of one
/// buffer — as the blocks of a multi-block write are — so the hit stays a
/// refcount bump. `None` (a miss) if any block is absent, short, or from
/// another buffer.
pub fn hit_blocks(
    lba: u64,
    len: usize,
    mut lookup: impl FnMut(u64, usize) -> Option<BufHandle>,
) -> Option<BufHandle> {
    let mut hit: Option<BufHandle> = None;
    for (i, off) in (0..len.max(1)).step_by(CACHE_BLOCK).enumerate() {
        let part = lookup(lba + i as u64 * BLOCK_SECTORS, (len - off).min(CACHE_BLOCK))?;
        match &mut hit {
            None => hit = Some(part),
            Some(h) => {
                if !h.extend(&part) {
                    return None;
                }
            }
        }
    }
    hit
}

/// The per-entry in-flight miss guard. A miss claims its lba before
/// releasing the cache lock and fetching downstream; a second miss on the
/// same lba waits for the claim to clear and re-checks the cache instead
/// of double-fetching (and double-inserting) the block.
#[derive(Default)]
pub struct InflightSet {
    claimed: Mutex<HashSet<u64>>,
    /// Signaled by [`InflightGuard`]'s drop so losers park instead of
    /// burning a CPU spinning for the winner's (possibly slow, device-
    /// bound) downstream fetch to finish.
    released: Condvar,
}

impl InflightSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claim `lba`, parking on a condvar while another miss holds it.
    /// The returned guard releases the claim (and wakes waiters) on drop.
    pub fn claim(&self, lba: u64) -> InflightGuard<'_> {
        let mut claimed = self.claimed.lock();
        while !claimed.insert(lba) {
            self.released.wait(&mut claimed);
        }
        InflightGuard { set: self, lba }
    }
}

/// RAII claim on an lba being miss-fetched; dropping releases it.
pub struct InflightGuard<'a> {
    set: &'a InflightSet,
    lba: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.set.claimed.lock().remove(&self.lba);
        // Wake everyone: waiters on other lbas re-check and sleep again;
        // waiters on this lba race to claim it (one wins, rest re-wait).
        self.set.released.notify_all();
    }
}

/// Shard index for an lba (splitmix-style avalanche so sequential lbas
/// spread evenly).
pub fn shard_of(lba: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut x = lba.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_guard_releases_on_drop() {
        let set = InflightSet::new();
        {
            let _g = set.claim(7);
            assert!(!set.claimed.lock().contains(&8));
            assert!(set.claimed.lock().contains(&7));
        }
        assert!(!set.claimed.lock().contains(&7));
        let _g2 = set.claim(7); // reclaimable after release
    }

    #[test]
    fn block_entries_slice_per_block() {
        let buf = BufHandle::from_vec(
            (0..CACHE_BLOCK * 2 + 512)
                .map(|i| (i / CACHE_BLOCK) as u8)
                .collect(),
        );
        let entries: Vec<_> = block_entries(16, &buf).collect();
        let keys: Vec<u64> = entries.iter().map(|(l, _)| *l).collect();
        assert_eq!(keys, vec![16, 24, 32]);
        assert_eq!(entries[1].1.as_slice(), &[1u8; CACHE_BLOCK][..]);
        assert_eq!(entries[2].1.len(), 512);
        assert!(
            entries.iter().all(|(_, s)| s.same_slot(&buf)),
            "slices, not copies"
        );
    }

    #[test]
    fn shard_runs_cover_every_block_once_in_order() {
        let buf = BufHandle::from_vec(vec![0u8; CACHE_BLOCK * 9]);
        for shards in [1, 4] {
            let mut seen = Vec::new();
            shard_runs(0, &buf, shards, |si, run| {
                assert!(run.iter().all(|(l, _)| shard_of(*l, shards) == si));
                seen.extend(run.into_iter().map(|(l, _)| l));
            });
            let want: Vec<u64> = (0..9).map(|i| i * BLOCK_SECTORS).collect();
            assert_eq!(seen, want);
        }
        let mut runs = 0;
        shard_runs(0, &buf, 1, |_, _| runs += 1);
        assert_eq!(runs, 1, "one shard, one lock");
    }

    #[test]
    fn hit_blocks_stitches_one_buffer_only() {
        let buf = BufHandle::from_vec(vec![5u8; CACHE_BLOCK * 3]);
        let map: std::collections::HashMap<u64, BufHandle> = block_entries(8, &buf).collect();
        let get = |l: u64, want: usize| map.get(&l)?.slice(0, want);
        let hit = hit_blocks(8, 2 * CACHE_BLOCK + 10, get).unwrap();
        assert_eq!(hit.len(), 2 * CACHE_BLOCK + 10);
        assert!(hit.same_slot(&buf));
        assert!(
            hit_blocks(8, 4 * CACHE_BLOCK, get).is_none(),
            "block 3 absent"
        );
        let mut mixed = map.clone();
        mixed.insert(16, BufHandle::from_vec(vec![6u8; CACHE_BLOCK]));
        let get = |l: u64, want: usize| mixed.get(&l)?.slice(0, want);
        assert!(hit_blocks(8, 2 * CACHE_BLOCK, get).is_none(), "two buffers");
        assert_eq!(hit_blocks(8, 0, get).unwrap().len(), 0);
    }

    #[test]
    fn shard_spread_is_even_enough() {
        let mut counts = [0usize; 8];
        for lba in 0..8000u64 {
            counts[shard_of(lba, 8)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "shard starved: {counts:?}");
        }
    }
}

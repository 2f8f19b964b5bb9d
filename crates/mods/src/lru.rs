//! The LRU page-cache LabMod (the paper's "page caching (LRU)" mod,
//! Fig. 4a's stage).
//!
//! A userspace block cache: write-through by default (the block is cached
//! and forwarded to the next stage), optional write-back (dirty blocks
//! held until flush/eviction). Keys are block LBAs; the contract is
//! block-aligned requests, which every bundled filesystem LabMod honors.
//!
//! Two perf features ride on top of the classic design:
//!
//! * **Handles, not copies** — a write inserts refcounted slices of the
//!   caller's payload buffer, one entry per 4 KiB block, and a read hit
//!   hands back a [`BufHandle`] slice. No bytes move, so only the lookup
//!   is charged; the payload copies of a request happen at the client
//!   edge.
//! * **Sharding + in-flight miss guard** — the map splits into N
//!   independently locked shards (`shards` factory param, default 1), and
//!   a miss claims its lba in an [`InflightSet`] before fetching, so two
//!   racing misses on the same block fetch it downstream exactly once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use labstor_core::{
    BlockOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_ipc::BufHandle;
use labstor_kernel::page_cache::LruMap;
use labstor_sim::Ctx;
use labstor_telemetry::PerfCounters;

use crate::cache_common::{
    hit_blocks, shard_of, shard_runs, InflightSet, BLOCK_SECTORS, CACHE_BLOCK,
};

/// Per-block lookup cost (userspace hashmap, cheaper than the kernel's
/// locked tree).
const LOOKUP_NS: u64 = 150;

struct CacheBlock {
    buf: BufHandle,
    dirty: bool,
}

/// The LRU cache LabMod.
pub struct LruCacheMod {
    shards: Box<[Mutex<LruMap<u64, CacheBlock>>]>,
    inflight: InflightSet,
    per_shard_blocks: usize,
    write_back: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    perf: PerfCounters,
    /// Downstream busy time, subtracted so `est_total_time` is exclusive.
    downstream_ns: AtomicU64,
}

impl LruCacheMod {
    /// Cache of `capacity_bytes` (4 KB block granularity), single shard —
    /// the historical layout, with exact global LRU eviction order.
    pub fn new(capacity_bytes: usize, write_back: bool) -> Self {
        Self::with_shards(capacity_bytes, write_back, 1)
    }

    /// Cache of `capacity_bytes` split over `shards` independently locked
    /// LRU maps (capacity divides evenly; eviction is per shard).
    pub fn with_shards(capacity_bytes: usize, write_back: bool, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_blocks = (capacity_bytes / CACHE_BLOCK).max(1);
        LruCacheMod {
            shards: (0..shards).map(|_| Mutex::new(LruMap::new())).collect(),
            inflight: InflightSet::new(),
            per_shard_blocks: capacity_blocks.div_ceil(shards).max(1),
            write_back,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            perf: PerfCounters::new(),
            downstream_ns: AtomicU64::new(0),
        }
    }

    /// Number of shards the map is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, lba: u64) -> &Mutex<LruMap<u64, CacheBlock>> {
        &self.shards[shard_of(lba, self.shards.len())]
    }

    /// Forward, attributing the downstream busy time to downstream.
    fn fwd(&self, ctx: &mut Ctx, env: &StackEnv<'_>, req: Request) -> RespPayload {
        let before = ctx.busy();
        let r = env.forward(ctx, req);
        self.downstream_ns
            .fetch_add(ctx.busy() - before, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        r
    }

    /// (hits, misses) so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        // relaxed-ok: stat counter; readers tolerate lag
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Drain all cached blocks oldest-first per shard (cross-policy hot
    /// swaps pull warm state out with this). Handles move out by value.
    pub fn drain_blocks(&self) -> Vec<(u64, BufHandle)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let mut cache = shard.lock();
            while let Some((lba, b)) = cache.pop_lru() {
                out.push((lba, b.buf));
            }
        }
        out
    }

    /// Evict past capacity; returns dirty victims needing writeback.
    fn evict(cache: &mut LruMap<u64, CacheBlock>, cap: usize) -> Vec<(u64, BufHandle)> {
        let mut out = Vec::new();
        while cache.len() > cap {
            match cache.pop_lru() {
                Some((lba, b)) if b.dirty => out.push((lba, b.buf)),
                Some(_) => {}
                None => break,
            }
        }
        out
    }

    /// Write `blocks` back downstream, stopping at the first failure.
    fn write_back_blocks(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        blocks: Vec<(u64, BufHandle)>,
    ) -> Result<(), RespPayload> {
        for (lba, buf) in blocks {
            let r = self.fwd(
                ctx,
                env,
                req.derive(Payload::Block(BlockOp::Write { lba, buf })),
            );
            if !r.is_ok() {
                return Err(r);
            }
        }
        Ok(())
    }

    /// Insert `buf` as one entry per block, evict, and flush dirty
    /// victims downstream.
    fn insert_and_flush(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        lba: u64,
        buf: &BufHandle,
        dirty: bool,
    ) -> Result<(), RespPayload> {
        let mut victims = Vec::new();
        // Replaced entries drop after the shard lock is released: the
        // last slice of an old buffer frees it.
        let mut replaced = Vec::new();
        shard_runs(lba, buf, self.shards.len(), |si, run| {
            let mut cache = self.shards[si].lock();
            for (blba, slice) in run {
                replaced.extend(cache.insert(blba, CacheBlock { buf: slice, dirty }));
            }
            victims.extend(Self::evict(&mut cache, self.per_shard_blocks));
        });
        drop(replaced);
        self.write_back_blocks(ctx, env, req, victims)
    }

    /// Mark the dirty blocks among `lbas` clean and return them for
    /// write-back.
    fn take_dirty(&self, lbas: impl Iterator<Item = u64>) -> Vec<(u64, BufHandle)> {
        let mut out = Vec::new();
        for lba in lbas {
            if let Some(b) = self.shard(lba).lock().get(&lba).filter(|b| b.dirty) {
                b.dirty = false;
                out.push((lba, b.buf.clone()));
            }
        }
        out
    }

    /// The read path: a hit answers with a refcounted slice of the cached
    /// block; a miss fetches downstream and caches what comes back.
    fn do_read(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: Request,
        lba: u64,
        len: usize,
    ) -> RespPayload {
        ctx.advance(LOOKUP_NS);
        if let Some(h) = self.try_hit(lba, len) {
            self.hits.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
            return RespPayload::DataBuf(h);
        }
        // Miss: claim the lba so concurrent misses on the same block wait
        // here instead of each fetching downstream, then re-check — the
        // winner's insert turns the losers' misses into hits. (The old
        // code dropped the lock, fetched, and re-locked: the classic
        // double-fetch.)
        let guard = self.inflight.claim(lba);
        if let Some(h) = self.try_hit(lba, len) {
            self.hits.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
            return RespPayload::DataBuf(h);
        }
        self.misses.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        if self.write_back && len > CACHE_BLOCK {
            // A multi-block read misses when its blocks are absent or from
            // different buffers: write back the dirty ones it covers so
            // the device answers current.
            let blocks = (0..len.div_ceil(CACHE_BLOCK) as u64).map(|i| lba + i * BLOCK_SECTORS);
            let dirty = self.take_dirty(blocks);
            if let Err(e) = self.write_back_blocks(ctx, env, &req, dirty) {
                return e;
            }
        }
        let resp = self.fwd(ctx, env, req.clone());
        if let RespPayload::DataBuf(h) = &resp {
            if let Err(e) = self.insert_and_flush(ctx, env, &req, lba, h, false) {
                return e;
            }
        }
        drop(guard);
        resp
    }

    /// A view of the cached bytes at `lba` if every block is resident
    /// (see [`hit_blocks`]): a refcount bump, no bytes move.
    fn try_hit(&self, lba: u64, len: usize) -> Option<BufHandle> {
        hit_blocks(lba, len, |blba, want| {
            self.shard(blba).lock().get(&blba)?.buf.slice(0, want)
        })
    }
}

// labmod-default-ok: write-through cache: contents are clean and re-warm from misses after a crash; state_update migrates them across upgrades
impl LabMod for LruCacheMod {
    fn type_name(&self) -> &'static str {
        "lru_cache"
    }

    fn mod_type(&self) -> ModType {
        ModType::Cache
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let before = ctx.busy();
        let resp = match &req.payload {
            Payload::Block(BlockOp::Write { lba, buf }) => {
                // The cache keeps refcounts on the caller's buffer — no
                // memcpy, so only the lookup is charged.
                ctx.advance(LOOKUP_NS);
                if let Err(e) = self.insert_and_flush(ctx, env, &req, *lba, buf, self.write_back) {
                    return e;
                }
                if self.write_back {
                    RespPayload::Len(buf.len())
                } else {
                    self.fwd(ctx, env, req)
                }
            }
            Payload::Block(BlockOp::Read { lba, len }) => {
                let (lba, len) = (*lba, *len);
                self.do_read(ctx, env, req, lba, len)
            }
            Payload::Block(BlockOp::Flush) => {
                // Flush all dirty blocks, then pass the barrier down.
                for shard in self.shards.iter() {
                    let lbas: Vec<u64> = shard
                        .lock()
                        .iter()
                        .filter(|(_, b)| b.dirty)
                        .map(|(lba, _)| *lba)
                        .collect();
                    let dirty = self.take_dirty(lbas.into_iter());
                    if let Err(e) = self.write_back_blocks(ctx, env, &req, dirty) {
                        return e;
                    }
                }
                self.fwd(ctx, env, req)
            }
            _ => self.fwd(ctx, env, req),
        };
        let downstream = self.downstream_ns.swap(0, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        self.perf
            .observe((ctx.busy() - before).saturating_sub(downstream));
        resp
    }

    fn est_processing_time(&self, _req: &Request) -> u64 {
        self.perf.est_ns(LOOKUP_NS)
    }

    fn est_total_time(&self) -> u64 {
        self.perf.total_ns()
    }

    fn state_update(&self, old: &dyn LabMod) {
        // Hot-swapping cache policies: warm state moves across.
        if let Some(prev) = old.as_any().downcast_ref::<LruCacheMod>() {
            self.perf.absorb(&prev.perf);
            // Drain oldest-first per shard so recency order is preserved
            // on insert; handles migrate by value.
            for (lba, block) in prev.drain_blocks() {
                self.shard(lba).lock().insert(
                    lba,
                    CacheBlock {
                        buf: block,
                        dirty: false,
                    },
                );
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the factory. Params: `{"capacity_bytes": <n>, "write_back":
/// <bool>, "shards": <n>}` (defaults: 64 MiB, write-through, 1 shard).
pub fn install(mm: &ModuleManager) {
    mm.register_factory(
        "lru_cache",
        Arc::new(|params| {
            let cap = params
                .get("capacity_bytes")
                .and_then(|v| v.as_u64())
                .unwrap_or(64 << 20) as usize;
            let wb = params
                .get("write_back")
                .and_then(|v| v.as_bool())
                .unwrap_or(false);
            let shards = params.get("shards").and_then(|v| v.as_u64()).unwrap_or(1) as usize;
            Arc::new(LruCacheMod::with_shards(cap, wb, shards)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;

    /// Terminal "device" that stores blocks in a hashmap.
    struct MemDev {
        blocks: Mutex<std::collections::HashMap<u64, Vec<u8>>>,
        writes: AtomicU64,
        reads: AtomicU64,
        /// Real-time stall per read, to widen race windows in tests.
        read_stall: std::time::Duration,
    }
    impl MemDev {
        fn new() -> Self {
            MemDev {
                blocks: Mutex::new(std::collections::HashMap::new()),
                writes: AtomicU64::new(0),
                reads: AtomicU64::new(0),
                read_stall: std::time::Duration::ZERO,
            }
        }
    }
    impl LabMod for MemDev {
        fn type_name(&self) -> &'static str {
            "memdev"
        }
        fn mod_type(&self) -> ModType {
            ModType::Driver
        }
        fn process(&self, _ctx: &mut Ctx, req: Request, _env: &StackEnv<'_>) -> RespPayload {
            match req.payload {
                Payload::Block(BlockOp::Write { lba, buf }) => {
                    self.writes.fetch_add(1, Ordering::Relaxed);
                    let len = buf.len();
                    self.blocks.lock().insert(lba, buf.as_slice().to_vec());
                    RespPayload::Len(len)
                }
                Payload::Block(BlockOp::Read { lba, len }) => {
                    self.reads.fetch_add(1, Ordering::Relaxed);
                    if !self.read_stall.is_zero() {
                        std::thread::sleep(self.read_stall);
                    }
                    let bytes = match self.blocks.lock().get(&lba) {
                        Some(d) => d[..len.min(d.len())].to_vec(),
                        None => vec![0u8; len],
                    };
                    RespPayload::DataBuf(BufHandle::from_vec(bytes))
                }
                _ => RespPayload::Ok,
            }
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            1
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn setup(cache_params: serde_json::Value) -> (ModuleManager, LabStack, Arc<MemDev>) {
        setup_with_dev(cache_params, MemDev::new())
    }

    fn setup_with_dev(
        cache_params: serde_json::Value,
        dev: MemDev,
    ) -> (ModuleManager, LabStack, Arc<MemDev>) {
        let mm = ModuleManager::new();
        install(&mm);
        mm.instantiate("cache", "lru_cache", &cache_params).unwrap();
        let dev = Arc::new(dev);
        mm.insert_instance("dev", dev.clone());
        let stack = LabStack {
            id: 1,
            mount: "x".into(),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: "cache".into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "dev".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![],
        };
        (mm, stack, dev)
    }

    fn exec(mm: &ModuleManager, stack: &LabStack, payload: Payload, ctx: &mut Ctx) -> RespPayload {
        let env = StackEnv {
            stack,
            vertex: 0,
            registry: mm,
            domain: 0,
        };
        let m = mm.get("cache").unwrap();
        m.process(ctx, Request::new(1, 1, payload, Credentials::ROOT), &env)
    }

    #[test]
    fn write_through_reaches_device_and_read_hits() {
        let (mm, stack, dev) = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        let data = vec![9u8; 4096];
        exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Write {
                lba: 8,
                buf: BufHandle::from_vec(data.clone()),
            }),
            &mut ctx,
        );
        assert_eq!(dev.writes.load(Ordering::Relaxed), 1);
        let r = exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Read { lba: 8, len: 4096 }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::DataBuf(h) if h.as_slice() == data));
        assert_eq!(
            dev.reads.load(Ordering::Relaxed),
            0,
            "read must be a cache hit"
        );
        let cache = mm.get("cache").unwrap();
        let lru = cache.as_any().downcast_ref::<LruCacheMod>().unwrap();
        assert_eq!(lru.hit_stats(), (1, 0));
    }

    #[test]
    fn miss_fetches_and_caches() {
        let (mm, stack, dev) = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        // Prime the device directly (bypass cache).
        dev.blocks.lock().insert(16, vec![3u8; 4096]);
        let r = exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Read { lba: 16, len: 4096 }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::DataBuf(_)));
        assert_eq!(dev.reads.load(Ordering::Relaxed), 1);
        exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Read { lba: 16, len: 4096 }),
            &mut ctx,
        );
        assert_eq!(dev.reads.load(Ordering::Relaxed), 1, "second read hits");
    }

    #[test]
    fn write_back_defers_until_flush() {
        let (mm, stack, dev) =
            setup(serde_json::json!({"write_back": true, "capacity_bytes": 1 << 20}));
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Write {
                lba: 0,
                buf: BufHandle::from_vec(vec![1u8; 4096]),
            }),
            &mut ctx,
        );
        assert_eq!(
            dev.writes.load(Ordering::Relaxed),
            0,
            "write-back holds data"
        );
        exec(&mm, &stack, Payload::Block(BlockOp::Flush), &mut ctx);
        assert_eq!(
            dev.writes.load(Ordering::Relaxed),
            1,
            "flush writes it back"
        );
        assert!(dev.blocks.lock().contains_key(&0));
    }

    #[test]
    fn write_back_eviction_writes_victims() {
        // 2-block cache, 3 writes → first block must land on the device.
        let (mm, stack, dev) =
            setup(serde_json::json!({"write_back": true, "capacity_bytes": 8192}));
        let mut ctx = Ctx::new();
        for i in 0..3u64 {
            exec(
                &mm,
                &stack,
                Payload::Block(BlockOp::Write {
                    lba: i * 8,
                    buf: BufHandle::from_vec(vec![i as u8; 4096]),
                }),
                &mut ctx,
            );
        }
        assert_eq!(dev.writes.load(Ordering::Relaxed), 1);
        assert_eq!(dev.blocks.lock().get(&0).unwrap()[0], 0);
    }

    #[test]
    fn state_update_moves_warm_blocks() {
        let (mm, stack, _dev) = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Write {
                lba: 8,
                buf: BufHandle::from_vec(vec![5u8; 4096]),
            }),
            &mut ctx,
        );
        let old = mm.get("cache").unwrap();
        let new_cache = LruCacheMod::new(64 << 20, false);
        new_cache.state_update(old.as_ref());
        assert_eq!(new_cache.shards[0].lock().len(), 1, "warm block migrated");
    }

    #[test]
    fn write_hit_answers_with_refcounted_slice() {
        let (mm, stack, dev) = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        let pool = labstor_ipc::BufferPool::new(labstor_ipc::PoolConfig {
            classes: vec![(4096, 4)],
        });
        let mut buf = pool.alloc(4096).unwrap();
        assert!(buf.fill(&[7u8; 4096]));
        exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Write { lba: 8, buf }),
            &mut ctx,
        );
        assert_eq!(dev.writes.load(Ordering::Relaxed), 1, "write-through");
        let r = exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Read { lba: 8, len: 4096 }),
            &mut ctx,
        );
        // The hit is structurally zero-copy: the handle is a refcounted
        // view of the cached block. (Copy-counter deltas are
        // asserted in the dedicated e2e integration test, which owns its
        // process — the global counter races across parallel unit tests.)
        match r {
            RespPayload::DataBuf(h) => {
                assert_eq!(h.as_slice(), &[7u8; 4096]);
                assert_eq!(h.region(), 0, "the written pool slot itself");
            }
            other => panic!("expected DataBuf, got {other:?}"),
        }
        assert_eq!(dev.reads.load(Ordering::Relaxed), 0, "hit");
    }

    #[test]
    fn multi_block_write_caches_each_block() {
        let (mm, stack, dev) = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        for fill in [1u8, 2] {
            let mut data = vec![fill; 4 * 4096];
            data[4096..8192].fill(fill + 10);
            exec(
                &mm,
                &stack,
                Payload::Block(BlockOp::Write {
                    lba: 0,
                    buf: BufHandle::from_vec(data),
                }),
                &mut ctx,
            );
            let r = exec(
                &mm,
                &stack,
                Payload::Block(BlockOp::Read { lba: 8, len: 4096 }),
                &mut ctx,
            );
            assert!(
                matches!(&r, RespPayload::DataBuf(h) if h.as_slice() == [fill + 10; 4096]),
                "block 1 after write {fill}: {r:?}"
            );
        }
        assert_eq!(dev.reads.load(Ordering::Relaxed), 0, "every block hits");
    }

    #[test]
    fn write_back_multi_block_read_sees_dirty_blocks() {
        let (mm, stack, dev) =
            setup(serde_json::json!({"write_back": true, "capacity_bytes": 1 << 20}));
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Write {
                lba: 0,
                buf: BufHandle::from_vec(vec![4u8; 2 * 4096]),
            }),
            &mut ctx,
        );
        assert_eq!(dev.writes.load(Ordering::Relaxed), 0);
        // The multi-block read misses, so the dirty blocks it covers are
        // written back before the device answers.
        dev.blocks.lock().clear();
        let r = exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Read { lba: 0, len: 4096 }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::DataBuf(h) if h.as_slice() == [4u8; 4096]));
        let r = exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Read {
                lba: 8,
                len: 2 * 4096,
            }),
            &mut ctx,
        );
        assert_eq!(
            dev.writes.load(Ordering::Relaxed),
            1,
            "block 1 written back"
        );
        assert!(matches!(r, RespPayload::DataBuf(h) if h.as_slice()[..4096] == [4u8; 4096]));
    }

    #[test]
    fn racing_misses_fetch_downstream_exactly_once() {
        // Regression for the drop-and-relock double-fetch: two threads
        // miss on the same lba; the in-flight guard must hold the loser
        // until the winner inserts, so the device sees ONE read.
        let mut dev = MemDev::new();
        dev.read_stall = std::time::Duration::from_millis(40);
        dev.blocks.lock().insert(16, vec![3u8; 4096]);
        let (mm, stack, dev) = setup_with_dev(serde_json::json!({"shards": 4}), dev);
        std::thread::scope(|s| {
            for delay_ms in [0u64, 10] {
                let (mm, stack) = (&mm, &stack);
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                    let mut ctx = Ctx::new();
                    let r = exec(
                        mm,
                        stack,
                        Payload::Block(BlockOp::Read { lba: 16, len: 4096 }),
                        &mut ctx,
                    );
                    assert!(matches!(r, RespPayload::DataBuf(h) if h.as_slice() == [3u8; 4096]));
                });
            }
        });
        assert_eq!(
            dev.reads.load(Ordering::Relaxed),
            1,
            "in-flight guard must collapse racing misses into one fetch"
        );
        let cache = mm.get("cache").unwrap();
        let lru = cache.as_any().downcast_ref::<LruCacheMod>().unwrap();
        assert_eq!(lru.hit_stats(), (1, 1), "loser re-checks and hits");
    }
}

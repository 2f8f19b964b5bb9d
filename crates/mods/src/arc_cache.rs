//! An adaptive, scan-resistant cache LabMod (ARC-style).
//!
//! The paper positions LabStacks as the vehicle for "new and exotic
//! ideas, such as … ML-driven cache eviction algorithms" (§III-B), and
//! hot-swapping one cache policy for another is its running example of
//! `modify.mods`. This module is that story made concrete: an ARC-like
//! policy (two real LRU lists + two ghost lists with an adaptive target)
//! that speaks the same block-cache interface as [`crate::lru`], so the
//! Module Manager can swap the two live — `state_update` migrates the
//! warm blocks across.
//!
//! The policy keeps recency (T1) and frequency (T2) lists; ghost lists
//! (B1/B2) remember recently evicted keys and steer the adaptive target
//! `p` toward whichever list would have hit — which is what makes it
//! resist one-shot scans that flush a plain LRU.
//!
//! Like [`crate::lru`], the mod shards its state (`shards` factory param,
//! default 1 — each shard runs an independent ARC instance over its slice
//! of the capacity), guards misses with an in-flight claim so racing
//! misses fetch downstream exactly once, and stores payload handles one
//! entry per 4 KiB block, answering hits with a refcount bump.

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

use crate::cache_common::{hit_blocks, shard_of, shard_runs, InflightSet, CACHE_BLOCK};

/// Per-block lookup cost (two-list bookkeeping is slightly heavier than a
/// plain LRU's).
const LOOKUP_NS: u64 = 190;

struct ArcState {
    /// Recency list: blocks seen exactly once.
    t1: LruMap<u64, BufHandle>,
    /// Frequency list: blocks seen more than once.
    t2: LruMap<u64, BufHandle>,
    /// Ghosts of T1 evictions (keys only).
    b1: LruMap<u64, ()>,
    /// Ghosts of T2 evictions (keys only).
    b2: LruMap<u64, ()>,
    /// Adaptive target size of T1 (in blocks).
    p: usize,
}

impl ArcState {
    fn new() -> Self {
        ArcState {
            t1: LruMap::new(),
            t2: LruMap::new(),
            b1: LruMap::new(),
            b2: LruMap::new(),
            p: 0,
        }
    }
}

/// The adaptive cache LabMod (write-through, like the default LRU mod).
pub struct ArcCacheMod {
    shards: Box<[Mutex<ArcState>]>,
    inflight: InflightSet,
    /// ARC capacity `c` per shard (in blocks).
    per_shard_blocks: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    perf: PerfCounters,
    downstream_ns: AtomicU64,
}

impl ArcCacheMod {
    /// Cache of `capacity_bytes` (4 KB block granularity), single shard.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_shards(capacity_bytes, 1)
    }

    /// Cache of `capacity_bytes` split over `shards` independent ARC
    /// instances (capacity divides evenly; each shard adapts its own `p`).
    pub fn with_shards(capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_blocks = (capacity_bytes / CACHE_BLOCK).max(2);
        ArcCacheMod {
            shards: (0..shards).map(|_| Mutex::new(ArcState::new())).collect(),
            inflight: InflightSet::new(),
            per_shard_blocks: capacity_blocks.div_ceil(shards).max(2),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            perf: PerfCounters::new(),
            downstream_ns: AtomicU64::new(0),
        }
    }

    /// Number of shards (independent ARC instances).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, lba: u64) -> &Mutex<ArcState> {
        &self.shards[shard_of(lba, self.shards.len())]
    }

    /// (hits, misses) so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        // relaxed-ok: stat counter; readers tolerate lag
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    fn fwd(&self, ctx: &mut Ctx, env: &StackEnv<'_>, req: Request) -> RespPayload {
        let before = ctx.busy();
        let r = env.forward(ctx, req);
        self.downstream_ns
            .fetch_add(ctx.busy() - before, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        r
    }

    /// ARC REPLACE: evict from T1 or T2 according to the target `p`,
    /// recording a ghost.
    fn replace(state: &mut ArcState, in_b2: bool) {
        let t1_len = state.t1.len();
        if t1_len > 0 && (t1_len > state.p || (in_b2 && t1_len == state.p)) {
            if let Some((k, _)) = state.t1.pop_lru() {
                state.b1.insert(k, ());
            }
        } else if let Some((k, _)) = state.t2.pop_lru() {
            state.b2.insert(k, ());
        } else if let Some((k, _)) = state.t1.pop_lru() {
            state.b1.insert(k, ());
        }
    }

    /// Cache `buf` landing at `lba`, one entry per block.
    fn admit_blocks(&self, lba: u64, buf: &BufHandle) {
        shard_runs(lba, buf, self.shards.len(), |si, run| {
            let mut s = self.shards[si].lock();
            for (blba, data) in run {
                Self::admit_locked(&mut s, self.per_shard_blocks, blba, data);
            }
        });
    }

    /// Insert or touch a block with its data on its shard.
    fn admit(&self, lba: u64, data: BufHandle) {
        let mut s = self.shard(lba).lock();
        Self::admit_locked(&mut s, self.per_shard_blocks, lba, data);
    }

    /// The full ARC state machine for one block, on its locked shard `s`
    /// of capacity `cap`.
    fn admit_locked(s: &mut ArcState, cap: usize, lba: u64, data: BufHandle) {
        // Case 1: hit in T1 or T2 → promote to T2 MRU.
        if s.t1.remove(&lba).is_some() || s.t2.peek(&lba).is_some() {
            s.t2.insert(lba, data);
            return;
        }
        // Case 2: ghost hit in B1 → grow p, bring into T2.
        if s.b1.remove(&lba).is_some() {
            let delta = (s.b2.len() / s.b1.len().max(1)).max(1);
            s.p = (s.p + delta).min(cap);
            Self::replace(s, false);
            s.t2.insert(lba, data);
            return;
        }
        // Case 3: ghost hit in B2 → shrink p, bring into T2.
        if s.b2.remove(&lba).is_some() {
            let delta = (s.b1.len() / s.b2.len().max(1)).max(1);
            s.p = s.p.saturating_sub(delta);
            Self::replace(s, true);
            s.t2.insert(lba, data);
            return;
        }
        // Case 4 (canonical ARC): brand-new block → T1 MRU, with
        // directory maintenance keeping |T1|+|B1| ≤ c and the whole
        // directory ≤ 2c.
        if s.t1.len() + s.b1.len() >= cap {
            if s.t1.len() < cap {
                s.b1.pop_lru();
                Self::replace(s, false);
            } else {
                // B1 is empty and T1 full: discard T1's LRU outright.
                s.t1.pop_lru();
            }
        } else if s.t1.len() + s.t2.len() + s.b1.len() + s.b2.len() >= cap {
            if s.t1.len() + s.t2.len() + s.b1.len() + s.b2.len() >= 2 * cap {
                s.b2.pop_lru();
            }
            Self::replace(s, false);
        }
        s.t1.insert(lba, data);
    }

    /// A view of the cached bytes at `lba` if every block is resident
    /// (see [`hit_blocks`]): a refcount bump.
    fn try_hit(&self, lba: u64, len: usize) -> Option<BufHandle> {
        hit_blocks(lba, len, |blba, want| self.hit_block(blba, want))
    }

    /// The first `len` bytes of the block at `lba` if resident. A T2 hit
    /// refreshes recency; a T1 hit promotes to T2.
    fn hit_block(&self, lba: u64, len: usize) -> Option<BufHandle> {
        let mut s = self.shard(lba).lock();
        if let Some(hit) = s.t2.get(&lba).and_then(|d| d.slice(0, len)) {
            return Some(hit);
        }
        let d = s.t1.remove(&lba)?;
        let hit = d.slice(0, len);
        if hit.is_some() {
            s.t2.insert(lba, d);
        } else {
            s.t1.insert(lba, d);
        }
        hit
    }

    /// The read path with the in-flight miss guard (see
    /// [`crate::lru::LruCacheMod`] — same double-fetch fix).
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
        let guard = self.inflight.claim(lba);
        if let Some(h) = self.try_hit(lba, len) {
            self.hits.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
            return RespPayload::DataBuf(h);
        }
        self.misses.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        let resp = self.fwd(ctx, env, req);
        if let RespPayload::DataBuf(h) = &resp {
            self.admit_blocks(lba, h);
        }
        drop(guard);
        resp
    }
}

// labmod-default-ok: write-through cache: contents are clean and re-warm from misses after a crash; state_update migrates them across upgrades
impl LabMod for ArcCacheMod {
    fn type_name(&self) -> &'static str {
        "arc_cache"
    }

    fn mod_type(&self) -> ModType {
        ModType::Cache
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let before = ctx.busy();
        let resp = match &req.payload {
            Payload::Block(BlockOp::Write { lba, buf }) => {
                // Admission keeps refcounts on the caller's buffer: lookup
                // only, no memcpy.
                ctx.advance(LOOKUP_NS);
                self.admit_blocks(*lba, buf);
                self.fwd(ctx, env, req)
            }
            Payload::Block(BlockOp::Read { lba, len }) => {
                let (lba, len) = (*lba, *len);
                self.do_read(ctx, env, req, lba, len)
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
        // Swap-in from either cache flavor: warm blocks migrate by handle,
        // no byte copies.
        if let Some(prev) = old.as_any().downcast_ref::<ArcCacheMod>() {
            self.perf.absorb(&prev.perf);
            let mut drained: Vec<(u64, BufHandle)> = Vec::new();
            for shard in prev.shards.iter() {
                let mut theirs = shard.lock();
                while let Some(e) = theirs.t1.pop_lru() {
                    drained.push(e);
                }
                while let Some(e) = theirs.t2.pop_lru() {
                    drained.push(e);
                }
            }
            for (k, v) in drained {
                self.admit(k, v);
            }
        } else if let Some(prev) = old.as_any().downcast_ref::<crate::lru::LruCacheMod>() {
            for (k, v) in prev.drain_blocks() {
                self.admit(k, v);
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the factory. Params: `{"capacity_bytes": <n>, "shards": <n>}`
/// (defaults: 64 MiB, 1 shard).
pub fn install(mm: &ModuleManager) {
    mm.register_factory(
        "arc_cache",
        Arc::new(|params| {
            let cap = params
                .get("capacity_bytes")
                .and_then(|v| v.as_u64())
                .unwrap_or(64 << 20) as usize;
            let shards = params.get("shards").and_then(|v| v.as_u64()).unwrap_or(1) as usize;
            Arc::new(ArcCacheMod::with_shards(cap, shards)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use std::collections::HashMap;

    struct MemDev {
        blocks: Mutex<HashMap<u64, Vec<u8>>>,
        reads: AtomicU64,
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
                    let n = buf.len();
                    self.blocks.lock().insert(lba, buf.as_slice().to_vec());
                    RespPayload::Len(n)
                }
                Payload::Block(BlockOp::Read { lba, len }) => {
                    self.reads.fetch_add(1, Ordering::Relaxed);
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

    fn setup(cap_blocks: usize) -> (ModuleManager, LabStack, Arc<MemDev>) {
        let mm = ModuleManager::new();
        install(&mm);
        mm.instantiate(
            "arc",
            "arc_cache",
            &serde_json::json!({"capacity_bytes": cap_blocks * 4096}),
        )
        .unwrap();
        let dev = Arc::new(MemDev {
            blocks: Mutex::new(HashMap::new()),
            reads: AtomicU64::new(0),
        });
        mm.insert_instance("dev", dev.clone());
        let stack = LabStack {
            id: 1,
            mount: "x".into(),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: "arc".into(),
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

    fn read(mm: &ModuleManager, stack: &LabStack, ctx: &mut Ctx, lba: u64) -> RespPayload {
        let env = StackEnv {
            stack,
            vertex: 0,
            registry: mm,
            domain: 0,
        };
        mm.get("arc").unwrap().process(
            ctx,
            Request::new(
                1,
                1,
                Payload::Block(BlockOp::Read { lba, len: 4096 }),
                Credentials::ROOT,
            ),
            &env,
        )
    }

    fn write(mm: &ModuleManager, stack: &LabStack, ctx: &mut Ctx, lba: u64, fill: u8) {
        let env = StackEnv {
            stack,
            vertex: 0,
            registry: mm,
            domain: 0,
        };
        let r = mm.get("arc").unwrap().process(
            ctx,
            Request::new(
                1,
                1,
                Payload::Block(BlockOp::Write {
                    lba,
                    buf: BufHandle::from_vec(vec![fill; 4096]),
                }),
                Credentials::ROOT,
            ),
            &env,
        );
        assert!(r.is_ok());
    }

    #[test]
    fn write_then_read_hits() {
        let (mm, stack, dev) = setup(16);
        let mut ctx = Ctx::new();
        write(&mm, &stack, &mut ctx, 8, 7);
        let r = read(&mm, &stack, &mut ctx, 8);
        assert!(matches!(r, RespPayload::DataBuf(h) if h.as_slice() == [7u8; 4096]));
        assert_eq!(dev.reads.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scan_resistance_beats_plain_lru() {
        // Working set of 4 hot blocks + a long one-shot scan. ARC must
        // keep serving the hot set from cache after the scan; an LRU of
        // the same size gets flushed.
        let cap = 8usize;
        let (mm, stack, dev) = setup(cap);
        let mut ctx = Ctx::new();
        let hot: Vec<u64> = (0..4).collect();
        for &h in &hot {
            write(&mm, &stack, &mut ctx, h, h as u8);
        }
        // Touch the hot set repeatedly so it reaches the frequency list.
        for _ in 0..3 {
            for &h in &hot {
                read(&mm, &stack, &mut ctx, h);
            }
        }
        // One-shot scan over 64 cold blocks (each read once).
        for cold in 100..164 {
            read(&mm, &stack, &mut ctx, cold);
        }
        let before = dev.reads.load(Ordering::Relaxed);
        for &h in &hot {
            read(&mm, &stack, &mut ctx, h);
        }
        let hot_misses = dev.reads.load(Ordering::Relaxed) - before;
        assert!(
            hot_misses <= 1,
            "ARC must keep the hot set through a scan (missed {hot_misses}/4)"
        );

        // The same experiment against the plain LRU mod: it misses.
        let lru = crate::lru::LruCacheMod::new(cap * 4096, false);
        let mm2 = ModuleManager::new();
        mm2.insert_instance("arc", Arc::new(lru)); // same uuid slot
        let dev2 = Arc::new(MemDev {
            blocks: Mutex::new(HashMap::new()),
            reads: AtomicU64::new(0),
        });
        mm2.insert_instance("dev", dev2.clone());
        let mut ctx2 = Ctx::new();
        for &h in &hot {
            write(&mm2, &stack, &mut ctx2, h, h as u8);
        }
        for _ in 0..3 {
            for &h in &hot {
                read(&mm2, &stack, &mut ctx2, h);
            }
        }
        for cold in 100..164 {
            read(&mm2, &stack, &mut ctx2, cold);
        }
        let before = dev2.reads.load(Ordering::Relaxed);
        for &h in &hot {
            read(&mm2, &stack, &mut ctx2, h);
        }
        let lru_misses = dev2.reads.load(Ordering::Relaxed) - before;
        assert_eq!(lru_misses, 4, "a scan flushes plain LRU entirely");
    }

    #[test]
    fn capacity_is_respected() {
        let (mm, stack, _dev) = setup(8);
        let mut ctx = Ctx::new();
        for lba in 0..100 {
            write(&mm, &stack, &mut ctx, lba, lba as u8);
        }
        let m = mm.get("arc").unwrap();
        let arc = m.as_any().downcast_ref::<ArcCacheMod>().unwrap();
        let s = arc.shards[0].lock();
        assert!(
            s.t1.len() + s.t2.len() <= 8,
            "resident {} > capacity",
            s.t1.len() + s.t2.len()
        );
        assert!(s.b1.len() + s.b2.len() <= 2 * 8 + 2, "ghost lists bounded");
    }

    #[test]
    fn sharded_capacity_is_respected_per_shard() {
        let arc = ArcCacheMod::with_shards(16 * 4096, 4);
        for lba in 0..400u64 {
            arc.admit(lba, BufHandle::from_vec(vec![lba as u8; 4096]));
        }
        for shard in arc.shards.iter() {
            let s = shard.lock();
            assert!(
                s.t1.len() + s.t2.len() <= arc.per_shard_blocks,
                "shard resident {} > per-shard capacity {}",
                s.t1.len() + s.t2.len(),
                arc.per_shard_blocks
            );
        }
    }

    #[test]
    fn state_migrates_from_lru_on_hot_swap() {
        let lru = crate::lru::LruCacheMod::new(64 * 4096, false);
        // Warm the LRU directly through its own stack processing path.
        let mm = ModuleManager::new();
        mm.insert_instance("arc", Arc::new(lru));
        let dev = Arc::new(MemDev {
            blocks: Mutex::new(HashMap::new()),
            reads: AtomicU64::new(0),
        });
        mm.insert_instance("dev", dev.clone());
        let stack = LabStack {
            id: 1,
            mount: "x".into(),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: "arc".into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "dev".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![],
        };
        let mut ctx = Ctx::new();
        write(&mm, &stack, &mut ctx, 1, 11);
        write(&mm, &stack, &mut ctx, 2, 22);
        // Hot swap LRU → ARC.
        let newer = ArcCacheMod::new(64 * 4096);
        newer.state_update(mm.get("arc").unwrap().as_ref());
        mm.insert_instance("arc", Arc::new(newer));
        let before = dev.reads.load(Ordering::Relaxed);
        let r = read(&mm, &stack, &mut ctx, 1);
        assert!(matches!(r, RespPayload::DataBuf(h) if h.as_slice() == [11u8; 4096]));
        assert_eq!(
            dev.reads.load(Ordering::Relaxed),
            before,
            "served from migrated state"
        );
    }
}

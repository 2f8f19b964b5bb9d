//! Reference-counted shared-memory buffer pool: the zero-copy data plane.
//!
//! The control plane (queue pairs, PR 3) moves *envelopes*; payload bytes
//! still rode inside `Vec<u8>`s that were copied at every boundary. The
//! paper's shared-memory IPC maps data buffers once and passes references
//! ("Fast & Flexible IO" makes the same argument): a request carries a
//! `(region, offset, len)` triple and the bytes never move.
//!
//! [`BufferPool`] is a size-classed slab allocator over pool-owned buffer
//! slots (the per-buffer-slot flavor of a ShMemMod region: each slot is a
//! fixed mapping, so accesses need no region-wide lock at all). Free slots
//! per class live on a lock-free Treiber stack whose head packs a 32-bit
//! ABA tag next to the slot index. [`BufHandle`] is the `(region, offset,
//! len)` view: `Clone` is a refcount bump, `Drop` returns the slot to the
//! free list when the last handle dies.
//!
//! `BufHandle` is the only payload carrier inside a stack, so payload
//! allocation must not fail where an owned `Vec` would not:
//! [`BufferPool::alloc_payload`] takes a slot of the right class when one
//! is free and otherwise hands out an unpooled, heap-backed handle with the
//! same view, sharing and uniqueness rules, freed on its last drop. A
//! request never falls over into a larger class — that would strand slab
//! memory several times the payload size.
//!
//! Ownership rules (DESIGN.md §10):
//! * whoever calls [`BufferPool::alloc`] owns a unique handle and may fill
//!   it in place ([`BufHandle::fill`] / [`BufHandle::write_with`]);
//! * cloning (or [`BufHandle::slice`]) shares the bytes read-only — all
//!   mutation is gated on `refs == 1` *and* `&mut self`, so a shared
//!   buffer can never be written;
//! * the last `Drop` frees; freeing is idempotence-checked by the debug
//!   tracker (a slot may return to the free list exactly once).
//!
//! A global copy counter ([`note_payload_copy`]) instruments every place
//! the stack still memcpy-s payload bytes; the zero-copy e2e test asserts
//! the counter stays flat across a LabFS write→read round trip.

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::credentials::TenantId;

/// Count of intermediate payload copies performed by the stack (test hook).
static PAYLOAD_COPIES: AtomicU64 = AtomicU64::new(0);
/// Total bytes those copies moved.
static PAYLOAD_COPY_BYTES: AtomicU64 = AtomicU64::new(0);

/// Record one intermediate payload copy of `bytes` bytes. Every site that
/// memcpy-s payload data (the client edge's copy in and out, partial-page
/// read-modify-write, copy-on-write) calls this so tests can prove the
/// zero-copy path really is copy-free.
pub fn note_payload_copy(bytes: usize) {
    // relaxed-ok: monotonic test counters; no ordering with payload data is needed
    PAYLOAD_COPIES.fetch_add(1, Ordering::Relaxed);
    // relaxed-ok: same counter pair as above
    PAYLOAD_COPY_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Number of payload copies recorded since process start (test hook).
pub fn payload_copies() -> u64 {
    // relaxed-ok: test-hook counter read
    PAYLOAD_COPIES.load(Ordering::Relaxed)
}

/// Total payload bytes copied since process start (test hook).
pub fn payload_copy_bytes() -> u64 {
    // relaxed-ok: test-hook counter read
    PAYLOAD_COPY_BYTES.load(Ordering::Relaxed)
}

/// The process-wide default pool: what clients fill request payloads from
/// and driver mods allocate read targets from when no dedicated pool is
/// plumbed. (Shared memory is process-wide in this reproduction — thread
/// domains stand in for address spaces — so one default arena serves every
/// domain; the grant discipline lives in [`crate::shmem`].) Exhaustion is
/// graceful: [`BufferPool::alloc_payload`] falls back to heap-backed
/// handles.
pub fn default_pool() -> &'static BufferPool {
    static POOL: std::sync::OnceLock<BufferPool> = std::sync::OnceLock::new();
    POOL.get_or_init(BufferPool::with_defaults)
}

/// One pool slot: fixed-size byte backing plus refcount and free-list link.
struct Slot {
    /// The mapped bytes. Mutated only through a unique handle (refs == 1,
    /// `&mut BufHandle`); read through shared handles.
    data: UnsafeCell<Box<[u8]>>,
    /// Live-handle count; 0 while the slot sits on the free list.
    refs: AtomicU32,
    /// Encoded index (idx + 1; 0 = end) of the next free slot.
    next: AtomicU32,
}

/// One size class: a slab of equally sized slots and its lock-free free
/// list. The free-list head packs `tag << 32 | (idx + 1)` — the tag
/// increments on every successful push/pop so a stalled CAS cannot ABA
/// onto a recycled head.
struct Class {
    buf_size: usize,
    slots: Box<[Slot]>,
    free_head: AtomicU64,
}

// SAFETY: `Slot.data` is an UnsafeCell, but all mutable access is gated on
// `refs == 1` through `&mut BufHandle` (see `BufHandle::fill`), and slots
// on the free list (refs == 0) are only touched by the thread that popped
// them; the Treiber-stack CAS pairs (Release push / Acquire pop) publish
// slot contents across threads.
unsafe impl Sync for Class {}
// SAFETY: same argument as Sync; Box<[u8]> is Send.
unsafe impl Send for Class {}

const LOW_MASK: u64 = 0xffff_ffff;

impl Class {
    fn new(buf_size: usize, count: usize) -> Self {
        assert!(count < u32::MAX as usize, "class too large");
        let slots: Box<[Slot]> = (0..count)
            .map(|i| Slot {
                // Backing bytes are allocated lazily on first use, so a
                // pool sized for a large cache costs nothing up front.
                data: UnsafeCell::new(Box::default()),
                refs: AtomicU32::new(0),
                // Thread the initial free list through the slab in order.
                next: AtomicU32::new(if i + 1 < count { i as u32 + 2 } else { 0 }),
            })
            .collect();
        let free_head = AtomicU64::new(if count == 0 { 0 } else { 1 });
        Class {
            buf_size,
            slots,
            free_head,
        }
    }

    /// Pop a free slot index, or None if the class is exhausted.
    fn pop_free(&self) -> Option<u32> {
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let low = (head & LOW_MASK) as u32;
            if low == 0 {
                return None;
            }
            let idx = low - 1;
            // relaxed-ok: the value is validated by the tagged CAS below; a stale read only causes a retry or is caught by the ABA tag
            let next = self.slots[idx as usize].next.load(Ordering::Relaxed);
            let tag = ((head >> 32) + 1) & LOW_MASK;
            let new = (tag << 32) | u64::from(next);
            match self.free_head.compare_exchange_weak(
                head,
                new,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(idx),
                Err(h) => head = h,
            }
        }
    }

    /// Push a slot index back onto the free list.
    fn push_free(&self, idx: u32) {
        let slot = &self.slots[idx as usize];
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            // relaxed-ok: the link is published by the Release CAS on free_head below
            slot.next.store((head & LOW_MASK) as u32, Ordering::Relaxed);
            let tag = ((head >> 32) + 1) & LOW_MASK;
            let new = (tag << 32) | u64::from(idx + 1);
            match self.free_head.compare_exchange_weak(
                head,
                new,
                Ordering::Release,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Number of slots currently on the free list (O(n) walk; stats only).
    fn free_count(&self) -> usize {
        self.slots
            .iter()
            // relaxed-ok: approximate stats counter, no synchronization implied
            .filter(|s| s.refs.load(Ordering::Relaxed) == 0)
            .count()
    }
}

/// Pool configuration: `(buffer size, slot count)` per size class.
/// Classes must be sorted ascending by buffer size.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// `(buf_size_bytes, slot_count)` pairs, ascending by size.
    pub classes: Vec<(usize, usize)>,
}

impl Default for PoolConfig {
    /// Default ladder: 4 KiB ×512, 16 KiB ×128, 64 KiB ×64, 256 KiB ×16
    /// (≈12 MiB of slab). Covers a page, a small record burst, the 64 KiB
    /// bench payload, and a large streaming buffer.
    fn default() -> Self {
        PoolConfig {
            classes: vec![(4096, 512), (16384, 128), (65536, 64), (262144, 16)],
        }
    }
}

/// Per-tenant accounting cells the pool keeps (lock-free open addressing:
/// `id` holds `tenant + 1`, 0 = empty). All fields are statistics-grade
/// atomics — quota enforcement tolerates the small races of concurrent
/// charge/uncharge, which can overshoot a quota by at most one in-flight
/// allocation per racing thread.
struct TenantCell {
    /// `tenant.as_u32() + 1`; 0 marks an unclaimed cell.
    id: AtomicU32,
    /// Bytes of pool slab currently charged to this tenant (slot sizes,
    /// not request lengths: quota bounds reserved memory).
    live_bytes: AtomicU64,
    /// Quota in bytes; 0 = unlimited.
    quota_bytes: AtomicU64,
    /// Allocations rejected because the quota was exhausted.
    rejects: AtomicU64,
    /// Clean pages shed *from this tenant* by a pool-dry eviction pass
    /// (reported by the page cache via [`BufferPool::note_tenant_shed`]).
    shed_pages: AtomicU64,
}

/// Number of tenant accounting cells per pool. Tenants beyond this many
/// distinct ids fall back to untenanted (uncounted) accounting.
const TENANT_CELLS: usize = 64;

struct PoolInner {
    classes: Box<[Class]>,
    /// Allocations currently live (slots out of the free lists).
    live: AtomicU64,
    /// Maximum of `live` ever observed.
    high_water: AtomicU64,
    /// Per-tenant live-byte accounting and quotas.
    tenants: Box<[TenantCell]>,
    /// Debug leak/aliasing tracker: the set of (class, slot) pairs that are
    /// currently allocated. Alloc asserts the pair was absent (no aliasing
    /// of two allocations onto one slot); free asserts it was present
    /// (free-exactly-once).
    #[cfg(debug_assertions)]
    tracker: crate::lockwitness::OrderedMutex<std::collections::HashSet<(u16, u32)>>,
}

impl PoolInner {
    /// The accounting cell for `tenant`, claiming an empty cell when
    /// `claim` is set. Returns `None` for the untenanted identity, for
    /// unknown tenants when not claiming, or when all cells are taken
    /// (such tenants degrade to untenanted accounting).
    fn tenant_cell(&self, tenant: TenantId, claim: bool) -> Option<&TenantCell> {
        if tenant.is_none() {
            return None;
        }
        let key = tenant.as_u32().wrapping_add(1).max(1);
        let start = tenant.as_u32() as usize % TENANT_CELLS;
        for i in 0..TENANT_CELLS {
            let cell = &self.tenants[(start + i) % TENANT_CELLS];
            let id = cell.id.load(Ordering::Acquire);
            if id == key {
                return Some(cell);
            }
            if id == 0 {
                if !claim {
                    // Cells are never vacated: an empty probe slot means
                    // this tenant was never registered.
                    return None;
                }
                match cell
                    .id
                    .compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => return Some(cell),
                    Err(now) if now == key => return Some(cell),
                    Err(_) => continue, // lost the race to another tenant
                }
            }
        }
        None
    }
}

/// A size-classed, refcounted shared-memory buffer pool. Cheap to clone
/// (all clones share the slabs).
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Build a pool from an explicit size-class ladder.
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(!cfg.classes.is_empty(), "pool needs at least one class");
        let mut prev = 0usize;
        for &(size, _) in &cfg.classes {
            assert!(size > prev, "classes must be ascending by buffer size");
            prev = size;
        }
        let classes: Box<[Class]> = cfg
            .classes
            .iter()
            .map(|&(size, count)| Class::new(size, count))
            .collect();
        assert!(classes.len() <= u16::MAX as usize);
        BufferPool {
            inner: Arc::new(PoolInner {
                classes,
                live: AtomicU64::new(0),
                high_water: AtomicU64::new(0),
                tenants: (0..TENANT_CELLS)
                    .map(|_| TenantCell {
                        id: AtomicU32::new(0),
                        live_bytes: AtomicU64::new(0),
                        quota_bytes: AtomicU64::new(0),
                        rejects: AtomicU64::new(0),
                        shed_pages: AtomicU64::new(0),
                    })
                    .collect(),
                #[cfg(debug_assertions)]
                tracker: crate::lockwitness::OrderedMutex::new(
                    &crate::lockwitness::POOL_TRACKER,
                    std::collections::HashSet::new(),
                ),
            }),
        }
    }

    /// Build a pool with the default size-class ladder.
    pub fn with_defaults() -> Self {
        BufferPool::new(PoolConfig::default())
    }

    /// Allocate a unique handle of `len` bytes from the smallest class
    /// that fits. Returns `None` when `len` exceeds the largest class or
    /// that class is dry — a request never falls over into a larger class.
    /// Contents are unspecified (a recycled slot keeps its old bytes):
    /// fill or zero before exposing the buffer.
    ///
    /// Untenanted: equivalent to `alloc_for(TenantId::NONE, len)`.
    pub fn alloc(&self, len: usize) -> Option<BufHandle> {
        self.alloc_for(TenantId::NONE, len)
    }

    /// Allocate `len` bytes billed to `tenant`. The charge is the *slot*
    /// size of the serving class (quota bounds reserved slab memory, not
    /// request bytes). A tenant over its byte quota gets `None` and a
    /// bumped reject counter; [`TenantId::NONE`] is never quota-bound.
    pub fn alloc_for(&self, tenant: TenantId, len: usize) -> Option<BufHandle> {
        let (ci, class) = self
            .inner
            .classes
            .iter()
            .enumerate()
            .find(|(_, c)| c.buf_size >= len)?;
        let cell = self.inner.tenant_cell(tenant, true);
        // Charge before popping so concurrent allocators cannot all slip
        // under the quota together; roll back if the class is dry.
        let charge = class.buf_size as u64;
        if let Some(cell) = cell {
            // relaxed-ok: quota accounting is statistics-grade; races overshoot by at most one in-flight alloc per thread
            let after = cell.live_bytes.fetch_add(charge, Ordering::Relaxed) + charge;
            // relaxed-ok: quota is a configuration value read monotonically
            let quota = cell.quota_bytes.load(Ordering::Relaxed);
            if quota > 0 && after > quota {
                // relaxed-ok: rollback of the stats charge above
                cell.live_bytes.fetch_sub(charge, Ordering::Relaxed);
                // relaxed-ok: stats counter
                cell.rejects.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        let Some(slot) = class.pop_free() else {
            if let Some(cell) = cell {
                // relaxed-ok: rollback of the stats charge above
                cell.live_bytes.fetch_sub(charge, Ordering::Relaxed);
            }
            return None;
        };
        let class_id = ci as u16;
        {
            // SAFETY: the slot was just popped off the free list
            // (refs == 0), so this thread has exclusive access until the
            // handle below is published.
            let data = unsafe { &mut *class.slots[slot as usize].data.get() };
            if data.len() != class.buf_size {
                *data = vec![0u8; class.buf_size].into_boxed_slice();
            }
        }
        // relaxed-ok: the handle is published to other threads through normal channels (queues, locks) that carry the happens-before edge
        class.slots[slot as usize].refs.store(1, Ordering::Relaxed);
        // relaxed-ok: live/high-water are stats counters
        let live = self.inner.live.fetch_add(1, Ordering::Relaxed) + 1;
        // relaxed-ok: monotonic max, stats only
        self.inner.high_water.fetch_max(live, Ordering::Relaxed);
        #[cfg(debug_assertions)]
        {
            let fresh = self.inner.tracker.lock().insert((class_id, slot)); // lock-class: pool.tracker
            assert!(fresh, "buffer pool handed out an already-live slot");
        }
        Some(BufHandle {
            backing: Backing::Slot {
                pool: Arc::clone(&self.inner),
                class: class_id,
                slot,
            },
            off: 0,
            len,
            tenant,
        })
    }

    /// Allocate a zeroed, untenanted payload buffer of `len` bytes that
    /// cannot fail for lack of capacity: a slot of the right class when
    /// one is free, otherwise an unpooled heap-backed handle that is freed
    /// on its last drop.
    pub fn alloc_payload(&self, len: usize) -> BufHandle {
        let Some(mut h) = self.alloc(len) else {
            return BufHandle::from_vec(vec![0u8; len]);
        };
        let zeroed = h.write_with(|b| b.fill(0));
        debug_assert!(zeroed, "fresh handle is unique");
        h
    }

    /// [`BufferPool::alloc_payload`] filled from `src`. This *is* a copy
    /// (the boundary copy into shared memory) and is recorded as one.
    pub fn payload_from(&self, src: &[u8]) -> BufHandle {
        note_payload_copy(src.len());
        let Some(mut h) = self.alloc(src.len()) else {
            // copy-ok: the boundary copy into a heap-backed handle; counted above
            return BufHandle::from_vec(src.to_vec());
        };
        let ok = h.fill(src);
        debug_assert!(ok, "fresh handle is unique");
        h
    }

    /// Allocations currently live.
    pub fn live(&self) -> u64 {
        // relaxed-ok: stats counter read
        self.inner.live.load(Ordering::Relaxed)
    }

    /// High-water mark of live allocations.
    pub fn high_water(&self) -> u64 {
        // relaxed-ok: stats counter read
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// Free slots remaining in the class that would serve a `len`-byte
    /// allocation (stats/tests).
    pub fn free_slots_for(&self, len: usize) -> usize {
        self.inner
            .classes
            .iter()
            .find(|c| c.buf_size >= len)
            .map(|c| c.free_count())
            .unwrap_or(0)
    }

    /// The size-class ladder as `(buf_size, slot_count)` pairs.
    pub fn class_table(&self) -> Vec<(usize, usize)> {
        self.inner
            .classes
            .iter()
            .map(|c| (c.buf_size, c.slots.len()))
            .collect()
    }

    /// Set `tenant`'s byte quota (0 = unlimited). Registers the tenant's
    /// accounting cell if it has none yet; a no-op for [`TenantId::NONE`]
    /// or when all [`TENANT_CELLS`] cells are taken.
    pub fn set_tenant_quota(&self, tenant: TenantId, quota_bytes: u64) {
        if let Some(cell) = self.inner.tenant_cell(tenant, true) {
            // relaxed-ok: configuration value; enforcement tolerates a stale read for one alloc
            cell.quota_bytes.store(quota_bytes, Ordering::Relaxed);
        }
    }

    /// Record that a pool-dry eviction pass shed one of `tenant`'s clean
    /// pages (called by the page cache so exhaustion is attributable).
    pub fn note_tenant_shed(&self, tenant: TenantId) {
        if let Some(cell) = self.inner.tenant_cell(tenant, true) {
            // relaxed-ok: stats counter
            cell.shed_pages.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Slab bytes currently charged to `tenant` (0 for unknown tenants).
    pub fn tenant_live_bytes(&self, tenant: TenantId) -> u64 {
        self.inner
            .tenant_cell(tenant, false)
            // relaxed-ok: stats counter read
            .map(|c| c.live_bytes.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Allocations rejected against `tenant`'s quota.
    pub fn tenant_rejects(&self, tenant: TenantId) -> u64 {
        self.inner
            .tenant_cell(tenant, false)
            // relaxed-ok: stats counter read
            .map(|c| c.rejects.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Clean pages shed from `tenant` by pool-dry eviction passes.
    pub fn tenant_shed_pages(&self, tenant: TenantId) -> u64 {
        self.inner
            .tenant_cell(tenant, false)
            // relaxed-ok: stats counter read
            .map(|c| c.shed_pages.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("classes", &self.class_table())
            .field("live", &self.live())
            .field("high_water", &self.high_water())
            .finish()
    }
}

/// Region id reported by heap-backed handles (pool classes count up from 0).
pub const HEAP_REGION: u64 = u64::MAX;

/// Where a handle's bytes live.
enum Backing {
    /// A pool slot; the last drop returns it to its class's free list.
    Slot {
        pool: Arc<PoolInner>,
        class: u16,
        slot: u32,
    },
    /// Unpooled heap bytes (pool dry, oversize request, or an adopted
    /// `Vec`); the last drop frees them. No `Weak` is ever made, so the
    /// strong count alone decides uniqueness.
    Heap(Arc<Vec<u8>>),
}

/// A refcounted view of payload bytes: `(region, offset, len)`. `Clone`
/// bumps the refcount; `Drop` of the last handle frees the backing (a pool
/// slot back to its free list, heap bytes to the allocator). Mutation
/// (`fill`, `write_with`) requires a *unique* handle.
pub struct BufHandle {
    backing: Backing,
    off: usize,
    len: usize,
    /// Tenant the slot is billed to (clones and slices share the bill;
    /// the last drop uncharges it). Heap handles are never billed.
    tenant: TenantId,
}

// SAFETY: the handle only permits shared reads of the slot bytes unless it
// is unique (refs == 1) and mutably borrowed; refcount traffic is atomic.
// The heap backing is an `Arc<Vec<u8>>` (Send) mutated only through
// `Arc::get_mut`; the remaining fields are plain integers.
unsafe impl Send for BufHandle {}
// SAFETY: `&BufHandle` only exposes read access to the slot bytes
// (`as_slice`); writes demand `&mut self` plus `refs == 1`, so two threads
// sharing a reference cannot race. The heap backing is an `Arc<Vec<u8>>`
// (Sync) that `&self` only reads.
unsafe impl Sync for BufHandle {}

impl BufHandle {
    /// Adopt `data` as an unpooled, heap-backed handle — no copy. Owned
    /// bytes produced inside a stack (a device read, a codec's output)
    /// enter the one payload carrier this way.
    pub fn from_vec(data: Vec<u8>) -> BufHandle {
        BufHandle {
            off: 0,
            len: data.len(),
            backing: Backing::Heap(Arc::new(data)),
            tenant: TenantId::NONE,
        }
    }

    fn slot_ref(pool: &PoolInner, class: u16, slot: u32) -> &Slot {
        &pool.classes[class as usize].slots[slot as usize]
    }

    /// Live-handle count on the backing allocation.
    fn refs(&self) -> usize {
        match &self.backing {
            Backing::Slot { pool, class, slot } => Self::slot_ref(pool, *class, *slot)
                .refs
                .load(Ordering::Acquire)
                as usize,
            Backing::Heap(v) => Arc::strong_count(v),
        }
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing region id: the size class for pool slots,
    /// [`HEAP_REGION`] for heap-backed handles.
    pub fn region(&self) -> u64 {
        match &self.backing {
            Backing::Slot { class, .. } => u64::from(*class),
            Backing::Heap(_) => HEAP_REGION,
        }
    }

    /// Byte offset of this view inside its backing region.
    pub fn offset(&self) -> usize {
        match &self.backing {
            Backing::Slot { pool, class, slot } => {
                *slot as usize * pool.classes[*class as usize].buf_size + self.off
            }
            Backing::Heap(_) => self.off,
        }
    }

    /// True when this is the only live handle on the backing. A `true`
    /// result is stable — no other handle exists to be cloned from — while
    /// a `false` result may be stale (a peer may be mid-drop).
    pub fn is_unique(&self) -> bool {
        self.refs() == 1
    }

    /// Read access to the bytes.
    pub fn as_slice(&self) -> &[u8] {
        let data: &[u8] = match &self.backing {
            // SAFETY: mutation is only possible through `write_with`,
            // which requires `refs == 1` and `&mut self`; while this
            // shared borrow is alive either refs > 1 (no writer can exist)
            // or the sole handle is borrowed here (so no `&mut` borrow can
            // coexist).
            Backing::Slot { pool, class, slot } => unsafe {
                &*Self::slot_ref(pool, *class, *slot).data.get()
            },
            Backing::Heap(v) => v,
        };
        &data[self.off..self.off + self.len]
    }

    /// Copy `src` into the front of the view. Fails (returns false)
    /// unless the handle is unique and `src` fits.
    pub fn fill(&mut self, src: &[u8]) -> bool {
        src.len() <= self.len && self.write_with(|b| b[..src.len()].copy_from_slice(src))
    }

    /// Run `f` over the mutable bytes of a unique handle (in-place fill,
    /// e.g. a device DMA target). Fails (returns false) if shared.
    pub fn write_with<F: FnOnce(&mut [u8])>(&mut self, f: F) -> bool {
        let range = self.off..self.off + self.len;
        let unique = self.is_unique();
        let data: &mut [u8] = match &mut self.backing {
            Backing::Slot { pool, class, slot } => {
                if !unique {
                    return false;
                }
                // SAFETY: refs == 1 and we hold `&mut self`, so no other
                // handle — and no other borrow of this handle — can
                // observe the bytes mid-write. A concurrent drop of a peer
                // would contradict refs == 1 (a true `is_unique` is
                // stable).
                unsafe { &mut *Self::slot_ref(pool, *class, *slot).data.get() }
            }
            Backing::Heap(v) => match Arc::get_mut(v) {
                Some(v) => v,
                None => return false,
            },
        };
        f(&mut data[range]);
        true
    }

    /// A narrowed read-only view of the same bytes (refcount bump, no
    /// copy). Returns `None` if the range falls outside this view.
    pub fn slice(&self, off: usize, len: usize) -> Option<BufHandle> {
        let end = off.checked_add(len)?;
        if end > self.len {
            return None;
        }
        let mut h = self.clone();
        h.off += off;
        h.len = len;
        Some(h)
    }

    /// Widen this view over `next` when both view one allocation and
    /// `next` starts where this view ends (no copy, no refcount traffic);
    /// returns whether it did.
    pub fn extend(&mut self, next: &BufHandle) -> bool {
        let adjacent = self.same_slot(next) && self.off + self.len == next.off;
        if adjacent {
            self.len += next.len;
        }
        adjacent
    }

    /// Shrink the view to its first `new_len` bytes (no-op if larger).
    pub fn truncate(&mut self, new_len: usize) {
        self.len = self.len.min(new_len);
    }

    /// Copy the bytes out into a fresh `Vec`. This is an intermediate
    /// payload copy and is recorded as one.
    pub fn to_vec(&self) -> Vec<u8> {
        note_payload_copy(self.len);
        // copy-ok: explicit materialization for owned-Vec consumers; counted via note_payload_copy
        self.as_slice().to_vec()
    }

    /// True when `other` views the same allocation.
    pub fn same_slot(&self, other: &BufHandle) -> bool {
        match (&self.backing, &other.backing) {
            (
                Backing::Slot { pool, class, slot },
                Backing::Slot {
                    pool: p2,
                    class: c2,
                    slot: s2,
                },
            ) => Arc::ptr_eq(pool, p2) && class == c2 && slot == s2,
            (Backing::Heap(a), Backing::Heap(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// True when the two views' byte ranges intersect. Distinct
    /// allocations must never overlap (the proptest invariant); slices of
    /// one allocation may.
    pub fn overlaps(&self, other: &BufHandle) -> bool {
        self.same_slot(other) && self.off < other.off + other.len && other.off < self.off + self.len
    }

    /// The tenant this allocation is billed to ([`TenantId::NONE`] for
    /// untenanted and heap-backed allocations).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }
}

impl Clone for BufHandle {
    fn clone(&self) -> Self {
        let backing = match &self.backing {
            Backing::Slot { pool, class, slot } => {
                // relaxed-ok: same protocol as Arc::clone — the fetch_sub/fence pair in Drop provides the release/acquire edge
                let prev = Self::slot_ref(pool, *class, *slot)
                    .refs
                    .fetch_add(1, Ordering::Relaxed);
                debug_assert!(prev > 0, "cloned a dead handle");
                Backing::Slot {
                    pool: Arc::clone(pool),
                    class: *class,
                    slot: *slot,
                }
            }
            Backing::Heap(v) => Backing::Heap(Arc::clone(v)),
        };
        BufHandle {
            backing,
            off: self.off,
            len: self.len,
            tenant: self.tenant,
        }
    }
}

impl Drop for BufHandle {
    fn drop(&mut self) {
        // Heap bytes are freed by their `Arc`.
        let Backing::Slot { pool, class, slot } = &self.backing else {
            return;
        };
        let (class, slot) = (*class, *slot);
        // Release so our writes to the bytes happen-before the next owner;
        // the winner (prev == 1) takes the matching Acquire fence. Freeing
        // iff fetch_sub returned 1 is the single-free protocol the labcheck
        // rc model checker verifies (a load-after-sub recheck double-frees).
        let prev = Self::slot_ref(pool, class, slot)
            .refs
            .fetch_sub(1, Ordering::Release);
        if prev == 1 {
            fence(Ordering::Acquire);
            #[cfg(debug_assertions)]
            {
                let was_live = pool.tracker.lock().remove(&(class, slot)); // lock-class: pool.tracker
                assert!(was_live, "buffer slot freed twice");
            }
            // relaxed-ok: stats counter
            pool.live.fetch_sub(1, Ordering::Relaxed);
            if let Some(cell) = pool.tenant_cell(self.tenant, false) {
                let charge = pool.classes[class as usize].buf_size as u64;
                // relaxed-ok: uncharge of the stats-grade quota accounting made at alloc
                cell.live_bytes.fetch_sub(charge, Ordering::Relaxed);
            }
            pool.classes[class as usize].push_free(slot);
        }
    }
}

impl std::fmt::Debug for BufHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufHandle")
            .field("region", &self.region())
            .field("offset", &self.offset())
            .field("len", &self.len)
            .field("refs", &self.refs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pool() -> BufferPool {
        BufferPool::new(PoolConfig {
            classes: vec![(64, 4), (256, 2)],
        })
    }

    #[test]
    fn alloc_fill_read_roundtrip() {
        let pool = small_pool();
        let mut h = pool.alloc(16).unwrap();
        assert!(h.fill(b"hello zero-copy!"));
        assert_eq!(h.as_slice(), b"hello zero-copy!");
        assert_eq!(h.len(), 16);
        assert_eq!(pool.live(), 1);
        drop(h);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn size_class_selection_without_fallover() {
        let pool = small_pool();
        let a = pool.alloc(64).unwrap();
        assert_eq!(a.region(), 0);
        let b = pool.alloc(65).unwrap();
        assert_eq!(b.region(), 1);
        // Exhaust the small class: the next small alloc does NOT fall over
        // into the 256-byte class, which still has a free slot.
        let _rest: Vec<_> = (0..3).map(|_| pool.alloc(1).unwrap()).collect();
        assert!(pool.alloc(1).is_none());
        assert_eq!(pool.free_slots_for(65), 1);
        assert!(pool.alloc(300).is_none(), "larger than every class");
    }

    #[test]
    fn alloc_payload_falls_back_to_heap_when_dry_or_oversize() {
        let pool = small_pool();
        let held: Vec<_> = (0..4).map(|_| pool.alloc(64).unwrap()).collect();
        let mut dry = pool.alloc_payload(10);
        assert_eq!(dry.region(), HEAP_REGION);
        assert_eq!(dry.as_slice(), &[0u8; 10]);
        assert!(dry.fill(b"heap bytes"));
        let shared = dry.clone();
        assert!(!dry.is_unique());
        assert!(!dry.fill(b"clobbered!"), "shared heap bytes are read-only");
        assert!(shared.same_slot(&dry) && shared.overlaps(&dry));
        drop(shared);
        assert!(dry.is_unique());
        assert_eq!(dry.slice(5, 5).unwrap().as_slice(), b"bytes");
        let big = pool.payload_from(&[7u8; 1000]);
        assert_eq!(big.region(), HEAP_REGION);
        assert_eq!(big.as_slice(), &[7u8; 1000][..]);
        assert!(!big.overlaps(&dry));
        // Heap handles never occupy pool slots.
        assert_eq!(pool.live(), 4);
        // A free slot of the right class is still preferred, and comes
        // back zeroed even though the slot held bytes before.
        let mut used = held.into_iter().next().unwrap();
        assert!(used.fill(&[9u8; 64]));
        drop(used);
        let recycled = pool.alloc_payload(64);
        assert_eq!(recycled.region(), 0);
        assert_eq!(recycled.as_slice(), &[0u8; 64][..]);
    }

    #[test]
    fn from_vec_adopts_without_copy() {
        let before = payload_copies();
        let v = vec![1u8, 2, 3];
        let ptr = v.as_ptr();
        let h = BufHandle::from_vec(v);
        assert_eq!(h.as_slice().as_ptr(), ptr);
        assert_eq!(payload_copies(), before);
        assert!(h.tenant().is_none());
    }

    #[test]
    fn clone_blocks_mutation_until_unique() {
        let pool = small_pool();
        let mut h = pool.alloc(8).unwrap();
        assert!(h.fill(b"original"));
        let shared = h.clone();
        assert!(!h.is_unique());
        assert!(!h.fill(b"clobber!"));
        assert_eq!(shared.as_slice(), b"original");
        drop(shared);
        assert!(h.is_unique());
        assert!(h.fill(b"newbytes"));
        assert_eq!(h.as_slice(), b"newbytes");
    }

    #[test]
    fn slice_shares_without_copy() {
        let pool = small_pool();
        let h = pool.payload_from(b"abcdefgh");
        let s = h.slice(2, 3).unwrap();
        assert_eq!(s.as_slice(), b"cde");
        assert!(s.same_slot(&h));
        assert!(s.overlaps(&h));
        assert!(h.slice(7, 2).is_none());
        assert_eq!(pool.live(), 1);
        drop(h);
        assert_eq!(pool.live(), 1); // slice keeps the slot alive
        drop(s);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn extend_stitches_adjacent_views_of_one_allocation() {
        let pool = small_pool();
        let h = pool.payload_from(b"abcdefgh");
        let mut a = h.slice(0, 3).unwrap();
        let mut b = h.slice(3, 2).unwrap();
        let c = h.slice(6, 2).unwrap();
        assert!(!b.extend(&a), "wrong order");
        assert!(!b.extend(&c), "gap between the views");
        assert!(!a.extend(&pool.payload_from(b"defgh")), "other allocation");
        assert_eq!(a.as_slice(), b"abc");
        assert!(a.extend(&b));
        assert_eq!(a.as_slice(), b"abcde");
    }

    #[test]
    fn distinct_allocations_never_overlap() {
        let pool = small_pool();
        let handles: Vec<_> = (0..4).map(|_| pool.alloc(64).unwrap()).collect();
        for (i, a) in handles.iter().enumerate() {
            for b in &handles[i + 1..] {
                assert!(!a.overlaps(b));
            }
        }
    }

    #[test]
    fn free_list_recycles_slots() {
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(32, 1)],
        });
        for round in 0..10 {
            let mut h = pool.alloc(32).unwrap();
            assert!(h.write_with(|b| b[0] = round));
            assert_eq!(h.as_slice()[0], round);
            assert!(pool.alloc(32).is_none());
        }
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.high_water(), 1);
    }

    #[test]
    fn copy_counter_tracks_boundary_copies() {
        let pool = small_pool();
        let before = payload_copies();
        let h = pool.payload_from(b"counted");
        assert_eq!(payload_copies(), before + 1);
        let _s = h.slice(0, 3).unwrap(); // no copy
        let _c = h.clone(); // no copy
        assert_eq!(payload_copies(), before + 1);
        let _v = h.to_vec(); // counted
        assert_eq!(payload_copies(), before + 2);
    }

    #[test]
    fn tenant_quota_rejects_and_uncharges() {
        let pool = small_pool(); // classes: 64×4, 256×2
        let t = TenantId(7);
        pool.set_tenant_quota(t, 128); // room for two 64-byte slots
        let a = pool.alloc_for(t, 10).unwrap();
        assert_eq!(a.tenant(), t);
        let b = pool.alloc_for(t, 10).unwrap();
        assert_eq!(pool.tenant_live_bytes(t), 128);
        // Third allocation would charge 64 more → over quota, terminal.
        assert!(pool.alloc_for(t, 10).is_none());
        assert_eq!(pool.tenant_rejects(t), 1);
        assert_eq!(pool.tenant_live_bytes(t), 128);
        // Other tenants and the untenanted identity are unaffected.
        assert!(pool.alloc_for(TenantId(8), 10).is_some());
        assert!(pool.alloc(10).is_some());
        // Dropping uncharges; the tenant can allocate again.
        drop(a);
        drop(b);
        assert_eq!(pool.tenant_live_bytes(t), 0);
        assert!(pool.alloc_for(t, 10).is_some());
    }

    #[test]
    fn tenant_charge_survives_clone_until_last_drop() {
        let pool = small_pool();
        let t = TenantId(3);
        let h = pool.alloc_for(t, 16).unwrap();
        let c = h.clone();
        let s = h.slice(0, 4).unwrap();
        assert_eq!(s.tenant(), t);
        assert_eq!(pool.tenant_live_bytes(t), 64);
        drop(h);
        drop(c);
        assert_eq!(pool.tenant_live_bytes(t), 64); // slice still live
        drop(s);
        assert_eq!(pool.tenant_live_bytes(t), 0);
    }

    #[test]
    fn tenant_charge_rolls_back_when_class_is_dry() {
        let pool = small_pool();
        let t = TenantId(9);
        pool.set_tenant_quota(t, 1024);
        // Exhaust the 64-byte class untenanted.
        let _held: Vec<_> = (0..4).map(|_| pool.alloc(64).unwrap()).collect();
        // The tenant's small alloc finds its class dry: no fall-over, and
        // no charge sticks (a dry class is not a quota reject).
        assert!(pool.alloc_for(t, 10).is_none());
        assert_eq!(pool.tenant_live_bytes(t), 0);
        assert_eq!(pool.tenant_rejects(t), 0);
        let h = pool.alloc_for(t, 100).unwrap();
        assert_eq!(pool.tenant_live_bytes(t), 256);
        drop(h);
        assert_eq!(pool.tenant_live_bytes(t), 0);
    }

    #[test]
    fn shed_attribution_counter() {
        let pool = small_pool();
        let t = TenantId(4);
        assert_eq!(pool.tenant_shed_pages(t), 0);
        pool.note_tenant_shed(t);
        pool.note_tenant_shed(t);
        assert_eq!(pool.tenant_shed_pages(t), 2);
        assert_eq!(pool.tenant_shed_pages(TenantId(5)), 0);
    }

    #[test]
    fn concurrent_alloc_drop_storm() {
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(64, 32)],
        });
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        if let Some(mut h) = pool.alloc(64) {
                            let tag = (t as u32) << 16 | i;
                            assert!(h.fill(&tag.to_le_bytes()));
                            let c = h.clone();
                            assert_eq!(
                                u32::from_le_bytes(c.as_slice()[..4].try_into().unwrap()),
                                tag
                            );
                            drop(h);
                            drop(c);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.live(), 0);
        assert!(pool.high_water() <= 32);
        assert_eq!(pool.free_slots_for(64), 32);
    }
}

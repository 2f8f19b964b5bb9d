//! LabFS: the log-structured, crash-consistent POSIX filesystem LabMod
//! (paper §III-E).
//!
//! Architecture, straight from the paper:
//!
//! * **Scalable per-worker block allocator** — "evenly divides device
//!   blocks among the pool of workers. Workers can steal from one another
//!   if more space is needed." ([`BlockAllocator`])
//! * **Per-worker metadata log** — "LabFS uses a per-worker log for
//!   tracking metadata operations. As opposed to storing inodes and
//!   bitmaps on-disk as traditional FSes do, LabFS only stores the log
//!   and reconstructs inodes in-memory by traversing the log."
//!   ([`MetaLog`], [`LogRecord`])
//! * **Flat inode hashmap** — "LabFS stores all files in a single hashmap,
//!   which supports insert, rename, and delete operations with minimal
//!   contention" — here sharded for the same minimal-contention goal.
//! * **Provenance tracking** — each inode carries an operation counter and
//!   last-writer identity.
//!
//! Namespace/metadata operations touch only LabFS state and its log; data
//! operations emit `BlockOp`s down the LabStack DAG (cache → scheduler →
//! driver). The log itself is written to a reserved device region via a
//! direct handle — exactly the paper's decentralized-metadata option where
//! latency-critical log state bypasses the stack.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use labstor_core::{
    BlockOp, FileStat, FsOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload,
    StackEnv,
};
use labstor_ipc::{BufHandle, InlineData};
use labstor_sim::{BlockDevice, Ctx, SimDevice};
use labstor_telemetry::PerfCounters;

use crate::devices::{device_param, DeviceRegistry};
use crate::flush::{FlushDaemon, FLUSH_KICK_BYTES};
use crate::journal::{self, RepairReport};

/// Filesystem block size.
pub const FS_BLOCK: usize = 4096;
const BLOCK_SECTORS: u64 = (FS_BLOCK / labstor_sim::SECTOR_SIZE) as u64;
/// Blocks reserved per worker log region.
const LOG_BLOCKS_PER_WORKER: u64 = 2048;

/// CPU cost of one hashmap-based metadata lookup.
const META_CPU_NS: u64 = 300;
/// CPU cost of a file creation: inode init, log record construction,
/// provenance setup. Calibrated against Fig. 7's ablations (removing the
/// 450 ns permissions stage buys ~7%, removing the ~1.3 µs IPC path ~20%).
const CREATE_CPU_NS: u64 = 4_200;
/// CPU cost of appending one log record to the in-memory log buffer.
const LOG_APPEND_NS: u64 = 80;
/// CPU cost of one block allocation (bump pointer).
const ALLOC_NS: u64 = 40;

// ---------------------------------------------------------------------
// Log records
// ---------------------------------------------------------------------

/// A metadata log record. The log is the *only* persistent metadata:
/// replaying it reconstructs every inode (crash consistency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// File or directory creation.
    Create {
        /// Full path key.
        path: String,
        /// Assigned inode.
        ino: u64,
        /// Permission bits.
        mode: u16,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
        /// Directory flag.
        is_dir: bool,
    },
    /// Removal.
    Unlink {
        /// Full path key.
        path: String,
    },
    /// File size change (extend or truncate).
    SetSize {
        /// Inode.
        ino: u64,
        /// New size in bytes.
        size: u64,
    },
    /// Data block mapping.
    MapBlock {
        /// Inode.
        ino: u64,
        /// File page index.
        page: u64,
        /// Device block number.
        block: u64,
    },
    /// Rename (the flat hashmap's key move).
    Rename {
        /// Existing path key.
        from: String,
        /// New path key.
        to: String,
    },
}

impl LogRecord {
    /// Serialize into `out` (length-prefixed strings, little endian).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Create {
                path,
                ino,
                mode,
                uid,
                gid,
                is_dir,
            } => {
                out.push(1);
                out.extend_from_slice(&(path.len() as u32).to_le_bytes());
                out.extend_from_slice(path.as_bytes());
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&mode.to_le_bytes());
                out.extend_from_slice(&uid.to_le_bytes());
                out.extend_from_slice(&gid.to_le_bytes());
                out.push(u8::from(*is_dir));
            }
            LogRecord::Unlink { path } => {
                out.push(2);
                out.extend_from_slice(&(path.len() as u32).to_le_bytes());
                out.extend_from_slice(path.as_bytes());
            }
            LogRecord::SetSize { ino, size } => {
                out.push(3);
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&size.to_le_bytes());
            }
            LogRecord::MapBlock { ino, page, block } => {
                out.push(4);
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&block.to_le_bytes());
            }
            LogRecord::Rename { from, to } => {
                out.push(5);
                out.extend_from_slice(&(from.len() as u32).to_le_bytes());
                out.extend_from_slice(from.as_bytes());
                out.extend_from_slice(&(to.len() as u32).to_le_bytes());
                out.extend_from_slice(to.as_bytes());
            }
        }
    }

    /// Decode one record from `buf[*pos..]`, advancing `pos`. Returns
    /// `None` at a zero tag (end-of-log padding) or on truncation.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<LogRecord> {
        fn take<'b>(buf: &'b [u8], pos: &mut usize, n: usize) -> Option<&'b [u8]> {
            let s = &buf.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        }
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            1 => {
                let len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a path string — metadata, not payload bytes
                let path = String::from_utf8(take(buf, pos, len)?.to_vec()).ok()?;
                let ino = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let mode = u16::from_le_bytes(take(buf, pos, 2)?.try_into().ok()?);
                let uid = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?);
                let gid = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?);
                let is_dir = *take(buf, pos, 1)?.first()? != 0;
                Some(LogRecord::Create {
                    path,
                    ino,
                    mode,
                    uid,
                    gid,
                    is_dir,
                })
            }
            2 => {
                let len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a path string — metadata, not payload bytes
                let path = String::from_utf8(take(buf, pos, len)?.to_vec()).ok()?;
                Some(LogRecord::Unlink { path })
            }
            3 => {
                let ino = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let size = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                Some(LogRecord::SetSize { ino, size })
            }
            4 => {
                let ino = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let page = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let block = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                Some(LogRecord::MapBlock { ino, page, block })
            }
            5 => {
                let flen = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a path string — metadata, not payload bytes
                let from = String::from_utf8(take(buf, pos, flen)?.to_vec()).ok()?;
                let tlen = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a path string — metadata, not payload bytes
                let to = String::from_utf8(take(buf, pos, tlen)?.to_vec()).ok()?;
                Some(LogRecord::Rename { from, to })
            }
            _ => None,
        }
    }
}

/// One worker's metadata log: an in-memory buffer of encoded records plus
/// a cursor into its reserved device region. Each flush becomes one
/// journal transaction (see [`crate::journal`]): a header+payload write
/// followed by a separate commit-record write.
struct MetaLog {
    /// Encoded-but-unflushed records.
    buffer: Vec<u8>,
    /// First block of this log's device region.
    region_start: u64,
    /// Next block to write within the region.
    next_block: u64,
    /// Region size in blocks.
    region_blocks: u64,
    /// Sequence number of the next transaction (starts at 1).
    next_seq: u64,
}

impl MetaLog {
    fn append(&mut self, rec: &LogRecord) {
        rec.encode(&mut self.buffer);
    }
}

// ---------------------------------------------------------------------
// Block allocator
// ---------------------------------------------------------------------

struct AllocShard {
    next: u64,
    end: u64,
}

/// The per-worker block allocator with stealing.
pub struct BlockAllocator {
    shards: Vec<Mutex<AllocShard>>,
    /// Blocks a needy shard takes from the richest one.
    steal_batch: u64,
}

impl BlockAllocator {
    /// Divide `[start, end)` blocks evenly across `workers` shards.
    pub fn new(start: u64, end: u64, workers: usize, steal_batch: u64) -> Self {
        let workers = workers.max(1);
        let per = (end - start) / workers as u64;
        BlockAllocator {
            shards: (0..workers as u64)
                .map(|w| {
                    Mutex::new(AllocShard {
                        next: start + w * per,
                        end: if w == workers as u64 - 1 {
                            end
                        } else {
                            start + (w + 1) * per
                        },
                    })
                })
                .collect(),
            steal_batch: steal_batch.max(1),
        }
    }

    /// Allocate one block from `worker`'s shard, stealing when empty.
    pub fn alloc(&self, worker: usize) -> Option<u64> {
        let w = worker % self.shards.len();
        {
            let mut shard = self.shards[w].lock();
            if shard.next < shard.end {
                let b = shard.next;
                shard.next += 1;
                return Some(b);
            }
        }
        // Steal: take a batch from the richest other shard.
        let victim = (0..self.shards.len())
            .filter(|&v| v != w)
            .max_by_key(|&v| {
                let s = self.shards[v].lock();
                s.end - s.next
            })?;
        let (steal_start, steal_end) = {
            let mut s = self.shards[victim].lock();
            let available = s.end - s.next;
            if available == 0 {
                return None;
            }
            let take = self.steal_batch.min(available);
            let start = s.end - take;
            s.end = start;
            (start, start + take)
        };
        let mut shard = self.shards[w].lock();
        shard.next = steal_start;
        shard.end = steal_end;
        let b = shard.next;
        shard.next += 1;
        Some(b)
    }

    /// Total free blocks.
    pub fn free_blocks(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.end - s.next
            })
            .sum()
    }

    /// Decommission worker `w`: its remaining blocks are reassigned to
    /// running workers ("if the number of workers decreases, free blocks
    /// of the decommissioned workers are assigned to running workers",
    /// §III-E). A shard holds one contiguous range, so the range moves
    /// wholesale when a peer can absorb it (empty or adjacent); otherwise
    /// it stays in place where the existing steal path hands it out —
    /// either way every block remains allocatable exactly once.
    pub fn decommission(&self, w: usize) {
        let w = w % self.shards.len();
        let needy = (0..self.shards.len()).filter(|&v| v != w).min_by_key(|&v| {
            let s = self.shards[v].lock();
            s.end - s.next
        });
        let Some(v) = needy else { return };
        // Lock in index order to avoid deadlock with concurrent callers.
        let (mut a, mut b) = if w < v {
            let a = self.shards[w].lock();
            let b = self.shards[v].lock();
            (a, b)
        } else {
            let b = self.shards[v].lock();
            let a = self.shards[w].lock();
            (a, b)
        };
        if a.next >= a.end {
            return; // nothing to donate
        }
        if b.next >= b.end {
            // Peer empty: adopt the range wholesale.
            b.next = a.next;
            b.end = a.end;
            a.next = a.end;
        } else if b.end == a.next {
            // Adjacent: extend the peer.
            b.end = a.end;
            a.next = a.end;
        }
        // Non-adjacent, non-empty peer: leave the donor range in place —
        // the steal path redistributes it on demand.
    }
}

// ---------------------------------------------------------------------
// LabFS
// ---------------------------------------------------------------------

/// A read result: ≤ 64 B rides by value in the envelope (no handle round
/// trip), anything larger as the handle.
pub(crate) fn small_inline(h: BufHandle) -> RespPayload {
    match InlineData::from_slice(h.as_slice()) {
        Some(d) => RespPayload::Inline(d),
        None => RespPayload::DataBuf(h),
    }
}

struct FsNode {
    ino: u64,
    size: u64,
    uid: u32,
    gid: u32,
    mode: u16,
    is_dir: bool,
    /// page index → device block.
    blocks: HashMap<u64, u64>,
    /// Provenance: operations applied to this inode.
    ops: u64,
    /// Provenance: uid of the last writer.
    last_writer: u32,
}

/// The LabFS LabMod.
pub struct LabFs {
    /// Sharded path → ino ("a single hashmap" with minimal contention).
    names: Vec<RwLock<HashMap<String, u64>>>,
    /// Sharded ino → node.
    nodes: Vec<RwLock<HashMap<u64, FsNode>>>,
    allocator: BlockAllocator,
    logs: Vec<Mutex<MetaLog>>,
    /// Direct handle for log persistence and replay.
    log_device: Arc<SimDevice>,
    /// Background half of the double-buffered log flush (see
    /// [`crate::flush`]).
    flush: FlushDaemon,
    next_ino: AtomicU64,
    perf: PerfCounters,
    /// Busy time spent in downstream stages (subtracted so
    /// `est_total_time` reports LabFS-exclusive work).
    downstream_ns: AtomicU64,
    /// What the most recent `state_repair` found (see [`RepairReport`]).
    last_repair: Mutex<Option<RepairReport>>,
}

impl LabFs {
    /// Build LabFS over `device` with `workers` allocator/log shards.
    pub fn new(device: Arc<SimDevice>, workers: usize) -> Self {
        let workers = workers.max(1);
        let total_blocks = device.model().capacity_sectors() / BLOCK_SECTORS;
        let log_blocks = LOG_BLOCKS_PER_WORKER * workers as u64;
        let shards = workers.next_power_of_two().max(16);
        LabFs {
            names: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            nodes: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            allocator: BlockAllocator::new(log_blocks, total_blocks, workers, 4096),
            logs: (0..workers as u64)
                .map(|w| {
                    Mutex::new(MetaLog {
                        buffer: Vec::new(),
                        region_start: w * LOG_BLOCKS_PER_WORKER,
                        next_block: w * LOG_BLOCKS_PER_WORKER,
                        region_blocks: LOG_BLOCKS_PER_WORKER,
                        next_seq: 1,
                    })
                })
                .collect(),
            flush: FlushDaemon::new(device.clone(), FS_BLOCK),
            log_device: device,
            next_ino: AtomicU64::new(1),
            perf: PerfCounters::new(),
            downstream_ns: AtomicU64::new(0),
            last_repair: Mutex::new(None),
        }
    }

    /// Forward while attributing the downstream busy time to downstream.
    fn fwd(&self, ctx: &mut Ctx, env: &StackEnv<'_>, req: Request) -> RespPayload {
        let before = ctx.busy();
        let r = env.forward(ctx, req);
        self.downstream_ns
            .fetch_add(ctx.busy() - before, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        r
    }

    fn name_shard_idx(&self, path: &str) -> usize {
        let mut h = 0xcbf29ce484222325u64;
        for b in path.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        (h as usize) % self.names.len()
    }

    fn name_shard(&self, path: &str) -> &RwLock<HashMap<String, u64>> {
        &self.names[self.name_shard_idx(path)]
    }

    fn node_shard(&self, ino: u64) -> &RwLock<HashMap<u64, FsNode>> {
        &self.nodes[(ino as usize) % self.nodes.len()]
    }

    /// Append a record to the originating worker's log. Once the buffer
    /// crosses the kick threshold it is streamed to the flush daemon in
    /// the background, so the append path never blocks on the device.
    fn log(&self, ctx: &mut Ctx, core: usize, rec: &LogRecord) {
        ctx.advance(LOG_APPEND_NS);
        let mut log = self.logs[core % self.logs.len()].lock();
        log.append(rec);
        if log.buffer.len() >= FLUSH_KICK_BYTES {
            // Region-full is not actionable here; the next fsync's kick
            // surfaces it (the buffer just keeps accumulating).
            let _ = self.kick_log(ctx.now(), &mut log);
        }
    }

    /// Foreground half of the double-buffered flush: reserve this log's
    /// next transaction (blocks + sequence number), swap the buffer out,
    /// and hand it to the daemon. Cursors advance here, so appends keep
    /// filling the fresh buffer while the old one flushes; a region-full
    /// error leaves the log untouched.
    fn kick_log(&self, now: u64, log: &mut MetaLog) -> Result<(), String> {
        if log.buffer.is_empty() {
            return Ok(());
        }
        let blocks = journal::txn_blocks(log.buffer.len(), FS_BLOCK);
        if log.next_block + blocks > log.region_start + log.region_blocks {
            return Err("metadata log region full".to_string());
        }
        let payload = std::mem::take(&mut log.buffer);
        self.flush
            .submit(log.next_seq, payload, log.next_block, now);
        log.next_block += blocks;
        log.next_seq += 1;
        Ok(())
    }

    /// Flush every log's buffered records to its device region as one
    /// journal transaction each, then wait for durability. The daemon
    /// writes header+payload first and the commit record only after that
    /// write was accepted (write-ahead ordering): a crash between the two
    /// leaves an uncommitted transaction that recovery discards.
    fn flush_logs(&self, ctx: &mut Ctx) -> Result<(), String> {
        for log in &self.logs {
            self.kick_log(ctx.now(), &mut log.lock())?;
        }
        self.flush.sync(ctx)
    }

    /// Apply one log record to the in-memory maps (used by replay).
    fn apply(&self, rec: LogRecord) {
        match rec {
            LogRecord::Create {
                path,
                ino,
                mode,
                uid,
                gid,
                is_dir,
            } => {
                self.name_shard(&path).write().insert(path, ino);
                self.node_shard(ino).write().insert(
                    ino,
                    FsNode {
                        ino,
                        size: 0,
                        uid,
                        gid,
                        mode,
                        is_dir,
                        blocks: HashMap::new(),
                        ops: 1,
                        last_writer: uid,
                    },
                );
                // Keep ino allocation ahead of everything replayed.
                self.next_ino.fetch_max(ino + 1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
            }
            LogRecord::Unlink { path } => {
                if let Some(ino) = self.name_shard(&path).write().remove(&path) {
                    self.node_shard(ino).write().remove(&ino);
                }
            }
            LogRecord::SetSize { ino, size } => {
                if let Some(n) = self.node_shard(ino).write().get_mut(&ino) {
                    n.size = size;
                }
            }
            LogRecord::MapBlock { ino, page, block } => {
                if let Some(n) = self.node_shard(ino).write().get_mut(&ino) {
                    n.blocks.insert(page, block);
                }
            }
            LogRecord::Rename { from, to } => {
                self.rename_in_maps(&from, &to);
            }
        }
    }

    /// Move a key between name shards, replacing any existing target
    /// (POSIX rename semantics). Returns false if `from` does not exist.
    fn rename_in_maps(&self, from: &str, to: &str) -> bool {
        // Lock discipline: a rename may span two shards; take the lower
        // shard index first.
        let fi = self.name_shard_idx(from);
        let ti = self.name_shard_idx(to);
        if fi == ti {
            let mut shard = self.names[fi].write();
            let Some(ino) = shard.remove(from) else {
                return false;
            };
            if let Some(old) = shard.insert(to.to_string(), ino) {
                self.node_shard(old).write().remove(&old);
            }
            true
        } else {
            let (lo, hi) = (fi.min(ti), fi.max(ti));
            let mut lo_guard = self.names[lo].write();
            let mut hi_guard = self.names[hi].write();
            let (from_shard, to_shard) = if fi == lo {
                (&mut lo_guard, &mut hi_guard)
            } else {
                (&mut hi_guard, &mut lo_guard)
            };
            let Some(ino) = from_shard.remove(from) else {
                return false;
            };
            if let Some(old) = to_shard.insert(to.to_string(), ino) {
                self.node_shard(old).write().remove(&old);
            }
            true
        }
    }

    /// Drop all in-memory state and rebuild it by scanning the on-device
    /// journal regions — the crash-recovery path behind `state_repair`.
    ///
    /// The scan trusts media, not in-memory cursors: it walks each region
    /// from its start, replays the longest prefix of committed
    /// transactions, and discards any torn or uncommitted tail (see
    /// [`crate::journal::replay_scan`]). Cursors are then reset so new
    /// appends resume right after the last committed transaction.
    pub fn replay_from_device(&self) -> RepairReport {
        // Quiesce the flush daemon and clear its error latch: queued
        // buffers predate the crash and the scan below trusts media.
        self.flush.reset();
        for shard in &self.names {
            shard.write().clear();
        }
        for shard in &self.nodes {
            shard.write().clear();
        }
        let mut report = RepairReport::default();
        let mut ctx = Ctx::new(); // recovery timeline; not client-visible
        for log in &self.logs {
            let mut log = log.lock();
            let region_start = log.region_start;
            let device = &self.log_device;
            let outcome = journal::replay_scan(log.region_blocks, FS_BLOCK, |block, n| {
                let mut buf = vec![0u8; n as usize * FS_BLOCK];
                device
                    .read(&mut ctx, (region_start + block) * BLOCK_SECTORS, &mut buf)
                    .ok()
                    .map(|_| buf)
            });
            for (_seq, payload) in &outcome.txns {
                let mut pos = 0usize;
                while pos < payload.len() {
                    match LogRecord::decode(payload, &mut pos) {
                        Some(rec) => {
                            self.apply(rec);
                            report.records_replayed += 1;
                        }
                        None => {
                            // A committed payload should decode cleanly;
                            // a malformed entry is surfaced, not
                            // swallowed.
                            report.records_discarded += 1;
                            break;
                        }
                    }
                }
            }
            for payload in &outcome.discarded_payloads {
                let mut pos = 0usize;
                while pos < payload.len() {
                    match LogRecord::decode(payload, &mut pos) {
                        Some(_) => report.records_discarded += 1,
                        None => break,
                    }
                }
            }
            report.txns_replayed += outcome.txns.len() as u64;
            report.txns_discarded += outcome.txns_discarded;
            report.torn_tail |= outcome.torn_tail;
            // Resume appends after the last committed transaction, and
            // drop any unflushed buffer — it predates the crash.
            log.next_block = region_start + outcome.next_block;
            log.next_seq = outcome.txns.last().map(|(s, _)| s + 1).unwrap_or(1);
            log.buffer.clear();
        }
        *self.last_repair.lock() = Some(report);
        report
    }

    /// What the most recent repair found, if one has run.
    pub fn last_repair(&self) -> Option<RepairReport> {
        *self.last_repair.lock()
    }

    /// Number of live files/directories.
    pub fn file_count(&self) -> usize {
        self.names.iter().map(|s| s.read().len()).sum()
    }

    /// Provenance query: (ops, last_writer) for an inode.
    pub fn provenance(&self, ino: u64) -> Option<(u64, u32)> {
        self.node_shard(ino)
            .read()
            .get(&ino)
            .map(|n| (n.ops, n.last_writer))
    }

    // ---- operations ----------------------------------------------------

    fn op_create(
        &self,
        ctx: &mut Ctx,
        req: &Request,
        path: &str,
        mode: u16,
        is_dir: bool,
    ) -> RespPayload {
        ctx.advance(CREATE_CPU_NS);
        let ino = {
            let mut names = self.name_shard(path).write();
            if names.contains_key(path) {
                return RespPayload::Err(format!("{path}: file exists"));
            }
            let ino = self.next_ino.fetch_add(1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
            names.insert(path.to_string(), ino);
            ino
        };
        self.node_shard(ino).write().insert(
            ino,
            FsNode {
                ino,
                size: 0,
                uid: req.creds.uid,
                gid: req.creds.gid,
                mode,
                is_dir,
                blocks: HashMap::new(),
                ops: 1,
                last_writer: req.creds.uid,
            },
        );
        self.log(
            ctx,
            req.core,
            &LogRecord::Create {
                path: path.to_string(),
                ino,
                mode,
                uid: req.creds.uid,
                gid: req.creds.gid,
                is_dir,
            },
        );
        RespPayload::Ino(ino)
    }

    /// Map `[offset, offset+len)` of `ino` to device blocks, allocating
    /// and logging as needed (the metadata half of a write). Returns the
    /// (page, block) extents and the set of freshly mapped pages.
    #[allow(clippy::type_complexity)]
    fn map_range(
        &self,
        ctx: &mut Ctx,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
    ) -> Result<(Vec<(u64, u64)>, std::collections::HashSet<u64>), RespPayload> {
        let first_pg = offset / FS_BLOCK as u64;
        let last_pg = (offset + len as u64).div_ceil(FS_BLOCK as u64);
        let mut extents: Vec<(u64, u64)> = Vec::new(); // (page, block)
        let mut fresh: Vec<(u64, u64)> = Vec::new(); // newly mapped
        let grew;
        {
            let mut shard = self.node_shard(ino).write();
            let Some(node) = shard.get_mut(&ino) else {
                return Err(RespPayload::Err(format!("no inode {ino}")));
            };
            if node.is_dir {
                return Err(RespPayload::Err("is a directory".into()));
            }
            for pg in first_pg..last_pg {
                match node.blocks.get(&pg) {
                    Some(&b) => extents.push((pg, b)),
                    None => {
                        ctx.advance(ALLOC_NS);
                        let Some(b) = self.allocator.alloc(req.core) else {
                            return Err(RespPayload::Err("no space".into()));
                        };
                        node.blocks.insert(pg, b);
                        extents.push((pg, b));
                        fresh.push((pg, b));
                    }
                }
            }
            grew = offset + len as u64 > node.size;
            node.size = node.size.max(offset + len as u64);
            node.ops += 1;
            node.last_writer = req.creds.uid;
        }
        // Log only what changed: new mappings and growth.
        for &(pg, b) in &fresh {
            self.log(
                ctx,
                req.core,
                &LogRecord::MapBlock {
                    ino,
                    page: pg,
                    block: b,
                },
            );
        }
        if grew {
            self.log(
                ctx,
                req.core,
                &LogRecord::SetSize {
                    ino,
                    size: offset + len as u64,
                },
            );
        }
        Ok((extents, fresh.iter().map(|&(pg, _)| pg).collect()))
    }

    /// Forward one block op downstream with the request's routing intact.
    fn fwd_block(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        op: BlockOp,
    ) -> RespPayload {
        self.fwd(ctx, env, req.derive(Payload::Block(op)))
    }

    /// Write: fully covered pages are forwarded as slices of the caller's
    /// payload buffer (refcount bumps — no memcpy all the way to the
    /// driver, which DMAs from the shared buffer), contiguous blocks
    /// coalesced into one slice. A partial page is patched into a fresh
    /// block buffer: zero-padded when the page is fresh, read-modify-write
    /// when it exists; both copies are counted.
    fn op_write(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        buf: &labstor_ipc::BufHandle,
    ) -> RespPayload {
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let data_len = buf.len();
        let (extents, fresh_pages) = match self.map_range(ctx, req, ino, offset, data_len) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let end = offset + data_len as u64;
        let mut i = 0usize;
        while i < extents.len() {
            let (page, block) = extents[i];
            let pg_start = page * FS_BLOCK as u64;
            let cover_from = pg_start.max(offset);
            let cover_to = (pg_start + FS_BLOCK as u64).min(end);
            let full = cover_from == pg_start && cover_to == pg_start + FS_BLOCK as u64;
            if full {
                // Coalesce contiguous fully covered blocks into one slice.
                let mut j = i;
                while j + 1 < extents.len() && extents[j + 1].1 == extents[j].1 + 1 {
                    let n_start = extents[j + 1].0 * FS_BLOCK as u64;
                    if !(offset <= n_start && n_start + FS_BLOCK as u64 <= end) {
                        break;
                    }
                    j += 1;
                }
                let run_pages = j - i + 1;
                let Some(slice) = buf.slice((pg_start - offset) as usize, run_pages * FS_BLOCK)
                else {
                    return RespPayload::Err("write buffer shorter than its extent".into());
                };
                let r = self.fwd_block(
                    ctx,
                    env,
                    req,
                    BlockOp::Write {
                        lba: block * BLOCK_SECTORS,
                        buf: slice,
                    },
                );
                if !r.is_ok() {
                    return r;
                }
                i = j + 1;
                continue;
            }
            // Partial page: patch it into a fresh block buffer.
            let dst = (cover_from - pg_start) as usize;
            let src = (cover_from - offset) as usize;
            let cnt = (cover_to - cover_from) as usize;
            let base = if fresh_pages.contains(&page) {
                None
            } else {
                // Read-modify-write so neighbouring bytes survive.
                match self.fwd_block(
                    ctx,
                    env,
                    req,
                    BlockOp::Read {
                        lba: block * BLOCK_SECTORS,
                        len: FS_BLOCK,
                    },
                ) {
                    RespPayload::DataBuf(h) => Some(h),
                    other => return other,
                }
            };
            let mut patched = labstor_ipc::default_pool().alloc_payload(FS_BLOCK);
            patched.write_with(|b| {
                if let Some(h) = &base {
                    let keep = h.len().min(FS_BLOCK);
                    labstor_ipc::note_payload_copy(keep);
                    b[..keep].copy_from_slice(&h.as_slice()[..keep]);
                }
                labstor_ipc::note_payload_copy(cnt);
                b[dst..dst + cnt].copy_from_slice(&buf.as_slice()[src..src + cnt]);
            });
            let r = self.fwd_block(
                ctx,
                env,
                req,
                BlockOp::Write {
                    lba: block * BLOCK_SECTORS,
                    buf: patched,
                },
            );
            if !r.is_ok() {
                return r;
            }
            i += 1;
        }
        RespPayload::Len(data_len)
    }

    /// Read: a read confined to one page forwards a block read and answers
    /// with a slice of the returned handle — a cache hit downstream is
    /// refcount bumps end to end — or, for ≤ 64 B, inline. Multi-page
    /// reads assemble into one payload buffer (each block lands with one
    /// counted copy).
    fn op_read(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
    ) -> RespPayload {
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let (size, mappings): (u64, Vec<Option<u64>>) = {
            let shard = self.node_shard(ino).read();
            let Some(node) = shard.get(&ino) else {
                return RespPayload::Err(format!("no inode {ino}"));
            };
            if node.is_dir {
                return RespPayload::Err("is a directory".into());
            }
            let first_pg = offset / FS_BLOCK as u64;
            let last_pg = (offset + len as u64).div_ceil(FS_BLOCK as u64);
            (
                node.size,
                (first_pg..last_pg)
                    .map(|pg| node.blocks.get(&pg).copied())
                    .collect(),
            )
        };
        if offset >= size || len == 0 {
            return RespPayload::Inline(InlineData::EMPTY);
        }
        let n = len.min((size - offset) as usize);
        let first_pg = offset / FS_BLOCK as u64;
        let single_page = (offset + n as u64 - 1) / FS_BLOCK as u64 == first_pg;
        if single_page {
            let Some(Some(block)) = mappings.first() else {
                // Hole: hand back zeroes without touching the stack.
                return small_inline(labstor_ipc::default_pool().alloc_payload(n));
            };
            let resp = self.fwd_block(
                ctx,
                env,
                req,
                BlockOp::Read {
                    lba: block * BLOCK_SECTORS,
                    len: FS_BLOCK,
                },
            );
            let RespPayload::DataBuf(h) = resp else {
                return resp;
            };
            let src = (offset - first_pg * FS_BLOCK as u64) as usize;
            return match h.slice(src, n) {
                Some(win) => small_inline(win),
                None => RespPayload::Err("short block read".into()),
            };
        }
        // Multi-page: assemble into one payload buffer.
        let mut out = labstor_ipc::default_pool().alloc_payload(n);
        for (idx, mapping) in mappings.iter().enumerate() {
            let pg = first_pg + idx as u64;
            let pg_start = pg * FS_BLOCK as u64;
            let copy_from = pg_start.max(offset);
            let copy_to = (pg_start + FS_BLOCK as u64).min(offset + n as u64);
            if copy_from >= copy_to {
                continue;
            }
            let Some(block) = mapping else {
                continue; // hole: already zero
            };
            let resp = self.fwd_block(
                ctx,
                env,
                req,
                BlockOp::Read {
                    lba: block * BLOCK_SECTORS,
                    len: FS_BLOCK,
                },
            );
            let RespPayload::DataBuf(h) = resp else {
                return resp;
            };
            let src = (copy_from - pg_start) as usize;
            let dst = (copy_from - offset) as usize;
            let cnt = (copy_to - copy_from) as usize;
            let Some(block_bytes) = h.as_slice().get(src..src + cnt) else {
                return RespPayload::Err("short block read".into());
            };
            labstor_ipc::note_payload_copy(cnt);
            out.write_with(|b| b[dst..dst + cnt].copy_from_slice(block_bytes));
        }
        RespPayload::DataBuf(out)
    }

    /// Pushdown read: run a verified program over the file range
    /// in-stack and ship back only the result. Every page is scanned in
    /// place through its handle, so the hit path counts **zero** payload
    /// copies. Fuel is metered per instruction across the whole range and
    /// billed to the requesting tenant afterwards.
    #[allow(clippy::too_many_arguments)]
    fn op_read_filtered(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
        prog: &labstor_pushdown::VerifiedProgram,
    ) -> RespPayload {
        use labstor_pushdown::{scan, Action, ScanOut};

        let rlen = prog.record_len();
        // Records must pack pages exactly: no record straddles a block
        // boundary, so each page scans independently over one slice.
        if rlen > FS_BLOCK || !FS_BLOCK.is_multiple_of(rlen) {
            return RespPayload::Err(format!(
                "pushdown: record length {rlen} does not pack {FS_BLOCK}-byte pages"
            ));
        }
        if !offset.is_multiple_of(rlen as u64) {
            return RespPayload::Err(format!(
                "pushdown: offset {offset} not aligned to {rlen}-byte records"
            ));
        }
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let (size, mappings): (u64, Vec<Option<u64>>) = {
            let shard = self.node_shard(ino).read();
            let Some(node) = shard.get(&ino) else {
                return RespPayload::Err(format!("no inode {ino}"));
            };
            if node.is_dir {
                return RespPayload::Err("is a directory".into());
            }
            let first_pg = offset / FS_BLOCK as u64;
            let last_pg = (offset + len as u64).div_ceil(FS_BLOCK as u64);
            (
                node.size,
                (first_pg..last_pg)
                    .map(|pg| node.blocks.get(&pg).copied())
                    .collect(),
            )
        };
        let avail = size.saturating_sub(offset) as usize;
        let n = (len.min(avail) / rlen) * rlen; // whole records only
        let mut fuel = prog.fuel_budget();
        let mut out = ScanOut::default();
        let mut matched: Vec<u8> = Vec::new();
        let first_pg = offset / FS_BLOCK as u64;
        static ZERO_PAGE: [u8; FS_BLOCK] = [0u8; FS_BLOCK];
        for (idx, mapping) in mappings.iter().enumerate() {
            let pg = first_pg + idx as u64;
            let pg_start = pg * FS_BLOCK as u64;
            let win_from = pg_start.max(offset);
            let win_to = (pg_start + FS_BLOCK as u64).min(offset + n as u64);
            if win_from >= win_to {
                continue;
            }
            let src = (win_from - pg_start) as usize;
            let cnt = (win_to - win_from) as usize;
            let base_index = (win_from - offset) / rlen as u64;
            // Holes read as zeroes; scan the shared zero page so hole
            // semantics match a plain read without materializing pages.
            let block_resp;
            let window: &[u8] = match mapping {
                None => &ZERO_PAGE[src..src + cnt],
                Some(block) => {
                    block_resp = self.fwd_block(
                        ctx,
                        env,
                        req,
                        BlockOp::Read {
                            lba: block * BLOCK_SECTORS,
                            len: FS_BLOCK,
                        },
                    );
                    // The pushdown payoff: scan the cached/DMA'd block in
                    // place through the handle — no copy.
                    match &block_resp {
                        RespPayload::DataBuf(h) => match h.as_slice().get(src..src + cnt) {
                            Some(w) => w,
                            None => return RespPayload::Err("short block read".into()),
                        },
                        _ => return block_resp.clone(),
                    }
                }
            };
            let before_hits = out.hits.len();
            let scan_result = scan(prog, window, base_index, &mut fuel, &mut out);
            if prog.action() == Action::Select {
                for &hit in &out.hits[before_hits..] {
                    // Materializing the (rare) matching records is the
                    // result, not a payload move.
                    matched.extend_from_slice(&window[hit..hit + rlen]);
                }
            }
            if scan_result.is_err() {
                let used = prog.fuel_budget() - fuel;
                let _ = env.charge_fuel(ctx, &req.creds, used);
                return RespPayload::Err(format!(
                    "pushdown: out of fuel after {} records",
                    out.records
                ));
            }
        }
        let used = prog.fuel_budget() - fuel;
        if let Err(retry_vns) = env.charge_fuel(ctx, &req.creds, used) {
            return RespPayload::Err(format!(
                "pushdown: tenant {} over fuel budget, retry in {retry_vns} vns",
                req.creds.tenant.as_u32()
            ));
        }
        match prog.action() {
            Action::Count | Action::Sum => {
                let reply = labstor_pushdown::AggReply {
                    records: out.records,
                    matches: out.matches,
                    agg: out.agg,
                    fuel_used: used,
                };
                match InlineData::from_slice(&reply.encode()) {
                    Some(d) => RespPayload::Inline(d),
                    None => RespPayload::Err("pushdown: aggregate too large".into()),
                }
            }
            Action::Select => match InlineData::from_slice(&matched) {
                Some(d) => RespPayload::Inline(d),
                None => RespPayload::DataBuf(BufHandle::from_vec(matched)),
            },
        }
    }
}

impl LabMod for LabFs {
    fn type_name(&self) -> &'static str {
        "labfs"
    }

    fn mod_type(&self) -> ModType {
        ModType::Filesystem
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let before = ctx.busy();
        let resp = match &req.payload {
            Payload::Fs(FsOp::Create { path, mode }) => {
                self.op_create(ctx, &req, path, *mode, false)
            }
            Payload::Fs(FsOp::Mkdir { path, mode }) => self.op_create(ctx, &req, path, *mode, true),
            Payload::Fs(FsOp::Open {
                path,
                create,
                truncate,
            }) => {
                ctx.advance(META_CPU_NS);
                let existing = self.name_shard(path).read().get(path).copied();
                match existing {
                    Some(ino) => {
                        if *truncate {
                            if let Some(n) = self.node_shard(ino).write().get_mut(&ino) {
                                n.size = 0;
                                n.blocks.clear();
                                n.ops += 1;
                            }
                            self.log(ctx, req.core, &LogRecord::SetSize { ino, size: 0 });
                        }
                        RespPayload::Ino(ino)
                    }
                    None if *create => self.op_create(ctx, &req, path, 0o644, false),
                    None => RespPayload::Err(format!("{path}: not found")),
                }
            }
            Payload::Fs(FsOp::WriteBuf { ino, offset, buf }) => {
                self.op_write(ctx, env, &req, *ino, *offset, buf)
            }
            Payload::Fs(FsOp::Read { ino, offset, len }) => {
                self.op_read(ctx, env, &req, *ino, *offset, *len)
            }
            Payload::Fs(FsOp::ReadFiltered {
                ino,
                offset,
                len,
                prog,
            }) => self.op_read_filtered(ctx, env, &req, *ino, *offset, *len, prog),
            Payload::Fs(FsOp::Rename { from, to }) => {
                ctx.advance(META_CPU_NS);
                if self.rename_in_maps(from, to) {
                    self.log(
                        ctx,
                        req.core,
                        &LogRecord::Rename {
                            from: from.clone(),
                            to: to.clone(),
                        },
                    );
                    RespPayload::Ok
                } else {
                    RespPayload::Err(format!("{from}: not found"))
                }
            }
            Payload::Fs(FsOp::Unlink { path }) => {
                ctx.advance(META_CPU_NS);
                let removed = self.name_shard(path).write().remove(path);
                match removed {
                    Some(ino) => {
                        self.node_shard(ino).write().remove(&ino);
                        self.log(ctx, req.core, &LogRecord::Unlink { path: path.clone() });
                        RespPayload::Ok
                    }
                    None => RespPayload::Err(format!("{path}: not found")),
                }
            }
            Payload::Fs(FsOp::Stat { path }) => {
                ctx.advance(META_CPU_NS);
                let ino = self.name_shard(path).read().get(path).copied();
                match ino.and_then(|i| {
                    self.node_shard(i).read().get(&i).map(|n| FileStat {
                        ino: n.ino,
                        size: n.size,
                        is_dir: n.is_dir,
                        uid: n.uid,
                        gid: n.gid,
                        mode: n.mode,
                    })
                }) {
                    Some(st) => RespPayload::Stat(st),
                    None => RespPayload::Err(format!("{path}: not found")),
                }
            }
            Payload::Fs(FsOp::Readdir { path }) => {
                let prefix = if path.ends_with('/') {
                    path.clone()
                } else {
                    format!("{path}/")
                };
                let mut names: Vec<String> = Vec::new();
                for shard in &self.names {
                    for key in shard.read().keys() {
                        if let Some(rest) = key.strip_prefix(&prefix) {
                            if !rest.is_empty() && !rest.contains('/') {
                                names.push(rest.to_string());
                            }
                        }
                    }
                }
                ctx.advance(100 * names.len().max(1) as u64);
                names.sort();
                RespPayload::Names(names)
            }
            Payload::Fs(FsOp::Truncate { ino, size }) => {
                ctx.advance(META_CPU_NS);
                let mut shard = self.node_shard(*ino).write();
                match shard.get_mut(ino) {
                    Some(n) => {
                        n.size = *size;
                        let keep = size.div_ceil(FS_BLOCK as u64);
                        n.blocks.retain(|&pg, _| pg < keep);
                        n.ops += 1;
                        drop(shard);
                        self.log(
                            ctx,
                            req.core,
                            &LogRecord::SetSize {
                                ino: *ino,
                                size: *size,
                            },
                        );
                        RespPayload::Ok
                    }
                    None => RespPayload::Err(format!("no inode {ino}")),
                }
            }
            Payload::Fs(FsOp::Fsync { .. }) => {
                // Persist the metadata log, then barrier the data path.
                if let Err(e) = self.flush_logs(ctx) {
                    return RespPayload::Err(e);
                }
                self.fwd_block(ctx, env, &req, BlockOp::Flush)
            }
            // Pass non-FS payloads through (e.g. a barrier travelling the
            // stack).
            _ => self.fwd(ctx, env, req),
        };
        let downstream = self.downstream_ns.swap(0, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        self.perf
            .observe((ctx.busy() - before).saturating_sub(downstream));
        resp
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        self.perf.est_ns(match &req.payload {
            Payload::Fs(FsOp::WriteBuf { .. } | FsOp::Read { .. } | FsOp::ReadFiltered { .. }) => {
                2_000 + req.payload_bytes() as u64
            }
            _ => META_CPU_NS + LOG_APPEND_NS,
        })
    }

    fn est_total_time(&self) -> u64 {
        self.perf.total_ns()
    }

    fn state_update(&self, old: &dyn LabMod) {
        // Upgrades move the whole in-memory state across instances.
        if let Some(prev) = old.as_any().downcast_ref::<LabFs>() {
            self.perf.absorb(&prev.perf);
            for (mine, theirs) in self.names.iter().zip(prev.names.iter()) {
                *mine.write() = theirs.read().clone();
            }
            for (mine, theirs) in self.nodes.iter().zip(prev.nodes.iter()) {
                let mut m = mine.write();
                let t = theirs.read();
                m.clear();
                for (k, v) in t.iter() {
                    m.insert(
                        *k,
                        FsNode {
                            ino: v.ino,
                            size: v.size,
                            uid: v.uid,
                            gid: v.gid,
                            mode: v.mode,
                            is_dir: v.is_dir,
                            blocks: v.blocks.clone(),
                            ops: v.ops,
                            last_writer: v.last_writer,
                        },
                    );
                }
            }
            // Carry the journal cursors over so the new instance appends
            // after the old one's transactions instead of overwriting the
            // log from the start (which would orphan pre-upgrade metadata
            // on the next crash). Absorb first: it drains the old
            // instance's flush daemon, so the cursors copied below are
            // final and its durability clock / error latch carry over.
            self.flush.absorb(&prev.flush);
            for (mine, theirs) in self.logs.iter().zip(prev.logs.iter()) {
                let mut m = mine.lock();
                let t = theirs.lock();
                m.buffer = t.buffer.clone();
                m.next_block = t.next_block;
                m.next_seq = t.next_seq;
            }
            // relaxed-ok: fresh-id allocation; atomicity alone suffices
            self.next_ino
                .store(prev.next_ino.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    fn state_repair(&self) {
        self.replay_from_device();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the factory. Params: `{"device": "<name>", "workers": <n>}`.
pub fn install(mm: &ModuleManager, devices: &Arc<DeviceRegistry>) {
    let reg = devices.clone();
    mm.register_factory(
        "labfs",
        Arc::new(move |params| {
            let name = device_param(params);
            let dev = reg
                .block(&name)
                .unwrap_or_else(|| panic!("no block device '{name}'"));
            let workers = params.get("workers").and_then(|v| v.as_u64()).unwrap_or(8) as usize;
            Arc::new(LabFs::new(dev, workers)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use labstor_sim::DeviceKind;

    struct Harness {
        mm: ModuleManager,
        stack: LabStack,
    }

    impl Harness {
        fn new() -> (Harness, Arc<SimDevice>) {
            let devices = DeviceRegistry::new();
            let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
            let mm = ModuleManager::new();
            install(&mm, &devices);
            crate::drivers::install(&mm, &devices);
            mm.instantiate(
                "fs",
                "labfs",
                &serde_json::json!({"device": "nvme0", "workers": 4}),
            )
            .unwrap();
            mm.instantiate(
                "drv",
                "kernel_driver",
                &serde_json::json!({"device": "nvme0"}),
            )
            .unwrap();
            let stack = LabStack {
                id: 1,
                mount: "fs::/t".into(),
                exec: ExecMode::Sync,
                vertices: vec![
                    Vertex {
                        uuid: "fs".into(),
                        outputs: vec![1],
                    },
                    Vertex {
                        uuid: "drv".into(),
                        outputs: vec![],
                    },
                ],
                authorized_uids: vec![],
            };
            (Harness { mm, stack }, dev)
        }

        fn exec(&self, payload: Payload, ctx: &mut Ctx) -> RespPayload {
            let env = StackEnv {
                stack: &self.stack,
                vertex: 0,
                registry: &self.mm,
                domain: 0,
            };
            self.mm.get("fs").unwrap().process(
                ctx,
                Request::new(1, 1, payload, Credentials::ROOT),
                &env,
            )
        }

        fn labfs(&self) -> Arc<dyn LabMod> {
            self.mm.get("fs").unwrap()
        }
    }

    fn ino_of(resp: RespPayload) -> u64 {
        match resp {
            RespPayload::Ino(i) => i,
            other => panic!("expected ino, got {other:?}"),
        }
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/a".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        let data: Vec<u8> = (0..10_000).map(|i| (i % 247) as u8).collect();
        let w = h.exec(
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf: BufHandle::from_vec(data.clone()),
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == data.len()));
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: data.len(),
            }),
            &mut ctx,
        );
        assert_eq!(r.data_bytes(), Some(&data[..]));
    }

    #[test]
    fn open_creates_and_truncates() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Open {
                path: "/o".into(),
                create: true,
                truncate: false,
            }),
            &mut ctx,
        ));
        h.exec(
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf: BufHandle::from_vec(vec![1u8; 100]),
            }),
            &mut ctx,
        );
        let again = ino_of(h.exec(
            Payload::Fs(FsOp::Open {
                path: "/o".into(),
                create: false,
                truncate: true,
            }),
            &mut ctx,
        ));
        assert_eq!(ino, again);
        let st = h.exec(Payload::Fs(FsOp::Stat { path: "/o".into() }), &mut ctx);
        assert!(matches!(st, RespPayload::Stat(s) if s.size == 0));
    }

    #[test]
    fn readdir_lists_children_only() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Mkdir {
                path: "/d".into(),
                mode: 0o755,
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/d/x".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/d/y".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/d/sub/z".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        let names = h.exec(Payload::Fs(FsOp::Readdir { path: "/d".into() }), &mut ctx);
        assert!(
            matches!(names, RespPayload::Names(n) if n == vec!["x".to_string(), "y".to_string()])
        );
    }

    #[test]
    fn unlink_then_stat_fails() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/gone".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        assert!(h
            .exec(
                Payload::Fs(FsOp::Unlink {
                    path: "/gone".into()
                }),
                &mut ctx
            )
            .is_ok());
        assert!(!h
            .exec(
                Payload::Fs(FsOp::Stat {
                    path: "/gone".into()
                }),
                &mut ctx
            )
            .is_ok());
        assert!(!h
            .exec(
                Payload::Fs(FsOp::Unlink {
                    path: "/gone".into()
                }),
                &mut ctx
            )
            .is_ok());
    }

    #[test]
    fn duplicate_create_rejected() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/dup".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        assert!(!h
            .exec(
                Payload::Fs(FsOp::Create {
                    path: "/dup".into(),
                    mode: 0o644
                }),
                &mut ctx
            )
            .is_ok());
    }

    #[test]
    fn sparse_read_returns_zeroes() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/s".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        // Write page 2 only.
        h.exec(
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 2 * FS_BLOCK as u64,
                buf: BufHandle::from_vec(vec![7u8; FS_BLOCK]),
            }),
            &mut ctx,
        );
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: FS_BLOCK,
            }),
            &mut ctx,
        );
        assert!(
            matches!(r.data_bytes(), Some(d) if d.len() == FS_BLOCK && d.iter().all(|&b| b == 0))
        );
    }

    #[test]
    fn unaligned_overwrite_roundtrips() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/u".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        h.exec(
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf: BufHandle::from_vec(vec![1u8; 8192]),
            }),
            &mut ctx,
        );
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 100,
                len: 500,
            }),
            &mut ctx,
        );
        assert!(matches!(r.data_bytes(), Some(d) if d.len() == 500 && d.iter().all(|&b| b == 1)));
    }

    #[test]
    fn zero_copy_write_read_roundtrip() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/z".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        let mut buf = labstor_ipc::default_pool().alloc_payload(2 * FS_BLOCK);
        buf.write_with(|b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = (i % 249) as u8;
            }
        });
        let expect = buf.to_vec();
        let w = h.exec(
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf,
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == 2 * FS_BLOCK));
        // A single-page read answers with a refcounted slice.
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: FS_BLOCK,
            }),
            &mut ctx,
        );
        match r {
            RespPayload::DataBuf(hdl) => assert_eq!(hdl.as_slice(), &expect[..FS_BLOCK]),
            other => panic!("expected DataBuf, got {other:?}"),
        }
        // An unaligned multi-page read assembles byte-identically.
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 100,
                len: FS_BLOCK + 500,
            }),
            &mut ctx,
        );
        assert_eq!(r.data_bytes(), Some(&expect[100..100 + FS_BLOCK + 500]));
    }

    #[test]
    fn crash_recovery_replays_log() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/p".into(),
                mode: 0o600,
            }),
            &mut ctx,
        ));
        let data: Vec<u8> = (0..FS_BLOCK * 2).map(|i| (i % 251) as u8).collect();
        h.exec(
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf: BufHandle::from_vec(data.clone()),
            }),
            &mut ctx,
        );
        // Persist the log (fsync), then wipe all in-memory state and
        // replay from the device: everything must come back.
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        fs.state_repair();
        assert_eq!(fs.file_count(), 1);
        let st = h.exec(Payload::Fs(FsOp::Stat { path: "/p".into() }), &mut ctx);
        assert!(
            matches!(st, RespPayload::Stat(s) if s.size == data.len() as u64 && s.mode == 0o600)
        );
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: data.len(),
            }),
            &mut ctx,
        );
        assert_eq!(
            r.data_bytes(),
            Some(&data[..]),
            "data blocks survive via replayed mappings"
        );
    }

    #[test]
    fn repair_reports_clean_replay() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/clean".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        assert!(fs.last_repair().is_none(), "no repair has run yet");
        let rep = fs.replay_from_device();
        assert_eq!(rep.txns_replayed, 1);
        assert!(rep.records_replayed >= 1);
        assert!(rep.is_clean());
        assert_eq!(fs.last_repair(), Some(rep));
    }

    #[test]
    fn uncommitted_tail_txn_is_discarded_and_reported() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/durable".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        // Simulate a crash between the payload write and the commit
        // write: hand-write a valid seq-2 body frame with no commit
        // record after transaction 1.
        let mut payload = Vec::new();
        LogRecord::Create {
            path: "/lost".into(),
            ino: 99,
            mode: 0o644,
            uid: 0,
            gid: 0,
            is_dir: false,
        }
        .encode(&mut payload);
        let (body, _commit_never_written) = crate::journal::encode_txn(2, &payload, FS_BLOCK);
        let next = fs.logs[0].lock().next_block;
        dev.write(&mut ctx, next * BLOCK_SECTORS, &body).unwrap();
        let rep = fs.replay_from_device();
        assert_eq!(rep.txns_replayed, 1);
        assert_eq!(rep.txns_discarded, 1);
        assert_eq!(rep.records_discarded, 1);
        assert!(rep.torn_tail);
        assert_eq!(
            fs.file_count(),
            1,
            "/lost was never acked, so it must not appear"
        );
        // Appends resume after the committed prefix: the next fsync
        // overwrites the torn tail.
        let ino2 = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/after".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        assert!(h
            .exec(Payload::Fs(FsOp::Fsync { ino: ino2 }), &mut ctx)
            .is_ok());
        assert!(fs.replay_from_device().is_clean());
        assert_eq!(fs.file_count(), 2);
    }

    #[test]
    fn silently_torn_flush_is_caught_by_crc_on_replay() {
        // Find a seed whose first torn write lands zero sectors, so the
        // flush's body write vanishes entirely while still being acked.
        let seed = (1..256u64)
            .find(|&s| {
                let f = labstor_sim::FaultConfig::default();
                f.set_seed(s);
                f.set_torn(1, true);
                f.torn_sectors(8) == Some(0)
            })
            .expect("some seed tears to zero sectors");
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/stays".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        dev.faults().set_seed(seed);
        dev.faults().set_torn(1, true);
        let ino2 = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/ghost".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        // The fsync is acked — the device lies about the torn write.
        assert!(h
            .exec(Payload::Fs(FsOp::Fsync { ino: ino2 }), &mut ctx)
            .is_ok());
        dev.faults().set_torn(0, false);
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        let rep = fs.replay_from_device();
        // The CRC chain catches what the ack hid: only txn 1 survives.
        assert_eq!(rep.txns_replayed, 1);
        assert_eq!(fs.file_count(), 1);
    }

    #[test]
    fn unflushed_ops_lost_on_crash() {
        // Without fsync the log never reached the device: a crash loses
        // the file — honest log-structured semantics.
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/volatile".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        fs.state_repair();
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn state_update_preserves_files() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/keep".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        let old = h.labfs();
        let newer = LabFs::new(dev, 4);
        newer.state_update(old.as_ref());
        assert_eq!(newer.file_count(), 1);
    }

    #[test]
    fn provenance_tracks_ops_and_writer() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/prov".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        h.exec(
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf: BufHandle::from_vec(vec![0u8; 10]),
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf: BufHandle::from_vec(vec![0u8; 10]),
            }),
            &mut ctx,
        );
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        let (ops, writer) = fs.provenance(ino).unwrap();
        assert_eq!(ops, 3); // create + 2 writes
        assert_eq!(writer, 0);
    }

    #[test]
    fn allocator_steals_when_shard_empty() {
        let a = BlockAllocator::new(0, 100, 4, 8);
        // Drain shard 0 (25 blocks), then keep allocating: stealing kicks in.
        let mut got = std::collections::HashSet::new();
        for _ in 0..80 {
            let b = a.alloc(0).expect("steals from other shards");
            assert!(got.insert(b), "no double allocation");
        }
        assert!(a.free_blocks() <= 20);
    }

    #[test]
    fn decommission_moves_blocks_to_running_workers() {
        let a = BlockAllocator::new(0, 100, 4, 8);
        let before = a.free_blocks();
        a.decommission(2);
        assert_eq!(a.free_blocks(), before, "no blocks lost in the move");
        // Worker 2's shard is empty; other workers can still allocate all
        // remaining blocks (via their shards or stealing).
        let mut seen = std::collections::HashSet::new();
        while let Some(b) = a.alloc(0) {
            assert!(seen.insert(b));
        }
        assert_eq!(seen.len() as u64, before);
    }

    #[test]
    fn allocator_exhausts_cleanly() {
        let a = BlockAllocator::new(0, 16, 2, 4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            assert!(seen.insert(a.alloc(0).unwrap()));
        }
        assert!(a.alloc(0).is_none());
        assert!(a.alloc(1).is_none());
    }

    #[test]
    fn log_records_roundtrip() {
        let records = vec![
            LogRecord::Create {
                path: "/x/y".into(),
                ino: 42,
                mode: 0o600,
                uid: 7,
                gid: 8,
                is_dir: true,
            },
            LogRecord::MapBlock {
                ino: 42,
                page: 3,
                block: 999,
            },
            LogRecord::SetSize {
                ino: 42,
                size: 12345,
            },
            LogRecord::Unlink {
                path: "/x/y".into(),
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        buf.extend_from_slice(&[0u8; 64]); // end-of-log padding
        let mut pos = 0;
        let mut decoded = Vec::new();
        while let Some(r) = LogRecord::decode(&buf, &mut pos) {
            decoded.push(r);
        }
        assert_eq!(decoded, records);
    }
}

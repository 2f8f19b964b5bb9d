//! LabKVS: the key-value store LabMod (paper §III-E).
//!
//! "LabKVS is similarly designed to LabFS; however, LabKVS implements a
//! put/get/remove API, which creates keys and stores data using a single
//! syscall, as opposed to the three (open-modify-close) required by
//! POSIX." It shares LabFS's architecture: sharded key map, per-worker
//! block allocation, per-worker operation log, replay-based recovery.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use labstor_core::{
    BlockOp, KvsOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_ipc::{BufHandle, InlineData};
use labstor_sim::{BlockDevice, Ctx, SimDevice};
use labstor_telemetry::PerfCounters;

use crate::devices::{device_param, DeviceRegistry};
use crate::flush::{FlushDaemon, FLUSH_KICK_BYTES};
use crate::journal::{self, RepairReport};
use crate::labfs::{small_inline, BlockAllocator};

const KV_BLOCK: usize = 4096;
const BLOCK_SECTORS: u64 = (KV_BLOCK / labstor_sim::SECTOR_SIZE) as u64;
const LOG_BLOCKS_PER_WORKER: u64 = 1024;

/// CPU cost of one key-map operation.
const KV_CPU_NS: u64 = 250;

/// A stored value's location: its length and the device blocks holding it.
#[derive(Debug, Clone)]
struct ValueLoc {
    len: usize,
    blocks: Vec<u64>,
}

/// KVS log record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum KvRecord {
    Put {
        key: String,
        len: u64,
        blocks: Vec<u64>,
    },
    Remove {
        key: String,
    },
}

impl KvRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            KvRecord::Put { key, len, blocks } => {
                out.push(1);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
                for b in blocks {
                    out.extend_from_slice(&b.to_le_bytes());
                }
            }
            KvRecord::Remove { key } => {
                out.push(2);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<KvRecord> {
        fn take<'b>(buf: &'b [u8], pos: &mut usize, n: usize) -> Option<&'b [u8]> {
            let s = &buf.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        }
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            1 => {
                let klen = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a key string — metadata, not payload bytes
                let key = String::from_utf8(take(buf, pos, klen)?.to_vec()).ok()?;
                let len = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let n = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                let mut blocks = Vec::with_capacity(n);
                for _ in 0..n {
                    blocks.push(u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?));
                }
                Some(KvRecord::Put { key, len, blocks })
            }
            2 => {
                let klen = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a key string — metadata, not payload bytes
                let key = String::from_utf8(take(buf, pos, klen)?.to_vec()).ok()?;
                Some(KvRecord::Remove { key })
            }
            _ => None,
        }
    }
}

/// One worker's op log. Like LabFS's `MetaLog`, each flush becomes a
/// journal transaction (see [`crate::journal`]).
struct KvLog {
    buffer: Vec<u8>,
    region_start: u64,
    next_block: u64,
    region_blocks: u64,
    next_seq: u64,
}

/// The LabKVS LabMod.
pub struct LabKvs {
    shards: Vec<RwLock<HashMap<String, ValueLoc>>>,
    allocator: BlockAllocator,
    logs: Vec<Mutex<KvLog>>,
    log_device: Arc<SimDevice>,
    /// Background half of the double-buffered log flush (see
    /// [`crate::flush`]).
    flush: FlushDaemon,
    perf: PerfCounters,
    /// What the most recent `state_repair` found (see [`RepairReport`]).
    last_repair: Mutex<Option<RepairReport>>,
    /// Table levels the `GetWhere` resubmission hook walks on a miss
    /// (LSM-style: level 0 is the primary namespace, deeper levels are
    /// probed in-stack instead of bouncing back to the client).
    resub_levels: u32,
}

/// The key a value lives under at table `level` (level 0 is the key
/// itself). Deeper levels use a reserved prefix so they never collide
/// with user keys; `GetWhere` walks them in-stack on a miss.
pub fn level_key(level: u32, key: &str) -> String {
    if level == 0 {
        key.to_string()
    } else {
        format!("~L{level}~{key}")
    }
}

impl LabKvs {
    /// Build LabKVS over `device` with `workers` allocator/log shards
    /// and the default two resubmission levels.
    pub fn new(device: Arc<SimDevice>, workers: usize) -> Self {
        Self::with_levels(device, workers, 2)
    }

    /// Build LabKVS with an explicit number of `GetWhere` table levels.
    pub fn with_levels(device: Arc<SimDevice>, workers: usize, levels: u32) -> Self {
        let workers = workers.max(1);
        let total_blocks = device.model().capacity_sectors() / BLOCK_SECTORS;
        let log_blocks = LOG_BLOCKS_PER_WORKER * workers as u64;
        let n_shards = workers.next_power_of_two().max(16);
        LabKvs {
            shards: (0..n_shards).map(|_| RwLock::new(HashMap::new())).collect(),
            allocator: BlockAllocator::new(log_blocks, total_blocks, workers, 4096),
            logs: (0..workers as u64)
                .map(|w| {
                    Mutex::new(KvLog {
                        buffer: Vec::new(),
                        region_start: w * LOG_BLOCKS_PER_WORKER,
                        next_block: w * LOG_BLOCKS_PER_WORKER,
                        region_blocks: LOG_BLOCKS_PER_WORKER,
                        next_seq: 1,
                    })
                })
                .collect(),
            flush: FlushDaemon::new(device.clone(), KV_BLOCK),
            log_device: device,
            perf: PerfCounters::new(),
            last_repair: Mutex::new(None),
            resub_levels: levels.max(1),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, ValueLoc>> {
        let mut h = 0xcbf29ce484222325u64;
        for b in key.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Append a record to the originating worker's log. Once the buffer
    /// crosses the kick threshold it is streamed to the flush daemon in
    /// the background, so the append path never blocks on the device.
    fn log(&self, ctx: &mut Ctx, core: usize, rec: &KvRecord) {
        ctx.advance(80);
        let mut log = self.logs[core % self.logs.len()].lock();
        rec.encode(&mut log.buffer);
        if log.buffer.len() >= FLUSH_KICK_BYTES {
            // Region-full is not actionable here; the next flush's kick
            // surfaces it (the buffer just keeps accumulating).
            let _ = self.kick_log(ctx.now(), &mut log);
        }
    }

    /// Foreground half of the double-buffered flush: reserve this log's
    /// next transaction (blocks + sequence number), swap the buffer out,
    /// and hand it to the daemon. Cursors advance here, so appends keep
    /// filling the fresh buffer while the old one flushes; a region-full
    /// error leaves the log untouched.
    fn kick_log(&self, now: u64, log: &mut KvLog) -> Result<(), String> {
        if log.buffer.is_empty() {
            return Ok(());
        }
        let blocks = journal::txn_blocks(log.buffer.len(), KV_BLOCK);
        if log.next_block + blocks > log.region_start + log.region_blocks {
            return Err("kvs log region full".into());
        }
        let payload = std::mem::take(&mut log.buffer);
        self.flush
            .submit(log.next_seq, payload, log.next_block, now);
        log.next_block += blocks;
        log.next_seq += 1;
        Ok(())
    }

    /// Persist buffered log records as one journal transaction per log,
    /// then wait for durability. The daemon writes header+payload first
    /// and the commit record only after that write was accepted
    /// (write-ahead ordering).
    pub fn flush_logs(&self, ctx: &mut Ctx) -> Result<(), String> {
        for log in &self.logs {
            self.kick_log(ctx.now(), &mut log.lock())?;
        }
        self.flush.sync(ctx)
    }

    /// Apply one replayed record to the key map.
    fn apply(&self, rec: KvRecord) {
        match rec {
            KvRecord::Put { key, len, blocks } => {
                self.shard(&key).write().insert(
                    key,
                    ValueLoc {
                        len: len as usize,
                        blocks,
                    },
                );
            }
            KvRecord::Remove { key } => {
                self.shard(&key).write().remove(&key);
            }
        }
    }

    /// Rebuild the key map by scanning the on-device journal regions,
    /// replaying the longest prefix of committed transactions and
    /// discarding any torn or uncommitted tail (see
    /// [`crate::journal::replay_scan`]). The scan trusts media, not
    /// in-memory cursors.
    pub fn replay_from_device(&self) -> RepairReport {
        // Quiesce the flush daemon and clear its error latch: queued
        // buffers predate the crash and the scan below trusts media.
        self.flush.reset();
        for shard in &self.shards {
            shard.write().clear();
        }
        let mut report = RepairReport::default();
        let mut ctx = Ctx::new();
        for log in &self.logs {
            let mut log = log.lock();
            let region_start = log.region_start;
            let device = &self.log_device;
            let outcome = journal::replay_scan(log.region_blocks, KV_BLOCK, |block, n| {
                let mut buf = vec![0u8; n as usize * KV_BLOCK];
                device
                    .read(&mut ctx, (region_start + block) * BLOCK_SECTORS, &mut buf)
                    .ok()
                    .map(|_| buf)
            });
            for (_seq, payload) in &outcome.txns {
                let mut pos = 0usize;
                while pos < payload.len() {
                    match KvRecord::decode(payload, &mut pos) {
                        Some(rec) => {
                            self.apply(rec);
                            report.records_replayed += 1;
                        }
                        None => {
                            report.records_discarded += 1;
                            break;
                        }
                    }
                }
            }
            for payload in &outcome.discarded_payloads {
                let mut pos = 0usize;
                while pos < payload.len() {
                    match KvRecord::decode(payload, &mut pos) {
                        Some(_) => report.records_discarded += 1,
                        None => break,
                    }
                }
            }
            report.txns_replayed += outcome.txns.len() as u64;
            report.txns_discarded += outcome.txns_discarded;
            report.torn_tail |= outcome.torn_tail;
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

    /// Number of live keys.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Allocate blocks for a `len`-byte value on `core`.
    fn alloc_blocks(&self, ctx: &mut Ctx, core: usize, len: usize) -> Option<Vec<u64>> {
        let n_blocks = len.div_ceil(KV_BLOCK);
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            ctx.advance(40);
            blocks.push(self.allocator.alloc(core)?);
        }
        Some(blocks)
    }

    /// Record a completed put in the log and key map.
    fn commit_put(&self, ctx: &mut Ctx, core: usize, key: &str, len: usize, blocks: Vec<u64>) {
        self.log(
            ctx,
            core,
            &KvRecord::Put {
                key: key.to_string(),
                len: len as u64,
                blocks: blocks.clone(),
            },
        );
        self.shard(key)
            .write()
            .insert(key.to_string(), ValueLoc { len, blocks });
    }

    /// Put: full blocks of the caller's payload buffer travel downstream
    /// as refcounted slices; only a partial tail block is copied into a
    /// zero-padded block buffer.
    fn do_put(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        key: &str,
        buf: &BufHandle,
    ) -> RespPayload {
        ctx.advance(KV_CPU_NS);
        let Some(blocks) = self.alloc_blocks(ctx, req.core, buf.len()) else {
            return RespPayload::Err("no space".into());
        };
        let full_bytes = (buf.len() / KV_BLOCK) * KV_BLOCK;
        let mut ops = Vec::new();
        let mut i = 0usize;
        while i < blocks.len() {
            let mut j = i;
            while j + 1 < blocks.len() && blocks[j + 1] == blocks[j] + 1 {
                j += 1;
            }
            let byte_from = i * KV_BLOCK;
            let byte_to = ((j + 1) * KV_BLOCK).min(buf.len().next_multiple_of(KV_BLOCK));
            let zc_to = byte_to.min(full_bytes);
            let mut copy_from = byte_from;
            if byte_from < zc_to {
                if let Some(s) = buf.slice(byte_from, zc_to - byte_from) {
                    ops.push(BlockOp::Write {
                        lba: blocks[i] * BLOCK_SECTORS,
                        buf: s,
                    });
                    copy_from = zc_to;
                }
            }
            if copy_from < byte_to {
                let mut tail = labstor_ipc::default_pool().alloc_payload(byte_to - copy_from);
                let n = buf.len().saturating_sub(copy_from).min(tail.len());
                labstor_ipc::note_payload_copy(n);
                tail.write_with(|b| {
                    b[..n].copy_from_slice(&buf.as_slice()[copy_from..copy_from + n]);
                });
                let block = blocks[i] + ((copy_from - byte_from) / KV_BLOCK) as u64;
                ops.push(BlockOp::Write {
                    lba: block * BLOCK_SECTORS,
                    buf: tail,
                });
            }
            i = j + 1;
        }
        for op in ops {
            let r = env.forward(ctx, req.derive(Payload::Block(op)));
            if !r.is_ok() {
                return r;
            }
        }
        self.commit_put(ctx, req.core, key, buf.len(), blocks);
        RespPayload::Len(buf.len())
    }

    /// Read one value block downstream.
    fn read_block(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        block: u64,
    ) -> RespPayload {
        let op = BlockOp::Read {
            lba: block * BLOCK_SECTORS,
            len: KV_BLOCK,
        };
        env.forward(ctx, req.derive(Payload::Block(op)))
    }

    /// Fetch a stored value. Single-block values are a refcounted slice
    /// of the driver's DMA buffer (≤ 64 B ride inline instead);
    /// multi-block values assemble into one payload buffer.
    fn read_value(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        loc: &ValueLoc,
    ) -> RespPayload {
        if loc.blocks.len() == 1 && loc.len > 0 {
            let resp = self.read_block(ctx, env, req, loc.blocks[0]);
            let RespPayload::DataBuf(h) = resp else {
                return resp;
            };
            return match h.slice(0, loc.len.min(h.len())) {
                Some(value) => small_inline(value),
                None => RespPayload::Err("short block read".into()),
            };
        }
        let mut out = labstor_ipc::default_pool().alloc_payload(loc.len);
        for (idx, &b) in loc.blocks.iter().enumerate() {
            let from = idx * KV_BLOCK;
            let want = (loc.len - from).min(KV_BLOCK);
            let resp = self.read_block(ctx, env, req, b);
            let RespPayload::DataBuf(h) = resp else {
                return resp;
            };
            let Some(bytes) = h.as_slice().get(..want) else {
                return RespPayload::Err("short block read".into());
            };
            // Multi-block reassembly into one contiguous value.
            labstor_ipc::note_payload_copy(want);
            out.write_with(|o| o[from..from + want].copy_from_slice(bytes));
        }
        RespPayload::DataBuf(out)
    }

    /// Pushdown point-query with the in-stack resubmission hook: probe
    /// the key at level 0 and, on a miss, walk the deeper table levels
    /// right here instead of bouncing a "not found" back to the client
    /// for each level. A found value is evaluated in place; only a
    /// matching value ships. Returns [`RespPayload::Ok`] when the key
    /// exists but the predicate rejects it.
    fn do_get_where(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        key: &str,
        prog: &labstor_pushdown::VerifiedProgram,
    ) -> RespPayload {
        for level in 0..self.resub_levels {
            ctx.advance(KV_CPU_NS); // one key-map probe per level walked
            let lkey = level_key(level, key);
            let loc = self.shard(&lkey).read().get(&lkey).cloned();
            let Some(loc) = loc else {
                continue; // resubmission hook: try the next level in-stack
            };
            let resp = self.read_value(ctx, env, req, &loc);
            let mut fuel = prog.fuel_budget();
            let mut out = labstor_pushdown::ScanOut::default();
            let scanned = match resp.data_bytes() {
                Some(bytes) => labstor_pushdown::scan(prog, bytes, 0, &mut fuel, &mut out),
                None => return resp, // downstream error; propagate as-is
            };
            let used = prog.fuel_budget() - fuel;
            if let Err(retry_vns) = env.charge_fuel(ctx, &req.creds, used) {
                return RespPayload::Err(format!(
                    "pushdown: tenant {} over fuel budget, retry in {retry_vns} vns",
                    req.creds.tenant.as_u32()
                ));
            }
            if scanned.is_err() {
                return RespPayload::Err("pushdown: out of fuel".into());
            }
            return if out.matches > 0 {
                resp
            } else {
                // Key present, predicate rejected it: nothing ships.
                RespPayload::Ok
            };
        }
        RespPayload::Err(format!("no key '{key}'"))
    }

    /// Pushdown range scan: evaluate the program over every value whose
    /// key starts with `prefix`, shipping back only matching keys
    /// ([`labstor_pushdown::Action::Select`]) or a 32-byte aggregate.
    fn do_scan_where(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        prefix: &str,
        prog: &labstor_pushdown::VerifiedProgram,
    ) -> RespPayload {
        use labstor_pushdown::Action;
        // Deterministic scan order across the sharded map.
        let mut entries: Vec<(String, ValueLoc)> = Vec::new();
        for shard in &self.shards {
            let m = shard.read();
            for (k, loc) in m.iter() {
                if k.starts_with(prefix) {
                    entries.push((k.clone(), loc.clone()));
                }
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut fuel = prog.fuel_budget();
        let mut out = labstor_pushdown::ScanOut::default();
        let mut matched_keys: Vec<String> = Vec::new();
        for (k, loc) in &entries {
            ctx.advance(KV_CPU_NS); // per-entry key-map touch
            let resp = self.read_value(ctx, env, req, loc);
            let Some(bytes) = resp.data_bytes() else {
                return resp; // downstream error; propagate as-is
            };
            let before_matches = out.matches;
            let scanned = labstor_pushdown::scan(prog, bytes, 0, &mut fuel, &mut out);
            if scanned.is_err() {
                let used = prog.fuel_budget() - fuel;
                let _ = env.charge_fuel(ctx, &req.creds, used);
                return RespPayload::Err(format!(
                    "pushdown: out of fuel after {} values",
                    out.records
                ));
            }
            if out.matches > before_matches {
                matched_keys.push(k.clone());
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
            Action::Select => RespPayload::Names(matched_keys),
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
        }
    }
}

impl LabMod for LabKvs {
    fn type_name(&self) -> &'static str {
        "labkvs"
    }

    fn mod_type(&self) -> ModType {
        ModType::Kvs
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let before = ctx.busy();
        let resp = match &req.payload {
            Payload::Kvs(KvsOp::Put { key, buf }) => self.do_put(ctx, env, &req, key, buf),
            Payload::Kvs(KvsOp::Get { key }) => {
                ctx.advance(KV_CPU_NS);
                let loc = self.shard(key).read().get(key).cloned();
                match loc {
                    Some(loc) => self.read_value(ctx, env, &req, &loc),
                    None => RespPayload::Err(format!("no key '{key}'")),
                }
            }
            Payload::Kvs(KvsOp::GetWhere { key, prog }) => {
                self.do_get_where(ctx, env, &req, key, prog)
            }
            Payload::Kvs(KvsOp::ScanWhere { prefix, prog }) => {
                self.do_scan_where(ctx, env, &req, prefix, prog)
            }
            Payload::Kvs(KvsOp::Remove { key }) => {
                ctx.advance(KV_CPU_NS);
                let removed = self.shard(key).write().remove(key);
                match removed {
                    Some(_) => {
                        self.log(ctx, req.core, &KvRecord::Remove { key: key.clone() });
                        RespPayload::Ok
                    }
                    None => RespPayload::Err(format!("no key '{key}'")),
                }
            }
            _ => env.forward(ctx, req),
        };
        self.perf.observe(ctx.busy() - before);
        resp
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        self.perf.est_ns(KV_CPU_NS + req.payload_bytes() as u64)
    }

    fn est_total_time(&self) -> u64 {
        self.perf.total_ns()
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<LabKvs>() {
            self.perf.absorb(&prev.perf);
            for (mine, theirs) in self.shards.iter().zip(prev.shards.iter()) {
                *mine.write() = theirs.read().clone();
            }
            // Carry journal cursors so post-upgrade flushes append after
            // the old instance's transactions instead of restarting the
            // log (which would orphan pre-upgrade entries on a crash).
            // Absorb first: it drains the old instance's flush daemon, so
            // the cursors copied below are final and its durability clock
            // / error latch carry over.
            self.flush.absorb(&prev.flush);
            for (mine, theirs) in self.logs.iter().zip(prev.logs.iter()) {
                let mut m = mine.lock();
                let t = theirs.lock();
                m.buffer = t.buffer.clone();
                m.next_block = t.next_block;
                m.next_seq = t.next_seq;
            }
        }
    }

    fn state_repair(&self) {
        self.replay_from_device();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the factory. Params: `{"device": "<name>", "workers": <n>,
/// "levels": <n>}` (levels: `GetWhere` resubmission depth, default 2).
pub fn install(mm: &ModuleManager, devices: &Arc<DeviceRegistry>) {
    let reg = devices.clone();
    mm.register_factory(
        "labkvs",
        Arc::new(move |params| {
            let name = device_param(params);
            let dev = reg
                .block(&name)
                .unwrap_or_else(|| panic!("no block device '{name}'"));
            let workers = params.get("workers").and_then(|v| v.as_u64()).unwrap_or(8) as usize;
            let levels = params.get("levels").and_then(|v| v.as_u64()).unwrap_or(2) as u32;
            Arc::new(LabKvs::with_levels(dev, workers, levels)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use labstor_sim::DeviceKind;

    fn setup() -> (ModuleManager, LabStack) {
        let devices = DeviceRegistry::new();
        devices.add_preset("nvme0", DeviceKind::Nvme);
        let mm = ModuleManager::new();
        install(&mm, &devices);
        crate::drivers::install(&mm, &devices);
        mm.instantiate(
            "kv",
            "labkvs",
            &serde_json::json!({"device": "nvme0", "workers": 4}),
        )
        .unwrap();
        mm.instantiate("drv", "spdk", &serde_json::json!({"device": "nvme0"}))
            .unwrap();
        let stack = LabStack {
            id: 1,
            mount: "kv::/".into(),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: "kv".into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "drv".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![],
        };
        (mm, stack)
    }

    fn exec(mm: &ModuleManager, stack: &LabStack, payload: Payload, ctx: &mut Ctx) -> RespPayload {
        let env = StackEnv {
            stack,
            vertex: 0,
            registry: mm,
            domain: 0,
        };
        mm.get("kv")
            .unwrap()
            .process(ctx, Request::new(1, 1, payload, Credentials::ROOT), &env)
    }

    #[test]
    fn put_get_roundtrip() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        let value: Vec<u8> = (0..10_000).map(|i| (i % 249) as u8).collect();
        let w = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "a".into(),
                buf: BufHandle::from_vec(value.clone()),
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == value.len()));
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "a".into() }),
            &mut ctx,
        );
        assert_eq!(r.data_bytes(), Some(&value[..]));
    }

    #[test]
    fn overwrite_replaces_value() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "k".into(),
                buf: BufHandle::from_vec(vec![1u8; 100]),
            }),
            &mut ctx,
        );
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "k".into(),
                buf: BufHandle::from_vec(vec![2u8; 50]),
            }),
            &mut ctx,
        );
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "k".into() }),
            &mut ctx,
        );
        assert_eq!(r.data_bytes(), Some(&[2u8; 50][..]));
    }

    #[test]
    fn put_forwards_full_blocks_as_slices() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        // Not a block multiple: two full blocks ride as refcounted
        // slices, the 777-byte tail is zero-padded and copied.
        let n = KV_BLOCK * 2 + 777;
        let mut h = labstor_ipc::default_pool().alloc_payload(n);
        h.write_with(|b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = (i % 251) as u8;
            }
        });
        let expect = h.to_vec();
        let w = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "zc".into(),
                buf: h,
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(m) if m == n));
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "zc".into() }),
            &mut ctx,
        );
        assert_eq!(r.data_bytes(), Some(&expect[..]));
    }

    #[test]
    fn single_block_get_answers_with_a_handle() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        let value = vec![0x5au8; 500];
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "s".into(),
                buf: BufHandle::from_vec(value.clone()),
            }),
            &mut ctx,
        );
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "s".into() }),
            &mut ctx,
        );
        match r {
            RespPayload::DataBuf(h) => assert_eq!(h.as_slice(), &value[..]),
            other => panic!("expected DataBuf, got {other:?}"),
        }
    }

    #[test]
    fn remove_then_get_fails() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "x".into(),
                buf: BufHandle::from_vec(vec![1]),
            }),
            &mut ctx,
        );
        assert!(exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Remove { key: "x".into() }),
            &mut ctx
        )
        .is_ok());
        assert!(!exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "x".into() }),
            &mut ctx
        )
        .is_ok());
        assert!(!exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Remove { key: "x".into() }),
            &mut ctx
        )
        .is_ok());
    }

    #[test]
    fn empty_value_roundtrips() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "empty".into(),
                buf: BufHandle::from_vec(vec![]),
            }),
            &mut ctx,
        );
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get {
                key: "empty".into(),
            }),
            &mut ctx,
        );
        assert_eq!(r.data_bytes(), Some(&[][..]));
    }

    #[test]
    fn recovery_replays_puts_and_removes() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        let value: Vec<u8> = (0..5000).map(|i| (i % 241) as u8).collect();
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "keep".into(),
                buf: BufHandle::from_vec(value.clone()),
            }),
            &mut ctx,
        );
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "drop".into(),
                buf: BufHandle::from_vec(vec![9u8; 10]),
            }),
            &mut ctx,
        );
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Remove { key: "drop".into() }),
            &mut ctx,
        );
        let kv_mod = mm.get("kv").unwrap();
        let kv = kv_mod.as_any().downcast_ref::<LabKvs>().unwrap();
        kv.flush_logs(&mut ctx).unwrap();
        kv.replay_from_device();
        assert_eq!(kv.key_count(), 1);
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "keep".into() }),
            &mut ctx,
        );
        assert_eq!(r.data_bytes(), Some(&value[..]));
    }

    #[test]
    fn uncommitted_kv_txn_is_discarded_and_reported() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "durable".into(),
                buf: BufHandle::from_vec(vec![1u8; 64]),
            }),
            &mut ctx,
        );
        let kv_mod = mm.get("kv").unwrap();
        let kv = kv_mod.as_any().downcast_ref::<LabKvs>().unwrap();
        kv.flush_logs(&mut ctx).unwrap();
        // Crash between the payload and commit writes of a second
        // transaction: a valid seq-2 body frame with no commit record.
        let mut payload = Vec::new();
        KvRecord::Put {
            key: "ghost".into(),
            len: 8,
            blocks: vec![4242],
        }
        .encode(&mut payload);
        let (body, _commit_never_written) = journal::encode_txn(2, &payload, KV_BLOCK);
        let next = kv.logs[0].lock().next_block;
        kv.log_device
            .write(&mut ctx, next * BLOCK_SECTORS, &body)
            .unwrap();
        let rep = kv.replay_from_device();
        assert_eq!(rep.txns_replayed, 1);
        assert_eq!(rep.txns_discarded, 1);
        assert_eq!(rep.records_discarded, 1);
        assert!(rep.torn_tail);
        assert_eq!(kv.key_count(), 1, "ghost was never acked");
        assert_eq!(kv.last_repair(), Some(rep));
    }

    #[test]
    fn kv_record_roundtrip() {
        let records = vec![
            KvRecord::Put {
                key: "alpha".into(),
                len: 777,
                blocks: vec![5, 6, 7],
            },
            KvRecord::Remove {
                key: "alpha".into(),
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        buf.push(0);
        let mut pos = 0;
        let mut decoded = Vec::new();
        while let Some(r) = KvRecord::decode(&buf, &mut pos) {
            decoded.push(r);
        }
        assert_eq!(decoded, records);
    }
}

//! The four workloads: stack specs, set-up (mount and preload), and the
//! closed-loop actors that drive the stack through the public connectors
//! and check every output against the model.

use std::sync::Arc;
use std::time::Instant;

use labstor_core::client::ClientError;
use labstor_core::{FsOp, LabMod, LabStack, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor_ipc::Credentials;
use labstor_mods::{DeviceRegistry, GenericFs, GenericKvs, ScanReply};
use labstor_pushdown::{Program, VerifiedProgram};
use labstor_qos::TenantPolicy;
use labstor_sim::{DeviceKind, SimDevice};
use labstor_workloads::pushdown::{KEY_OFF, RECORD_LEN};

use crate::model::{FileModel, KvModel, Rng, BLOCK, FIELD_SPACE, KEYS_PER_PREFIX};
use crate::trace;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// Load threads' runtime: two workers (one per core of the reference
/// host); every other `RuntimeConfig` field keeps its default.
pub const MAX_WORKERS: usize = 2;

/// The hostile tenant's token bucket: 8 MiB per virtual second, with one
/// write's worth of burst.
pub const HOSTILE_RATE: u64 = 8 * MIB;
const HOSTILE_OP: u64 = 256 * KIB;
const VICTIM_WEIGHT: u32 = 4;

/// Writes between `fsync`s on `fs-cold-inline`.
pub const WRITES_PER_SYNC: u32 = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Async Lab-All stack, cache-resident file, 80/20 4 KiB read/write.
    FsHot,
    /// Inline (sync) Lab-D stack over a file 32× the cache, 64 KiB ops.
    FsColdInline,
    /// Async Lab-Min KVS stack: get/put/pushdown scan.
    KvsScan,
    /// Async stack shared by a weighted victim and a rate-limited writer.
    TenantsNoisy,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FsHot,
        Workload::FsColdInline,
        Workload::KvsScan,
        Workload::TenantsNoisy,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FsHot => "fs-hot",
            Workload::FsColdInline => "fs-cold-inline",
            Workload::KvsScan => "kvs-scan",
            Workload::TenantsNoisy => "tenants-noisy",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Data sizes of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Primary file (the victim's on `tenants-noisy`), bytes.
    pub file_bytes: u64,
    /// LRU cache capacity, bytes (0 = no cache vertex).
    pub cache_bytes: u64,
    /// Hostile tenant's file, bytes.
    pub hostile_file_bytes: u64,
    /// KVS keys (a whole number of 100-key prefixes).
    pub keys: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full(w: Workload) -> Sizes {
        let zero = Sizes {
            file_bytes: 0,
            cache_bytes: 0,
            hostile_file_bytes: 0,
            keys: 0,
        };
        match w {
            Workload::FsHot => Sizes {
                file_bytes: 16 * MIB,
                cache_bytes: 64 * MIB,
                ..zero
            },
            Workload::FsColdInline => Sizes {
                file_bytes: 256 * MIB,
                cache_bytes: 8 * MIB,
                ..zero
            },
            Workload::KvsScan => Sizes {
                keys: 200 * KEYS_PER_PREFIX,
                ..zero
            },
            Workload::TenantsNoisy => Sizes {
                file_bytes: 4 * MIB,
                cache_bytes: 32 * MIB,
                hostile_file_bytes: 16 * MIB,
                keys: 0,
            },
        }
    }

    /// Small sizes with the same shape (working set vs cache), for tests.
    pub fn tiny(w: Workload) -> Sizes {
        let full = Sizes::full(w);
        match w {
            Workload::FsHot => Sizes {
                file_bytes: 512 * KIB,
                cache_bytes: 2 * MIB,
                ..full
            },
            Workload::FsColdInline => Sizes {
                file_bytes: 8 * MIB,
                cache_bytes: 256 * KIB,
                ..full
            },
            Workload::KvsScan => Sizes {
                keys: 4 * KEYS_PER_PREFIX,
                ..full
            },
            Workload::TenantsNoisy => Sizes {
                file_bytes: 256 * KIB,
                cache_bytes: 4 * MIB,
                hostile_file_bytes: 2 * MIB,
                keys: 0,
            },
        }
    }
}

fn fs_vertices(perms: bool, cache_bytes: u64) -> String {
    let head = if perms {
        r#"{ "uuid": "perm1", "type": "permissions", "outputs": ["fs1"] },"#
    } else {
        ""
    };
    format!(
        r#"{head}
        {{ "uuid": "fs1", "type": "labfs", "params": {{"device": "nvme0"}}, "outputs": ["lru1"] }},
        {{ "uuid": "lru1", "type": "lru_cache", "params": {{"capacity_bytes": {cache_bytes}}}, "outputs": ["sched1"] }},
        {{ "uuid": "sched1", "type": "noop_sched", "outputs": ["drv1"] }},
        {{ "uuid": "drv1", "type": "kernel_driver", "params": {{"device": "nvme0"}} }}"#
    )
}

/// Mount point of the workload's stack.
pub fn mount(w: Workload) -> &'static str {
    match w {
        Workload::FsHot => "fs::/hot",
        Workload::FsColdInline => "fs::/cold",
        Workload::KvsScan => "kv::/kv",
        Workload::TenantsNoisy => "fs::/ten",
    }
}

/// The workload's LabStack spec.
pub fn stack_spec(w: Workload, s: &Sizes) -> String {
    let (exec, vertices) = match w {
        Workload::FsHot => ("async", fs_vertices(true, s.cache_bytes)),
        Workload::FsColdInline => ("sync", fs_vertices(false, s.cache_bytes)),
        Workload::TenantsNoisy => ("async", fs_vertices(false, s.cache_bytes)),
        Workload::KvsScan => (
            "async",
            r#"{ "uuid": "kv1", "type": "labkvs", "params": {"device": "nvme0"}, "outputs": ["sched1"] },
               { "uuid": "sched1", "type": "noop_sched", "outputs": ["drv1"] },
               { "uuid": "drv1", "type": "kernel_driver", "params": {"device": "nvme0"} }"#
                .to_string(),
        ),
    };
    format!(
        r#"{{ "mount": "{}", "exec": "{exec}", "authorized_uids": [0], "labmods": [ {vertices} ] }}"#,
        mount(w)
    )
}

/// Operation classes the metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// File read or KVS get.
    Read,
    /// File write or KVS put.
    Write,
    /// `fsync`.
    Sync,
    /// KVS `scan_where`.
    Scan,
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// What it was.
    pub kind: OpKind,
    /// Host latency of the connector call, ns.
    pub host_ns: u64,
    /// Virtual (modeled) latency on the caller's clock, ns.
    pub v_ns: u64,
}

/// What an actor's role in the workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The only client of a single-client workload.
    Single,
    /// `tenants-noisy`'s latency-sensitive reader.
    Victim,
    /// `tenants-noisy`'s rate-limited bulk writer.
    Hostile,
}

enum Conn {
    Fs {
        fs: GenericFs,
        fd: i32,
        model: FileModel,
        /// The file's inode and stack, for the hostile writer's direct
        /// client requests (it needs the typed throttle error).
        ino: u64,
        stack: Arc<LabStack>,
    },
    Kvs {
        kvs: GenericKvs,
        model: KvModel,
        progs: Vec<Arc<VerifiedProgram>>,
    },
}

/// Per-actor tallies beyond the latency samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations issued (completed or failed).
    pub attempted: u64,
    /// Operations that failed or returned wrong output.
    pub failed: u64,
    /// Payload bytes the caller asked to write.
    pub user_write_bytes: u64,
    /// Scans completed and the pushdown fuel they report.
    pub scans: u64,
    /// Sum of `fuel_used` over completed scans.
    pub fuel: u64,
    /// Connector time split at the entry vertex (traced phase only).
    pub split_ops: u64,
    /// Σ connector call time over split ops, ns.
    pub split_total_ns: u64,
    /// Σ call → entry vertex start, ns.
    pub sq_ns: u64,
    /// Σ entry vertex return → call return, ns.
    pub cq_ns: u64,
}

/// The operation mix of an actor.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// File op size in 4 KiB blocks.
    blocks: u64,
    /// Share of file ops that are reads, per mille.
    read_permille: u64,
    /// `fsync` after this many writes (0 = never).
    sync_every: u32,
}

impl Shape {
    fn fs(blocks: u64, read_permille: u64, sync_every: u32) -> Shape {
        Shape {
            blocks,
            read_permille,
            sync_every,
        }
    }

    fn kvs() -> Shape {
        Shape::fs(0, 0, 0)
    }
}

/// One load thread's connection, model and random stream.
pub struct Actor {
    /// Its role.
    pub role: Role,
    shape: Shape,
    /// Connection pid (keys the trace's entry stamps).
    pub pid: u32,
    conn: Conn,
    rng: Rng,
    writes_since_sync: u32,
    sync_due: bool,
    buf: Vec<u8>,
    /// Samples of the current phase.
    pub samples: Vec<Sample>,
    /// Tallies of the current phase.
    pub tally: Tally,
    /// First error of the current phase.
    pub first_error: Option<String>,
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Actor {
    fn new(role: Role, shape: Shape, pid: u32, conn: Conn, seed: u64) -> Actor {
        Actor {
            role,
            shape,
            pid,
            conn,
            rng: Rng::new(seed, u64::from(pid)),
            writes_since_sync: 0,
            sync_due: false,
            buf: Vec::new(),
            samples: Vec::new(),
            tally: Tally::default(),
            first_error: None,
        }
    }

    /// The actor's virtual clock, ns.
    pub fn vnow(&self) -> u64 {
        match &self.conn {
            Conn::Fs { fs, .. } => fs.client().ctx.now(),
            Conn::Kvs { kvs, .. } => kvs.client().ctx.now(),
        }
    }

    /// The actor's tenant accounting `(admitted, rejected)` requests, if
    /// it bills to a declared tenant.
    pub fn tenant_counts(&self) -> Option<(u64, u64)> {
        let client = match &self.conn {
            Conn::Fs { fs, .. } => fs.client(),
            Conn::Kvs { kvs, .. } => kvs.client(),
        };
        client.tenant().map(|t| (t.admitted(), t.rejected()))
    }

    /// Run one operation, check its output, and record it (or the
    /// failure).
    pub fn step(&mut self, traced: bool) {
        self.tally.attempted += 1;
        if let Err(e) = self.op(traced) {
            self.tally.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    fn record(&mut self, kind: OpKind, host_ns: u64, v_ns: u64, split: Option<trace::OpSplit>) {
        self.samples.push(Sample {
            kind,
            host_ns,
            v_ns,
        });
        if let Some(s) = split {
            self.tally.split_ops += 1;
            self.tally.split_total_ns += s.total_ns;
            self.tally.sq_ns += s.sq_ns;
            self.tally.cq_ns += s.cq_ns;
        }
    }

    fn op(&mut self, traced: bool) -> Result<(), String> {
        let pid = self.pid;
        let begin = |name: &'static str| traced.then(|| (trace::begin_op(pid), name));
        let end =
            |s: Option<(trace::OpStamp, &'static str)>| s.map(|(st, n)| trace::end_op(pid, st, n));
        let v0 = self.vnow();
        match self.role {
            Role::Single | Role::Victim => {}
            Role::Hostile => return self.hostile_write(traced),
        }
        let (kind, host_ns, split) = match &mut self.conn {
            Conn::Fs { fs, fd, model, .. } => {
                let fd = *fd;
                if self.sync_due {
                    self.sync_due = false;
                    let stamp = begin("client.fsync");
                    let t0 = Instant::now();
                    fs.fsync(fd).map_err(err("fsync"))?;
                    let host = t0.elapsed().as_nanos() as u64;
                    (OpKind::Sync, host, end(stamp))
                } else {
                    let Shape {
                        blocks,
                        read_permille,
                        sync_every,
                    } = self.shape;
                    let first = self.rng.below(model.blocks() - blocks + 1);
                    let len = (blocks * BLOCK as u64) as usize;
                    fs.seek(fd, first * BLOCK as u64).map_err(err("seek"))?;
                    if self.rng.chance(read_permille) {
                        let stamp = begin("client.read");
                        let t0 = Instant::now();
                        let data = fs.read(fd, len).map_err(err("read"))?;
                        let host = t0.elapsed().as_nanos() as u64;
                        let split = end(stamp);
                        model.check(first, &data, len)?;
                        (OpKind::Read, host, split)
                    } else {
                        self.buf.resize(len, 0);
                        model.fill_next(first, &mut self.buf[..len]);
                        let stamp = begin("client.write");
                        let t0 = Instant::now();
                        let n = fs.write(fd, &self.buf[..len]).map_err(err("write"))?;
                        let host = t0.elapsed().as_nanos() as u64;
                        let split = end(stamp);
                        if n != len {
                            return Err(format!("short write: {n} of {len}"));
                        }
                        self.tally.user_write_bytes += len as u64;
                        if sync_every > 0 {
                            self.writes_since_sync += 1;
                            if self.writes_since_sync == sync_every {
                                self.writes_since_sync = 0;
                                self.sync_due = true;
                            }
                        }
                        (OpKind::Write, host, split)
                    }
                }
            }
            Conn::Kvs { kvs, model, progs } => {
                let r = self.rng.below(1000);
                if r < 600 {
                    let k = self.rng.below(model.keys() as u64) as usize;
                    let key = format!("{}/{}", mount(Workload::KvsScan), KvModel::key(k));
                    let stamp = begin("client.get");
                    let t0 = Instant::now();
                    let got = kvs.get(&key).map_err(err("get"))?;
                    let host = t0.elapsed().as_nanos() as u64;
                    let split = end(stamp);
                    if got != model.current(k) {
                        return Err(format!("get {key}: value does not match the model"));
                    }
                    (OpKind::Read, host, split)
                } else if r < 980 {
                    let k = self.rng.below(model.keys() as u64) as usize;
                    let key = format!("{}/{}", mount(Workload::KvsScan), KvModel::key(k));
                    let value = model.next(k);
                    let len = value.len();
                    let stamp = begin("client.put");
                    let t0 = Instant::now();
                    let n = kvs.put(&key, value).map_err(err("put"))?;
                    let host = t0.elapsed().as_nanos() as u64;
                    let split = end(stamp);
                    if n != len {
                        return Err(format!("put {key}: stored {n} of {len} bytes"));
                    }
                    self.tally.user_write_bytes += len as u64;
                    (OpKind::Write, host, split)
                } else {
                    let p = self.rng.below(model.prefixes() as u64) as usize;
                    let field = self.rng.below(u64::from(FIELD_SPACE)) as u32;
                    let prefix = format!("{}/{}", mount(Workload::KvsScan), KvModel::prefix(p));
                    let prog = progs[field as usize].clone();
                    let stamp = begin("client.scan");
                    let t0 = Instant::now();
                    let reply = kvs.scan_where(&prefix, prog).map_err(err("scan_where"))?;
                    let host = t0.elapsed().as_nanos() as u64;
                    let split = end(stamp);
                    let ScanReply::Agg(agg) = reply else {
                        return Err(format!("scan {prefix}: expected an aggregate reply"));
                    };
                    let want = model.expected_count(p, field);
                    let records = (KEYS_PER_PREFIX * crate::model::VALUE_BYTES / RECORD_LEN) as u64;
                    if agg.matches != want || agg.records != records {
                        return Err(format!(
                            "scan {prefix} field {field}: {} of {} records matched, model says {want} of {records}",
                            agg.matches, agg.records
                        ));
                    }
                    self.tally.scans += 1;
                    self.tally.fuel += agg.fuel_used;
                    (OpKind::Scan, host, split)
                }
            }
        };
        let v_ns = self.vnow() - v0;
        self.record(kind, host_ns, v_ns, split);
        Ok(())
    }

    /// The hostile tenant's 256 KiB write. It goes through the client
    /// request API under the connector so the bucket's typed
    /// `Throttled { retry_after_ns }` comes back; a throttled attempt
    /// waits that long in virtual time and retries (not a failure).
    fn hostile_write(&mut self, traced: bool) -> Result<(), String> {
        let Conn::Fs {
            fs,
            model,
            ino,
            stack,
            ..
        } = &mut self.conn
        else {
            return Err("hostile actor needs a file".into());
        };
        let blocks = self.shape.blocks;
        let first = self.rng.below(model.blocks() / blocks) * blocks;
        let len = blocks as usize * BLOCK;
        self.buf.resize(len, 0);
        model.fill_next(first, &mut self.buf[..len]);
        let v0 = fs.client().ctx.now();
        let stamp = traced.then(|| trace::begin_op(self.pid));
        let t0 = Instant::now();
        loop {
            let payload = Payload::Fs(FsOp::Write {
                ino: *ino,
                offset: first * BLOCK as u64,
                data: self.buf[..len].to_vec(),
            });
            let client = fs.client_mut();
            match client.execute(stack, payload) {
                Ok((RespPayload::Len(n), _)) if n == len => break,
                Ok((resp, _)) => return Err(format!("hostile write: {resp:?}")),
                Err(ClientError::Throttled { retry_after_ns }) => {
                    let target = client.ctx.now() + retry_after_ns.max(1);
                    client.ctx.idle_until(target);
                }
                Err(e) => return Err(format!("hostile write: {e}")),
            }
        }
        let host = t0.elapsed().as_nanos() as u64;
        let split = stamp.map(|s| trace::end_op(self.pid, s, "client.write"));
        let v_ns = fs.client().ctx.now() - v0;
        self.tally.user_write_bytes += len as u64;
        self.record(OpKind::Write, host, v_ns, split);
        Ok(())
    }

    /// Host ns per interpreted pushdown instruction: `labstor_pushdown::scan`
    /// timed directly over the current values of the first prefix, value
    /// by value as the KVS runs it (KVS actors only). This is the measured
    /// counterpart of the modeled `FUEL_NS`.
    pub fn calibrate_scan(&self) -> Option<f64> {
        let Conn::Kvs { model, progs, .. } = &self.conn else {
            return None;
        };
        let values = model.prefix_values(0);
        let prog = &progs[0];
        let mut fuel_used = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < std::time::Duration::from_millis(50) {
            let mut fuel = prog.fuel_budget();
            let mut out = labstor_pushdown::ScanOut::default();
            for v in values.chunks_exact(crate::model::VALUE_BYTES) {
                labstor_pushdown::scan(prog, v, 0, &mut fuel, &mut out).ok()?;
            }
            fuel_used += out.fuel_used;
        }
        Some(t0.elapsed().as_nanos() as f64 / fuel_used.max(1) as f64)
    }

    /// Reset per-phase samples and tallies.
    pub fn start_phase(&mut self) {
        self.samples.clear();
        self.tally = Tally::default();
        self.first_error = None;
    }
}

/// A mounted, preloaded workload.
pub struct Rig {
    /// The runtime.
    pub rt: Arc<Runtime>,
    /// The simulated NVMe device under the stack.
    pub dev: Arc<SimDevice>,
    /// The mounted stack.
    pub stack: Arc<LabStack>,
    /// The stack's LRU cache instance, when it has one (kept unwrapped so
    /// its hit counters stay reachable after the traced run wraps it).
    pub lru: Option<Arc<dyn LabMod>>,
    /// The load threads' actors.
    pub actors: Vec<Actor>,
}

fn open_file(fs: &mut GenericFs, path: &str) -> Result<(i32, u64), String> {
    let fd = fs.open(path, true, false).map_err(err("open"))?;
    let ino = fs.stat(path).map_err(err("stat"))?.ino;
    Ok((fd, ino))
}

/// Write `model`'s generation-1 image of `path` through `fs` one block
/// per write (so a cache vertex holds it block by block, as the
/// workload's own 4 KiB ops address it), then fsync.
fn preload_file(fs: &mut GenericFs, path: &str, model: &FileModel) -> Result<(), String> {
    let (fd, _) = open_file(fs, path)?;
    let mut block = vec![0u8; BLOCK];
    for b in 0..model.blocks() {
        model.fill_current(b, &mut block);
        fs.seek(fd, b * BLOCK as u64).map_err(err("preload seek"))?;
        fs.write(fd, &block).map_err(err("preload write"))?;
    }
    fs.fsync(fd).map_err(err("preload fsync"))?;
    fs.close(fd).map_err(err("preload close"))
}

/// Open `path` on `fs` for an actor whose model is `model`.
fn file_conn(
    mut fs: GenericFs,
    stack: &Arc<LabStack>,
    path: &str,
    model: FileModel,
) -> Result<Conn, String> {
    let (fd, ino) = open_file(&mut fs, path)?;
    Ok(Conn::Fs {
        fs,
        fd,
        model,
        ino,
        stack: stack.clone(),
    })
}

fn scan_programs() -> Result<Vec<Arc<VerifiedProgram>>, String> {
    (0..FIELD_SPACE)
        .map(|v| {
            Program::count_where_u32_eq(RECORD_LEN, KEY_OFF as u16, v)
                .verify()
                .map(Arc::new)
                .map_err(|e| format!("scan program: {e:?}"))
        })
        .collect()
}

impl Rig {
    /// Start a runtime, mount the workload's stack and preload its data.
    pub fn build(w: Workload, sizes: Sizes, seed: u64) -> Result<Rig, String> {
        let devices = DeviceRegistry::new();
        let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
        let rt = Runtime::start(RuntimeConfig {
            max_workers: MAX_WORKERS,
            ..RuntimeConfig::default()
        });
        labstor_mods::install_all(&rt.mm, &devices);
        let stack = rt.mount_stack_json(&stack_spec(w, &sizes))?;
        let lru = stack
            .vertices
            .iter()
            .filter_map(|v| rt.mm.get(&v.uuid))
            .find(|m| m.type_name() == "lru_cache");
        let creds = |pid: u32| Credentials::new(pid, 1000, 1000);
        let actors = match w {
            Workload::FsHot | Workload::FsColdInline => {
                let path = format!("{}/data", stack.mount);
                let model = FileModel::new(1, sizes.file_bytes);
                let mut fs = GenericFs::new(rt.connect(creds(1), 1));
                preload_file(&mut fs, &path, &model)?;
                let shape = if w == Workload::FsHot {
                    Shape::fs(1, 800, 0)
                } else {
                    Shape::fs(16, 500, WRITES_PER_SYNC)
                };
                let conn = file_conn(fs, &stack, &path, model)?;
                vec![Actor::new(Role::Single, shape, 1, conn, seed)]
            }
            Workload::KvsScan => {
                let mut kvs = GenericKvs::new(rt.connect(creds(1), 1));
                let model = KvModel::new(sizes.keys);
                for k in 0..model.keys() {
                    let key = format!("{}/{}", stack.mount, KvModel::key(k));
                    kvs.put(&key, model.current(k))
                        .map_err(err("preload put"))?;
                }
                let conn = Conn::Kvs {
                    kvs,
                    model,
                    progs: scan_programs()?,
                };
                vec![Actor::new(Role::Single, Shape::kvs(), 1, conn, seed)]
            }
            Workload::TenantsNoisy => {
                let victim_creds = creds(1).with_tenant(1.into());
                let hostile_creds = creds(2).with_tenant(2.into());
                let victim_policy = TenantPolicy::default().with_weight(VICTIM_WEIGHT);
                let hostile_policy = TenantPolicy::rate_limited(HOSTILE_RATE, HOSTILE_OP);
                let mut vfs =
                    GenericFs::new(rt.connect_with_policy(victim_creds, 1, victim_policy));
                let hfs = GenericFs::new(rt.connect_with_policy(hostile_creds, 1, hostile_policy));
                let (vpath, hpath) = (
                    format!("{}/victim", stack.mount),
                    format!("{}/hostile", stack.mount),
                );
                let vmodel = FileModel::new(1, sizes.file_bytes);
                let hmodel = FileModel::new(2, sizes.hostile_file_bytes);
                // Both files are preloaded through the victim's connection:
                // the hostile bucket admits only 8 MiB per virtual second,
                // which set-up should not have to wait on.
                preload_file(&mut vfs, &vpath, &vmodel)?;
                preload_file(&mut vfs, &hpath, &hmodel)?;
                let hostile_shape = Shape::fs(HOSTILE_OP / BLOCK as u64, 0, 0);
                vec![
                    Actor::new(
                        Role::Victim,
                        Shape::fs(1, 1000, 0),
                        1,
                        file_conn(vfs, &stack, &vpath, vmodel)?,
                        seed,
                    ),
                    Actor::new(
                        Role::Hostile,
                        hostile_shape,
                        2,
                        file_conn(hfs, &stack, &hpath, hmodel)?,
                        seed,
                    ),
                ]
            }
        };
        Ok(Rig {
            rt,
            dev,
            stack,
            lru,
            actors,
        })
    }

    /// LRU `(hits, misses)` so far (zeros without a cache vertex).
    pub fn lru_stats(&self) -> (u64, u64) {
        self.lru
            .as_ref()
            .and_then(|m| {
                m.as_any()
                    .downcast_ref::<labstor_mods::lru::LruCacheMod>()
                    .map(|l| l.hit_stats())
            })
            .unwrap_or((0, 0))
    }

    /// Stop the runtime and release everything.
    pub fn shutdown(self) {
        let Rig { rt, actors, .. } = self;
        drop(actors);
        rt.shutdown();
    }
}

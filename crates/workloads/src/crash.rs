//! Crash-recovery fuzz campaign over LabFS and LabKVS.
//!
//! Each trial runs a seeded fio-like or filebench-like operation mix
//! against a freshly built stack (LabFS or LabKVS over the Kernel MQ
//! driver on a simulated NVMe device), kills the device at a randomized
//! virtual time with [`labstor_sim::FaultConfig::set_crash_at`],
//! restarts a brand-new module instance over the *same* media, runs
//! `state_repair`, and asserts the recovered state equals the model
//! state after some prefix of the acknowledged-operation history — a
//! prefix no shorter than the last acknowledged durability point
//! (fsync / log flush).
//!
//! The harness is single-threaded on core 0, so every operation lands in
//! one journal log and the acknowledged history is totally ordered. A
//! trial runs the mix twice: once uncrashed to measure the run's
//! virtual-time span (and to prove the mix itself is error-free), then
//! again on a fresh device with the crash armed at a per-trial fraction
//! of that span. Operation mixes are overwrite-free (appends, truncates,
//! unlink + recreate): LabFS journals metadata, not file data, so an
//! in-place data overwrite before the metadata commit is the documented
//! ext4-ordered-mode gap, not a bug this campaign hunts.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use labstor_core::stack::{ExecMode, LabStack, Vertex};
use labstor_core::{FsOp, KvsOp, ModuleManager, Payload, Request, RespPayload, StackEnv};
use labstor_ipc::{BufHandle, Credentials};
use labstor_mods::journal::crc32;
use labstor_mods::labfs::LabFs;
use labstor_mods::labkvs::LabKvs;
use labstor_mods::{DeviceRegistry, RepairReport};
use labstor_sim::{Ctx, DeviceKind, SimDevice};

use crate::fio::XorShift;

/// Which operation mix a trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashWorkload {
    /// fio-like write-heavy mix over a fixed file set: random-size
    /// appends, periodic fsync, occasional truncate-and-rewrite.
    FioWrite,
    /// Filebench varmail: unlink → create → append → fsync → append →
    /// fsync → read, over a small mail set.
    Varmail,
    /// Filebench fileserver: large appends, whole-file reads, deletes of
    /// older files, sparser fsyncs.
    Fileserver,
    /// LabKVS mix: puts, removes, explicit log flushes, read-backs.
    KvsMix,
}

impl CrashWorkload {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CrashWorkload::FioWrite => "fio-write",
            CrashWorkload::Varmail => "varmail",
            CrashWorkload::Fileserver => "fileserver",
            CrashWorkload::KvsMix => "kvs-mix",
        }
    }

    /// All mixes, fio first.
    pub fn all() -> [CrashWorkload; 4] {
        [
            CrashWorkload::FioWrite,
            CrashWorkload::Varmail,
            CrashWorkload::Fileserver,
            CrashWorkload::KvsMix,
        ]
    }

    fn is_kvs(self) -> bool {
        self == CrashWorkload::KvsMix
    }
}

/// Outcome of one crash trial.
#[derive(Debug, Clone)]
pub struct TrialReport {
    /// Mix the trial ran.
    pub workload: CrashWorkload,
    /// Trial seed.
    pub seed: u64,
    /// Virtual time the power cut was armed at (`None` = baseline-only
    /// trial, which happens when the mix errored uncrashed).
    pub crash_at: Option<u64>,
    /// Operations acknowledged before the crash.
    pub acked_ops: usize,
    /// History index of the last acknowledged durability point.
    pub durable_floor: usize,
    /// History index whose model state the recovered state matched.
    pub matched_prefix: Option<usize>,
    /// What `state_repair` reported after the restart.
    pub repair: RepairReport,
    /// A prefix-consistency (or harness) violation, if any.
    pub violation: Option<String>,
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Crash trials per workload mix.
    pub trials_per_workload: usize,
    /// Flow iterations per trial.
    pub flows: usize,
    /// Base seed; trial seeds derive from it deterministically.
    pub base_seed: u64,
}

/// Results of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every trial, in execution order.
    pub trials: Vec<TrialReport>,
}

impl CampaignReport {
    /// Trials that violated prefix consistency (or hit harness errors).
    pub fn violations(&self) -> Vec<&TrialReport> {
        self.trials
            .iter()
            .filter(|t| t.violation.is_some())
            .collect()
    }

    /// Trials whose crash actually interrupted the mix (the armed cut
    /// fired before the workload finished).
    pub fn crashes(&self) -> usize {
        self.trials.iter().filter(|t| t.crash_at.is_some()).count()
    }

    /// Trials whose recovery discarded a torn or uncommitted tail — the
    /// interesting crash points.
    pub fn torn_tails(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.repair.torn_tail || t.repair.txns_discarded > 0)
            .count()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} trials, {} crash points, {} torn/uncommitted tails discarded, {} violations",
            self.trials.len(),
            self.crashes(),
            self.torn_tails(),
            self.violations().len()
        )
    }
}

/// Run `cfg.trials_per_workload` seeded crash points for every mix.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut trials = Vec::new();
    for (wi, w) in CrashWorkload::all().into_iter().enumerate() {
        for i in 0..cfg.trials_per_workload {
            let seed = cfg
                .base_seed
                .wrapping_add(wi as u64 * 0x9E37_79B9)
                .wrapping_add(i as u64 * 7919);
            // Spread crash points across 5%–95% of the run.
            let permille = 50 + (seed.wrapping_mul(2654435761) % 900);
            trials.push(run_trial(w, seed, cfg.flows, permille as u32));
        }
    }
    CampaignReport { trials }
}

/// Run one trial: baseline pass, crashed pass, restart, repair, verify.
pub fn run_trial(
    workload: CrashWorkload,
    seed: u64,
    flows: usize,
    crash_permille: u32,
) -> TrialReport {
    // Baseline: same seed, no crash. Measures the virtual-time span and
    // proves the mix is error-free, so any error in the crashed pass is
    // attributable to the cut.
    let base = run_once(workload, seed, flows, None);
    let mut report = TrialReport {
        workload,
        seed,
        crash_at: None,
        acked_ops: 0,
        durable_floor: 0,
        matched_prefix: None,
        repair: RepairReport::default(),
        violation: None,
    };
    if let Some(v) = base.violation {
        report.violation = Some(format!("baseline run failed: {v}"));
        return report;
    }
    let crash_at = (base.end_vt * crash_permille as u64 / 1000).max(1);
    report.crash_at = Some(crash_at);

    let run = run_once(workload, seed, flows, Some(crash_at));
    if let Some(v) = run.violation {
        report.violation = Some(v);
        return report;
    }
    report.acked_ops = run.digests.len() - 1;
    report.durable_floor = run.durable_floor;

    // Restart: clear the fault, boot a brand-new module instance over the
    // same media, and repair.
    run.dev.faults().clear_crash();
    let boot = Boot::new(&run.dev, workload.is_kvs());
    report.repair = boot.repair();

    // The recovered state must equal the model state after some
    // acknowledged prefix, no shorter than the last acked durability
    // point.
    let mut ctx = Ctx::new();
    let recovered = match boot.observed_digest(&mut ctx, &run.candidates) {
        Ok(d) => d,
        Err(e) => {
            report.violation = Some(format!("post-recovery scan failed: {e}"));
            return report;
        }
    };
    report.matched_prefix = (run.durable_floor..run.digests.len())
        .rev()
        .find(|&k| run.digests[k] == recovered);
    if report.matched_prefix.is_none() {
        report.violation = Some(format!(
            "recovered state matches no acked prefix >= durability floor \
             (floor {}, acked {}, crash_at {}, repair: {})",
            run.durable_floor,
            run.digests.len() - 1,
            crash_at,
            report.repair,
        ));
    }
    report
}

/// Repair idempotence probe (for the property tests): run a crashed
/// workload, then check that (a) repairing twice leaves the same state as
/// repairing once, and (b) a crash *during* repair followed by a clean
/// repair also converges to that state. Returns a violation description.
pub fn check_repair_idempotence(
    workload: CrashWorkload,
    seed: u64,
    flows: usize,
    crash_permille: u32,
) -> Result<(), String> {
    let base = run_once(workload, seed, flows, None);
    if let Some(v) = base.violation {
        return Err(format!("baseline run failed: {v}"));
    }
    let crash_at = (base.end_vt * crash_permille as u64 / 1000).max(1);
    let run = run_once(workload, seed, flows, Some(crash_at));
    if let Some(v) = run.violation {
        return Err(v);
    }
    run.dev.faults().clear_crash();

    let boot = Boot::new(&run.dev, workload.is_kvs());
    boot.repair();
    let mut ctx = Ctx::new();
    let once = boot.observed_digest(&mut ctx, &run.candidates)?;
    // Repair is a read-only scan of media: doing it again must converge
    // to the same state.
    let twice_report = boot.repair();
    let twice = boot.observed_digest(&mut ctx, &run.candidates)?;
    if once != twice {
        return Err(format!("second repair diverged (repair: {twice_report})"));
    }
    // Crash in the middle of a repair (the recovery scan itself loses
    // power), then repair cleanly: same state again.
    let boot2 = Boot::new(&run.dev, workload.is_kvs());
    run.dev.faults().set_crash_at(40_000); // a few reads into the scan
    let _ = boot2.repair(); // partial: scan reads die at the cut
    run.dev.faults().clear_crash();
    boot2.repair();
    let mut ctx2 = Ctx::new();
    let after = boot2.observed_digest(&mut ctx2, &run.candidates)?;
    if once != after {
        return Err("repair after crashed repair diverged".to_string());
    }
    Ok(())
}

// ---- harness ----------------------------------------------------------

/// One "boot" of the stack: a module manager holding the FS/KVS entry
/// module and the kernel driver, wired over a shared device.
struct Boot {
    mm: ModuleManager,
    stack: LabStack,
    entry: &'static str,
    kvs: bool,
}

impl Boot {
    fn new(dev: &Arc<SimDevice>, kvs: bool) -> Boot {
        let devices = DeviceRegistry::new();
        devices.add_block("dev0", dev.clone());
        let mm = ModuleManager::new();
        labstor_mods::labfs::install(&mm, &devices);
        labstor_mods::labkvs::install(&mm, &devices);
        labstor_mods::drivers::install(&mm, &devices);
        let (entry, type_name) = if kvs {
            ("kvs", "labkvs")
        } else {
            ("fs", "labfs")
        };
        // One worker = one journal log = a totally ordered history.
        mm.instantiate(
            entry,
            type_name,
            &serde_json::json!({"device": "dev0", "workers": 1}),
        )
        .expect("instantiate entry module");
        mm.instantiate(
            "drv",
            "kernel_driver",
            &serde_json::json!({"device": "dev0"}),
        )
        .expect("instantiate driver");
        let stack = LabStack {
            id: 1,
            mount: format!("{entry}::/cf"),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: entry.into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "drv".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![],
        };
        Boot {
            mm,
            stack,
            entry,
            kvs,
        }
    }

    fn exec(&self, ctx: &mut Ctx, payload: Payload) -> RespPayload {
        let env = StackEnv {
            stack: &self.stack,
            vertex: 0,
            registry: &self.mm,
            domain: 0,
        };
        self.mm.get(self.entry).expect("entry module").process(
            ctx,
            Request::new(1, 1, payload, Credentials::ROOT),
            &env,
        )
    }

    /// Run the module's crash-recovery path and return its report.
    fn repair(&self) -> RepairReport {
        let entry = self.mm.get(self.entry).expect("entry module");
        if self.kvs {
            entry
                .as_any()
                .downcast_ref::<LabKvs>()
                .expect("labkvs")
                .replay_from_device()
        } else {
            entry
                .as_any()
                .downcast_ref::<LabFs>()
                .expect("labfs")
                .replay_from_device()
        }
    }

    /// Flush the KVS op log (LabKVS's durability point; LabFS uses fsync).
    fn kv_flush(&self, ctx: &mut Ctx) -> Result<(), String> {
        self.mm
            .get(self.entry)
            .expect("entry module")
            .as_any()
            .downcast_ref::<LabKvs>()
            .expect("labkvs")
            .flush_logs(ctx)
    }

    /// Digest of the live (post-recovery) state over the candidate
    /// namespace, computed the same way as the model's snapshots.
    fn observed_digest(&self, ctx: &mut Ctx, candidates: &BTreeSet<String>) -> Result<u64, String> {
        let mut entries: Vec<(String, usize, u32)> = Vec::new();
        for name in candidates {
            if self.kvs {
                match self.exec(ctx, Payload::Kvs(KvsOp::Get { key: name.clone() })) {
                    RespPayload::Err(_) => {} // absent
                    resp => match resp.data_bytes() {
                        Some(d) => entries.push((name.clone(), d.len(), crc32(d))),
                        None => return Err(format!("get {name}: {resp:?}")),
                    },
                }
            } else {
                let st = match self.exec(ctx, Payload::Fs(FsOp::Stat { path: name.clone() })) {
                    RespPayload::Stat(st) => st,
                    RespPayload::Err(_) => continue, // absent
                    other => return Err(format!("stat {name}: {other:?}")),
                };
                if st.is_dir {
                    continue;
                }
                let resp = self.exec(
                    ctx,
                    Payload::Fs(FsOp::Read {
                        ino: st.ino,
                        offset: 0,
                        len: st.size as usize,
                    }),
                );
                let Some(data) = resp.data_bytes() else {
                    return Err(format!("read {name}: {resp:?}"));
                };
                entries.push((name.clone(), data.len(), crc32(data)));
            }
        }
        Ok(fold_digest(entries))
    }
}

/// Order-independent 64-bit digest over (name, size, content crc).
fn fold_digest(mut entries: Vec<(String, usize, u32)>) -> u64 {
    entries.sort();
    let mut h = 0xcbf29ce484222325u64;
    let mut byte = |b: u8| h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    for (name, len, crc) in &entries {
        for b in name.as_bytes() {
            byte(*b);
        }
        for b in (*len as u64).to_le_bytes() {
            byte(b);
        }
        for b in crc.to_le_bytes() {
            byte(b);
        }
    }
    h
}

// ---- model + workload driver ------------------------------------------

/// In-memory model of what the acknowledged history should produce.
#[derive(Default)]
struct Model {
    /// name → (content, content crc).
    files: HashMap<String, (Vec<u8>, u32)>,
}

impl Model {
    fn digest(&self) -> u64 {
        fold_digest(
            self.files
                .iter()
                .map(|(k, (v, c))| (k.clone(), v.len(), *c))
                .collect(),
        )
    }
}

struct RunOutcome {
    dev: Arc<SimDevice>,
    end_vt: u64,
    /// `digests[k]` = model digest after the first `k` acked operations.
    digests: Vec<u64>,
    /// Index of the last acked durability point in `digests`.
    durable_floor: usize,
    /// Every name the mix ever touched (the verification namespace).
    candidates: BTreeSet<String>,
    violation: Option<String>,
}

/// Drives one pass of a mix, maintaining the model and the acked-history
/// digests. Stops at the first error: a crash if one is armed, a
/// violation otherwise.
struct Driver<'a> {
    boot: &'a Boot,
    ctx: Ctx,
    model: Model,
    digests: Vec<u64>,
    durable_floor: usize,
    inos: HashMap<String, u64>,
    dir_ino: u64,
    candidates: BTreeSet<String>,
    crashed: bool,
    expect_crash: bool,
    violation: Option<String>,
}

impl Driver<'_> {
    fn live(&self) -> bool {
        !self.crashed && self.violation.is_none()
    }

    /// Record an error response: the armed crash, or a violation.
    fn error(&mut self, what: &str, msg: String) {
        if self.expect_crash {
            self.crashed = true;
        } else {
            self.violation = Some(format!("{what}: {msg}"));
        }
    }

    fn ack(&mut self) {
        self.digests.push(self.model.digest());
    }

    fn create(&mut self, path: &str) {
        if !self.live() {
            return;
        }
        self.candidates.insert(path.to_string());
        match self.boot.exec(
            &mut self.ctx,
            Payload::Fs(FsOp::Create {
                path: path.to_string(),
                mode: 0o644,
            }),
        ) {
            RespPayload::Ino(i) => {
                self.inos.insert(path.to_string(), i);
                self.model
                    .files
                    .insert(path.to_string(), (Vec::new(), crc32(&[])));
                self.ack();
            }
            RespPayload::Err(e) => self.error("create", e),
            other => self.violation = Some(format!("create {path}: {other:?}")),
        }
    }

    /// Append `data` at the current end of file (overwrite-free by
    /// construction).
    fn append(&mut self, path: &str, data: Vec<u8>) {
        if !self.live() {
            return;
        }
        let Some(&ino) = self.inos.get(path) else {
            self.violation = Some(format!("append {path}: no ino"));
            return;
        };
        let offset = self
            .model
            .files
            .get(path)
            .map(|(v, _)| v.len())
            .unwrap_or(0) as u64;
        match self.boot.exec(
            &mut self.ctx,
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset,
                buf: BufHandle::from_vec(data.clone()),
            }),
        ) {
            RespPayload::Len(_) => {
                let entry = self.model.files.get_mut(path).expect("modeled file");
                entry.0.extend_from_slice(&data);
                entry.1 = crc32(&entry.0);
                self.ack();
            }
            RespPayload::Err(e) => self.error("append", e),
            other => self.violation = Some(format!("append {path}: {other:?}")),
        }
    }

    fn truncate0(&mut self, path: &str) {
        if !self.live() {
            return;
        }
        let Some(&ino) = self.inos.get(path) else {
            return;
        };
        match self
            .boot
            .exec(&mut self.ctx, Payload::Fs(FsOp::Truncate { ino, size: 0 }))
        {
            RespPayload::Ok => {
                let entry = self.model.files.get_mut(path).expect("modeled file");
                entry.0.clear();
                entry.1 = crc32(&[]);
                self.ack();
            }
            RespPayload::Err(e) => self.error("truncate", e),
            other => self.violation = Some(format!("truncate {path}: {other:?}")),
        }
    }

    fn unlink(&mut self, path: &str) {
        if !self.live() || !self.model.files.contains_key(path) {
            return;
        }
        match self.boot.exec(
            &mut self.ctx,
            Payload::Fs(FsOp::Unlink {
                path: path.to_string(),
            }),
        ) {
            RespPayload::Ok => {
                self.model.files.remove(path);
                self.inos.remove(path);
                self.ack();
            }
            RespPayload::Err(e) => self.error("unlink", e),
            other => self.violation = Some(format!("unlink {path}: {other:?}")),
        }
    }

    /// LabFS durability point: fsync flushes every buffered log record as
    /// a journal transaction and barriers the data path.
    fn fsync(&mut self) {
        if !self.live() {
            return;
        }
        match self.boot.exec(
            &mut self.ctx,
            Payload::Fs(FsOp::Fsync { ino: self.dir_ino }),
        ) {
            r if r.is_ok() => {
                self.ack();
                self.durable_floor = self.digests.len() - 1;
            }
            RespPayload::Err(e) => self.error("fsync", e),
            other => self.violation = Some(format!("fsync: {other:?}")),
        }
    }

    /// Live read-back check (also an acked operation).
    fn read_check(&mut self, path: &str) {
        if !self.live() {
            return;
        }
        let Some(&ino) = self.inos.get(path) else {
            return;
        };
        let want = self.model.files.get(path).expect("modeled file").0.clone();
        match self.boot.exec(
            &mut self.ctx,
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: want.len().max(1),
            }),
        ) {
            RespPayload::Err(e) => self.error("read", e),
            resp => match resp.data_bytes() {
                Some(d) if d == want => self.ack(),
                Some(_) => self.violation = Some(format!("live read mismatch on {path}")),
                None => self.violation = Some(format!("read {path}: {resp:?}")),
            },
        }
    }

    fn put(&mut self, key: &str, value: Vec<u8>) {
        if !self.live() {
            return;
        }
        self.candidates.insert(key.to_string());
        match self.boot.exec(
            &mut self.ctx,
            Payload::Kvs(KvsOp::Put {
                key: key.to_string(),
                buf: BufHandle::from_vec(value.clone()),
            }),
        ) {
            RespPayload::Len(_) => {
                let crc = crc32(&value);
                self.model.files.insert(key.to_string(), (value, crc));
                self.ack();
            }
            RespPayload::Err(e) => self.error("put", e),
            other => self.violation = Some(format!("put {key}: {other:?}")),
        }
    }

    fn remove(&mut self, key: &str) {
        if !self.live() || !self.model.files.contains_key(key) {
            return;
        }
        match self.boot.exec(
            &mut self.ctx,
            Payload::Kvs(KvsOp::Remove {
                key: key.to_string(),
            }),
        ) {
            RespPayload::Ok => {
                self.model.files.remove(key);
                self.ack();
            }
            RespPayload::Err(e) => self.error("remove", e),
            other => self.violation = Some(format!("remove {key}: {other:?}")),
        }
    }

    /// LabKVS durability point: persist the op log.
    fn kv_flush(&mut self) {
        if !self.live() {
            return;
        }
        match self.boot.kv_flush(&mut self.ctx) {
            Ok(()) => {
                self.ack();
                self.durable_floor = self.digests.len() - 1;
            }
            Err(e) => self.error("kv flush", e),
        }
    }
}

/// Deterministic payload bytes for one operation.
fn payload_bytes(rng: &mut XorShift, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next() as u8).collect()
}

fn run_once(workload: CrashWorkload, seed: u64, flows: usize, crash_at: Option<u64>) -> RunOutcome {
    let dev = SimDevice::preset(DeviceKind::Nvme);
    if let Some(t) = crash_at {
        dev.faults().set_crash_at(t);
    }
    let boot = Boot::new(&dev, workload.is_kvs());
    let mut d = Driver {
        boot: &boot,
        ctx: Ctx::new(),
        model: Model::default(),
        digests: Vec::new(),
        durable_floor: 0,
        inos: HashMap::new(),
        dir_ino: 0,
        candidates: BTreeSet::new(),
        crashed: false,
        expect_crash: crash_at.is_some(),
        violation: None,
    };
    d.digests.push(d.model.digest()); // state after zero ops

    if !workload.is_kvs() {
        // The shared directory is op 1 of the history (digest unchanged —
        // only files are digested, the directory is structural).
        match d.boot.exec(
            &mut d.ctx,
            Payload::Fs(FsOp::Mkdir {
                path: "/cf".into(),
                mode: 0o755,
            }),
        ) {
            RespPayload::Ino(i) => {
                d.dir_ino = i;
                d.ack();
            }
            RespPayload::Err(e) => d.error("mkdir", e),
            other => d.violation = Some(format!("mkdir: {other:?}")),
        }
    }

    let mut rng = XorShift::new(seed | 1);
    for flow in 0..flows {
        if !d.live() {
            break;
        }
        match workload {
            CrashWorkload::FioWrite => {
                for _ in 0..4 {
                    let path = format!("/cf/f{}", rng.next() % 8);
                    if !d.model.files.contains_key(&path) {
                        d.create(&path);
                    }
                    let len = 512 + (rng.next() % 8192) as usize;
                    let data = payload_bytes(&mut rng, len);
                    d.append(&path, data);
                }
                if flow % 5 == 4 {
                    let path = format!("/cf/f{}", rng.next() % 8);
                    d.truncate0(&path);
                }
                if flow % 2 == 1 {
                    d.fsync();
                }
            }
            CrashWorkload::Varmail => {
                let path = format!("/cf/v{}", rng.next() % 6);
                d.unlink(&path);
                d.create(&path);
                let half = 2048 + (rng.next() % 2048) as usize;
                let first = payload_bytes(&mut rng, half);
                let second = payload_bytes(&mut rng, half);
                d.append(&path, first);
                d.fsync();
                d.append(&path, second);
                d.fsync();
                d.read_check(&path);
            }
            CrashWorkload::Fileserver => {
                let path = format!("/cf/s{flow}");
                d.create(&path);
                for _ in 0..4 {
                    let data = payload_bytes(&mut rng, 4096);
                    d.append(&path, data);
                }
                d.read_check(&path);
                if flow >= 2 {
                    d.unlink(&format!("/cf/s{}", flow - 2));
                }
                if flow % 3 == 2 {
                    d.fsync();
                }
            }
            CrashWorkload::KvsMix => {
                for _ in 0..3 {
                    let key = format!("k{}", rng.next() % 12);
                    let len = 200 + (rng.next() % 6000) as usize;
                    let value = payload_bytes(&mut rng, len);
                    d.put(&key, value);
                }
                if rng.next().is_multiple_of(5) {
                    let key = format!("k{}", rng.next() % 12);
                    d.remove(&key);
                }
                if flow % 2 == 1 {
                    d.kv_flush();
                }
            }
        }
    }
    // End every run on a durability point so a late crash still has a
    // device operation to hit.
    if d.live() {
        if workload.is_kvs() {
            d.kv_flush();
        } else {
            d.fsync();
        }
    }
    let end_vt = d.ctx.now();
    RunOutcome {
        dev,
        end_vt,
        digests: d.digests,
        durable_floor: d.durable_floor,
        candidates: d.candidates,
        violation: d.violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_runs_are_error_free() {
        for w in CrashWorkload::all() {
            let out = run_once(w, 7, 4, None);
            assert!(
                out.violation.is_none(),
                "{}: {:?}",
                w.label(),
                out.violation
            );
            assert!(out.digests.len() > 4, "{} acked too few ops", w.label());
            assert!(
                out.durable_floor > 0,
                "{} never reached durability",
                w.label()
            );
        }
    }

    #[test]
    fn trials_recover_a_consistent_prefix() {
        for w in CrashWorkload::all() {
            for (i, permille) in [300u32, 700u32].iter().enumerate() {
                let t = run_trial(w, 11 + i as u64, 4, *permille);
                assert!(t.violation.is_none(), "{}: {:?}", w.label(), t.violation);
                assert!(t.matched_prefix.is_some(), "{}: no match", w.label());
                assert!(t.matched_prefix.unwrap() >= t.durable_floor);
            }
        }
    }

    #[test]
    fn mid_run_crashes_leave_work_to_discard() {
        // Across a handful of seeds, at least one fio crash point must
        // actually cost the workload acked-but-volatile operations
        // (acked > floor), proving the cut lands mid-epoch.
        let mut saw_volatile_tail = false;
        for seed in 0..6u64 {
            let t = run_trial(CrashWorkload::FioWrite, 100 + seed, 4, 500);
            assert!(t.violation.is_none(), "{:?}", t.violation);
            saw_volatile_tail |= t.acked_ops > t.durable_floor;
        }
        assert!(saw_volatile_tail, "every crash landed on a clean boundary");
    }

    #[test]
    fn small_campaign_is_violation_free() {
        let report = run_campaign(&CampaignConfig {
            trials_per_workload: 2,
            flows: 3,
            base_seed: 42,
        });
        assert_eq!(report.trials.len(), 8);
        assert!(report.violations().is_empty(), "{:#?}", report.violations());
        assert_eq!(report.crashes(), 8);
    }

    #[test]
    fn repair_is_idempotent_after_a_crash() {
        check_repair_idempotence(CrashWorkload::FioWrite, 5, 4, 400).unwrap();
        check_repair_idempotence(CrashWorkload::KvsMix, 6, 4, 600).unwrap();
    }
}

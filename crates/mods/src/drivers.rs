//! Driver LabMods: the storage endpoints of LabStacks (paper §III-A
//! "Driver LabMods", §III-F "Kernel Driver LabMod").
//!
//! * [`KernelDriverMod`] — submits through the Kernel Ops Manager's
//!   `submit_io_to_hctx` (the re-implemented `blk_mq_try_issue_directly`),
//!   bypassing the kernel block layer's allocation/bookkeeping/scheduling,
//!   and reaps with `poll_completions`. One syscall-free path into MQ
//!   hardware queues.
//! * [`SpdkMod`] — userspace NVMe: the device's queue pair is mapped into
//!   the process (BAR mapping), so submission avoids even "the complex
//!   allocation of structures required by the Kernel Driver" — the extra
//!   12% of Fig. 6.
//! * [`DaxMod`] — byte-addressable PMEM via load/store; block conventions
//!   are skipped entirely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use labstor_core::{
    BlockOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_ipc::BufHandle;
use labstor_kernel::block::CompletionMode;
use labstor_kernel::BlockLayer;
use labstor_sim::{BlockDevice, Completion, Ctx, IoRequest, PmemDevice, SimDevice};
use labstor_telemetry::PerfCounters;

use crate::devices::{device_param, DeviceRegistry};

/// Cost of packaging a command through the Kernel Driver LabMod's request
/// structures ("the complex allocation of structures required by the
/// Kernel Driver" that SPDK avoids — Fig. 6's 12% gap at 4 KB).
const KDRV_ALLOC_NS: u64 = 1_350;
/// Packaging cost when an upstream scheduler stage already keyed the
/// request and prepared the dispatch descriptor (`qid_hint` set): the
/// driver only fills in the command and rings the doorbell.
const KDRV_PREKEYED_NS: u64 = 250;
/// Cost of writing an SQE + doorbell on a user-mapped SPDK queue pair.
const SPDK_SUBMIT_NS: u64 = 200;

/// Per-command driver software cost besides request packaging (doorbell
/// write, modeled in the block layer as `DRIVER_SUBMIT_NS`).
pub(crate) const DRIVER_SW_NS: u64 = 150;

/// Record the media service window of a completion as a Device span (the
/// labtelem recorder no-ops while disabled).
fn stamp_completion(env: &StackEnv<'_>, req_id: u64, c: &Completion) {
    env.stamp_device(req_id, c.done_at.saturating_sub(c.service_ns), c.done_at);
}

/// The bytes a block write hands the device model: the device DMA-ing
/// from the pinned payload buffer, modeled as a byte move into the
/// command — not a CPU payload copy, so it is not counted. (Read
/// completions come back the other way as the device's own buffer,
/// adopted by [`BufHandle::from_vec`] without a copy.)
fn dma_out(buf: &BufHandle) -> Vec<u8> {
    buf.as_slice().to_vec() // copy-ok: modeled device DMA from the shared buffer, not a CPU copy
}

/// Kernel MQ Driver LabMod.
pub struct KernelDriverMod {
    layer: Arc<BlockLayer>,
    perf: PerfCounters,
}

impl KernelDriverMod {
    /// Wrap a kernel block layer (the KO Manager hands this out).
    pub fn new(layer: Arc<BlockLayer>) -> Self {
        KernelDriverMod {
            layer,
            perf: PerfCounters::new(),
        }
    }
}

// labmod-default-ok: device drivers are stateless shims over the (simulated) device; device state outlives the module instance, so there is nothing to migrate or repair
impl LabMod for KernelDriverMod {
    fn type_name(&self) -> &'static str {
        "kernel_driver"
    }

    fn mod_type(&self) -> ModType {
        ModType::Driver
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let alloc_ns = if req.qid_hint.is_some() {
            KDRV_PREKEYED_NS
        } else {
            KDRV_ALLOC_NS
        };
        let req_id = req.id;
        let busy0 = ctx.busy();
        let dev = self.layer.device();
        // Clamp to the device's queue count: schedulers upstream may be
        // configured for wider devices.
        let qid = req.qid_hint.unwrap_or(req.core) % dev.num_queues();

        let resp = match req.payload {
            Payload::Block(BlockOp::Write { lba, buf }) => {
                ctx.advance(alloc_ns);
                let len = buf.len();
                let tag = self.layer.alloc_tag();
                match self.layer.submit_io_to_hctx(
                    ctx,
                    qid,
                    IoRequest::write(lba, dma_out(&buf), tag),
                ) {
                    Ok(()) => {
                        let c = self
                            .layer
                            .wait_for_tag(ctx, qid, tag, CompletionMode::DriverPoll);
                        stamp_completion(env, req_id, &c);
                        match c.result {
                            Ok(_) => RespPayload::Len(len),
                            Err(e) => RespPayload::Err(e.to_string()),
                        }
                    }
                    Err(e) => RespPayload::Err(e.to_string()),
                }
            }
            Payload::Block(BlockOp::Read { lba, len }) => {
                ctx.advance(alloc_ns);
                let tag = self.layer.alloc_tag();
                match self
                    .layer
                    .submit_io_to_hctx(ctx, qid, IoRequest::read(lba, len, tag))
                {
                    Ok(()) => {
                        let c = self
                            .layer
                            .wait_for_tag(ctx, qid, tag, CompletionMode::DriverPoll);
                        stamp_completion(env, req_id, &c);
                        match c.result {
                            Ok(data) => RespPayload::DataBuf(BufHandle::from_vec(data)),
                            Err(e) => RespPayload::Err(e.to_string()),
                        }
                    }
                    Err(e) => RespPayload::Err(e.to_string()),
                }
            }
            Payload::Block(BlockOp::Flush) => {
                let tag = self.layer.alloc_tag();
                match self
                    .layer
                    .submit_io_to_hctx(ctx, qid, IoRequest::flush(tag))
                {
                    Ok(()) => {
                        let c = self
                            .layer
                            .wait_for_tag(ctx, qid, tag, CompletionMode::DriverPoll);
                        stamp_completion(env, req_id, &c);
                        RespPayload::Ok
                    }
                    Err(e) => RespPayload::Err(e.to_string()),
                }
            }
            _ => return RespPayload::Err("kernel_driver handles block ops only".into()),
        };
        // Split accounting: `est_total_time` stays software-exclusive (the
        // media wait is visible in the device's own busy counter), while
        // the estimator learns the device-inclusive cost — the same
        // quantity the analytic model (`alloc + transfer`) predicts.
        self.perf
            .observe_split(alloc_ns + DRIVER_SW_NS, ctx.busy() - busy0);
        resp
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        let dev = self.layer.device();
        self.perf.est_ns(
            KDRV_ALLOC_NS
                + dev.model().transfer_ns(
                    matches!(req.payload, Payload::Block(BlockOp::Write { .. })),
                    req.payload_bytes(),
                ),
        )
    }

    fn est_total_time(&self) -> u64 {
        self.perf.total_ns()
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<KernelDriverMod>() {
            self.perf.absorb(&prev.perf);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// SPDK Driver LabMod: direct userspace NVMe queue pairs.
pub struct SpdkMod {
    dev: Arc<SimDevice>,
    perf: PerfCounters,
    /// Command identifiers must be unique per device, not per request
    /// stream — concurrent streams on shared queues would otherwise reap
    /// each other's completions.
    next_cid: AtomicU64,
    /// Completions reaped on behalf of other pollers sharing a queue,
    /// with the media service window for Device-span stamping.
    #[allow(clippy::type_complexity)]
    stash: parking_lot::Mutex<std::collections::HashMap<u64, (Result<Vec<u8>, String>, u64, u64)>>,
}

impl SpdkMod {
    /// Map a device's queue pairs into userspace.
    pub fn new(dev: Arc<SimDevice>) -> Self {
        SpdkMod {
            dev,
            perf: PerfCounters::new(),
            next_cid: AtomicU64::new(1),
            stash: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn cid(&self) -> u64 {
        self.next_cid.fetch_add(1, Ordering::Relaxed) // relaxed-ok: fresh-id allocation; atomicity alone suffices
    }
}

// labmod-default-ok: device drivers are stateless shims over the (simulated) device; device state outlives the module instance, so there is nothing to migrate or repair
impl LabMod for SpdkMod {
    fn type_name(&self) -> &'static str {
        "spdk"
    }

    fn mod_type(&self) -> ModType {
        ModType::Driver
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let req_id = req.id;
        let busy0 = ctx.busy();
        let qid = req.qid_hint.unwrap_or(req.core) % self.dev.num_queues();

        let resp = match req.payload {
            Payload::Block(BlockOp::Write { lba, buf }) => {
                ctx.advance(SPDK_SUBMIT_NS);
                let len = buf.len();
                let cid = self.cid();
                match self
                    .dev
                    .submit_at(qid, IoRequest::write(lba, dma_out(&buf), cid), ctx.now())
                {
                    Ok(()) => {
                        let done = self.wait(ctx, env, req_id, qid, cid);
                        match done {
                            Ok(_) => RespPayload::Len(len),
                            Err(e) => RespPayload::Err(e),
                        }
                    }
                    Err(e) => RespPayload::Err(e.to_string()),
                }
            }
            Payload::Block(BlockOp::Read { lba, len }) => {
                ctx.advance(SPDK_SUBMIT_NS);
                let cid = self.cid();
                match self
                    .dev
                    .submit_at(qid, IoRequest::read(lba, len, cid), ctx.now())
                {
                    Ok(()) => match self.wait(ctx, env, req_id, qid, cid) {
                        Ok(data) => RespPayload::DataBuf(BufHandle::from_vec(data)),
                        Err(e) => RespPayload::Err(e),
                    },
                    Err(e) => RespPayload::Err(e.to_string()),
                }
            }
            Payload::Block(BlockOp::Flush) => {
                let cid = self.cid();
                match self.dev.submit_at(qid, IoRequest::flush(cid), ctx.now()) {
                    Ok(()) => {
                        let _ = self.wait(ctx, env, req_id, qid, cid);
                        RespPayload::Ok
                    }
                    Err(e) => RespPayload::Err(e.to_string()),
                }
            }
            _ => return RespPayload::Err("spdk handles block ops only".into()),
        };
        // Totals stay at the submit cost (software-exclusive — the spin
        // poll is charged as device wait); the estimator learns the
        // device-inclusive cost the `submit + transfer` model predicts.
        self.perf.observe_split(SPDK_SUBMIT_NS, ctx.busy() - busy0);
        resp
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        self.perf.est_ns(
            SPDK_SUBMIT_NS
                + self.dev.model().transfer_ns(
                    matches!(req.payload, Payload::Block(BlockOp::Write { .. })),
                    req.payload_bytes(),
                ),
        )
    }

    fn est_total_time(&self) -> u64 {
        self.perf.total_ns()
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<SpdkMod>() {
            self.perf.absorb(&prev.perf);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl SpdkMod {
    /// Spin-poll the queue pair for one tag (pure userspace polling).
    /// Foreign completions on a shared queue are stashed for their
    /// waiters, never dropped; each carries its media service window so
    /// the eventual waiter can stamp the Device span.
    fn wait(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req_id: u64,
        qid: usize,
        tag: u64,
    ) -> Result<Vec<u8>, String> {
        loop {
            if let Some((r, t0, t1)) = self.stash.lock().remove(&tag) {
                env.stamp_device(req_id, t0, t1);
                return r;
            }
            if let Some(due) = self.dev.next_due(qid) {
                ctx.poll_until(due);
                let mut found = None;
                let mut stash = self.stash.lock();
                for c in self.dev.poll(qid, ctx.now(), 32) {
                    let window = (c.done_at.saturating_sub(c.service_ns), c.done_at);
                    if c.tag == tag {
                        found = Some((c.result.map_err(|e| e.to_string()), window));
                    } else {
                        stash.insert(
                            c.tag,
                            (c.result.map_err(|e| e.to_string()), window.0, window.1),
                        );
                    }
                }
                drop(stash);
                if let Some((r, (t0, t1))) = found {
                    env.stamp_device(req_id, t0, t1);
                    return r;
                }
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// DAX Driver LabMod: byte-addressable persistent memory.
pub struct DaxMod {
    dev: Arc<PmemDevice>,
    perf: PerfCounters,
}

impl DaxMod {
    /// Map a PMEM device.
    pub fn new(dev: Arc<PmemDevice>) -> Self {
        DaxMod {
            dev,
            perf: PerfCounters::new(),
        }
    }
}

// labmod-default-ok: device drivers are stateless shims over the (simulated) device; device state outlives the module instance, so there is nothing to migrate or repair
impl LabMod for DaxMod {
    fn type_name(&self) -> &'static str {
        "dax"
    }

    fn mod_type(&self) -> ModType {
        ModType::Driver
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let req_id = req.id;
        let busy0 = ctx.busy();
        let t0 = ctx.now();
        let resp = match req.payload {
            // LBAs keep block-op sector units for stackability; DAX's
            // byte-addressability means transfers need no alignment and
            // lengths are arbitrary.
            Payload::Block(BlockOp::Write { lba, buf }) => {
                let offset = lba * labstor_sim::SECTOR_SIZE as u64;
                match self.dev.store(ctx, offset, buf.as_slice()) {
                    Ok(_) => RespPayload::Len(buf.len()),
                    Err(e) => RespPayload::Err(e.to_string()),
                }
            }
            Payload::Block(BlockOp::Read { lba, len }) => {
                let offset = lba * labstor_sim::SECTOR_SIZE as u64;
                let mut buf = vec![0u8; len];
                match self.dev.load(ctx, offset, &mut buf) {
                    Ok(_) => RespPayload::DataBuf(BufHandle::from_vec(buf)),
                    Err(e) => RespPayload::Err(e.to_string()),
                }
            }
            Payload::Block(BlockOp::Flush) => {
                self.dev.drain(ctx);
                RespPayload::Ok
            }
            _ => return RespPayload::Err("dax handles block ops only".into()),
        };
        // The whole synchronous load/store window is media time.
        env.stamp_device(req_id, t0, ctx.now());
        // DAX has no driver software layer; the access *is* the device,
        // so totals stay at zero while the estimator learns the access
        // cost.
        self.perf.observe_split(0, ctx.busy() - busy0);
        resp
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        self.perf.est_ns(self.dev.model().transfer_ns(
            matches!(req.payload, Payload::Block(BlockOp::Write { .. })),
            req.payload_bytes(),
        ))
    }

    fn est_total_time(&self) -> u64 {
        self.perf.total_ns()
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<DaxMod>() {
            self.perf.absorb(&prev.perf);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// io_uring-backed Driver LabMod (paper §III-G "Re-implementation
/// Overhead"): "for situations where it is more desirable to rely on the
/// already-tested policies provided by the kernel, LabMods built on top
/// of kernel APIs such as I/O uring can be used to inherit some of the
/// kernel's functionality." Every command goes through the kernel's
/// block layer and scheduler — slower than `submit_io_to_hctx`, but it
/// reuses kernel policy wholesale.
pub struct IoUringDriverMod {
    engine: labstor_kernel::engines::RawEngine,
    perf: PerfCounters,
}

impl IoUringDriverMod {
    /// Wrap a block layer behind an io_uring instance.
    pub fn new(layer: Arc<BlockLayer>) -> Self {
        IoUringDriverMod {
            engine: labstor_kernel::engines::RawEngine::new(
                labstor_kernel::engines::IoEngineKind::IoUring,
                layer,
            ),
            perf: PerfCounters::new(),
        }
    }
}

// labmod-default-ok: device drivers are stateless shims over the (simulated) device; device state outlives the module instance, so there is nothing to migrate or repair
impl LabMod for IoUringDriverMod {
    fn type_name(&self) -> &'static str {
        "iouring_driver"
    }

    fn mod_type(&self) -> ModType {
        ModType::Driver
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        use labstor_kernel::sched::IoClass;
        let req_id = req.id;
        let before = ctx.busy();
        let class = if req.payload_bytes() <= 16 * 1024 {
            IoClass::Latency
        } else {
            IoClass::Throughput
        };
        let want_len = match &req.payload {
            Payload::Block(BlockOp::Write { buf, .. }) => Some(buf.len()),
            _ => None,
        };
        let io = match &req.payload {
            Payload::Block(BlockOp::Write { lba, buf }) => IoRequest::write(*lba, dma_out(buf), 0),
            Payload::Block(BlockOp::Read { lba, len }) => IoRequest::read(*lba, *len, 0),
            Payload::Block(BlockOp::Flush) => IoRequest::flush(0),
            _ => return RespPayload::Err("iouring_driver handles block ops only".into()),
        };
        let resp = match self.engine.rw_sync(ctx, req.core, class, io) {
            Ok(c) => {
                stamp_completion(env, req_id, &c);
                match (c.result, want_len) {
                    (Ok(_), Some(n)) => RespPayload::Len(n),
                    (Ok(data), None) if !data.is_empty() => {
                        RespPayload::DataBuf(BufHandle::from_vec(data))
                    }
                    (Ok(_), None) => RespPayload::Ok,
                    (Err(e), _) => RespPayload::Err(e.to_string()),
                }
            }
            Err(e) => RespPayload::Err(e.to_string()),
        };
        // The kernel path's totals were always device-inclusive (the
        // whole syscall round trip); keep that and let the estimator
        // track the same quantity.
        self.perf.observe(ctx.busy() - before);
        resp
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        self.perf.est_ns(
            2_000
                + self.engine_device_transfer(
                    matches!(req.payload, Payload::Block(BlockOp::Write { .. })),
                    req.payload_bytes(),
                ),
        )
    }

    fn est_total_time(&self) -> u64 {
        self.perf.total_ns()
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<IoUringDriverMod>() {
            self.perf.absorb(&prev.perf);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl IoUringDriverMod {
    fn engine_device_transfer(&self, write: bool, bytes: usize) -> u64 {
        self.engine
            .block_layer()
            .device()
            .model()
            .transfer_ns(write, bytes)
    }
}

/// Register the three driver factories. Params: `{"device": "<name>"}`.
pub fn install(mm: &ModuleManager, devices: &Arc<DeviceRegistry>) {
    let reg = devices.clone();
    mm.register_factory(
        "kernel_driver",
        Arc::new(move |params| {
            let name = device_param(params);
            let layer = reg
                .layer(&name)
                .unwrap_or_else(|| panic!("no block device '{name}'"));
            Arc::new(KernelDriverMod::new(layer)) as Arc<dyn LabMod>
        }),
    );
    let reg = devices.clone();
    mm.register_factory(
        "spdk",
        Arc::new(move |params| {
            let name = device_param(params);
            let dev = reg
                .block(&name)
                .unwrap_or_else(|| panic!("no block device '{name}'"));
            Arc::new(SpdkMod::new(dev)) as Arc<dyn LabMod>
        }),
    );
    let reg = devices.clone();
    mm.register_factory(
        "iouring_driver",
        Arc::new(move |params| {
            let name = device_param(params);
            let layer = reg
                .layer(&name)
                .unwrap_or_else(|| panic!("no block device '{name}'"));
            Arc::new(IoUringDriverMod::new(layer)) as Arc<dyn LabMod>
        }),
    );
    let reg = devices.clone();
    mm.register_factory(
        "dax",
        Arc::new(move |params| {
            let name = device_param(params);
            let dev = reg
                .pmem(&name)
                .unwrap_or_else(|| panic!("no pmem device '{name}'"));
            Arc::new(DaxMod::new(dev)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use labstor_sim::DeviceKind;

    fn single_stack(uuid: &str) -> LabStack {
        LabStack {
            id: 1,
            mount: "x".into(),
            exec: ExecMode::Sync,
            vertices: vec![Vertex {
                uuid: uuid.into(),
                outputs: vec![],
            }],
            authorized_uids: vec![],
        }
    }

    fn run(mm: &ModuleManager, uuid: &str, payload: Payload, ctx: &mut Ctx) -> RespPayload {
        let stack = single_stack(uuid);
        let env = StackEnv {
            stack: &stack,
            vertex: 0,
            registry: mm,
            domain: 0,
        };
        let m = mm.get(uuid).unwrap();
        m.process(ctx, Request::new(1, 1, payload, Credentials::ROOT), &env)
    }

    fn setup() -> (ModuleManager, Arc<DeviceRegistry>) {
        let devices = DeviceRegistry::new();
        devices.add_preset("nvme0", DeviceKind::Nvme);
        devices.add_pmem("pmem0", PmemDevice::preset());
        let mm = ModuleManager::new();
        install(&mm, &devices);
        (mm, devices)
    }

    #[test]
    fn kernel_driver_roundtrip() {
        let (mm, _d) = setup();
        mm.instantiate(
            "kd",
            "kernel_driver",
            &serde_json::json!({"device": "nvme0"}),
        )
        .unwrap();
        let mut ctx = Ctx::new();
        let data = vec![7u8; 4096];
        let w = run(
            &mm,
            "kd",
            Payload::Block(BlockOp::Write {
                lba: 8,
                buf: BufHandle::from_vec(data.clone()),
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(4096)));
        let r = run(
            &mm,
            "kd",
            Payload::Block(BlockOp::Read { lba: 8, len: 4096 }),
            &mut ctx,
        );
        match r {
            RespPayload::DataBuf(d) => assert_eq!(d.as_slice(), data),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spdk_roundtrip_and_cheaper_than_kernel_driver() {
        // Separate devices: both paths must start from idle channels.
        let (mm, d) = setup();
        d.add_preset("nvme1", DeviceKind::Nvme);
        mm.instantiate(
            "kd",
            "kernel_driver",
            &serde_json::json!({"device": "nvme0"}),
        )
        .unwrap();
        mm.instantiate("sp", "spdk", &serde_json::json!({"device": "nvme1"}))
            .unwrap();
        let mut kd_ctx = Ctx::new();
        run(
            &mm,
            "kd",
            Payload::Block(BlockOp::Write {
                lba: 0,
                buf: BufHandle::from_vec(vec![1u8; 4096]),
            }),
            &mut kd_ctx,
        );
        let mut sp_ctx = Ctx::new();
        run(
            &mm,
            "sp",
            Payload::Block(BlockOp::Write {
                lba: 64,
                buf: BufHandle::from_vec(vec![1u8; 4096]),
            }),
            &mut sp_ctx,
        );
        assert!(
            sp_ctx.now() < kd_ctx.now(),
            "spdk {} must beat kernel driver {}",
            sp_ctx.now(),
            kd_ctx.now()
        );
        let r = run(
            &mm,
            "sp",
            Payload::Block(BlockOp::Read { lba: 64, len: 4096 }),
            &mut sp_ctx,
        );
        assert!(matches!(r, RespPayload::DataBuf(_)));
    }

    #[test]
    fn dax_roundtrip_with_unaligned_length() {
        let (mm, _d) = setup();
        mm.instantiate("dx", "dax", &serde_json::json!({"device": "pmem0"}))
            .unwrap();
        let mut ctx = Ctx::new();
        // Arbitrary length: DAX does not care about sector multiples.
        let w = run(
            &mm,
            "dx",
            Payload::Block(BlockOp::Write {
                lba: 1234,
                buf: BufHandle::from_vec(b"dax bytes".to_vec()),
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(9)));
        let r = run(
            &mm,
            "dx",
            Payload::Block(BlockOp::Read { lba: 1234, len: 9 }),
            &mut ctx,
        );
        match r {
            RespPayload::DataBuf(d) => assert_eq!(d.as_slice(), b"dax bytes"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kernel_driver_pool_buffer_roundtrip() {
        let (mm, _d) = setup();
        mm.instantiate(
            "kd",
            "kernel_driver",
            &serde_json::json!({"device": "nvme0"}),
        )
        .unwrap();
        let mut ctx = Ctx::new();
        let mut buf = labstor_ipc::default_pool().alloc_payload(4096);
        assert!(buf.write_with(|b| b.fill(0xab)));
        let w = run(
            &mm,
            "kd",
            Payload::Block(BlockOp::Write { lba: 8, buf }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(4096)));
        let r = run(
            &mm,
            "kd",
            Payload::Block(BlockOp::Read { lba: 8, len: 4096 }),
            &mut ctx,
        );
        match r {
            RespPayload::DataBuf(h) => {
                assert_eq!(h.len(), 4096);
                assert!(h.as_slice().iter().all(|&b| b == 0xab));
            }
            other => panic!("expected DataBuf, got {other:?}"),
        }
    }

    #[test]
    fn drivers_reject_non_block_payloads() {
        let (mm, _d) = setup();
        mm.instantiate(
            "kd",
            "kernel_driver",
            &serde_json::json!({"device": "nvme0"}),
        )
        .unwrap();
        let mut ctx = Ctx::new();
        let resp = run(&mm, "kd", Payload::Dummy { work_ns: 1 }, &mut ctx);
        assert!(!resp.is_ok());
    }

    #[test]
    fn qid_hint_overrides_core_mapping() {
        let (mm, d) = setup();
        mm.instantiate(
            "kd",
            "kernel_driver",
            &serde_json::json!({"device": "nvme0"}),
        )
        .unwrap();
        let dev = d.block("nvme0").unwrap();
        let stack = single_stack("kd");
        let env = StackEnv {
            stack: &stack,
            vertex: 0,
            registry: &mm,
            domain: 0,
        };
        let m = mm.get("kd").unwrap();
        let mut ctx = Ctx::new();
        let mut req = Request::new(
            1,
            1,
            Payload::Block(BlockOp::Write {
                lba: 0,
                buf: BufHandle::from_vec(vec![0u8; 512]),
            }),
            Credentials::ROOT,
        );
        req.qid_hint = Some(5);
        let before = dev.stats().snapshot().writes;
        m.process(&mut ctx, req, &env);
        assert_eq!(dev.stats().snapshot().writes, before + 1);
    }

    #[test]
    fn iouring_driver_inherits_kernel_path() {
        let (mm, d) = setup();
        d.add_preset("nvme2", DeviceKind::Nvme);
        mm.instantiate(
            "iu",
            "iouring_driver",
            &serde_json::json!({"device": "nvme2"}),
        )
        .unwrap();
        let mut ctx = Ctx::new();
        let data = vec![3u8; 4096];
        let w = run(
            &mm,
            "iu",
            Payload::Block(BlockOp::Write {
                lba: 8,
                buf: BufHandle::from_vec(data.clone()),
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(4096)));
        let r = run(
            &mm,
            "iu",
            Payload::Block(BlockOp::Read { lba: 8, len: 4096 }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::DataBuf(got) if got.as_slice() == data));
        // Inheriting the kernel block layer costs more than the direct
        // hctx path of the Kernel Driver LabMod.
        mm.instantiate(
            "kd2",
            "kernel_driver",
            &serde_json::json!({"device": "nvme0"}),
        )
        .unwrap();
        let mut kd_ctx = Ctx::new();
        run(
            &mm,
            "kd2",
            Payload::Block(BlockOp::Write {
                lba: 0,
                buf: BufHandle::from_vec(vec![1u8; 4096]),
            }),
            &mut kd_ctx,
        );
        let mut iu_ctx = Ctx::new();
        run(
            &mm,
            "iu",
            Payload::Block(BlockOp::Write {
                lba: 64,
                buf: BufHandle::from_vec(vec![1u8; 4096]),
            }),
            &mut iu_ctx,
        );
        assert!(
            iu_ctx.now() > kd_ctx.now(),
            "io_uring path {} vs hctx {}",
            iu_ctx.now(),
            kd_ctx.now()
        );
    }

    #[test]
    fn est_total_time_accumulates() {
        let (mm, _d) = setup();
        let m = mm
            .instantiate("sp", "spdk", &serde_json::json!({"device": "nvme0"}))
            .unwrap();
        let mut ctx = Ctx::new();
        run(
            &mm,
            "sp",
            Payload::Block(BlockOp::Write {
                lba: 0,
                buf: BufHandle::from_vec(vec![0u8; 512]),
            }),
            &mut ctx,
        );
        assert!(m.est_total_time() > 0);
    }
}

//! The traced run's instrumentation, all applied from outside the
//! program.
//!
//! * [`Timed`] wraps a mounted LabMod instance (swapped in through
//!   `ModuleManager::insert_instance`) and times every `process` call on
//!   the host clock. Calls nest on the executing thread — a vertex
//!   forwards to the next one inline — so a thread-local frame stack
//!   gives each span its parent and the time its children cover; self
//!   time is the inclusive time minus that child time.
//! * The load threads stamp each connector call ([`begin_op`] /
//!   [`end_op`]). The outermost vertex span of the request (the entry
//!   vertex) links back to the call through a per-connection slot keyed
//!   by the credentials' pid, which gives the host time from the call to
//!   the entry vertex's start (SQ side) and from its return to the call's
//!   return (CQ side). When the entry vertex ran on the calling thread
//!   (a `sync` stack) nothing was queued and both waits are zero.
//! * Spans are kept in memory (bounded) and written out when the run
//!   ends ([`write_spans`]).
//! * Virtual self time per vertex comes from the runtime's own
//!   FlightRecorder spans ([`virtual_self_ns`]).

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use labstor_core::{KvsOp, LabMod, LabStack, ModType, Payload, Request, RespPayload, StackEnv};
use labstor_sim::Ctx;
use labstor_telemetry::{SpanEvent, Stage};

/// The LabMod types the per-layer metrics name, in report order.
pub const LAYERS: [&str; 6] = [
    "permissions",
    "labfs",
    "lru_cache",
    "noop_sched",
    "kernel_driver",
    "labkvs",
];

/// Host spans kept for the span file; counting continues past the cap.
const MAX_SPANS: usize = 1 << 16;

/// Connection slots for entry stamps (indexed by `pid % ENTRY_SLOTS`).
const ENTRY_SLOTS: usize = 8;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct LayerAcc {
    self_ns: AtomicU64,
    calls: AtomicU64,
    scan_self_ns: AtomicU64,
    scans: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ACC: LayerAcc = LayerAcc {
    self_ns: AtomicU64::new(0),
    calls: AtomicU64::new(0),
    scan_self_ns: AtomicU64::new(0),
    scans: AtomicU64::new(0),
};
static ACC: [LayerAcc; LAYERS.len()] = [ZERO_ACC; LAYERS.len()];

/// One host span: a connector call or a vertex `process` call.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    /// Span id (unique in the process).
    pub id: u64,
    /// Id of the span that caused it (0 for a connector call).
    pub parent: u64,
    /// `client.<op>` or the LabMod type name.
    pub name: &'static str,
    /// Start, host ns since the process epoch.
    pub start_ns: u64,
    /// End, host ns since the process epoch.
    pub end_ns: u64,
    /// Request id: the connection's pid and the client's request number
    /// (0 on connector spans, which may issue several requests).
    pub pid: u32,
    /// Client request number.
    pub req: u64,
}

static SPAN_IDS: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<HostSpan>> = Mutex::new(Vec::new());
static THREAD_TAGS: AtomicU64 = AtomicU64::new(1);

struct Frame {
    id: u64,
    child_ns: u64,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    // relaxed-ok: unique-id allocation; atomicity alone suffices
    static THREAD_TAG: u64 = THREAD_TAGS.fetch_add(1, Ordering::Relaxed);
}

fn keep(span: HostSpan) {
    let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    if spans.len() < MAX_SPANS {
        spans.push(span);
    }
}

#[derive(Clone, Copy)]
struct EntrySlot {
    client_thread: u64,
    client_span: u64,
    first_start: u64,
    last_end: u64,
    inline: bool,
    entries: u32,
}

const EMPTY_SLOT: EntrySlot = EntrySlot {
    client_thread: 0,
    client_span: 0,
    first_start: 0,
    last_end: 0,
    inline: false,
    entries: 0,
};
#[allow(clippy::declare_interior_mutable_const)]
const SLOT_INIT: Mutex<EntrySlot> = Mutex::new(EMPTY_SLOT);
static ENTRY: [Mutex<EntrySlot>; ENTRY_SLOTS] = [SLOT_INIT; ENTRY_SLOTS];

fn slot(pid: u32) -> std::sync::MutexGuard<'static, EntrySlot> {
    ENTRY[pid as usize % ENTRY_SLOTS]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Zero the per-layer accumulators and drop kept spans (start of the
/// traced phase).
pub fn reset() {
    for acc in &ACC {
        // relaxed-ok: stat counters, zeroed before the load threads start
        acc.self_ns.store(0, Ordering::Relaxed);
        // relaxed-ok: as above
        acc.calls.store(0, Ordering::Relaxed);
        // relaxed-ok: as above
        acc.scan_self_ns.store(0, Ordering::Relaxed);
        // relaxed-ok: as above
        acc.scans.store(0, Ordering::Relaxed);
    }
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Per-layer host totals since [`reset`]: `(self_ns, calls, scan_self_ns,
/// scans)` in [`LAYERS`] order.
pub fn layer_totals() -> [(u64, u64, u64, u64); LAYERS.len()] {
    std::array::from_fn(|i| {
        let a = &ACC[i];
        // relaxed-ok: stat counters read after the load threads joined
        (
            a.self_ns.load(Ordering::Relaxed),
            a.calls.load(Ordering::Relaxed),
            a.scan_self_ns.load(Ordering::Relaxed),
            a.scans.load(Ordering::Relaxed),
        )
    })
}

/// A connector call in flight on a load thread.
#[derive(Debug, Clone, Copy)]
pub struct OpStamp {
    id: u64,
    start_ns: u64,
}

/// Host time of one connector call, split at the entry vertex.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSplit {
    /// Whole call, ns.
    pub total_ns: u64,
    /// Call → entry vertex start (0 when the stack ran inline).
    pub sq_ns: u64,
    /// Entry vertex return → call return (0 when the stack ran inline).
    pub cq_ns: u64,
}

/// Stamp the start of a connector call made on connection `pid`.
pub fn begin_op(pid: u32) -> OpStamp {
    // relaxed-ok: unique-id allocation; atomicity alone suffices
    let id = SPAN_IDS.fetch_add(1, Ordering::Relaxed);
    let client_thread = THREAD_TAG.with(|t| *t);
    *slot(pid) = EntrySlot {
        client_thread,
        client_span: id,
        ..EMPTY_SLOT
    };
    OpStamp {
        id,
        start_ns: now_ns(),
    }
}

/// Stamp the end of the connector call `op`; `name` labels its span.
pub fn end_op(pid: u32, op: OpStamp, name: &'static str) -> OpSplit {
    let end_ns = now_ns();
    let s = *slot(pid);
    keep(HostSpan {
        id: op.id,
        parent: 0,
        name,
        start_ns: op.start_ns,
        end_ns,
        pid,
        req: 0,
    });
    let total_ns = end_ns - op.start_ns;
    if s.entries == 0 || s.inline {
        return OpSplit {
            total_ns,
            ..OpSplit::default()
        };
    }
    OpSplit {
        total_ns,
        sq_ns: s.first_start.saturating_sub(op.start_ns),
        cq_ns: end_ns.saturating_sub(s.last_end),
    }
}

/// Timing wrapper around a mounted LabMod. Every trait method delegates
/// to the wrapped instance, so live upgrade (`state_update` downcasts
/// through `as_any`) and repair still reach the real one.
pub struct Timed {
    inner: Arc<dyn LabMod>,
    layer: Option<usize>,
}

impl Timed {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn LabMod>) -> Timed {
        let layer = LAYERS.iter().position(|l| *l == inner.type_name());
        Timed { inner, layer }
    }
}

impl LabMod for Timed {
    fn type_name(&self) -> &'static str {
        self.inner.type_name()
    }

    fn mod_type(&self) -> ModType {
        self.inner.mod_type()
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let is_scan = matches!(req.payload, Payload::Kvs(KvsOp::ScanWhere { .. }));
        let (pid, rid) = (req.creds.pid, req.id);
        // relaxed-ok: unique-id allocation; atomicity alone suffices
        let id = SPAN_IDS.fetch_add(1, Ordering::Relaxed);
        let (parent, depth) = FRAMES.with(|f| {
            let mut f = f.borrow_mut();
            let parent = f.last().map_or(0, |p| p.id);
            f.push(Frame { id, child_ns: 0 });
            (parent, f.len() - 1)
        });
        let start_ns = now_ns();
        let parent = if depth == 0 {
            // The entry vertex: link it to the connector call that sent it.
            let me = THREAD_TAG.with(|t| *t);
            let mut s = slot(pid);
            if s.entries == 0 {
                s.first_start = start_ns;
            }
            s.entries += 1;
            s.inline = s.client_thread == me;
            s.client_span
        } else {
            parent
        };
        let resp = self.inner.process(ctx, req, env);
        let end_ns = now_ns();
        let incl = end_ns - start_ns;
        let child_ns = FRAMES.with(|f| {
            let mut f = f.borrow_mut();
            let me = f.pop().map_or(0, |fr| fr.child_ns);
            if let Some(p) = f.last_mut() {
                p.child_ns += incl;
            }
            me
        });
        if depth == 0 {
            slot(pid).last_end = end_ns;
        }
        if let Some(layer) = self.layer {
            let acc = &ACC[layer];
            let self_ns = incl.saturating_sub(child_ns);
            // relaxed-ok: stat counters; read only after the load threads joined
            acc.self_ns.fetch_add(self_ns, Ordering::Relaxed);
            // relaxed-ok: as above
            acc.calls.fetch_add(1, Ordering::Relaxed);
            if is_scan {
                // relaxed-ok: as above
                acc.scan_self_ns.fetch_add(self_ns, Ordering::Relaxed);
                // relaxed-ok: as above
                acc.scans.fetch_add(1, Ordering::Relaxed);
            }
        }
        keep(HostSpan {
            id,
            parent,
            name: self.inner.type_name(),
            start_ns,
            end_ns,
            pid,
            req: rid,
        });
        resp
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        self.inner.est_processing_time(req)
    }

    fn est_total_time(&self) -> u64 {
        self.inner.est_total_time()
    }

    fn state_update(&self, old: &dyn LabMod) {
        self.inner.state_update(old)
    }

    fn state_repair(&self) {
        self.inner.state_repair()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

/// Swap every vertex instance of `stack` for a [`Timed`] wrapper.
pub fn wrap_stack(mm: &labstor_core::ModuleManager, stack: &LabStack) {
    for v in &stack.vertices {
        if let Some(inner) = mm.get(&v.uuid) {
            mm.insert_instance(&v.uuid, Arc::new(Timed::new(inner)));
        }
    }
}

/// Virtual self time per vertex of `stack` over the FlightRecorder spans
/// `spans`, plus the number of entry-vertex spans (requests) they cover.
///
/// A vertex's `Vertex` span is inclusive; the hand-off `Hop` into each
/// output and the output's own `Vertex` span are its children, so
/// subtracting them leaves its exclusive time. Device windows stay with
/// the driver vertex that observed them.
pub fn virtual_self_ns(spans: &[SpanEvent], stack: &LabStack) -> (Vec<u64>, u64) {
    let n = stack.vertices.len();
    let mut parent_of = vec![None; n];
    for (i, v) in stack.vertices.iter().enumerate() {
        for &o in &v.outputs {
            if o < n {
                parent_of[o] = Some(i);
            }
        }
    }
    let mut incl = vec![0u64; n];
    let mut child = vec![0u64; n];
    let mut entries = 0u64;
    let sid = (stack.id & 0x00FF_FFFF) as u32;
    for s in spans.iter().filter(|s| s.stack == sid) {
        let v = s.vertex as usize;
        if v >= n {
            continue;
        }
        match s.stage {
            Stage::Vertex => {
                incl[v] += s.dur_vns();
                match parent_of[v] {
                    Some(p) => child[p] += s.dur_vns(),
                    None => entries += 1,
                }
            }
            Stage::Hop => {
                if let Some(p) = parent_of[v] {
                    child[p] += s.dur_vns();
                }
            }
            _ => {}
        }
    }
    let vself = incl
        .iter()
        .zip(&child)
        .map(|(i, c)| i.saturating_sub(*c))
        .collect();
    (vself, entries)
}

/// Write the kept host spans as JSON lines to `path`.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"pid\":{},\"req\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.pid, s.req
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

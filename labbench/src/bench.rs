//! Measurement phases and the metrics computed from them.
//!
//! An untraced run builds `RIGS` rigs in turn — each a fresh runtime,
//! stack and preload — and measures closed-loop load on each for its
//! share of the requested seconds. On a two-core host the scheduler's
//! placement of the runtime's workers against the load threads shifts
//! latency by whole modes (for example a 17 µs or a 23 µs median on
//! `tenants-noisy`), and a placement holds for the rig's lifetime; many
//! rigs per run draw it many times, and [`end_to_end`] combines the
//! per-rig figures so that neither a placement nor a stall from outside
//! the program decides a run. Each rig also records how much CPU time
//! the hypervisor stole from the machine while it ran; a disturbed rig
//! is replaced by a spare while the run's time allows, and the figures
//! come from the least disturbed rigs. A traced run (`--trace 1`) builds
//! one rig and splits its time into an untraced phase and a traced one
//! with every vertex wrapped and the FlightRecorder on; the per-layer
//! metrics come from the traced phase and the ratio of the two phases'
//! read medians is the tracing overhead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use labstor_sim::stats::StatsSnapshot;
use labstor_sim::BlockDevice;

use crate::sys::{self, ThreadClass};
use crate::trace;
use crate::workload::{OpKind, Rig, Role, Sample, Sizes, Tally, Workload, HOSTILE_RATE};

/// Rigs per untraced run. Each rig (runtime, stack, data) is set up,
/// measured for its share of the seconds and torn down; `setup_s` is the
/// median set-up time.
pub const RIGS: usize = 16;
/// A rig is disturbed when the hypervisor stole more than this share of
/// the machine's CPU time while the rig was set up and measured.
const STEAL_MAX: f64 = 0.02;
/// Spare rigs an untraced run may build to stand in for disturbed ones.
const SPARE_RIGS: usize = RIGS / 2;
/// No spare rig is started once the run has taken this many times its
/// measured seconds.
const SPARE_WALL: f64 = 2.5;
/// Unmeasured operations per load thread before measuring a fresh rig.
/// A count, not a time, so that the first rig's peak RSS (read after
/// it) covers the same work however fast the host runs.
const WARM_OPS: u64 = 3000;
/// How often the traced phase samples buffer-pool occupancy.
const POOL_SAMPLE: Duration = Duration::from_millis(1);
/// An actor stops after this many failed operations.
const MAX_FAILURES: u64 = 100;
/// FlightRecorder ring capacity per thread in the traced phase.
const RING_CAPACITY: usize = 1 << 18;

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock or CPU time on the machine that ran it.
    Host,
    /// Modeled time from the device and cost models.
    Virtual,
    /// A count or ratio of counts.
    Count,
}

impl Kind {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Virtual => "virtual",
            Kind::Count => "count",
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Host, virtual or count.
    pub kind: Kind,
}

/// How long a phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Wall seconds.
    Seconds(f64),
    /// Operations per actor (deterministic runs).
    Ops(u64),
}

/// Everything one phase measured.
pub struct Phase {
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Process CPU ns over the phase.
    pub cpu_ns: u64,
    /// CPU ns per thread class over the phase.
    pub class_cpu: HashMap<ThreadClass, u64>,
    /// Per-actor samples, roles and tallies.
    pub actors: Vec<(Role, Vec<Sample>, Tally)>,
    /// Per-actor virtual time elapsed, ns.
    pub v_elapsed: Vec<u64>,
    /// Per-actor tenant `(admitted, rejected)` deltas.
    pub tenant: Vec<Option<(u64, u64)>>,
    /// Device counters over the phase.
    pub dev: StatsSnapshot,
    /// Payload copies counted over the phase.
    pub copies: u64,
    /// LRU `(hits, misses)` over the phase.
    pub lru: (u64, u64),
    /// Highest buffer-pool occupancy sampled, bytes (traced phase only).
    pub pool_high_water: u64,
    /// First error any actor hit.
    pub first_error: Option<String>,
}

fn dev_delta(a: StatsSnapshot, b: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        reads: b.reads - a.reads,
        writes: b.writes - a.writes,
        bytes_read: b.bytes_read - a.bytes_read,
        bytes_written: b.bytes_written - a.bytes_written,
        busy_ns: b.busy_ns - a.busy_ns,
        seeks: b.seeks - a.seeks,
        errors: b.errors - a.errors,
        dropped: b.dropped - a.dropped,
    }
}

/// Bytes of buffer-pool slab currently handed out.
fn pool_bytes() -> u64 {
    let pool = labstor_ipc::default_pool();
    pool.class_table()
        .iter()
        .map(|&(size, slots)| (slots.saturating_sub(pool.free_slots_for(size)) * size) as u64)
        .sum()
}

impl Phase {
    /// Operations completed (all actors).
    pub fn ops(&self) -> u64 {
        self.actors.iter().map(|(_, s, _)| s.len() as u64).sum()
    }

    /// Operations attempted and failed (all actors).
    pub fn attempted_failed(&self) -> (u64, u64) {
        self.actors
            .iter()
            .fold((0, 0), |(a, f), (_, _, t)| (a + t.attempted, f + t.failed))
    }

    /// Host or virtual latencies (ns) of `kind` ops, in completion order
    /// per actor.
    pub fn lat(&self, kind: OpKind, virt: bool) -> Vec<u64> {
        self.actors
            .iter()
            .flat_map(|(_, s, _)| s.iter())
            .filter(|s| s.kind == kind)
            .map(|s| if virt { s.v_ns } else { s.host_ns })
            .collect()
    }

    /// Sum of a tally field over all actors.
    pub fn sum(&self, f: impl Fn(&Tally) -> u64) -> u64 {
        self.actors.iter().map(|(_, _, t)| f(t)).sum()
    }
}

/// Run the rig's actors, one load thread each, until `limit`.
pub fn run_phase(rig: &mut Rig, limit: Limit, traced: bool) -> Phase {
    let n = rig.actors.len();
    for a in &mut rig.actors {
        a.start_phase();
    }
    let v0: Vec<u64> = rig.actors.iter().map(|a| a.vnow()).collect();
    let tenant0: Vec<_> = rig.actors.iter().map(|a| a.tenant_counts()).collect();
    let dev0 = rig.dev.stats().snapshot();
    let copies0 = labstor_ipc::payload_copies();
    let lru0 = rig.lru_stats();
    let stop = AtomicBool::new(false);
    let ready = Barrier::new(n + 1);
    let go = Barrier::new(n + 1);
    let finished = Barrier::new(n + 1);
    let release = Barrier::new(n + 1);
    let mut pool_high_water = 0u64;
    let (wall, cpu_ns, class_cpu) = std::thread::scope(|s| {
        for (i, actor) in rig.actors.iter_mut().enumerate() {
            let stop = &stop;
            let (ready, go, finished, release) = (&ready, &go, &finished, &release);
            std::thread::Builder::new()
                .name(format!("{}{i}", sys::CLIENT_THREAD_PREFIX))
                .spawn_scoped(s, move || {
                    ready.wait();
                    go.wait();
                    let mut k = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        if matches!(limit, Limit::Ops(max) if k >= max) {
                            break;
                        }
                        actor.step(traced);
                        k += 1;
                        if actor.tally.failed >= MAX_FAILURES {
                            break;
                        }
                    }
                    // Stay alive until main has read this thread's CPU clock.
                    finished.wait();
                    release.wait();
                })
                .expect("spawn load thread");
        }
        ready.wait();
        let threads0 = sys::thread_cpu();
        let cpu0 = sys::process_cpu_ns();
        let t0 = Instant::now();
        go.wait();
        if let Limit::Seconds(secs) = limit {
            let end = Duration::from_secs_f64(secs);
            loop {
                let now = t0.elapsed();
                if now >= end {
                    break;
                }
                if traced {
                    pool_high_water = pool_high_water.max(pool_bytes());
                    std::thread::sleep((end - now).min(POOL_SAMPLE));
                } else {
                    std::thread::sleep(end - now);
                }
            }
            stop.store(true, Ordering::Release);
        }
        finished.wait();
        let wall = t0.elapsed();
        let cpu_ns = sys::process_cpu_ns() - cpu0;
        let class_cpu = sys::class_cpu_delta(&threads0, &sys::thread_cpu());
        release.wait();
        (wall, cpu_ns, class_cpu)
    });
    let first_error = rig.actors.iter().find_map(|a| a.first_error.clone());
    Phase {
        wall_s: wall.as_secs_f64(),
        cpu_ns,
        class_cpu,
        v_elapsed: rig
            .actors
            .iter()
            .zip(&v0)
            .map(|(a, v)| a.vnow() - v)
            .collect(),
        tenant: rig
            .actors
            .iter()
            .zip(&tenant0)
            .map(|(a, t0)| match (a.tenant_counts(), t0) {
                (Some((ad, rj)), Some((ad0, rj0))) => Some((ad - ad0, rj - rj0)),
                _ => None,
            })
            .collect(),
        actors: rig
            .actors
            .iter_mut()
            .map(|a| (a.role, std::mem::take(&mut a.samples), a.tally))
            .collect(),
        dev: dev_delta(dev0, rig.dev.stats().snapshot()),
        copies: labstor_ipc::payload_copies() - copies0,
        lru: {
            let (h, m) = rig.lru_stats();
            (h - lru0.0, m - lru0.1)
        },
        pool_high_water,
        first_error,
    }
}

/// Nearest-rank percentile of `v` (sorted in place).
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        kind,
    }
}

/// Virtual ops per virtual second, summed over actors (each actor keeps
/// its own virtual timeline).
fn v_ops_per_s(p: &Phase) -> f64 {
    p.actors
        .iter()
        .zip(&p.v_elapsed)
        .map(|((_, samples, _), vns)| per(samples.len() as f64, *vns as f64 / 1e9))
        .sum()
}

/// Mean of the middle three quarters of `v`: one eighth of the values
/// is dropped at each end, so a rig hit by a stall from outside the
/// program does not move the figure.
pub fn trimmed_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 8;
    let mid = &s[cut..s.len() - cut];
    per(mid.iter().sum(), mid.len() as f64)
}

/// The end-to-end metrics over the measured rigs (one phase each).
///
/// Each rig gives its own medians and rate. A stall from outside the
/// program (another tenant of the host) lasts seconds and cuts the
/// throughput of the rigs it covers, so throughput takes the median over
/// rigs. Latency medians barely move in a stall but sit in one of two
/// placement modes per rig, so they take the [`trimmed_mean`], which
/// averages the modes smoothly. CPU per op is a ratio of totals. Host
/// tails are not here: across runs on a shared two-core host they move
/// with the host's load by more than any bound the benchmark may set
/// (see [`per_layer`]). Set-up time is the median of the set-ups and
/// `peak_rss` (bytes) the process's peak through the first rig's set-up
/// and warm-up.
pub fn end_to_end(rigs: &[Phase], setup_s: f64, peak_rss: u64) -> Vec<Metric> {
    let total = |f: &dyn Fn(&Phase) -> f64| rigs.iter().map(f).sum::<f64>();
    let per_rig = |f: &dyn Fn(&Phase) -> f64| rigs.iter().map(f).collect::<Vec<_>>();
    let pct = |kind: OpKind, q: f64| per_rig(&|p| us(percentile(&mut p.lat(kind, false), q)));
    vec![
        metric(
            "ops_per_s",
            median(&per_rig(&|p| per(p.ops() as f64, p.wall_s))),
            "1/s",
            Kind::Host,
        ),
        metric(
            "read_p50_us",
            trimmed_mean(&pct(OpKind::Read, 0.5)),
            "us",
            Kind::Host,
        ),
        metric(
            "write_p50_us",
            trimmed_mean(&pct(OpKind::Write, 0.5)),
            "us",
            Kind::Host,
        ),
        metric(
            "cpu_us_per_op",
            per(total(&|p| us(p.cpu_ns)), total(&|p| p.ops() as f64)),
            "us",
            Kind::Host,
        ),
        metric("setup_s", setup_s, "s", Kind::Host),
        metric(
            "peak_rss_mb",
            peak_rss as f64 / (1u64 << 20) as f64,
            "MiB",
            Kind::Host,
        ),
    ]
}

/// The per-layer metrics: `plain` is the untraced phase of the traced
/// run, `traced` the phase with wrappers and spans on.
pub fn per_layer(rig: &Rig, plain: &Phase, traced: &Phase, fail_frac: f64) -> Vec<Metric> {
    let ops = traced.ops() as f64;
    // Op-level figures that cannot carry a bound, measured on the
    // untraced phase: host tails (over ten seeds, kvs-scan's get p99 read
    // 84-177 µs as the host's load drifted), and figures that read 0 or
    // the same on every run of some workload (an op a workload never
    // issues, a modeled cache-hit tail, the virtual throughput of a
    // cache-hit reader beside a bucket-paced writer, a write-through
    // stack's write amplification of exactly 1).
    let plain_lat =
        |kind: OpKind, virt: bool, q: f64| us(percentile(&mut plain.lat(kind, virt), q));
    let mut m = vec![
        metric(
            "read_p99_us",
            plain_lat(OpKind::Read, false, 0.99),
            "us",
            Kind::Host,
        ),
        metric(
            "write_p99_us",
            plain_lat(OpKind::Write, false, 0.99),
            "us",
            Kind::Host,
        ),
        metric(
            "v_read_p99_us",
            plain_lat(OpKind::Read, true, 0.99),
            "us",
            Kind::Virtual,
        ),
        metric("v_ops_per_s", v_ops_per_s(plain), "1/s", Kind::Virtual),
        metric(
            "sync_p50_us",
            plain_lat(OpKind::Sync, false, 0.5),
            "us",
            Kind::Host,
        ),
        metric(
            "scan_p50_us",
            plain_lat(OpKind::Scan, false, 0.5),
            "us",
            Kind::Host,
        ),
        metric("fail_frac", fail_frac, "ratio", Kind::Count),
        metric(
            "wamp",
            per(
                plain.dev.bytes_written as f64,
                plain.sum(|t| t.user_write_bytes) as f64,
            ),
            "ratio",
            Kind::Count,
        ),
    ];

    // core: SQ/CQ waits of the first actor (the victim on tenants-noisy).
    let t0 = &traced.actors[0].2;
    let split_ops = t0.split_ops as f64;
    m.push(metric(
        "core.client.sq_wait_us",
        per(us(t0.sq_ns), split_ops),
        "us",
        Kind::Host,
    ));
    m.push(metric(
        "core.client.cq_wait_us",
        per(us(t0.cq_ns), split_ops),
        "us",
        Kind::Host,
    ));
    let layers = trace::layer_totals();
    let layer_self: u64 = layers.iter().map(|l| l.0).sum();
    let attributed = traced.sum(|t| t.sq_ns) + traced.sum(|t| t.cq_ns) + layer_self;
    let total = traced.sum(|t| t.split_total_ns);
    // Signed: on async stacks the SQ/CQ gaps and the entry vertex tile
    // the call, so only clock-read jitter remains.
    m.push(metric(
        "core.unattributed_us",
        per((total as f64 - attributed as f64) / 1e3, ops),
        "us",
        Kind::Host,
    ));
    let class = |c: ThreadClass| *traced.class_cpu.get(&c).unwrap_or(&0);
    m.push(metric(
        "core.worker.cpu_us_per_op",
        per(us(class(ThreadClass::Worker)), ops),
        "us",
        Kind::Host,
    ));
    m.push(metric(
        "core.client.cpu_us_per_op",
        per(us(class(ThreadClass::Client)), ops),
        "us",
        Kind::Host,
    ));
    m.push(metric(
        "mods.flush.cpu_us_per_op",
        per(us(class(ThreadClass::Flush)), ops),
        "us",
        Kind::Host,
    ));

    // ipc
    m.push(metric(
        "ipc.payload_copies_per_op",
        per(traced.copies as f64, ops),
        "count",
        Kind::Count,
    ));
    m.push(metric(
        "ipc.pool_high_water_mb",
        traced.pool_high_water as f64 / (1u64 << 20) as f64,
        "MiB",
        Kind::Count,
    ));

    // mods: host self time (wrappers) and virtual self time (recorder).
    let spans = rig.rt.mm.telemetry().snapshot();
    let (vself, entries) = trace::virtual_self_ns(&spans, &rig.stack);
    for (i, name) in trace::LAYERS.iter().enumerate() {
        m.push(metric(
            format!("mods.{name}.self_us"),
            per(us(layers[i].0), ops),
            "us",
            Kind::Host,
        ));
    }
    for name in trace::LAYERS {
        let v: u64 = rig
            .stack
            .vertices
            .iter()
            .zip(&vself)
            .filter(|(vx, _)| {
                rig.rt
                    .mm
                    .get(&vx.uuid)
                    .is_some_and(|m| m.type_name() == name)
            })
            .map(|(_, ns)| *ns)
            .sum();
        m.push(metric(
            format!("mods.{name}.vself_us"),
            per(us(v), entries as f64),
            "us",
            Kind::Virtual,
        ));
    }
    let (hits, misses) = traced.lru;
    m.push(metric(
        "mods.lru_cache.hit_ratio",
        per(hits as f64, (hits + misses) as f64),
        "ratio",
        Kind::Count,
    ));
    let kvs = trace::LAYERS
        .iter()
        .position(|l| *l == "labkvs")
        .unwrap_or(0);
    m.push(metric(
        "mods.labkvs.scan_self_us",
        per(us(layers[kvs].2), layers[kvs].3 as f64),
        "us",
        Kind::Host,
    ));

    // sim
    let d = &traced.dev;
    let syncs = traced.lat(OpKind::Sync, false).len() as f64;
    m.push(metric(
        "sim.dev.reads_per_op",
        per(d.reads as f64, ops),
        "count",
        Kind::Count,
    ));
    m.push(metric(
        "sim.dev.read_kib_per_op",
        per(d.bytes_read as f64 / 1024.0, ops),
        "KiB",
        Kind::Count,
    ));
    m.push(metric(
        "sim.dev.vbusy_us_per_op",
        per(us(d.busy_ns), ops),
        "us",
        Kind::Virtual,
    ));
    m.push(metric(
        "sim.dev.writes_per_op",
        per(d.writes as f64, ops),
        "count",
        Kind::Count,
    ));
    m.push(metric(
        "sim.dev.writes_per_sync",
        per(d.writes as f64, syncs),
        "count",
        Kind::Count,
    ));

    // pushdown
    let scans = traced.sum(|t| t.scans) as f64;
    m.push(metric(
        "pushdown.fuel_per_scan",
        per(traced.sum(|t| t.fuel) as f64, scans),
        "count",
        Kind::Count,
    ));
    let ns_per_insn = rig
        .actors
        .iter()
        .find_map(|a| a.calibrate_scan())
        .unwrap_or(0.0);
    m.push(metric(
        "pushdown.host_ns_per_insn",
        ns_per_insn,
        "ns",
        Kind::Host,
    ));

    // qos: the hostile tenant's admission and admitted rate.
    let hostile = traced
        .actors
        .iter()
        .zip(&traced.tenant)
        .zip(&traced.v_elapsed)
        .find(|(((role, _, _), _), _)| *role == Role::Hostile);
    let (rejects_per_admit, rate_ratio) = match hostile {
        Some((((_, _, tally), tenant), velapsed)) => {
            let (admitted, rejected) = tenant.unwrap_or((0, 0));
            let bytes_per_vs = per(tally.user_write_bytes as f64, *velapsed as f64 / 1e9);
            (
                per(rejected as f64, admitted as f64),
                bytes_per_vs / HOSTILE_RATE as f64,
            )
        }
        None => (0.0, 0.0),
    };
    m.push(metric(
        "qos.rejects_per_admit",
        rejects_per_admit,
        "ratio",
        Kind::Count,
    ));
    m.push(metric(
        "qos.hostile_rate_ratio",
        rate_ratio,
        "ratio",
        Kind::Virtual,
    ));

    let p50 = |p: &Phase| percentile(&mut p.lat(OpKind::Read, false), 0.5) as f64;
    m.push(metric(
        "trace.overhead_ratio",
        per(p50(traced), p50(plain)),
        "ratio",
        Kind::Host,
    ));
    m
}

/// Outcome of one benchmark invocation.
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted over every phase.
    pub attempted: u64,
    /// Operations that failed or returned wrong output.
    pub failed: u64,
    /// First error, if any.
    pub first_error: Option<String>,
    /// Where the traced run's host spans were written.
    pub span_file: Option<std::path::PathBuf>,
    /// How the run went, for the report's comment lines.
    pub notes: Vec<String>,
}

/// Run one workload the way the command line asks.
pub fn run(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut phases = Vec::new();
    let mut notes = Vec::new();
    let (metrics, span_file) = if traced {
        let mut rig = Rig::build(w, sizes, seed)?;
        phases.push(run_phase(&mut rig, Limit::Ops(WARM_OPS), false));
        let plain = run_phase(&mut rig, Limit::Seconds(seconds / 2.0), false);
        let recorder = rig.rt.mm.telemetry().clone();
        recorder.set_ring_capacity(RING_CAPACITY);
        trace::wrap_stack(&rig.rt.mm, &rig.stack);
        trace::reset();
        recorder.enable();
        let t = run_phase(&mut rig, Limit::Seconds(seconds / 2.0), true);
        recorder.disable();
        phases.push(plain);
        phases.push(t);
        let (a, f) = totals(&phases);
        let m = per_layer(&rig, &phases[1], &phases[2], per(f as f64, a as f64));
        rig.shutdown();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{seed}.spans.jsonl", w.name()));
        trace::write_spans(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        (m, Some(path))
    } else {
        let share = Limit::Seconds(seconds / RIGS as f64);
        let started = Instant::now();
        // (steal share, set-up seconds, measured phase) per rig built.
        let mut rigs: Vec<(f64, f64, Phase)> = Vec::new();
        let mut peak_rss = 0;
        let clean = |rigs: &[(f64, f64, Phase)]| rigs.iter().filter(|r| r.0 <= STEAL_MAX).count();
        for i in 0..RIGS + SPARE_RIGS {
            if i >= RIGS
                && (clean(&rigs) >= RIGS || started.elapsed().as_secs_f64() > SPARE_WALL * seconds)
            {
                break;
            }
            let ticks = sys::cpu_ticks();
            let t = Instant::now();
            let mut rig = Rig::build(w, sizes, crate::model::mix(seed ^ i as u64))?;
            let setup_s = t.elapsed().as_secs_f64();
            phases.push(run_phase(&mut rig, Limit::Ops(WARM_OPS), false));
            if i == 0 {
                // One deployment's peak over set-up and a fixed number of
                // operations (labkvs grows with every put, so a timed span
                // would tie the figure to the host's speed). Later rigs
                // reuse the allocator's retained heap, which would measure
                // this harness instead.
                peak_rss = sys::peak_rss_bytes();
            }
            let measured = run_phase(&mut rig, share, false);
            rigs.push((sys::steal_share(ticks, sys::cpu_ticks()), setup_s, measured));
            rig.shutdown();
        }
        // The figures come from the RIGS rigs the hypervisor disturbed
        // least (a stable sort keeps build order among equals); every
        // rig's operations still count as attempted and checked.
        let built = rigs.len();
        let stolen = |r: &[(f64, f64, Phase)]| median(&r.iter().map(|r| r.0).collect::<Vec<_>>());
        let all_steal = stolen(&rigs);
        rigs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let spare = rigs.split_off(RIGS.min(built));
        notes.push(format!(
            "{} rigs built, {} disturbed (CPU steal over {STEAL_MAX}); median steal {all_steal:.4} over all rigs, {:.4} over the {} measured",
            built,
            built - clean(&rigs) - clean(&spare),
            stolen(&rigs),
            rigs.len()
        ));
        let setup: Vec<f64> = rigs.iter().map(|r| r.1).collect();
        let measured: Vec<Phase> = rigs.into_iter().map(|r| r.2).collect();
        let m = end_to_end(&measured, median(&setup), peak_rss);
        phases.extend(measured);
        phases.extend(spare.into_iter().map(|r| r.2));
        (m, None)
    };
    let (attempted, failed) = totals(&phases);
    let first_error = phases.iter().find_map(|p| p.first_error.clone());
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        first_error,
        span_file,
        notes,
    })
}

fn totals(phases: &[Phase]) -> (u64, u64) {
    phases.iter().fold((0, 0), |(a, f), p| {
        let (pa, pf) = p.attempted_failed();
        (a + pa, f + pf)
    })
}

/// Figures that must repeat exactly for a fixed seed: virtual latencies
/// and throughput, and the device's command counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Determinism {
    /// Virtual latencies of every op in issue order, by kind.
    pub v_latencies: Vec<(u8, Vec<u64>)>,
    /// Virtual ops per virtual second.
    pub v_ops_per_s: f64,
    /// Device counters over the measured ops.
    pub dev: StatsSnapshot,
    /// Operations whose output did not match the model.
    pub failed: u64,
}

/// Run `ops` operations of the tiny-sized workload and return the
/// figures the determinism self-check compares.
pub fn deterministic_figures(w: Workload, seed: u64, ops: u64) -> Result<Determinism, String> {
    let mut rig = Rig::build(w, Sizes::tiny(w), seed)?;
    let p = run_phase(&mut rig, Limit::Ops(ops), false);
    rig.shutdown();
    let kinds = [OpKind::Read, OpKind::Write, OpKind::Sync, OpKind::Scan];
    let v_latencies = kinds
        .iter()
        .enumerate()
        .map(|(i, k)| (i as u8, p.lat(*k, true)))
        .collect();
    Ok(Determinism {
        v_latencies,
        v_ops_per_s: v_ops_per_s(&p),
        dev: p.dev,
        failed: p.attempted_failed().1,
    })
}

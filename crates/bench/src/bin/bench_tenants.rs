//! Noisy-neighbor tenant isolation benchmark, emitting
//! `BENCH_tenants.json`.
//!
//! One hostile tenant hammers 256 KiB writes at an async block LabStack
//! while a fleet of latency-sensitive tenants (99 in the full run) do
//! 4 KiB reads. Three configurations:
//!
//! - `solo` — the victim fleet alone: the isolation baseline.
//! - `contended_noqos` — hostile added, every tenant on the permissive
//!   default policy (no token bucket, weight 1): the damage case.
//! - `contended_qos` — victims declare `LatencySensitive` weight-4
//!   policies; the hostile tenant is admitted through a token bucket and
//!   deprioritized by the weighted-fair pass in the orchestrator.
//!
//! Also the CI regression gate for the labtenant subsystem (DESIGN.md
//! §11): the run fails (exit 1) if the QoS run's aggregate victim p99
//! blows past the isolation ceiling relative to solo, or if the hostile
//! tenant's admitted virtual throughput escapes its bucket rate. Target
//! is p99(qos) ≤ 2× p99(solo); the hard ceiling is deliberately lenient
//! so host scheduling noise cannot flake CI.
//!
//! Usage: `bench_tenants [--smoke]` — `--smoke` shrinks the fleet and op
//! counts for CI.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use labstor_bench::runtime_with_mods;
use labstor_core::client::ClientError;
use labstor_core::{BlockOp, Payload, StackSpec, VertexSpec};
use labstor_ipc::Credentials;
use labstor_mods::DeviceRegistry;
use labstor_qos::{DeadlineClass, TenantPolicy};
use labstor_sim::DeviceKind;
use labstor_workloads::stats::SkewGate;

/// Victim request size (4 KiB reads).
const VICTIM_BYTES: usize = 4096;
/// Hostile request size (256 KiB writes).
const HOSTILE_BYTES: usize = 256 * 1024;
/// Device span the fleet reads across (sectors of 512 B).
const SPAN_SECTORS: u64 = (64 << 20) / 512;
/// Hostile pipeline depth: 256 KiB writes kept in flight per batch.
const HOSTILE_DEPTH: usize = 8;
/// Hostile token-bucket rate in the QoS run (bytes of payload per
/// virtual second): 8 MiB/s, ~32 hostile writes per virtual second.
const HOSTILE_RATE: u64 = 8 * 1024 * 1024;
/// Hostile bucket burst: one full pipeline batch.
const HOSTILE_BURST: u64 = (HOSTILE_DEPTH * HOSTILE_BYTES) as u64;
/// Victim open-loop arrival interval: one 4 KiB read per 2 ms of virtual
/// time per tenant (500 IOPS each). Open-loop pacing keeps latency
/// measurements honest under contention (no coordinated omission).
const VICTIM_INTERVAL_NS: u64 = 2_000_000;
/// Conservative-PDES window: no actor's virtual clock may run more than
/// this far ahead of the slowest live actor, so a throttled tenant
/// idling forward cannot drag shared worker clocks into its future.
/// Kept tight (an eighth of the victim interval) because inter-client
/// skew is a latency measurement floor: worker clocks ride the
/// front-runner, and a lagging victim observes that lead as latency.
const MAX_SKEW_NS: u64 = 250_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Solo,
    ContendedNoQos,
    ContendedQos,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Solo => "solo",
            Mode::ContendedNoQos => "contended_noqos",
            Mode::ContendedQos => "contended_qos",
        }
    }

    fn hostile(self) -> bool {
        self != Mode::Solo
    }
}

/// Hostile-side measurements (zeroed when the mode runs no hostile).
#[derive(Debug, Default, Clone, Copy)]
struct HostileStats {
    ops: u64,
    throttled: u64,
    bytes: u64,
    /// The hostile clock at exit — admitted bytes over this window is the
    /// virtual throughput the bucket gate checks.
    elapsed_vns: u64,
}

struct RunResult {
    mode: Mode,
    victim_p50_vns: u64,
    victim_p99_vns: u64,
    victim_ops: u64,
    hostile: HostileStats,
    /// Per-tenant accounting snapshot from the runtime's `TenantTable`.
    tenants_json: serde_json::Value,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn block_stack_spec() -> StackSpec {
    StackSpec {
        mount: "blk::/t".into(),
        exec: "async".into(),
        authorized_uids: vec![0],
        labmods: vec![
            VertexSpec {
                uuid: "sched_t".into(),
                type_name: "noop_sched".into(),
                params: serde_json::Value::Null,
                outputs: vec!["drv_t".into()],
            },
            VertexSpec {
                uuid: "drv_t".into(),
                type_name: "kernel_driver".into(),
                params: serde_json::json!({"device": "nvme0"}),
                outputs: vec![],
            },
        ],
    }
}

/// Deterministic per-thread LBA sequence (splitmix64).
fn next_lba(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Keep the op inside the span, sector-aligned to its size.
    let sectors = (VICTIM_BYTES / 512) as u64;
    (z % (SPAN_SECTORS - sectors)) / sectors * sectors
}

fn run(mode: Mode, victims: usize, ops_per_victim: usize) -> RunResult {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = runtime_with_mods(&devices, 4, true);
    let stack = rt.mount_stack(&block_stack_spec()).expect("stack mounts");

    let victim_policy = TenantPolicy::default()
        .with_weight(4)
        .with_deadline(DeadlineClass::LatencySensitive);
    let hostile_policy = TenantPolicy::rate_limited(HOSTILE_RATE, HOSTILE_BURST).with_weight(1);

    let stop = Arc::new(AtomicBool::new(false));
    let actors = victims + usize::from(mode.hostile());
    let gate = Arc::new(SkewGate::new(actors, MAX_SKEW_NS));
    let (lat, hostile) = std::thread::scope(|s| {
        // The hostile tenant runs for as long as the fleet does: writes
        // 256 KiB as fast as admission lets it, backing off by the
        // bucket's retry-after hint in virtual time when throttled.
        let hostile_handle = mode.hostile().then(|| {
            let rt = rt.clone();
            let stack = stack.clone();
            let stop = stop.clone();
            let gate = gate.clone();
            s.spawn(move || {
                let creds = Credentials::new(1000, 0, 0).with_tenant(1000.into());
                let mut client = match mode {
                    Mode::ContendedQos => rt.connect_with_policy(creds, 1, hostile_policy),
                    _ => rt.connect(creds, 1),
                };
                let mut stats = HostileStats::default();
                let mut lba = 0u64;
                // One payload buffer filled in place; every write of the
                // burst shares it by handle.
                let mut bulk = client.alloc_buf(HOSTILE_BYTES);
                bulk.write_with(|b| b.fill(0xa5));
                while !stop.load(Ordering::Acquire) {
                    gate.sync(victims, client.ctx.now());
                    // Pipeline a full batch of writes; `submit_all`
                    // charges the whole burst against the bucket at once.
                    let payloads: Vec<Payload> = (0..HOSTILE_DEPTH)
                        .map(|_| {
                            let p = Payload::Block(BlockOp::Write {
                                lba,
                                buf: bulk.clone(),
                            });
                            lba = (lba + (HOSTILE_BYTES / 512) as u64) % SPAN_SECTORS;
                            p
                        })
                        .collect();
                    match client.submit_all(&stack, payloads) {
                        Ok(ids) => {
                            for _ in &ids {
                                client.reap_one().expect("hostile completion");
                            }
                            stats.ops += ids.len() as u64;
                            stats.bytes += (ids.len() * HOSTILE_BYTES) as u64;
                        }
                        Err(ClientError::Throttled { retry_after_ns }) => {
                            stats.throttled += 1;
                            let target = client.ctx.now() + retry_after_ns;
                            client.ctx.idle_until(target);
                        }
                        Err(e) => panic!("hostile tenant: {e}"),
                    }
                }
                gate.finish(victims);
                stats.elapsed_vns = client.ctx.now();
                stats
            })
        });

        let victim_handles: Vec<_> = (0..victims)
            .map(|i| {
                let rt = rt.clone();
                let stack = stack.clone();
                let gate = gate.clone();
                s.spawn(move || {
                    let tenant = i as u32 + 1;
                    let creds = Credentials::new(tenant, 0, 0).with_tenant(tenant.into());
                    let mut client = match mode {
                        Mode::ContendedNoQos => rt.connect(creds, 1),
                        _ => rt.connect_with_policy(creds, 1, victim_policy),
                    };
                    let mut rng = tenant as u64;
                    let mut lat = Vec::with_capacity(ops_per_victim);
                    let start = client.ctx.now();
                    for op in 0..ops_per_victim {
                        // Open-loop arrival: one read per interval, paced
                        // in virtual time and held inside the skew window.
                        client
                            .ctx
                            .idle_until(start + op as u64 * VICTIM_INTERVAL_NS);
                        gate.sync(i, client.ctx.now());
                        let payload = Payload::Block(BlockOp::Read {
                            lba: next_lba(&mut rng),
                            len: VICTIM_BYTES,
                        });
                        match client.execute(&stack, payload) {
                            Ok((_, latency)) => lat.push(latency),
                            Err(e) => panic!("victim tenant {tenant}: {e}"),
                        }
                    }
                    gate.finish(i);
                    lat
                })
            })
            .collect();

        let mut lat: Vec<u64> = Vec::with_capacity(victims * ops_per_victim);
        for h in victim_handles {
            lat.extend(h.join().expect("victim thread"));
        }
        stop.store(true, Ordering::Release);
        let hostile = hostile_handle
            .map(|h| h.join().expect("hostile thread"))
            .unwrap_or_default();
        (lat, hostile)
    });

    let tenants_json = rt.tenants.export_json();
    rt.shutdown();
    let mut lat = lat;
    lat.sort_unstable();
    RunResult {
        mode,
        victim_p50_vns: percentile(&lat, 0.50),
        victim_p99_vns: percentile(&lat, 0.99),
        victim_ops: lat.len() as u64,
        hostile,
        tenants_json,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (victims, ops_per_victim) = if smoke { (12, 40) } else { (99, 200) };

    let results: Vec<RunResult> = [Mode::Solo, Mode::ContendedNoQos, Mode::ContendedQos]
        .into_iter()
        .map(|m| run(m, victims, ops_per_victim))
        .collect();
    let find = |m: Mode| results.iter().find(|r| r.mode == m).expect("mode ran");
    let solo = find(Mode::Solo);
    let noqos = find(Mode::ContendedNoQos);
    let qos = find(Mode::ContendedQos);

    // Gate 1: with QoS on, the fleet's aggregate p99 stays near solo.
    // Target 2x; the hard ceiling is lenient so CI noise cannot flake.
    let isolation_ratio = qos.victim_p99_vns as f64 / solo.victim_p99_vns.max(1) as f64;
    let damage_ratio = noqos.victim_p99_vns as f64 / solo.victim_p99_vns.max(1) as f64;
    let target = 2.0;
    let required_max = 16.0;
    // Gate 2: the hostile tenant's admitted virtual throughput stays at
    // its bucket rate (burst slack + 2x leniency).
    let hostile_secs = qos.hostile.elapsed_vns as f64 / 1e9;
    let hostile_rate = qos.hostile.bytes as f64 / hostile_secs.max(1e-9);
    let hostile_capped = qos.hostile.bytes as f64
        <= 2.0 * (HOSTILE_RATE as f64 * hostile_secs + HOSTILE_BURST as f64);
    let pass = isolation_ratio <= required_max && hostile_capped;

    let runs: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::json!({
                "mode": r.mode.label(),
                "victim_ops": r.victim_ops,
                "victim_p50_vns": r.victim_p50_vns,
                "victim_p99_vns": r.victim_p99_vns,
                "hostile_ops": r.hostile.ops,
                "hostile_throttled": r.hostile.throttled,
                "hostile_bytes": r.hostile.bytes,
                "hostile_elapsed_vns": r.hostile.elapsed_vns,
                "tenants": r.tenants_json.clone(),
            })
        })
        .collect();
    let gate = serde_json::json!({
        "compare": "contended_qos victim p99 vs solo victim p99 (virtual ns)",
        "isolation_ratio": isolation_ratio,
        "damage_ratio_noqos": damage_ratio,
        "target": target,
        "required_max": required_max,
        "hostile_rate_bytes_per_vsec": hostile_rate,
        "hostile_bucket_rate": HOSTILE_RATE,
        "hostile_capped": hostile_capped,
        "pass": pass,
    });
    let doc = serde_json::json!({
        "benchmark": "tenant_isolation",
        "smoke": smoke,
        "victims": victims,
        "ops_per_victim": ops_per_victim,
        "victim_bytes": VICTIM_BYTES,
        "hostile_bytes_per_op": HOSTILE_BYTES,
        "runs": runs,
        "gate": gate,
    });
    let out = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write("BENCH_tenants.json", format!("{out}\n")).expect("write BENCH_tenants.json");

    println!(
        "== tenant_isolation ({}) ==",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>16} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "mode", "ops", "p50(vns)", "p99(vns)", "hostile", "throttled"
    );
    for r in &results {
        println!(
            "{:>16} {:>10} {:>12} {:>12} {:>10} {:>10}",
            r.mode.label(),
            r.victim_ops,
            r.victim_p50_vns,
            r.victim_p99_vns,
            r.hostile.ops,
            r.hostile.throttled
        );
    }
    println!(
        "isolation: qos/solo p99 {isolation_ratio:.2}x (target {target}x, ceiling {required_max}x); noqos/solo {damage_ratio:.2}x"
    );
    println!(
        "hostile admitted rate: {:.0} B/vs (bucket {HOSTILE_RATE} B/vs, capped: {hostile_capped})",
        hostile_rate
    );
    if !pass {
        eprintln!("FAIL: tenant isolation gate (see BENCH_tenants.json)");
        std::process::exit(1);
    }
}

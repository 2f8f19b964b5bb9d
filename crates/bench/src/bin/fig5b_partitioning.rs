//! Fig. 5b — Work orchestration: request partitioning.
//!
//! "We deploy two LabStacks: latency-sensitive (L) and compressor (C).
//! … We run a metadata-intensive workload (L-App) which creates 5,000
//! files per-thread over the L-LabStack, and a large I/O workload (C-App)
//! which writes [32 MB requests] through the C-LabStack. Both the number
//! of L-App and C-App threads are fixed at 8. We vary the number of
//! Runtime workers to be between 1 and 8. We compare two work
//! orchestration policies: round-robin (RR) and dynamic."
//!
//! Paper: RR achieves the best bandwidth but terrible L-latency (the
//! L-App waits behind ~20 ms compressions); dynamic gives the L-App its
//! own workers — microsecond latency — at a bandwidth cost that drops
//! from 30% to 6% as workers grow from 1 to 8.
//!
//! (Scaled: 800 creates and 6×32 MB writes per thread.)

use std::sync::Arc;

use labstor_bench::{fmt_ns, print_table, runtime_with_mods};
use labstor_core::{BlockOp, OrchestratorPolicy};
use labstor_core::{FsOp, Payload, RespPayload, RoundRobinPolicy, StackSpec, VertexSpec};
use labstor_mods::DeviceRegistry;
use labstor_sim::DeviceKind;
use labstor_workloads::stats::Recorder;

const L_THREADS: usize = 8;
const C_THREADS: usize = 8;
/// Both apps run for this much virtual time (the paper runs both apps
/// continuously for one minute; 0.6 s preserves the steady-state mix).
const DURATION_NS: u64 = 600_000_000;
/// L-app op cap per thread: enough for a stable latency estimate without
/// millions of real round trips once the dynamic policy gets latency
/// down to microseconds.
const L_OPS_CAP: usize = 1_500;
const C_REQ_BYTES: usize = 32 << 20;

fn stacks() -> (StackSpec, StackSpec) {
    let l = StackSpec {
        mount: "fs::/l".into(),
        exec: "async".into(),
        authorized_uids: vec![0],
        labmods: vec![
            VertexSpec {
                uuid: "l_fs".into(),
                type_name: "labfs".into(),
                params: serde_json::json!({"device": "nvme0", "workers": 8}),
                outputs: vec!["l_lru".into()],
            },
            VertexSpec {
                uuid: "l_lru".into(),
                type_name: "lru_cache".into(),
                params: serde_json::json!({"capacity_bytes": 16 << 20}),
                outputs: vec!["l_sched".into()],
            },
            VertexSpec {
                uuid: "l_sched".into(),
                type_name: "noop_sched".into(),
                params: serde_json::Value::Null,
                outputs: vec!["l_drv".into()],
            },
            VertexSpec {
                uuid: "l_drv".into(),
                type_name: "kernel_driver".into(),
                params: serde_json::json!({"device": "nvme0"}),
                outputs: vec![],
            },
        ],
    };
    let c = StackSpec {
        mount: "blk::/c".into(),
        exec: "async".into(),
        authorized_uids: vec![0],
        labmods: vec![
            VertexSpec {
                uuid: "c_zip".into(),
                type_name: "compress".into(),
                params: serde_json::Value::Null,
                outputs: vec!["c_sched".into()],
            },
            VertexSpec {
                uuid: "c_sched".into(),
                type_name: "noop_sched".into(),
                params: serde_json::Value::Null,
                outputs: vec!["c_drv".into()],
            },
            VertexSpec {
                uuid: "c_drv".into(),
                type_name: "kernel_driver".into(),
                params: serde_json::json!({"device": "nvme0"}),
                outputs: vec![],
            },
        ],
    };
    (l, c)
}

/// Returns (L-App mean latency ns, C-App bandwidth MB/s).
fn run(policy: Arc<dyn OrchestratorPolicy>, workers: usize) -> (u64, f64) {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = runtime_with_mods(&devices, workers, true);
    rt.set_policy(policy);
    let (l_spec, c_spec) = stacks();
    let l_stack = rt.mount_stack(&l_spec).expect("L stack");
    let c_stack = rt.mount_stack(&c_spec).expect("C stack");

    // Compressible payload (the paper's VPIC-style data).
    let payload: Vec<u8> =
        std::iter::repeat_n(b"x=1.25 y=2.50 z=3.75 vx=0.1 ", C_REQ_BYTES / 28 + 1)
            .flatten()
            .copied()
            .take(C_REQ_BYTES)
            .collect();
    let payload = labstor_ipc::BufHandle::from_vec(payload);

    let (l_recs, c_recs): (Vec<Recorder>, Vec<Recorder>) = std::thread::scope(|s| {
        let l_handles: Vec<_> = (0..L_THREADS)
            .map(|t| {
                let rt = rt.clone();
                let stack = l_stack.clone();
                s.spawn(move || {
                    let mut client =
                        rt.connect(labstor_ipc::Credentials::new(t as u32 + 1, 0, 0), 1);
                    client.core = t;
                    let mut rec = Recorder::new(client.ctx.now());
                    let mut i = 0usize;
                    while client.ctx.now() < DURATION_NS && i < L_OPS_CAP {
                        let (resp, latency) = client
                            .execute(
                                &stack,
                                Payload::Fs(FsOp::Create {
                                    path: format!("/t{t}_f{i}"),
                                    mode: 0o644,
                                }),
                            )
                            .expect("create");
                        assert!(
                            matches!(resp, RespPayload::Ino(_)),
                            "create failed: {resp:?}"
                        );
                        rec.record(latency, 0);
                        i += 1;
                    }
                    rec.end_vt = client.ctx.now();
                    rec
                })
            })
            .collect();
        let c_handles: Vec<_> = (0..C_THREADS)
            .map(|t| {
                let rt = rt.clone();
                let stack = c_stack.clone();
                let payload = payload.clone();
                s.spawn(move || {
                    let mut client =
                        rt.connect(labstor_ipc::Credentials::new(100 + t as u32, 0, 0), 1);
                    client.core = L_THREADS + t;
                    let mut rec = Recorder::new(client.ctx.now());
                    let mut i = 0usize;
                    while client.ctx.now() < DURATION_NS {
                        // Rotate over device-sized slots (stored data is
                        // compressed; the address range just needs to fit).
                        let slot = (t * 7 + i % 7) % 56;
                        let lba = (slot * C_REQ_BYTES / labstor_sim::SECTOR_SIZE) as u64;
                        let (resp, latency) = client
                            .execute(
                                &stack,
                                Payload::Block(BlockOp::Write {
                                    lba,
                                    buf: payload.clone(),
                                }),
                            )
                            .expect("c write");
                        assert!(resp.is_ok(), "c write failed: {resp:?}");
                        rec.record(latency, C_REQ_BYTES);
                        i += 1;
                    }
                    rec.end_vt = client.ctx.now();
                    rec
                })
            })
            .collect();
        (
            l_handles
                .into_iter()
                .map(|h| h.join().expect("l thread"))
                .collect(),
            c_handles
                .into_iter()
                .map(|h| h.join().expect("c thread"))
                .collect(),
        )
    });
    rt.shutdown();
    let l = Recorder::merge(l_recs);
    let c = Recorder::merge(c_recs);
    (l.mean_ns(), c.mb_per_sec())
}

fn main() {
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        for (name, policy) in [
            (
                "rr",
                Arc::new(RoundRobinPolicy) as Arc<dyn OrchestratorPolicy>,
            ),
            ("dynamic", Arc::new(labstor_core::DynamicPolicy::default())),
        ] {
            let (l_lat, c_bw) = run(policy, workers);
            rows.push(vec![
                workers.to_string(),
                name.to_string(),
                fmt_ns(l_lat),
                format!("{c_bw:.0}"),
            ]);
        }
    }
    print_table(
        "Fig 5b: request partitioning (8 L-threads create files, 8 C-threads write 32MB compressed, 1s virtual)",
        &["workers", "policy", "L-lat(avg)", "C-BW MB/s"],
        &rows,
    );
    println!("\npaper: RR = best bandwidth, ~20ms-class L latency (HoL behind compressions);");
    println!("       dynamic = µs-class L latency, bandwidth cost 30% → 6% as workers 1 → 8");
}

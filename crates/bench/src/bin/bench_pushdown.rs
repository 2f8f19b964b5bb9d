//! Pushdown vs client-side filtering benchmark, emitting
//! `BENCH_pushdown.json`.
//!
//! The PR 10 experiment: a filtered scan over a 256 KiB file of 64-byte
//! records at 1% selectivity (one key value out of [`KEY_SPACE`]),
//! two ways:
//!
//! - `client_scan` — the legacy shape: `read(2)` ships every page to the
//!   client (one counted copy-out), which then runs the predicate
//!   itself (charged at `cost::SCAN_NS_PER_KB` of virtual time).
//! - `pushdown` — a verified count program attached to a single
//!   `ReadFiltered`: the LabFS LabMod runs the filter in place over
//!   cached page slices and ships back a 32-byte aggregate riding
//!   inline in the response envelope.
//!
//! Also the CI regression gate for the pushdown subsystem (DESIGN.md
//! §14): the run fails (exit 1) unless pushdown moves ≥ 100× fewer
//! payload bytes over IPC, is ≥ 3× faster in modeled virtual time, and
//! performs **zero** counted payload copies on its hit path — and both
//! sides must agree with the host-side reference count exactly.
//!
//! Usage: `bench_pushdown [--smoke]` — `--smoke` shrinks the repetition
//! count for CI (the dataset stays at the paper-shaped 256 KiB).

use std::sync::Arc;

use labstor_bench::{labfs_stack_spec, runtime_with_mods, LabVariant};
use labstor_ipc::Credentials;
use labstor_kernel::cost;
use labstor_mods::{DeviceRegistry, FilteredRead, GenericFs};
use labstor_pushdown::Program;
use labstor_sim::DeviceKind;
use labstor_workloads::pushdown::{
    client_scan_count, make_records, KEY_OFF, KEY_SPACE, RECORD_LEN,
};

/// Dataset size: 256 KiB — 64 file blocks of 64 64-byte records.
const DATA_BYTES: usize = 256 * 1024;
/// The key value the filter selects: 1/[`KEY_SPACE`] of the records.
const MATCH_KEY: u32 = 7;
/// File block size (mirrors `labstor_mods::labfs::FS_BLOCK`).
const PAGE: usize = 4096;

struct SideResult {
    /// Virtual ns per scan, averaged over repetitions.
    vns_per_scan: u64,
    /// Payload bytes shipped over IPC per scan.
    ipc_bytes: u64,
    /// Counted payload copies per scan (from the global copy counter).
    copies: u64,
    /// Matches reported.
    matches: u64,
    /// Pushdown fuel retired per scan (0 for the client side).
    fuel: u64,
}

fn write_dataset(fs: &mut GenericFs, path: &str, data: &[u8]) -> i32 {
    let fd = fs.open(path, true, true).expect("open dataset");
    for page in data.chunks(PAGE) {
        let mut buf = fs.client().alloc_buf(page.len());
        assert!(buf.write_with(|b| b.copy_from_slice(page)));
        assert_eq!(fs.write_buf(fd, buf).expect("write page"), page.len());
    }
    fs.fsync(fd).expect("fsync dataset");
    fd
}

/// The legacy client: ship everything, scan at home.
fn run_client_scan(fs: &mut GenericFs, fd: i32, reps: usize, expect: u64) -> SideResult {
    let mut vns_total = 0u64;
    let mut copies_total = 0u64;
    let mut matches = 0u64;
    for _ in 0..reps {
        fs.seek(fd, 0).expect("seek");
        let copies_before = labstor_ipc::payload_copies();
        let t0 = fs.client().ctx.now();
        let data = fs.read(fd, DATA_BYTES).expect("read dataset");
        assert_eq!(data.len(), DATA_BYTES);
        // The predicate runs client-side over every shipped byte,
        // charged at the calibrated scan rate.
        cost::scan(&mut fs.client_mut().ctx, data.len());
        matches = client_scan_count(&data, MATCH_KEY);
        vns_total += fs.client().ctx.now() - t0;
        copies_total += labstor_ipc::payload_copies() - copies_before;
        assert_eq!(matches, expect, "client scan disagrees with reference");
    }
    SideResult {
        vns_per_scan: vns_total / reps as u64,
        ipc_bytes: DATA_BYTES as u64,
        copies: copies_total / reps as u64,
        matches,
        fuel: 0,
    }
}

/// The pushdown client: ship the program down, the count back up.
fn run_pushdown(fs: &mut GenericFs, fd: i32, reps: usize, expect: u64) -> SideResult {
    let prog = Arc::new(
        Program::count_where_u32_eq(RECORD_LEN, KEY_OFF as u16, MATCH_KEY)
            .verify()
            .expect("count program verifies"),
    );
    let mut vns_total = 0u64;
    let mut copies_total = 0u64;
    let mut matches = 0u64;
    let mut fuel = 0u64;
    for _ in 0..reps {
        fs.seek(fd, 0).expect("seek");
        let copies_before = labstor_ipc::payload_copies();
        let t0 = fs.client().ctx.now();
        let reply = fs
            .read_filtered(fd, DATA_BYTES, prog.clone())
            .expect("pushdown read");
        vns_total += fs.client().ctx.now() - t0;
        copies_total += labstor_ipc::payload_copies() - copies_before;
        let agg = match reply {
            FilteredRead::Agg(agg) => agg,
            other => panic!("count program must return an aggregate, got {other:?}"),
        };
        assert_eq!(agg.records, (DATA_BYTES / RECORD_LEN) as u64);
        matches = agg.matches;
        fuel = agg.fuel_used;
        assert_eq!(matches, expect, "pushdown disagrees with reference");
    }
    SideResult {
        vns_per_scan: vns_total / reps as u64,
        ipc_bytes: labstor_pushdown::AggReply::LEN as u64,
        copies: copies_total / reps as u64,
        matches,
        fuel,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 2 } else { 8 };

    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = runtime_with_mods(&devices, 2, true);
    // Cache sized to hold the whole dataset: both sides scan warm pages,
    // so the comparison isolates the data movement, not the device.
    let spec = labfs_stack_spec(LabVariant::Min, "fs::/pd", "nvme0", 2, 2 * DATA_BYTES);
    rt.mount_stack(&spec).expect("stack mounts");
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));

    let data = make_records(DATA_BYTES / RECORD_LEN);
    let expect = client_scan_count(&data, MATCH_KEY);
    assert_eq!(
        expect,
        (DATA_BYTES / RECORD_LEN / KEY_SPACE as usize) as u64 + 1,
        "1% selectivity shape"
    );
    let fd = write_dataset(&mut fs, "fs::/pd/records.bin", &data);

    // Warm the cache once on each path before measuring.
    fs.seek(fd, 0).expect("seek");
    let _ = fs.read(fd, DATA_BYTES).expect("warm read");

    let client = run_client_scan(&mut fs, fd, reps, expect);
    let pushdown = run_pushdown(&mut fs, fd, reps, expect);
    rt.shutdown();

    // Gate 1: pushdown ships ≥ 100× fewer payload bytes over IPC.
    let bytes_ratio = client.ipc_bytes as f64 / pushdown.ipc_bytes.max(1) as f64;
    // Gate 2: ≥ 3× modeled speedup at 1% selectivity.
    let speedup = client.vns_per_scan as f64 / pushdown.vns_per_scan.max(1) as f64;
    // Gate 3: zero counted payload copies on the pushdown hit path.
    let zero_copy = pushdown.copies == 0;
    let pass = bytes_ratio >= 100.0 && speedup >= 3.0 && zero_copy;

    let client_run = serde_json::json!({
        "mode": "client_scan",
        "vns_per_scan": client.vns_per_scan,
        "ipc_payload_bytes": client.ipc_bytes,
        "payload_copies": client.copies,
    });
    let pushdown_run = serde_json::json!({
        "mode": "pushdown",
        "vns_per_scan": pushdown.vns_per_scan,
        "ipc_payload_bytes": pushdown.ipc_bytes,
        "payload_copies": pushdown.copies,
        "fuel_per_scan": pushdown.fuel,
    });
    let gate = serde_json::json!({
        "compare": "client_scan vs pushdown over 256 KiB at 1% selectivity",
        "bytes_ratio": bytes_ratio,
        "bytes_ratio_min": 100.0,
        "speedup": speedup,
        "speedup_min": 3.0,
        "pushdown_payload_copies": pushdown.copies,
        "pass": pass,
    });
    let doc = serde_json::json!({
        "benchmark": "pushdown_filtered_scan",
        "smoke": smoke,
        "data_bytes": DATA_BYTES,
        "record_len": RECORD_LEN,
        "selectivity": 1.0 / KEY_SPACE as f64,
        "matches": pushdown.matches,
        "reps": reps,
        "runs": vec![client_run, pushdown_run],
        "gate": gate,
    });
    let out = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write("BENCH_pushdown.json", format!("{out}\n")).expect("write BENCH_pushdown.json");

    println!(
        "== pushdown_filtered_scan ({}) ==",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>12} {:>14} {:>14} {:>8} {:>10}",
        "mode", "vns/scan", "ipc bytes", "copies", "fuel"
    );
    for (label, r) in [("client_scan", &client), ("pushdown", &pushdown)] {
        println!(
            "{:>12} {:>14} {:>14} {:>8} {:>10}",
            label, r.vns_per_scan, r.ipc_bytes, r.copies, r.fuel
        );
    }
    println!(
        "bytes over IPC: {bytes_ratio:.0}x fewer (floor 100x); modeled speedup: {speedup:.2}x (floor 3x); pushdown copies: {}",
        pushdown.copies
    );
    if !pass {
        eprintln!("FAIL: pushdown gate (see BENCH_pushdown.json)");
        std::process::exit(1);
    }
}

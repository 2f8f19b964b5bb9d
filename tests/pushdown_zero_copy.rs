//! Copy-accounting proof for the PR 10 data-path changes, asserted via
//! the global copy counter (`labstor::ipc::payload_copies`):
//!
//! - small (≤ 64 B) `read(2)`/`get` results ride **inline** in the
//!   response envelope — zero counted copies end to end (satellite 1);
//! - large `read(2)`/`get` results delegate to the zero-copy buffer path
//!   plus exactly **one** client-side copy-out — the legacy server-side
//!   copy is gone (satellite 2);
//! - a pushdown filtered read ships an aggregate with **zero** counted
//!   copies: the interpreter consumed page slices in place.
//!
//! This file intentionally holds a single test: the counter is
//! process-global, and rust integration-test files are separate
//! processes, so the delta assertions cannot race with unrelated suites.

use labstor::core::{Runtime, RuntimeConfig};
use labstor::ipc::Credentials;
use labstor::mods::{DeviceRegistry, FilteredRead, GenericFs, GenericKvs};
use labstor::pushdown::Program;
use labstor::sim::DeviceKind;
use std::sync::Arc;

const FS_SPEC: &str = r#"{
    "mount": "fs::/zc",
    "exec": "async",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "zcp_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 2}, "outputs": ["zcp_lru"] },
        { "uuid": "zcp_lru", "type": "lru_cache", "params": {"capacity_bytes": 4194304}, "outputs": ["zcp_drv"] },
        { "uuid": "zcp_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

const KV_SPEC: &str = r#"{
    "mount": "kv::/zc",
    "exec": "async",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "zcp_kv", "type": "labkvs", "params": {"device": "nvme0"}, "outputs": ["zcp_kvd"] },
        { "uuid": "zcp_kvd", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

const PAGE: usize = 4096;

fn copies<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = labstor::ipc::payload_copies();
    let r = f();
    (r, labstor::ipc::payload_copies() - before)
}

#[test]
fn small_results_ride_inline_large_results_pay_one_copy_out() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt: Arc<Runtime> = Runtime::start(RuntimeConfig {
        max_workers: 2,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    rt.mount_stack_json(FS_SPEC).unwrap();
    rt.mount_stack_json(KV_SPEC).unwrap();
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    let mut kvs = GenericKvs::new(rt.connect(Credentials::new(1, 0, 0), 1));

    // ---- filesystem ----------------------------------------------------
    let page: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8).collect();
    let fd = fs.open("fs::/zc/f.bin", true, false).unwrap();
    let mut buf = labstor::ipc::default_pool().alloc(PAGE).unwrap();
    assert!(buf.write_with(|b| b.copy_from_slice(&page)));
    assert_eq!(fs.write_buf(fd, buf).unwrap(), PAGE);
    fs.fsync(fd).unwrap();
    // Warm the cache so reads are served from pool handles.
    fs.seek(fd, 0).unwrap();
    let _ = fs.read_buf(fd, PAGE).unwrap();

    // Small read: the 64-byte result rides inline in the envelope —
    // zero counted payload copies end to end (threshold pinned in
    // `crates/ipc/src/inline.rs`).
    fs.seek(fd, 0).unwrap();
    let (small, delta) = copies(|| fs.read(fd, 64).unwrap());
    assert_eq!(small, page[..64]);
    assert_eq!(delta, 0, "≤64 B read must ship inline, uncopied");

    // Large read: delegates to the handle read path; the only
    // counted copy is the client-side materialization into the owned
    // Vec the read(2) signature requires.
    fs.seek(fd, 0).unwrap();
    let (large, delta) = copies(|| fs.read(fd, PAGE).unwrap());
    assert_eq!(large, page);
    assert_eq!(delta, 1, "large read pays exactly the one client copy-out");

    // ---- KVS -----------------------------------------------------------
    let small_val = vec![0x5au8; 48];
    let large_val: Vec<u8> = (0..PAGE).map(|i| (i % 241) as u8).collect();
    kvs.put("kv::/zc/small", small_val.clone()).unwrap();
    kvs.put("kv::/zc/large", large_val.clone()).unwrap();

    let (got, delta) = copies(|| kvs.get("kv::/zc/small").unwrap());
    assert_eq!(got, small_val);
    assert_eq!(delta, 0, "≤64 B get must ship inline, uncopied");

    let (got, delta) = copies(|| kvs.get("kv::/zc/large").unwrap());
    assert_eq!(got, large_val);
    assert_eq!(delta, 1, "large get pays exactly the one client copy-out");

    // ---- pushdown ------------------------------------------------------
    // A filtered read scans pages in place and ships a 32-byte inline
    // aggregate: zero counted copies on the whole hit path.
    let mut rec_page = vec![0u8; PAGE];
    for (i, rec) in rec_page.chunks_exact_mut(64).enumerate() {
        rec[..4].copy_from_slice(&((i as u32) % 4).to_le_bytes());
    }
    let fd2 = fs.open("fs::/zc/recs.bin", true, false).unwrap();
    let mut buf2 = labstor::ipc::default_pool().alloc(PAGE).unwrap();
    assert!(buf2.write_with(|b| b.copy_from_slice(&rec_page)));
    assert_eq!(fs.write_buf(fd2, buf2).unwrap(), PAGE);
    fs.fsync(fd2).unwrap();
    fs.seek(fd2, 0).unwrap();
    let _ = fs.read_buf(fd2, PAGE).unwrap(); // warm
    fs.seek(fd2, 0).unwrap();
    let prog = Arc::new(Program::count_where_u32_eq(64, 0, 3).verify().unwrap());
    let (reply, delta) = copies(|| fs.read_filtered(fd2, PAGE, prog).unwrap());
    match reply {
        FilteredRead::Agg(agg) => {
            assert_eq!(agg.records, 64);
            assert_eq!(agg.matches, 16);
        }
        other => panic!("expected aggregate, got {other:?}"),
    }
    assert_eq!(delta, 0, "pushdown hit path must not copy payload bytes");

    rt.shutdown();
}

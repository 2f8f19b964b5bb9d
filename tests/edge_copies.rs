//! Payload copies happen only at the client edge, and payload allocation
//! never fails for lack of pool capacity:
//!
//! - a page-aligned 4 KiB write through the owned-`Vec` API counts exactly
//!   one payload copy (the copy in), and so does a read hit through it
//!   (the copy out); the same operations through `write_buf`/`read_buf`
//!   count none;
//! - with every slot of the default buffer pool held, 4 KiB and 1 MiB
//!   writes and reads still succeed and return the right bytes (payloads
//!   fall back to heap-backed handles).
//!
//! This file intentionally holds a single test: the copy counter is
//! process-global, and rust integration-test files are separate
//! processes, so the delta assertions cannot race with unrelated suites.

use labstor::core::{Runtime, RuntimeConfig};
use labstor::ipc::{default_pool, payload_copies, Credentials};
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::DeviceKind;

const SPEC: &str = r#"{
    "mount": "fs::/edge",
    "exec": "async",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "edge_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 2}, "outputs": ["edge_lru"] },
        { "uuid": "edge_lru", "type": "lru_cache", "params": {"capacity_bytes": 8388608}, "outputs": ["edge_drv"] },
        { "uuid": "edge_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

const PAGE: usize = 4096;

fn copies<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = payload_copies();
    let r = f();
    (r, payload_copies() - before)
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i % 251) as u8 ^ seed.wrapping_mul(37))
        .collect()
}

#[test]
fn copies_happen_only_at_the_edge_and_payloads_survive_a_dry_pool() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig {
        max_workers: 2,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    rt.mount_stack_json(SPEC).unwrap();
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    let fd = fs.open("fs::/edge/f", true, false).unwrap();

    // ---- owned-Vec API: one copy in, one copy out ----------------------
    let page = pattern(PAGE, 1);
    let v0 = fs.client().ctx.now();
    let (n, delta) = copies(|| fs.write(fd, &page).unwrap());
    assert_eq!(n, PAGE);
    assert_eq!(
        delta, 1,
        "a page-aligned Vec write copies once, at the edge"
    );
    let vec_write_vns = fs.client().ctx.now() - v0;
    fs.seek(fd, 0).unwrap();
    let (got, delta) = copies(|| fs.read(fd, PAGE).unwrap());
    assert_eq!(got, page);
    assert_eq!(delta, 1, "a Vec read hit copies once, at the edge");

    // ---- handle API: no copy at all -------------------------------------
    let mut buf = fs.client().alloc_buf(PAGE);
    let page2 = pattern(PAGE, 2);
    assert!(buf.write_with(|b| b.copy_from_slice(&page2)));
    fs.seek(fd, 0).unwrap();
    let v0 = fs.client().ctx.now();
    let (n, delta) = copies(|| fs.write_buf(fd, buf).unwrap());
    assert_eq!(n, PAGE);
    assert_eq!(delta, 0, "write_buf passes the handle down uncopied");
    let buf_write_vns = fs.client().ctx.now() - v0;
    assert!(
        vec_write_vns > buf_write_vns,
        "the edge copy is charged to the client clock ({vec_write_vns} vs {buf_write_vns} vns)"
    );
    fs.seek(fd, 0).unwrap();
    let (h, delta) = copies(|| fs.read_buf(fd, PAGE).unwrap());
    assert_eq!(h.as_slice(), &page2[..]);
    assert_eq!(delta, 0, "a read_buf hit is refcount bumps end to end");
    drop(h);

    // ---- every default-pool slot held ----------------------------------
    let pool = default_pool();
    let held: Vec<_> = pool
        .class_table()
        .into_iter()
        .flat_map(|(size, _)| std::iter::from_fn(move || pool.alloc(size)))
        .collect();
    for (size, _) in pool.class_table() {
        assert_eq!(pool.free_slots_for(size), 0, "class {size} is dry");
    }
    for (i, len) in [PAGE, 1 << 20].into_iter().enumerate() {
        let data = pattern(len, 3 + i as u8);
        let off = (1 + i as u64) * (2 << 20);
        fs.seek(fd, off).unwrap();
        assert_eq!(fs.write(fd, &data).unwrap(), len, "{len}-byte write");
        fs.seek(fd, off).unwrap();
        assert_eq!(fs.read(fd, len).unwrap(), data, "{len}-byte read");
        fs.seek(fd, off).unwrap();
        assert_eq!(fs.read_buf(fd, len).unwrap().as_slice(), &data[..]);
    }
    drop(held);

    fs.close(fd).unwrap();
    rt.shutdown();
}

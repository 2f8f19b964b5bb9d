//! The benchmark's own checks: a fixed seed repeats every virtual figure
//! and device count on the single-client workloads, outputs check clean
//! on the benchmarked workloads, and the program emits exactly the
//! metrics `BENCHMARK.json` declares, each of the kind `workloads.json`
//! records for it.

use labbench::bench::{self, deterministic_figures};
use labbench::workload::{Sizes, Workload};

const OPS: u64 = 600;

#[test]
fn fixed_seed_repeats_virtual_figures_and_device_counts() {
    for w in [Workload::FsHot, Workload::FsColdInline, Workload::KvsScan] {
        let a = deterministic_figures(w, 7, OPS).expect("first run");
        let b = deterministic_figures(w, 7, OPS).expect("second run");
        assert_eq!(a, b, "{}: same seed, different virtual figures", w.name());
        let ops: usize = a.v_latencies.iter().map(|(_, v)| v.len()).sum();
        assert!(
            ops as u64 + a.failed == OPS,
            "{}: every op accounted for",
            w.name()
        );
        assert!(a.dev.ops() > 0, "{}: the device saw work", w.name());
        let c = deterministic_figures(w, 8, OPS).expect("other seed");
        assert_ne!(
            a.v_latencies,
            c.v_latencies,
            "{}: the seed drives the inputs",
            w.name()
        );
    }
}

#[test]
fn outputs_check_clean_on_benchmarked_workloads() {
    for w in [Workload::FsHot, Workload::KvsScan, Workload::TenantsNoisy] {
        let f = deterministic_figures(w, 11, OPS).expect("run");
        assert_eq!(f.failed, 0, "{}: outputs must match the model", w.name());
    }
}

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    doc.get(section)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect()
}

fn recorded_kinds() -> serde_json::Map {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads.json");
    let text = std::fs::read_to_string(path).expect("workloads.json");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    doc.get("metrics")
        .and_then(|m| m.as_object())
        .expect("metric kinds")
        .clone()
}

#[test]
fn emitted_metrics_match_the_declaration() {
    let w = Workload::FsHot;
    let kinds = recorded_kinds();
    for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = bench::run(w, Sizes::tiny(w), 3, 0.4, traced).expect("run");
        let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, declared(section), "{section}");
        for m in &out.metrics {
            assert_eq!(
                kinds.get(&m.name).and_then(|k| k.as_str()),
                Some(m.kind.label()),
                "{}: workloads.json records another kind than the program emits",
                m.name
            );
        }
        assert_eq!(out.failed, 0);
    }
}

#[test]
fn workload_record_covers_the_declaration() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let read = |p: &str| -> serde_json::Value {
        serde_json::from_str(&std::fs::read_to_string(format!("{root}/{p}")).expect("read"))
            .expect("valid JSON")
    };
    let (bench, record) = (read("BENCHMARK.json"), read("labbench/workloads.json"));
    let kinds = recorded_kinds();
    let mut declared_names = declared("end_to_end");
    declared_names.extend(declared("per_layer"));
    let mut recorded: Vec<String> = kinds.keys().cloned().collect();
    recorded.sort();
    declared_names.sort();
    assert_eq!(
        recorded, declared_names,
        "every metric has exactly one kind"
    );
    for kind in kinds.values() {
        assert!(matches!(kind.as_str(), Some("host" | "virtual" | "count")));
    }
    let name = |w: &serde_json::Value| w.get("name").and_then(|n| n.as_str()).map(str::to_string);
    let benched: Vec<String> = bench
        .get("workloads")
        .and_then(|w| w.as_array())
        .expect("workloads")
        .iter()
        .filter_map(name)
        .collect();
    let in_record: Vec<String> = record
        .get("workloads")
        .and_then(|w| w.as_array())
        .expect("workloads")
        .iter()
        .filter(|w| w.get("in_benchmark").and_then(|b| b.as_bool()) == Some(true))
        .filter_map(name)
        .collect();
    assert_eq!(benched, in_record);
    for w in &benched {
        assert!(
            Workload::parse(w).is_some(),
            "{w} is a workload the program runs"
        );
    }
}

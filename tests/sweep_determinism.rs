//! Sweep-engine integration contract: (a) the JSONL result store is
//! byte-identical whatever the worker-thread count — record content and
//! order depend only on the grid; (b) it is byte-identical whatever the
//! simulation engine; (c) re-running against a warm store performs zero
//! backend executions, satisfying every cell from cache — for tensor and
//! loop-nest workloads alike.

use canon::arch::{CanonConfig, Engine};
use canon::sweep::engine::{run_sweep, SweepOptions};
use canon::sweep::scenario::{GridBuilder, OpTemplate, ScenarioGrid};
use canon::sweep::store::{RecordStatus, ResultStore};
use std::path::PathBuf;

fn test_grid() -> ScenarioGrid {
    test_workloads().build()
}

fn test_workloads() -> GridBuilder {
    // Three workload families (one banded) across all five architectures at
    // smoke shapes: 5 cells x 5 archs = 25 scenarios.
    GridBuilder::new()
        .workload(
            "GEMM",
            OpTemplate::Gemm {
                m: 64,
                k: 64,
                n: 32,
            },
        )
        .workload(
            "SpMM",
            OpTemplate::Spmm {
                m: 64,
                k: 64,
                n: 32,
            },
        )
        .workload(
            "Win",
            OpTemplate::Window {
                seq: 64,
                window_div: 8,
                head_dim: 32,
            },
        )
}

fn temp_store(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "canon-sweep-determinism-{}-{name}.jsonl",
        std::process::id()
    ))
}

#[test]
fn thread_count_does_not_change_store_bytes() {
    let grid = test_grid();
    let path2 = temp_store("jobs2");
    let path8 = temp_store("jobs8");
    for (path, jobs) in [(&path2, 2), (&path8, 8)] {
        std::fs::remove_file(path).ok();
        let mut store = ResultStore::open(path).expect("open store");
        let out = run_sweep(
            &grid,
            &mut store,
            &SweepOptions {
                jobs,
                ..Default::default()
            },
        )
        .expect("sweep runs");
        assert_eq!(out.stats.total, grid.scenarios.len());
        assert_eq!(out.stats.executed, grid.scenarios.len());
    }
    let bytes2 = std::fs::read(&path2).expect("jobs=2 store");
    let bytes8 = std::fs::read(&path8).expect("jobs=8 store");
    assert!(!bytes2.is_empty());
    assert_eq!(
        bytes2, bytes8,
        "2-thread and 8-thread sweeps must produce byte-identical JSONL"
    );
    std::fs::remove_file(&path2).ok();
    std::fs::remove_file(&path8).ok();
}

#[test]
fn engine_does_not_change_store_bytes() {
    let grid = test_workloads().geometries(&[(8, 8), (16, 8)]).build();
    let mut stores = Vec::new();
    for (engine, name) in [(Engine::Reference, "reference"), (Engine::Fast, "fast")] {
        let path = temp_store(name);
        std::fs::remove_file(&path).ok();
        let mut store = ResultStore::open(&path).expect("open store");
        let out = run_sweep(
            &grid,
            &mut store,
            &SweepOptions {
                jobs: 2,
                base_cfg: CanonConfig {
                    engine,
                    ..CanonConfig::default()
                },
                ..Default::default()
            },
        )
        .expect("sweep runs");
        assert_eq!(out.stats.executed, grid.scenarios.len());
        assert_eq!(out.stats.errors, 0);
        stores.push(std::fs::read(&path).expect("store bytes"));
        std::fs::remove_file(&path).ok();
    }
    assert!(!stores[0].is_empty());
    assert_eq!(
        stores[0], stores[1],
        "reference- and fast-engine sweeps must produce byte-identical JSONL"
    );
}

#[test]
fn loop_workload_sweep_is_deterministic_and_cached() {
    // Two PolyBench kernels across all five architectures and two
    // geometries: the reconfigurable backends produce Ok records, the
    // systolic variants and ZeD produce Unsupported records — and both
    // kinds cache and replay byte-identically.
    let grid = GridBuilder::new()
        .workload(
            "PolyB-gemm",
            OpTemplate::Loop {
                name: "gemm",
                n: 16,
            },
        )
        .workload(
            "PolyB-jacobi-2d",
            OpTemplate::Loop {
                name: "jacobi-2d",
                n: 16,
            },
        )
        .geometries(&[(8, 8), (16, 16)])
        .build();
    assert_eq!(grid.scenarios.len(), 20);

    let paths = [temp_store("loop-jobs1"), temp_store("loop-jobs4")];
    let mut outcomes = Vec::new();
    for (path, jobs) in paths.iter().zip([1, 4]) {
        std::fs::remove_file(path).ok();
        let mut store = ResultStore::open(path).expect("open store");
        let out = run_sweep(
            &grid,
            &mut store,
            &SweepOptions {
                jobs,
                ..Default::default()
            },
        )
        .expect("loop sweep runs");
        // 2 kernels x 2 geometries x 3 tensor-only architectures.
        assert_eq!(out.stats.unsupported, 12);
        assert_eq!(out.stats.errors, 0);
        outcomes.push(out);
    }
    assert_eq!(outcomes[0].records, outcomes[1].records);
    let bytes: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
    assert_eq!(bytes[0], bytes[1], "loop sweeps must be thread-invariant");

    for rec in &outcomes[0].records {
        let ok = rec.status == RecordStatus::Ok;
        let reconfigurable = rec.arch == "Canon" || rec.arch == "CGRA";
        assert_eq!(ok, reconfigurable, "{}/{}", rec.workload, rec.arch);
    }

    // Warm replay from disk: zero executions.
    let mut store = ResultStore::open(&paths[0]).expect("reopen");
    let warm = run_sweep(&grid, &mut store, &SweepOptions::default()).expect("warm loop sweep");
    assert_eq!(warm.stats.executed, 0);
    assert_eq!(warm.stats.cache_hits, grid.scenarios.len());
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn warm_store_hits_cache_for_every_cell() {
    let grid = test_grid();
    let path = temp_store("warm");
    std::fs::remove_file(&path).ok();

    let mut store = ResultStore::open(&path).expect("open store");
    let cold = run_sweep(
        &grid,
        &mut store,
        &SweepOptions {
            jobs: 4,
            ..Default::default()
        },
    )
    .expect("cold sweep");
    assert_eq!(cold.stats.executed, grid.scenarios.len());
    assert_eq!(cold.stats.cache_hits, 0);
    drop(store);

    // Fresh process-equivalent: reload the store from disk.
    let mut store = ResultStore::open(&path).expect("reopen store");
    assert_eq!(store.len(), grid.scenarios.len());
    let warm = run_sweep(
        &grid,
        &mut store,
        &SweepOptions {
            jobs: 4,
            ..Default::default()
        },
    )
    .expect("warm sweep");
    assert_eq!(
        warm.stats.executed, 0,
        "warm run must perform zero backend executions"
    );
    assert_eq!(warm.stats.cache_hits, grid.scenarios.len());
    assert_eq!(warm.records, cold.records);

    // And the rewritten file is unchanged byte-for-byte.
    let before = std::fs::read(&path).expect("store bytes");
    let mut store = ResultStore::open(&path).expect("reopen again");
    run_sweep(
        &grid,
        &mut store,
        &SweepOptions {
            jobs: 1,
            ..Default::default()
        },
    )
    .expect("second warm sweep");
    let after = std::fs::read(&path).expect("store bytes");
    assert_eq!(before, after);
    std::fs::remove_file(&path).ok();
}

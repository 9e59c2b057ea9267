//! Integration tests for scaled fabrics (the Fig 15 configurations) and
//! failure-injection paths: the simulator must stay exact on larger arrays
//! and fail loudly — not silently — on protocol violations.

use canon::arch::kernels::sddmm::{run_sddmm, ColPartition, SddmmMapping};
use canon::arch::kernels::spmm::{run_spmm, SpmmMapping};
use canon::arch::{CanonConfig, SimError};
use canon::sparse::{gen, reference, Dense};

#[test]
fn spmm_exact_on_2x_fabric() {
    let cfg = CanonConfig::default().scaled(2); // 16×16 PEs
    let mut rng = gen::seeded_rng(1);
    let a = gen::skewed_sparse(48, 128, 0.7, 2.0, &mut rng);
    let b = Dense::random(128, 80, &mut rng);
    let out = run_spmm(&cfg, &SpmmMapping::default(), &a, &b).unwrap();
    assert_eq!(out.result, reference::spmm(&a, &b));
    assert_eq!(out.report.pes, 256);
}

#[test]
fn spmm_exact_on_4x_fabric() {
    let cfg = CanonConfig::default().scaled(4); // 32×32 PEs
    let mut rng = gen::seeded_rng(2);
    let a = gen::random_sparse(32, 256, 0.6, &mut rng);
    let b = Dense::random(256, 128, &mut rng);
    let out = run_spmm(&cfg, &SpmmMapping::default(), &a, &b).unwrap();
    assert_eq!(out.result, reference::spmm(&a, &b));
}

#[test]
fn sddmm_exact_on_2x_fabric_both_partitions() {
    let cfg = CanonConfig::default().scaled(2); // 16 rows, 16 cols
    let mut rng = gen::seeded_rng(3);
    let k = 64; // W = 1 on the 16-column fabric
    let q = Dense::random(32, k, &mut rng);
    let kv = Dense::random(32, k, &mut rng);
    let mask = gen::random_mask(32, 32, 0.5, &mut rng);
    for partition in [ColPartition::Block, ColPartition::Cyclic] {
        let mapping = SddmmMapping {
            partition,
            ..SddmmMapping::default()
        };
        let out = run_sddmm(&cfg, &mapping, &mask, &q, &kv).unwrap();
        assert_eq!(
            out.result,
            reference::sddmm(&mask, &q, &kv),
            "{partition:?}"
        );
    }
}

#[test]
fn cyclic_partition_balances_banded_masks() {
    // The motivation for ColPartition::Cyclic: a diagonal band concentrates
    // on one row block at a time under Block partitioning.
    let cfg = CanonConfig::default();
    let mut rng = gen::seeded_rng(4);
    let seq = 64;
    let q = Dense::random(seq, 64, &mut rng);
    let kv = Dense::random(seq, 64, &mut rng);
    let mask = gen::window_mask(seq, 8);
    let block = run_sddmm(
        &cfg,
        &SddmmMapping {
            partition: ColPartition::Block,
            ..SddmmMapping::default()
        },
        &mask,
        &q,
        &kv,
    )
    .unwrap();
    let cyclic = run_sddmm(
        &cfg,
        &SddmmMapping {
            partition: ColPartition::Cyclic,
            ..SddmmMapping::default()
        },
        &mask,
        &q,
        &kv,
    )
    .unwrap();
    assert_eq!(block.result, cyclic.result);
    assert!(
        cyclic.report.cycles * 2 < block.report.cycles * 3,
        "cyclic ({}) should clearly beat block ({}) on a band",
        cyclic.report.cycles,
        block.report.cycles
    );
}

#[test]
fn mapping_constraint_errors_are_descriptive() {
    let cfg = CanonConfig::default();
    let mut rng = gen::seeded_rng(5);
    // SDDMM output width N not a multiple of rows (SpMM pads a ragged K
    // instead of refusing it; SDDMM does not pad N yet).
    let q = Dense::random(8, 32, &mut rng);
    let kv = Dense::random(20, 32, &mut rng);
    let mask = gen::random_mask(8, 20, 0.5, &mut rng);
    match run_sddmm(&cfg, &SddmmMapping::default(), &mask, &q, &kv) {
        Err(SimError::Mapping { reason }) => assert!(reason.contains("multiple")),
        other => panic!("expected mapping error, got {other:?}"),
    }
    // K-segment exceeding data memory.
    let tiny = CanonConfig {
        dmem_words: 2,
        ..CanonConfig::default()
    };
    let a = gen::random_sparse(8, 64, 0.5, &mut rng);
    let b = Dense::random(64, 8, &mut rng);
    match run_spmm(&tiny, &SpmmMapping::default(), &a, &b) {
        Err(SimError::Mapping { reason }) => assert!(reason.contains("data memory")),
        other => panic!("expected mapping error, got {other:?}"),
    }
}

#[test]
fn watchdog_reports_stuck_rows() {
    // A stream whose FSM can never finish: a row-end for a row id beyond
    // m_total leaves the window bookkeeping waiting forever. The watchdog
    // must fire with a useful message instead of hanging.
    use canon::arch::kernels::spmm::SpmmFsm;
    use canon::arch::orchestrator::MetaToken;
    use canon::arch::Fabric;
    let cfg = CanonConfig {
        rows: 2,
        cols: 2,
        dmem_words: 8,
        spad_entries: 4,
        watchdog_factor: 4,
        watchdog_slack: 100,
        ..CanonConfig::default()
    };
    let mut fabric = Fabric::new(&cfg, false);
    // Stream without its End token: the FSM never reaches DONE.
    fabric.set_meta_stream(0, vec![MetaToken::RowEnd { row: 0 }]);
    fabric.set_program(0, SpmmFsm::new(2, 4));
    match fabric.run() {
        Err(SimError::Deadlock { waiting_on, .. }) => {
            assert!(waiting_on.contains("row 0"), "message: {waiting_on}");
        }
        other => panic!("expected watchdog deadlock, got {other:?}"),
    }
}

#[test]
fn utilization_never_exceeds_one_across_fabrics() {
    for factor in [1usize, 2] {
        let cfg = CanonConfig::default().scaled(factor);
        let mut rng = gen::seeded_rng(6 + factor as u64);
        let k = 64 * factor;
        let a = gen::random_sparse(24, k, 0.2, &mut rng);
        let b = Dense::random(k, 4 * cfg.cols, &mut rng);
        let out = run_spmm(&cfg, &SpmmMapping::default(), &a, &b).unwrap();
        let u = out.report.compute_utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u} at {factor}x");
    }
}

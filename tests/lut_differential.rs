//! Differential tests: the LUT-bitstream orchestrator (Fig 5 datapath,
//! assembled from the symbolic SpMM and register-accumulation microcode)
//! must be cycle-identical to the native Rust FSM on the full fabric.

use canon::arch::kernels::gemm::merge_in_flight;
use canon::arch::kernels::spmm::{run_spmm, OrchKind, SpmmMapping};
use canon::arch::CanonConfig;
use canon::sparse::{gen, reference, Dense};

fn mapping(kind: OrchKind, depth: usize) -> SpmmMapping {
    SpmmMapping {
        spad_depth: depth,
        use_scratchpad: true,
        orchestrator: kind,
    }
}

fn compare(seed: u64, m: usize, k: usize, n: usize, sparsity: f64, skew: f64, depth: usize) {
    let mut rng = gen::seeded_rng(seed);
    let a = gen::skewed_sparse(m, k, sparsity, skew, &mut rng);
    let b = Dense::random(k, n, &mut rng);
    let cfg = CanonConfig::default();
    let native = run_spmm(&cfg, &mapping(OrchKind::Native, depth), &a, &b).unwrap();
    let lut = run_spmm(&cfg, &mapping(OrchKind::Lut, depth), &a, &b).unwrap();
    let reference = reference::spmm(&a, &b);
    assert_eq!(native.result, reference, "native result wrong");
    assert_eq!(lut.result, reference, "LUT result wrong");
    assert_eq!(
        native.report.cycles, lut.report.cycles,
        "LUT path must be cycle-identical (seed {seed})"
    );
    assert_eq!(
        native.report.stats.mac_instrs, lut.report.stats.mac_instrs,
        "instruction streams diverged"
    );
    assert_eq!(
        native.report.stats.orch_messages, lut.report.stats.orch_messages,
        "message traffic diverged"
    );
    assert_eq!(
        native.report.stats.spad_reads, lut.report.stats.spad_reads,
        "scratchpad activity diverged"
    );
}

#[test]
fn lut_matches_native_moderate_sparsity() {
    compare(1, 32, 64, 32, 0.5, 0.0, 16);
}

#[test]
fn lut_matches_native_high_sparsity_skewed() {
    compare(2, 48, 64, 32, 0.85, 3.0, 16);
}

#[test]
fn lut_matches_native_shallow_window_bypass_heavy() {
    // Depth 1 forces frequent bypasses — the trickiest microcode paths.
    compare(3, 40, 32, 32, 0.7, 4.0, 1);
}

#[test]
fn lut_matches_native_dense_input() {
    compare(4, 24, 32, 32, 0.0, 0.0, 8);
}

#[test]
fn lut_matches_native_nearly_empty() {
    compare(5, 16, 32, 32, 0.98, 0.0, 16);
}

#[test]
fn lut_matches_native_across_seeds() {
    for seed in 10..18 {
        compare(seed, 24, 32, 32, 0.6, 2.0, 4);
    }
}

/// Runs one register-accumulation problem through the native FSM and the
/// LUT bitstream on `cfg` and asserts identical reports and results.
/// Returns whether the mapper merged partial sums in flight.
fn compare_regacc_on(
    cfg: &CanonConfig,
    seed: u64,
    m: usize,
    k: usize,
    n: usize,
    sparsity: f64,
) -> bool {
    let mut rng = gen::seeded_rng(seed);
    let a = gen::random_sparse(m, k, sparsity, &mut rng);
    let b = Dense::random(k, n, &mut rng);
    let mk = |kind| SpmmMapping {
        spad_depth: 1,
        use_scratchpad: false,
        orchestrator: kind,
    };
    let native = run_spmm(cfg, &mk(OrchKind::Native), &a, &b).unwrap();
    let lut = run_spmm(cfg, &mk(OrchKind::Lut), &a, &b).unwrap();
    assert_eq!(native.result, reference::spmm(&a, &b));
    assert_eq!(lut.result, native.result);
    assert_eq!(
        native.report.cycles, lut.report.cycles,
        "register-mode LUT path must be cycle-identical (seed {seed})"
    );
    assert_eq!(native.report.stats.noc_hops, lut.report.stats.noc_hops);
    assert_eq!(
        native.report.architectural(),
        lut.report.architectural(),
        "register-mode LUT report diverged (seed {seed})"
    );
    merge_in_flight(a.nnz(), m, cfg.rows)
}

fn compare_regacc(seed: u64, m: usize, k: usize, n: usize, sparsity: f64) {
    compare_regacc_on(&CanonConfig::default(), seed, m, k, n, sparsity);
}

#[test]
fn regacc_lut_matches_native_structured() {
    // The GEMM / N:M register-accumulation microcode through the bitstream.
    compare_regacc(30, 24, 32, 32, 0.0); // dense
    compare_regacc(31, 32, 64, 32, 0.5);
    compare_regacc(32, 40, 32, 40, 0.8);
}

#[test]
fn regacc_merge_lut_matches_native_16x8() {
    // 16 rows: short MAC bursts per row, so the mapper merges in flight and
    // the merge microcode (operand-wait holds, AddFlush chains) runs.
    let cfg = CanonConfig::default().with_geometry(16, 8);
    for (seed, m, k, n, sparsity) in [
        (33, 24, 32, 32, 0.0), // dense, w = 2
        (34, 32, 64, 40, 0.5),
        (35, 20, 40, 32, 0.75), // ragged K: padded to 48
        (36, 16, 64, 64, 0.9),
    ] {
        assert!(
            compare_regacc_on(&cfg, seed, m, k, n, sparsity),
            "seed {seed} must take the merge flow"
        );
    }
}

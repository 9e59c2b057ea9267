//! Traced-run coverage of the fast engine, and its eager-execution
//! diagnostics.
//!
//! The property runs random traced programs on `Engine::Fast` and on
//! `Engine::Reference`. A traced run always takes the per-PE sweep (never
//! eager execution), so the diff covers the event-driven orchestrator
//! phase, and its architectural events must match the reference engine's
//! in content and order. Its untraced twin, where eager execution runs,
//! is `replay_is_architecturally_invisible` in
//! `tests/replay_differential.rs`; both drive the shared differential in
//! `tests/common`. The directed probes pin that dense and mixed grids run
//! eagerly (`batched_pe_cycles` counts the instruction-columns executed
//! that way), diffing each against the reference engine, and one
//! large-tier golden pins the 64×64 geometry's cycle count and result
//! fingerprint on the default engine. (The file and test names date from
//! the column-batch sweep that eager execution replaced.)

mod common;

use canon::arch::kernels::{run_kernel, KernelInput};
use canon::arch::CanonConfig;
use canon::sparse::{gen, Dense};
use canon::sweep::store::fnv1a64;
use common::{fast_against_reference, spmm_fabric, RandomSpmm};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random kernels and bands from 8×8 through 64×64 — including mixed
    /// grids whose leading rows run a different FSM (and so issue a
    /// different MAC shape) than the rest, the skewed-issue pattern the
    /// partial-prefix detector batches: traced Fast and Reference runs must
    /// produce identical reports, stall breakdowns, collector sequences,
    /// and architectural trace streams.
    #[test]
    fn batch_sweep_is_architecturally_invisible(
        seed in 0u64..10_000,
        rows_sel in 0usize..4,
        cols_sel in 0usize..4,
        m in 1usize..20,
        band_sel in 0usize..3,
        sparsity in 0.0f64..0.95,
        depth in 1usize..5,
        regacc_sel in 0u8..6,
    ) {
        RandomSpmm { seed, rows_sel, cols_sel, m, band_sel, sparsity, depth, regacc_sel }
            .fast_matches_reference(true);
    }
}

/// A dense register-accumulation run must actually take the fast path — a
/// detector that never fires would pass every differential. Dense
/// bands keep every row issuing the same MAC shape in lockstep, which is
/// exactly the per-column uniformity the detector looks for.
#[test]
fn dense_regacc_exercises_the_batch_path() {
    let report = fast_against_reference(|e| spmm_fabric(8, 8, 16, 64, 0.0, 4, 7, 8, false, e));
    assert!(
        report.stats.batched_pe_cycles > 0,
        "batch detector never fired on a dense uniform workload"
    );
    // Deep dense bands should batch a majority of the swept work, not just
    // a stray column — guard the fast path's reach, not only its existence.
    assert!(report.stats.batched_pe_cycles * 2 >= report.stats.active_pe_cycles);
}

/// A mixed grid — half the rows issuing `MacS → Reg`, half `MacS → Spad` —
/// never goes fully uniform, so the all-or-nothing detector would batch
/// nothing; the partial-prefix detector must still vectorize the uniform
/// leading rows without changing anything architectural.
#[test]
fn mixed_grid_batches_the_uniform_prefix() {
    let report = fast_against_reference(|e| spmm_fabric(16, 8, 16, 64, 0.0, 4, 7, 8, false, e));
    assert!(
        report.stats.batched_pe_cycles > 0,
        "prefix detector never fired on a half-uniform grid"
    );
    // Eager execution does not depend on uniformity: the mixed grid runs
    // eagerly from its first cycle to its last.
    assert_eq!(
        report.stats.replayed_cycles, report.cycles,
        "mixed grid left eager execution"
    );
}

/// FNV-1a over the little-endian result matrix — byte-identical outputs.
fn result_fp(result: &Dense) -> u64 {
    let mut bytes = Vec::with_capacity(result.as_slice().len() * 4);
    for &v in result.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Large-tier golden: one 64×64 GEMM with a deep, large-tier K band
/// (K = 16384, 256 dmem words per fabric row), on the default fast engine.
/// Pins the cycle count, MAC count, and result fingerprint at the `large`
/// geometry, and that the batch path carries a meaningful share of the
/// swept PE work there.
#[test]
fn gemm_64x64_large_tier_golden() {
    let cfg = CanonConfig::default().with_geometry(64, 64);
    let mut rng = gen::seeded_rng(21);
    let a = Dense::random(8, 16384, &mut rng);
    let b = Dense::random(16384, 256, &mut rng);
    let input = KernelInput::Gemm { a, b };
    let out = run_kernel(&cfg, &input).expect("large GEMM maps");
    assert_eq!(out.report.cycles, 2373, "cycle count drifted");
    assert_eq!(out.report.stats.mac_instrs, 8_388_608);
    assert!(
        out.report.stats.batched_pe_cycles * 2 >= out.report.stats.active_pe_cycles,
        "large-tier GEMM lost the batch fast path"
    );
    assert_eq!(
        result_fp(&out.result),
        0x4f3d_9722_e307_3245,
        "result drifted"
    );
}

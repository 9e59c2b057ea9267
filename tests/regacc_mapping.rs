//! Seeded property over the register-accumulation mapper (dense GEMM and
//! N:M structured SpMM): for random shapes — including a `K` that is not a
//! multiple of the row count, which the mapper zero-pads — and geometries
//! from 4 to 32 rows, both the relay and the merge flow must
//!
//! * equal `canon_sparse::reference` bit for bit, and
//! * be architecturally identical on [`Engine::Fast`] and
//!   [`Engine::Reference`].
//!
//! The draw is fixed by its seed, and the test asserts it lands on both
//! sides of [`merge_in_flight`], so neither flow can go untested.

use canon::arch::kernels::gemm::{merge_in_flight, run_gemm};
use canon::arch::kernels::nm::run_spmm_nm;
use canon::arch::{CanonConfig, Engine};
use canon::sparse::{gen, reference, Dense};
use rand::Rng;

const CASES: usize = 48;

#[test]
fn regacc_mapping_matches_reference_on_both_engines() {
    let mut rng = gen::seeded_rng(16);
    let (mut merged, mut relayed, mut ragged) = (0, 0, 0);
    for case in 0..CASES {
        let m = rng.gen_range(1usize..=24);
        let n = rng.gen_range(1usize..=72);
        let rows = [4usize, 8, 16, 32][rng.gen_range(0usize..4)];
        let cols = [1usize, 2, 4, 8][rng.gen_range(0usize..4)];
        // 0 = dense GEMM, 1 = 2:4, 2 = 2:8.
        let kind = rng.gen_range(0usize..3);
        let group = [1usize, 4, 8][kind];
        let k = rng.gen_range(1usize..=96).div_ceil(group) * group;
        let seed = rng.gen_range(0u64..10_000);

        let mut orng = gen::seeded_rng(seed);
        let b = Dense::random(k, n, &mut orng);
        let (a_nnz, expected) = if kind == 0 {
            let a = Dense::random(m, k, &mut orng);
            (m * k, reference::gemm(&a, &b))
        } else {
            let a = gen::nm_sparse(m, k, 2, group, &mut orng);
            (a.nnz(), reference::spmm(&a, &b))
        };
        let run = |engine| {
            let cfg = CanonConfig {
                engine,
                ..CanonConfig::default().with_geometry(rows, cols)
            };
            let mut orng = gen::seeded_rng(seed);
            let b = Dense::random(k, n, &mut orng);
            if kind == 0 {
                let a = Dense::random(m, k, &mut orng);
                run_gemm(&cfg, &a, &b)
            } else {
                let a = gen::nm_sparse(m, k, 2, group, &mut orng);
                run_spmm_nm(&cfg, &a, &b, 2, group)
            }
            .unwrap_or_else(|e| panic!("case {case}: {m}x{k}x{n} @ {rows}x{cols}: {e}"))
        };
        let fast = run(Engine::Fast);
        let slow = run(Engine::Reference);
        let what = format!("case {case}: kind {kind}, {m}x{k}x{n} @ {rows}x{cols}");
        assert_eq!(fast.result, expected, "{what}: fast result");
        assert_eq!(slow.result, expected, "{what}: reference result");
        assert_eq!(
            fast.report.architectural(),
            slow.report.architectural(),
            "{what}: engines diverged"
        );
        if merge_in_flight(a_nnz, m, rows) {
            merged += 1;
        } else {
            relayed += 1;
        }
        if !k.is_multiple_of(rows) {
            ragged += 1;
        }
    }
    assert!(merged > 0 && relayed > 0, "merge {merged}, relay {relayed}");
    assert!(ragged > 0, "no case padded K");
}

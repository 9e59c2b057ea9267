//! Shared scaffolding for the Fast-vs-Reference differential suites
//! (`tests/batch_column.rs`, `tests/replay_differential.rs`): one SpMM
//! fabric builder, one invisibility assertion, and one random-program
//! differential that both suites' proptests drive.
//!
//! Every comparison goes through [`RunReport::architectural`], which zeroes
//! the engine diagnostics in one place — the only legitimate differences
//! between the engines.

// Each suite uses its own subset of the helpers.
#![allow(dead_code)]

use canon::arch::kernels::gemm::RegAccFsm;
use canon::arch::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm};
use canon::arch::stats::RunReport;
use canon::arch::trace::VecSink;
use canon::arch::{CanonConfig, Engine, Fabric};
use canon::sparse::{gen, Dense};

/// Builds an SpMM-shaped fabric over a random problem sized for the
/// geometry (the same construction `tests/event_wake.rs` uses). Rows
/// `0..regacc_rows` run the register-accumulation FSM, the rest the window
/// FSM — a mixed grid issues *different* MAC shapes per row group, and
/// deep dense bands produce long uniform MAC bursts. With `merge`, the
/// register-accumulation rows below row 0 merge partial sums in flight
/// (operand-wait holds and `AddFlush` chains) instead of relaying them.
/// `band_words` is the K-band depth per fabric row in dmem words — it sets
/// the MAC burst length per output row.
#[allow(clippy::too_many_arguments)]
pub fn spmm_fabric(
    rows: usize,
    cols: usize,
    m: usize,
    band_words: usize,
    sparsity: f64,
    depth: usize,
    seed: u64,
    regacc_rows: usize,
    merge: bool,
    engine: Engine,
) -> Fabric {
    let cfg = CanonConfig {
        rows,
        cols,
        dmem_words: band_words.max(64),
        spad_entries: 16,
        engine,
        ..CanonConfig::default()
    };
    let k = rows * band_words;
    let mut rng = gen::seeded_rng(seed);
    let a = gen::skewed_sparse(m, k, sparsity, 2.0, &mut rng);
    let b = Dense::random(k, cols * 4, &mut rng);
    let streams = build_row_streams(&a, rows).expect("K is a multiple of rows");
    let mut fabric = Fabric::new(&cfg, false);
    preload_b_tile(&mut fabric, &b, k / rows, 0).expect("tile fits");
    for (r, stream) in streams.into_iter().enumerate() {
        fabric.set_meta_stream(r, stream);
        if merge && r > 0 && r < regacc_rows {
            fabric.set_program(r, RegAccFsm::merge(m));
        } else if r < regacc_rows {
            fabric.set_program(r, RegAccFsm::relay(m));
        } else {
            fabric.set_program(r, SpmmFsm::new(depth, m));
        }
    }
    fabric
}

/// Asserts a finished Fast run is architecturally identical to a finished
/// Reference run of the same program: the full report (cycle counts, every
/// architectural counter, the stall breakdown) and the south/east collector
/// sequences with their exit cycles — and that the Reference run took no
/// fast path.
pub fn assert_fast_invisible(fast: (&Fabric, RunReport), reference: (&Fabric, RunReport)) {
    let (ff, fr) = fast;
    let (rf, rr) = reference;
    assert_eq!(
        (rr.stats.batched_pe_cycles, rr.stats.replayed_cycles),
        (0, 0),
        "the reference engine took a fast path"
    );
    assert_eq!(
        fr.architectural(),
        rr.architectural(),
        "fast/reference reports diverged"
    );
    assert_eq!(
        ff.south_collected(),
        rf.south_collected(),
        "south collector sequence diverged"
    );
    assert_eq!(
        ff.east_collected(),
        rf.east_collected(),
        "east collector sequence diverged"
    );
}

/// Runs one program on both engines, asserts the Fast run is invisible
/// ([`assert_fast_invisible`]), and returns the Fast report.
pub fn fast_against_reference(build: impl Fn(Engine) -> Fabric) -> RunReport {
    let (mut fast, mut reference) = (build(Engine::Fast), build(Engine::Reference));
    let fr = fast.run().expect("fast run drains");
    let rr = reference.run().expect("reference run drains");
    assert_fast_invisible((&fast, fr.clone()), (&reference, rr));
    fr
}

/// One random SpMM program as the differential proptests draw it: kernels,
/// bands, sparsities, and FSM mixes from 8×8 through 64×64. Sparse bands
/// break uniformity constantly, dense bands produce long stretches, and
/// mixed grids never go fully uniform.
pub struct RandomSpmm {
    pub seed: u64,
    pub rows_sel: usize,
    pub cols_sel: usize,
    pub m: usize,
    pub band_sel: usize,
    pub sparsity: f64,
    pub depth: usize,
    /// `0..4`: relay register-accumulation rows; `4..6`: merging ones.
    pub regacc_sel: u8,
}

impl RandomSpmm {
    /// Runs the program on the Fast and the Reference engine and asserts
    /// they are architecturally identical. A `traced` run attaches a trace
    /// sink to both, which keeps the fast run on the per-PE sweep, and
    /// additionally requires byte-identical architectural event streams;
    /// an untraced fast run executes eagerly.
    pub fn fast_matches_reference(&self, traced: bool) {
        let dims = [8usize, 16, 32, 64];
        let (rows, cols) = (dims[self.rows_sel], dims[self.cols_sel]);
        // All-window, all-regacc, and two skewed splits, relaying; then
        // all-regacc and a half split, merging in flight.
        let regacc_rows = [0, rows, rows / 2, rows / 4, rows, rows / 2][self.regacc_sel as usize];
        let merge = self.regacc_sel >= 4;
        // Deep bands are what make columns go uniform, but cap the total MAC
        // volume so runs stay fast at the big geometries.
        let mut band = [4usize, 16, 64][self.band_sel];
        if rows * cols * self.m * band > 2_000_000 {
            band = 4;
        }
        let build = |engine| {
            spmm_fabric(
                rows,
                cols,
                self.m,
                band,
                self.sparsity,
                self.depth,
                self.seed,
                regacc_rows,
                merge,
                engine,
            )
        };
        let (mut fast, mut reference) = (build(Engine::Fast), build(Engine::Reference));
        let (sink_f, sink_r) = (VecSink::default(), VecSink::default());
        if traced {
            fast.set_trace_sink(Box::new(sink_f.clone()));
            reference.set_trace_sink(Box::new(sink_r.clone()));
        }
        let fr = fast.run().expect("fast run drains");
        let rr = reference.run().expect("reference run drains");
        if traced {
            fast.take_trace_sink();
            reference.take_trace_sink();
            assert_eq!(fr.stats.replayed_cycles, 0, "replay engaged under a trace");
        }
        assert_fast_invisible((&fast, fr), (&reference, rr));
        // Byte-identical event streams: a traced run takes the same code
        // path under both engines, so the fast engine must emit every event
        // the reference engine does, in the same order, RunEnd included.
        assert_eq!(
            sink_f.take_events(),
            sink_r.take_events(),
            "trace streams diverged"
        );
    }
}

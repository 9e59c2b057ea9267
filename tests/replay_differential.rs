//! Untraced fast-engine differential: eager row-wide execution — like
//! every fast path of [`Engine::Fast`] — must be **perf-only**.
//!
//! [`Engine::Reference`] is the simplest correct engine (the per-PE
//! sweep). The property runs the same random
//! untraced program — so eager execution runs — on it and on the default
//! [`Engine::Fast`] and diffs everything an engine could influence: the
//! full [`RunReport`](canon::arch::stats::RunReport) (cycle counts, every
//! architectural counter, the stall breakdown) and the south/east
//! collector sequences with their exit cycles. The only legitimate
//! differences are the engine diagnostics, which `RunReport::architectural`
//! zeroes in one place. Its traced twin is
//! `batch_sweep_is_architecturally_invisible` in `tests/batch_column.rs`;
//! both drive the shared differential in `tests/common`.
//!
//! Directed tests pin the rest of the contract: a deep dense kernel runs
//! eagerly (`replayed_cycles` counts the cycles run that way), an
//! accumulator re-target and short bursts stay inside one eager run and
//! match the reference engine, harness sentinels (`PanicAt`, `max_cycles`)
//! fire at the exact cycle although eager execution runs ahead, and an
//! attached trace sink keeps a run on the per-PE sweep. (The file and test
//! names date from the steady-state replay engine that eager execution
//! replaced.)

mod common;

use canon::arch::fault::FaultAction;
use canon::arch::isa::{Addr, Direction, Instruction, Opcode, Vector};
use canon::arch::kernels::gemm::RegAccFsm;
use canon::arch::kernels::spmm::{build_row_streams, preload_b_tile};
use canon::arch::orchestrator::{OrchAction, OrchIo, OrchProgram, RowProgram};
use canon::arch::trace::VecSink;
use canon::arch::{CanonConfig, Engine, Fabric, SimError};
use canon::sparse::{gen, Dense};
use common::{assert_fast_invisible, spmm_fabric, RandomSpmm};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random kernels, bands, sparsities, and FSM mixes from 8×8 through
    /// 64×64, untraced so replay may engage: the fast engine must match the
    /// reference engine exactly. Sparse bands break uniformity constantly,
    /// dense bands produce long stretches, and mixed grids never go fully
    /// uniform — all three regimes must be invisible.
    #[test]
    fn replay_is_architecturally_invisible(
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
            .fast_matches_reference(false);
    }
}

/// A deep dense register-accumulation kernel must actually replay — and
/// replay most of its cycles: long uniform MAC bursts dominate the run, so
/// a majority of cycles must be fast-forwarded, not merely a stray stretch.
#[test]
fn dense_regacc_replays_a_majority_of_cycles() {
    let mut fabric = spmm_fabric(8, 8, 16, 256, 0.0, 4, 7, 8, false, Engine::Fast);
    let report = fabric.run().expect("dense run drains");
    assert!(
        report.stats.replay_stretches > 0,
        "replay never engaged on a dense uniform workload"
    );
    assert!(
        report.stats.replayed_cycles * 2 >= report.cycles,
        "deep dense bands replayed under half the run: {} of {}",
        report.stats.replayed_cycles,
        report.cycles,
    );
}

/// A scripted orchestrator that plays back a fixed instruction sequence
/// (one instruction per cycle, then done).
struct Script {
    instrs: std::collections::VecDeque<Instruction>,
}

impl OrchProgram for Script {
    fn step(&mut self, _io: &OrchIo) -> OrchAction {
        match self.instrs.pop_front() {
            Some(i) => OrchAction::issue(i, 0),
            None => OrchAction::nop(0),
        }
    }
    fn done(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Every row issues `n0` MACs into spad slot 0, then `n1` into slot 1 —
/// same shape throughout, so the uniformity detector sees one long clean
/// run, but the accumulator re-target breaks the captured template
/// mid-stretch. The engine must flush at exactly that cycle, cycle-step
/// through the break, and re-enter on the second block.
fn retarget_fabric(n0: usize, n1: usize, engine: Engine) -> Fabric {
    let cfg = CanonConfig {
        rows: 4,
        cols: 8,
        dmem_words: 64,
        spad_entries: 4,
        engine,
        ..CanonConfig::default()
    };
    let mut fabric = Fabric::new(&cfg, false);
    for r in 0..4 {
        for c in 0..8 {
            let mut pe = fabric.pe_mut(r, c);
            for w in 0..64 {
                pe.dmem
                    .preload(w, &[Vector::splat((r + c + w) as i32 % 7 + 1)]);
            }
        }
    }
    for r in 0..4 {
        let mut instrs: Vec<Instruction> = Vec::new();
        for i in 0..n0 {
            instrs.push(
                Instruction::new(
                    Opcode::MacS,
                    Addr::Imm,
                    Addr::DataMem((i % 64) as u16),
                    Addr::Spad(0),
                )
                .with_imm(Vector::splat((i % 5) as i32 + 1)),
            );
        }
        for i in 0..n1 {
            instrs.push(
                Instruction::new(
                    Opcode::MacS,
                    Addr::Imm,
                    Addr::DataMem((i % 64) as u16),
                    Addr::Spad(1),
                )
                .with_imm(Vector::splat((i % 3) as i32 + 1)),
            );
        }
        if r == 3 {
            // Bottom row flushes both accumulators into the south sink so
            // the differential observes the final chains architecturally.
            for slot in 0..2u16 {
                instrs.push(
                    Instruction::new(
                        Opcode::MovFlush,
                        Addr::Spad(slot),
                        Addr::Null,
                        Addr::Port(Direction::South),
                    )
                    .with_tag(slot as u32),
                );
            }
        }
        fabric.set_program(
            r,
            RowProgram::custom(Script {
                instrs: instrs.into(),
            }),
        );
    }
    fabric
}

/// Mid-stretch divergence: an accumulator re-target (same MAC shape, new
/// spad slot) must fall back to cycle-stepping without a trace — results
/// and counters identical to the reference engine, with the run splitting
/// into two stretches.
#[test]
fn retarget_mid_stretch_falls_back_and_reenters() {
    let mut replayed = retarget_fabric(80, 80, Engine::Fast);
    let mut stepped = retarget_fabric(80, 80, Engine::Reference);
    let rr = replayed.run().expect("replayed run drains");
    let sr = stepped.run().expect("stepped run drains");
    assert_eq!(
        rr.stats.replay_stretches, 1,
        "the re-target must stay inside one eager run"
    );
    assert_fast_invisible((&replayed, rr), (&stepped, sr));
    // The flushed accumulator chains exit architecturally — both engines
    // agreed on the values and the exit cycles above.
    assert!(!replayed.south_collected().is_empty());
}

/// A stretch shorter than the entry threshold (3·cols cycles) must never
/// capture — and still match the reference engine exactly.
#[test]
fn short_bursts_never_enter_but_stay_invisible() {
    let mut replayed = retarget_fabric(10, 10, Engine::Fast);
    let mut stepped = retarget_fabric(10, 10, Engine::Reference);
    let rr = replayed.run().expect("replayed run drains");
    let sr = stepped.run().expect("stepped run drains");
    assert_eq!(
        rr.stats.replay_stretches, 1,
        "short bursts must run eagerly too"
    );
    assert_fast_invisible((&replayed, rr), (&stepped, sr));
}

/// `FaultAction::PanicAt` must fire at the exact injected cycle even when
/// that cycle falls inside a captured stretch — the run loop checks the
/// sentinel every cycle, deferred or not.
#[test]
fn panic_at_fires_mid_stretch_at_exact_cycle() {
    // Cycle 400 sits deep inside the first captured stretch of the dense
    // 8×8 deep-band kernel (entry needs only 3·cols = 24 clean cycles).
    let at = 400u64;
    for engine in [Engine::Fast, Engine::Reference] {
        let cfg = CanonConfig {
            rows: 8,
            cols: 8,
            dmem_words: 256,
            spad_entries: 16,
            engine,
            fault: Some(FaultAction::PanicAt { cycle: at }),
            ..CanonConfig::default()
        };
        let mut faulted = build_with(cfg);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| faulted.run()))
            .expect_err("injected panic must fire");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(
            msg.contains("injected fault") && msg.contains("cycle 400"),
            "unexpected panic payload under {engine:?}: {msg}"
        );
    }
}

/// Rebuilds the dense 8×8 deep-band fabric under an arbitrary config
/// (fault/budget sentinel tests need config fields `spmm_fabric` does not
/// expose).
fn build_with(cfg: CanonConfig) -> Fabric {
    let k = cfg.rows * cfg.dmem_words;
    let mut rng = gen::seeded_rng(7);
    let a = gen::skewed_sparse(16, k, 0.0, 2.0, &mut rng);
    let b = Dense::random(k, cfg.cols * 4, &mut rng);
    let streams = build_row_streams(&a, cfg.rows).expect("K is a multiple of rows");
    let mut fabric = Fabric::new(&cfg, false);
    preload_b_tile(&mut fabric, &b, k / cfg.rows, 0).expect("tile fits");
    for (r, stream) in streams.into_iter().enumerate() {
        fabric.set_meta_stream(r, stream);
        fabric.set_program(r, RegAccFsm::relay(16));
    }
    fabric
}

/// The `max_cycles` ceiling must abort at the exact cycle with identical
/// partial stats under either engine — a deferred stretch cannot overshoot
/// the budget.
#[test]
fn cycle_ceiling_aborts_mid_stretch_at_exact_cycle() {
    let mut reports = Vec::new();
    for engine in [Engine::Fast, Engine::Reference] {
        let cfg = CanonConfig {
            rows: 8,
            cols: 8,
            dmem_words: 256,
            spad_entries: 16,
            engine,
            max_cycles: Some(300),
            ..CanonConfig::default()
        };
        let mut fabric = build_with(cfg);
        match fabric.run() {
            Err(SimError::Timeout { cycle, budget }) => {
                assert_eq!(cycle, 300, "ceiling drifted under {engine:?}");
                assert!(budget.contains("cycle ceiling"));
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
        reports.push(fabric.report().architectural());
    }
    assert_eq!(
        reports[0], reports[1],
        "partial stats diverged at the abort"
    );
}

/// An attached trace sink disengages replay: traces need the per-cycle
/// event order, so a traced fast run must never defer — and its stream
/// must equal the reference engine's event for event, RunEnd footer
/// included (that equality is what lets traced debugging represent
/// replayed production runs).
#[test]
fn trace_sink_disengages_replay() {
    let mut traced_fast = spmm_fabric(8, 8, 16, 64, 0.0, 4, 7, 8, false, Engine::Fast);
    let mut traced_ref = spmm_fabric(8, 8, 16, 64, 0.0, 4, 7, 8, false, Engine::Reference);
    let (sink_f, sink_r) = (VecSink::default(), VecSink::default());
    traced_fast.set_trace_sink(Box::new(sink_f.clone()));
    traced_ref.set_trace_sink(Box::new(sink_r.clone()));
    let rf = traced_fast.run().expect("traced run drains");
    let rr = traced_ref.run().expect("traced run drains");
    traced_fast.take_trace_sink();
    traced_ref.take_trace_sink();
    assert_eq!(
        rf.stats.replayed_cycles, 0,
        "replay engaged under an attached trace sink"
    );
    assert_eq!(
        rf, rr,
        "a traced run takes one code path under both engines"
    );
    assert_eq!(sink_f.take_events(), sink_r.take_events());
}

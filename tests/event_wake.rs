//! Orchestrator-phase differential: the fast and reference engines must
//! make every orchestrator decision on the same cycle.
//!
//! Both engines step every live row every cycle. These properties run the
//! same random program on [`Engine::Reference`] and on the default
//! [`Engine::Fast`] and diff everything the orchestrators' decisions can
//! influence — cycle counts, every architectural counter, the full
//! south/east collector sequences with their exit cycles, and the whole
//! trace streams. A decision taken on a different cycle shows up as a
//! deadlock, a cycle-count drift, or a counter or collector diff.
//!
//! Shapes are chosen to exercise every observable input: shallow
//! scratchpad windows force credit stalls, skewed streams drain rows at
//! different times (done rows revived by messages), bypass chains exercise
//! `msg_slot_free`, and SDDMM's north-edge feed exercises `north_tokens`.

use canon::arch::isa::{Vector, LANES};
use canon::arch::kernels::gemm::RegAccFsm;
use canon::arch::kernels::sddmm::{ColPartition, SddmmFsm, SddmmMapping};
use canon::arch::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm};
use canon::arch::noc::TaggedVector;
use canon::arch::orchestrator::assembler;
use canon::arch::orchestrator::MetaToken;
use canon::arch::stats::RunReport;
use canon::arch::trace::{replay_stats, VecSink};
use canon::arch::{CanonConfig, Engine, Fabric};
use canon::sparse::{gen, Dense};
use proptest::prelude::*;

/// Which orchestrator program drives the west-streamed fabric rows — the
/// differential must cover every in-tree program family's stall paths.
#[derive(Debug, Clone, Copy)]
enum ProgramKind {
    /// Native SpMM window FSM (scratchpad psums, bypass chains).
    Spmm,
    /// Register-accumulation FSM (GEMM / N:M): flush every row end, every
    /// upstream psum bypasses — its stalls hold a deliverable message.
    RegAcc,
    /// Register-accumulation FSM merging in flight: every row below the top
    /// holds its row end (operand wait) until the upstream psum's message
    /// arrives, then adds it with `AddFlush`.
    RegAccMerge,
    /// The merge microcode assembled to a LUT bitstream.
    LutMerge,
    /// The SpMM microcode assembled to a LUT bitstream and interpreted by
    /// the Fig 5 datapath (cycle-identical to the native FSM).
    Lut,
}

/// Builds an SpMM-shaped fabric over a random problem sized for the
/// geometry, rows driven by `kind`. `depth` in 1..=4 keeps the psum window
/// shallow so credit back-pressure actually occurs.
fn spmm_fabric(
    rows: usize,
    cols: usize,
    m: usize,
    sparsity: f64,
    depth: usize,
    seed: u64,
    kind: ProgramKind,
    engine: Engine,
) -> Fabric {
    let cfg = CanonConfig {
        rows,
        cols,
        dmem_words: 64,
        spad_entries: 16,
        engine,
        ..CanonConfig::default()
    };
    let k = rows * 4;
    let mut rng = gen::seeded_rng(seed);
    let a = gen::skewed_sparse(m, k, sparsity, 2.0, &mut rng);
    let b = Dense::random(k, cols * 4, &mut rng);
    let streams = build_row_streams(&a, rows).expect("K is a multiple of rows");
    let mut fabric = Fabric::new(&cfg, false);
    preload_b_tile(&mut fabric, &b, k / rows, 0).expect("tile fits");
    for (r, stream) in streams.into_iter().enumerate() {
        fabric.set_meta_stream(r, stream);
        match kind {
            ProgramKind::Spmm => fabric.set_program(r, SpmmFsm::new(depth, m)),
            ProgramKind::RegAcc => fabric.set_program(r, RegAccFsm::relay(m)),
            ProgramKind::RegAccMerge if r > 0 => fabric.set_program(r, RegAccFsm::merge(m)),
            ProgramKind::LutMerge if r > 0 => fabric.set_program(
                r,
                assembler::regacc_merge_fsm_spec(m)
                    .into_program()
                    .expect("merge spec assembles"),
            ),
            ProgramKind::RegAccMerge | ProgramKind::LutMerge => {
                fabric.set_program(r, RegAccFsm::relay(m))
            }
            ProgramKind::Lut => fabric.set_program(
                r,
                assembler::spmm_fsm_spec(depth, m)
                    .into_program()
                    .expect("spmm spec assembles"),
            ),
        }
    }
    fabric
}

/// Asserts two engines produced identical architectural outcomes: the
/// reports agree once [`RunReport::architectural`] zeroes the engine
/// diagnostics (which measure work performed — performing less of it is
/// the fast engine's purpose), and the collector sequences pin the *when*
/// of every decision: an instruction issued one cycle late shifts its exit
/// cycle.
fn assert_equivalent(fast: (&Fabric, &RunReport), reference: (&Fabric, &RunReport)) {
    let (ff, fr) = fast;
    let (rf, rr) = reference;
    assert_eq!(fr.architectural(), rr.architectural(), "reports diverged");
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

/// Builds an SDDMM fabric (the construction `run_sddmm` performs, at one
/// small fixed geometry): stationary `B` tiles, north-edge `A` feeders, and
/// `SddmmFsm` rows whose `LoadA` waits stall on `north_tokens`.
fn sddmm_fabric(m: usize, mask_density: f64, seed: u64, engine: Engine) -> Fabric {
    let (rows, cols) = (2usize, 2usize);
    let (n, k) = (rows * 2, cols * LANES); // H = 2, W = 1
    let (h, w) = (n / rows, k / (cols * LANES));
    let cfg = CanonConfig {
        rows,
        cols,
        dmem_words: 16,
        spad_entries: 8,
        engine,
        ..CanonConfig::default()
    };
    let mut rng = gen::seeded_rng(seed);
    let a = Dense::random(m, k, &mut rng);
    let b = Dense::random(n, k, &mut rng);
    let mask = gen::random_mask(m, n, mask_density, &mut rng);
    let mut fabric = Fabric::new(&cfg, true);
    for yy in 0..rows {
        for xx in 0..cols {
            let mut words = Vec::new();
            for hh in 0..h {
                for ww in 0..w {
                    let mut lanes = [0; LANES];
                    for (v, lane) in lanes.iter_mut().enumerate() {
                        *lane = b[(yy * h + hh, (ww * cols + xx) * LANES + v)];
                    }
                    words.push(Vector(lanes));
                }
            }
            fabric.pe_mut(yy, xx).dmem.preload(0, &words);
        }
    }
    for xx in 0..cols {
        let mut tokens = Vec::new();
        for mm in 0..m {
            for ww in 0..w {
                let mut lanes = [0; LANES];
                for (v, lane) in lanes.iter_mut().enumerate() {
                    *lane = a[(mm, (ww * cols + xx) * LANES + v)];
                }
                tokens.push(TaggedVector {
                    value: Vector(lanes),
                    tag: (mm * w + ww) as u32,
                });
            }
        }
        fabric.set_feeder(xx, tokens);
    }
    for yy in 0..rows {
        let mut stream = Vec::new();
        for mm in 0..m {
            for col in mask.row_iter(mm) {
                if col >= yy * h && col < (yy + 1) * h {
                    stream.push(MetaToken::MaskPos {
                        row: mm as u32,
                        col: (col - yy * h) as u32,
                    });
                }
            }
            stream.push(MetaToken::MRowEnd { row: mm as u32 });
        }
        stream.push(MetaToken::End);
        fabric.set_meta_stream(yy, stream);
        fabric.set_program(yy, SddmmFsm::new(w, m, n, yy * h, 1, 8, yy + 1 < rows));
    }
    fabric
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 30, ..ProptestConfig::default() })]

    /// SpMM under random geometry/sparsity/skew with a shallow window:
    /// exercises credit stalls, delayed credit returns, drained rows, and
    /// bypass message slots.
    #[test]
    fn event_engine_matches_polling_on_spmm(
        seed in 0u64..10_000,
        rows in 2usize..8,
        cols in 2usize..8,
        m in 1usize..24,
        sparsity in 0.0f64..0.95,
        depth in 1usize..5,
        kind_sel in 0u8..5,
    ) {
        let kind = match kind_sel {
            0 => ProgramKind::Spmm,
            1 => ProgramKind::RegAcc,
            2 => ProgramKind::RegAccMerge,
            3 => ProgramKind::LutMerge,
            _ => ProgramKind::Lut,
        };
        let build = |engine| spmm_fabric(rows, cols, m, sparsity, depth, seed, kind, engine);
        let (mut fast, mut reference) = (build(Engine::Fast), build(Engine::Reference));
        let (sink_e, sink_p) = (VecSink::default(), VecSink::default());
        fast.set_trace_sink(Box::new(sink_e.clone()));
        reference.set_trace_sink(Box::new(sink_p.clone()));
        let er = fast.run().expect("fast engine drains");
        let pr = reference.run().expect("reference engine drains");
        fast.take_trace_sink();
        reference.take_trace_sink();
        assert_equivalent((&fast, &er), (&reference, &pr));
        // A traced run takes the same code path under both engines, so the
        // whole event streams, RunEnd footer included, must be identical.
        let events_e = sink_e.take_events();
        let events_p = sink_p.take_events();
        prop_assert_eq!(&events_e, &events_p, "trace streams diverged");
        // And each stream must replay into its own engine's exact report.
        prop_assert_eq!(replay_stats(&events_e), er.clone(), "fast-engine trace replay");
        prop_assert_eq!(replay_stats(&events_p), pr.clone(), "reference-engine trace replay");
    }

    /// SDDMM with north-edge feeders: pins the feeder tokens and the
    /// `north_tokens` observable cycle-exactly (a token seen one cycle late
    /// shifts east-collector exit cycles).
    #[test]
    fn event_engine_matches_polling_on_sddmm_feeders(
        seed in 0u64..10_000,
        m in 1usize..12,
        density in 0.0f64..1.0,
    ) {
        let mut fast = sddmm_fabric(m, density, seed, Engine::Fast);
        let mut reference = sddmm_fabric(m, density, seed, Engine::Reference);
        let (sink_e, sink_p) = (VecSink::default(), VecSink::default());
        fast.set_trace_sink(Box::new(sink_e.clone()));
        reference.set_trace_sink(Box::new(sink_p.clone()));
        let er = fast.run().expect("fast engine drains");
        let pr = reference.run().expect("reference engine drains");
        fast.take_trace_sink();
        reference.take_trace_sink();
        assert_equivalent((&fast, &er), (&reference, &pr));
        let events_e = sink_e.take_events();
        let events_p = sink_p.take_events();
        prop_assert_eq!(&events_e, &events_p, "trace streams diverged");
        prop_assert_eq!(replay_stats(&events_e), er.clone(), "fast-engine trace replay");
    }
}

/// SDDMM end to end through the kernel mapper on the default engine (the
/// engine differential for the feeder paths is
/// `event_engine_matches_polling_on_sddmm_feeders` above): the result must
/// match the reference, and the `LoadA` stall path must actually stall.
#[test]
fn sddmm_kernel_parks_on_loada_stalls_and_stays_exact() {
    let mut rng = gen::seeded_rng(99);
    let a = Dense::random(16, 64, &mut rng);
    let b = Dense::random(16, 64, &mut rng);
    let mask = gen::random_mask(16, 16, 0.6, &mut rng);
    let mapping = SddmmMapping {
        spad_depth: 16,
        partition: ColPartition::Block,
    };
    let out =
        canon::arch::kernels::sddmm::run_sddmm(&CanonConfig::default(), &mapping, &mask, &a, &b)
            .expect("sddmm maps");
    assert_eq!(out.result, canon::sparse::reference::sddmm(&mask, &a, &b));
    // SDDMM stalls on A-token availability.
    assert!(out.report.stats.stall_cycles > 0, "expected LoadA stalls");
}

/// A deliberately starved fabric: one row stalls forever on a credit that
/// never comes (its southern neighbour never pops). The fast engine must
/// hit the watchdog at the same cycle budget as the reference engine.
#[test]
fn starved_row_still_deadlocks_identically() {
    let mk = |engine| {
        let cfg = CanonConfig {
            rows: 2,
            cols: 2,
            dmem_words: 8,
            spad_entries: 4,
            watchdog_factor: 2,
            watchdog_slack: 64,
            engine,
            ..CanonConfig::default()
        };
        let mut f = Fabric::new(&cfg, false);
        // Row 0: a window-1 FSM over two output rows with an immediate
        // row-end flood; row 1 has no program, so credits for row 0 are
        // returned only when row 1's PEs pop — which never happens.
        use canon::arch::orchestrator::MetaToken;
        f.set_meta_stream(
            0,
            vec![
                MetaToken::RowEnd { row: 0 },
                MetaToken::RowEnd { row: 1 },
                MetaToken::End,
            ],
        );
        f.set_program(0, SpmmFsm::new(1, 2));
        f
    };
    let ee = mk(Engine::Fast)
        .run()
        .expect_err("starved fast fabric deadlocks");
    let pe = mk(Engine::Reference)
        .run()
        .expect_err("starved reference fabric deadlocks");
    // Same failure at the same watchdog cycle.
    assert_eq!(format!("{ee}"), format!("{pe}"));
}

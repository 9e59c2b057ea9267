//! Error and abort parity: the fast engine runs each issue across its whole
//! row at issue time, ahead of the cycles it stands for, so protocol errors
//! are found early and held until their cycle. These tests pin that a run
//! which fails, or is cut short, looks the same on both engines:
//!
//! * scripted programs that overflow an east link, underflow a north link,
//!   and break the §3.1 router rule must fail with the identical
//!   [`SimError`] (same kind, cycle, PE, and message) on both engines;
//! * an SDDMM run aborted by `max_cycles` partway must leave identical
//!   architectural counters behind;
//! * a row whose west pop is fed by the row's *next* issue (the one case
//!   eager execution cannot settle at issue) must still match the
//!   reference engine, with the fast run leaving eager execution there;
//! * random scripted programs over a small geometry — routed
//!   pass-throughs, east chains, flushes, feeder pops, out-of-range
//!   addresses, shallow FIFOs, cycle ceilings — must end the same way on
//!   both engines: the same report and collectors, or the same error.

use canon::arch::isa::{Addr, Direction, Instruction, Opcode, Vector, LANES};
use canon::arch::kernels::sddmm::SddmmFsm;
use canon::arch::noc::TaggedVector;
use canon::arch::orchestrator::{MetaToken, OrchAction, OrchIo, OrchProgram, RowProgram};
use canon::arch::{CanonConfig, Engine, Fabric, SimError};
use canon::sparse::{gen, Dense};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Plays back a fixed instruction sequence, one per cycle, then is done.
struct Script {
    instrs: VecDeque<Instruction>,
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

fn script(instrs: Vec<Instruction>) -> RowProgram {
    RowProgram::custom(Script {
        instrs: instrs.into(),
    })
}

/// A `rows`×`cols` fabric without a north feeder running `programs[r]` on
/// row `r` (rows without a program stay idle).
fn scripted(rows: usize, cols: usize, programs: Vec<Vec<Instruction>>, engine: Engine) -> Fabric {
    let cfg = CanonConfig {
        rows,
        cols,
        dmem_words: 16,
        spad_entries: 4,
        engine,
        ..CanonConfig::default()
    };
    let mut fabric = Fabric::new(&cfg, false);
    for (r, instrs) in programs.into_iter().enumerate() {
        fabric.set_program(r, script(instrs));
    }
    fabric
}

/// Runs the scripted program on both engines and returns the common error.
fn same_error(rows: usize, cols: usize, programs: Vec<Vec<Instruction>>) -> SimError {
    let fast = scripted(rows, cols, programs.clone(), Engine::Fast).run();
    let reference = scripted(rows, cols, programs, Engine::Reference).run();
    let (Err(f), Err(r)) = (fast, reference) else {
        panic!("both engines must fail");
    };
    assert_eq!(f, r, "fast and reference engines failed differently");
    f
}

fn imm_to(res: Addr, v: i32) -> Instruction {
    Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, res).with_imm(Vector::splat(v))
}

#[test]
fn east_push_overflow_is_identical() {
    // Row 0 pushes east every cycle and nobody pops: column 0's east link
    // (depth 8) overflows on its ninth push, COMMITted at cycle 8 + 2.
    let flood = (0..12)
        .map(|i| imm_to(Addr::Port(Direction::East), i))
        .collect();
    let err = same_error(2, 3, vec![flood]);
    let SimError::Deadlock { cycle, waiting_on } = &err else {
        panic!("expected an overflow, got {err:?}");
    };
    assert_eq!(*cycle, 10);
    assert!(
        waiting_on.contains("East push at PE (0, 0)"),
        "{waiting_on}"
    );
}

#[test]
fn north_pop_before_the_push_underflows_identically() {
    // Row 0 pushes south at cycle 0 (landing on row 1's column c at
    // 3c + 2); row 1 pops north one cycle later, at 3c + 1 — before the
    // push. The fast engine has already queued that push (stamped 2), and
    // the stamp must keep it out of reach.
    let push = vec![imm_to(Addr::Port(Direction::South), 7)];
    let pop = vec![
        Instruction::NOP,
        Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Null,
            Addr::Reg(0),
        ),
    ];
    let err = same_error(2, 3, vec![push, pop]);
    let SimError::Deadlock { cycle, waiting_on } = &err else {
        panic!("expected an underflow, got {err:?}");
    };
    assert_eq!(*cycle, 1);
    assert!(
        waiting_on.contains("North pop at PE (1, 0)"),
        "{waiting_on}"
    );
}

#[test]
fn router_conflict_at_column_zero_is_identical() {
    // A valid instruction, then one that reads and writes North.
    let conflict = Instruction::new(
        Opcode::Mov,
        Addr::Port(Direction::North),
        Addr::Null,
        Addr::Port(Direction::North),
    );
    let err = same_error(2, 3, vec![vec![imm_to(Addr::Reg(1), 3), conflict]]);
    assert_eq!(
        err,
        SimError::RouterConflict {
            cycle: 1,
            pe: (0, 0),
            direction: "North".into(),
        }
    );
}

#[test]
fn same_cycle_commit_error_precedes_load_error() {
    // At PE (0, 0) in cycle 2 the first instruction COMMITs a write to an
    // immediate and the third LOADs an out-of-range data-memory word. The
    // sweep runs a PE's COMMIT before its LOAD, so the write error wins —
    // although the fast engine finds the read error in the same cycle it
    // raises them, and the write error two cycles before.
    let write_imm = Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Imm);
    let read_oob = Instruction::new(Opcode::Mov, Addr::DataMem(99), Addr::Null, Addr::Reg(0));
    let err = same_error(2, 3, vec![vec![write_imm, Instruction::NOP, read_oob]]);
    assert_eq!(
        err,
        SimError::AddressOutOfRange {
            context: "write to immediate".into()
        }
    );
}

/// An SDDMM fabric (what `run_sddmm` builds) at 4×2: north-edge feeders
/// stream `A` while the rows chain partial sums east, so feeder
/// reservations, south pass-throughs, and east sinks are all in flight.
fn sddmm_fabric(max_cycles: Option<u64>, engine: Engine) -> Fabric {
    let (rows, cols, m) = (4usize, 2usize, 6usize);
    let (n, k) = (rows * 2, cols * LANES);
    let (h, w) = (n / rows, k / (cols * LANES));
    let cfg = CanonConfig {
        rows,
        cols,
        dmem_words: 16,
        spad_entries: 8,
        engine,
        max_cycles,
        ..CanonConfig::default()
    };
    let mut rng = gen::seeded_rng(11);
    let a = Dense::random(m, k, &mut rng);
    let b = Dense::random(n, k, &mut rng);
    let mask = gen::random_mask(m, n, 0.6, &mut rng);
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

#[test]
fn sddmm_max_cycles_abort_reports_identically() {
    let full = sddmm_fabric(None, Engine::Reference)
        .run()
        .expect("SDDMM drains");
    assert!(full.cycles > 20, "the run is too short to cut");
    for cut in [full.cycles / 3, full.cycles / 2, full.cycles - 2] {
        let mut reports = Vec::new();
        for engine in [Engine::Fast, Engine::Reference] {
            let mut fabric = sddmm_fabric(Some(cut), engine);
            match fabric.run() {
                Err(SimError::Timeout { cycle, .. }) => assert_eq!(cycle, cut),
                other => panic!("expected a timeout at {cut} under {engine:?}, got {other:?}"),
            }
            reports.push(fabric.report().architectural());
        }
        assert_eq!(reports[0], reports[1], "partial counters diverged at {cut}");
    }
}

#[test]
fn west_pop_fed_by_the_next_issue_matches_the_reference() {
    // Row 0 pops its west link at cycle 1, then pushes east the next
    // cycle. Column c's LOAD of the pop (cycle 1 + 3c) meets column
    // c − 1's COMMIT of the push (cycle 2 + 3(c − 1) + 2 = 1 + 3c), so every column past the first pops
    // the *next* issue's value. The fast engine cannot settle that at
    // issue and must leave eager execution; the results and counters still
    // match the reference engine.
    let pop_west = Instruction::new(
        Opcode::Mov,
        Addr::Port(Direction::West),
        Addr::Null,
        Addr::Reg(0),
    );
    let drain = Instruction::new(
        Opcode::Mov,
        Addr::Reg(0),
        Addr::Null,
        Addr::Port(Direction::South),
    );
    let program = vec![
        imm_to(Addr::Reg(1), 1),
        pop_west,
        imm_to(Addr::Port(Direction::East), 5),
        drain,
    ];
    let bypass = Instruction::NOP.with_route(Direction::North, Direction::South);
    let mut below = vec![Instruction::NOP; 5];
    below.push(bypass);
    let programs = vec![program, below];
    let mut fast = scripted(2, 4, programs.clone(), Engine::Fast);
    let mut reference = scripted(2, 4, programs, Engine::Reference);
    let fr = fast.run().expect("fast run drains");
    let rr = reference.run().expect("reference run drains");
    assert_eq!(fr.architectural(), rr.architectural());
    assert_eq!(fast.south_collected(), reference.south_collected());
    assert_eq!(fast.east_collected(), reference.east_collected());
    let lanes: Vec<Vector> = fast.south_collected().iter().map(|e| e.value).collect();
    assert_eq!(
        lanes,
        [0, 5, 5, 5].map(Vector::splat),
        "columns past the first pop the next issue's push"
    );
    assert!(
        fr.stats.replayed_cycles > 0 && fr.stats.replayed_cycles < fr.cycles,
        "the fast run must start eagerly and leave at the pop ({} of {} cycles)",
        fr.stats.replayed_cycles,
        fr.cycles
    );
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "only report() and reset() are valid")]
fn failed_eager_run_accepts_only_report_and_reset() {
    let flood = (0..12)
        .map(|i| imm_to(Addr::Port(Direction::East), i))
        .collect();
    let mut fabric = scripted(2, 3, vec![flood], Engine::Fast);
    assert!(fabric.run().is_err());
    let _ = fabric.report();
    let _ = fabric.east_collected();
}

/// A small deterministic generator for the random programs below.
struct Xorshift(u64);

impl Xorshift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// One random instruction from an alphabet covering every eager path:
/// bubbles, south/east pushes, pass-throughs, north/west pops, chains,
/// flushes (onto their own source too), MAC fast plans, a routed generic
/// MAC, a NOP with a result address, and out-of-range addresses.
fn random_instr(g: &mut Xorshift) -> Instruction {
    let port = Addr::Port;
    let (n, s, e, w) = (
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    );
    let v = g.below(9) as i32 - 4;
    let reg = Addr::Reg(g.below(3) as u8);
    let spad = Addr::Spad(g.below(4) as u16);
    // Word 8 is one past the end of the 8-word data memory.
    let dmem = Addr::DataMem(if g.below(40) == 0 {
        8
    } else {
        g.below(8) as u16
    });
    let tag = g.below(100) as u32;
    match g.below(15) {
        0 | 1 => Instruction::NOP,
        2 => imm_to(port(s), v).with_tag(tag),
        3 => imm_to(port(e), v).with_tag(tag),
        4 => Instruction::NOP.with_route(n, s),
        5 => Instruction::new(Opcode::Mov, port(n), Addr::Null, reg),
        6 => Instruction::new(Opcode::Add, reg, port(w), port(e)).with_tag(tag),
        7 => Instruction::new(Opcode::MovFlush, reg, Addr::Null, port(s)).with_tag(tag),
        8 => Instruction::new(Opcode::MacS, Addr::Imm, dmem, spad).with_imm(Vector::splat(v)),
        9 => Instruction::new(Opcode::MacS, Addr::Imm, dmem, reg)
            .with_imm(Vector::splat(v))
            .with_route(n, s),
        10 => Instruction::new(Opcode::Mov, port(w), Addr::Null, spad),
        11 => Instruction::new(Opcode::AddFlush, spad, port(n), port(s)).with_tag(tag),
        12 => Instruction::new(Opcode::MovFlush, spad, Addr::Null, spad),
        13 => Instruction::new(Opcode::Nop, Addr::Null, Addr::Null, spad),
        _ => Instruction::new(Opcode::Mov, spad, Addr::Null, reg),
    }
}

/// A PE-local instruction (no NoC traffic) or an east chain, which pops
/// its own west push.
fn local_instr(g: &mut Xorshift) -> Instruction {
    let reg = Addr::Reg(g.below(3) as u8);
    let spad = Addr::Spad(g.below(4) as u16);
    let dmem = Addr::DataMem(g.below(8) as u16);
    let v = Vector::splat(g.below(9) as i32 - 4);
    match g.below(8) {
        0 => Instruction::NOP,
        1 => Instruction::new(Opcode::MacS, Addr::Imm, dmem, spad).with_imm(v),
        2 => Instruction::new(Opcode::MacS, Addr::Imm, dmem, reg).with_imm(v),
        3 => Instruction::new(Opcode::Mov, spad, Addr::Null, reg),
        4 => Instruction::new(Opcode::MovFlush, spad, Addr::Null, spad),
        5 => Instruction::new(Opcode::Nop, Addr::Null, Addr::Null, spad),
        6 => Instruction::new(Opcode::Acc, reg, Addr::Null, spad),
        _ => Instruction::new(
            Opcode::Add,
            reg,
            Addr::Port(Direction::West),
            Addr::Port(Direction::East),
        )
        .with_tag(g.below(100) as u32),
    }
}

/// The random fabric: geometry, FIFO depth, feeder tokens, row scripts and
/// an optional cycle ceiling, all drawn from `seed`. Scripts are mostly
/// well-formed — each row consumes what the row above pushes south, two
/// cycles later, through pass-throughs, flush chains, routed MACs or plain
/// pops — with a few random instructions mixed in to break them.
fn random_fabric(seed: u64, engine: Engine) -> Fabric {
    let mut g = Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let (rows, cols) = (2 + g.below(3) as usize, 2 + g.below(3) as usize);
    let feeder = g.below(2) == 0;
    let cfg = CanonConfig {
        rows,
        cols,
        dmem_words: 8,
        spad_entries: 4,
        link_fifo_depth: 4 + g.below(4) as usize,
        watchdog_factor: 1,
        watchdog_slack: 150,
        max_cycles: (g.below(4) == 0).then(|| 5 + g.below(60)),
        engine,
        ..CanonConfig::default()
    };
    let mut fabric = Fabric::new(&cfg, feeder);
    for r in 0..rows {
        for c in 0..cols {
            let words: Vec<Vector> = (0..8).map(|_| Vector::splat(g.below(7) as i32)).collect();
            fabric.pe_mut(r, c).dmem.preload(0, &words);
        }
    }
    let (n, s) = (Direction::North, Direction::South);
    let steps = g.below(20) as usize;
    // Row 0: local work, south pushes, and (with a feeder) north pops.
    let mut tokens = 0;
    let mut above: Vec<bool> = Vec::new();
    let mut script0 = Vec::new();
    for _ in 0..steps {
        let tag = g.below(100) as u32;
        let (instr, pushes) = match g.below(6) {
            0 | 1 => (imm_to(Addr::Port(s), g.below(9) as i32).with_tag(tag), true),
            2 if feeder => {
                tokens += 1;
                let spad = Addr::Spad(g.below(4) as u16);
                let load = Instruction::new(Opcode::Mov, Addr::Port(n), Addr::Null, spad);
                (load.with_route(n, s), true)
            }
            _ => (local_instr(&mut g), false),
        };
        script0.push(instr);
        above.push(pushes);
    }
    let mut scripts = vec![script0];
    for _ in 1..rows {
        // Two cycles behind the row above: its column-c push (COMMIT at
        // 3c + 2) is visible to this row's column-c pop.
        let mut script = vec![Instruction::NOP, Instruction::NOP];
        let mut pushes_here = vec![false, false];
        for &pushed in &above {
            let tag = g.below(100) as u32;
            let spad = Addr::Spad(g.below(4) as u16);
            let (instr, pushes) = if pushed {
                match g.below(30) {
                    0..=7 => (Instruction::NOP.with_route(n, s), true),
                    8..=15 => (
                        Instruction::new(Opcode::AddFlush, spad, Addr::Port(n), Addr::Port(s))
                            .with_tag(tag),
                        true,
                    ),
                    16..=23 => (
                        Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(3), Addr::Reg(1))
                            .with_imm(Vector::splat(2))
                            .with_route(n, s),
                        true,
                    ),
                    // A result and a route both driving South: a §3.1
                    // router conflict, found at the row's column 0.
                    24 => (
                        imm_to(Addr::Port(s), 1).with_tag(tag).with_route(n, s),
                        true,
                    ),
                    _ => (
                        Instruction::new(Opcode::Mov, Addr::Port(n), Addr::Null, spad),
                        false,
                    ),
                }
            } else {
                (local_instr(&mut g), false)
            };
            script.push(instr);
            pushes_here.push(pushes);
        }
        scripts.push(script);
        above = pushes_here;
    }
    // A few random instructions anywhere: stray pops and pushes, west pops
    // the next issue feeds, out-of-range addresses.
    for script in &mut scripts {
        for instr in script.iter_mut() {
            if g.below(30) == 0 {
                *instr = random_instr(&mut g);
            }
        }
    }
    if feeder {
        for c in 0..cols {
            let tokens = (0..tokens)
                .map(|i| TaggedVector {
                    value: Vector::splat(g.below(50) as i32),
                    tag: i as u32,
                })
                .collect();
            fabric.set_feeder(c, tokens);
        }
    }
    for (r, script) in scripts.into_iter().enumerate() {
        fabric.set_program(
            r,
            RowProgram::custom(Script {
                instrs: script.into(),
            }),
        );
    }
    fabric
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    /// Most random programs fail — an underflow, an overflow, a south push
    /// without credit, a router conflict, an address out of range, a
    /// watchdog or a cycle ceiling — and the fast engine finds most of
    /// those failures ahead of their cycle. Whichever way a run ends, both
    /// engines must end it identically.
    #[test]
    fn random_programs_end_identically(seed in 0u64..1_000_000) {
        let mut fast = random_fabric(seed, Engine::Fast);
        let mut reference = random_fabric(seed, Engine::Reference);
        match (fast.run(), reference.run()) {
            (Ok(f), Ok(r)) => {
                assert_eq!(f.architectural(), r.architectural(), "seed {seed}");
                assert_eq!(fast.south_collected(), reference.south_collected(), "seed {seed}");
                assert_eq!(fast.east_collected(), reference.east_collected(), "seed {seed}");
            }
            (Err(f), Err(r)) => {
                assert_eq!(f, r, "seed {seed}");
                if matches!(f, SimError::Timeout { .. }) {
                    assert_eq!(
                        fast.report().architectural(),
                        reference.report().architectural(),
                        "seed {seed}"
                    );
                }
            }
            (f, r) => panic!("seed {seed}: fast {f:?} vs reference {r:?}"),
        }
    }
}

//! Steady-state stretch detection and macro-cycle replay.
//!
//! After warm-up, Canon kernels are highly periodic: every row issues the
//! same uniform MAC shape cycle after cycle (GEMM's `MacS → Reg` streams,
//! SpMM's `MacS → Spad` bands, SDDMM's `MacV → Reg` dots). During such a
//! *clean stretch* the per-cycle PE-array sweep is pure arithmetic — MAC
//! plans read only PE-local dmem/spad words, accumulate into one constant
//! target per row, drive no NoC links, wake no rows, and drain no sinks —
//! so the simulator does not need to march the pipeline at all: it can
//! buffer each cycle's issue operands and settle the whole stretch as a
//! chain of multiply-accumulates when the stretch ends.
//!
//! The engine (owned by [`crate::Fabric`], part of
//! [`crate::Engine::Fast`]) works in three phases:
//!
//! 1. **Detection** — the fabric's per-cycle issue-uniformity cells (the
//!    same `issue_window` the column-batch detector folds at issue time)
//!    drive a run-length counter. Once `3·cols` consecutive cycles were
//!    *clean* — every row issued a real instruction of one non-generic MAC
//!    shape — the whole in-flight pipeline is provably describable by a
//!    per-row template (shape + accumulator target), and the engine
//!    attempts entry.
//! 2. **Capture + deferral** — at entry the in-flight pipeline slots and
//!    injection queue are decoded into a per-row operand timeline and
//!    verified against the template (constant shape *and* constant
//!    accumulator target per row; any mismatch aborts entry). From then on
//!    each clean cycle only harvests the rows' freshly issued operands into
//!    the timeline and skips the PE sweep entirely; orchestrator FSMs,
//!    feeders, credits, and messages still step honestly every cycle, so
//!    the instant any row issues a different shape, a bubble, a flush, or
//!    drains, the cycle is no longer clean and the stretch ends.
//! 3. **Flush** — the deferred cycles are settled arithmetically: per PE,
//!    the buffered operand chain is applied to the accumulator storage
//!    (contiguous slab sweeps, one timeline entry across a whole row at a
//!    time), and the pipeline slots plus injection queue are reconstructed
//!    exactly as a cycle-stepped run would have left them (re-interned
//!    records, eagerly computed EXECUTE results, forwarding metadata).
//!    Long stretches are absorbed into storage in bounded chunks so the
//!    timeline never grows past a few KB per row.
//!
//! Replay is architecturally invisible: cycle counts, every architectural
//! [`crate::Stats`] counter (including the stall breakdown), collector
//! streams, and fault sentinels are byte-identical to
//! [`crate::Engine::Reference`], which never replays
//! (`tests/replay_differential.rs` pins this differentially). The only
//! divergent counters are the engine diagnostics, among them
//! [`crate::Stats::replayed_cycles`] and [`crate::Stats::replay_stretches`].
//! The engine disengages itself while a trace sink is attached (traces need
//! the per-cycle event order).

use crate::isa::{Addr, Instruction, Opcode, Plan, PlanKind, Vector};

/// Absorb the timeline into accumulator storage once it holds this many
/// entries per row, keeping capture memory bounded on long stretches.
pub(crate) const REPLAY_CHUNK: usize = 1024;

/// One captured issue of a replay stretch: the per-issue operands of a MAC
/// plan whose shape and accumulator target are fixed by the row template.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReplayEntry {
    /// Broadcast multiplier, pre-splatted (`MacS` shapes; unused for
    /// `MacV`).
    pub imm: Vector,
    /// First operand address: the dmem word for `MacS` shapes, the spad
    /// slot for `MacV`.
    pub p1: u16,
    /// Second operand address: the dmem word (`MacV` only).
    pub p2: u16,
    /// Producer tag of the original instruction (collector metadata).
    pub tag: u32,
}

impl ReplayEntry {
    /// Decomposes a fast plan into `(accumulator target, entry)`.
    /// `Generic` plans are never captured.
    pub(crate) fn from_plan(plan: Plan, tag: u32) -> (u16, ReplayEntry) {
        match plan {
            Plan::MacSToSpad { a, b, imm } => (
                b,
                ReplayEntry {
                    imm: Vector::splat(imm.lane0()),
                    p1: a,
                    p2: 0,
                    tag,
                },
            ),
            Plan::MacSToReg { a, r, imm } => (
                r as u16,
                ReplayEntry {
                    imm: Vector::splat(imm.lane0()),
                    p1: a,
                    p2: 0,
                    tag,
                },
            ),
            Plan::MacVToReg { a, b, r } => (
                r as u16,
                ReplayEntry {
                    imm: Vector::ZERO,
                    p1: a,
                    p2: b,
                    tag,
                },
            ),
            Plan::Generic => unreachable!("generic plans are never captured"),
        }
    }

    /// Rebuilds the instruction record for re-interning at flush. The
    /// immediate is the pre-splatted multiplier — architecturally
    /// equivalent, since `MacS` broadcasts lane 0.
    pub(crate) fn rebuild(&self, kind: PlanKind, target: u16) -> Instruction {
        match kind {
            PlanKind::MacSToSpad => Instruction::new(
                Opcode::MacS,
                Addr::Imm,
                Addr::DataMem(self.p1),
                Addr::Spad(target),
            )
            .with_imm(self.imm)
            .with_tag(self.tag),
            PlanKind::MacSToReg => Instruction::new(
                Opcode::MacS,
                Addr::Imm,
                Addr::DataMem(self.p1),
                Addr::Reg(target as u8),
            )
            .with_imm(self.imm)
            .with_tag(self.tag),
            PlanKind::MacVToReg => Instruction::new(
                Opcode::MacV,
                Addr::Spad(self.p1),
                Addr::DataMem(self.p2),
                Addr::Reg(target as u8),
            )
            .with_tag(self.tag),
            PlanKind::Generic => unreachable!("generic plans are never captured"),
        }
    }
}

/// The replay engine's state, owned by the fabric (see the module docs for
/// the detect → capture → flush life cycle).
#[derive(Debug)]
pub(crate) struct ReplayState {
    /// Consecutive clean cycles ending at the last stepped cycle (reset on
    /// any non-clean cycle and on a failed entry/template break, so entry
    /// attempts stay amortized over `3·cols` cycles).
    pub run_len: u64,
    /// True while a stretch is being captured (PE sweeps deferred).
    pub active: bool,
    /// Shape shared by every captured issue of the current stretch.
    pub kind: PlanKind,
    /// Per-row accumulator target (spad slot or register index).
    pub targets: Vec<u16>,
    /// Accumulator storage holds the operand chain through cycle
    /// `absorbed − 3c − 3` for column `c`.
    pub absorbed: u64,
    /// Global cycle of timeline index 0.
    pub t_base: u64,
    /// Per-row operand timeline: the issue of cycle `t_base + j` at index
    /// `j` (decoded in-flight slots at entry, then one harvest per cycle).
    pub tl: Vec<Vec<ReplayEntry>>,
    /// Per-cycle harvest scratch (validated before committing to `tl`).
    pub scratch: Vec<ReplayEntry>,
    /// Cycles fast-forwarded so far ([`crate::Stats::replayed_cycles`]).
    pub deferred_cycles: u64,
    /// Stretches captured so far ([`crate::Stats::replay_stretches`]).
    pub stretches: u64,
}

impl ReplayState {
    pub(crate) fn new(rows: usize) -> ReplayState {
        ReplayState {
            run_len: 0,
            active: false,
            kind: PlanKind::Generic,
            targets: vec![0; rows],
            absorbed: 0,
            t_base: 0,
            tl: vec![Vec::new(); rows],
            scratch: Vec::with_capacity(rows),
            deferred_cycles: 0,
            stretches: 0,
        }
    }

    /// Returns the engine to its post-construction state for fabric reuse,
    /// keeping timeline allocations.
    pub(crate) fn reset(&mut self) {
        self.run_len = 0;
        self.active = false;
        self.kind = PlanKind::Generic;
        self.targets.fill(0);
        self.absorbed = 0;
        self.t_base = 0;
        for t in &mut self.tl {
            t.clear();
        }
        self.scratch.clear();
        self.deferred_cycles = 0;
        self.stretches = 0;
    }

    /// Ends the current stretch's capture bookkeeping (the fabric has
    /// already settled the timeline into the PE array). Timeline capacity
    /// is retained for the next stretch.
    pub(crate) fn clear_capture(&mut self) {
        self.active = false;
        self.run_len = 0;
        for t in &mut self.tl {
            t.clear();
        }
    }

    /// Drops timeline entries no longer needed by any future absorb or
    /// flush: after absorbing through virtual cycle `absorbed`, the oldest
    /// entry any column can still need is `absorbed − 3·cols + 1`.
    pub(crate) fn compact(&mut self, cols: usize) {
        let keep_from = self.absorbed.saturating_sub(3 * cols as u64) + 1;
        if keep_from <= self.t_base {
            return;
        }
        let drop = (keep_from - self.t_base) as usize;
        for t in &mut self.tl {
            t.drain(..drop.min(t.len()));
        }
        self.t_base = keep_from;
    }
}

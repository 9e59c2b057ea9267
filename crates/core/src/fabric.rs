//! The Canon fabric: PE array + orchestrators + NoC + edge movers, advanced
//! one cycle at a time.
//!
//! ## Cycle structure
//!
//! Each [`Fabric::step`] performs, in order:
//!
//! 1. **edge feed** — the north-edge stream movers push at most one token per
//!    column into the north edge FIFOs (SDDMM's `A` stream);
//! 2. **orchestrator phase** — every row with a program delivers its due
//!    south-channel credits (visible after
//!    [`CanonConfig::orch_msg_latency`] cycles), then its FSM observes its
//!    meta stream head, delivered message, credits, and north-FIFO
//!    occupancy, and issues one instruction into column 0 (possibly NOP);
//!    a done row with no deliverable message returns at once;
//! 3. **active sweep** — COMMIT (NoC pushes happen this phase, retiring
//!    instructions are forwarded eastward as 4-byte [`InstrHandle`]s into
//!    the shared issue ring) and LOAD (which also computes the EXECUTE
//!    stage's lane result eagerly — see [`crate::pe`]) run for every PE in
//!    the active set, in PE-id order; column 0 receives this cycle's
//!    orchestrator instruction, column `c > 0` receives the instruction that
//!    retired from column `c-1` **last** cycle, reproducing the 3-cycle
//!    stagger of §2.1 (issue at cycle *n* reaches column *c* at cycle
//!    *n + 3c*);
//! 4. pipeline advance (an O(1) rotation of the shared stage index) and edge
//!    -sink draining into the collectors, gated on this cycle's sink pushes.
//!
//! ## Active-set scheduling
//!
//! The sweep of step 3 iterates an [`ActiveSet`] bitset instead of the whole
//! array: a PE enters the set when an instruction is injected towards it
//! (orchestrator issue, eastward forwarding) or a NoC push lands on one of
//! its input links, and leaves at end of cycle once its pipeline, pending
//! injections, and input links are all empty. Phases never visit drained
//! PEs, and the per-cycle quiescence test collapses from a whole-fabric
//! sweep to `active.is_empty()` plus O(rows) of orchestrator state.
//!
//! ## Engines
//!
//! [`CanonConfig::engine`] selects one of two engines. Both run the same
//! orchestrator phase (step 2). [`Engine::Reference`] is the simplest
//! correct engine — the per-PE sweep of step 3 — and the oracle the fast
//! engine is diffed against (`tests/event_wake.rs`, `tests/batch_column.rs`,
//! `tests/replay_differential.rs`, `tests/engine_parity.rs`).
//! [`Engine::Fast`] (the default) differs only inside [`Fabric::run`],
//! which executes **eagerly, row-wide** in place of the per-PE sweep.
//!
//! ### Eager execution
//!
//! Time-lapsed SIMD sends one instruction across a row, reaching column `c`
//! at `t + 3c`, and the orchestrators make every congestion decision at the
//! periphery. So what the PE array computes depends only on each row's
//! issue order and on FIFO order, not on which PE is busy in which cycle.
//! The eager engine uses that: every real issue runs to completion on
//! columns `0..cols`, in column order, right after the orchestrator
//! decides it. The instruction is decoded once; a fast-plan MAC is one
//! contiguous loop over the row's slice of the slabs
//! ([`PeArray::mac_row`]), anything else is interpreted per column with
//! plain sequential semantics (see [`crate::pe`]). What keeps it
//! architecturally invisible:
//!
//! * **Stamps.** Column `c` LOADs at `t + 3c` and COMMITs at `t + 3c + 2`.
//!   Link entries carry their push cycle, and a pop needs a head entry
//!   stamped at or before the pop. Sink entries wait in their edge sink
//!   until their cycle's phase 5 drains them, lanes in order, so the
//!   collectors stay in (cycle, lane) order.
//! * **Counters.** Generic-path activity and NoC pushes are recorded per
//!   issue cycle in a ring `3·cols + 3` cycles deep; each column's share
//!   falls due at its effective cycle and is folded into the totals as
//!   that cycle ends, so [`Fabric::report`] at any cycle (a `max_cycles`
//!   abort included) equals the reference engine's. Fast plans are charged
//!   at issue, as on the stepping path.
//! * **Errors.** A protocol error found ahead of its cycle is held, the
//!   earliest first (by cycle, then PE id, then COMMIT before LOAD), and
//!   raised when that cycle's sweep would have run. An early push sees the
//!   occupancy its cycle will see: an east link's consumer is the same
//!   row, whose earlier pops have all run, and a south link's consumer may
//!   owe up to two earlier pops but the credit protocol keeps the link
//!   below capacity even counting them.
//! * **Observables.** `north_tokens` counts the column-0 entries stamped
//!   before the orchestrator phase (a feeder push is visible the cycle it
//!   happens), so an early south push becomes observable the cycle after
//!   its stamp, as on the stepping sweep. Feeders still step in real time;
//!   an eager pop of a token not pushed yet *reserves* it, and a reservation
//!   still unpushed when its stamp arrives is the reference engine's
//!   underflow. Quiescence extends the bubble horizon to every issue and
//!   also requires every link entry popped.
//! * **One exception.** An instruction popping its west link can consume
//!   the east push of the row's *next* issue, which commits at column
//!   `c − 1` in the cycle this one loads at column `c`. When an issue needs
//!   such a push (its west links do not already hold enough entries) the
//!   run leaves eager execution for the stepping sweep for good, from that
//!   issue on. No built-in kernel does this.
//!
//! Eager execution is used only by [`Fabric::run`] under [`Engine::Fast`],
//! and only when the run starts at cycle 0 with no trace sink (every
//! kernel, sweep, and daemon cell). [`Fabric::step`], traced runs, and
//! runs started mid-flight take the stepping sweep, so a traced fast run
//! takes the reference engine's code path and emits its exact event
//! stream. After an eager run ends in an error the fabric holds effects of
//! cycles it never reached: only [`Fabric::report`] and [`Fabric::reset`]
//! are valid then (checked under `debug_assertions`). The engine
//! diagnostics mean, under eager execution: `active_pe_cycles` and
//! `batched_pe_cycles` both count instruction-columns executed,
//! `replayed_cycles` the cycles run eagerly, and `replay_stretches` the
//! eager runs.
//!
//! ## Instruction handle ring
//!
//! On the stepping path, issued instructions are interned once into a
//! per-fabric [`InstrRing`] (a power-of-two ring of issue records sized to
//! the issue-to-retire window, with generation tags checked under
//! `debug_assertions`). The injection queue, the pipeline-stage slots, and
//! eastward COMMIT forwarding all move 4-byte [`InstrHandle`]s; the
//! ~44-byte record is written once per issue and resolved in place at
//! LOAD/COMMIT. Bubbles never reach it: they are elided at issue (see
//! `Inject`), so every occupied pipeline slot holds a real, interned
//! instruction. Eager execution needs no ring: an issue is finished before
//! the next one is decided.
//!
//! The fused per-PE ordering (COMMIT then LOAD of one PE before the next
//! PE) is cycle-identical to the former phase-barrier sweeps because only
//! south/east-bound dataflow is instantiated: every link's producer has a
//! smaller PE id than its consumer, so a same-cycle push is always
//! processed before the pop that observes it, and EXECUTE/LOAD touch only
//! PE-local state (`tests/cycle_invariance.rs` pins this equivalence).
//!
//! ## Hot-path discipline
//!
//! The eager path in [`Fabric::run`] is the simulator's cost center (it
//! runs every cycle of every sweep cell, daemon request, and figure: the
//! orchestrator phase, each issue's row-wide execution, and the sink
//! drain), so its steady state is allocation-free, as is the stepping
//! sweep's:
//!
//! * NoC error context is carried as copyable [`ErrCtx`](crate::noc::ErrCtx)
//!   descriptors and rendered only when a protocol error fires;
//! * edge sinks drain **in place** — step 4 pops each south/east sink link
//!   directly into the collector vectors (no per-edge temporary `Vec`), and
//!   the links themselves are fixed-capacity ring buffers (edge sinks are
//!   pre-sized to the `3·cols` cycles eager pushes run ahead);
//! * row programs are enum-dispatched ([`RowProgram`]) rather than
//!   `Box<dyn OrchProgram>`, removing the vtable call from the per-cycle
//!   orchestrator phase;
//! * PE state is struct-of-arrays ([`PeArray`]): the stage slot a phase
//!   touches is dense across PEs, and the pipeline advance is one index
//!   bump for the whole fabric.
//!
//! The only remaining steady-state allocations are the amortized growth of
//! the collector vectors themselves.
//!
//! ## Flow control
//!
//! The paper's "dynamically managed circuit-switching" avoids in-array
//! backpressure: orchestrators, knowing the array's deterministic timing,
//! make all congestion decisions at the periphery. The simulator realises
//! this as an orchestrator-level credit protocol on each row's southbound
//! channel plus a bounded message channel between vertically adjacent
//! orchestrators; the per-column FIFOs are then provably bounded, and the
//! simulator verifies (rather than provides) that bound — an overflow or
//! underflow aborts the run as a protocol error.

use crate::config::{CanonConfig, Engine};
use crate::isa::{
    Addr, Direction, InstrHandle, InstrRing, Instruction, Opcode, Plan, Vector, LANES,
};
use crate::noc::{ErrCtx, Link, LinkGrid, TaggedVector};
use crate::orchestrator::{MetaToken, OrchIo, OrchMessage, OrchProgram, RowProgram};
use crate::pe::{Activity, PeArray, PeMut};
use crate::sched::ActiveSet;
use crate::stats::{RunReport, StallBreakdown, Stats};
use crate::trace::{TraceRecorder, TraceSink};
use crate::SimError;
use std::collections::VecDeque;

/// A value delivered to a south/east edge collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectedEntry {
    /// Producer-attached tag (output row id or linear output index).
    pub tag: u32,
    /// The array lane it exited from (column index for the south edge, row
    /// index for the east edge).
    pub lane: usize,
    /// Payload.
    pub value: Vector,
    /// Cycle at which it exited the array.
    pub cycle: u64,
}

/// Sentinel in [`RowTable::last_state`] for a row that has never stepped
/// (state ids are 3-bit in hardware, so the top byte value is free).
const NO_STATE: u8 = u8::MAX;

/// Per-row orchestrator state, struct-of-arrays: each field of the former
/// boxed per-row record is a flat array indexed by row id, mirroring
/// [`PeArray`]'s layout one level up. The per-cycle row dispatch touches a
/// handful of hot fields per row — the cursor into
/// the meta stream, the credit count, the queue fronts — and those are
/// dense across rows instead of strided by a whole row record.
struct RowTable {
    programs: Vec<Option<RowProgram>>,
    /// Input meta-data streams, consumed through `meta_pos` (a cursor into
    /// an immutable `Vec` is cheaper per step than deque pops).
    meta: Vec<Vec<MetaToken>>,
    meta_pos: Vec<usize>,
    south_credits: Vec<usize>,
    inbox: Vec<VecDeque<(u64, OrchMessage)>>,
    credit_returns: Vec<VecDeque<u64>>,
    /// Last observed FSM state id per row, [`NO_STATE`] before the first
    /// step (sentinel-packed: one byte per row instead of `Option<u8>`'s
    /// two).
    last_state: Vec<u8>,
    orch_steps: Vec<u64>,
    transitions: Vec<u64>,
    messages_sent: Vec<u64>,
    /// Per-cause stall attribution; its [`StallBreakdown::total`] is the
    /// row's contribution to [`Stats::stall_cycles`].
    stall_causes: Vec<StallBreakdown>,
    meta_consumed: Vec<u64>,
}

impl RowTable {
    fn new(rows: usize, credits_for: impl Fn(usize) -> usize) -> RowTable {
        RowTable {
            programs: (0..rows).map(|_| None).collect(),
            meta: vec![Vec::new(); rows],
            meta_pos: vec![0; rows],
            south_credits: (0..rows).map(credits_for).collect(),
            // Reserved up front: the bounded message/credit protocol keeps
            // occupancy small, so the queues never reallocate mid-run (part
            // of the steady-state allocs/cycle budget `repro bench --check`
            // gates).
            inbox: vec![VecDeque::with_capacity(8); rows],
            credit_returns: vec![VecDeque::with_capacity(16); rows],
            last_state: vec![NO_STATE; rows],
            orch_steps: vec![0; rows],
            transitions: vec![0; rows],
            messages_sent: vec![0; rows],
            stall_causes: vec![StallBreakdown::default(); rows],
            meta_consumed: vec![0; rows],
        }
    }

    fn len(&self) -> usize {
        self.programs.len()
    }

    /// Returns the table to its post-construction state in place
    /// ([`RowTable::new`] with the same row count), keeping the per-row
    /// queue allocations (fabric reuse).
    fn reset(&mut self, credits_for: impl Fn(usize) -> usize) {
        for (r, p) in self.programs.iter_mut().enumerate() {
            *p = None;
            self.meta[r].clear();
            self.meta_pos[r] = 0;
            self.south_credits[r] = credits_for(r);
            self.inbox[r].clear();
            self.credit_returns[r].clear();
        }
        self.last_state.fill(NO_STATE);
        self.orch_steps.fill(0);
        self.transitions.fill(0);
        self.messages_sent.fill(0);
        self.stall_causes.fill(StallBreakdown::default());
        self.meta_consumed.fill(0);
    }

    fn done(&self, r: usize) -> bool {
        self.programs[r].as_ref().is_none_or(|p| p.done())
    }

    /// Tokens not yet consumed from row `r`'s meta stream.
    fn meta_left(&self, r: usize) -> usize {
        self.meta[r].len() - self.meta_pos[r]
    }
}

/// One entry of the staggered instruction network's injection queue.
///
/// Only real instructions occupy slots: bubbles ([`Instruction::is_plain_nop`])
/// are **elided** at issue — architecturally a bubble reads nothing, writes
/// nothing, pushes nothing, and cannot forward a value, so instead of
/// marching a tag through `3·cols` pipeline stages the fabric counts the
/// `cols` instruction latches it would have clocked and extends the bubble
/// drain horizon (see [`Fabric::bubble_horizon`]), keeping cycle counts and
/// instruction counts byte-identical to a simulator that moves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Inject {
    /// Nothing to load.
    #[default]
    None,
    /// A real instruction; the handle array holds its ring reference.
    Instr,
}

/// Per-PE injection slots of the instruction network, struct-of-arrays: the
/// one-byte kind tags are scanned/updated on every hop, the 4-byte
/// [`InstrHandle`] only where a kind tag says an instruction is pending (the
/// record itself lives in the fabric's [`InstrRing`]). Bubbles never occupy
/// a slot — see [`Inject`].
#[derive(Debug)]
struct InjectQueue {
    kind: Vec<Inject>,
    handle: Vec<InstrHandle>,
}

impl InjectQueue {
    fn new(n: usize) -> InjectQueue {
        InjectQueue {
            kind: vec![Inject::None; n],
            handle: vec![InstrHandle::default(); n],
        }
    }

    /// Stores one issued (real, non-bubble) instruction, interning it with
    /// its pre-computed plan. Bubbles never reach the queue — the issue
    /// path elides them.
    #[inline]
    fn put(&mut self, idx: usize, instr: Instruction, plan: Plan, ring: &mut InstrRing) {
        debug_assert!(!instr.is_plain_nop(), "bubbles are elided at issue");
        self.kind[idx] = Inject::Instr;
        self.handle[idx] = ring.intern_planned(instr, plan);
    }

    fn is_clear(&self) -> bool {
        self.kind.iter().all(|&k| k == Inject::None)
    }

    /// Empties every slot, keeping allocations (fabric reuse).
    fn clear(&mut self) {
        self.kind.fill(Inject::None);
        self.handle.fill(InstrHandle::default());
    }
}

/// Phase of an error's PE: the stepping sweep runs each PE's COMMIT before
/// its LOAD, so at one PE and cycle a COMMIT error comes first.
const COMMIT: u8 = 0;
/// See [`COMMIT`].
const LOAD: u8 = 1;

/// A protocol error the eager engine found ahead of its cycle.
#[derive(Debug)]
struct HeldError {
    /// (cycle, PE id, phase): the order in which the stepping sweep would
    /// meet the errors.
    key: (u64, usize, u8),
    err: SimError,
}

/// Generic-path activity and NoC pushes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    act: Activity,
    pushes: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.act.add(&other.act);
        self.pushes += other.pushes;
    }

    fn sub(&mut self, other: &Tally) {
        self.act.sub(&other.act);
        self.pushes -= other.pushes;
    }
}

/// What one column of a generic issue counts: its LOAD part, due at the
/// LOAD cycle, and its COMMIT part (write-backs and NoC pushes), due two
/// cycles later. Every column of an issue counts the same.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ColumnTally {
    load: Tally,
    commit: Tally,
}

impl ColumnTally {
    /// The per-column counts of `instr` on the generic path.
    fn of(instr: &Instruction) -> ColumnTally {
        let mut t = ColumnTally::default();
        t.load.act.note_instr(instr.op);
        t.load.act.note_read(instr.op1);
        t.load.act.note_read(instr.op2);
        if matches!(instr.op, Opcode::MacV | Opcode::MacS | Opcode::Acc) {
            t.load.act.note_read(instr.res);
        }
        if instr.op != Opcode::Nop {
            t.commit.act.note_write(instr.res);
            t.commit.pushes += matches!(instr.res, Addr::Port(_)) as u64;
        }
        if matches!(instr.op, Opcode::MovFlush | Opcode::AddFlush) {
            t.commit.act.note_write(instr.op1);
        }
        t.commit.pushes += instr.route.is_some() as u64;
        t
    }
}

/// Eager-execution state (module docs, §Eager execution).
#[derive(Debug)]
struct Eager {
    /// Issues run eagerly (only inside [`Fabric::run`]).
    on: bool,
    /// Per issue cycle `t`, indexed `t & (len − 1)`: the summed
    /// [`ColumnTally`] of that cycle's generic issues. Column `c` of an
    /// issue counts at `t + 3c` (and `+ 2`), so what falls due at cycle `x`
    /// is a sum over `t = x − 3c`, kept as one running sum per residue of
    /// the cycle mod 3. The ring covers the `3·cols + 2` cycles an issue
    /// stays in the sums.
    issued: Vec<ColumnTally>,
    due_load: [Tally; 3],
    due_commit: [Tally; 3],
    /// NoC pushes folded in so far.
    pushes: u64,
    held: Option<HeldError>,
    /// Per north-edge column: stamps of eager pops holding a reservation on
    /// a feeder token not pushed yet (oldest first).
    reserved: Vec<VecDeque<u64>>,
    /// Per north-edge column: stamps of eager pops of pushed tokens, which
    /// occupy the link until their stamp.
    inflight: Vec<VecDeque<u64>>,
    /// Entries queued in PE input links by eager runs.
    queued: u64,
    /// Entries queued in edge sinks by eager runs, not yet drained.
    sink_queued: u64,
    /// An eager run ended in an error (only `report`/`reset` are valid).
    poisoned: bool,
    /// Cycles run eagerly ([`Stats::replayed_cycles`]).
    cycles: u64,
    /// Eager runs ([`Stats::replay_stretches`]).
    runs: u64,
}

impl Eager {
    fn new(cols: usize) -> Eager {
        Eager {
            on: false,
            issued: vec![ColumnTally::default(); (3 * cols + 3).next_power_of_two()],
            due_load: [Tally::default(); 3],
            due_commit: [Tally::default(); 3],
            pushes: 0,
            held: None,
            reserved: vec![VecDeque::with_capacity(8); cols],
            inflight: vec![VecDeque::with_capacity(8); cols],
            queued: 0,
            sink_queued: 0,
            poisoned: false,
            cycles: 0,
            runs: 0,
        }
    }

    /// Returns to the post-construction state, keeping allocations.
    fn reset(&mut self) {
        self.on = false;
        self.issued.fill(ColumnTally::default());
        self.due_load = [Tally::default(); 3];
        self.due_commit = [Tally::default(); 3];
        self.pushes = 0;
        self.held = None;
        for q in self.reserved.iter_mut().chain(self.inflight.iter_mut()) {
            q.clear();
        }
        self.queued = 0;
        self.sink_queued = 0;
        self.poisoned = false;
        self.cycles = 0;
        self.runs = 0;
    }

    fn slot(&self, t: u64) -> usize {
        (t & (self.issued.len() as u64 - 1)) as usize
    }

    /// Records a generic issue of cycle `t` whose columns each count `per`.
    fn record(&mut self, t: u64, per: &ColumnTally) {
        let s = self.slot(t);
        self.issued[s].load.add(&per.load);
        self.issued[s].commit.add(&per.commit);
    }

    /// The generic-path counts falling due at cycle `x` (called once per
    /// cycle, in order): issues enter the running sums at their cycle and
    /// leave them `3·cols` cycles later, once their last column counted.
    fn fold(&mut self, x: u64, cols: usize) -> Tally {
        let span = 3 * cols as u64;
        let s = self.slot(x);
        let m = (x % 3) as usize;
        self.due_load[m].add(&self.issued[s].load);
        if x >= span {
            let old = self.slot(x - span);
            self.due_load[m].sub(&self.issued[old].load);
        }
        let mut due = self.due_load[m];
        if x >= 2 {
            let t = x - 2;
            let (s, m) = (self.slot(t), (t % 3) as usize);
            self.due_commit[m].add(&self.issued[s].commit);
            if t >= span {
                let old = self.slot(t - span);
                self.due_commit[m].sub(&self.issued[old].commit);
                self.issued[old] = ColumnTally::default();
            }
            due.add(&self.due_commit[m]);
        }
        due
    }

    /// Takes the held error if it comes before `key`.
    fn take_held_before(&mut self, key: (u64, usize, u8)) -> Option<SimError> {
        if self.held.as_ref().is_some_and(|h| h.key < key) {
            self.held.take().map(|h| h.err)
        } else {
            None
        }
    }

    /// Keeps the earliest of the held error and `err` at `key`.
    fn hold(&mut self, key: (u64, usize, u8), err: SimError) {
        if self.held.as_ref().is_none_or(|h| key < h.key) {
            self.held = Some(HeldError { key, err });
        }
    }
}

/// The simulated Canon fabric.
pub struct Fabric {
    cfg: CanonConfig,
    /// Whether the north edge was built as a token-stream feeder (SDDMM) or
    /// a zero source (SpMM family). Recorded so the warm pool can key reuse
    /// on it — the flag is otherwise only encoded in the grid's link kinds.
    north_feeder: bool,
    pes: PeArray,
    grid: LinkGrid,
    rows: RowTable,
    /// Issued-instruction ring; everything downstream of issue moves 4-byte
    /// handles into this slab.
    ring: InstrRing,
    /// First cycle at which every elided bubble would have drained out of
    /// the pipeline: a bubble issued at cycle `n` retires from the last
    /// column at `n + 3·cols − 1`, so the fabric it marched through is
    /// quiescent from `n + 3·cols`. Elision must not let the fabric drain
    /// earlier than the marching simulator, so [`Fabric::quiescent`] gates
    /// on this horizon.
    bubble_horizon: u64,
    /// Bubbles elided at issue; each one is `cols` instruction latches
    /// credited to [`Stats::instrs_executed`] at report time.
    elided_bubbles: u64,
    /// PEs with possible work this cycle (see [`ActiveSet`]).
    active: ActiveSet,
    /// Instruction to inject into each PE this cycle (column > 0 slots are
    /// written by the previous cycle's commits).
    inject_now: InjectQueue,
    /// Instructions retiring this cycle, to inject next cycle one column east.
    inject_next: InjectQueue,
    feeders: Vec<VecDeque<TaggedVector>>,
    /// Number of feeders still holding tokens (skips the edge-feed phase and
    /// keeps the quiescence check O(1) in the column count).
    feeders_pending: usize,
    feeder_bytes_per_token: u64,
    south_collected: Vec<CollectedEntry>,
    east_collected: Vec<CollectedEntry>,
    cycle: u64,
    /// Sum over cycles of the active-set size (scheduler diagnostic).
    active_pe_cycles: u64,
    /// Instruction-columns executed eagerly (scheduler diagnostic,
    /// reported as [`Stats::batched_pe_cycles`]).
    batched_pe_cycles: u64,
    /// Eager-execution state (see the module docs).
    eager: Eager,
    extra_offchip_read: u64,
    extra_offchip_write: u64,
    /// Host wall time accumulated inside [`Fabric::run`] (ns).
    wall_ns: u64,
    /// Attached trace recorder ([`crate::trace`]); `None` costs one untaken
    /// branch per hook (the `repro bench --check` gates pin that this stays
    /// free).
    trace: Option<Box<TraceRecorder>>,
}

impl Fabric {
    /// Builds a fabric for the given configuration. `north_edge_feeder`
    /// selects whether the north edge is a token stream (SDDMM) or reads as
    /// zero (SpMM-family kernels).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `pipe_depth != 3` (the
    /// paper's fixed PE pipeline latency; see §2.1).
    pub fn new(cfg: &CanonConfig, north_edge_feeder: bool) -> Fabric {
        cfg.validate().expect("invalid CanonConfig");
        assert_eq!(
            cfg.pipe_depth, 3,
            "the PE pipeline is 3 stages (LOAD/EXECUTE/COMMIT)"
        );
        let n = cfg.pe_count();
        // Injected deadlock (`FaultAction::WithholdCredits`): starve every
        // non-bottom row of south-link credits so its first flush stalls on
        // credit forever and the *real* watchdog path fires. The bottom row
        // keeps its sink credits — zeroing those would instead trip the
        // "push without credit" FSM-bug assertion, which is a different
        // failure than the one being injected.
        let withhold = matches!(cfg.fault, Some(crate::fault::FaultAction::WithholdCredits));
        let initial_credits = if withhold { 0 } else { cfg.link_fifo_depth - 2 };
        let rows = RowTable::new(cfg.rows, |r| {
            if r + 1 == cfg.rows {
                usize::MAX / 2 // bottom row flushes into the edge sink
            } else {
                initial_credits
            }
        });
        Fabric {
            pes: PeArray::new(n, cfg.dmem_words, cfg.spad_entries),
            grid: LinkGrid::new(cfg.rows, cfg.cols, cfg.link_fifo_depth, north_edge_feeder),
            rows,
            // One issue per row per cycle, last read 3·cols − 1 cycles after
            // issue ⇒ the stream needs rows·(3·cols − 1) live records; one
            // extra cycle per row keeps wraps strictly slower than
            // retirement.
            ring: InstrRing::with_capacity(cfg.rows * 3 * cfg.cols),
            bubble_horizon: 0,
            elided_bubbles: 0,
            active: ActiveSet::new(n),
            inject_now: InjectQueue::new(n),
            inject_next: InjectQueue::new(n),
            feeders: vec![VecDeque::new(); cfg.cols],
            feeders_pending: 0,
            feeder_bytes_per_token: LANES as u64,
            // Collectors start at a page's worth of entries: their doubling
            // growth was the bulk of the residual steady-state allocations.
            south_collected: Vec::with_capacity(128),
            east_collected: Vec::with_capacity(128),
            cycle: 0,
            active_pe_cycles: 0,
            batched_pe_cycles: 0,
            eager: Eager::new(cfg.cols),
            extra_offchip_read: 0,
            extra_offchip_write: 0,
            wall_ns: 0,
            trace: None,
            cfg: cfg.clone(),
            north_feeder: north_edge_feeder,
        }
    }

    /// Whether the north edge feeds tokens (see [`Fabric::new`]).
    pub fn north_edge_feeder(&self) -> bool {
        self.north_feeder
    }

    /// True when this fabric's allocations fit `cfg`: reuse via
    /// [`Fabric::reset`] requires every allocation-shaping parameter
    /// (geometry, memory capacities, link FIFO depth) and the north-edge
    /// kind to match. Runtime-only parameters (budgets, fault injection,
    /// the engine choice, watchdog factors) may differ — the reset
    /// re-derives them from the new configuration.
    pub fn reusable_for(&self, cfg: &CanonConfig, north_edge_feeder: bool) -> bool {
        self.north_feeder == north_edge_feeder
            && self.cfg.rows == cfg.rows
            && self.cfg.cols == cfg.cols
            && self.cfg.dmem_words == cfg.dmem_words
            && self.cfg.spad_entries == cfg.spad_entries
            && self.cfg.link_fifo_depth == cfg.link_fifo_depth
            && self.cfg.pipe_depth == cfg.pipe_depth
    }

    /// Resets the fabric in place to the state `Fabric::new(cfg,
    /// self.north_edge_feeder())` would produce, reusing every allocation
    /// (the PE slabs, link rings, instruction ring, and scheduler bitsets
    /// are zeroed, not rebuilt). This is the warm-pool reuse path: a
    /// request-serving worker resets a drained (or failed — deadlocked and
    /// timed-out fabrics carry mid-flight state, which this clears too)
    /// fabric instead of paying construction for every request.
    ///
    /// Under `debug_assertions` the reset is followed by a full
    /// [`Fabric::assert_pristine`] audit.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` is invalid or not [`Fabric::reusable_for`] this
    /// fabric (allocation shapes must match; build a new fabric instead).
    pub fn reset(&mut self, cfg: &CanonConfig) {
        cfg.validate().expect("invalid CanonConfig");
        assert!(
            self.reusable_for(cfg, self.north_feeder),
            "Fabric::reset with an incompatible configuration \
             ({}x{} dmem={} spad={} fifo={} vs {}x{} dmem={} spad={} fifo={})",
            self.cfg.rows,
            self.cfg.cols,
            self.cfg.dmem_words,
            self.cfg.spad_entries,
            self.cfg.link_fifo_depth,
            cfg.rows,
            cfg.cols,
            cfg.dmem_words,
            cfg.spad_entries,
            cfg.link_fifo_depth,
        );
        let withhold = matches!(cfg.fault, Some(crate::fault::FaultAction::WithholdCredits));
        let initial_credits = if withhold { 0 } else { cfg.link_fifo_depth - 2 };
        let rows = cfg.rows;
        self.rows.reset(|r| {
            if r + 1 == rows {
                usize::MAX / 2
            } else {
                initial_credits
            }
        });
        self.pes.reset();
        self.grid.clear_links();
        self.ring.reset();
        self.bubble_horizon = 0;
        self.elided_bubbles = 0;
        self.active.clear();
        self.inject_now.clear();
        self.inject_next.clear();
        for f in &mut self.feeders {
            f.clear();
        }
        self.feeders_pending = 0;
        self.feeder_bytes_per_token = LANES as u64;
        self.south_collected.clear();
        self.east_collected.clear();
        self.cycle = 0;
        self.active_pe_cycles = 0;
        self.batched_pe_cycles = 0;
        self.eager.reset();
        self.extra_offchip_read = 0;
        self.extra_offchip_write = 0;
        self.wall_ns = 0;
        self.trace = None;
        self.cfg = cfg.clone();
        #[cfg(debug_assertions)]
        self.assert_pristine();
    }

    /// Audits that the fabric carries no residual state from a previous
    /// run: cycle zero, quiescent, scheduler and NoC empty, memories
    /// zeroed, and every reported statistic zero. [`Fabric::reset`] runs
    /// this automatically under `debug_assertions`; it is public so tests
    /// (and the pool's own paranoia) can invoke it directly.
    ///
    /// # Panics
    ///
    /// Panics on any residual state, naming the component.
    pub fn assert_pristine(&self) {
        assert_eq!(self.cycle, 0, "pristine fabric: cycle not zero");
        assert!(self.quiescent(), "pristine fabric: not quiescent");
        assert!(
            self.active.is_empty(),
            "pristine fabric: active set not empty"
        );
        assert!(
            self.inject_now.is_clear() && self.inject_next.is_clear(),
            "pristine fabric: pending instruction injections"
        );
        assert_eq!(
            self.grid.total_queued(),
            0,
            "pristine fabric: NoC links hold entries"
        );
        assert_eq!(
            self.feeders_pending, 0,
            "pristine fabric: feeder tokens pending"
        );
        assert!(
            self.south_collected.is_empty() && self.east_collected.is_empty(),
            "pristine fabric: collectors hold entries"
        );
        assert!(
            (0..self.rows.len()).all(|r| self.rows.programs[r].is_none()),
            "pristine fabric: orchestrator programs installed"
        );
        assert!(
            !self.eager.on
                && self.eager.held.is_none()
                && self
                    .eager
                    .issued
                    .iter()
                    .all(|t| *t == ColumnTally::default())
                && self.eager.due_load == [Tally::default(); 3]
                && self.eager.due_commit == [Tally::default(); 3],
            "pristine fabric: eager execution state left over"
        );
        assert!(self.trace.is_none(), "pristine fabric: trace sink attached");
        for r in 0..self.cfg.rows {
            for c in 0..self.cfg.cols {
                let pe = self.pes.pe(r * self.cfg.cols + c);
                for w in 0..pe.dmem.len() {
                    assert_eq!(
                        pe.dmem.word(w),
                        Vector::ZERO,
                        "pristine fabric: dmem residue at PE ({r},{c}) word {w}"
                    );
                }
                for w in 0..pe.spad.len() {
                    assert_eq!(
                        pe.spad.word(w),
                        Vector::ZERO,
                        "pristine fabric: spad residue at PE ({r},{c}) word {w}"
                    );
                }
            }
        }
        let rep = self.report();
        assert_eq!(rep.cycles, 0, "pristine fabric: reported cycles");
        let s = &rep.stats;
        assert!(
            s.instrs_executed == 0
                && s.mac_instrs == 0
                && s.dmem_reads == 0
                && s.dmem_writes == 0
                && s.spad_reads == 0
                && s.spad_writes == 0
                && s.noc_hops == 0
                && s.orch_steps == 0
                && s.stall_cycles == 0
                && s.meta_tokens == 0
                && s.offchip_read_bytes == 0
                && s.offchip_write_bytes == 0
                && s.replayed_cycles == 0
                && s.replay_stretches == 0,
            "pristine fabric: nonzero statistics in report: {s:?}"
        );
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &CanonConfig {
        &self.cfg
    }

    /// Mutable access to a PE's memories (kernel mappers preload data
    /// memories).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn pe_mut(&mut self, r: usize, c: usize) -> PeMut<'_> {
        assert!(
            r < self.cfg.rows && c < self.cfg.cols,
            "PE index out of bounds"
        );
        self.assert_usable();
        self.pes.pe_mut(r * self.cfg.cols + c)
    }

    /// Installs an orchestrator program on row `r`. Kernel FSMs convert
    /// directly (`fabric.set_program(r, SpmmFsm::new(...))`); arbitrary
    /// programs go through [`RowProgram::custom`].
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn set_program(&mut self, r: usize, program: impl Into<RowProgram>) {
        self.assert_usable();
        self.rows.programs[r] = Some(program.into());
    }

    /// Sets row `r`'s input meta-data stream.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn set_meta_stream(&mut self, r: usize, stream: Vec<MetaToken>) {
        self.assert_usable();
        self.rows.meta[r] = stream;
        self.rows.meta_pos[r] = 0;
    }

    /// Attaches a trace sink: from the next cycle on, every engine layer
    /// records cycle-stamped [`crate::trace::TraceEvent`]s into it. Attach
    /// **before the first cycle** for a stream that
    /// [`crate::trace::replay_stats`] can replay into the exact
    /// [`RunReport`]; a mid-run attach still yields exact counter *totals*
    /// (the header snapshots the counter bases) but cannot describe the
    /// cycles already simulated.
    ///
    /// Keep a handle to the sink's storage (e.g. a
    /// [`crate::trace::VecSink`] clone) — [`Fabric::take_trace_sink`] gives
    /// the sink back after the run.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        // Traces need the per-cycle event order: an attached sink keeps
        // `run` on the stepping sweep.
        self.assert_usable();
        self.trace = Some(Box::new(TraceRecorder::new(
            sink,
            self.cfg.rows,
            self.cfg.cols,
            &self.grid,
            self.extra_offchip_read,
            self.extra_offchip_write,
        )));
    }

    /// Detaches the trace recorder, closing the stream: all pending wait
    /// spans are flushed and the [`crate::trace::TraceEvent::RunEnd`] footer
    /// is recorded. Returns the sink, or `None` when no trace was attached.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut tr = self.trace.take()?;
        tr.finish(
            self.cycle,
            self.extra_offchip_read,
            self.extra_offchip_write,
            self.active_pe_cycles,
            self.batched_pe_cycles,
        );
        Some(tr.into_sink())
    }

    /// Queues north-edge stream tokens for column `c` (one token enters the
    /// array per column per cycle at most).
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of bounds.
    pub fn set_feeder(&mut self, c: usize, tokens: Vec<TaggedVector>) {
        self.assert_usable();
        if !self.feeders[c].is_empty() {
            self.feeders_pending -= 1;
        }
        self.feeders[c] = tokens.into();
        if !self.feeders[c].is_empty() {
            self.feeders_pending += 1;
        }
    }

    /// Accounts additional off-chip read traffic (operand streams / preload)
    /// known to the kernel mapper.
    pub fn add_offchip_read_bytes(&mut self, bytes: u64) {
        self.extra_offchip_read += bytes;
    }

    /// Accounts additional off-chip write traffic.
    pub fn add_offchip_write_bytes(&mut self, bytes: u64) {
        self.extra_offchip_write += bytes;
    }

    /// Values that exited the south edge so far, in (cycle, lane) order.
    pub fn south_collected(&self) -> &[CollectedEntry] {
        self.assert_usable();
        &self.south_collected
    }

    /// Values that exited the east edge so far, in (cycle, lane) order.
    pub fn east_collected(&self) -> &[CollectedEntry] {
        self.assert_usable();
        &self.east_collected
    }

    /// Under `debug_assertions`, checks the fabric is not left over from an
    /// eager run that failed: such a fabric holds effects of cycles it
    /// never reached, and accepts only [`Fabric::report`] and
    /// [`Fabric::reset`].
    #[inline]
    fn assert_usable(&self) {
        debug_assert!(
            !self.eager.poisoned,
            "fabric used after a failed eager run: only report() and reset() are valid"
        );
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of PEs currently in the active set.
    pub fn active_pe_count(&self) -> usize {
        self.active.count()
    }

    /// Coordinates `(row, col)` of the PEs currently in the active set, in
    /// row-major order (diagnostics / tests; allocates).
    pub fn active_pes(&self) -> Vec<(usize, usize)> {
        let cols = self.cfg.cols;
        self.active
            .iter_ids()
            .map(|idx| (idx / cols, idx % cols))
            .collect()
    }

    /// Dispatches orchestrator row `r` at cycle `now`: delivers due
    /// credits, steps the FSM unless the row is drained, and applies its
    /// action.
    fn step_row(&mut self, r: usize, now: u64) -> Result<(), SimError> {
        let nrows = self.cfg.rows;
        let cols = self.cfg.cols;
        // Deliver due credit returns (observable only from this row's own
        // step).
        while self.rows.credit_returns[r]
            .front()
            .is_some_and(|&deliver| deliver <= now)
        {
            self.rows.credit_returns[r].pop_front();
            self.rows.south_credits[r] += 1;
        }
        let has_deliverable_msg = self.rows.inbox[r]
            .front()
            .is_some_and(|&(deliver, _)| deliver <= now);
        if self.rows.programs[r].is_none() || (self.rows.done(r) && !has_deliverable_msg) {
            return Ok(());
        }
        let io = OrchIo {
            cycle: now,
            input: self.rows.meta[r].get(self.rows.meta_pos[r]).copied(),
            msg: self.rows.inbox[r]
                .front()
                .filter(|&&(deliver, _)| deliver <= now)
                .map(|&(_, m)| m),
            south_credits: self.rows.south_credits[r],
            msg_slot_free: r + 1 >= nrows
                || self.rows.inbox[r + 1].len() < self.cfg.orch_msg_capacity,
            // A PE push (stamped at its COMMIT) becomes visible the cycle
            // after; a feeder push (row 0) the cycle it happens.
            north_tokens: self.grid.vertical_ref(r, 0).len_before(if r == 0 {
                now + 1
            } else {
                now
            }),
        };
        let action = self.rows.programs[r]
            .as_mut()
            .expect("checked present above")
            .step(&io);
        self.rows.orch_steps[r] += 1;
        debug_assert!(
            action.state_id != NO_STATE,
            "state id {NO_STATE} is reserved as the never-stepped sentinel"
        );
        if self.rows.last_state[r] != action.state_id {
            if self.rows.last_state[r] != NO_STATE {
                self.rows.transitions[r] += 1;
            }
            self.rows.last_state[r] = action.state_id;
        }
        if let Some(cause) = action.stall_cause() {
            self.rows.stall_causes[r].add(cause, 1);
        }
        if action.consumes_input() {
            self.rows.meta_pos[r] += 1;
            self.rows.meta_consumed[r] += 1;
        }
        if action.consumes_msg() {
            self.rows.inbox[r].pop_front();
        }
        let instr = action.instr;
        if instr.pushes_toward(Direction::South) && r + 1 < nrows {
            if self.rows.south_credits[r] == 0 {
                return Err(SimError::Deadlock {
                    cycle: now,
                    waiting_on: format!("row {r} issued a south push without credit (FSM bug)"),
                });
            }
            self.rows.south_credits[r] -= 1;
        }
        if instr.pops_from(Direction::North) && r > 0 {
            let deliver = now + self.cfg.orch_msg_latency;
            self.rows.credit_returns[r - 1].push_back(deliver);
        }
        if let Some(m) = action.msg_out() {
            self.rows.messages_sent[r] += 1;
            if r + 1 < nrows {
                if self.rows.inbox[r + 1].len() >= self.cfg.orch_msg_capacity {
                    return Err(SimError::Deadlock {
                        cycle: now,
                        waiting_on: format!("row {r} overflowed the message channel"),
                    });
                }
                let deliver = now + self.cfg.orch_msg_latency;
                self.rows.inbox[r + 1].push_back((deliver, m));
            }
        }
        debug_assert!(
            self.inject_now.kind[r * cols] == Inject::None,
            "column-0 injection slot not consumed"
        );
        // Issue. Real instructions are interned once and thereafter march
        // east as 4-byte handles. Bubbles are elided: architecturally inert,
        // they are settled as `cols` instruction latches and a drain-horizon
        // extension instead of marching through the pipeline (see
        // [`Inject`]).
        let mut issued_handle = None;
        if instr.is_plain_nop() {
            self.elided_bubbles += 1;
            self.bubble_horizon = self.bubble_horizon.max(now + 3 * cols as u64);
        } else {
            // Decode once per issue. Fast plans validate their (per-issue
            // constant) addresses here and charge the whole row's
            // executions, so neither the per-column LOAD/COMMIT nor the
            // eager row loop runs bounds checks or counter updates for them.
            let plan = Plan::classify(&instr);
            if plan != Plan::Generic {
                self.pes.validate_and_account(plan, cols)?;
            }
            if self.eager.on && (plan != Plan::Generic || !self.needs_next_issue(r, &instr)) {
                self.issue_eagerly(r, &instr, plan, now);
            } else {
                if self.eager.on {
                    self.leave_eager();
                }
                self.inject_now.put(r * cols, instr, plan, &mut self.ring);
                self.active.insert(r * cols);
            }
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            if !instr.is_plain_nop() {
                issued_handle = Some(self.inject_now.handle[r * cols]);
            }
            tr.on_orch_step(now, r, &action, issued_handle);
        }
        Ok(())
    }

    /// Advances the fabric by one cycle on the stepping sweep.
    ///
    /// # Errors
    ///
    /// Returns protocol errors (router conflicts, FIFO over/underflow,
    /// address violations) detected during the cycle.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.assert_usable();
        self.cycle_once()
    }

    /// One cycle: phases 1–2, the stepping sweep (phases 3–4) unless
    /// running eagerly, phases 5–6, then the end-of-cycle tally fold.
    fn cycle_once(&mut self) -> Result<(), SimError> {
        let now = self.cycle;

        // 1. North-edge feeders: at most one token per column per cycle.
        if self.feeders_pending > 0 {
            self.feed(now);
        }

        // 2. Orchestrator phase: every row, in ascending order (the order
        // matters for the message-channel checks). A finished orchestrator
        // is still stepped while deliverable messages are pending: its FSM
        // keeps the bypass transitions of the DONE state so upstream rows
        // can drain through it. Under eager execution each real issue also
        // runs to completion here.
        for r in 0..self.cfg.rows {
            self.step_row(r, now)?;
        }

        // Errors found ahead of time are raised when their cycle's sweep
        // would have run, in the sweep's order (a run that left eager
        // execution can meet both kinds in one cycle).
        let (south, east) = if self.eager.on {
            self.eager.cycles += 1;
            (false, false)
        } else {
            match self.sweep(now) {
                Ok(edges) => edges,
                Err((pe, phase, err)) => {
                    return Err(self.eager.take_held_before((now, pe, phase)).unwrap_or(err))
                }
            }
        };
        if let Some(err) = self.eager.take_held_before((now + 1, 0, 0)) {
            return Err(err);
        }
        let queued = self.eager.sink_queued > 0;
        if south || east || queued {
            self.drain_sinks(now, south || queued, east || queued);
        }

        // 6. Trace epilogue: diff the NoC push counters and off-chip bytes
        // against the last scan (zero work without a sink).
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.end_of_cycle(
                now,
                &self.grid,
                self.extra_offchip_read,
                self.extra_offchip_write,
            );
        }

        // Fold the eager counts due this cycle into the totals.
        let due = self.eager.fold(now, self.cfg.cols);
        self.pes.charge(&due.act);
        self.eager.pushes += due.pushes;
        self.cycle += 1;
        Ok(())
    }

    /// Phase 1: each column's feeder pushes its next token when the edge
    /// FIFO has room. Occupancy counts tokens already popped by eager
    /// issues until their pop stamp; a token an eager pop reserved passes
    /// straight through to that pop. A token landing on column c wakes its
    /// consumer PE (0, c).
    fn feed(&mut self, now: u64) {
        let depth = self.cfg.link_fifo_depth;
        for c in 0..self.cfg.cols {
            let Some(&tok) = self.feeders[c].front() else {
                continue;
            };
            let inflight = &mut self.eager.inflight[c];
            while inflight.front().is_some_and(|&p| p < now) {
                inflight.pop_front();
            }
            let link = self.grid.vertical(0, c);
            if link.len() + inflight.len() < depth {
                link.push(tok, now, "north feeder")
                    .expect("the feeder checks occupancy first");
                if let Some(p) = self.eager.reserved[c].pop_front() {
                    debug_assert!(link.len() == 1, "reservations imply an empty edge FIFO");
                    link.pop(now, "north feeder").expect("just pushed");
                    inflight.push_back(p);
                } else if self.eager.on {
                    self.eager.queued += 1;
                } else {
                    self.active.insert(c);
                }
                self.feeders[c].pop_front();
                if self.feeders[c].is_empty() {
                    self.feeders_pending -= 1;
                }
                self.extra_offchip_read += self.feeder_bytes_per_token;
            }
            // A reservation still unpushed at its stamp is an underflow.
            if let Some(&p) = self.eager.reserved[c].front() {
                if p <= now {
                    let ctx = ErrCtx::Pop {
                        dir: Direction::North,
                        pe: (0, c),
                    };
                    self.eager.hold((p, c, LOAD), Link::pop_underflow(p, ctx));
                }
            }
        }
    }

    /// Phases 3–4 of the stepping engine; returns which edges (south,
    /// east) had a sink driven, or the first error with its PE id and
    /// phase.
    fn sweep(&mut self, now: u64) -> Result<(bool, bool), (usize, u8, SimError)> {
        let cols = self.cfg.cols;
        let nrows = self.cfg.rows;
        // 3. Active sweep: COMMIT (NoC pushes, eastward forwarding), EXECUTE
        // and LOAD for every live PE, in PE-id order. Processing each PE's
        // three phases back to back is cycle-identical to phase barriers
        // because dataflow is strictly south/east-bound: a link's producer
        // always has a smaller id than its consumer, so same-cycle pushes
        // are committed before the consuming LOAD runs (see module docs).
        // Each word is copied before scanning it: PEs woken mid-sweep by a
        // push have no same-cycle work and are picked up next cycle.
        //
        // The same producer-before-consumer ordering makes a PE's
        // next-cycle activity fully known by the time its turn ends (its
        // west neighbour's forwarding commit and all pushes into its input
        // links have already run), so deactivation happens inline instead of
        // in a second sweep. The row/column of each id is tracked
        // incrementally — ids are visited in ascending order, so no
        // divisions run in the loop.
        self.active_pe_cycles += self.active.count() as u64;
        let mut south_sink_dirty = false;
        let mut east_sink_dirty = false;
        let mut r = 0usize;
        let mut row_base = 0usize;
        for w in 0..self.active.word_count() {
            let mut bits = self.active.word(w);
            while bits != 0 {
                let idx = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                while idx >= row_base + cols {
                    r += 1;
                    row_base += cols;
                }
                let c = idx - row_base;
                // COMMIT writes a retiring instruction's 4-byte handle
                // straight into the eastern neighbour's injection slot and
                // reports its link drives as flags.
                let has_east = c + 1 < cols;
                // Peek the retiring handle before COMMIT consumes the slot
                // (trace-only; the branch is the hook's entire cost).
                let traced_commit = if self.trace.is_some() {
                    self.pes.commit_handle(idx)
                } else {
                    None
                };
                let eff = self
                    .pes
                    .commit_into(
                        idx,
                        &self.ring,
                        &mut self.grid,
                        r,
                        c,
                        now,
                        if has_east {
                            Some(&mut self.inject_next.handle[idx + 1])
                        } else {
                            None
                        },
                    )
                    .map_err(|e| (idx, COMMIT, e))?;
                if eff.retired {
                    if let Some(h) = traced_commit {
                        let op = self.ring.get(h).op;
                        if let Some(tr) = self.trace.as_deref_mut() {
                            tr.on_commit(now, r, c, h, op);
                        }
                    }
                    if has_east {
                        self.inject_next.kind[idx + 1] = Inject::Instr;
                        self.active.insert(idx + 1);
                    }
                    if eff.drives_south {
                        if r + 1 < nrows {
                            self.active.insert(idx + cols);
                        } else {
                            south_sink_dirty = true;
                        }
                    }
                    if eff.drives_east && !has_east {
                        east_sink_dirty = true;
                    }
                }
                let mut loaded = true;
                match self.inject_now.kind[idx] {
                    Inject::None => loaded = false,
                    Inject::Instr => {
                        self.inject_now.kind[idx] = Inject::None;
                        // A fresh orchestrator issue (column 0) has its
                        // §3.1 route rules validated here; the identical
                        // eastward-forwarded copies skip the re-check.
                        self.pes
                            .load(
                                idx,
                                self.inject_now.handle[idx],
                                &self.ring,
                                &mut self.grid,
                                r,
                                c,
                                now,
                                c == 0,
                            )
                            .map_err(|e| (idx, LOAD, e))?;
                    }
                }
                // Inline deactivation: a PE leaves the set once its
                // pipeline, pending injection, and input links are all
                // empty. The condition is exact (everything that could
                // change it this cycle has already run), which is what lets
                // `quiescent()` trust `active.is_empty()`. A PE that just
                // loaded is trivially still live — the common case costs one
                // branch.
                if !loaded
                    && self.pes.pipeline_empty(idx)
                    && self.inject_next.kind[idx] == Inject::None
                    && self.grid.pe_inputs_empty(r, c)
                {
                    self.active.remove(idx);
                }
            }
        }

        // 4. Advance pipelines (O(1) stage-index rotation); next cycle's
        // column > 0 injections become current. Every pending injection was
        // consumed by the sweep (a pending slot implies an active bit), so
        // the swapped-out array needs no clearing.
        self.pes.advance();
        std::mem::swap(&mut self.inject_now, &mut self.inject_next);
        debug_assert!(
            self.inject_next.is_clear(),
            "injection leaked past the active sweep"
        );

        Ok((south_sink_dirty, east_sink_dirty))
    }

    /// Phase 5: drains the edge sinks straight into the collectors — the
    /// sink links are popped in place, with no per-edge temporary
    /// collection — taking every entry stamped at or before `now`, lanes in
    /// ascending order, so the collectors stay in (cycle, lane) order. The
    /// stepping sweep drains an edge on cycles in which a bottom-row or
    /// east-column commit drove it, and its entries exit the cycle they
    /// were pushed; eager pushes queue ahead and drain on their cycle.
    fn drain_sinks(&mut self, now: u64, south: bool, east: bool) {
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        let mut left = 0;
        if south {
            for c in 0..cols {
                let link = self.grid.vertical(rows, c);
                while let Some(e) = link.pop_due(now) {
                    if let Some(tr) = self.trace.as_deref_mut() {
                        tr.on_collect(now, Direction::South, c, e.tag);
                    }
                    self.south_collected.push(CollectedEntry {
                        tag: e.tag,
                        lane: c,
                        value: e.value,
                        cycle: now,
                    });
                }
                left += link.len() as u64;
            }
        }
        if east {
            for r in 0..rows {
                let link = self.grid.horizontal(r, cols);
                while let Some(e) = link.pop_due(now) {
                    if let Some(tr) = self.trace.as_deref_mut() {
                        tr.on_collect(now, Direction::East, r, e.tag);
                    }
                    self.east_collected.push(CollectedEntry {
                        tag: e.tag,
                        lane: r,
                        value: e.value,
                        cycle: now,
                    });
                }
                left += link.len() as u64;
            }
        }
        if self.eager.sink_queued > 0 {
            self.eager.sink_queued = left;
        }
    }

    /// True when `instr`'s west pops cannot be settled at issue: at some
    /// column `c ≥ 1` the west link holds fewer entries than the
    /// instruction pops, even counting its own east push from column
    /// `c − 1`, so the pop would take the push of the row's *next* issue
    /// (committed at column `c − 1` in the cycle this one loads at `c`) —
    /// or underflow, if there is none.
    fn needs_next_issue(&self, r: usize, instr: &Instruction) -> bool {
        let west = Addr::Port(Direction::West);
        let route_from_west = instr.route.is_some_and(|rt| rt.from == Direction::West);
        let pops = (instr.op1 == west) as usize
            + (instr.op2 == west) as usize
            + (route_from_west && instr.op1 != west && instr.op2 != west) as usize;
        if pops == 0 {
            return false;
        }
        let own = (instr.op != Opcode::Nop && instr.res == Addr::Port(Direction::East)) as usize
            + instr.route.is_some_and(|rt| rt.to == Direction::East) as usize;
        (1..self.cfg.cols).any(|c| self.grid.horizontal_ref(r, c).len() + own < pops)
    }

    /// Leaves eager execution for the stepping sweep for the rest of the
    /// run (see the module docs): PEs with queued input entries join the
    /// active set, which from now on keeps the fabric from quiescing while
    /// entries remain.
    fn leave_eager(&mut self) {
        self.eager.on = false;
        self.eager.queued = 0;
        let cols = self.cfg.cols;
        for r in 0..self.cfg.rows {
            for c in 0..cols {
                if !self.grid.pe_inputs_empty(r, c) {
                    self.active.insert(r * cols + c);
                }
            }
        }
    }

    /// Runs row `r`'s issue of cycle `t` to completion on every column.
    fn issue_eagerly(&mut self, r: usize, instr: &Instruction, plan: Plan, t: u64) {
        let cols = self.cfg.cols;
        self.bubble_horizon = self.bubble_horizon.max(t + 3 * cols as u64);
        self.active_pe_cycles += cols as u64;
        self.batched_pe_cycles += cols as u64;
        if plan != Plan::Generic {
            self.pes.mac_row(plan, r * cols, cols);
            return;
        }
        // §3.1 route rules, checked at column 0's LOAD.
        if let Some(d) = instr.noc_conflict() {
            let err = SimError::RouterConflict {
                cycle: t,
                pe: (r, 0),
                direction: d.to_string(),
            };
            self.eager.hold((t, r * cols, LOAD), err);
            return;
        }
        self.eager.record(t, &ColumnTally::of(instr));
        for c in 0..cols {
            if let Err((at, phase, err)) = self.unit(r, c, instr, t + 3 * c as u64) {
                self.eager.hold((at, r * cols + c, phase), err);
                return;
            }
        }
    }

    /// One generic instruction at PE `(r, c)`, LOADed at `at` and COMMITted
    /// at `at + 2`, run back to back. An error comes with its cycle and
    /// phase.
    #[inline(always)]
    fn unit(
        &mut self,
        r: usize,
        c: usize,
        instr: &Instruction,
        at: u64,
    ) -> Result<(), (u64, u8, SimError)> {
        let idx = r * self.cfg.cols + c;
        let load_err = |e| (at, LOAD, e);
        let mut shared = None;
        let op1 = self
            .operand(idx, r, c, instr.op1, instr, at, &mut shared)
            .map_err(load_err)?;
        let op2 = self
            .operand(idx, r, c, instr.op2, instr, at, &mut shared)
            .map_err(load_err)?;
        // Read-modify-write opcodes read the old result value.
        let res_in = match (instr.op, instr.res) {
            (_, Addr::Port(_) | Addr::Null | Addr::Imm) => Vector::ZERO,
            (Opcode::MacV | Opcode::MacS | Opcode::Acc, a) => {
                self.pes.read_storage(idx, a).map_err(load_err)?
            }
            _ => Vector::ZERO,
        };
        let routed = match instr.route {
            Some(route) => Some(match shared {
                Some(e) => e,
                None => self.pop(route.from, r, c, at).map_err(load_err)?,
            }),
            None => None,
        };
        let result = PeArray::lane_result(instr.op, op1, op2, res_in);

        let done = at + 2;
        let commit_err = |e| (done, COMMIT, e);
        if instr.op != Opcode::Nop {
            match instr.res {
                Addr::Null => {}
                Addr::Imm => {
                    return Err(commit_err(SimError::AddressOutOfRange {
                        context: "write to immediate".into(),
                    }))
                }
                Addr::Port(d) => {
                    let tv = TaggedVector {
                        value: result,
                        tag: instr.tag,
                    };
                    self.push(d, tv, r, c, done).map_err(commit_err)?;
                }
                a => {
                    self.pes.write_storage(idx, a, result).map_err(commit_err)?;
                }
            }
        }
        if matches!(instr.op, Opcode::MovFlush | Opcode::AddFlush) {
            match instr.op1 {
                a @ (Addr::Spad(_) | Addr::Reg(_)) => {
                    self.pes
                        .write_storage(idx, a, Vector::ZERO)
                        .map_err(commit_err)?;
                }
                a => {
                    return Err(commit_err(SimError::AddressOutOfRange {
                        context: format!("flush-clear of non-storage operand {a}"),
                    }))
                }
            }
        }
        if let (Some(route), Some(entry)) = (instr.route, routed) {
            self.push(route.to, entry, r, c, done).map_err(commit_err)?;
        }
        Ok(())
    }

    /// Reads one operand of an eager LOAD at `at`. A port read pops; when
    /// the route pops the same direction, the one entry feeds both.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn operand(
        &mut self,
        idx: usize,
        r: usize,
        c: usize,
        addr: Addr,
        instr: &Instruction,
        at: u64,
        shared: &mut Option<TaggedVector>,
    ) -> Result<Vector, SimError> {
        match addr {
            Addr::Null => Ok(Vector::ZERO),
            Addr::Imm => Ok(instr.imm.unwrap_or(Vector::ZERO)),
            Addr::Port(d) => {
                let e = self.pop(d, r, c, at)?;
                if instr.route.is_some_and(|rt| rt.from == d) {
                    *shared = Some(e);
                }
                Ok(e.value)
            }
            a => self.pes.read_storage(idx, a),
        }
    }

    /// An eager pop of PE `(r, c)`'s port `d` at `at`.
    #[inline(always)]
    fn pop(&mut self, d: Direction, r: usize, c: usize, at: u64) -> Result<TaggedVector, SimError> {
        let ctx = ErrCtx::Pop { dir: d, pe: (r, c) };
        let link = match d {
            Direction::North if r == 0 && self.north_feeder => return self.feeder_pop(c, at, ctx),
            Direction::North => self.grid.vertical(r, c),
            Direction::West => self.grid.horizontal(r, c),
            Direction::South | Direction::East => {
                return Err(SimError::AddressOutOfRange {
                    context: format!(
                        "PE ({r},{c}) reads {d}: only south/east-bound dataflow is instantiated"
                    ),
                })
            }
        };
        let e = link.pop(at, ctx)?;
        if !link.is_zero_source() {
            self.eager.queued -= 1;
        }
        Ok(e)
    }

    /// An eager pop of north-edge column `c` at `at`: takes a pushed token
    /// when one is queued, otherwise reserves the feeder's next unreserved
    /// token, which `feed` must push by `at`.
    fn feeder_pop(&mut self, c: usize, at: u64, ctx: ErrCtx) -> Result<TaggedVector, SimError> {
        let link = self.grid.vertical(0, c);
        if !link.is_empty() {
            let e = link.pop(at, ctx)?;
            self.eager.queued -= 1;
            self.eager.inflight[c].push_back(at);
            return Ok(e);
        }
        let reserved = &mut self.eager.reserved[c];
        // This cycle's feed already ran: a token not pushed now is late.
        match self.feeders[c].get(reserved.len()) {
            Some(&tok) if at > self.cycle => {
                reserved.push_back(at);
                Ok(tok)
            }
            _ => Err(Link::pop_underflow(at, ctx)),
        }
    }

    /// An eager push out of PE `(r, c)` towards `d`, stamped `at`.
    #[inline(always)]
    fn push(
        &mut self,
        d: Direction,
        tv: TaggedVector,
        r: usize,
        c: usize,
        at: u64,
    ) -> Result<(), SimError> {
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        let ctx = ErrCtx::Push { dir: d, pe: (r, c) };
        let sink = match d {
            Direction::South if r + 1 == rows => Some(self.grid.vertical(rows, c)),
            Direction::East if c + 1 == cols => Some(self.grid.horizontal(r, cols)),
            _ => None,
        };
        if let Some(sink) = sink {
            // Queued until its cycle's phase 5 drains it in lane order.
            sink.push_ahead(tv, at);
            self.eager.sink_queued += 1;
            return Ok(());
        }
        match d {
            Direction::South | Direction::East => {
                let link = if d == Direction::South {
                    self.grid.vertical(r + 1, c)
                } else {
                    self.grid.horizontal(r, c + 1)
                };
                if !link.push_ahead(tv, at) {
                    return Err(Link::push_overflow(at, ctx));
                }
                self.eager.queued += 1;
            }
            Direction::North | Direction::West => {
                return Err(SimError::AddressOutOfRange {
                    context: format!(
                        "PE ({r},{c}) writes {d}: only south/east-bound dataflow is instantiated"
                    ),
                })
            }
        }
        Ok(())
    }

    /// True when all orchestrators are done, all pipelines and links are
    /// empty, and no messages or feeder tokens are pending.
    ///
    /// The active set makes this O(rows): an occupied pipeline, pending
    /// injection, or non-empty link keeps its PE active, so PE and NoC
    /// drain-state collapses to `active.is_empty()`.
    pub fn quiescent(&self) -> bool {
        self.active.is_empty()
            && self.eager.queued == 0
            && self.cycle >= self.bubble_horizon
            && self.feeders_pending == 0
            && (0..self.rows.len()).all(|r| self.rows.done(r) && self.rows.inbox[r].is_empty())
    }

    /// Runs until quiescent, returning the run report. Under
    /// [`Engine::Fast`] a run that starts at cycle 0 with no trace sink
    /// executes eagerly (see the module docs); after such a run fails, only
    /// [`Fabric::report`] and [`Fabric::reset`] are valid.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and reports a [`SimError::Deadlock`] if the
    /// watchdog budget is exhausted before the fabric drains.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.assert_usable();
        let eager = self.cfg.engine == Engine::Fast && self.cycle == 0 && self.trace.is_none();
        if eager {
            self.eager.on = true;
            self.eager.runs += 1;
        }
        let work: u64 = (0..self.rows.len())
            .map(|r| self.rows.meta_left(r) as u64)
            .sum::<u64>()
            + self.feeders.iter().map(|f| f.len() as u64).sum::<u64>();
        let budget = self
            .cfg
            .watchdog_factor
            .saturating_mul(work + (self.cfg.rows + self.cfg.cols) as u64)
            .saturating_add(self.cfg.watchdog_slack);
        let start = self.cycle;
        let wall_start = std::time::Instant::now();
        // Harness budgets and fault sentinels, pre-extracted so the common
        // (unset) case costs two always-false compares per iteration and no
        // Option matching inside the loop.
        let panic_at = match self.cfg.fault {
            Some(crate::fault::FaultAction::PanicAt { cycle }) => start.saturating_add(cycle),
            _ => u64::MAX,
        };
        let slow_ns = match self.cfg.fault {
            Some(crate::fault::FaultAction::SlowCycle { nanos }) => nanos,
            _ => 0,
        };
        let cycle_ceiling = match self.cfg.max_cycles {
            Some(m) => start.saturating_add(m),
            None => u64::MAX,
        };
        let wall_budget_ns = self.cfg.wall_budget_ns.unwrap_or(u64::MAX);
        // Wall-clock checks are amortised over 1024 cycles so `Instant::now`
        // stays off the hot path — except under an injected slow-cycle
        // fault, where each iteration already sleeps and a coarse check
        // would overshoot the budget by seconds.
        let wall_check_mask: u64 = if slow_ns != 0 { 0 } else { 0x3FF };
        let result = loop {
            if self.quiescent() {
                break Ok(());
            }
            if self.cycle >= panic_at {
                panic!(
                    "injected fault: forced panic at cycle {} (FaultAction::PanicAt)",
                    self.cycle
                );
            }
            if slow_ns != 0 {
                std::thread::sleep(std::time::Duration::from_nanos(slow_ns));
            }
            if self.cycle >= cycle_ceiling {
                break Err(SimError::Timeout {
                    cycle: self.cycle,
                    budget: format!(
                        "cycle ceiling {} cycles",
                        self.cfg.max_cycles.unwrap_or_default()
                    ),
                });
            }
            if (self.cycle - start) & wall_check_mask == 0
                && wall_start.elapsed().as_nanos() as u64 > wall_budget_ns
            {
                break Err(SimError::Timeout {
                    cycle: self.cycle,
                    budget: format!(
                        "wall-clock budget {} ns",
                        self.cfg.wall_budget_ns.unwrap_or_default()
                    ),
                });
            }
            if self.cycle - start > budget {
                let waiting: Vec<String> = (0..self.rows.len())
                    .filter(|&r| !self.rows.done(r))
                    .map(|r| format!("row {r} ({} meta left)", self.rows.meta_left(r)))
                    .collect();
                break Err(SimError::Deadlock {
                    cycle: self.cycle,
                    waiting_on: if waiting.is_empty() {
                        "pipeline/NoC drain".into()
                    } else {
                        waiting.join(", ")
                    },
                });
            }
            if let Err(e) = self.cycle_once() {
                break Err(e);
            }
        };
        self.eager.on = false;
        self.eager.poisoned = eager && result.is_err();
        // Accumulated on the error path too, so a report taken after a
        // watchdog/protocol abort still attributes the wall time spent.
        self.wall_ns += wall_start.elapsed().as_nanos() as u64;
        result?;
        // The run drained: give back the edge sinks' growth overshoot (they
        // are empty — step 5 drains them the cycle they are pushed), so a
        // finished cell's fabric holds only high-water footprints while its
        // collectors are post-processed ([`Link::reset`]).
        self.grid.reset_links();
        Ok(self.report())
    }

    /// Builds the report for the cycles simulated so far.
    pub fn report(&self) -> RunReport {
        let mut stats = Stats::new();
        self.pes.activity().add_to(&mut stats);
        stats.noc_hops = self.grid.total_pushes() + self.eager.pushes;
        for r in 0..self.rows.len() {
            stats.orch_steps += self.rows.orch_steps[r];
            stats.orch_transitions += self.rows.transitions[r];
            stats.orch_messages += self.rows.messages_sent[r];
            stats.stall_cycles += self.rows.stall_causes[r].total();
            stats.stall_breakdown.merge(&self.rows.stall_causes[r]);
            stats.meta_tokens += self.rows.meta_consumed[r];
        }
        // Elided bubbles: each would have latched into every column of its
        // row (`cols` pipeline NOPs counted by the marching simulator).
        stats.instrs_executed += self.elided_bubbles * self.cfg.cols as u64;
        stats.offchip_read_bytes = self.extra_offchip_read;
        stats.offchip_write_bytes = self.extra_offchip_write;
        stats.active_pe_cycles = self.active_pe_cycles;
        stats.batched_pe_cycles = self.batched_pe_cycles;
        stats.replayed_cycles = self.eager.cycles;
        stats.replay_stretches = self.eager.runs;
        RunReport {
            cycles: self.cycle,
            pes: self.cfg.pe_count(),
            stats,
            wall_ns: self.wall_ns,
        }
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("rows", &self.cfg.rows)
            .field("cols", &self.cfg.cols)
            .field("cycle", &self.cycle)
            .field("active", &self.active.count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Addr, Opcode};
    use crate::orchestrator::OrchAction;
    use crate::stats::StallCause;

    /// A scripted orchestrator that plays back a fixed instruction sequence.
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

    fn small_cfg() -> CanonConfig {
        CanonConfig {
            rows: 2,
            cols: 3,
            dmem_words: 16,
            spad_entries: 4,
            ..CanonConfig::default()
        }
    }

    #[test]
    fn staggered_issue_reaches_column_c_at_3c() {
        // One instruction that pushes its dmem word south; dmem preloaded
        // with distinct values per column. The south-edge collector records
        // the exit cycle per column: issue at cycle 0 → commit at column c at
        // cycle 3c + 2.
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        for c in 0..3 {
            f.pe_mut(1, c).dmem.preload(0, &[Vector::splat(c as i32)]);
        }
        let flush = Instruction::new(
            Opcode::Mov,
            Addr::DataMem(0),
            Addr::Null,
            Addr::Port(Direction::South),
        )
        .with_tag(7);
        f.set_program(
            1,
            RowProgram::custom(Script {
                instrs: vec![flush].into(),
            }),
        );
        f.run().unwrap();
        let got = f.south_collected();
        assert_eq!(got.len(), 3);
        for e in got {
            assert_eq!(e.tag, 7);
            assert_eq!(e.value, Vector::splat(e.lane as i32));
            // LOAD at 3c, COMMIT at 3c + 2.
            assert_eq!(e.cycle, 3 * e.lane as u64 + 2);
        }
    }

    #[test]
    fn pipelined_throughput_one_instruction_per_cycle() {
        // N flushes issued back-to-back: last exit cycle = (N-1) + 3(C-1) + 2.
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        let n = 5;
        let instrs: Vec<Instruction> = (0..n)
            .map(|i| {
                Instruction::new(
                    Opcode::Mov,
                    Addr::Imm,
                    Addr::Null,
                    Addr::Port(Direction::South),
                )
                .with_imm(Vector::splat(i as i32))
                .with_tag(i as u32)
            })
            .collect();
        f.set_program(
            1,
            RowProgram::custom(Script {
                instrs: instrs.into(),
            }),
        );
        f.run().unwrap();
        let got = f.south_collected();
        assert_eq!(got.len(), n * 3);
        let last = got.iter().map(|e| e.cycle).max().unwrap();
        assert_eq!(last, (n as u64 - 1) + 3 * 2 + 2);
    }

    #[test]
    fn quiescent_initially_and_after_run() {
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        assert!(f.quiescent());
        assert_eq!(f.active_pe_count(), 0);
        f.set_program(
            0,
            RowProgram::custom(Script {
                instrs: VecDeque::new(),
            }),
        );
        let r = f.run().unwrap();
        assert_eq!(r.cycles, 0);
        assert_eq!(f.active_pe_count(), 0);
    }

    #[test]
    fn watchdog_fires_on_stuck_program() {
        struct Stuck;
        impl OrchProgram for Stuck {
            fn step(&mut self, _io: &OrchIo) -> OrchAction {
                OrchAction::stall(0, StallCause::Credit)
            }
            fn done(&self) -> bool {
                false
            }
        }
        let mut cfg = small_cfg();
        cfg.watchdog_factor = 1;
        cfg.watchdog_slack = 50;
        let mut f = Fabric::new(&cfg, false);
        f.set_program(0, RowProgram::custom(Stuck));
        assert!(matches!(f.run(), Err(SimError::Deadlock { .. })));
    }

    #[test]
    fn report_counts_instructions_and_stalls() {
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        let instrs: Vec<Instruction> = vec![Instruction::NOP; 4];
        f.set_program(
            0,
            RowProgram::custom(Script {
                instrs: instrs.into(),
            }),
        );
        let r = f.run().unwrap();
        // 4 NOPs each latch into 3 PEs — counted despite never marching
        // (bubble elision credits them at report time).
        assert_eq!(r.stats.instrs_executed, 12);
        assert_eq!(r.stats.compute_instrs, 0);
        assert_eq!(r.stats.orch_steps, 4);
        // Bubbles are elided at issue, so the sweep never visits a PE: the
        // marching simulator would have spent 18 PE-cycles on them. The
        // cycle count still covers the full drain (last bubble issued at
        // cycle 3 + 3 columns × 3 stages).
        assert_eq!(r.stats.active_pe_cycles, 0);
        assert_eq!(r.cycles, 3 + 9);
    }

    #[test]
    fn feeder_rate_is_one_token_per_cycle_per_column() {
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, true);
        // The popping instruction traverses all three columns, so every
        // column needs a feeder stream.
        for c in 0..3 {
            let tokens: Vec<TaggedVector> = (0..3)
                .map(|i| TaggedVector {
                    value: Vector::splat(i),
                    tag: i as u32,
                })
                .collect();
            f.set_feeder(c, tokens);
        }
        // A scripted program that pops north three times on row 0.
        let pop = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Null,
            Addr::Spad(0),
        );
        f.set_program(
            0,
            RowProgram::custom(Script {
                instrs: vec![pop, pop, pop].into(),
            }),
        );
        let r = f.run().unwrap();
        assert!(r.cycles >= 3);
        // 3 tokens × 3 columns × LANES bytes accounted as off-chip reads.
        assert_eq!(r.stats.offchip_read_bytes, 9 * LANES as u64);
    }

    #[test]
    fn active_set_follows_the_wavefront() {
        // A single issued instruction sweeps eastward; the active set tracks
        // exactly the PEs holding it (plus the injection ahead of it), and
        // empties once the fabric drains.
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        let i = Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(0))
            .with_imm(Vector::splat(1));
        f.set_program(
            0,
            RowProgram::custom(Script {
                instrs: vec![i].into(),
            }),
        );
        f.step().unwrap();
        // Cycle 0: the instruction loaded into PE (0,0).
        assert_eq!(f.active_pes(), vec![(0, 0)]);
        while !f.quiescent() {
            f.step().unwrap();
            // Row 1 never participates.
            assert!(f.active_pes().iter().all(|&(r, _)| r == 0));
        }
        assert_eq!(f.active_pe_count(), 0);
        // 1 instruction × 3 pipeline cycles × 3 columns of residence.
        assert_eq!(f.report().stats.active_pe_cycles, 9);
    }
}

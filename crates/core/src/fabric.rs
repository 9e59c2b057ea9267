//! The Canon fabric: PE array + orchestrators + NoC + edge movers, advanced
//! one cycle at a time.
//!
//! ## Cycle structure
//!
//! Each [`Fabric::step`] performs, in order:
//!
//! 1. **edge feed** — the north-edge stream movers push at most one token per
//!    column into the north edge FIFOs (SDDMM's `A` stream);
//! 2. **orchestrator phase** — every *woken* row delivers its due
//!    south-channel credits (visible after
//!    [`CanonConfig::orch_msg_latency`] cycles), then its FSM observes its
//!    meta stream head, delivered message, credits, and north-FIFO
//!    occupancy, and issues one instruction into column 0 (possibly NOP);
//!    rows whose observable inputs cannot have changed since their last
//!    decision are skipped entirely (see *Event-driven wakeups* below);
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
//! ## Event-driven wakeups
//!
//! The orchestrator phase is scheduled the same way, one level up: a
//! [`RowSched`] wake bitset tracks which rows must be *stepped* this cycle,
//! and everything a row's FSM can observe is covered by a wake event:
//!
//! * **link events** — a south push landing on a row's column-0 North FIFO
//!   (its `north_tokens` observable) wakes the consuming row, as does a
//!   north-edge feeder token on column 0;
//! * **timed events** — credit returns and inter-orchestrator messages are
//!   queued with a delivery cycle; the producer arms the consumer row's
//!   timer at enqueue time, and [`RowSched::fire_due`] moves due rows back
//!   into the wake set (one comparison per cycle when nothing is due);
//! * **slot events** — consuming a message frees the sender's
//!   `msg_slot_free` observable, waking the row above;
//! * **self events** — a row that made progress (consumed input, issued a
//!   real instruction, sent a message) trivially stays in the wake set.
//!
//! A row leaves the wake set when its action is a **pure wait**
//! ([`OrchAction::park`], set by every back-pressured stall) or when it has
//! drained. While parked it costs zero work per cycle; on wake the skipped
//! window is settled arithmetically — `orch_steps`, `stall_cycles`, and the
//! bubbles a polling orchestrator would have injected (`cols` pipeline NOPs
//! per skipped poll) are credited exactly, so cycle counts, results, and
//! every architectural counter stay byte-identical to
//! [`Engine::Reference`], which refills the wake set at every phase-2 entry
//! and never parks a row (`tests/event_wake.rs` diffs the two on random
//! programs). The only deliberately divergent counters are the engine
//! diagnostics that [`RunReport::architectural`] zeroes, which measure the
//! work actually performed.
//!
//! ## Engines
//!
//! [`CanonConfig::engine`] selects one of two engines. [`Engine::Fast`]
//! (the default) runs the event-driven orchestrator phase above, the
//! column-batch sweep over uniform columns ([`PeArray::batch_col`]), and
//! steady-state replay (`crate::replay`); the last two decide for
//! themselves from the uniformity of the issue stream. [`Engine::Reference`]
//! is the simplest correct engine — every row stepped every cycle, the
//! scalar per-PE sweep, no replay — and the oracle every fast path is
//! diffed against (`tests/event_wake.rs`, `tests/batch_column.rs`,
//! `tests/replay_differential.rs`).
//!
//! ## Instruction handle ring
//!
//! Issued instructions are interned once into a per-fabric [`InstrRing`]
//! (a power-of-two ring of issue records sized to the issue-to-retire
//! window, with generation tags checked under `debug_assertions`). The
//! injection queue, the pipeline-stage slots, and eastward COMMIT
//! forwarding all move 4-byte [`InstrHandle`]s; the ~44-byte record is
//! written once per issue and resolved in place at LOAD/COMMIT. Bubbles
//! never reach it: they are elided at issue (see `Inject`), so every
//! occupied pipeline slot holds a real, interned instruction.
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
//! [`Fabric::step`] is the simulator's cost center (it runs once per
//! simulated cycle for every sweep cell and figure), so its steady state is
//! allocation-free:
//!
//! * NoC error context is carried as copyable [`ErrCtx`](crate::noc::ErrCtx)
//!   descriptors and rendered only when a protocol error fires;
//! * edge sinks drain **in place** — step 4 pops each south/east sink link
//!   directly into the collector vectors (no per-edge temporary `Vec`), and
//!   the links themselves are fixed-capacity ring buffers;
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
use crate::isa::{Direction, InstrHandle, InstrRing, Instruction, Plan, PlanKind, Vector, LANES};
use crate::noc::{LinkGrid, TaggedVector};
use crate::orchestrator::{MetaToken, OrchIo, OrchMessage, OrchProgram, RowProgram};
use crate::pe::{PeArray, PeMut};
use crate::replay::{ReplayEntry, ReplayState, REPLAY_CHUNK};
use crate::sched::{ActiveSet, RowSched};
use crate::stats::{RunReport, StallBreakdown, StallCause, Stats};
use crate::trace::{TraceRecorder, TraceSink, WakeSource};
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

/// `u64` sentinel for "no value" in the row table's cycle-stamped fields.
const NEVER: u64 = u64::MAX;

/// Sentinel in [`RowTable::last_state`] for a row that has never stepped
/// (state ids are 3-bit in hardware, so the top byte value is free).
const NO_STATE: u8 = u8::MAX;

/// Per-row orchestrator state, struct-of-arrays: each field of the former
/// boxed per-row record is a flat array indexed by row id, mirroring
/// [`PeArray`]'s layout one level up. The (now sparse, event-driven) row
/// dispatch touches a handful of hot fields per woken row — the cursor into
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
    /// Cycle at which the row parked on a pure-wait action ([`NEVER`] when
    /// not parked). Settled arithmetically at the next wake.
    parked_at: Vec<u64>,
    /// Cause of the parked stall, if the parked action was one (its replay
    /// counts `stall_cycles` under that cause).
    parked_stall: Vec<Option<StallCause>>,
    /// Settled orchestrator polls skipped while parked (the event-engine
    /// saving reported as [`Stats::orch_polls_skipped`]).
    polls_skipped: Vec<u64>,
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
            parked_at: vec![NEVER; rows],
            parked_stall: vec![None; rows],
            polls_skipped: vec![0; rows],
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
        self.parked_at.fill(NEVER);
        self.parked_stall.fill(None);
        self.polls_skipped.fill(0);
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

/// One cell of the fabric's issue-uniformity window (see
/// [`Fabric::issue_window`]): what every row issued at one cycle, folded as
/// it happens. The cell tracks the *uniform prefix* of rows: the longest
/// run of rows `0..prefix` that each issued a real instruction of one
/// shared non-generic MAC shape — exactly the condition under which, `3c`
/// cycles later, rows `0..prefix` of fabric column `c` all hold that shape
/// and the column-vectorized batch sweep applies to them. `prefix == rows`
/// is the fully uniform cycle the replay engine requires; a partial prefix
/// still batches the prefix rows (PR 7's all-or-nothing detector collapsed
/// at tall fabrics, where one skewed row spoiled the whole column).
#[derive(Debug, Clone, Copy)]
struct IssueCell {
    /// Cycle this cell describes ([`NEVER`] when unwritten; the ring is
    /// sized so live cells are never overwritten, but staleness is checked,
    /// never assumed).
    cycle: u64,
    /// Plan shape of the uniform prefix (the shape row 0 issued);
    /// meaningless while `prefix == 0`.
    kind: PlanKind,
    /// Length of the uniform prefix: rows `0..prefix` each issued a real
    /// instruction of shape `kind` that cycle (rows fold in ascending
    /// order, so a bubble, generic, or mismatched issue freezes it).
    prefix: u32,
}

impl IssueCell {
    const EMPTY: IssueCell = IssueCell {
        cycle: NEVER,
        kind: PlanKind::Generic,
        prefix: 0,
    };
}

/// Minimum uniform prefix worth a partial column-batch pass: below this the
/// per-pass setup (injection bookkeeping, shape dispatch) outweighs the
/// vectorized sweep. Full columns always batch.
const MIN_BATCH_PREFIX: u32 = 4;

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
    /// Orchestrator-row wake bitset + delivery timers (see [`RowSched`]).
    sched: RowSched,
    /// Distinct row wake events raised (link, timer, and slot events).
    wake_events: u64,
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
    /// PE-cycles that went through the batch fast path (scheduler
    /// diagnostic, reported as [`Stats::batched_pe_cycles`]).
    batched_pe_cycles: u64,
    /// Power-of-two ring of per-cycle [`IssueCell`]s indexed by
    /// `cycle & (len − 1)`, deep enough to cover the issue-to-retire window
    /// (`3·cols` cycles): the batch detector reads the cells of the three
    /// issue cycles currently occupying each column's pipeline slots.
    issue_window: Vec<IssueCell>,
    /// Phase-3 scratch, reused every cycle:
    /// `Some((commit_kind, load_kind, prefix))` for columns taking the batch
    /// sweep this cycle — rows `0..prefix` batch, the rest stay scalar.
    col_batch: Vec<Option<(PlanKind, PlanKind, u32)>>,
    /// Steady-state stretch detection + macro-cycle replay (see
    /// [`crate::replay`]).
    replay: ReplayState,
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
            sched: RowSched::new(cfg.rows),
            wake_events: 0,
            // One issue per row per cycle, last read 3·cols − 1 cycles after
            // issue ⇒ the steady stream needs rows·(3·cols − 1) live
            // records. A replay flush additionally re-interns a whole
            // in-flight window (≈ 3·cols − 1 records per row) in one burst,
            // and those reconstructed records must survive up to 3·cols − 2
            // further cycles of normal issue before the last column retires
            // them — so the ring is sized to one burst plus one stream
            // window, keeping wraps strictly slower than retirement.
            ring: InstrRing::with_capacity(cfg.rows * (6 * cfg.cols + 2)),
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
            issue_window: vec![IssueCell::EMPTY; (3 * cfg.cols).next_power_of_two()],
            col_batch: vec![None; cfg.cols],
            replay: ReplayState::new(cfg.rows),
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
        self.sched.reset();
        self.wake_events = 0;
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
        self.issue_window.fill(IssueCell::EMPTY);
        self.col_batch.fill(None);
        self.replay.reset();
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
            self.sched.all_asleep(),
            "pristine fabric: orchestrator rows awake"
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
            !self.replay.active && self.replay.run_len == 0,
            "pristine fabric: replay stretch in flight"
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
                && s.replay_stretches == 0
                && s.wake_events == 0,
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
        // Direct memory access must observe (and may invalidate) deferred
        // accumulator state: settle any active replay stretch first.
        self.replay_interrupt();
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
        self.replay_interrupt();
        self.rows.programs[r] = Some(program.into());
        // A new program is a fresh decision source: wake the row and forget
        // any parked pure-wait of the previous program.
        self.rows.parked_at[r] = NEVER;
        self.sched.wake(r);
    }

    /// Sets row `r`'s input meta-data stream.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn set_meta_stream(&mut self, r: usize, stream: Vec<MetaToken>) {
        self.replay_interrupt();
        self.rows.meta[r] = stream;
        self.rows.meta_pos[r] = 0;
        // The meta head — an orchestrator observable — changed.
        self.sched.wake(r);
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
        // Traces need the per-cycle event order: settle any deferred state
        // and let the gate in `step` keep replay disengaged while attached.
        self.replay_interrupt();
        self.trace = Some(Box::new(TraceRecorder::new(
            sink,
            self.cfg.rows,
            self.cfg.cols,
            &self.grid,
            self.extra_offchip_read,
            self.extra_offchip_write,
        )));
    }

    /// Detaches the trace recorder, closing the stream: still-parked rows'
    /// pending windows are settled into their wait spans (exactly as
    /// [`Fabric::report`] settles them, without disturbing the rows' own
    /// accounting), all spans are flushed, and the
    /// [`crate::trace::TraceEvent::RunEnd`] footer is recorded. Returns the
    /// sink, or `None` when no trace was attached.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut tr = self.trace.take()?;
        let mut polls_skipped = 0;
        for r in 0..self.rows.len() {
            polls_skipped += self.rows.polls_skipped[r];
            if self.rows.parked_at[r] != NEVER {
                let pending = self.cycle.saturating_sub(self.rows.parked_at[r] + 1);
                polls_skipped += pending;
                if pending > 0 {
                    tr.on_settle(r, pending);
                }
            }
        }
        tr.finish(
            self.cycle,
            self.extra_offchip_read,
            self.extra_offchip_write,
            self.active_pe_cycles,
            polls_skipped,
            self.wake_events,
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
        self.replay_interrupt();
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

    /// Values that exited the south edge so far.
    pub fn south_collected(&self) -> &[CollectedEntry] {
        &self.south_collected
    }

    /// Values that exited the east edge so far.
    pub fn east_collected(&self) -> &[CollectedEntry] {
        &self.east_collected
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
    /// credits, settles any parked window, steps the FSM, applies its
    /// action, and decides whether the row stays in the wake set.
    fn step_row(&mut self, r: usize, now: u64) -> Result<(), SimError> {
        let nrows = self.cfg.rows;
        let cols = self.cfg.cols;
        // Deliver due credit returns (observable only from this row's own
        // step, so delivery can wait for a wake).
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
            // Drained: sleep until the next queued message (if any) becomes
            // deliverable. Done rows never re-park, so no settling needed.
            self.sched.sleep(r);
            if let Some(&(deliver, _)) = self.rows.inbox[r].front() {
                self.sched.arm(r, deliver);
            }
            return Ok(());
        }
        // Settle a parked window: the reference engine would have stepped
        // this row on every skipped cycle, repeating the parked pure-wait —
        // one orchestrator step (and stall, if stalled) plus one issued
        // bubble per cycle. Steps and stalls are credited here; the bubbles
        // (which touch nothing but per-PE instruction counters) are
        // credited as `polls_skipped × cols` in [`Fabric::report`].
        if self.rows.parked_at[r] != NEVER {
            let skipped = now - self.rows.parked_at[r] - 1;
            self.rows.orch_steps[r] += skipped;
            if let Some(cause) = self.rows.parked_stall[r] {
                self.rows.stall_causes[r].add(cause, skipped);
            }
            self.rows.polls_skipped[r] += skipped;
            self.rows.parked_at[r] = NEVER;
            if skipped > 0 {
                if let Some(tr) = self.trace.as_deref_mut() {
                    tr.on_settle(r, skipped);
                }
            }
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
            north_tokens: self.grid.vertical_ref(r, 0).len(),
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
            // Slot event: the northern row's `msg_slot_free` observable may
            // have flipped.
            if r > 0 && self.sched.wake(r - 1) {
                self.wake_events += 1;
                if let Some(tr) = self.trace.as_deref_mut() {
                    tr.on_wake(now, r - 1, WakeSource::SlotFreed);
                }
            }
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
            // Timed event: the row above observes the credit at `deliver`
            // (with zero latency, at its next step — it precedes us in the
            // dispatch order, exactly as under the reference engine).
            self.sched.arm(r - 1, deliver);
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
                if deliver <= now {
                    // Zero-latency message: the southern row observes it
                    // this very cycle (it follows us in dispatch order), so
                    // a timer — checked at phase start — would be a cycle
                    // late.
                    if self.sched.wake(r + 1) {
                        self.wake_events += 1;
                        if let Some(tr) = self.trace.as_deref_mut() {
                            tr.on_wake(now, r + 1, WakeSource::Message);
                        }
                    }
                } else {
                    self.sched.arm(r + 1, deliver);
                }
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
            // executions, so the per-column LOAD/COMMIT below runs neither
            // bounds checks nor counter updates for them.
            let plan = Plan::classify(&instr);
            if plan != Plan::Generic {
                self.pes.validate_and_account(plan, cols)?;
            }
            // Fold this issue into the cycle's uniform-prefix cell. Rows
            // dispatch in ascending order, so the prefix grows only while
            // every row so far issued the same non-generic shape; a bubble
            // or parked row simply never folds, freezing the prefix below
            // it in both engines identically.
            let slot = (now & (self.issue_window.len() as u64 - 1)) as usize;
            let cell = &mut self.issue_window[slot];
            let k = plan.kind();
            if cell.cycle != now {
                *cell = IssueCell {
                    cycle: now,
                    kind: k,
                    prefix: (r == 0 && k != PlanKind::Generic) as u32,
                };
            } else if cell.prefix == r as u32 && k == cell.kind && k != PlanKind::Generic {
                cell.prefix += 1;
            }
            self.inject_now.put(r * cols, instr, plan, &mut self.ring);
            self.active.insert(r * cols);
            if self.trace.is_some() {
                issued_handle = Some(self.inject_now.handle[r * cols]);
            }
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.on_orch_step(now, r, &action, issued_handle);
        }
        // Park decision: a pure wait (and only a pure wait) leaves the wake
        // set; everything else keeps the row due next cycle. The reference
        // engine never parks.
        if self.cfg.engine == Engine::Fast
            && action.parks()
            && instr.is_plain_nop()
            && !action.consumes_input()
            && !action.consumes_msg()
            && action.msg_out().is_none()
        {
            self.rows.parked_at[r] = now;
            self.rows.parked_stall[r] = action.stall_cause();
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.on_park(now, r);
            }
            self.sched.sleep(r);
            // Arm timers for events already in flight towards this row.
            if let Some(&deliver) = self.rows.credit_returns[r].front() {
                self.sched.arm(r, deliver);
            }
            if let Some(&(deliver, _)) = self.rows.inbox[r].front() {
                if deliver > now {
                    self.sched.arm(r, deliver);
                }
            }
        }
        Ok(())
    }

    /// Advances the fabric by one cycle.
    ///
    /// # Errors
    ///
    /// Returns protocol errors (router conflicts, FIFO over/underflow,
    /// address violations) detected during the cycle.
    pub fn step(&mut self) -> Result<(), SimError> {
        let now = self.cycle;
        let cols = self.cfg.cols;
        let nrows = self.cfg.rows;

        // 1. North-edge feeders: at most one token per column per cycle. A
        // token landing on column c's edge FIFO wakes its consumer PE (0, c)
        // — and, on column 0, the top orchestrator row, whose `north_tokens`
        // observable just changed.
        if self.feeders_pending > 0 {
            for c in 0..cols {
                if let Some(&tok) = self.feeders[c].front() {
                    let link = self.grid.vertical(0, c);
                    if link.len() < self.cfg.link_fifo_depth {
                        link.push(tok, now, "north feeder")?;
                        self.feeders[c].pop_front();
                        if self.feeders[c].is_empty() {
                            self.feeders_pending -= 1;
                        }
                        self.extra_offchip_read += self.feeder_bytes_per_token;
                        self.active.insert(c);
                        if c == 0 && self.sched.wake(0) {
                            self.wake_events += 1;
                            if let Some(tr) = self.trace.as_deref_mut() {
                                tr.on_wake(now, 0, WakeSource::Feeder);
                            }
                        }
                    }
                }
            }
        }

        // 2. Orchestrator phase, event-driven: fire due delivery timers,
        // then step only woken rows (ascending order — identical dispatch
        // order to the reference engine, which matters for message-channel
        // checks). Credits are delivered lazily at dispatch: rows observe
        // them only in their own step, so a sleeping row's queue can wait.
        // A finished orchestrator is still stepped while deliverable
        // messages are pending: its FSM keeps the bypass transitions of the
        // DONE state so upstream rows can drain through it.
        if let Some(tr) = self.trace.as_deref_mut() {
            self.wake_events += self
                .sched
                .fire_due_with(now, |r| tr.on_wake(now, r, WakeSource::Timer));
        } else {
            self.wake_events += self.sched.fire_due(now);
        }
        // The reference engine steps every row every cycle: it refills the
        // wake set here (and never parks a row, see `step_row`).
        if self.cfg.engine == Engine::Reference {
            for r in 0..nrows {
                self.sched.wake(r);
            }
        }
        if !self.sched.all_asleep() {
            for r in 0..nrows {
                if !self.sched.is_awake(r) {
                    continue;
                }
                self.step_row(r, now)?;
            }
        }

        // 2b. Steady-state replay gate: when the fast engine runs untraced
        // and this cycle is *clean* (every row issued one uniform MAC shape
        // — pure PE-local arithmetic, no NoC drives, no sink pushes, no
        // wakes), the whole PE sweep is deferred: the freshly issued
        // operands are harvested into the capture timeline and phases 3–6
        // are skipped (the pipeline does not advance; it is reconstructed
        // at flush).
        // Orchestrators, feeders, credits, and messages stepped honestly
        // above, so the first non-clean cycle falls through here, settles
        // the stretch arithmetically, and resumes cycle-stepping — making
        // replay architecturally invisible (see `crate::replay`).
        if self.cfg.engine == Engine::Fast && self.trace.is_none() && self.replay_tick(now) {
            self.cycle += 1;
            return Ok(());
        }

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
        //
        // Uniform columns take the column-vectorized batch sweep instead:
        // the detector below checks, per fabric column, that the three issue
        // cycles currently occupying its pipeline slots (`now − 3c − 2`,
        // `… − 1`, `now − 3c` — the 3-cycle stagger) were each row-uniform
        // MAC shapes, folded at issue into `issue_window`. Such a column's
        // PEs are all live with full COMMIT/EXECUTE slots and a pending
        // injection, and MAC plans drive no links and wake nothing — so the
        // scalar scan only emits their trace events (preserving the
        // ascending-id event order) and skips them; the
        // state mutation happens in [`PeArray::batch_col`] after the scan,
        // which reorders nothing observable (a MAC's COMMIT/LOAD touch only
        // PE-local state).
        self.active_pe_cycles += self.active.count() as u64;
        let mut south_sink_dirty = false;
        let mut east_sink_dirty = false;
        let mut batched_cols = 0usize;
        let mut full_cols = 0usize;
        let win_mask = self.issue_window.len() as u64 - 1;
        let win = &self.issue_window;
        let uniform = |t: u64| {
            let cell = &win[(t & win_mask) as usize];
            (cell.cycle == t && cell.prefix > 0).then_some((cell.kind, cell.prefix))
        };
        // The detector is part of the fast engine: under the reference
        // engine `col_batch` stays all-`None` (as built) and every PE takes
        // the scalar path.
        if self.cfg.engine == Engine::Fast {
            for c in 0..cols {
                self.col_batch[c] = None;
                if now < 3 * c as u64 + 2 {
                    continue;
                }
                let t_load = now - 3 * c as u64;
                let (Some((commit_kind, p0)), Some((_, p1)), Some((load_kind, p2))) =
                    (uniform(t_load - 2), uniform(t_load - 1), uniform(t_load))
                else {
                    continue;
                };
                // Batch the common uniform prefix of the three issue
                // cycles occupying this column's pipeline slots; rows at and
                // beyond the prefix stay on the scalar path. Short prefixes
                // are not worth the pass setup.
                let p = p0.min(p1).min(p2);
                if (p as usize) < nrows && p < MIN_BATCH_PREFIX {
                    continue;
                }
                self.col_batch[c] = Some((commit_kind, load_kind, p));
                batched_cols += 1;
                if p as usize == nrows {
                    full_cols += 1;
                }
            }
        }
        // When every column batches every row (a fully MAC-saturated
        // fabric) and no trace needs the per-PE event order, the scalar
        // scan has nothing left to visit at all.
        if full_cols < cols || self.trace.is_some() {
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
                    if batched_cols > 0 {
                        if let Some((_, _, p)) = self.col_batch[c] {
                            if (r as u32) < p {
                                // Batched prefix PE: emit the commit event the
                                // scalar path would have (a MAC commit wakes
                                // nothing and drives no sink), leave the bit
                                // set (the PE is about to load), and let the
                                // batch pass do the work. Rows at and beyond
                                // the prefix fall through to the scalar path.
                                if self.trace.is_some() {
                                    let h = self.pes.commit_handle(idx).expect(
                                        "uniform prefix: every COMMIT slot holds an instruction",
                                    );
                                    let op = self.ring.get(h).op;
                                    if let Some(tr) = self.trace.as_deref_mut() {
                                        tr.on_commit(now, r, c, h, op);
                                    }
                                }
                                continue;
                            }
                        }
                    }
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
                    let eff = self.pes.commit_into(
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
                    )?;
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
                                // Link event: a column-0 south push changes the
                                // consuming row's `north_tokens` observable.
                                if c == 0 && self.sched.wake(r + 1) {
                                    self.wake_events += 1;
                                    if let Some(tr) = self.trace.as_deref_mut() {
                                        tr.on_wake(now, r + 1, WakeSource::Link);
                                    }
                                }
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
                            self.pes.load(
                                idx,
                                self.inject_now.handle[idx],
                                &self.ring,
                                &mut self.grid,
                                r,
                                c,
                                now,
                                c == 0,
                            )?;
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
        }

        // Column-vectorized passes for the uniform columns. Running them
        // after the scalar scan keeps the scan's commit-slot peeks valid;
        // nothing a batched MAC column does this cycle is observable to the
        // scalar PEs (no link pushes, no shared state), so the order is
        // architecturally irrelevant.
        if batched_cols > 0 {
            for c in 0..cols {
                let Some((commit_kind, load_kind, p)) = self.col_batch[c] else {
                    continue;
                };
                let p = p as usize;
                let has_east = c + 1 < cols;
                let mut idx = c;
                for _ in 0..p {
                    // Per prefix PE, exactly the scalar bookkeeping: the
                    // injection is consumed and the retiring handle re-arms
                    // the eastern neighbour for next cycle — re-activating
                    // it, since its own deactivation check may already have
                    // run this scan.
                    self.inject_now.kind[idx] = Inject::None;
                    if has_east {
                        self.inject_next.kind[idx + 1] = Inject::Instr;
                        self.active.insert(idx + 1);
                    }
                    idx += cols;
                }
                let forwards = if has_east {
                    Some(self.inject_next.handle.as_mut_slice())
                } else {
                    None
                };
                self.pes.batch_col(
                    c,
                    cols,
                    p,
                    &self.ring,
                    &self.inject_now.handle,
                    forwards,
                    commit_kind,
                    load_kind,
                );
                self.batched_pe_cycles += p as u64;
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

        // 5. Drain edge sinks straight into the collectors, only on cycles
        // in which a bottom-row/east-column commit drove a sink link: the
        // sink links are popped in place, with no per-edge temporary
        // collection, and entries always exit in the cycle they were pushed.
        if south_sink_dirty {
            for c in 0..cols {
                let link = self.grid.vertical(nrows, c);
                while let Some(e) = link.try_pop() {
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
            }
        }
        if east_sink_dirty {
            for r in 0..nrows {
                let link = self.grid.horizontal(r, cols);
                while let Some(e) = link.try_pop() {
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
            }
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

        self.cycle += 1;
        Ok(())
    }

    /// Settles any active replay stretch so every architectural structure
    /// (PE pipelines, injection queue, accumulator storage) is current.
    /// Called by every mutator that could invalidate the capture or observe
    /// deferred state (program/meta/feeder swaps, trace attach, direct PE
    /// access).
    fn replay_interrupt(&mut self) {
        if self.replay.active {
            self.replay_flush(self.cycle);
        }
        self.replay.run_len = 0;
    }

    /// Replay gate, run between the orchestrator phase and the PE sweep.
    /// Returns `true` when this cycle was deferred into the capture
    /// timeline (the caller skips phases 3–6).
    fn replay_tick(&mut self, now: u64) -> bool {
        let nrows = self.cfg.rows;
        let cols = self.cfg.cols;
        let cell = &self.issue_window[(now & (self.issue_window.len() as u64 - 1)) as usize];
        let clean = cell.cycle == now && cell.prefix == nrows as u32;
        let kind = cell.kind;
        if self.replay.active {
            if clean && kind == self.replay.kind && self.replay_harvest() {
                self.replay.deferred_cycles += 1;
                self.active_pe_cycles += self.active.count() as u64;
                self.batched_pe_cycles += self.cfg.pe_count() as u64;
                if self.replay.tl[0].len() >= REPLAY_CHUNK {
                    self.replay_absorb_to(now + 1);
                    self.replay.compact(cols);
                }
                return true;
            }
            // Stretch over (bubble, shape change, or a row re-targeted its
            // accumulator): settle the deferred cycles and let this cycle
            // take the normal phases. `clear_capture` (inside the flush)
            // zeroes the run length, so re-entry stays amortized.
            self.replay_flush(now);
            return false;
        }
        if clean {
            self.replay.run_len += 1;
            // After `3·cols` consecutive clean cycles every pipeline slot
            // and pending injection provably holds a uniform MAC, so the
            // in-flight state is template-describable and entry is attempted.
            if self.replay.run_len >= 3 * cols as u64 && self.replay_try_enter(now) {
                self.replay.stretches += 1;
                self.replay.deferred_cycles += 1;
                self.active_pe_cycles += self.active.count() as u64;
                self.batched_pe_cycles += self.cfg.pe_count() as u64;
                return true;
            }
        } else {
            self.replay.run_len = 0;
        }
        false
    }

    /// Attempts stretch entry at clean cycle `e`: decodes the in-flight
    /// pipeline (per column `c`, the COMMIT slot holds issue `e − 3c − 2`,
    /// EXECUTE `e − 3c − 1`, the pending injection `e − 3c`; column 0's
    /// injection is cycle `e`'s fresh issue) into the per-row timeline and
    /// validates the template: one shape across all `3·cols` in-flight
    /// cycles and one constant accumulator target per row. On success cycle
    /// `e` becomes the first deferred cycle; on mismatch the run length
    /// resets (entry retries stay amortized) and the cycle steps normally.
    fn replay_try_enter(&mut self, e: u64) -> bool {
        let nrows = self.cfg.rows;
        let cols = self.cfg.cols;
        let win_mask = self.issue_window.len() as u64 - 1;
        let t_base = e + 1 - 3 * cols as u64;
        let kind = self.issue_window[(e & win_mask) as usize].kind;
        // Every cycle in the window is clean (that is what `run_len`
        // counted), but the *shape* may differ cycle to cycle; the template
        // needs one.
        for t in t_base..=e {
            let cell = &self.issue_window[(t & win_mask) as usize];
            debug_assert!(cell.cycle == t && cell.prefix == nrows as u32);
            if cell.kind != kind {
                self.replay.run_len = 0;
                return false;
            }
        }
        let mut scratch = std::mem::take(&mut self.replay.scratch);
        for r in 0..nrows {
            let base = r * cols;
            scratch.clear();
            scratch.resize(3 * cols, ReplayEntry::default());
            // Template target: the accumulator of cycle `e`'s fresh issue.
            debug_assert_eq!(self.inject_now.kind[base], Inject::Instr);
            let h0 = self.inject_now.handle[base];
            let (target, e0) = ReplayEntry::from_plan(self.ring.plan(h0), self.ring.get(h0).tag);
            scratch[(e - t_base) as usize] = e0;
            let mut ok = true;
            for c in 0..cols {
                let (ch, eh) = self.pes.replay_slot_handles(base + c);
                let tc = e - 3 * c as u64 - 2;
                let (ct, ce) = ReplayEntry::from_plan(self.ring.plan(ch), self.ring.get(ch).tag);
                let (et, ee) = ReplayEntry::from_plan(self.ring.plan(eh), self.ring.get(eh).tag);
                if ct != target || et != target {
                    ok = false;
                    break;
                }
                scratch[(tc - t_base) as usize] = ce;
                scratch[(tc + 1 - t_base) as usize] = ee;
                if c > 0 {
                    debug_assert_eq!(self.inject_now.kind[base + c], Inject::Instr);
                    let h = self.inject_now.handle[base + c];
                    let (it, ie) = ReplayEntry::from_plan(self.ring.plan(h), self.ring.get(h).tag);
                    if it != target {
                        ok = false;
                        break;
                    }
                    scratch[(tc + 2 - t_base) as usize] = ie;
                }
            }
            if !ok {
                for t in &mut self.replay.tl {
                    t.clear();
                }
                self.replay.scratch = scratch;
                self.replay.run_len = 0;
                return false;
            }
            self.replay.targets[r] = target;
            self.replay.tl[r].extend_from_slice(&scratch);
        }
        self.replay.scratch = scratch;
        self.replay.kind = kind;
        self.replay.t_base = t_base;
        // Storage currently reflects commits through cycle `e − 1`, i.e.
        // the chain through issue `e − 3c − 3` per column.
        self.replay.absorbed = e;
        self.replay.active = true;
        // Consume the column-0 injections (the deferral harvests them); the
        // column `c > 0` slots stay pending for the whole stretch and are
        // re-pointed at reconstructed records at flush.
        for r in 0..nrows {
            self.inject_now.kind[r * cols] = Inject::None;
        }
        true
    }

    /// Harvests one deferred cycle's fresh issues (column-0 injections)
    /// into the timeline. Validation first, commitment second: when any row
    /// re-targeted its accumulator the timeline is left untouched and the
    /// caller flushes, with this cycle taking the normal phases.
    fn replay_harvest(&mut self) -> bool {
        let nrows = self.cfg.rows;
        let cols = self.cfg.cols;
        let mut scratch = std::mem::take(&mut self.replay.scratch);
        scratch.clear();
        for r in 0..nrows {
            let base = r * cols;
            debug_assert_eq!(self.inject_now.kind[base], Inject::Instr);
            let h = self.inject_now.handle[base];
            let (target, entry) = ReplayEntry::from_plan(self.ring.plan(h), self.ring.get(h).tag);
            if target != self.replay.targets[r] {
                self.replay.scratch = scratch;
                return false;
            }
            scratch.push(entry);
        }
        for (r, &entry) in scratch.iter().enumerate() {
            self.replay.tl[r].push(entry);
            self.inject_now.kind[r * cols] = Inject::None;
        }
        self.replay.scratch = scratch;
        true
    }

    /// Advances accumulator storage through virtual cycle `v_new` (the
    /// chain through issue `v_new − 3c − 3` per column — exactly the
    /// commits a cycle-stepped run performs before cycle `v_new`'s sweep).
    fn replay_absorb_to(&mut self, v_new: u64) {
        let v_old = self.replay.absorbed;
        if v_new <= v_old {
            return;
        }
        let cols = self.cfg.cols;
        let rows = self.cfg.rows;
        // Per-absorb scratch (flushes are amortized ≥ 3·cols cycles apart,
        // chunk absorbs `REPLAY_CHUNK` cycles apart, so this stays far
        // under the steady-state allocs/cycle budget).
        let mut acc: Vec<Vector> = Vec::with_capacity(rows * cols);
        self.pes.replay_absorb_all(
            rows,
            cols,
            self.replay.kind,
            &self.replay.targets,
            &self.replay.tl,
            self.replay.t_base,
            v_old,
            v_new,
            &mut acc,
        );
        self.replay.absorbed = v_new;
    }

    /// Ends the active stretch at cycle `f` (the first non-deferrable cycle,
    /// or the current cycle on an interrupt): settles the buffered chains
    /// into storage, reconstructs the pipeline slots and pending injections
    /// exactly as a cycle-stepped run would hold them at the start of cycle
    /// `f`'s sweep, and re-arms detection.
    fn replay_flush(&mut self, f: u64) {
        let cols = self.cfg.cols;
        let nrows = self.cfg.rows;
        self.replay_absorb_to(f);
        let kind = self.replay.kind;
        let t_base = self.replay.t_base;
        let mut slots: Vec<(InstrHandle, InstrHandle)> = Vec::with_capacity(cols);
        for r in 0..nrows {
            let base = r * cols;
            let target = self.replay.targets[r];
            slots.clear();
            for c in 0..cols {
                let tc = f - 3 * c as u64 - 2;
                // Reconstructed records are freshly interned: the stretch's
                // originals may have been overwritten (the ring is sized to
                // the issue-to-retire window, not to a whole stretch).
                let ic = self.replay.tl[r][(tc - t_base) as usize].rebuild(kind, target);
                let ie = self.replay.tl[r][(tc + 1 - t_base) as usize].rebuild(kind, target);
                let hc = self.ring.intern_planned(ic, Plan::classify(&ic));
                let he = self.ring.intern_planned(ie, Plan::classify(&ie));
                slots.push((hc, he));
                if c > 0 {
                    debug_assert_eq!(self.inject_now.kind[base + c], Inject::Instr);
                    let ii = self.replay.tl[r][(tc + 2 - t_base) as usize].rebuild(kind, target);
                    self.inject_now.handle[base + c] =
                        self.ring.intern_planned(ii, Plan::classify(&ii));
                }
            }
            self.pes.replay_finalize_row(
                r,
                cols,
                kind,
                target,
                &self.replay.tl[r],
                t_base,
                f,
                &slots,
            );
        }
        self.replay.clear_capture();
    }

    /// True when all orchestrators are done, all pipelines and links are
    /// empty, and no messages or feeder tokens are pending.
    ///
    /// The active set makes this O(rows): an occupied pipeline, pending
    /// injection, or non-empty link keeps its PE active, so PE and NoC
    /// drain-state collapses to `active.is_empty()`.
    pub fn quiescent(&self) -> bool {
        self.active.is_empty()
            && self.cycle >= self.bubble_horizon
            && self.feeders_pending == 0
            && (0..self.rows.len()).all(|r| self.rows.done(r) && self.rows.inbox[r].is_empty())
    }

    /// Runs until quiescent, returning the run report.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and reports a [`SimError::Deadlock`] if the
    /// watchdog budget is exhausted before the fabric drains.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
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
            if let Err(e) = self.step() {
                break Err(e);
            }
        };
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
        stats.noc_hops = self.grid.total_pushes();
        for r in 0..self.rows.len() {
            stats.orch_steps += self.rows.orch_steps[r];
            stats.orch_transitions += self.rows.transitions[r];
            stats.orch_messages += self.rows.messages_sent[r];
            stats.stall_cycles += self.rows.stall_causes[r].total();
            stats.stall_breakdown.merge(&self.rows.stall_causes[r]);
            stats.meta_tokens += self.rows.meta_consumed[r];
            // Skipped polls, including a still-parked tail (reports taken
            // after a watchdog/protocol abort): each skipped poll is one
            // orchestrator step (+ stall) the reference engine would have
            // performed, plus one bubble traversing the row's `cols` PEs.
            let mut skipped = self.rows.polls_skipped[r];
            if self.rows.parked_at[r] != NEVER {
                let pending = self.cycle.saturating_sub(self.rows.parked_at[r] + 1);
                stats.orch_steps += pending;
                if let Some(cause) = self.rows.parked_stall[r] {
                    stats.stall_cycles += pending;
                    stats.stall_breakdown.add(cause, pending);
                }
                skipped += pending;
            }
            stats.orch_polls_skipped += skipped;
            stats.instrs_executed += skipped * self.cfg.cols as u64;
        }
        // Elided bubbles: each would have latched into every column of its
        // row (`cols` pipeline NOPs counted by the marching simulator).
        stats.instrs_executed += self.elided_bubbles * self.cfg.cols as u64;
        stats.wake_events = self.wake_events;
        stats.offchip_read_bytes = self.extra_offchip_read;
        stats.offchip_write_bytes = self.extra_offchip_write;
        stats.active_pe_cycles = self.active_pe_cycles;
        stats.batched_pe_cycles = self.batched_pe_cycles;
        stats.replayed_cycles = self.replay.deferred_cycles;
        stats.replay_stretches = self.replay.stretches;
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

//! The Canon processing elements: 3-stage LOAD / EXECUTE / COMMIT pipelines
//! around 4-wide SIMD lanes (Fig 4), stored struct-of-arrays.
//!
//! PEs contain no control logic: they execute whatever instruction streams in
//! from the west (orchestrator or upstream PE), at a fixed pipeline latency,
//! and forward the instruction east when it retires — producing the
//! time-lapsed SIMD stagger of §2.1.
//!
//! The pipeline implements store-to-load forwarding between in-flight
//! instructions: a LOAD that reads an address written by an instruction in
//! the EXECUTE or COMMIT stage observes the in-flight value. This models the
//! accumulator forwarding a real MAC pipeline needs for back-to-back
//! accumulation into the same scratchpad entry (consecutive non-zeros of one
//! output row in SpMM).
//!
//! ## Struct-of-arrays layout
//!
//! All PEs of a fabric live in one [`PeArray`]: data memories, scratchpads,
//! register banks, and the three pipeline-stage slots are parallel `Vec`s
//! indexed by PE id. The per-phase sweeps of
//! [`crate::fabric::Fabric::step`] then walk dense, homogeneous arrays — the
//! stage slot a COMMIT pass touches is contiguous across PEs instead of
//! strided by the whole PE record. Because every PE advances in lockstep,
//! the stage rotation index is a single array-wide field and
//! [`PeArray::advance`] is O(1) regardless of fabric size.
//!
//! The EXECUTE stage exists architecturally (an instruction occupies it for
//! one cycle, and forwarding reads it), but its lane result is a pure
//! function of the operand values captured at LOAD and nothing can observe
//! it earlier — so the simulator computes it eagerly during LOAD and runs no
//! per-PE EXECUTE sweep at all.
//!
//! ## Activity accounting
//!
//! The run report and the per-access energy model (Fig 11) need only
//! array-wide activity totals, so the array keeps exactly one tally,
//! [`Activity`]. It is charged in one of two places, never both: a fast-plan
//! (MAC-shaped) instruction is charged once per issue by
//! [`PeArray::validate_and_account`] — which every caller of
//! [`PeArray::load`] runs before loading one — and everything else is
//! counted by the generic LOAD/COMMIT path as it executes. A fast plan's
//! scratchpad write-back is thus charged at issue, even when the run stops
//! before it commits. The fabric's eager engine counts its generic work per
//! effective cycle and folds each cycle's count in with
//! [`PeArray::charge`] as that cycle ends.
//!
//! ## Sequential semantics
//!
//! Forwarding makes a PE's pipeline behave exactly like running its
//! instructions one after another: a LOAD observes every older
//! instruction's COMMIT, whether that COMMIT already ran or is still in
//! flight. The fabric's eager engine relies on this — it runs each issued
//! instruction to completion, PE by PE, through [`PeArray::mac_row`] and
//! the storage accessors below, without modelling the pipeline at all.

use crate::isa::{Addr, Direction, InstrHandle, InstrRing, Instruction, Opcode, Plan, Vector};
use crate::noc::{ErrCtx, LinkGrid, TaggedVector};
use crate::stats::Stats;
use crate::SimError;

/// Number of SIMD registers per PE.
pub const NUM_REGS: usize = 4;

/// Occupancy of one pipeline-stage slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Slot {
    /// No instruction in this stage.
    #[default]
    Empty,
    /// An instruction; the per-field stage arrays hold its state.
    Full,
}

/// What a [`PeArray::commit_into`] call did, as compact flags the fabric's
/// wake propagation consumes without re-inspecting the instruction.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitEffects {
    /// An instruction retired (and was forwarded, when a slot was given).
    pub retired: bool,
    /// The instruction drives the south output link
    /// ([`Instruction::pushes_toward`] semantics — conservative for NOPs).
    pub drives_south: bool,
    /// The instruction drives the east output link.
    pub drives_east: bool,
}

impl CommitEffects {
    /// The no-instruction outcome.
    pub const NONE: CommitEffects = CommitEffects {
        retired: false,
        drives_south: false,
        drives_east: false,
    };

    /// The outcome of a retiring MAC: it writes one accumulator and drives
    /// no link.
    const MAC: CommitEffects = CommitEffects {
        retired: true,
        drives_south: false,
        drives_east: false,
    };
}

/// Array-wide PE activity — the one tally behind the reported activity
/// totals (see the module docs for where it is charged). Data memory and
/// scratchpad accesses are kept apart: their per-access energies differ
/// (Fig 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Activity {
    /// Instructions that entered a pipeline (including NOPs).
    pub instrs: u64,
    /// Compute instructions executed.
    pub compute_instrs: u64,
    /// MAC instructions executed.
    pub mac_instrs: u64,
    /// Data-memory word reads.
    pub dmem_reads: u64,
    /// Data-memory word writes.
    pub dmem_writes: u64,
    /// Scratchpad word reads.
    pub spad_reads: u64,
    /// Scratchpad word writes.
    pub spad_writes: u64,
}

impl Activity {
    /// Counts one instruction entering a pipeline.
    #[inline]
    pub(crate) fn note_instr(&mut self, op: Opcode) {
        self.instrs += 1;
        self.compute_instrs += op.is_compute() as u64;
        self.mac_instrs += op.is_mac() as u64;
    }

    /// Counts one storage read of `addr` (registers are free).
    #[inline]
    pub(crate) fn note_read(&mut self, addr: Addr) {
        match addr {
            Addr::DataMem(_) => self.dmem_reads += 1,
            Addr::Spad(_) => self.spad_reads += 1,
            _ => {}
        }
    }

    /// Counts one storage write of `addr` (registers are free).
    #[inline]
    pub(crate) fn note_write(&mut self, addr: Addr) {
        match addr {
            Addr::DataMem(_) => self.dmem_writes += 1,
            Addr::Spad(_) => self.spad_writes += 1,
            _ => {}
        }
    }

    /// Adds `other` into this tally.
    pub(crate) fn add(&mut self, other: &Activity) {
        self.instrs += other.instrs;
        self.compute_instrs += other.compute_instrs;
        self.mac_instrs += other.mac_instrs;
        self.dmem_reads += other.dmem_reads;
        self.dmem_writes += other.dmem_writes;
        self.spad_reads += other.spad_reads;
        self.spad_writes += other.spad_writes;
    }

    /// Subtracts `other` (contained in this tally) from it.
    pub(crate) fn sub(&mut self, other: &Activity) {
        self.instrs -= other.instrs;
        self.compute_instrs -= other.compute_instrs;
        self.mac_instrs -= other.mac_instrs;
        self.dmem_reads -= other.dmem_reads;
        self.dmem_writes -= other.dmem_writes;
        self.spad_reads -= other.spad_reads;
        self.spad_writes -= other.spad_writes;
    }

    /// Adds the tally into the matching [`Stats`] counters.
    pub fn add_to(&self, stats: &mut Stats) {
        stats.instrs_executed += self.instrs;
        stats.compute_instrs += self.compute_instrs;
        stats.mac_instrs += self.mac_instrs;
        stats.dmem_reads += self.dmem_reads;
        stats.dmem_writes += self.dmem_writes;
        stats.spad_reads += self.spad_reads;
        stats.spad_writes += self.spad_writes;
    }
}

/// Shared view of one PE memory (a strided view of the [`PeArray`] slab:
/// word `a` of PE `idx` lives at `slab[a · stride + idx]`, see the
/// address-major layout notes on [`PeArray`]).
#[derive(Debug)]
pub struct MemRef<'a> {
    slab: &'a [Vector],
    stride: usize,
    offset: usize,
    len: usize,
}

impl MemRef<'_> {
    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads word `addr` without counting the access (tests / debugging).
    ///
    /// # Panics
    ///
    /// Panics when `addr` is out of range.
    pub fn word(&self, addr: usize) -> Vector {
        assert!(addr < self.len, "word {addr} of {}", self.len);
        self.slab[addr * self.stride + self.offset]
    }
}

/// Mutable view of one PE memory (a strided view of the [`PeArray`] slab —
/// see [`MemRef`]).
#[derive(Debug)]
pub struct MemMut<'a> {
    slab: &'a mut [Vector],
    stride: usize,
    offset: usize,
    len: usize,
}

impl MemMut<'_> {
    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Preloads contents without counting accesses (models the asynchronous
    /// EDDO memory movers filling the array before kernel execution; the
    /// off-chip traffic is accounted separately by the kernel mappers).
    ///
    /// # Panics
    ///
    /// Panics if `base + data.len()` exceeds the capacity.
    pub fn preload(&mut self, base: usize, data: &[Vector]) {
        assert!(
            base + data.len() <= self.len,
            "preload of {} words at {base} exceeds capacity {}",
            data.len(),
            self.len
        );
        for (i, &w) in data.iter().enumerate() {
            self.slab[(base + i) * self.stride + self.offset] = w;
        }
    }
}

#[cold]
fn mem_oob(what: &str, op: &str, addr: usize, len: usize) -> SimError {
    SimError::AddressOutOfRange {
        context: format!("{what} {op} {addr} of {len}"),
    }
}

/// Shared view of one PE inside a [`PeArray`].
#[derive(Debug)]
pub struct PeRef<'a> {
    /// Static-data memory (holds the stationary operand tile).
    pub dmem: MemRef<'a>,
    /// Dual-port scratchpad (psum / stream-reuse buffer).
    pub spad: MemRef<'a>,
    regs: &'a [Vector; NUM_REGS],
}

impl PeRef<'_> {
    /// Register file access (tests / debugging).
    pub fn reg(&self, i: usize) -> Vector {
        self.regs[i]
    }
}

/// Mutable view of one PE inside a [`PeArray`] (kernel mappers preload data
/// memories and scratchpads through this).
#[derive(Debug)]
pub struct PeMut<'a> {
    /// Static-data memory (holds the stationary operand tile).
    pub dmem: MemMut<'a>,
    /// Dual-port scratchpad (psum / stream-reuse buffer).
    pub spad: MemMut<'a>,
}

/// All processing elements of one fabric, struct-of-arrays.
///
/// The three pipeline slots per PE live in parallel per-field arrays
/// addressed through one shared rotation index: [`PeArray::advance`] renames
/// the stages for *every* PE by bumping that index once instead of moving
/// per-PE in-flight records — the per-cycle stage shift used to be a per-PE
/// operation on the simulator's hottest path. Activity is one array-wide
/// [`Activity`] tally, not a per-PE counter set: it is charged at issue for
/// fast plans and by the generic path otherwise (see the module docs).
#[derive(Debug)]
pub struct PeArray {
    /// Data-memory words of *all* PEs, one flat slab in **address-major**
    /// layout: word `a` of PE `i` lives at `dmem[a * n + i]`. The paper's
    /// uniform-addressing invariant (every PE of a row reads the *same*
    /// local address for one issue, staggered over consecutive cycles)
    /// makes the per-cycle working set a handful of `n`-wide rows of this
    /// slab — contiguous here, but strided 16 KB apart in a PE-major
    /// layout, where a default-config fabric touches one TLB page per PE.
    dmem: Vec<Vector>,
    dmem_words: usize,
    /// Scratchpad entries of all PEs (the accumulator banks), same layout.
    spad: Vec<Vector>,
    spad_entries: usize,
    /// Number of PEs (the slab stride).
    n: usize,
    regs: Vec<[Vector; NUM_REGS]>,
    /// Pipeline-stage slots, struct-of-arrays at field granularity:
    /// `xxx[s][i]` is field `xxx` of stage slot `s` of PE `i`. Slot roles
    /// rotate via `load_idx` (LOAD at `load_idx`, EXECUTE at `load_idx + 1`,
    /// COMMIT at `load_idx + 2`, mod 3). Splitting by field means each phase
    /// moves only the bytes it actually produces or consumes: LOAD writes a
    /// 4-byte [`InstrHandle`] into the issued-instruction ring plus the
    /// (eagerly computed) lane result, COMMIT resolves the handle back
    /// through the shared [`InstrRing`] (+ routed payload when a route is
    /// present).
    state: [Vec<Slot>; 3],
    handles: [Vec<InstrHandle>; 3],
    results: [Vec<Vector>; 3],
    /// Store-to-load forwarding cache: the result address of each `Full`
    /// slot's instruction, and the source a flush opcode will clear
    /// ([`Addr::Null`] otherwise). Written once at LOAD so the per-operand
    /// forwarding scan compares two 4-byte addresses per slot instead of
    /// resolving the instruction ring.
    res_addr: [Vec<Addr>; 3],
    flush_addr: [Vec<Addr>; 3],
    /// Pass-through payload popped at LOAD, pushed at COMMIT. Only valid
    /// (and only touched) when the slot's instruction carries a route.
    routed: [Vec<TaggedVector>; 3],
    load_idx: usize,
    activity: Activity,
}

impl PeArray {
    /// Creates `n` PEs with the given memory capacities (in vector words).
    pub fn new(n: usize, dmem_words: usize, spad_entries: usize) -> PeArray {
        PeArray {
            dmem: vec![Vector::ZERO; n * dmem_words],
            dmem_words,
            spad: vec![Vector::ZERO; n * spad_entries],
            spad_entries,
            n,
            regs: vec![[Vector::ZERO; NUM_REGS]; n],
            state: std::array::from_fn(|_| vec![Slot::Empty; n]),
            handles: std::array::from_fn(|_| vec![InstrHandle::default(); n]),
            results: std::array::from_fn(|_| vec![Vector::ZERO; n]),
            res_addr: std::array::from_fn(|_| vec![Addr::Null; n]),
            flush_addr: std::array::from_fn(|_| vec![Addr::Null; n]),
            routed: std::array::from_fn(|_| vec![TaggedVector::ZERO; n]),
            load_idx: 0,
            activity: Activity::default(),
        }
    }

    /// Returns the array to its post-construction state in place, reusing
    /// every allocation: memories and registers zeroed, pipeline slots
    /// emptied, the activity tally cleared. After this call the array is
    /// indistinguishable from `PeArray::new(n, dmem_words, spad_entries)`
    /// (fabric reuse across warm-pool requests depends on that).
    pub fn reset(&mut self) {
        self.dmem.fill(Vector::ZERO);
        self.spad.fill(Vector::ZERO);
        for regs in &mut self.regs {
            *regs = [Vector::ZERO; NUM_REGS];
        }
        for s in 0..3 {
            self.state[s].fill(Slot::Empty);
            self.handles[s].fill(InstrHandle::default());
            self.results[s].fill(Vector::ZERO);
            self.res_addr[s].fill(Addr::Null);
            self.flush_addr[s].fill(Addr::Null);
            self.routed[s].fill(TaggedVector::ZERO);
        }
        self.load_idx = 0;
        self.activity = Activity::default();
    }

    /// Activity of every PE since construction or the last
    /// [`PeArray::reset`].
    pub fn activity(&self) -> Activity {
        self.activity
    }

    fn exec_idx(&self) -> usize {
        (self.load_idx + 1) % 3
    }

    fn commit_idx(&self) -> usize {
        (self.load_idx + 2) % 3
    }

    /// Shared view of PE `idx`.
    pub fn pe(&self, idx: usize) -> PeRef<'_> {
        PeRef {
            dmem: MemRef {
                slab: &self.dmem,
                stride: self.n,
                offset: idx,
                len: self.dmem_words,
            },
            spad: MemRef {
                slab: &self.spad,
                stride: self.n,
                offset: idx,
                len: self.spad_entries,
            },
            regs: &self.regs[idx],
        }
    }

    /// Mutable view of PE `idx` (memory preloads).
    pub fn pe_mut(&mut self, idx: usize) -> PeMut<'_> {
        PeMut {
            dmem: MemMut {
                slab: &mut self.dmem,
                stride: self.n,
                offset: idx,
                len: self.dmem_words,
            },
            spad: MemMut {
                slab: &mut self.spad,
                stride: self.n,
                offset: idx,
                len: self.spad_entries,
            },
        }
    }

    /// Bounds-checked, uncounted read of storage operand `addr`
    /// (`Reg`/`DataMem`/`Spad`) of PE `idx` — the LOAD-side address checks
    /// both engines share.
    #[inline(always)]
    pub(crate) fn read_storage(&self, idx: usize, addr: Addr) -> Result<Vector, SimError> {
        match addr {
            Addr::Reg(i) => {
                self.regs[idx]
                    .get(i as usize)
                    .copied()
                    .ok_or_else(|| SimError::AddressOutOfRange {
                        context: format!("register r{i} (of {NUM_REGS})"),
                    })
            }
            Addr::DataMem(a) if (a as usize) < self.dmem_words => {
                Ok(self.dmem[a as usize * self.n + idx])
            }
            Addr::DataMem(a) => Err(mem_oob("dmem", "read", a as usize, self.dmem_words)),
            Addr::Spad(a) if (a as usize) < self.spad_entries => {
                Ok(self.spad[a as usize * self.n + idx])
            }
            Addr::Spad(a) => Err(mem_oob("spad", "read", a as usize, self.spad_entries)),
            a => unreachable!("{a} is not a storage operand"),
        }
    }

    /// Bounds-checked, uncounted write of storage operand `addr` of PE
    /// `idx` — the COMMIT-side address checks both engines share.
    #[inline(always)]
    pub(crate) fn write_storage(
        &mut self,
        idx: usize,
        addr: Addr,
        v: Vector,
    ) -> Result<(), SimError> {
        match addr {
            Addr::Reg(i) => {
                let slot = self.regs[idx].get_mut(i as usize).ok_or_else(|| {
                    SimError::AddressOutOfRange {
                        context: format!("register r{i}"),
                    }
                })?;
                *slot = v;
            }
            Addr::DataMem(a) if (a as usize) < self.dmem_words => {
                self.dmem[a as usize * self.n + idx] = v;
            }
            Addr::DataMem(a) => return Err(mem_oob("dmem", "write", a as usize, self.dmem_words)),
            Addr::Spad(a) if (a as usize) < self.spad_entries => {
                self.spad[a as usize * self.n + idx] = v;
            }
            Addr::Spad(a) => return Err(mem_oob("spad", "write", a as usize, self.spad_entries)),
            a => unreachable!("{a} is not a storage operand"),
        }
        Ok(())
    }

    /// Folds activity counted outside the array (the eager engine's
    /// per-cycle generic tally) into the array's tally.
    pub(crate) fn charge(&mut self, a: &Activity) {
        self.activity.add(a);
    }

    /// Register file access (tests / debugging).
    pub fn reg(&self, idx: usize, i: usize) -> Vector {
        self.regs[idx][i]
    }

    /// True when PE `idx` has no instruction in flight.
    pub fn pipeline_empty(&self, idx: usize) -> bool {
        self.state[0][idx] == Slot::Empty
            && self.state[1][idx] == Slot::Empty
            && self.state[2][idx] == Slot::Empty
    }

    /// Checks whether an in-flight younger instruction (EXECUTE or COMMIT
    /// stage) of PE `idx` will write `addr`, returning the forwarded value if
    /// so. EXECUTE-stage values take priority (younger instruction). Within
    /// one instruction the flush-clear wins over the result: COMMIT writes
    /// the result back and then clears the flushed source, so a flush whose
    /// source is also its result leaves zero behind.
    #[inline(always)]
    fn forwarded(&self, idx: usize, addr: Addr) -> Option<Vector> {
        if addr == Addr::Null {
            return None;
        }
        // Younger first: the EXECUTE-stage instruction is the most recent
        // writer still in flight. The scan touches only the cached 4-byte
        // address fields — never the instruction ring.
        for s in [self.exec_idx(), self.commit_idx()] {
            if self.state[s][idx] != Slot::Full {
                continue;
            }
            // Flush opcodes clear their op1 source at COMMIT, after the
            // result write-back.
            if self.flush_addr[s][idx] == addr {
                return Some(Vector::ZERO);
            }
            if self.res_addr[s][idx] == addr {
                return Some(self.results[s][idx]);
            }
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn read_operand(
        &mut self,
        idx: usize,
        addr: Addr,
        instr: &Instruction,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
        shared_route_pop: &mut Option<TaggedVector>,
        fw_possible: bool,
    ) -> Result<Vector, SimError> {
        match addr {
            Addr::Null => Ok(Vector::ZERO),
            Addr::Imm => Ok(instr.imm.unwrap_or(Vector::ZERO)),
            Addr::Reg(_) | Addr::DataMem(_) | Addr::Spad(_) => {
                let v = self.read_storage(idx, addr)?;
                self.activity.note_read(addr);
                if !fw_possible {
                    return Ok(v);
                }
                Ok(self.forwarded(idx, addr).unwrap_or(v))
            }
            Addr::Port(d) => {
                // If a route pass-through pops the same direction, the single
                // popped entry feeds both the operand and the pass-through.
                let entry = Self::pop_port(d, grid, r, c, cycle)?;
                if let Some(route) = instr.route {
                    if route.from == d {
                        *shared_route_pop = Some(entry);
                    }
                }
                Ok(entry.value)
            }
        }
    }

    #[inline]
    fn pop_port(
        d: Direction,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
    ) -> Result<TaggedVector, SimError> {
        // Error context is a copyable `ErrCtx` rendered only when the pop
        // actually fails: this path runs on every successful NoC read and
        // must not allocate.
        let ctx = ErrCtx::Pop { dir: d, pe: (r, c) };
        match d {
            Direction::North => grid.vertical(r, c).pop(cycle, ctx),
            Direction::West => grid.horizontal(r, c).pop(cycle, ctx),
            Direction::South | Direction::East => Err(SimError::AddressOutOfRange {
                context: format!(
                    "PE ({r},{c}) reads {d}: only south/east-bound dataflow is instantiated"
                ),
            }),
        }
    }

    fn push_port(
        d: Direction,
        entry: TaggedVector,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
    ) -> Result<(), SimError> {
        let ctx = ErrCtx::Push { dir: d, pe: (r, c) };
        match d {
            Direction::South => grid.vertical(r + 1, c).push(entry, cycle, ctx),
            Direction::East => grid.horizontal(r, c + 1).push(entry, cycle, ctx),
            Direction::North | Direction::West => Err(SimError::AddressOutOfRange {
                context: format!(
                    "PE ({r},{c}) writes {d}: only south/east-bound dataflow is instantiated"
                ),
            }),
        }
    }

    /// LOAD stage of PE `idx`: accepts the instruction interned at `h` and
    /// resolves its operands, popping NoC ports as needed. The pipeline slot
    /// stores only the 4-byte handle; the record stays in `ring`.
    ///
    /// A fast-plan (MAC-shaped) instruction must have been charged by
    /// [`PeArray::validate_and_account`] first: its bounds and activity are
    /// settled there, so this LOAD indexes the slabs directly and counts
    /// nothing. Generic plans are bounds-checked and counted here.
    ///
    /// `validate_route` runs the §3.1 route-conflict check. It is a pure
    /// function of the instruction, so callers skip it for an identical copy
    /// already validated elsewhere — the fabric's eastward-forwarded issues,
    /// and the spatial runner's held instructions (checked once up front).
    ///
    /// # Errors
    ///
    /// Propagates address and NoC protocol errors, and reports
    /// [`SimError::RouterConflict`] for instructions violating the §3.1
    /// one-transfer-per-direction rule.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn load(
        &mut self,
        idx: usize,
        h: InstrHandle,
        ring: &InstrRing,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
        validate_route: bool,
    ) -> Result<(), SimError> {
        debug_assert!(
            self.state[self.load_idx][idx] == Slot::Empty,
            "LOAD slot occupied at shift time"
        );
        // Dispatch on the issue-time plan: the fast paths below are
        // behaviourally identical to the generic path specialised to their
        // shape (same operand/forwarding order, same results) and never
        // touch the NoC, the route slot, or the full record.
        let fw = self.state[self.exec_idx()][idx] == Slot::Full
            || self.state[self.commit_idx()][idx] == Slot::Full;
        let n = self.n;
        match ring.plan(h) {
            Plan::MacSToSpad { a, b, imm } => {
                let mut op2 = self.dmem[a as usize * n + idx];
                let mut res_in = self.spad[b as usize * n + idx];
                if fw {
                    op2 = self.forwarded(idx, Addr::DataMem(a)).unwrap_or(op2);
                    res_in = self.forwarded(idx, Addr::Spad(b)).unwrap_or(res_in);
                }
                let result = res_in.mac(Vector::splat(imm.lane0()), op2);
                self.fill_load_slot(idx, h, result, Addr::Spad(b), Addr::Null);
                Ok(())
            }
            Plan::MacSToReg { a, r: reg, imm } => {
                let mut op2 = self.dmem[a as usize * n + idx];
                let mut res_in = self.regs[idx][reg as usize];
                if fw {
                    op2 = self.forwarded(idx, Addr::DataMem(a)).unwrap_or(op2);
                    res_in = self.forwarded(idx, Addr::Reg(reg)).unwrap_or(res_in);
                }
                let result = res_in.mac(Vector::splat(imm.lane0()), op2);
                self.fill_load_slot(idx, h, result, Addr::Reg(reg), Addr::Null);
                Ok(())
            }
            Plan::MacVToReg { a, b, r: reg } => {
                let mut op1 = self.spad[a as usize * n + idx];
                let mut op2 = self.dmem[b as usize * n + idx];
                let mut res_in = self.regs[idx][reg as usize];
                if fw {
                    op1 = self.forwarded(idx, Addr::Spad(a)).unwrap_or(op1);
                    op2 = self.forwarded(idx, Addr::DataMem(b)).unwrap_or(op2);
                    res_in = self.forwarded(idx, Addr::Reg(reg)).unwrap_or(res_in);
                }
                let result = res_in.mac(op1, op2);
                self.fill_load_slot(idx, h, result, Addr::Reg(reg), Addr::Null);
                Ok(())
            }
            Plan::Generic => self.load_generic(idx, h, ring, grid, r, c, cycle, validate_route, fw),
        }
    }

    /// Fills PE `idx`'s LOAD slot (eager lane result included).
    #[inline(always)]
    fn fill_load_slot(
        &mut self,
        idx: usize,
        h: InstrHandle,
        result: Vector,
        res: Addr,
        flush: Addr,
    ) {
        let s = self.load_idx;
        self.state[s][idx] = Slot::Full;
        self.results[s][idx] = result;
        self.handles[s][idx] = h;
        self.res_addr[s][idx] = res;
        self.flush_addr[s][idx] = flush;
    }

    /// Issue-time validation + accounting for a fast plan about to execute
    /// on `cols` PEs (every column of a fabric row, or one held spatial
    /// PE). Bounds are checked once, in the generic path's operand order, so
    /// a violation raises the identical error a bounds-checked LOAD would
    /// have raised this same cycle. The activity of all `cols` executions —
    /// the COMMIT write-back included — is charged to the tally.
    pub fn validate_and_account(&mut self, plan: Plan, cols: usize) -> Result<(), SimError> {
        let cols = cols as u64;
        match plan {
            Plan::MacSToSpad { a, b, .. } => {
                if a as usize >= self.dmem_words {
                    return Err(mem_oob("dmem", "read", a as usize, self.dmem_words));
                }
                if b as usize >= self.spad_entries {
                    return Err(mem_oob("spad", "read", b as usize, self.spad_entries));
                }
                self.activity.dmem_reads += cols;
                self.activity.spad_reads += cols;
                self.activity.spad_writes += cols; // COMMIT write-back
            }
            Plan::MacSToReg { a, .. } => {
                if a as usize >= self.dmem_words {
                    return Err(mem_oob("dmem", "read", a as usize, self.dmem_words));
                }
                self.activity.dmem_reads += cols;
            }
            Plan::MacVToReg { a, b, .. } => {
                if a as usize >= self.spad_entries {
                    return Err(mem_oob("spad", "read", a as usize, self.spad_entries));
                }
                if b as usize >= self.dmem_words {
                    return Err(mem_oob("dmem", "read", b as usize, self.dmem_words));
                }
                self.activity.spad_reads += cols;
                self.activity.dmem_reads += cols;
            }
            Plan::Generic => debug_assert!(false, "generic plans are counted as they execute"),
        }
        self.activity.instrs += cols;
        self.activity.compute_instrs += cols;
        self.activity.mac_instrs += cols;
        Ok(())
    }

    /// Eager execution of one fast-plan (MAC) issue across a whole fabric
    /// row: PE ids `base..base + cols`, in column order, each running the
    /// MAC to completion (read, multiply-accumulate, write back). Under the
    /// sequential semantics (module docs) this is exactly what the
    /// pipelines compute; because every PE of the row uses the same local
    /// addresses, each operand is one contiguous `cols`-vector slice of an
    /// address-major slab. Bounds and activity were settled at issue by
    /// [`PeArray::validate_and_account`].
    pub(crate) fn mac_row(&mut self, plan: Plan, base: usize, cols: usize) {
        let n = self.n;
        let regs = &mut self.regs[base..base + cols];
        match plan {
            Plan::MacSToSpad { a, b, imm } => {
                let m = Vector::splat(imm.lane0());
                let src = &self.dmem[a as usize * n + base..][..cols];
                let acc = &mut self.spad[b as usize * n + base..][..cols];
                for (x, &w) in acc.iter_mut().zip(src) {
                    *x = x.mac(m, w);
                }
            }
            Plan::MacSToReg { a, r, imm } => {
                let m = Vector::splat(imm.lane0());
                let src = &self.dmem[a as usize * n + base..][..cols];
                for (pe, &w) in regs.iter_mut().zip(src) {
                    let x = &mut pe[r as usize];
                    *x = x.mac(m, w);
                }
            }
            Plan::MacVToReg { a, b, r } => {
                let mul = &self.spad[a as usize * n + base..][..cols];
                let src = &self.dmem[b as usize * n + base..][..cols];
                for ((pe, &s), &w) in regs.iter_mut().zip(mul).zip(src) {
                    let x = &mut pe[r as usize];
                    *x = x.mac(s, w);
                }
            }
            Plan::Generic => unreachable!("generic plans execute column by column"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn load_generic(
        &mut self,
        idx: usize,
        h: InstrHandle,
        ring: &InstrRing,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
        validate: bool,
        fw_possible: bool,
    ) -> Result<(), SimError> {
        let instr = ring.get(h);
        if validate {
            if let Some(d) = instr.noc_conflict() {
                return Err(SimError::RouterConflict {
                    cycle,
                    pe: (r, c),
                    direction: d.to_string(),
                });
            }
        }
        self.activity.note_instr(instr.op);
        // `fw_possible` (hoisted by the caller): a value can only be
        // forwarded from a `Full` EXECUTE/COMMIT slot, so when both are
        // empty (common in sparse bands) every operand read skips the
        // per-address forwarding scan.
        let mut shared_pop = None;
        let op1 = self.read_operand(
            idx,
            instr.op1,
            instr,
            grid,
            r,
            c,
            cycle,
            &mut shared_pop,
            fw_possible,
        )?;
        let op2 = self.read_operand(
            idx,
            instr.op2,
            instr,
            grid,
            r,
            c,
            cycle,
            &mut shared_pop,
            fw_possible,
        )?;
        // Read-modify-write opcodes read the old result value here.
        let res_in = match instr.op {
            Opcode::MacV | Opcode::MacS | Opcode::Acc => match instr.res {
                Addr::Port(_) | Addr::Null | Addr::Imm => Vector::ZERO,
                a => {
                    let mut none = None;
                    self.read_operand(idx, a, instr, grid, r, c, cycle, &mut none, fw_possible)?
                }
            },
            _ => Vector::ZERO,
        };
        // Route pass-through pop (if not shared with an operand pop). The
        // routed slot is written only when a route is present; COMMIT reads
        // it under the same condition.
        if let Some(route) = instr.route {
            self.routed[self.load_idx][idx] = match shared_pop {
                Some(e) => e,
                None => Self::pop_port(route.from, grid, r, c, cycle)?,
            };
        }
        self.state[self.load_idx][idx] = Slot::Full;
        // The EXECUTE stage's lane result is a pure function of the operand
        // values captured right here, and nothing can observe it before the
        // next cycle — so it is computed eagerly instead of in a separate
        // per-PE EXECUTE sweep. The instruction still *occupies* the EXECUTE
        // slot for a full cycle (stage rotation is unchanged); only the
        // simulator's work moves.
        self.results[self.load_idx][idx] = Self::lane_result(instr.op, op1, op2, res_in);
        self.handles[self.load_idx][idx] = h;
        // A NOP writes nothing back at COMMIT, so it forwards nothing.
        self.res_addr[self.load_idx][idx] = if instr.op == Opcode::Nop {
            Addr::Null
        } else {
            instr.res
        };
        self.flush_addr[self.load_idx][idx] =
            if matches!(instr.op, Opcode::MovFlush | Opcode::AddFlush) {
                instr.op1
            } else {
                Addr::Null
            };
        Ok(())
    }

    /// The vector-lane function of one opcode.
    #[inline]
    pub(crate) fn lane_result(op: Opcode, op1: Vector, op2: Vector, res_in: Vector) -> Vector {
        match op {
            Opcode::Nop => Vector::ZERO,
            Opcode::Mov | Opcode::MovFlush => op1,
            Opcode::Add | Opcode::AddFlush => op1.add(op2),
            Opcode::Sub => {
                let mut out = [0; crate::isa::LANES];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = op1.0[i].wrapping_sub(op2.0[i]);
                }
                Vector(out)
            }
            Opcode::Mul => op1.mul(op2),
            Opcode::MacV => res_in.mac(op1, op2),
            Opcode::MacS => res_in.mac(Vector::splat(op1.lane0()), op2),
            Opcode::Acc => res_in.add(op1),
            Opcode::RedSum => {
                let mut out = Vector::ZERO;
                out.0[0] = op1.reduce_sum();
                out
            }
            Opcode::Max => {
                let mut out = [0; crate::isa::LANES];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = op1.0[i].max(op2.0[i]);
                }
                Vector(out)
            }
            Opcode::Min => {
                let mut out = [0; crate::isa::LANES];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = op1.0[i].min(op2.0[i]);
                }
                Vector(out)
            }
        }
    }

    /// COMMIT stage of PE `idx`: writes the result (memory / register / NoC
    /// push), performs the flush-clear of `MovFlush`/`AddFlush`, and pushes
    /// the pass-through payload. A retiring instruction's 4-byte
    /// [`InstrHandle`] is written into `forward_into` (the eastern
    /// neighbour's injection slot) when one is given — the record itself
    /// never moves, it stays interned in `ring`. The return is a compact
    /// effect descriptor for the caller's wake propagation.
    ///
    /// # Errors
    ///
    /// Propagates address and NoC protocol errors.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn commit_into(
        &mut self,
        idx: usize,
        ring: &InstrRing,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
        forward_into: Option<&mut InstrHandle>,
    ) -> Result<CommitEffects, SimError> {
        let commit_idx = self.commit_idx();
        if self.state[commit_idx][idx] == Slot::Empty {
            return Ok(CommitEffects::NONE);
        }
        self.state[commit_idx][idx] = Slot::Empty;
        let h = self.handles[commit_idx][idx];
        let result = self.results[commit_idx][idx];
        // Plan fast paths: a MAC writes one accumulator (bounds checked and
        // write-back charged at issue) and drives no link — no record
        // resolve, no write-back dispatch, constant effects.
        match ring.plan(h) {
            Plan::MacSToSpad { b, .. } => {
                self.spad[b as usize * self.n + idx] = result;
                if let Some(slot) = forward_into {
                    *slot = h;
                }
                return Ok(CommitEffects::MAC);
            }
            Plan::MacSToReg { r: reg, .. } | Plan::MacVToReg { r: reg, .. } => {
                self.regs[idx][reg as usize] = result;
                if let Some(slot) = forward_into {
                    *slot = h;
                }
                return Ok(CommitEffects::MAC);
            }
            Plan::Generic => {}
        }
        let instr = ring.get(h);
        // Result write-back.
        if instr.op != Opcode::Nop {
            match instr.res {
                Addr::Null => {}
                Addr::Imm => {
                    return Err(SimError::AddressOutOfRange {
                        context: "write to immediate".into(),
                    })
                }
                a @ (Addr::Reg(_) | Addr::DataMem(_) | Addr::Spad(_)) => {
                    self.write_storage(idx, a, result)?;
                    self.activity.note_write(a);
                }
                Addr::Port(d) => {
                    Self::push_port(
                        d,
                        TaggedVector {
                            value: result,
                            tag: instr.tag,
                        },
                        grid,
                        r,
                        c,
                        cycle,
                    )?;
                }
            }
        }
        // Flush-clear of the op1 source.
        if matches!(instr.op, Opcode::MovFlush | Opcode::AddFlush) {
            match instr.op1 {
                a @ (Addr::Spad(_) | Addr::Reg(_)) => {
                    self.write_storage(idx, a, Vector::ZERO)?;
                    self.activity.note_write(a);
                }
                a => {
                    return Err(SimError::AddressOutOfRange {
                        context: format!("flush-clear of non-storage operand {a}"),
                    })
                }
            }
        }
        // Pass-through push (the routed slot is valid exactly when a route
        // is present — LOAD populated it under the same condition).
        if let Some(route) = instr.route {
            let entry = self.routed[commit_idx][idx];
            Self::push_port(route.to, entry, grid, r, c, cycle)?;
        }
        if let Some(slot) = forward_into {
            *slot = h;
        }
        Ok(CommitEffects {
            retired: true,
            drives_south: instr.pushes_toward(Direction::South),
            drives_east: instr.pushes_toward(Direction::East),
        })
    }

    /// Handle of the instruction sitting in PE `idx`'s COMMIT slot this
    /// cycle, if any — a read-only peek used by the trace layer to stamp
    /// commit events before the slot is consumed.
    pub fn commit_handle(&self, idx: usize) -> Option<InstrHandle> {
        let s = self.commit_idx();
        if self.state[s][idx] == Slot::Full {
            Some(self.handles[s][idx])
        } else {
            None
        }
    }

    /// Advances every pipeline by one stage (end of cycle): the stages are
    /// renamed by rotating the shared slot index — no in-flight state is
    /// moved, and the cost is independent of the PE count.
    pub fn advance(&mut self) {
        debug_assert!(
            self.state[self.commit_idx()]
                .iter()
                .all(|&s| s == Slot::Empty),
            "commit slot not consumed"
        );
        // The old COMMIT slot (now empty) becomes the new LOAD slot; the
        // old LOAD and EXECUTE slots become EXECUTE and COMMIT in place.
        self.load_idx = self.commit_idx();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::LANES;

    fn grid1x1() -> LinkGrid {
        LinkGrid::new(1, 1, 4, false)
    }

    fn one_pe() -> PeArray {
        PeArray::new(1, 4, 4)
    }

    fn ring() -> InstrRing {
        InstrRing::with_capacity(16)
    }

    /// LOADs `h` into PE (0, `idx`) the way the fabric issues it: a fast
    /// plan is validated and charged first.
    fn issue(
        pes: &mut PeArray,
        idx: usize,
        h: InstrHandle,
        ring: &InstrRing,
        grid: &mut LinkGrid,
        cycle: u64,
    ) -> Result<(), SimError> {
        let plan = ring.plan(h);
        if plan != Plan::Generic {
            pes.validate_and_account(plan, 1)?;
        }
        pes.load(idx, h, ring, grid, 0, idx, cycle, true)
    }

    fn commit(pes: &mut PeArray, idx: usize, ring: &InstrRing, grid: &mut LinkGrid, cycle: u64) {
        pes.commit_into(idx, ring, grid, 0, idx, cycle, None)
            .unwrap();
    }

    /// Runs a single instruction through a 1×1 array's PE.
    fn run_one(pes: &mut PeArray, grid: &mut LinkGrid, i: Instruction) {
        let mut ring = ring();
        let h = ring.intern(i);
        issue(pes, 0, h, &ring, grid, 0).unwrap();
        pes.advance();
        pes.advance();
        commit(pes, 0, &ring, grid, 2);
    }

    #[test]
    fn mov_imm_to_reg() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        let i = Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(1))
            .with_imm(Vector::splat(9));
        run_one(&mut pes, &mut g, i);
        assert_eq!(pes.reg(0, 1), Vector::splat(9));
        assert_eq!(pes.activity().instrs, 1);
        assert_eq!(pes.activity().compute_instrs, 0);
    }

    #[test]
    fn macs_accumulates_into_spad() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        pes.pe_mut(0).dmem.preload(0, &[Vector([1, 2, 3, 4])]);
        let mac = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Spad(2))
            .with_imm(Vector::splat(3));
        run_one(&mut pes, &mut g, mac);
        run_one(&mut pes, &mut g, mac);
        assert_eq!(pes.pe(0).spad.word(2), Vector([6, 12, 18, 24]));
        // A fast-plan MAC is charged once, at issue, write-back included.
        assert_eq!(
            pes.activity(),
            Activity {
                instrs: 2,
                compute_instrs: 2,
                mac_instrs: 2,
                dmem_reads: 2,
                dmem_writes: 0,
                spad_reads: 2,
                spad_writes: 2,
            }
        );
    }

    #[test]
    fn fast_plan_bounds_checked_at_issue() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        let mut ring = ring();
        let h = ring.intern(
            Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(4), Addr::Spad(0))
                .with_imm(Vector::splat(1)),
        );
        assert!(matches!(
            issue(&mut pes, 0, h, &ring, &mut g, 0),
            Err(SimError::AddressOutOfRange { .. })
        ));
        assert_eq!(pes.activity(), Activity::default());
        assert!(pes.pipeline_empty(0));
    }

    #[test]
    fn back_to_back_mac_forwarding() {
        // Two MACs to the same spad slot in consecutive cycles must see each
        // other's in-flight values (RAW across the pipeline).
        let mut pes = one_pe();
        let mut g = grid1x1();
        pes.pe_mut(0).dmem.preload(0, &[Vector::splat(1)]);
        let mac = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Spad(0))
            .with_imm(Vector::splat(1));
        let mut ring = ring();
        let h = ring.intern(mac);
        // Pipelined: issue 3 MACs back-to-back.
        issue(&mut pes, 0, h, &ring, &mut g, 0).unwrap();
        pes.advance();
        issue(&mut pes, 0, h, &ring, &mut g, 1).unwrap();
        pes.advance();
        commit(&mut pes, 0, &ring, &mut g, 2);
        issue(&mut pes, 0, h, &ring, &mut g, 2).unwrap();
        pes.advance();
        commit(&mut pes, 0, &ring, &mut g, 3);
        pes.advance();
        commit(&mut pes, 0, &ring, &mut g, 4);
        assert_eq!(pes.pe(0).spad.word(0), Vector::splat(3));
    }

    #[test]
    fn movflush_clears_source() {
        let mut pes = one_pe();
        let mut g = LinkGrid::new(1, 1, 4, false);
        pes.pe_mut(0).spad.preload(1, &[Vector::splat(7)]);
        let i = Instruction::new(
            Opcode::MovFlush,
            Addr::Spad(1),
            Addr::Null,
            Addr::Port(Direction::South),
        )
        .with_tag(42);
        run_one(&mut pes, &mut g, i);
        assert_eq!(pes.pe(0).spad.word(1), Vector::ZERO);
        let out = g.vertical(1, 0).pop(3, "sink").unwrap();
        assert_eq!(out.tag, 42);
        assert_eq!(out.value, Vector::splat(7));
        // Generic path: the source read and the flush-clear write counted.
        assert_eq!(pes.activity().spad_reads, 1);
        assert_eq!(pes.activity().spad_writes, 1);
    }

    #[test]
    fn flush_onto_its_own_source_forwards_zero() {
        // `MovFlush Spad(1) -> Spad(1)`: COMMIT writes the value back and
        // then clears the source, leaving zero. A reader one cycle behind
        // (forwarded from the EXECUTE slot) and one two cycles behind
        // (reading storage after the COMMIT) must agree on that zero.
        let mut pes = one_pe();
        let mut g = grid1x1();
        pes.pe_mut(0).spad.preload(1, &[Vector::splat(7)]);
        let mut ring = ring();
        let flush = ring.intern(Instruction::new(
            Opcode::MovFlush,
            Addr::Spad(1),
            Addr::Null,
            Addr::Spad(1),
        ));
        let read_into =
            |reg| Instruction::new(Opcode::Mov, Addr::Spad(1), Addr::Null, Addr::Reg(reg));
        let plus1 = ring.intern(read_into(0));
        let plus2 = ring.intern(read_into(1));
        issue(&mut pes, 0, flush, &ring, &mut g, 0).unwrap();
        pes.advance();
        issue(&mut pes, 0, plus1, &ring, &mut g, 1).unwrap();
        pes.advance();
        commit(&mut pes, 0, &ring, &mut g, 2);
        issue(&mut pes, 0, plus2, &ring, &mut g, 2).unwrap();
        pes.advance();
        commit(&mut pes, 0, &ring, &mut g, 3);
        pes.advance();
        commit(&mut pes, 0, &ring, &mut g, 4);
        assert_eq!(pes.pe(0).spad.word(1), Vector::ZERO);
        assert_eq!(pes.reg(0, 0), Vector::ZERO, "reader at +1 cycle");
        assert_eq!(pes.reg(0, 1), Vector::ZERO, "reader at +2 cycles");
    }

    #[test]
    fn route_pass_through_preserves_tag() {
        let mut pes = one_pe();
        // 2-row grid so PE (0,0) has a real south link; feed its north edge.
        let mut g = LinkGrid::new(2, 1, 4, true);
        g.vertical(0, 0)
            .push(
                TaggedVector {
                    value: Vector::splat(5),
                    tag: 11,
                },
                0,
                "feed",
            )
            .unwrap();
        let i = Instruction::NOP;
        let i = Instruction {
            op: Opcode::Nop,
            ..i
        }
        .with_route(Direction::North, Direction::South);
        run_one(&mut pes, &mut g, i);
        let out = g.vertical(1, 0).pop(3, "t").unwrap();
        assert_eq!(out.tag, 11);
        assert_eq!(out.value, Vector::splat(5));
    }

    #[test]
    fn shared_pop_feeds_operand_and_route() {
        // Mov op1=North res=Spad with route North→South: one pop serves both.
        let mut pes = one_pe();
        let mut g = LinkGrid::new(2, 1, 4, true);
        g.vertical(0, 0)
            .push(
                TaggedVector {
                    value: Vector([1, 2, 3, 4]),
                    tag: 3,
                },
                0,
                "feed",
            )
            .unwrap();
        let i = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Null,
            Addr::Spad(0),
        )
        .with_route(Direction::North, Direction::South);
        run_one(&mut pes, &mut g, i);
        assert_eq!(pes.pe(0).spad.word(0), Vector([1, 2, 3, 4]));
        let fwd = g.vertical(1, 0).pop(3, "t").unwrap();
        assert_eq!(fwd.tag, 3);
        assert_eq!(fwd.value, Vector([1, 2, 3, 4]));
    }

    #[test]
    fn pop_empty_link_is_protocol_error() {
        let mut pes = one_pe();
        let mut g = LinkGrid::new(2, 1, 4, true);
        let i = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Null,
            Addr::Reg(0),
        );
        let mut ring = ring();
        let h = ring.intern(i);
        assert!(matches!(
            pes.load(0, h, &ring, &mut g, 0, 0, 0, true),
            Err(SimError::Deadlock { .. })
        ));
    }

    #[test]
    fn router_conflict_detected_at_load() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        let i = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Port(Direction::North),
            Addr::Reg(0),
        );
        let mut ring = ring();
        let h = ring.intern(i);
        assert!(matches!(
            pes.load(0, h, &ring, &mut g, 0, 0, 0, true),
            Err(SimError::RouterConflict { .. })
        ));
    }

    #[test]
    fn redsum_and_addflush() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        // reg0 = [1,2,3,4]
        run_one(
            &mut pes,
            &mut g,
            Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(0))
                .with_imm(Vector([1, 2, 3, 4])),
        );
        // reg1 = redsum(reg0) = 10 in lane 0
        run_one(
            &mut pes,
            &mut g,
            Instruction::new(Opcode::RedSum, Addr::Reg(0), Addr::Null, Addr::Reg(1)),
        );
        assert_eq!(pes.reg(0, 1), Vector([10, 0, 0, 0]));
        // AddFlush: reg2 = reg0 + reg1; reg0 cleared.
        run_one(
            &mut pes,
            &mut g,
            Instruction::new(Opcode::AddFlush, Addr::Reg(0), Addr::Reg(1), Addr::Reg(2)),
        );
        assert_eq!(pes.reg(0, 2), Vector([11, 2, 3, 4]));
        assert_eq!(pes.reg(0, 0), Vector::ZERO);
    }

    #[test]
    fn nop_produces_no_activity() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        run_one(&mut pes, &mut g, Instruction::NOP);
        // A NOP loaded directly takes the generic path: one instruction
        // latched, nothing read, computed, or written.
        assert_eq!(
            pes.activity(),
            Activity {
                instrs: 1,
                ..Activity::default()
            }
        );
        assert!(pes.pipeline_empty(0));
    }

    #[test]
    fn nop_with_port_result_does_not_push() {
        // `Nop` skips write-back entirely, so a south result address on a
        // NOP must not touch the link (matches the slow path's behaviour).
        let mut pes = one_pe();
        let mut g = LinkGrid::new(1, 1, 4, false);
        let i = Instruction::new(
            Opcode::Nop,
            Addr::Null,
            Addr::Null,
            Addr::Port(Direction::South),
        );
        run_one(&mut pes, &mut g, i);
        assert!(g.vertical(1, 0).is_empty());
        assert_eq!(pes.activity().instrs, 1);
    }

    #[test]
    fn soa_array_isolates_pes() {
        // Two PEs in one array: state updates stay per-index.
        let mut pes = PeArray::new(2, 4, 4);
        let mut g = LinkGrid::new(1, 2, 4, false);
        let i0 = Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(0))
            .with_imm(Vector::splat(1));
        let i1 = Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(0))
            .with_imm(Vector::splat(2));
        let mut ring = ring();
        let h0 = ring.intern(i0);
        let h1 = ring.intern(i1);
        issue(&mut pes, 0, h0, &ring, &mut g, 0).unwrap();
        issue(&mut pes, 1, h1, &ring, &mut g, 0).unwrap();
        pes.advance();
        pes.advance();
        commit(&mut pes, 0, &ring, &mut g, 2);
        commit(&mut pes, 1, &ring, &mut g, 2);
        assert_eq!(pes.reg(0, 0), Vector::splat(1));
        assert_eq!(pes.reg(1, 0), Vector::splat(2));
        assert_eq!(pes.activity().instrs, 2);
        assert_eq!(LANES, 4);
    }
}

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
//! before it commits.

use crate::isa::{
    Addr, Direction, InstrHandle, InstrRing, Instruction, Opcode, Plan, PlanKind, Vector,
};
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

/// Bounds-checked, counted read of word `a` of PE `idx` in an
/// address-major slab (`words` words per PE, `n` PEs: word `a` of PE `idx`
/// at `slab[a * n + idx]`) — the one definition of "checked counted slab
/// access" behind every hot-path memory accessor.
#[allow(clippy::too_many_arguments)]
#[inline]
fn slab_read(
    slab: &[Vector],
    words: usize,
    n: usize,
    idx: usize,
    a: usize,
    count: &mut u64,
    what: &'static str,
) -> Result<Vector, SimError> {
    if a < words {
        *count += 1;
        Ok(slab[a * n + idx])
    } else {
        Err(mem_oob(what, "read", a, words))
    }
}

/// Bounds-checked, counted write — see [`slab_read`].
#[allow(clippy::too_many_arguments)]
#[inline]
fn slab_write(
    slab: &mut [Vector],
    words: usize,
    n: usize,
    idx: usize,
    a: usize,
    v: Vector,
    count: &mut u64,
    what: &'static str,
) -> Result<(), SimError> {
    if a < words {
        *count += 1;
        slab[a * n + idx] = v;
        Ok(())
    } else {
        Err(mem_oob(what, "write", a, words))
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

    /// Reads PE `idx`'s data-memory word `a`, counting the access.
    #[inline]
    fn dmem_read(&mut self, idx: usize, a: usize) -> Result<Vector, SimError> {
        slab_read(
            &self.dmem,
            self.dmem_words,
            self.n,
            idx,
            a,
            &mut self.activity.dmem_reads,
            "dmem",
        )
    }

    /// Writes PE `idx`'s data-memory word `a`, counting the access.
    #[inline]
    fn dmem_write(&mut self, idx: usize, a: usize, v: Vector) -> Result<(), SimError> {
        slab_write(
            &mut self.dmem,
            self.dmem_words,
            self.n,
            idx,
            a,
            v,
            &mut self.activity.dmem_writes,
            "dmem",
        )
    }

    /// Reads PE `idx`'s scratchpad entry `a`, counting the access.
    #[inline]
    fn spad_read(&mut self, idx: usize, a: usize) -> Result<Vector, SimError> {
        slab_read(
            &self.spad,
            self.spad_entries,
            self.n,
            idx,
            a,
            &mut self.activity.spad_reads,
            "spad",
        )
    }

    /// Writes PE `idx`'s scratchpad entry `a`, counting the access.
    #[inline]
    fn spad_write(&mut self, idx: usize, a: usize, v: Vector) -> Result<(), SimError> {
        slab_write(
            &mut self.spad,
            self.spad_entries,
            self.n,
            idx,
            a,
            v,
            &mut self.activity.spad_writes,
            "spad",
        )
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
    /// so. EXECUTE-stage values take priority (younger instruction).
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
            if self.res_addr[s][idx] == addr {
                return Some(self.results[s][idx]);
            }
            // Flush opcodes clear their op1 source at COMMIT.
            if self.flush_addr[s][idx] == addr {
                return Some(Vector::ZERO);
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
            Addr::Reg(i) => {
                let base = self.regs[idx].get(i as usize).copied().ok_or_else(|| {
                    SimError::AddressOutOfRange {
                        context: format!("register r{i} (of {NUM_REGS})"),
                    }
                })?;
                if !fw_possible {
                    return Ok(base);
                }
                Ok(self.forwarded(idx, addr).unwrap_or(base))
            }
            Addr::DataMem(a) => {
                let v = self.dmem_read(idx, a as usize)?;
                if !fw_possible {
                    return Ok(v);
                }
                Ok(self.forwarded(idx, addr).unwrap_or(v))
            }
            Addr::Spad(a) => {
                let v = self.spad_read(idx, a as usize)?;
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

    /// Column-vectorized COMMIT+LOAD of one whole fabric column: two
    /// straight-line passes (COMMIT write-back, then LOAD + eager EXECUTE)
    /// over the address-major slabs at stride `cols`, each dispatched once
    /// on the column's uniform plan shape instead of once per PE.
    ///
    /// The caller (the fabric's per-column uniformity detector) guarantees —
    /// and debug builds assert — that in every row `r` of the column, the
    /// COMMIT slot is `Full` with a plan of `commit_kind`, the EXECUTE slot
    /// is `Full` with a non-generic (MAC) plan, the LOAD slot is empty, and
    /// `loads[r·cols + col]` is a plan of `load_kind`; both kinds are MAC
    /// shapes (never [`PlanKind::Generic`]). The per-PE *addresses* still
    /// differ — each row issued its own instruction — so the plan lookup
    /// stays per PE; what the pass hoists is the shape dispatch, the
    /// forwarding scan, and every per-PE call/effect decision. Under the
    /// invariants it is instruction-for-instruction identical to the scalar
    /// path:
    ///
    /// * MAC plans drive no NoC link and have a null flush address, so the
    ///   COMMIT write-back is one slab/register store and the effects are
    ///   constant (retired, no link drives, no wakes);
    /// * the fused per-PE order empties a PE's COMMIT slot before its LOAD
    ///   runs, and COMMIT/LOAD touch only PE-local state, so splitting the
    ///   column into a commit pass followed by a load pass reorders nothing
    ///   observable; store-to-load forwarding can then only hit the EXECUTE
    ///   slot — one cached-address compare per operand that *can* match
    ///   (the MAC result address is `Spad`/`Reg` and the EXECUTE slot's
    ///   flush address is null, so `DataMem` operands never forward);
    /// * bounds and activity counts were hoisted to issue time
    ///   ([`PeArray::validate_and_account`]), exactly as on the scalar
    ///   path.
    ///
    /// Eastward forwarding is bulk-copied: each row's retiring handle lands
    /// in `forwards[r·cols + col + 1]` (the caller passes the next-cycle
    /// injection slab, or `None` for the last column, where the scalar path
    /// drops the handle too).
    #[allow(clippy::too_many_arguments)]
    pub fn batch_col(
        &mut self,
        col: usize,
        cols: usize,
        n_rows: usize,
        ring: &InstrRing,
        loads: &[InstrHandle],
        forwards: Option<&mut [InstrHandle]>,
        commit_kind: PlanKind,
        load_kind: PlanKind,
    ) {
        let n = self.n;
        let commit_s = self.commit_idx();
        let exec_s = self.exec_idx();
        let load_s = self.load_idx;
        #[cfg(debug_assertions)]
        for r in 0..n_rows {
            let idx = r * cols + col;
            assert_eq!(self.state[commit_s][idx], Slot::Full, "batched COMMIT");
            assert_eq!(self.state[exec_s][idx], Slot::Full, "batched EXECUTE");
            assert_eq!(self.state[load_s][idx], Slot::Empty, "batched LOAD");
            assert_eq!(ring.plan(self.handles[commit_s][idx]).kind(), commit_kind);
            assert_ne!(
                ring.plan(self.handles[exec_s][idx]).kind(),
                PlanKind::Generic,
                "EXECUTE slot must hold a MAC for the forwarding shortcut"
            );
            assert_eq!(ring.plan(loads[idx]).kind(), load_kind);
        }
        if let Some(fw) = forwards {
            for r in 0..n_rows {
                let idx = r * cols + col;
                fw[idx + 1] = self.handles[commit_s][idx];
            }
        }
        // COMMIT pass: accumulator write-back (counted at issue).
        match commit_kind {
            PlanKind::MacSToSpad => {
                for r in 0..n_rows {
                    let idx = r * cols + col;
                    let Plan::MacSToSpad { b, .. } = ring.plan(self.handles[commit_s][idx]) else {
                        unreachable!("uniform column holds one plan shape")
                    };
                    self.spad[b as usize * n + idx] = self.results[commit_s][idx];
                    self.state[commit_s][idx] = Slot::Empty;
                }
            }
            PlanKind::MacSToReg | PlanKind::MacVToReg => {
                for r in 0..n_rows {
                    let idx = r * cols + col;
                    let (Plan::MacSToReg { r: reg, .. } | Plan::MacVToReg { r: reg, .. }) =
                        ring.plan(self.handles[commit_s][idx])
                    else {
                        unreachable!("uniform column holds one plan shape")
                    };
                    self.regs[idx][reg as usize] = self.results[commit_s][idx];
                    self.state[commit_s][idx] = Slot::Empty;
                }
            }
            PlanKind::Generic => unreachable!("generic plans never batch"),
        }
        // LOAD + eager EXECUTE pass.
        match load_kind {
            PlanKind::MacSToSpad => {
                for r in 0..n_rows {
                    let idx = r * cols + col;
                    let Plan::MacSToSpad { a, b, imm } = ring.plan(loads[idx]) else {
                        unreachable!("uniform column holds one plan shape")
                    };
                    let op2 = self.dmem[a as usize * n + idx];
                    let target = Addr::Spad(b);
                    let res_in = if self.res_addr[exec_s][idx] == target {
                        self.results[exec_s][idx]
                    } else {
                        self.spad[b as usize * n + idx]
                    };
                    self.state[load_s][idx] = Slot::Full;
                    self.results[load_s][idx] = res_in.mac(Vector::splat(imm.lane0()), op2);
                    self.handles[load_s][idx] = loads[idx];
                    self.res_addr[load_s][idx] = target;
                    self.flush_addr[load_s][idx] = Addr::Null;
                }
            }
            PlanKind::MacSToReg => {
                for r in 0..n_rows {
                    let idx = r * cols + col;
                    let Plan::MacSToReg { a, r: reg, imm } = ring.plan(loads[idx]) else {
                        unreachable!("uniform column holds one plan shape")
                    };
                    let op2 = self.dmem[a as usize * n + idx];
                    let target = Addr::Reg(reg);
                    let res_in = if self.res_addr[exec_s][idx] == target {
                        self.results[exec_s][idx]
                    } else {
                        self.regs[idx][reg as usize]
                    };
                    self.state[load_s][idx] = Slot::Full;
                    self.results[load_s][idx] = res_in.mac(Vector::splat(imm.lane0()), op2);
                    self.handles[load_s][idx] = loads[idx];
                    self.res_addr[load_s][idx] = target;
                    self.flush_addr[load_s][idx] = Addr::Null;
                }
            }
            PlanKind::MacVToReg => {
                for r in 0..n_rows {
                    let idx = r * cols + col;
                    let Plan::MacVToReg { a, b, r: reg } = ring.plan(loads[idx]) else {
                        unreachable!("uniform column holds one plan shape")
                    };
                    let op1 = self.spad[a as usize * n + idx];
                    let op2 = self.dmem[b as usize * n + idx];
                    let target = Addr::Reg(reg);
                    let res_in = if self.res_addr[exec_s][idx] == target {
                        self.results[exec_s][idx]
                    } else {
                        self.regs[idx][reg as usize]
                    };
                    self.state[load_s][idx] = Slot::Full;
                    self.results[load_s][idx] = res_in.mac(op1, op2);
                    self.handles[load_s][idx] = loads[idx];
                    self.res_addr[load_s][idx] = target;
                    self.flush_addr[load_s][idx] = Addr::Null;
                }
            }
            PlanKind::Generic => unreachable!("generic plans never batch"),
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
        self.activity.instrs += 1;
        self.activity.compute_instrs += instr.op.is_compute() as u64;
        self.activity.mac_instrs += instr.op.is_mac() as u64;
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
        self.res_addr[self.load_idx][idx] = instr.res;
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
    fn lane_result(op: Opcode, op1: Vector, op2: Vector, res_in: Vector) -> Vector {
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
                Addr::Reg(i) => {
                    let slot = self.regs[idx].get_mut(i as usize).ok_or_else(|| {
                        SimError::AddressOutOfRange {
                            context: format!("register r{i}"),
                        }
                    })?;
                    *slot = result;
                }
                Addr::DataMem(a) => self.dmem_write(idx, a as usize, result)?,
                Addr::Spad(a) => self.spad_write(idx, a as usize, result)?,
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
                Addr::Spad(a) => self.spad_write(idx, a as usize, Vector::ZERO)?,
                Addr::Reg(i) => {
                    let slot = self.regs[idx].get_mut(i as usize).ok_or_else(|| {
                        SimError::AddressOutOfRange {
                            context: format!("register r{i}"),
                        }
                    })?;
                    *slot = Vector::ZERO;
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

    // ---- Steady-state replay support (see `crate::replay`) ----

    /// COMMIT- and EXECUTE-slot handles of PE `idx`, for the replay
    /// engine's stretch-entry decode (both slots are provably `Full` on a
    /// clean stretch — asserted under `debug_assertions`).
    pub(crate) fn replay_slot_handles(&self, idx: usize) -> (InstrHandle, InstrHandle) {
        let cs = self.commit_idx();
        let es = self.exec_idx();
        debug_assert_eq!(
            self.state[cs][idx],
            Slot::Full,
            "replay entry: COMMIT slot not full"
        );
        debug_assert_eq!(
            self.state[es][idx],
            Slot::Full,
            "replay entry: EXECUTE slot not full"
        );
        (self.handles[cs][idx], self.handles[es][idx])
    }

    /// One chain step of a captured MAC issue at PE `idx` (replay flush).
    #[inline]
    fn replay_apply(
        &self,
        kind: PlanKind,
        idx: usize,
        v: Vector,
        e: &crate::replay::ReplayEntry,
    ) -> Vector {
        let n = self.n;
        match kind {
            PlanKind::MacSToSpad | PlanKind::MacSToReg => {
                v.mac(e.imm, self.dmem[e.p1 as usize * n + idx])
            }
            PlanKind::MacVToReg => v.mac(
                self.spad[e.p1 as usize * n + idx],
                self.dmem[e.p2 as usize * n + idx],
            ),
            PlanKind::Generic => unreachable!("generic plans are never captured"),
        }
    }

    /// Prefetch hint covering `bytes` from `ptr` (no-op off x86_64): the
    /// absorb loop's operand slices sit at hardware-prefetch-defeating
    /// strides (row-staggered bands put consecutive reads ~`n` vectors
    /// apart), so each row's slice is requested while the previous one is
    /// being multiplied.
    #[inline(always)]
    #[allow(unused_variables)]
    fn prefetch_bytes(ptr: *const u8, bytes: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let mut off = 0;
            while off < bytes {
                // SAFETY: prefetch is a pure hint — it has no memory or
                // architectural effect even for invalid addresses; `ptr`
                // itself is derived from an in-bounds slice.
                unsafe { _mm_prefetch(ptr.add(off) as *const i8, _MM_HINT_T0) };
                off += 64;
            }
        }
    }

    /// Applies the buffered operand chains of every row to their
    /// accumulator storage: column `c`'s accumulator currently holds the
    /// chain through issue `v_old − 3c − 3` and is advanced through issue
    /// `v_new − 3c − 3` — exactly the commits a cycle-stepped run performs
    /// up to the start of cycle `v_new`'s PE sweep.
    ///
    /// The loop nest is timeline-step-outer, row-inner: issue `t` is
    /// applied at column `c` when `v_old − 3c − 2 ≤ t ≤ v_new − 3c − 3`,
    /// and both bounds are linear in `c` with slope −3, so each step
    /// updates one contiguous column range — the *same* range for every
    /// row. On an interior step that range is the full row, and because
    /// lockstep rows typically read the same dmem address, the row-inner
    /// sweep touches one contiguous `rows × cols`-vector run of the
    /// address-major slab per step. That streaming order (instead of
    /// row-outer passes striding the slab in `cols`-sized slices) is what
    /// keeps the absorb DRAM-bandwidth-bound at full prefetch throughput —
    /// the absorb performs every deferred multiply of a stretch, so its
    /// memory behavior is what the replay speedup is made of. The MAC
    /// itself is a flat lane loop over index-sliced operands, the shape
    /// LLVM autovectorizes.
    ///
    /// `acc` is the caller's reusable whole-fabric accumulator scratch
    /// (`rows × cols` vectors, row-major). The activity tally is untouched:
    /// every captured issue was already accounted at issue time by
    /// [`PeArray::validate_and_account`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn replay_absorb_all(
        &mut self,
        rows: usize,
        cols: usize,
        kind: PlanKind,
        targets: &[u16],
        tls: &[Vec<crate::replay::ReplayEntry>],
        t_base: u64,
        v_old: u64,
        v_new: u64,
        acc: &mut Vec<Vector>,
    ) {
        debug_assert!(v_new >= v_old);
        debug_assert_eq!(rows * cols, self.n);
        let n = self.n;
        acc.clear();
        match kind {
            PlanKind::MacSToSpad => {
                for r in 0..rows {
                    let s = targets[r] as usize * n + r * cols;
                    acc.extend_from_slice(&self.spad[s..s + cols]);
                }
            }
            PlanKind::MacSToReg | PlanKind::MacVToReg => {
                acc.extend((0..n).map(|idx| self.regs[idx][targets[idx / cols] as usize]));
            }
            PlanKind::Generic => unreachable!("generic plans are never captured"),
        }
        use crate::isa::LANES;
        let t_lo = v_old as i64 - 3 * (cols as i64 - 1) - 2;
        let t_hi = v_new as i64 - 3;
        let col_range = |t: i64| {
            let c_min = (v_old as i64 - t).div_euclid(3).max(0);
            let c_max = (v_new as i64 - t - 3).div_euclid(3).min(cols as i64 - 1);
            (c_min, c_max)
        };
        match kind {
            PlanKind::MacSToSpad | PlanKind::MacSToReg => {
                for t in t_lo..=t_hi {
                    let (c_min, c_max) = col_range(t);
                    if c_min > c_max {
                        continue;
                    }
                    let (c0, len) = (c_min as usize, (c_max - c_min + 1) as usize);
                    let j = (t as u64 - t_base) as usize;
                    for r in 0..rows {
                        if r + 2 < rows {
                            let ahead = &tls[r + 2][j];
                            let da = ahead.p1 as usize * n + (r + 2) * cols + c0;
                            if da + len <= self.dmem.len() {
                                Self::prefetch_bytes(
                                    self.dmem[da..].as_ptr() as *const u8,
                                    len * std::mem::size_of::<Vector>(),
                                );
                            }
                        }
                        let e = &tls[r][j];
                        let m = e.imm;
                        let base = r * cols;
                        let d = e.p1 as usize * n + base + c0;
                        let src = &self.dmem[d..d + len];
                        let dst = &mut acc[base + c0..base + c0 + len];
                        for i in 0..len {
                            let w = src[i];
                            let a = &mut dst[i];
                            for l in 0..LANES {
                                a.0[l] = a.0[l].wrapping_add(m.0[l].wrapping_mul(w.0[l]));
                            }
                        }
                    }
                }
            }
            PlanKind::MacVToReg => {
                for t in t_lo..=t_hi {
                    let (c_min, c_max) = col_range(t);
                    if c_min > c_max {
                        continue;
                    }
                    let (c0, len) = (c_min as usize, (c_max - c_min + 1) as usize);
                    let j = (t as u64 - t_base) as usize;
                    for r in 0..rows {
                        if r + 2 < rows {
                            let ahead = &tls[r + 2][j];
                            let bytes = len * std::mem::size_of::<Vector>();
                            let sa = ahead.p1 as usize * n + (r + 2) * cols + c0;
                            let da = ahead.p2 as usize * n + (r + 2) * cols + c0;
                            if sa + len <= self.spad.len() {
                                Self::prefetch_bytes(self.spad[sa..].as_ptr() as *const u8, bytes);
                            }
                            if da + len <= self.dmem.len() {
                                Self::prefetch_bytes(self.dmem[da..].as_ptr() as *const u8, bytes);
                            }
                        }
                        let e = &tls[r][j];
                        let base = r * cols;
                        let s = e.p1 as usize * n + base + c0;
                        let d = e.p2 as usize * n + base + c0;
                        let mul = &self.spad[s..s + len];
                        let src = &self.dmem[d..d + len];
                        let dst = &mut acc[base + c0..base + c0 + len];
                        for i in 0..len {
                            let (sv, w) = (mul[i], src[i]);
                            let a = &mut dst[i];
                            for l in 0..LANES {
                                a.0[l] = a.0[l].wrapping_add(sv.0[l].wrapping_mul(w.0[l]));
                            }
                        }
                    }
                }
            }
            PlanKind::Generic => unreachable!("generic plans are never captured"),
        }
        match kind {
            PlanKind::MacSToSpad => {
                for r in 0..rows {
                    let s = targets[r] as usize * n + r * cols;
                    self.spad[s..s + cols].copy_from_slice(&acc[r * cols..(r + 1) * cols]);
                }
            }
            PlanKind::MacSToReg | PlanKind::MacVToReg => {
                for idx in 0..n {
                    self.regs[idx][targets[idx / cols] as usize] = acc[idx];
                }
            }
            PlanKind::Generic => unreachable!("generic plans are never captured"),
        }
    }

    /// Reconstructs one row's pipeline slots at stretch flush, exactly as a
    /// cycle-stepped run would have left them at the start of cycle `f`'s
    /// PE sweep: per column `c`, the COMMIT slot holds issue `f − 3c − 2`
    /// and the EXECUTE slot issue `f − 3c − 1`, each with its eagerly
    /// computed chain result and forwarding metadata (`res_addr` is the
    /// accumulator target, so post-flush loads forward exactly as in a
    /// stepped run). Storage must already be absorbed through `f` via
    /// [`PeArray::replay_absorb_all`]; `slot_handles[c]` carries the
    /// re-interned `(COMMIT, EXECUTE)` records.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn replay_finalize_row(
        &mut self,
        row: usize,
        cols: usize,
        kind: PlanKind,
        target: u16,
        tl: &[crate::replay::ReplayEntry],
        t_base: u64,
        f: u64,
        slot_handles: &[(InstrHandle, InstrHandle)],
    ) {
        let n = self.n;
        let res = match kind {
            PlanKind::MacSToSpad => Addr::Spad(target),
            PlanKind::MacSToReg | PlanKind::MacVToReg => Addr::Reg(target as u8),
            PlanKind::Generic => unreachable!("generic plans are never captured"),
        };
        let cs = self.commit_idx();
        let es = self.exec_idx();
        for c in 0..cols {
            let idx = row * cols + c;
            let storage = match kind {
                PlanKind::MacSToSpad => self.spad[target as usize * n + idx],
                _ => self.regs[idx][target as usize],
            };
            let jc = (f - 3 * c as u64 - 2 - t_base) as usize;
            let commit_res = self.replay_apply(kind, idx, storage, &tl[jc]);
            let exec_res = self.replay_apply(kind, idx, commit_res, &tl[jc + 1]);
            let (hc, he) = slot_handles[c];
            debug_assert_eq!(
                self.state[self.load_idx][idx],
                Slot::Empty,
                "replay flush: LOAD slot occupied"
            );
            self.state[cs][idx] = Slot::Full;
            self.results[cs][idx] = commit_res;
            self.handles[cs][idx] = hc;
            self.res_addr[cs][idx] = res;
            self.flush_addr[cs][idx] = Addr::Null;
            self.state[es][idx] = Slot::Full;
            self.results[es][idx] = exec_res;
            self.handles[es][idx] = he;
            self.res_addr[es][idx] = res;
            self.flush_addr[es][idx] = Addr::Null;
        }
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

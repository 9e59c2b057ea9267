//! Dense GEMM on Canon: the systolic-dataflow emulation of §6.2.
//!
//! For fully regular inputs Canon "emulates the systolic dataflow of
//! conventional systolic arrays": the streamed operand arrives in row-major
//! order with no gaps, partial sums accumulate in a SIMD register (the
//! scratchpad stays idle — Fig 11 shows no scratchpad power under GEMM), and
//! every row hands its contribution south on each row boundary.
//!
//! The same FSM serves N:M structured sparsity (§4.1.3): with exactly N
//! non-zeros per M elements the workload is balanced by construction, "there
//! is no need of workload balancing with scratchpad", and the psum is flushed
//! to the next row after every group — which is precisely the register-mode
//! flush-on-row-end behaviour with the structured stream.
//!
//! ## Relay vs merge
//!
//! [`RegAccFsm`] moves partial sums south in one of two ways:
//!
//! * **Relay** ([`RegAccFsm::relay`]): every row flushes `Reg(0)` south with
//!   `MovFlush` at each row end, and every upstream fragment bypasses the
//!   row on a pass-through route riding the next MAC. The bottom-edge
//!   collector sums `rows` fragments per output row. Rows never wait for
//!   each other, but row `r` relays `r` fragments per output row, so once a
//!   row's MAC burst is short against the fabric height the relays set the
//!   pace: cycles grow as `M·rows` and NoC work as `rows²` per output row.
//! * **Merge** ([`RegAccFsm::merge`]): partial sums are added in flight, as
//!   a systolic array does. Row 0 flushes like a relay row; every row below
//!   holds its `RowEnd m` (an operand-wait stall) until the upstream
//!   `PSUM m` message is in its slot, then issues `AddFlush Reg(0) +
//!   Port(North) → Port(South)` and passes `PSUM m` on. Only the bottom row's
//!   full sums reach the collector, and no bypass route is ever set. The
//!   cost is one synchronisation per row end: each row end waits for the
//!   row above.
//!
//! [`merge_in_flight`] picks the flow from the shape and the geometry (no
//! configuration knob): merge iff `rows > 2·w`, where `w = nnz(A) /
//! (M·rows)` is the mean MAC burst per PE row per output row (`K / rows` for
//! dense). Past that height relays dominate and merging cuts cycles
//! several-fold (GEMM at 128×64: 33,216 → 1,214). With long bursts (`w ≥
//! rows`) the two flows run within a cycle of each other, and relay needs
//! no row-to-row synchronisation. In between (`rows/2 ≤ w < rows`) merging
//! would still win — the 32×32×32 GEMM at 8×8 (`w = 4`) takes 198 cycles
//! merged against 344 relayed — but that shape is the pinned GEMM cycle
//! golden, so the rule leaves the band on relay. The smoke-scale 2:4 at 8×8
//! has the same `w`/`rows` and stays on relay with it.
//!
//! Lane adds wrap, so merging in a different order than the collector
//! does leaves results bit-identical to `canon_sparse::reference`.

use crate::config::CanonConfig;
use crate::isa::{Addr, Direction, Instruction, Opcode, Vector};
use crate::kernels::spmm::{run_spmm, state, SpmmMapping, SpmmOutput};
use crate::orchestrator::{msg_id, MetaToken, OrchAction, OrchIo, OrchMessage, OrchProgram};
use crate::stats::StallCause;
use crate::SimError;
use canon_sparse::{CsrMatrix, Dense};

/// Whether the register-accumulation mapping of an `M`-row operand with
/// `nnz` streamed elements on a `rows`-high fabric merges partial sums in
/// flight ([`RegAccFsm::merge`]) instead of relaying them to the bottom
/// edge ([`RegAccFsm::relay`]): true iff `rows > 2·w` with `w = nnz /
/// (M·rows)` (see the [module docs](self)).
pub fn merge_in_flight(nnz: usize, m: usize, rows: usize) -> bool {
    // rows > 2·nnz/(M·rows), kept in integers.
    m * rows * rows > 2 * nnz
}

/// Register-accumulation FSM: MACs accumulate into `Reg(0)` and each row end
/// hands the register south, either relayed to the bottom edge or merged
/// with the upstream psum (see the [module docs](self)).
#[derive(Debug)]
pub struct RegAccFsm {
    merge: bool,
    done: bool,
}

impl RegAccFsm {
    /// The relay FSM for `m_total` output rows: every row end flushes
    /// `Reg(0)` south and every upstream psum bypasses the row. Also the
    /// top row of a merging mapping, which has no upstream psum to add.
    pub fn relay(m_total: usize) -> RegAccFsm {
        RegAccFsm {
            merge: false,
            done: m_total == 0,
        }
    }

    /// The merge FSM for `m_total` output rows, for every row below the
    /// top: each row end waits for the upstream `PSUM` message, adds the
    /// arriving psum to `Reg(0)` and sends the sum south.
    pub fn merge(m_total: usize) -> RegAccFsm {
        RegAccFsm {
            merge: true,
            done: m_total == 0,
        }
    }

    #[inline]
    fn input_decision(&mut self, io: &OrchIo) -> OrchAction {
        match io.input {
            Some(MetaToken::Nnz { row, col, value }) => OrchAction::issue(
                Instruction::new(
                    Opcode::MacS,
                    Addr::Imm,
                    Addr::DataMem(col as u16),
                    Addr::Reg(0),
                )
                .with_imm(Vector::splat(value))
                .with_tag(row),
                state::MAC,
            )
            .take_input(),
            Some(MetaToken::RowEnd { row }) => self.row_end(io, row),
            Some(MetaToken::End) => {
                self.done = true;
                OrchAction::nop(state::DONE).take_input()
            }
            Some(other) => {
                debug_assert!(false, "unexpected token {other:?} in GEMM stream");
                OrchAction::nop(state::NOP)
            }
            None => OrchAction::nop(state::NOP),
        }
    }

    /// The row end of output row `row`: relaying, flush `Reg(0)` south;
    /// merging, wait for the upstream psum of `row` (announced by the
    /// delivered message), add it to `Reg(0)` and send the sum south.
    #[inline]
    fn row_end(&self, io: &OrchIo, row: u32) -> OrchAction {
        let instr = if self.merge {
            let Some(msg) = io.msg else {
                return OrchAction::stall(state::FLUSH, StallCause::OperandWait);
            };
            debug_assert_eq!(msg.rid, row, "upstream psum out of row order");
            Instruction::new(
                Opcode::AddFlush,
                Addr::Reg(0),
                Addr::Port(Direction::North),
                Addr::Port(Direction::South),
            )
        } else {
            Instruction::new(
                Opcode::MovFlush,
                Addr::Reg(0),
                Addr::Null,
                Addr::Port(Direction::South),
            )
        };
        if io.south_credits == 0 {
            return OrchAction::stall(state::FLUSH, StallCause::Credit);
        }
        if !io.msg_slot_free {
            return OrchAction::stall(state::FLUSH, StallCause::MsgSlot);
        }
        let action = OrchAction::issue(instr.with_tag(row), state::FLUSH)
            .take_input()
            .send(OrchMessage {
                id: msg_id::PSUM,
                rid: row,
            });
        if self.merge {
            action.take_msg()
        } else {
            action
        }
    }
}

impl OrchProgram for RegAccFsm {
    #[inline]
    fn step(&mut self, io: &OrchIo) -> OrchAction {
        // A relaying row's bypass handling stays live after the local stream
        // finished (the DONE state keeps reacting to upstream psums). A
        // merging row never bypasses: a message that arrives during a MAC
        // burst waits in its slot for the row end that consumes it.
        if let Some(msg) = io.msg.filter(|_| !self.merge) {
            // No managed window: every upstream psum bypasses south. A
            // blocked bypass labels the stall with the state of the action it
            // would have carried (the ride-along MAC for an nnz token, a
            // plain relay otherwise), matching the assembled LUT's
            // `state_out` labeling so the trace streams stay identical.
            let blocked = match io.input {
                Some(MetaToken::Nnz { .. }) if !self.done => state::MAC,
                _ => state::NOP,
            };
            if io.south_credits == 0 {
                return OrchAction::stall(blocked, StallCause::Credit);
            }
            if !io.msg_slot_free {
                return OrchAction::stall(blocked, StallCause::MsgSlot);
            }
            let sub_io = OrchIo {
                south_credits: io.south_credits - 1,
                msg_slot_free: false,
                ..*io
            };
            // Only a MAC can host the pass-through (a flush uses the south
            // port itself).
            let mut action = match sub_io.input {
                Some(MetaToken::Nnz { .. }) if !self.done => self.input_decision(&sub_io),
                _ => OrchAction::nop(state::NOP),
            };
            action.instr = action.instr.with_route(Direction::North, Direction::South);
            action = action.take_msg().send(msg);
            action.clear_stall();
            return action;
        }
        if self.done {
            return OrchAction::nop(state::DONE);
        }
        self.input_decision(io)
    }

    fn done(&self) -> bool {
        self.done
    }
}

/// Converts a dense matrix into a "dense CSR" that keeps explicit zeros, so
/// that the data-agnostic GEMM stream contains every element (no sparsity
/// exploitation — GEMM is the regular-workload reference point).
pub fn dense_as_full_csr(a: &Dense) -> CsrMatrix {
    let m = a.rows();
    let k = a.cols();
    let row_ptr = (0..=m).map(|r| r * k).collect();
    let col_idx = (0..m).flat_map(|_| 0..k).collect();
    let values = a.as_slice().to_vec();
    CsrMatrix::new(m, k, row_ptr, col_idx, values).expect("dense CSR structure is valid")
}

/// Runs dense GEMM (`C = A × B`) on the Canon fabric.
///
/// # Errors
///
/// Same mapping constraints as [`run_spmm`].
pub fn run_gemm(cfg: &CanonConfig, a: &Dense, b: &Dense) -> Result<SpmmOutput, SimError> {
    let full = dense_as_full_csr(a);
    run_spmm(
        cfg,
        &SpmmMapping {
            spad_depth: 1,
            use_scratchpad: false,
            ..SpmmMapping::default()
        },
        &full,
        b,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_sparse::{gen, reference};

    #[test]
    fn gemm_matches_reference() {
        let mut rng = gen::seeded_rng(31);
        let a = Dense::random(24, 32, &mut rng);
        let b = Dense::random(32, 32, &mut rng);
        let out = run_gemm(&CanonConfig::default(), &a, &b).unwrap();
        assert_eq!(out.result, reference::gemm(&a, &b));
    }

    #[test]
    fn gemm_streams_every_element() {
        let mut rng = gen::seeded_rng(32);
        let a = Dense::random(16, 32, &mut rng);
        let b = Dense::random(32, 32, &mut rng);
        let out = run_gemm(&CanonConfig::default(), &a, &b).unwrap();
        // Data-agnostic: exactly M*K MAC tokens per row tile, across 8 rows.
        assert_eq!(out.report.stats.mac_instrs, (16 * 32 / 8 * 8 * 8) as u64);
    }

    #[test]
    fn gemm_does_not_touch_scratchpad() {
        let mut rng = gen::seeded_rng(33);
        let a = Dense::random(16, 32, &mut rng);
        let b = Dense::random(32, 32, &mut rng);
        let out = run_gemm(&CanonConfig::default(), &a, &b).unwrap();
        assert_eq!(out.report.stats.spad_reads, 0, "GEMM must not read spad");
        assert_eq!(out.report.stats.spad_writes, 0, "GEMM must not write spad");
    }

    #[test]
    fn gemm_high_utilization() {
        let mut rng = gen::seeded_rng(34);
        let a = Dense::random(64, 64, &mut rng);
        let b = Dense::random(64, 32, &mut rng);
        let out = run_gemm(&CanonConfig::default(), &a, &b).unwrap();
        let util = out.report.compute_utilization();
        assert!(util > 0.75, "dense GEMM utilization {util} too low");
    }

    #[test]
    fn dense_as_full_csr_keeps_zeros() {
        let a = Dense::from_rows(&[vec![0, 1], vec![2, 0]]);
        let full = dense_as_full_csr(&a);
        assert_eq!(full.nnz(), 4);
        assert_eq!(full.to_dense(), a);
    }

    #[test]
    fn regacc_fsm_flush_on_rowend() {
        let mut fsm = RegAccFsm::relay(2);
        let io = OrchIo {
            cycle: 0,
            input: Some(MetaToken::RowEnd { row: 0 }),
            msg: None,
            south_credits: 2,
            msg_slot_free: true,
            north_tokens: 0,
        };
        let a = fsm.step(&io);
        assert_eq!(a.instr.op, Opcode::MovFlush);
        assert_eq!(a.instr.op1, Addr::Reg(0));
        assert_eq!(a.msg_out().unwrap().rid, 0);
    }

    #[test]
    fn merge_rule_keeps_the_golden_on_relay() {
        // Dense 32×32×32 at 8 rows: w = 4, rows = 2·w → relay.
        assert!(!merge_in_flight(32 * 32, 32, 8));
        // The same GEMM at 16 rows: w = 2 → merge.
        assert!(merge_in_flight(32 * 32, 32, 16));
        // Smoke 2:4 (K = 64) at 8 rows has the golden's w/rows; 2:8 merges.
        assert!(!merge_in_flight(64 * 32, 64, 8));
        assert!(merge_in_flight(64 * 16, 64, 8));
        // Deep K stays on relay at any large geometry.
        assert!(!merge_in_flight(8 * 16_384, 8, 128));
        assert!(!merge_in_flight(0, 0, 8));
    }

    fn merge_io(input: MetaToken, msg: Option<u32>) -> OrchIo {
        OrchIo {
            cycle: 0,
            input: Some(input),
            msg: msg.map(|rid| OrchMessage {
                id: msg_id::PSUM,
                rid,
            }),
            south_credits: 2,
            msg_slot_free: true,
            north_tokens: usize::from(msg.is_some()),
        }
    }

    #[test]
    fn merge_fsm_holds_row_end_until_upstream_psum() {
        let mut fsm = RegAccFsm::merge(2);
        let wait = fsm.step(&merge_io(MetaToken::RowEnd { row: 0 }, None));
        assert_eq!(wait.stall_cause(), Some(StallCause::OperandWait));
        assert!(wait.instr.is_plain_nop() && !wait.consumes_input());
        let a = fsm.step(&merge_io(MetaToken::RowEnd { row: 0 }, Some(0)));
        assert_eq!(a.instr.op, Opcode::AddFlush);
        assert_eq!(
            (a.instr.op1, a.instr.op2, a.instr.res),
            (
                Addr::Reg(0),
                Addr::Port(Direction::North),
                Addr::Port(Direction::South)
            )
        );
        assert!(a.instr.route.is_none(), "merge never sets a bypass route");
        assert!(a.consumes_input() && a.consumes_msg());
        assert_eq!(a.msg_out().unwrap().rid, 0);
        // Back-pressure on the south channel holds the merge too.
        let starved = OrchIo {
            south_credits: 0,
            ..merge_io(MetaToken::RowEnd { row: 1 }, Some(1))
        };
        assert_eq!(fsm.step(&starved).stall_cause(), Some(StallCause::Credit));
        fsm.step(&merge_io(MetaToken::End, None));
        assert!(fsm.done());
    }

    #[test]
    fn merge_fsm_macs_past_a_waiting_message() {
        let mut fsm = RegAccFsm::merge(4);
        let nnz = MetaToken::Nnz {
            row: 0,
            col: 1,
            value: 2,
        };
        let a = fsm.step(&merge_io(nnz, Some(0)));
        assert_eq!(a.instr.op, Opcode::MacS);
        assert!(a.consumes_input() && !a.consumes_msg());
        assert!(a.instr.route.is_none() && a.msg_out().is_none());
    }

    #[test]
    fn regacc_fsm_always_bypasses_messages() {
        let mut fsm = RegAccFsm::relay(4);
        let io = OrchIo {
            cycle: 0,
            input: Some(MetaToken::Nnz {
                row: 0,
                col: 1,
                value: 2,
            }),
            msg: Some(OrchMessage {
                id: msg_id::PSUM,
                rid: 0,
            }),
            south_credits: 2,
            msg_slot_free: true,
            north_tokens: 1,
        };
        let a = fsm.step(&io);
        assert!(a.consumes_msg() && a.consumes_input());
        assert_eq!(a.instr.op, Opcode::MacS);
        assert!(a.instr.route.is_some());
        assert_eq!(a.msg_out().unwrap().rid, 0);
    }
}

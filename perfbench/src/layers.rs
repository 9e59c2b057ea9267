//! One grid cell executed layer by layer, with a span around each call.
//!
//! `canon_sweep::execute_cell` runs a cell as one opaque call. For Canon
//! tensor cells this module makes the calls that call makes —
//! operand materialization, `run_kernel`, the energy model — itself, so
//! each gets its own span, and builds the same [`StoredRecord`]. Every
//! other cell (analytic baselines, loop nests) goes through
//! `execute_cell` unchanged. The sweep workloads prove the two paths agree
//! by comparing the canonical store bytes each produces.

use crate::trace::Recorder;
use canon_core::kernels::{self, KernelInput};
use canon_core::{CanonConfig, SimError};
use canon_energy::{canon_energy, Arch};
use canon_sparse::{reference, Dense};
use canon_sweep::backend::OperandCache;
use canon_sweep::store::{CellFailure, RecordStatus, CODE_SALT};
use canon_sweep::{execute_cell, Scenario, StoredRecord, SweepOptions};
use canon_workloads::{TensorOp, Workload};
use std::sync::Arc;

/// Counters of one simulated Canon cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricCounts {
    pub cycles: u64,
    pub active_pe_cycles: u64,
    pub batched_pe_cycles: u64,
    pub replayed_cycles: u64,
    /// Host time inside the cycle loop (`RunReport::wall_ns`).
    pub step_ns: u64,
}

/// A cell's record plus what the checks and layer metrics need.
pub struct CellRun {
    pub rec: StoredRecord,
    pub fabric: Option<FabricCounts>,
    /// Operands and simulated output of a cell with a reference kernel.
    pub output: Option<(Arc<KernelInput>, Dense)>,
}

/// Whether an op's operands depend on the seed (and so are shared through
/// the operand cache by every backend of the cell).
fn data_dependent(op: &TensorOp) -> bool {
    matches!(
        op,
        TensorOp::Spmm { .. } | TensorOp::SpmmNm { .. } | TensorOp::SddmmUnstructured { .. }
    )
}

/// Executes `scenario` under spans parented to `parent`, tagged `tag`.
pub fn run_cell(
    scenario: &Scenario,
    key: String,
    cache: &OperandCache,
    rec: &Recorder,
    parent: u64,
    tag: u64,
) -> CellRun {
    let cfg = CanonConfig::default();
    let op = match &scenario.op {
        Workload::Tensor(op) if scenario.arch == Arch::Canon => op,
        other => {
            if let Workload::Tensor(op) = other {
                if data_dependent(op) {
                    rec.time("sweep.backend.materialize", Some(parent), tag, || {
                        cache.input(op, scenario.seed)
                    });
                }
            }
            let (rec, _) = rec.time("sweep.backend.analytic", Some(parent), tag, || {
                execute_cell(scenario, key, &cfg, &SweepOptions::default(), cache)
            });
            return CellRun {
                rec,
                fabric: None,
                output: None,
            };
        }
    };
    let input = rec.time("sweep.backend.materialize", Some(parent), tag, || {
        cache.input(op, scenario.seed)
    });
    let kcfg = cfg.with_geometry(scenario.geometry.0, scenario.geometry.1);
    let open = rec.open("core.kernels.run_kernel", Some(parent), tag);
    let run = kernels::run_kernel(&kcfg, &input);
    let span = rec.close(open);
    let mut record = StoredRecord {
        key,
        salt: CODE_SALT.to_string(),
        workload: scenario.workload.clone(),
        arch: scenario.arch.label().to_string(),
        band: scenario.band.map(|b| b.to_string()),
        rows: scenario.geometry.0,
        cols: scenario.geometry.1,
        scale: scenario.scale,
        seed: scenario.seed,
        op: scenario.op_descriptor(),
        status: RecordStatus::Ok,
        cycles: 0,
        energy_pj: 0.0,
        useful_macs: 0,
        utilization: 0.0,
        stalls: None,
    };
    // The same status mapping `execute_cell` applies to a simulator error.
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            (record.status, record.cycles) = match e {
                SimError::Deadlock { cycle, waiting_on } => (
                    RecordStatus::Failed(CellFailure::Deadlock { detail: waiting_on }),
                    cycle,
                ),
                SimError::Timeout { cycle, budget } => (
                    RecordStatus::Failed(CellFailure::Timeout { detail: budget }),
                    cycle,
                ),
                e => (RecordStatus::Error(e.to_string()), 0),
            };
            return CellRun {
                rec: record,
                fabric: None,
                output: None,
            };
        }
    };
    let report = &out.report;
    rec.push_derived(
        "core.fabric.step",
        Some(span.id),
        tag,
        span.start,
        report.wall_ns,
    );
    record.energy_pj = rec.time("energy.model", Some(parent), tag, || {
        canon_energy(report).total_pj()
    });
    record.cycles = report.cycles;
    record.useful_macs = op.useful_macs();
    record.utilization = report.compute_utilization();
    record.stalls = Some(report.stats.stall_breakdown);
    let fabric = FabricCounts {
        cycles: report.cycles,
        active_pe_cycles: report.stats.active_pe_cycles,
        batched_pe_cycles: report.stats.batched_pe_cycles,
        replayed_cycles: report.stats.replayed_cycles,
        step_ns: report.wall_ns,
    };
    let output = (!matches!(*input, KernelInput::Window { .. })).then_some((input, out.result));
    CellRun {
        rec: record,
        fabric: Some(fabric),
        output,
    }
}

/// The `canon-sparse` reference result for a cell's operands (`None` for
/// the window kernel, which generates its operands internally).
pub fn reference_result(input: &KernelInput) -> Option<Dense> {
    match input {
        KernelInput::Gemm { a, b } => Some(reference::gemm(a, b)),
        KernelInput::Spmm { a, b, .. } | KernelInput::SpmmNm { a, b, .. } => {
            Some(reference::spmm(a, b))
        }
        KernelInput::Sddmm { mask, q, kv, .. } => Some(reference::sddmm(mask, q, kv)),
        KernelInput::Window { .. } => None,
    }
}

/// Median host time of `Fabric::new` and of `Fabric::reset` on a fabric
/// of each geometry, averaged over `geometries`, in milliseconds.
pub fn fabric_build_reset_ms(geometries: &[(usize, usize)], reps: usize) -> (f64, f64) {
    let mut build = 0.0;
    let mut reset = 0.0;
    for &(rows, cols) in geometries {
        let cfg = CanonConfig::default().with_geometry(rows, cols);
        let mut b = Vec::new();
        let mut r = Vec::new();
        for _ in 0..reps {
            let t = std::time::Instant::now();
            let mut fabric = std::hint::black_box(canon_core::Fabric::new(&cfg, false));
            b.push(t.elapsed().as_secs_f64() * 1e3);
            let t = std::time::Instant::now();
            fabric.reset(&cfg);
            std::hint::black_box(&fabric);
            r.push(t.elapsed().as_secs_f64() * 1e3);
        }
        build += crate::stats::median(&b).unwrap_or(0.0);
        reset += crate::stats::median(&r).unwrap_or(0.0);
    }
    let n = geometries.len().max(1) as f64;
    (build / n, reset / n)
}

//! The unified multi-backend execution trait.
//!
//! [`Backend`] is the single interface the sweep engine (and the harness
//! figures) dispatch through: `supports` answers capability questions from
//! the [`Workload`] alone, `run` executes it (materializing tensor operands
//! from a seed, or resolving a PolyBench loop nest through the mapping cost
//! models), returning uniform [`RunRecord`] metrics. Implementations cover
//! the Canon simulator ([`CanonBackend`]), the three tensor-only baselines
//! ([`BaselineBackend`]), and the CGRA ([`CgraBackend`], which additionally
//! runs arbitrary loop nests); [`all_backends`] yields them in the figures'
//! row order ([`Arch::all`]).
//!
//! Every backend is **geometry-parameterized**: [`backend_for`] provisions
//! baselines iso-MAC with the Canon fabric geometry of the cell
//! (`rows × cols × LANES` scalar MACs, the Table 1 parity requirement), so
//! a geometry sweep compares equal peak compute at every point.
//!
//! Operand materialization is centralized in [`kernel_input`], so every
//! backend of a cell sees *identical* inputs for a given seed — the parity
//! requirement behind the paper's normalized comparisons. The shared
//! [`OperandCache`] goes further: the engine and figure harness pass one
//! cache across a cell's backends, so those identical operands are
//! materialized **once** per `(op, seed)` instead of once per backend.

use canon_baselines::{Accelerator, Cgra, OpKind, SparseSystolic24, SystolicArray, ZedAccelerator};
use canon_core::kernels::{self, window::WindowAttention, KernelInput};
use canon_core::stats::{RunReport, StallBreakdown};
use canon_core::{CanonConfig, SimError, LANES};
use canon_energy::{baseline_energy, canon_energy, canon_loop_energy, Arch};
use canon_loopir::mapping::{map_canon, map_cgra};
use canon_sparse::{gen, Dense};
use canon_workloads::{LoopKernel, TensorOp, Workload};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Uniform metrics of one (backend, workload) execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRecord {
    /// Total cycles.
    pub cycles: u64,
    /// Total energy in pJ under the backend's energy model.
    pub energy_pj: f64,
    /// Useful scalar MACs/ops of the workload (identical across backends).
    pub useful_macs: u64,
    /// Effective compute utilization in `[0, 1]`.
    pub utilization: f64,
    /// Per-cause stall attribution, when the backend's cycle model tracks
    /// it (the Canon fabric simulator); `None` for analytic baselines and
    /// loop-nest mappings.
    pub stalls: Option<StallBreakdown>,
}

/// Why a backend did not produce a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The architecture cannot execute this workload at all (the `X` cells
    /// of Figs 12/13).
    Unsupported,
    /// The simulator rejected the mapping or hit a protocol error.
    Sim(SimError),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Unsupported => write!(f, "workload unsupported"),
            BackendError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<SimError> for BackendError {
    fn from(e: SimError) -> Self {
        BackendError::Sim(e)
    }
}

/// A bounded, thread-safe cache of materialized tensor operands keyed by
/// `(op descriptor, seed)`.
///
/// The five backends of a sweep cell (and the same cell at every geometry
/// point) consume *identical* operand streams — without a cache each
/// backend re-runs the RNG and rebuilds the matrices. One shared
/// `OperandCache` per sweep/figure pass makes materialization happen once
/// per `(op, seed)`; the cached [`KernelInput`] is handed out behind an
/// [`Arc`], so hits are a clone of a pointer.
///
/// Caching only changes *when* operands are built, never their values
/// ([`kernel_input`] is deterministic in `(op, seed)`), so results — and
/// the byte-identical-store guarantee — are unaffected.
#[derive(Debug)]
pub struct OperandCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<(String, u64), Arc<KernelInput>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<(String, u64)>,
}

impl Default for OperandCache {
    fn default() -> Self {
        OperandCache::new()
    }
}

impl OperandCache {
    /// A cache with the default capacity (16 entries — comfortably above
    /// the grid expansion's reuse distance, which is the architecture axis).
    pub fn new() -> OperandCache {
        OperandCache::with_capacity(16)
    }

    /// A cache bounded to `capacity` materialized inputs.
    pub fn with_capacity(capacity: usize) -> OperandCache {
        OperandCache {
            inner: Mutex::new(CacheInner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A zero-capacity cache: every probe materializes fresh operands (the
    /// behaviour of the plain [`Backend::run`] path).
    pub fn bypass() -> OperandCache {
        OperandCache::with_capacity(0)
    }

    /// The materialized input for `(op, seed)` — cached, or computed (and,
    /// capacity permitting, stored). Materialization happens outside the
    /// lock, so a slow build never blocks other workers' hits; concurrent
    /// misses of the same key may both materialize (identical values — the
    /// last insert wins).
    pub fn input(&self, op: &TensorOp, seed: u64) -> Arc<KernelInput> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(kernel_input(op, seed));
        }
        // Poison recovery: a panicking cell (isolated by the sweep engine's
        // `catch_unwind`) may die between this cache's lock/unlock pairs.
        // The guarded state is only ever mutated through complete map/order
        // operations, so the cache stays coherent and healthy cells must not
        // cascade-fail on the poison flag.
        let key = (Workload::Tensor(*op).descriptor(), seed);
        if let Some(hit) = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let input = Arc::new(kernel_input(op, seed));
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !inner.map.contains_key(&key) {
            while inner.map.len() >= self.capacity {
                let oldest = inner.order.pop_front().expect("order tracks map");
                inner.map.remove(&oldest);
            }
            inner.order.push_back(key.clone());
            inner.map.insert(key, Arc::clone(&input));
        }
        input
    }

    /// Cache hits so far.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (materializations) so far.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The unified execution interface over Canon and the baseline simulators.
pub trait Backend: Sync {
    /// Display name used in tables and result records.
    fn name(&self) -> &'static str;

    /// The architecture this backend models.
    fn arch(&self) -> Arch;

    /// Peak scalar MACs per cycle this instance is provisioned with. Under
    /// iso-MAC construction ([`backend_for`]) every backend of a geometry
    /// `(r, c)` reports `r × c ×` [`LANES`].
    fn peak_macs_per_cycle(&self) -> u64;

    /// Whether the backend can execute the workload (from the descriptor
    /// alone; no operands are materialized).
    fn supports(&self, workload: &Workload) -> bool;

    /// Executes the workload, drawing tensor operands from `cache` (loop
    /// nests are deterministic and ignore the seed). The sweep engine and
    /// the figure harness share one cache across the backends of a cell.
    ///
    /// # Errors
    ///
    /// [`BackendError::Unsupported`] for workloads `supports` rejects,
    /// [`BackendError::Sim`] for mapping/protocol failures.
    fn run_cached(
        &self,
        workload: &Workload,
        seed: u64,
        cache: &OperandCache,
    ) -> Result<RunRecord, BackendError>;

    /// Executes the workload with fresh operands (no shared cache) — the
    /// convenience form for one-off runs.
    ///
    /// # Errors
    ///
    /// As [`Backend::run_cached`].
    fn run(&self, workload: &Workload, seed: u64) -> Result<RunRecord, BackendError> {
        self.run_cached(workload, seed, &OperandCache::bypass())
    }
}

/// The workload family of a [`TensorOp`], for [`Accelerator::supports`].
pub fn op_kind(op: &TensorOp) -> OpKind {
    match op {
        TensorOp::Gemm { .. } => OpKind::Gemm,
        TensorOp::Spmm { .. } => OpKind::Spmm,
        TensorOp::SpmmNm { .. } => OpKind::SpmmNm,
        TensorOp::SddmmUnstructured { .. } => OpKind::Sddmm,
        TensorOp::SddmmWindow { .. } => OpKind::WindowAttention,
    }
}

/// The capability family of any [`Workload`].
pub fn workload_kind(workload: &Workload) -> OpKind {
    match workload {
        Workload::Tensor(op) => op_kind(op),
        Workload::Loop(_) => OpKind::LoopNest,
    }
}

/// Resolves a loop descriptor or reports the unknown name as a mapping
/// error (rather than a panic: stores may carry descriptors from older
/// suites).
fn resolve_loop(lk: &LoopKernel) -> Result<canon_loopir::Kernel, BackendError> {
    lk.resolve().ok_or_else(|| {
        BackendError::Sim(SimError::Mapping {
            reason: format!("unknown PolyBench kernel {:?}", lk.name),
        })
    })
}

/// Materializes the operands of `op` from `seed`.
///
/// This is the single place operand streams are defined: sparse operands use
/// the evaluation's skewed generator (`skew = 1.5`, the load-imbalance
/// regime the paper's workloads exhibit), masks are i.i.d. at the band's
/// sparsity, and window operands are structural. Every backend pulls its
/// inputs out of the same [`KernelInput`], so a cell's operands are
/// identical across architectures.
pub fn kernel_input(op: &TensorOp, seed: u64) -> KernelInput {
    let mut rng = gen::seeded_rng(seed);
    match *op {
        TensorOp::Gemm { m, k, n } => KernelInput::Gemm {
            a: Dense::random(m, k, &mut rng),
            b: Dense::random(k, n, &mut rng),
        },
        TensorOp::Spmm { m, k, n, sparsity } => KernelInput::Spmm {
            a: gen::skewed_sparse(m, k, sparsity, 1.5, &mut rng),
            b: Dense::random(k, n, &mut rng),
            mapping: Default::default(),
        },
        TensorOp::SpmmNm {
            m,
            k,
            n,
            n_of,
            m_of,
        } => KernelInput::SpmmNm {
            a: gen::nm_sparse(m, k, n_of, m_of, &mut rng),
            b: Dense::random(k, n, &mut rng),
            n_of,
            m_of,
        },
        TensorOp::SddmmUnstructured {
            seq,
            head_dim,
            sparsity,
        } => {
            let q = Dense::random(seq, head_dim, &mut rng);
            let kv = Dense::random(seq, head_dim, &mut rng);
            KernelInput::Sddmm {
                mask: gen::random_mask(seq, seq, sparsity, &mut rng),
                q,
                kv,
                mapping: Default::default(),
            }
        }
        TensorOp::SddmmWindow {
            seq,
            window,
            head_dim,
        } => KernelInput::Window {
            wa: WindowAttention {
                seq,
                window,
                head_dim,
            },
            seed,
        },
    }
}

/// Runs one tensor op on a baseline accelerator model — the shared tensor
/// path of [`BaselineBackend`] and [`CgraBackend`].
fn run_tensor_on<A: Accelerator>(
    acc: &A,
    arch: Arch,
    op: &TensorOp,
    seed: u64,
    cache: &OperandCache,
) -> Result<RunRecord, BackendError> {
    if !acc.supports(op_kind(op)) {
        return Err(BackendError::Unsupported);
    }
    // Shape-only families never touch the operand cache; the data-dependent
    // families pull the shared [`KernelInput`] (the sparse operand / mask a
    // baseline consumes is the exact stream Canon sees).
    let run = match *op {
        TensorOp::Gemm { m, k, n } => acc.gemm(m, k, n),
        TensorOp::SddmmWindow {
            seq,
            window,
            head_dim,
        } => acc.window_attention(seq, window, head_dim),
        TensorOp::Spmm { n, .. } => match &*cache.input(op, seed) {
            KernelInput::Spmm { a, .. } => acc.spmm(a, n),
            _ => unreachable!("kernel_input variant mismatch"),
        },
        TensorOp::SpmmNm { n, n_of, m_of, .. } => match &*cache.input(op, seed) {
            KernelInput::SpmmNm { a, .. } => acc.spmm_nm(a, n, n_of, m_of),
            _ => unreachable!("kernel_input variant mismatch"),
        },
        TensorOp::SddmmUnstructured { head_dim, .. } => match &*cache.input(op, seed) {
            KernelInput::Sddmm { mask, .. } => acc.sddmm(mask, head_dim),
            _ => unreachable!("kernel_input variant mismatch"),
        },
    }
    .ok_or(BackendError::Unsupported)?;
    Ok(RunRecord {
        cycles: run.cycles,
        energy_pj: baseline_energy(arch, &run).total_pj(),
        useful_macs: op.useful_macs(),
        utilization: run.utilization(),
        stalls: None,
    })
}

/// The Canon simulator as a [`Backend`].
#[derive(Debug, Clone, Default)]
pub struct CanonBackend {
    /// Fabric configuration (geometry, scratchpad depth, …).
    pub cfg: CanonConfig,
}

impl CanonBackend {
    /// Runs a tensor workload and returns the full cycle report — for
    /// consumers that need per-component activity (e.g. the Fig 11 power
    /// breakdown) rather than the summarized [`RunRecord`].
    ///
    /// # Errors
    ///
    /// Propagates mapping/protocol failures as [`BackendError::Sim`].
    pub fn run_report(&self, op: &TensorOp, seed: u64) -> Result<RunReport, BackendError> {
        let input = kernel_input(op, seed);
        Ok(kernels::run_kernel(&self.cfg, &input)?.report)
    }
}

impl Backend for CanonBackend {
    fn name(&self) -> &'static str {
        Arch::Canon.label()
    }

    fn arch(&self) -> Arch {
        Arch::Canon
    }

    fn peak_macs_per_cycle(&self) -> u64 {
        self.cfg.mac_units() as u64
    }

    fn supports(&self, _workload: &Workload) -> bool {
        // Canon executes every tensor family and arbitrary affine loop
        // nests; shape constraints (e.g. K divisible by the row count)
        // surface as Sim errors.
        true
    }

    fn run_cached(
        &self,
        workload: &Workload,
        seed: u64,
        cache: &OperandCache,
    ) -> Result<RunRecord, BackendError> {
        match workload {
            Workload::Tensor(op) => {
                let input = cache.input(op, seed);
                let report = kernels::run_kernel(&self.cfg, &input)?.report;
                Ok(RunRecord {
                    cycles: report.cycles,
                    energy_pj: canon_energy(&report).total_pj(),
                    useful_macs: op.useful_macs(),
                    utilization: report.compute_utilization(),
                    stalls: Some(report.stats.stall_breakdown),
                })
            }
            Workload::Loop(lk) => {
                let kernel = resolve_loop(lk)?;
                let run = map_canon(&kernel, self.cfg.rows, self.cfg.cols, LANES);
                Ok(RunRecord {
                    cycles: run.cycles,
                    energy_pj: canon_loop_energy(run.cycles, run.lane_instrs, run.useful_ops)
                        .total_pj(),
                    useful_macs: run.useful_ops,
                    utilization: run.utilization,
                    stalls: None,
                })
            }
        }
    }
}

/// A tensor-only baseline cycle model as a [`Backend`]. Loop-nest workloads
/// are always [`BackendError::Unsupported`] here; the CGRA — the one
/// baseline that runs them — has its own [`CgraBackend`].
#[derive(Debug, Clone)]
pub struct BaselineBackend<A: Accelerator> {
    arch: Arch,
    acc: A,
}

impl<A: Accelerator> BaselineBackend<A> {
    /// Wraps an accelerator model under its figure label.
    pub fn new(arch: Arch, acc: A) -> BaselineBackend<A> {
        BaselineBackend { arch, acc }
    }
}

impl<A: Accelerator> Backend for BaselineBackend<A> {
    fn name(&self) -> &'static str {
        self.arch.label()
    }

    fn arch(&self) -> Arch {
        self.arch
    }

    fn peak_macs_per_cycle(&self) -> u64 {
        self.acc.peak_macs_per_cycle()
    }

    fn supports(&self, workload: &Workload) -> bool {
        self.acc.supports(workload_kind(workload))
    }

    fn run_cached(
        &self,
        workload: &Workload,
        seed: u64,
        cache: &OperandCache,
    ) -> Result<RunRecord, BackendError> {
        match workload {
            Workload::Tensor(op) => run_tensor_on(&self.acc, self.arch, op, seed, cache),
            Workload::Loop(_) => Err(BackendError::Unsupported),
        }
    }
}

/// The CGRA as a [`Backend`]: tensor kernels via systolic emulation
/// (the shared baseline path) plus arbitrary loop nests via the modulo
/// scheduler of `canon-loopir` — the figures' only baseline without `X`
/// in the PolyBench columns.
#[derive(Debug, Clone, Default)]
pub struct CgraBackend {
    acc: Cgra,
}

impl CgraBackend {
    /// Wraps a CGRA model instance.
    pub fn new(acc: Cgra) -> CgraBackend {
        CgraBackend { acc }
    }
}

impl Backend for CgraBackend {
    fn name(&self) -> &'static str {
        Arch::Cgra.label()
    }

    fn arch(&self) -> Arch {
        Arch::Cgra
    }

    fn peak_macs_per_cycle(&self) -> u64 {
        self.acc.peak_macs_per_cycle()
    }

    fn supports(&self, workload: &Workload) -> bool {
        self.acc.supports(workload_kind(workload))
    }

    fn run_cached(
        &self,
        workload: &Workload,
        seed: u64,
        cache: &OperandCache,
    ) -> Result<RunRecord, BackendError> {
        match workload {
            Workload::Tensor(op) => run_tensor_on(&self.acc, Arch::Cgra, op, seed, cache),
            Workload::Loop(lk) => {
                let kernel = resolve_loop(lk)?;
                let run = map_cgra(&kernel, &self.acc);
                Ok(RunRecord {
                    cycles: run.cycles,
                    energy_pj: baseline_energy(Arch::Cgra, &run).total_pj(),
                    useful_macs: run.useful_macs,
                    utilization: run.utilization(),
                    stalls: None,
                })
            }
        }
    }
}

/// All five backends in the figures' row order ([`Arch::all`]): systolic,
/// 2:4 systolic, ZeD, CGRA, Canon — every one provisioned iso-MAC at
/// `cfg`'s fabric geometry.
pub fn all_backends(cfg: &CanonConfig) -> Vec<Box<dyn Backend + Send>> {
    Arch::all()
        .iter()
        .map(|&arch| backend_for(arch, cfg.geometry(), cfg))
        .collect()
}

/// The backend modelling `arch` at the given Canon fabric geometry, with
/// baselines provisioned iso-MAC (`rows × cols ×` [`LANES`] scalar MACs).
pub fn backend_for(
    arch: Arch,
    geometry: (usize, usize),
    base_cfg: &CanonConfig,
) -> Box<dyn Backend + Send> {
    let (rows, cols) = geometry;
    match arch {
        Arch::Systolic => Box::new(BaselineBackend::new(
            Arch::Systolic,
            SystolicArray::iso_mac(rows, cols),
        )),
        Arch::Systolic24 => Box::new(BaselineBackend::new(
            Arch::Systolic24,
            SparseSystolic24::iso_mac(rows, cols),
        )),
        Arch::Zed => Box::new(BaselineBackend::new(
            Arch::Zed,
            ZedAccelerator::iso_mac(rows, cols),
        )),
        Arch::Cgra => Box::new(CgraBackend::new(Cgra::iso_mac(rows, cols))),
        Arch::Canon => Box::new(CanonBackend {
            cfg: base_cfg.with_geometry(rows, cols),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spmm_op() -> Workload {
        Workload::Tensor(TensorOp::Spmm {
            m: 32,
            k: 32,
            n: 32,
            sparsity: 0.6,
        })
    }

    fn loop_workload() -> Workload {
        Workload::Loop(LoopKernel { name: "gemm", n: 8 })
    }

    #[test]
    fn all_backends_in_figure_order() {
        let backends = all_backends(&CanonConfig::default());
        let archs: Vec<Arch> = backends.iter().map(|b| b.arch()).collect();
        assert_eq!(archs, Arch::all().to_vec());
    }

    #[test]
    fn every_backend_runs_the_standard_families() {
        let backends = all_backends(&CanonConfig::default());
        let ops = [
            Workload::Tensor(TensorOp::Gemm {
                m: 32,
                k: 32,
                n: 32,
            }),
            spmm_op(),
            Workload::Tensor(TensorOp::SpmmNm {
                m: 32,
                k: 32,
                n: 32,
                n_of: 2,
                m_of: 4,
            }),
            Workload::Tensor(TensorOp::SddmmUnstructured {
                seq: 32,
                head_dim: 32,
                sparsity: 0.5,
            }),
            Workload::Tensor(TensorOp::SddmmWindow {
                seq: 32,
                window: 8,
                head_dim: 32,
            }),
        ];
        for op in &ops {
            for b in &backends {
                assert!(b.supports(op), "{} should support {op:?}", b.name());
                let rec = b
                    .run(op, 9)
                    .unwrap_or_else(|e| panic!("{} on {op:?}: {e}", b.name()));
                assert!(rec.cycles > 0, "{} on {op:?}", b.name());
                assert!(rec.energy_pj > 0.0, "{} on {op:?}", b.name());
                assert!((0.0..=1.0).contains(&rec.utilization), "{}", b.name());
            }
        }
    }

    #[test]
    fn loop_workloads_run_on_canon_and_cgra_only() {
        let backends = all_backends(&CanonConfig::default());
        let w = loop_workload();
        for b in &backends {
            let reconfigurable = matches!(b.arch(), Arch::Canon | Arch::Cgra);
            assert_eq!(b.supports(&w), reconfigurable, "{}", b.name());
            match b.run(&w, 1) {
                Ok(rec) => {
                    assert!(reconfigurable, "{} must not run loops", b.name());
                    assert!(rec.cycles > 0 && rec.energy_pj > 0.0, "{}", b.name());
                }
                Err(BackendError::Unsupported) => {
                    assert!(!reconfigurable, "{} must run loops", b.name())
                }
                Err(e) => panic!("{}: {e}", b.name()),
            }
        }
    }

    #[test]
    fn unknown_loop_kernel_is_mapping_error_not_panic() {
        let w = Workload::Loop(LoopKernel {
            name: "cholesky",
            n: 8,
        });
        let canon = CanonBackend::default();
        assert!(matches!(canon.run(&w, 1), Err(BackendError::Sim(_))));
    }

    #[test]
    fn identical_seed_identical_record() {
        let canon = CanonBackend::default();
        let a = canon.run(&spmm_op(), 11).unwrap();
        let b = canon.run(&spmm_op(), 11).unwrap();
        assert_eq!(a, b);
        let c = canon.run(&spmm_op(), 12).unwrap();
        assert_ne!(a.cycles, c.cycles);
    }

    #[test]
    fn operands_shared_across_backends_via_cache() {
        // A cached input must be the same allocation across the backends of
        // a cell, and identical to a fresh materialization.
        let cache = OperandCache::new();
        let op = TensorOp::Spmm {
            m: 32,
            k: 32,
            n: 32,
            sparsity: 0.6,
        };
        let first = cache.input(&op, 3);
        let second = cache.input(&op, 3);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the Arc");
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
        match (&*first, kernel_input(&op, 3)) {
            (KernelInput::Spmm { a: cached, .. }, KernelInput::Spmm { a: fresh, .. }) => {
                assert_eq!(*cached, fresh)
            }
            _ => panic!("wrong kernel input family"),
        }
        // A different seed is a distinct entry.
        let other = cache.input(&op, 4);
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn cached_and_uncached_runs_agree() {
        let cache = OperandCache::new();
        let w = spmm_op();
        for b in all_backends(&CanonConfig::default()) {
            let plain = b.run(&w, 11).unwrap();
            let cached = b.run_cached(&w, 11, &cache).unwrap();
            let cached_again = b.run_cached(&w, 11, &cache).unwrap();
            assert_eq!(plain, cached, "{}", b.name());
            assert_eq!(plain, cached_again, "{}", b.name());
        }
        // 10 cached probes (5 backends × 2 runs), 1 materialization.
        assert_eq!(cache.miss_count(), 1);
        assert_eq!(cache.hit_count(), 9);
    }

    #[test]
    fn cache_eviction_is_bounded() {
        let cache = OperandCache::with_capacity(2);
        let mk = |m| TensorOp::Gemm { m, k: 32, n: 32 };
        let a0 = cache.input(&mk(32), 1);
        let _ = cache.input(&mk(64), 1);
        let _ = cache.input(&mk(96), 1); // evicts mk(32)
        let a0_again = cache.input(&mk(32), 1);
        assert!(!Arc::ptr_eq(&a0, &a0_again), "evicted entry rebuilt");
        assert_eq!(cache.miss_count(), 4);
    }

    #[test]
    fn canon_mapping_violation_is_sim_error() {
        let canon = CanonBackend::default();
        // SDDMM's N = seq = 20 is not a multiple of the 8-row fabric (SpMM
        // zero-pads a ragged K; SDDMM does not pad N).
        let bad = Workload::Tensor(TensorOp::SddmmUnstructured {
            seq: 20,
            head_dim: 32,
            sparsity: 0.5,
        });
        match canon.run(&bad, 1) {
            Err(BackendError::Sim(_)) => {}
            other => panic!("expected mapping error, got {other:?}"),
        }
    }

    #[test]
    fn backends_are_iso_mac_at_every_geometry() {
        let cfg = CanonConfig::default();
        for geometry in [(4, 4), (8, 8), (16, 16), (8, 16)] {
            let want = (geometry.0 * geometry.1 * LANES) as u64;
            for arch in Arch::all() {
                let b = backend_for(arch, geometry, &cfg);
                assert_eq!(
                    b.peak_macs_per_cycle(),
                    want,
                    "{} at {geometry:?}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn loop_runs_scale_with_geometry() {
        // A bigger fabric (and its iso-MAC CGRA) should not be slower on a
        // parallel kernel.
        let w = Workload::Loop(LoopKernel {
            name: "gemm",
            n: 64,
        });
        let cfg = CanonConfig::default();
        for arch in [Arch::Canon, Arch::Cgra] {
            let small = backend_for(arch, (8, 8), &cfg).run(&w, 1).unwrap();
            let large = backend_for(arch, (16, 16), &cfg).run(&w, 1).unwrap();
            assert!(
                large.cycles <= small.cycles,
                "{arch:?}: {} vs {}",
                large.cycles,
                small.cycles
            );
        }
    }
}

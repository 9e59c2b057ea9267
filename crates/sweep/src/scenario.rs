//! Declarative scenario grids.
//!
//! A [`Scenario`] is one fully-specified cell: an architecture running one
//! concrete [`Workload`] — a tensor kernel or a PolyBench loop nest — at a
//! fabric geometry and problem scale. Grids are described declaratively
//! through [`GridBuilder`] — workload *templates* crossed with sparsity
//! bands, scales, geometries, and architectures — and expanded cartesianly
//! into a deterministic scenario order, which is also the order of every
//! result file and report column the sweep produces.
//!
//! The geometry axis applies to **every** architecture: baselines are
//! provisioned iso-MAC with the Canon fabric of the cell (see
//! [`crate::backend::backend_for`]), so each geometry point is a complete
//! five-architecture comparison at equal peak compute.

use canon_energy::Arch;
use canon_sparse::gen::SparsityBand;
use canon_workloads::{round_dim, LoopKernel, TensorOp, Workload};

/// A workload shape template at full scale. Tensor dimensions are divided
/// by the grid's scale divisor and rounded to mapping-friendly multiples of
/// 32 (via [`round_dim`]) at expansion time; loop-nest problem sizes divide
/// directly (minimum 4); sparsity comes from the grid's band axis where the
/// template is band-sensitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpTemplate {
    /// Dense GEMM (band-insensitive).
    Gemm {
        /// Output rows at full scale.
        m: usize,
        /// Contraction length at full scale.
        k: usize,
        /// Output columns at full scale.
        n: usize,
    },
    /// Unstructured SpMM; sparsity from the band axis.
    Spmm {
        /// Output rows at full scale.
        m: usize,
        /// Contraction length at full scale.
        k: usize,
        /// Output columns at full scale.
        n: usize,
    },
    /// N:M structured SpMM (band-insensitive — sparsity is `1 - n/m`).
    SpmmNm {
        /// Output rows at full scale.
        m: usize,
        /// Contraction length at full scale.
        k: usize,
        /// Output columns at full scale.
        n: usize,
        /// Non-zeros kept per group.
        n_of: usize,
        /// Group size.
        m_of: usize,
    },
    /// Unstructured SDDMM; mask sparsity from the band axis.
    Sddmm {
        /// Sequence length at full scale.
        seq: usize,
        /// Head dimension at full scale.
        head_dim: usize,
    },
    /// Sliding-window SDDMM with `window = seq / window_div`
    /// (band-insensitive — the band is the structural window).
    Window {
        /// Sequence length at full scale.
        seq: usize,
        /// Window divisor (Longformer ≈ 8, Mistral ≈ 4).
        window_div: usize,
        /// Head dimension at full scale.
        head_dim: usize,
    },
    /// A PolyBench loop nest (band-insensitive; only reconfigurable
    /// architectures run it — the `X` cells of Figs 12/13).
    Loop {
        /// PolyBench kernel name (must be in the evaluated suite).
        name: &'static str,
        /// Problem size at full scale.
        n: usize,
    },
}

impl OpTemplate {
    /// Whether the sparsity-band axis changes this template's workload.
    pub fn band_sensitive(&self) -> bool {
        matches!(self, OpTemplate::Spmm { .. } | OpTemplate::Sddmm { .. })
    }

    /// Instantiates the concrete workload at a scale divisor and optional
    /// band.
    pub fn instantiate(&self, band: Option<SparsityBand>, scale: usize) -> Workload {
        let d = |raw: usize| round_dim(raw, scale);
        let sparsity = band.unwrap_or(SparsityBand::S2).representative();
        match *self {
            OpTemplate::Gemm { m, k, n } => Workload::Tensor(TensorOp::Gemm {
                m: d(m),
                k: d(k),
                n: d(n),
            }),
            OpTemplate::Spmm { m, k, n } => Workload::Tensor(TensorOp::Spmm {
                m: d(m),
                k: d(k),
                n: d(n),
                sparsity,
            }),
            OpTemplate::SpmmNm {
                m,
                k,
                n,
                n_of,
                m_of,
            } => Workload::Tensor(TensorOp::SpmmNm {
                m: d(m),
                k: d(k),
                n: d(n),
                n_of,
                m_of,
            }),
            OpTemplate::Sddmm { seq, head_dim } => Workload::Tensor(TensorOp::SddmmUnstructured {
                seq: d(seq),
                head_dim: d(head_dim),
                sparsity,
            }),
            OpTemplate::Window {
                seq,
                window_div,
                head_dim,
            } => {
                let seq = d(seq);
                Workload::Tensor(TensorOp::SddmmWindow {
                    seq,
                    window: (seq / window_div.max(1)).max(2),
                    head_dim: d(head_dim),
                })
            }
            OpTemplate::Loop { name, n } => Workload::Loop(LoopKernel {
                name,
                // Loop trips need no 32-alignment; the stencils need
                // interior points (n >= 4).
                n: (n / scale.max(1)).max(4),
            }),
        }
    }
}

/// A named workload template — one logical column family of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Display name ("GEMM", "SpMM", "PolyB-gemm", …); band and scale
    /// suffixes are appended per cell.
    pub name: String,
    /// The shape template.
    pub template: OpTemplate,
}

/// One fully-expanded grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Workload family name.
    pub workload: String,
    /// The concrete workload.
    pub op: Workload,
    /// Sparsity band (`None` for band-insensitive workloads).
    pub band: Option<SparsityBand>,
    /// Fabric geometry `(rows, cols)`: the Canon array for Canon cells, the
    /// iso-MAC provisioning point for baseline cells.
    pub geometry: (usize, usize),
    /// Scale divisor the shapes were instantiated at.
    pub scale: usize,
    /// The architecture executing this cell.
    pub arch: Arch,
    /// Operand-generation seed — shared by every architecture of the same
    /// cell so all backends see identical operands.
    pub seed: u64,
}

/// The one definition of a workload cell's display label (name, band,
/// scale, geometry) — grids and stored records must agree on it, since
/// reports group records back into cells by this string. The geometry is
/// always spelled out: with baselines provisioned per geometry, eliding a
/// "default" would let cells of different geometries collide.
pub fn cell_label_for(
    workload: &str,
    band: Option<&str>,
    scale: usize,
    geometry: (usize, usize),
) -> String {
    let mut label = workload.to_string();
    if let Some(b) = band {
        label.push_str(&format!("-{b}"));
    }
    if scale != 1 {
        label.push_str(&format!("/s{scale}"));
    }
    label.push_str(&format!("@{}x{}", geometry.0, geometry.1));
    label
}

impl Scenario {
    /// Label of the workload cell this scenario belongs to (shared across
    /// architectures): name, band, scale, and geometry.
    pub fn cell_label(&self) -> String {
        let band = self.band.map(|b| b.to_string());
        cell_label_for(&self.workload, band.as_deref(), self.scale, self.geometry)
    }

    /// Canonical single-line description of the concrete workload — part of
    /// the cache key and of the stored record.
    pub fn op_descriptor(&self) -> String {
        self.op.descriptor()
    }

    /// The canonical key material of this cell (scenario side; the store
    /// appends the configuration fingerprint and code-version salt).
    pub fn canonical(&self) -> String {
        format!(
            "workload={};op={};band={};geom={}x{};scale={};arch={};seed={}",
            self.workload,
            self.op_descriptor(),
            self.band.map_or_else(|| "-".into(), |b| b.to_string()),
            self.geometry.0,
            self.geometry.1,
            self.scale,
            self.arch.label(),
            self.seed,
        )
    }
}

/// An expanded grid: scenarios in deterministic cartesian order
/// (workload-major, then band, scale, geometry, and architecture innermost).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// The expanded scenarios.
    pub scenarios: Vec<Scenario>,
}

impl ScenarioGrid {
    /// Starts an empty builder (all architectures, all bands, the default
    /// 8×8 geometry, scale divisor 1).
    pub fn builder() -> GridBuilder {
        GridBuilder::new()
    }

    /// The standard multi-backend grid mirroring the Figs 12/13 columns:
    /// GEMM, banded SpMM, 2:4 / 2:8 structured SpMM, banded SDDMM, the two
    /// window-attention shapes, and three PolyBench loop nests (one per
    /// category), across all five architectures.
    ///
    /// `scale` is the shape divisor (1 = full scale, 4 ≈ smoke).
    pub fn standard(scale: usize) -> ScenarioGrid {
        let mut b = GridBuilder::new().scales(&[scale]);
        for w in standard_workloads() {
            b = b.workload(&w.name, w.template);
        }
        b.build()
    }

    /// Number of distinct workload cells (scenario count / architectures).
    pub fn cell_count(&self) -> usize {
        let mut labels: Vec<String> = self.scenarios.iter().map(Scenario::cell_label).collect();
        labels.dedup();
        labels.len()
    }
}

/// The large-fabric scale tier's geometry axis: the two fabric sizes the
/// `large` tier of `repro bench`/`repro sweep` measures (64×64 and 128×64,
/// 4096 and 8192 PEs). One definition shared by the bench harness, the
/// sweep CLI default under `--large`, and CI's large-geometry determinism
/// diff.
pub fn large_geometries() -> [(usize, usize); 2] {
    [(64, 64), (128, 64)]
}

/// The most PEs a requested fabric may have: twice the largest geometry
/// any grid uses (128×64). Past it, building the fabric's memories can fail
/// an allocation, which aborts the whole process instead of one cell.
pub const MAX_FABRIC_PES: usize = 16384;

/// Checks that a `rows`×`cols` fabric has at most [`MAX_FABRIC_PES`] PEs
/// (the product is computed without overflow). The gate in front of fabric
/// construction: [`crate::engine::execute_cell`] runs it before any backend,
/// so library callers get an `error` record, and daemon submits and the
/// `--geom` flag run it to reject a request up front.
///
/// # Errors
///
/// A message naming the geometry and the bound.
pub fn check_fabric_size(rows: usize, cols: usize) -> Result<(), String> {
    match rows.checked_mul(cols) {
        Some(pes) if pes <= MAX_FABRIC_PES => Ok(()),
        _ => Err(format!(
            "fabric {rows}x{cols} exceeds the {MAX_FABRIC_PES}-PE limit"
        )),
    }
}

/// The workload templates of [`ScenarioGrid::standard`]: seven tensor
/// families plus three PolyBench loop nests (one per figure category).
pub fn standard_workloads() -> Vec<WorkloadSpec> {
    let spec = |name: &str, template| WorkloadSpec {
        name: name.into(),
        template,
    };
    vec![
        spec(
            "GEMM",
            OpTemplate::Gemm {
                m: 256,
                k: 256,
                n: 128,
            },
        ),
        spec(
            "SpMM",
            OpTemplate::Spmm {
                m: 256,
                k: 256,
                n: 128,
            },
        ),
        spec(
            "SpMM-2:4",
            OpTemplate::SpmmNm {
                m: 256,
                k: 256,
                n: 128,
                n_of: 2,
                m_of: 4,
            },
        ),
        spec(
            "SpMM-2:8",
            OpTemplate::SpmmNm {
                m: 256,
                k: 256,
                n: 128,
                n_of: 2,
                m_of: 8,
            },
        ),
        spec(
            "SDDMM",
            OpTemplate::Sddmm {
                seq: 128,
                head_dim: 64,
            },
        ),
        spec(
            "SDDMM-Win1",
            OpTemplate::Window {
                seq: 256,
                window_div: 8,
                head_dim: 64,
            },
        ),
        spec(
            "SDDMM-Win2",
            OpTemplate::Window {
                seq: 512,
                window_div: 4,
                head_dim: 128,
            },
        ),
        // One loop nest per Figs 12/13 PolyBench category: BLAS, Kernel,
        // Stencil. Systolic variants and ZeD record these as Unsupported.
        spec(
            "PolyB-gemm",
            OpTemplate::Loop {
                name: "gemm",
                n: 64,
            },
        ),
        spec("PolyB-2mm", OpTemplate::Loop { name: "2mm", n: 64 }),
        spec(
            "PolyB-jacobi-2d",
            OpTemplate::Loop {
                name: "jacobi-2d",
                n: 64,
            },
        ),
    ]
}

/// Builder for [`ScenarioGrid`] — each axis defaults to the evaluation's
/// standard setting and can be overridden before [`GridBuilder::build`].
#[derive(Debug, Clone)]
pub struct GridBuilder {
    archs: Vec<Arch>,
    workloads: Vec<WorkloadSpec>,
    bands: Vec<SparsityBand>,
    geometries: Vec<(usize, usize)>,
    scales: Vec<usize>,
    base_seed: u64,
}

impl Default for GridBuilder {
    fn default() -> Self {
        GridBuilder::new()
    }
}

impl GridBuilder {
    /// Creates a builder with the default axes: all five architectures, all
    /// three sparsity bands, the 8×8 geometry, scale divisor 1.
    pub fn new() -> GridBuilder {
        GridBuilder {
            archs: Arch::all().to_vec(),
            workloads: Vec::new(),
            bands: SparsityBand::all().to_vec(),
            geometries: vec![(8, 8)],
            scales: vec![1],
            base_seed: DEFAULT_BASE_SEED,
        }
    }

    /// Restricts the architecture axis.
    pub fn archs(mut self, archs: &[Arch]) -> GridBuilder {
        self.archs = archs.to_vec();
        self
    }

    /// Adds one workload template.
    pub fn workload(mut self, name: &str, template: OpTemplate) -> GridBuilder {
        self.workloads.push(WorkloadSpec {
            name: name.into(),
            template,
        });
        self
    }

    /// Sets the sparsity-band axis (applied to band-sensitive templates).
    pub fn bands(mut self, bands: &[SparsityBand]) -> GridBuilder {
        self.bands = bands.to_vec();
        self
    }

    /// Sets the fabric-geometry axis. Every architecture expands over it:
    /// Canon instantiates a `rows × cols` fabric, baselines are provisioned
    /// iso-MAC with it.
    pub fn geometries(mut self, geometries: &[(usize, usize)]) -> GridBuilder {
        self.geometries = geometries.to_vec();
        self
    }

    /// Switches the geometry axis to the large-fabric tier
    /// ([`large_geometries`]).
    pub fn large_tier(self) -> GridBuilder {
        let geoms = large_geometries();
        self.geometries(&geoms)
    }

    /// Sets the scale-divisor axis.
    pub fn scales(mut self, scales: &[usize]) -> GridBuilder {
        self.scales = scales.to_vec();
        self
    }

    /// Sets the base seed the per-cell operand seeds derive from.
    pub fn seed(mut self, seed: u64) -> GridBuilder {
        self.base_seed = seed;
        self
    }

    /// Expands the cartesian product into a deterministic scenario order.
    pub fn build(self) -> ScenarioGrid {
        let mut scenarios = Vec::new();
        let bands_of = |w: &WorkloadSpec| -> Vec<Option<SparsityBand>> {
            if w.template.band_sensitive() && !self.bands.is_empty() {
                self.bands.iter().copied().map(Some).collect()
            } else {
                vec![None]
            }
        };
        for w in &self.workloads {
            for band in bands_of(w) {
                for &scale in &self.scales {
                    let op = w.template.instantiate(band, scale.max(1));
                    let seed = cell_seed(self.base_seed, &w.name, band, scale);
                    for &geometry in &self.geometries {
                        for &arch in &self.archs {
                            scenarios.push(Scenario {
                                workload: w.name.clone(),
                                op,
                                band,
                                geometry,
                                scale: scale.max(1),
                                arch,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        ScenarioGrid { scenarios }
    }
}

/// The builder's default operand base seed — any surface that derives
/// per-cell seeds outside a [`GridBuilder`] (the serve protocol's
/// seed-omitted submits) must use the same base for keys to line up with
/// batch-swept grids.
pub const DEFAULT_BASE_SEED: u64 = 0xCA50_0001;

/// Operand seed of one workload cell: identical across architectures and
/// geometries so every backend sees the same inputs.
pub fn cell_seed(base: u64, workload: &str, band: Option<SparsityBand>, scale: usize) -> u64 {
    let material = format!(
        "{base}:{workload}:{}:{scale}",
        band.map_or_else(|| "-".into(), |b| b.to_string())
    );
    crate::store::fnv1a64(material.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_complete() {
        let g1 = ScenarioGrid::standard(4);
        let g2 = ScenarioGrid::standard(4);
        assert_eq!(g1, g2);
        // 10 templates -> 14 cells (SpMM and SDDMM fan out over 3 bands),
        // each with all 5 architectures.
        assert_eq!(g1.cell_count(), 14);
        assert_eq!(g1.scenarios.len(), 70);
    }

    #[test]
    fn standard_grid_contains_loop_workloads() {
        let g = ScenarioGrid::standard(4);
        let loops: Vec<&Scenario> = g
            .scenarios
            .iter()
            .filter(|s| matches!(s.op, Workload::Loop(_)))
            .collect();
        // 3 loop kernels x 5 architectures.
        assert_eq!(loops.len(), 15);
        assert!(loops
            .iter()
            .any(|s| s.op == Workload::Loop(LoopKernel { name: "2mm", n: 16 })));
    }

    #[test]
    fn seeds_shared_within_a_cell_and_distinct_across() {
        let g = ScenarioGrid::standard(4);
        let gemm: Vec<&Scenario> = g
            .scenarios
            .iter()
            .filter(|s| s.workload == "GEMM")
            .collect();
        assert_eq!(gemm.len(), 5);
        assert!(gemm.iter().all(|s| s.seed == gemm[0].seed));
        let spmm_s1 = g
            .scenarios
            .iter()
            .find(|s| s.workload == "SpMM" && s.band == Some(SparsityBand::S1))
            .unwrap();
        let spmm_s3 = g
            .scenarios
            .iter()
            .find(|s| s.workload == "SpMM" && s.band == Some(SparsityBand::S3))
            .unwrap();
        assert_ne!(spmm_s1.seed, spmm_s3.seed);
    }

    #[test]
    fn band_insensitive_templates_do_not_fan_out() {
        let grid = GridBuilder::new()
            .workload(
                "GEMM",
                OpTemplate::Gemm {
                    m: 64,
                    k: 64,
                    n: 64,
                },
            )
            .build();
        assert_eq!(grid.scenarios.len(), 5);
        assert!(grid.scenarios.iter().all(|s| s.band.is_none()));
    }

    #[test]
    fn geometry_axis_applies_to_every_architecture() {
        let grid = GridBuilder::new()
            .workload(
                "GEMM",
                OpTemplate::Gemm {
                    m: 64,
                    k: 64,
                    n: 64,
                },
            )
            .geometries(&[(8, 8), (16, 16)])
            .build();
        // Baselines are iso-MAC provisioned per geometry, so all 5 archs
        // appear at both geometries.
        assert_eq!(grid.scenarios.len(), 10);
        for geometry in [(8, 8), (16, 16)] {
            let archs: Vec<Arch> = grid
                .scenarios
                .iter()
                .filter(|s| s.geometry == geometry)
                .map(|s| s.arch)
                .collect();
            assert_eq!(archs, Arch::all().to_vec(), "at {geometry:?}");
        }
    }

    #[test]
    fn instantiation_rounds_to_mapping_friendly_dims() {
        let op = OpTemplate::Spmm {
            m: 100,
            k: 200,
            n: 60,
        }
        .instantiate(Some(SparsityBand::S3), 2);
        match op {
            Workload::Tensor(TensorOp::Spmm { m, k, n, sparsity }) => {
                assert_eq!(m % 32, 0);
                assert_eq!(k % 32, 0);
                assert_eq!(n % 32, 0);
                assert!((sparsity - 0.80).abs() < 1e-12);
            }
            other => panic!("wrong op {other:?}"),
        }
    }

    #[test]
    fn loop_template_scales_with_floor() {
        let w = OpTemplate::Loop {
            name: "jacobi-2d",
            n: 64,
        };
        assert_eq!(
            w.instantiate(None, 8),
            Workload::Loop(LoopKernel {
                name: "jacobi-2d",
                n: 8
            })
        );
        // Clamped to the stencil minimum.
        assert_eq!(
            w.instantiate(None, 100),
            Workload::Loop(LoopKernel {
                name: "jacobi-2d",
                n: 4
            })
        );
        assert!(!w.band_sensitive());
    }

    #[test]
    fn cell_labels_encode_axes_including_geometry() {
        let g = ScenarioGrid::standard(4);
        let labels: Vec<String> = g.scenarios.iter().map(|s| s.cell_label()).collect();
        assert!(labels.iter().any(|l| l == "SpMM-S2/s4@8x8"));
        assert!(labels.iter().any(|l| l == "GEMM/s4@8x8"));
        assert!(labels.iter().any(|l| l == "PolyB-gemm/s4@8x8"));
        // Same cell at two geometries must not collide.
        assert_ne!(
            cell_label_for("GEMM", None, 1, (8, 8)),
            cell_label_for("GEMM", None, 1, (16, 16)),
        );
    }
}

//! The sweep workloads: cold `run_sweep` passes over the standard grid.
//!
//! * `large-sweep` — the `--large` grid (full scale, 64×64 and 128×64,
//!   140 cells). One pass is tens of seconds, so a run makes one pass even
//!   when that outlasts `--seconds`.
//! * `smoke-sweep` — the CI smoke grid (scale 4, 8×8 and 16×8, 140 cells),
//!   swept cold into a fresh store over and over for `--seconds`.
//!
//! Each pass sweeps into a fresh on-disk store with 2 jobs, then re-sweeps
//! the populated store (every cell a cache hit) for the warm latency. A
//! traced run follows each timed pass with a second pass that drives the
//! same grid cell by cell through the layer functions ([`crate::layers`])
//! on the engine's scheduling policy, recording spans; its canonical store
//! must hash the same as the engine's.

use crate::layers::{self, CellRun};
use crate::stats::{median, tail_percentile};
use crate::trace::{self, Recorder};
use crate::{digest_repeats, Args, Outcome};
use canon_core::CanonConfig;
use canon_energy::Arch;
use canon_sweep::backend::OperandCache;
use canon_sweep::scenario::{large_geometries, standard_workloads};
use canon_sweep::store::{cell_key, cfg_fingerprint, fnv1a64};
use canon_sweep::{
    run_sweep, GridBuilder, ResultStore, ScenarioGrid, StoreLock, StoredRecord, SweepOptions,
};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Sweep worker threads, sized for a 2-vCPU host.
const JOBS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tier {
    Large,
    Smoke,
}

impl Tier {
    fn geometries(self) -> Vec<(usize, usize)> {
        match self {
            Tier::Large => large_geometries().to_vec(),
            Tier::Smoke => vec![(8, 8), (16, 8)],
        }
    }

    /// Set-ups timed before each cold pass; `setup_s` is their median.
    /// Smoke runs time one before every pass, so the samples span the whole
    /// run. A large run makes one pass, so it times 101 before it.
    fn setups_per_pass(self) -> usize {
        match self {
            Tier::Large => 101,
            Tier::Smoke => 1,
        }
    }

    /// Warm re-sweeps after each cold pass, and the pause before each.
    /// A warm re-sweep (key derivation, index lookups, fsync'd rewrite)
    /// takes about a millisecond, and its latency drifts with host load.
    /// A smoke run takes one per pass, spread over the whole run. A large
    /// run makes one cold pass, so it takes 100, spaced over ten seconds.
    fn warm_schedule(self) -> (usize, Duration) {
        match self {
            Tier::Large => (100, Duration::from_millis(100)),
            Tier::Smoke => (1, Duration::ZERO),
        }
    }
}

/// The standard grid of `tier`, its operand seeds derived from `seed`.
fn grid(tier: Tier, seed: u64) -> ScenarioGrid {
    let mut b = GridBuilder::new()
        .scales(&[if tier == Tier::Large { 1 } else { 4 }])
        .geometries(&tier.geometries())
        .seed(fnv1a64(format!("perfbench:{seed}").as_bytes()));
    for w in standard_workloads() {
        b = b.workload(&w.name, w.template);
    }
    b.build()
}

fn fresh_dir(parent: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = parent.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One set-up: store lock and open on a fresh directory, plus grid build.
fn time_setup(tier: Tier, seed: u64, dir: &Path) -> io::Result<f64> {
    let d = fresh_dir(dir, "setup")?;
    let path = d.join("store.jsonl");
    let t = Instant::now();
    let lock = StoreLock::acquire(&path)?;
    let store = ResultStore::open(&path)?;
    let g = std::hint::black_box(grid(tier, seed));
    let elapsed = t.elapsed().as_secs_f64();
    drop((g, store, lock));
    std::fs::remove_dir_all(&d)?;
    Ok(elapsed)
}

fn store_digest(path: &Path) -> io::Result<u64> {
    Ok(fnv1a64(&std::fs::read(path)?))
}

fn canon_cycles(records: &[StoredRecord]) -> u64 {
    records
        .iter()
        .filter(|r| r.arch == Arch::Canon.label())
        .map(|r| r.cycles)
        .sum()
}

/// Per-pass layer figures of one traced pass.
#[derive(Debug, Default)]
struct LayerPass {
    wall_untraced: f64,
    wall_traced: f64,
    coverage: f64,
    step: f64,
    kernels_setup: f64,
    materialize: f64,
    analytic: f64,
    energy: f64,
    appends: Vec<f64>,
    rewrite: f64,
    open: f64,
    idle: f64,
    slowest_step: f64,
    pool_hits: u64,
    pool_misses: u64,
    cycles: u64,
    active_pe_cycles: u64,
    batched_pe_cycles: u64,
    replayed_cycles: u64,
}

pub fn run(tier: Tier, args: &Args, rec: Option<&Recorder>, dir: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::new();
    let mut setup = Vec::new();
    let grid = grid(tier, args.seed);
    let opts = SweepOptions {
        jobs: JOBS,
        ..SweepOptions::default()
    };

    let (mut walls, mut cells_rates, mut cycle_rates, mut warm) = (vec![], vec![], vec![], vec![]);
    let mut rss = Vec::new();
    let mut layer_passes = Vec::new();
    let mut digest: Option<u64> = None;
    let (mut ref_cells, mut ref_mismatches) = (0u64, 0u64);
    let started = Instant::now();
    let mut pass = 0usize;
    while pass == 0 || started.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..tier.setups_per_pass() {
            setup.push(time_setup(tier, args.seed, dir)?);
        }
        let d = fresh_dir(dir, "pass")?;
        let path = d.join("store.jsonl");
        let lock = StoreLock::acquire(&path)?;
        let mut store = ResultStore::open(&path)?;
        crate::reset_peak_rss();
        let t = Instant::now();
        let cold = run_sweep(&grid, &mut store, &opts)?;
        let wall = t.elapsed().as_secs_f64();
        let s = cold.stats;
        out.attempted += s.total as u64;
        out.failed += (s.errors + s.failed) as u64;
        if s.executed != s.total || s.interrupted {
            out.wrong(format!(
                "cold pass executed {} of {} cells",
                s.executed, s.total
            ));
        }
        walls.push(wall);
        cells_rates.push(s.total as f64 / wall);
        cycle_rates.push(canon_cycles(&cold.records) as f64 / wall);
        let d_cold = store_digest(&path)?;
        match digest {
            Some(prev) if prev != d_cold => out.wrong("store digest differs between passes"),
            _ => digest = Some(d_cold),
        }
        // A traced run reports no warm latency; one re-sweep still checks
        // that the populated store answers every cell.
        let (warm_reps, warm_pause) = match rec {
            Some(_) => (1, Duration::ZERO),
            None => tier.warm_schedule(),
        };
        for _ in 0..warm_reps {
            std::thread::sleep(warm_pause);
            let t = Instant::now();
            let again = run_sweep(&grid, &mut store, &opts)?;
            warm.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += again.stats.total as u64;
            if again.stats.cache_hits != again.stats.total {
                out.wrong("warm re-sweep executed cells");
            }
            if store_digest(&path)? != d_cold {
                out.wrong("warm re-sweep rewrote the store differently");
            }
        }
        drop((store, lock));
        rss.push(crate::peak_rss_mb());
        if let Some(rec) = rec {
            let layered = d.join("layered.jsonl");
            let (lp, runs) = layered_pass(&grid, &layered, rec, pass as u64, wall)?;
            if store_digest(&layered)? != d_cold {
                out.wrong("layer-by-layer pass store differs from run_sweep's");
            }
            for run in runs {
                if let Some((input, result)) = run.output {
                    ref_cells += 1;
                    if layers::reference_result(&input).as_ref() != Some(&result) {
                        ref_mismatches += 1;
                        out.wrong(format!(
                            "{} differs from the reference",
                            run.rec.cell_label()
                        ));
                    }
                }
            }
            layer_passes.push(lp);
        }
        std::fs::remove_dir_all(&d)?;
        pass += 1;
    }
    out.failed += ref_mismatches;
    if let Some(d) = digest {
        eprintln!(
            "perfbench: {} seed {} store digest {d:016x}",
            args.workload, args.seed
        );
        if !digest_repeats(&args.workload, args.seed, d) {
            out.wrong("store digest differs from an earlier run of this build and seed");
        }
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    out.set("setup_s", med(&setup));
    out.set("wall_s", med(&walls));
    out.set("cells_per_s", med(&cells_rates));
    out.set("sim_cycles_per_s", med(&cycle_rates));
    out.set("cold_p50_ms", med(&walls) * 1e3);
    out.set("warm_p50_ms", med(&warm));
    // The lower decile of the per-pass peaks: a pass whose worker threads
    // land in other malloc arenas peaks about 2 MB higher, by allocator
    // placement alone, and how many passes do so varies by run.
    let rss_p10 = tail_percentile(&rss, 10.0).or(median(&rss));
    out.set("peak_rss_mb", rss_p10.unwrap_or(0.0));

    if rec.is_some() {
        let per =
            |f: &dyn Fn(&LayerPass) -> f64| med(&layer_passes.iter().map(f).collect::<Vec<_>>());
        let sum_u = |f: &dyn Fn(&LayerPass) -> u64| layer_passes.iter().map(f).sum::<u64>() as f64;
        let step_ns = layer_passes.iter().map(|p| p.step).sum::<f64>() * 1e9;
        out.set("core.fabric.step_s", per(&|p| p.step));
        out.set(
            "core.fabric.ns_per_pe_cycle",
            step_ns / sum_u(&|p| p.active_pe_cycles).max(1.0),
        );
        out.set("core.fabric.slowest_cell_s", per(&|p| p.slowest_step));
        out.set(
            "core.fabric.replay_ratio",
            sum_u(&|p| p.replayed_cycles) / sum_u(&|p| p.cycles).max(1.0),
        );
        out.set(
            "core.fabric.batch_ratio",
            sum_u(&|p| p.batched_pe_cycles) / sum_u(&|p| p.active_pe_cycles).max(1.0),
        );
        out.set("core.fabric.sim_cycles", per(&|p| p.cycles as f64));
        out.set("core.kernels.setup_s", per(&|p| p.kernels_setup));
        let (build, reset) = layers::fabric_build_reset_ms(&tier.geometries(), 3);
        out.set("core.pool.build_ms", build);
        out.set("core.pool.reset_ms", reset);
        out.set("core.pool.hits", per(&|p| p.pool_hits as f64));
        out.set("core.pool.misses", per(&|p| p.pool_misses as f64));
        out.set("sweep.backend.materialize_s", per(&|p| p.materialize));
        out.set("sweep.backend.analytic_s", per(&|p| p.analytic));
        out.set("energy.model_s", per(&|p| p.energy));
        let appends: Vec<f64> = layer_passes
            .iter()
            .flat_map(|p| p.appends.clone())
            .collect();
        out.set("sweep.store.append_ms_p50", med(&appends) * 1e3);
        out.set("sweep.store.appends", per(&|p| p.appends.len() as f64));
        out.set("sweep.store.rewrite_s", per(&|p| p.rewrite));
        out.set("sweep.store.open_s", per(&|p| p.open));
        out.set("sweep.engine.idle_s", per(&|p| p.idle));
        for name in [
            "serve.cached",
            "serve.coalesced",
            "serve.busy",
            "serve.cold_p90_ms",
        ] {
            out.set(name, 0.0);
        }
        out.set("check.reference_cells", ref_cells as f64);
        out.set("check.reference_mismatches", ref_mismatches as f64);
        out.set("trace.coverage", per(&|p| p.coverage));
        out.set("trace.overhead", per(&|p| p.wall_traced / p.wall_untraced));
    }
    Ok(out)
}

/// One traced pass: the grid swept into `path` by [`JOBS`] workers that
/// follow `run_sweep`'s policy (contiguous deal, own deque from the front,
/// steal from the back, per-worker fabric pool, one shared operand cache,
/// journal appends on the calling thread, canonical rewrite at the end),
/// with every cell executed through [`layers::run_cell`].
fn layered_pass(
    grid: &ScenarioGrid,
    path: &Path,
    rec: &Recorder,
    pass: u64,
    wall_untraced: f64,
) -> io::Result<(LayerPass, Vec<CellRun>)> {
    let mark = rec.len();
    let root = rec.open("sweep.pass", None, pass);
    let root_id = root.id;
    let (_lock, mut store) = rec.time("sweep.store.open", Some(root_id), pass, || {
        io::Result::Ok((StoreLock::acquire(path)?, ResultStore::open(path)?))
    })?;
    let fingerprint = cfg_fingerprint(&CanonConfig::default());
    let keys: Vec<String> = grid
        .scenarios
        .iter()
        .map(|s| cell_key(s, &fingerprint))
        .collect();
    let n = grid.scenarios.len();
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..n)
        .collect::<Vec<_>>()
        .chunks(n.div_ceil(JOBS).max(1))
        .map(|c| Mutex::new(c.iter().copied().collect()))
        .collect();
    let cache = OperandCache::with_capacity(16.max(2 * JOBS));
    let (tx, rx) = mpsc::channel::<(usize, CellRun, u64, u64)>();
    let mut slots: Vec<Option<CellRun>> = (0..n).map(|_| None).collect();
    let mut journal: io::Result<()> = Ok(());
    let (mut hits, mut misses) = (0, 0);
    std::thread::scope(|scope| {
        for w in 0..queues.len() {
            let (queues, keys, cache, tx) = (&queues, &keys, &cache, tx.clone());
            scope.spawn(move || {
                let _pool = canon_core::pool::install(2);
                loop {
                    let own = queues[w].lock().expect("queue poisoned").pop_front();
                    let task = own.or_else(|| {
                        (1..queues.len()).find_map(|d| {
                            queues[(w + d) % queues.len()]
                                .lock()
                                .expect("queue poisoned")
                                .pop_back()
                        })
                    });
                    let Some(idx) = task else { break };
                    let before = canon_core::pool::stats().unwrap_or_default();
                    let cell = rec.open("sweep.engine.cell", Some(root_id), idx as u64);
                    let cell_id = cell.id;
                    let run = layers::run_cell(
                        &grid.scenarios[idx],
                        keys[idx].clone(),
                        cache,
                        rec,
                        cell_id,
                        idx as u64,
                    );
                    rec.close(cell);
                    let after = canon_core::pool::stats().unwrap_or_default();
                    let delta = (after.hits - before.hits, after.misses - before.misses);
                    if tx.send((idx, run, delta.0, delta.1)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (idx, run, h, m) in rx {
            hits += h;
            misses += m;
            if journal.is_ok() {
                journal = rec.time("sweep.store.append", Some(root_id), idx as u64, || {
                    store.append(&run.rec)
                });
            }
            slots[idx] = Some(run);
        }
    });
    journal?;
    let runs: Vec<CellRun> = slots
        .into_iter()
        .map(|s| s.expect("every cell resolved"))
        .collect();
    let records: Vec<StoredRecord> = runs.iter().map(|r| r.rec.clone()).collect();
    rec.time("sweep.store.rewrite", Some(root_id), pass, || {
        store.write_ordered(&records)
    })?;
    let root = rec.close(root);
    let wall_traced = root.duration() as f64 * 1e-9;

    let spans = rec.spans_since(mark);
    let selfs = trace::self_times(&spans);
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 * 1e-9)
            .collect()
    };
    let busy: f64 = durations("sweep.engine.cell").iter().sum();
    let mut lp = LayerPass {
        wall_untraced,
        wall_traced,
        coverage: trace::coverage(&spans, &root),
        step: durations("core.fabric.step").iter().sum(),
        kernels_setup: trace::self_seconds(&spans, "core.kernels.run_kernel", &selfs),
        materialize: trace::self_seconds(&spans, "sweep.backend.materialize", &selfs),
        analytic: trace::self_seconds(&spans, "sweep.backend.analytic", &selfs),
        energy: trace::self_seconds(&spans, "energy.model", &selfs),
        appends: durations("sweep.store.append"),
        rewrite: durations("sweep.store.rewrite").iter().sum(),
        open: durations("sweep.store.open").iter().sum(),
        idle: JOBS as f64 * wall_traced - busy,
        slowest_step: durations("core.fabric.step")
            .into_iter()
            .fold(0.0, f64::max),
        pool_hits: hits,
        pool_misses: misses,
        ..LayerPass::default()
    };
    for f in runs.iter().filter_map(|r| r.fabric) {
        lp.cycles += f.cycles;
        lp.active_pe_cycles += f.active_pe_cycles;
        lp.batched_pe_cycles += f.batched_pe_cycles;
        lp.replayed_cycles += f.replayed_cycles;
    }
    Ok((lp, runs))
}

//! The `serve-mixed` workload: an in-process `run_daemon` driven
//! closed-loop by two client connections.
//!
//! An untimed prologue sweeps a pool of smoke-scale 8×8 cells (every
//! architecture, several operand seeds) into the daemon's store. The
//! timed phase then sends blocks of requests; each connection waits for
//! its reply before sending the next. Per slot of a block:
//!
//! * cold — a Canon tensor cell with a fresh operand seed: an index miss
//!   that simulates and fsync-appends to the journal;
//! * warm — a resubmit of a prologue cell, answered from the index;
//! * coalesce (both connections at once) — one identical fresh cell, sent
//!   by both connections after a barrier, so the second joins the first's
//!   simulation.
//!
//! Warm lookups and journal appends take the same store mutex, so reads
//! sit beside writes on one layer. A traced run alternates untraced and
//! traced blocks, and afterwards re-runs every cold cell of its traced
//! blocks through the layer functions ([`crate::layers`]) to time them,
//! check their outputs against the reference kernels, and check the
//! daemon's cycle counts.

use crate::layers;
use crate::stats::{median, tail_percentile};
use crate::trace::{self, Recorder};
use crate::{digest_repeats, Args, Outcome};
use canon_energy::Arch;
use canon_serve::{run_daemon, Client, Reply, Request, ServeOptions, SubmitRequest};
use canon_sparse::gen::SparsityBand;
use canon_sweep::backend::OperandCache;
use canon_sweep::scenario::standard_workloads;
use canon_sweep::store::{fnv1a64, RecordStatus};
use canon_sweep::{run_sweep, GridBuilder, ResultStore, ScenarioGrid, SweepOptions};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

/// Client connections (and daemon workers), sized for a 2-vCPU host.
const CONNECTIONS: usize = 2;
/// Request slots per connection per block.
const SLOTS: usize = 25;
/// Operand base seeds swept into the store by the prologue; each adds the
/// 70 cells of the smoke grid at 8×8.
const PROLOGUE_SEEDS: u64 = 40;
/// A daemon start-up is timed before every `SETUP_EVERY`-th block, so the
/// samples of `setup_s`, their median, span the whole timed phase.
const SETUP_EVERY: usize = 20;
/// Slot mix: one in twenty slots coalesces; of the rest, one in five is
/// cold and the others warm (about four warm submits per cold one).
const COALESCE_PER_MILLE: u64 = 50;
const COLD_PER_MILLE: u64 = 200;
/// Blocks after which `peak_rss_mb` is read. Every cold submit adds a
/// record to the daemon's index, so the peak at the end of a timed run
/// would grow with throughput; reading it after a fixed amount of work
/// keeps it a measure of memory, not of speed.
const RSS_BLOCKS: usize = 100;
const GEOMETRY: (usize, usize) = (8, 8);
const SCALE: usize = 4;

/// splitmix64: a small seeded generator for the request stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Warm,
    Coalesce,
}

/// A warm-pool entry: the submit and the record the prologue stored.
struct Warm {
    submit: SubmitRequest,
    key: String,
    status: String,
    cycles: u64,
}

/// One request a client sends, and what came back.
struct Sent {
    kind: Kind,
    /// Index into the warm pool for warm submits.
    warm: Option<usize>,
    submit: SubmitRequest,
    latency: f64,
    reply: io::Result<Reply>,
}

/// A connection's share of one block.
struct BlockPlan {
    requests: Vec<(Kind, Option<usize>, SubmitRequest)>,
    /// Root span of a traced block.
    span: Option<u64>,
}

/// Canon tensor workloads a cold submit draws from.
fn cold_workloads() -> Vec<(String, bool)> {
    standard_workloads()
        .into_iter()
        .filter(|w| !matches!(w.template, canon_sweep::OpTemplate::Loop { .. }))
        .map(|w| (w.name, w.template.band_sensitive()))
        .collect()
}

fn cold_submit(rng: &mut Rng, workloads: &[(String, bool)], id: String) -> SubmitRequest {
    let (name, banded) = &workloads[rng.below(workloads.len() as u64) as usize];
    let mut s = SubmitRequest::new(id, name.clone());
    s.scale = SCALE;
    s.geometry = GEOMETRY;
    s.arch = Arch::Canon;
    if *banded {
        s.band = Some(SparsityBand::all()[rng.below(3) as usize]);
    }
    // A fresh operand seed: never in the store, so the submit simulates.
    s.seed = Some(rng.next());
    s
}

/// Sweeps the warm pool into `store` and returns it with the store digest.
fn prologue(seed: u64, store: &Path) -> io::Result<(Vec<Warm>, u64)> {
    let mut scenarios = Vec::new();
    for i in 0..PROLOGUE_SEEDS {
        let base = fnv1a64(format!("perfbench-serve:{seed}:{i}").as_bytes());
        let mut b = GridBuilder::new()
            .scales(&[SCALE])
            .geometries(&[GEOMETRY])
            .seed(base);
        for w in standard_workloads() {
            b = b.workload(&w.name, w.template);
        }
        scenarios.extend(b.build().scenarios);
    }
    let grid = ScenarioGrid { scenarios };
    let mut s = ResultStore::open(store)?;
    let outcome = run_sweep(
        &grid,
        &mut s,
        &SweepOptions {
            jobs: CONNECTIONS,
            ..SweepOptions::default()
        },
    )?;
    if outcome.stats.errors + outcome.stats.failed > 0 {
        return Err(io::Error::other("prologue sweep had failing cells"));
    }
    let pool = grid
        .scenarios
        .iter()
        .zip(&outcome.records)
        .map(|(sc, rec)| {
            let mut submit = SubmitRequest::new("", sc.workload.clone());
            submit.band = sc.band;
            submit.scale = sc.scale;
            submit.geometry = sc.geometry;
            submit.arch = sc.arch;
            submit.seed = Some(sc.seed);
            Warm {
                submit,
                key: rec.key.clone(),
                status: status_label(&rec.status).to_string(),
                cycles: rec.cycles,
            }
        })
        .collect();
    Ok((pool, fnv1a64(&std::fs::read(store)?)))
}

/// A record status as the protocol spells it in a `result` reply.
fn status_label(status: &RecordStatus) -> &str {
    match status {
        RecordStatus::Ok => "ok",
        RecordStatus::Unsupported => "unsupported",
        RecordStatus::Error(_) => "error",
        RecordStatus::Failed(f) => f.kind(),
    }
}

fn connect(socket: &Path) -> io::Result<Client> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Client::connect(socket) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() > deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

fn shutdown(socket: &Path) -> io::Result<()> {
    match connect(socket)?.request(&Request::Shutdown)? {
        Reply::ShuttingDown => Ok(()),
        other => Err(io::Error::other(format!("shutdown answered {other:?}"))),
    }
}

/// Runs `body` against a daemon serving `store` on `socket`, passing it
/// the instant the daemon started; then shuts the daemon down and joins it,
/// also when `body` fails, so an error never leaves the daemon running.
fn with_daemon<T>(
    socket: &Path,
    store: &Path,
    body: impl FnOnce(Instant) -> io::Result<T>,
) -> io::Result<T> {
    let opts = ServeOptions {
        socket: socket.to_path_buf(),
        store: store.to_path_buf(),
        workers: CONNECTIONS,
        ..ServeOptions::default()
    };
    std::thread::scope(|scope| {
        let started = Instant::now();
        let daemon = scope.spawn(|| run_daemon(&opts));
        let result = body(started);
        let stopped = shutdown(socket);
        let exit = daemon.join().expect("daemon thread panicked")?;
        let value = result?;
        stopped?;
        if exit != 0 {
            return Err(io::Error::other(format!("daemon exited with {exit}")));
        }
        Ok(value)
    })
}

/// Time from daemon start (store index load included) until a `status`
/// request on the first accepted connection is answered.
fn time_setup(socket: &Path, store: &Path) -> io::Result<f64> {
    with_daemon(socket, store, |started| {
        connect(socket)?.request(&Request::Status)?;
        Ok(started.elapsed().as_secs_f64())
    })
}

fn plan_block(
    rng: &mut Rng,
    block: usize,
    pool: &[Warm],
    workloads: &[(String, bool)],
) -> Vec<Vec<(Kind, Option<usize>, SubmitRequest)>> {
    let mut plans = vec![Vec::new(); CONNECTIONS];
    for slot in 0..SLOTS {
        if rng.below(1000) < COALESCE_PER_MILLE {
            let shared = cold_submit(rng, workloads, String::new());
            for (c, plan) in plans.iter_mut().enumerate() {
                let mut s = shared.clone();
                s.id = format!("b{block}-c{c}-s{slot}");
                plan.push((Kind::Coalesce, None, s));
            }
            continue;
        }
        for (c, plan) in plans.iter_mut().enumerate() {
            let id = format!("b{block}-c{c}-s{slot}");
            if rng.below(1000) < COLD_PER_MILLE {
                plan.push((Kind::Cold, None, cold_submit(rng, workloads, id)));
            } else {
                let w = rng.below(pool.len() as u64) as usize;
                let mut s = pool[w].submit.clone();
                s.id = id;
                plan.push((Kind::Warm, Some(w), s));
            }
        }
    }
    plans
}

/// Client loop of one connection: runs each block plan it receives.
fn client_loop(
    mut client: Client,
    plans: mpsc::Receiver<BlockPlan>,
    done: mpsc::Sender<Vec<Sent>>,
    barrier: &Barrier,
    rec: Option<&Recorder>,
) {
    for plan in plans {
        let mut sent = Vec::with_capacity(plan.requests.len());
        for (kind, warm, submit) in plan.requests {
            if kind == Kind::Coalesce {
                barrier.wait();
            }
            let name = match kind {
                Kind::Cold => "serve.submit.cold",
                Kind::Warm => "serve.submit.warm",
                Kind::Coalesce => "serve.submit.coalesce",
            };
            let open = rec
                .zip(plan.span)
                .map(|(r, root)| r.open(name, Some(root), fnv1a64(submit.id.as_bytes())));
            let t = Instant::now();
            let reply = client.request(&Request::Submit(submit.clone()));
            let latency = t.elapsed().as_secs_f64();
            if let (Some(r), Some(o)) = (rec, open) {
                r.close(o);
            }
            sent.push(Sent {
                kind,
                warm,
                submit,
                latency,
                reply,
            });
        }
        if done.send(sent).is_err() {
            return;
        }
    }
}

pub fn run(args: &Args, rec: Option<&Recorder>, dir: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::new();
    let store = dir.join("serve.jsonl");
    let (pool, prologue_digest) = prologue(args.seed, &store)?;
    eprintln!(
        "perfbench: serve-mixed seed {} prologue store digest {prologue_digest:016x}",
        args.seed
    );
    if !digest_repeats(&args.workload, args.seed, prologue_digest) {
        out.wrong("prologue store digest differs from an earlier run of this build and seed");
    }
    let t = Instant::now();
    drop(ResultStore::open(&store)?);
    let open_s = t.elapsed().as_secs_f64();
    // Start-ups are timed on a copy of the prologue store: the serving
    // daemon holds the store's lock and grows it with every cold submit.
    let setup_store = dir.join("setup.jsonl");
    std::fs::copy(&store, &setup_store)?;
    let mut setup = Vec::new();
    let time_next_setup = |setup: &mut Vec<f64>| -> io::Result<()> {
        let socket = dir.join(format!("s{}.sock", setup.len()));
        setup.push(time_setup(&socket, &setup_store)?);
        Ok(())
    };

    let workloads = cold_workloads();
    let mut rng = Rng(fnv1a64(
        format!("perfbench-serve-stream:{}", args.seed).as_bytes(),
    ));
    let socket = dir.join("d.sock");
    let barrier = Barrier::new(CONNECTIONS);
    // (block wall, traced, replies)
    let mut blocks: Vec<(f64, bool, Vec<Sent>)> = Vec::new();
    let mut roots = Vec::new();
    let mut rss_mb = None;
    let status = with_daemon(&socket, &store, |_| {
        std::thread::scope(|scope| {
            let mut to_clients = Vec::new();
            let (done_tx, done_rx) = mpsc::channel();
            for _ in 0..CONNECTIONS {
                let client = connect(&socket)?;
                let (tx, rx) = mpsc::channel();
                let (done_tx, barrier) = (done_tx.clone(), &barrier);
                scope.spawn(move || client_loop(client, rx, done_tx, barrier, rec));
                to_clients.push(tx);
            }
            let started = Instant::now();
            let mut block = 0;
            while block == 0 || started.elapsed().as_secs_f64() < args.seconds {
                if block % SETUP_EVERY == 0 {
                    time_next_setup(&mut setup)?;
                }
                let plans = plan_block(&mut rng, block, &pool, &workloads);
                let traced = rec.is_some() && block % 2 == 1;
                let root = rec
                    .filter(|_| traced)
                    .map(|r| r.open("serve.block", None, block as u64));
                let t = Instant::now();
                for (tx, requests) in to_clients.iter().zip(plans) {
                    let span = root.as_ref().map(|o| o.id);
                    tx.send(BlockPlan { requests, span })
                        .map_err(|_| io::Error::other("client thread exited"))?;
                }
                let mut sent = Vec::new();
                for _ in 0..CONNECTIONS {
                    sent.extend(
                        done_rx
                            .recv()
                            .map_err(|_| io::Error::other("client thread exited"))?,
                    );
                }
                let wall = t.elapsed().as_secs_f64();
                if let (Some(r), Some(o)) = (rec, root) {
                    roots.push(r.close(o));
                }
                blocks.push((wall, traced, sent));
                block += 1;
                if block == RSS_BLOCKS {
                    rss_mb = Some(crate::peak_rss_mb());
                }
            }
            io::Result::Ok(())
        })?;
        connect(&socket)?.request(&Request::Status)
    })?;

    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let (mut walls, mut traced_walls, mut cell_rates, mut cycle_rates) =
        (vec![], vec![], vec![], vec![]);
    let (mut cached, mut coalesced, mut busy) = (0u64, 0u64, 0u64);
    let mut verify: Vec<(SubmitRequest, u64, f64)> = Vec::new();
    for (wall, traced, sent) in &blocks {
        let mut cycles = 0u64;
        let mut pair: HashMap<String, Vec<(u64, String)>> = HashMap::new();
        for s in sent {
            out.attempted += 1;
            let r = match &s.reply {
                Ok(Reply::Result(r)) => r,
                Ok(Reply::Busy { .. }) => {
                    busy += 1;
                    out.failed += 1;
                    continue;
                }
                Ok(other) => {
                    out.failed += 1;
                    out.wrong(format!("{} answered {other:?}", s.submit.id));
                    continue;
                }
                Err(e) => return Err(io::Error::other(format!("{}: {e}", s.submit.id))),
            };
            cached += r.cached as u64;
            coalesced += r.coalesced as u64;
            match s.kind {
                Kind::Warm => {
                    let w = &pool[s.warm.expect("warm submits carry their pool entry")];
                    if !r.cached || r.key != w.key || r.status != w.status || r.cycles != w.cycles {
                        out.failed += 1;
                        out.wrong(format!(
                            "warm {} does not match its stored record",
                            s.submit.id
                        ));
                    }
                    warm.push(s.latency * 1e3);
                }
                Kind::Cold | Kind::Coalesce => {
                    if r.status != "ok" {
                        out.failed += 1;
                        out.wrong(format!("{} came back {}", s.submit.id, r.status));
                        continue;
                    }
                    if s.kind == Kind::Coalesce {
                        pair.entry(r.key.clone())
                            .or_default()
                            .push((r.cycles, r.status.clone()));
                        continue;
                    }
                    if r.cached || r.coalesced {
                        out.wrong(format!(
                            "fresh-seed {} was answered without simulating",
                            s.submit.id
                        ));
                    }
                    cycles += r.cycles;
                    cold.push(s.latency * 1e3);
                    if *traced {
                        verify.push((s.submit.clone(), r.cycles, r.energy_pj));
                    }
                }
            }
        }
        for (key, replies) in pair {
            if replies.len() != CONNECTIONS || replies.iter().any(|r| r != &replies[0]) {
                out.wrong(format!("coalesced submits of {key} disagree"));
            }
        }
        if *traced {
            traced_walls.push(*wall);
        } else {
            walls.push(*wall);
            cell_rates.push(sent.len() as f64 / wall);
            cycle_rates.push(cycles as f64 / wall);
        }
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    out.set("setup_s", med(&setup));
    out.set("wall_s", med(&walls));
    out.set("cells_per_s", med(&cell_rates));
    out.set("sim_cycles_per_s", med(&cycle_rates));
    out.set("cold_p50_ms", med(&cold));
    out.set("warm_p50_ms", med(&warm));
    if let Some(mb) = rss_mb {
        out.set("peak_rss_mb", mb);
    }

    if let Some(rec) = rec {
        let n = blocks.len() as f64;
        let traced_blocks = traced_walls.len().max(1) as f64;
        out.set("serve.cached", cached as f64 / n);
        out.set("serve.coalesced", coalesced as f64 / n);
        out.set("serve.busy", busy as f64 / n);
        out.set(
            "serve.cold_p90_ms",
            tail_percentile(&cold, 90.0).unwrap_or(0.0),
        );
        let (hits, misses) = match status {
            Reply::Status(s) => (s.pool_hits, s.pool_misses),
            other => return Err(io::Error::other(format!("status answered {other:?}"))),
        };
        out.set("core.pool.hits", hits as f64 / n);
        out.set("core.pool.misses", misses as f64 / n);
        let (build, reset) = layers::fabric_build_reset_ms(&[GEOMETRY], 5);
        out.set("core.pool.build_ms", build);
        out.set("core.pool.reset_ms", reset);
        out.set("sweep.store.open_s", open_s);
        out.set("sweep.engine.idle_s", 0.0);
        out.set("sweep.store.rewrite_s", 0.0);
        let mut by_root: HashMap<u64, Vec<trace::Span>> = HashMap::new();
        for s in rec.spans_since(0) {
            if let Some(p) = s.parent {
                by_root.entry(p).or_default().push(s);
            }
        }
        let coverage: Vec<f64> = roots
            .iter()
            .map(|root| trace::coverage(by_root.get(&root.id).map_or(&[][..], |v| v), root))
            .collect();
        out.set("trace.coverage", med(&coverage));
        out.set(
            "trace.overhead",
            med(&traced_walls) / med(&walls).max(1e-12),
        );
        verify_cold(&verify, rec, dir, traced_blocks, &mut out)?;
    }
    Ok(out)
}

/// Re-runs the cold cells of the traced blocks through the layer functions:
/// times each layer, checks each output against its reference kernel and
/// each cycle count and energy against the daemon's reply, and appends the
/// records to a scratch store to time the journal append.
fn verify_cold(
    cells: &[(SubmitRequest, u64, f64)],
    rec: &Recorder,
    dir: &Path,
    blocks: f64,
    out: &mut Outcome,
) -> io::Result<()> {
    let base = canon_core::CanonConfig::default();
    let cache = OperandCache::bypass();
    let mark = rec.len();
    let root = rec.open("serve.verify", None, 0);
    let root_id = root.id;
    let mut store = ResultStore::open(dir.join("verify.jsonl"))?;
    let _pool = canon_core::pool::install(2);
    let (mut checked, mut mismatches) = (0u64, 0u64);
    let mut fabric = Vec::new();
    for (i, (submit, cycles, energy)) in cells.iter().enumerate() {
        let scenario = submit.scenario().map_err(io::Error::other)?;
        let key = submit.key(&base).map_err(io::Error::other)?;
        let run = layers::run_cell(&scenario, key, &cache, rec, root_id, i as u64);
        // Replies carry energy to three decimals.
        if run.rec.cycles != *cycles
            || format!("{:.3}", run.rec.energy_pj) != format!("{energy:.3}")
        {
            out.wrong(format!(
                "{}: daemon replied {cycles} cycles / {energy} pJ, local run {} / {}",
                submit.id, run.rec.cycles, run.rec.energy_pj
            ));
        }
        if let Some((input, result)) = &run.output {
            checked += 1;
            if layers::reference_result(input).as_ref() != Some(result) {
                mismatches += 1;
                out.wrong(format!("{} differs from the reference", submit.id));
            }
        }
        fabric.extend(run.fabric);
        rec.time("sweep.store.append", Some(root_id), i as u64, || {
            store.append(&run.rec)
        })?;
    }
    rec.close(root);
    out.failed += mismatches;
    let spans = rec.spans_since(mark);
    let selfs = trace::self_times(&spans);
    let total = |name: &str| trace::self_seconds(&spans, name, &selfs);
    let appends: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sweep.store.append")
        .map(|s| s.duration() as f64 * 1e-6)
        .collect();
    let sum = |f: &dyn Fn(&layers::FabricCounts) -> u64| fabric.iter().map(f).sum::<u64>() as f64;
    let step_ns = sum(&|f| f.step_ns);
    out.set("core.fabric.step_s", step_ns * 1e-9 / blocks);
    out.set(
        "core.fabric.ns_per_pe_cycle",
        step_ns / sum(&|f| f.active_pe_cycles).max(1.0),
    );
    out.set(
        "core.fabric.slowest_cell_s",
        fabric.iter().map(|f| f.step_ns).max().unwrap_or(0) as f64 * 1e-9,
    );
    out.set(
        "core.fabric.replay_ratio",
        sum(&|f| f.replayed_cycles) / sum(&|f| f.cycles).max(1.0),
    );
    out.set(
        "core.fabric.batch_ratio",
        sum(&|f| f.batched_pe_cycles) / sum(&|f| f.active_pe_cycles).max(1.0),
    );
    out.set("core.fabric.sim_cycles", sum(&|f| f.cycles) / blocks);
    out.set(
        "core.kernels.setup_s",
        total("core.kernels.run_kernel") / blocks,
    );
    out.set(
        "sweep.backend.materialize_s",
        total("sweep.backend.materialize") / blocks,
    );
    out.set(
        "sweep.backend.analytic_s",
        total("sweep.backend.analytic") / blocks,
    );
    out.set("energy.model_s", total("energy.model") / blocks);
    out.set("sweep.store.append_ms_p50", median(&appends).unwrap_or(0.0));
    out.set("sweep.store.appends", appends.len() as f64 / blocks);
    out.set("check.reference_cells", checked as f64);
    out.set("check.reference_mismatches", mismatches as f64);
    Ok(())
}

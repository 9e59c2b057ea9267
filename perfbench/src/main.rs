//! End-to-end and per-layer benchmark of the Canon sweep engine and
//! serving daemon.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <large-sweep|smoke-sweep|serve-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Scratch stores and sockets live under `perfbench/out/` and
//! are removed at exit; a traced run leaves its spans there as
//! `trace-<workload>-<seed>.jsonl`. See `perfbench/README.md` for what each
//! workload and metric means.

mod layers;
mod serve_mixed;
mod stats;
mod sweeps;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), `(name, unit)`. Times and counts are
/// per pass: one grid sweep, or one block of daemon requests.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("core.fabric.step_s", "s"),
    ("core.fabric.ns_per_pe_cycle", "ns"),
    ("core.fabric.slowest_cell_s", "s"),
    ("core.fabric.replay_ratio", "ratio"),
    ("core.fabric.batch_ratio", "ratio"),
    ("core.fabric.sim_cycles", "count"),
    ("core.kernels.setup_s", "s"),
    ("core.pool.build_ms", "ms"),
    ("core.pool.reset_ms", "ms"),
    ("core.pool.hits", "count"),
    ("core.pool.misses", "count"),
    ("sweep.backend.materialize_s", "s"),
    ("sweep.backend.analytic_s", "s"),
    ("energy.model_s", "s"),
    ("sweep.store.append_ms_p50", "ms"),
    ("sweep.store.appends", "count"),
    ("sweep.store.rewrite_s", "s"),
    ("sweep.store.open_s", "s"),
    ("sweep.engine.idle_s", "s"),
    ("serve.cached", "count"),
    ("serve.coalesced", "count"),
    ("serve.busy", "count"),
    ("serve.cold_p90_ms", "ms"),
    ("check.reference_cells", "count"),
    ("check.reference_mismatches", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Where runs keep scratch stores, span files and the digest record,
/// relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when any output was checked and found wrong.
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Default::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Marks the run incorrect, saying why on standard error.
    pub fn wrong(&mut self, why: impl std::fmt::Display) {
        eprintln!("perfbench: check failed: {why}");
        self.correct = false;
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <large-sweep|smoke-sweep|serve-mixed> \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["large-sweep", "smoke-sweep", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (`VmHWM`) since it started or since
/// the last [`reset_peak_rss`], in MiB. Each workload runs in its own
/// process, so no other workload's peak is included.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Starts a new peak for [`peak_rss_mb`]: hands the heap's free pages back
/// to the kernel, then resets `VmHWM` to the current resident set. Without
/// the trim, pages freed by earlier passes stay resident in however many
/// malloc arenas the worker threads happened to create, which varies from
/// run to run.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap memory.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Checks that the canonical store bytes of `(workload, seed)` hash the
/// same as in every earlier run of this same executable, remembering the
/// digest in `perfbench/out/digests.txt`. Returns false on a mismatch.
pub fn digest_repeats(workload: &str, seed: u64, digest: u64) -> bool {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|b| canon_sweep::store::fnv1a64(&b))
        .unwrap_or(0);
    let path = Path::new(OUT_DIR).join("digests.txt");
    let prefix = format!("{exe:016x} {workload} {seed} ");
    let known = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(line) = known.lines().find(|l| l.starts_with(&prefix)) {
        return line[prefix.len()..] == format!("{digest:016x}");
    }
    let entry = format!("{prefix}{digest:016x}\n");
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, entry.as_bytes()));
    true
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    let scratch = out.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let recorder = args.trace.then(trace::Recorder::new);
    let result = match args.workload.as_str() {
        "large-sweep" => sweeps::run(sweeps::Tier::Large, &args, recorder.as_ref(), &scratch),
        "smoke-sweep" => sweeps::run(sweeps::Tier::Smoke, &args, recorder.as_ref(), &scratch),
        _ => serve_mixed::run(&args, recorder.as_ref(), &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(rec) = &recorder {
        let path = out.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    } else {
        outcome
            .metrics
            .entry("peak_rss_mb")
            .or_insert_with(peak_rss_mb);
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let Some(&value) = outcome.metrics.get(name) else {
            eprintln!("perfbench: {} did not produce metric {name}", args.workload);
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            return ExitCode::FAILURE;
        }
        // `+ 0.0` turns a negative zero into 0.
        let value = value + 0.0;
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists printed here and declared in BENCHMARK.json agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics the benchmark does not print"
        );
    }

    #[test]
    fn args_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload smoke-sweep --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(parse("--workload nope --seed 3 --seconds 2 --trace 1").is_err());
        assert!(parse("--workload smoke-sweep --seed 3 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload smoke-sweep --seed 3 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload smoke-sweep --seed 3 --seconds 2").is_err());
    }
}

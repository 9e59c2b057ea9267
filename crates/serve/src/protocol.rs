//! The serve wire format: one flat JSON object per line, both directions.
//!
//! The protocol deliberately reuses the result store's JSON dialect
//! ([`parse_flat_object`] / [`escape_json`]) — a reply is spelled with the
//! same escaping rules as the journal line it was appended from, and the
//! per-request fault field travels in [`FaultAction::descriptor`] form so
//! wire, fingerprint, and log spellings agree.
//!
//! # Grammar
//!
//! Requests carry a `cmd` discriminator:
//!
//! ```text
//! {"cmd":"submit","id":"r1","workload":"SpMM","band":"S2","scale":4,
//!  "rows":8,"cols":8,"arch":"Canon"}            // + optional "seed",
//!                                               //   "max_cycles",
//!                                               //   "wall_budget_ns",
//!                                               //   "fault":"panic@3"
//! {"cmd":"status"}
//! {"cmd":"cancel","id":"r1"}
//! {"cmd":"drain"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Replies carry a `reply` discriminator: `result`, `busy`, `draining`,
//! `cancelled`, `cancel_ok`, `status`, `shutting_down`, `error`. A
//! `submit` blocks its connection until its one reply line; parallelism is
//! expressed as parallel connections, not pipelining. A request line may be
//! at most 64 KiB, newline included: the daemon answers a longer one with
//! an `error` reply and closes the connection.

use std::collections::HashMap;

use canon_core::{CanonConfig, FaultAction};
use canon_sparse::gen::SparsityBand;
use canon_sweep::scenario::{
    cell_seed, check_fabric_size, standard_workloads, Scenario, DEFAULT_BASE_SEED,
};
use canon_sweep::store::{cell_key, cfg_fingerprint, escape_json, parse_flat_object, JsonVal};
use canon_sweep::{RecoveryStats, StoredRecord};

/// Pushes one `"key":value` JSON pair (string value) onto `out`.
fn push_str_field(out: &mut String, key: &str, val: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    escape_json(val, out);
    out.push('"');
}

/// Pushes one `"key":value` JSON pair (unquoted value: number or bool).
fn push_raw_field(out: &mut String, key: &str, val: impl std::fmt::Display) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&val.to_string());
}

/// One scenario-execution request. The scenario axes mirror
/// [`Scenario`]; omitted optional fields take the same defaults the grid
/// builder uses, so a bare `{"workload":"GEMM",...}` submit lands on the
/// identical store key as the equivalent `repro sweep` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen request id, echoed in the reply (may be empty).
    pub id: String,
    /// Workload family name, resolved against
    /// [`standard_workloads`] ("GEMM", "SpMM", "PolyB-gemm", …).
    pub workload: String,
    /// Sparsity band; required for band-sensitive workloads, ignored (and
    /// normalized to `None`) otherwise.
    pub band: Option<SparsityBand>,
    /// Shape scale divisor (1 = full scale). Defaults to 1.
    pub scale: usize,
    /// Fabric geometry. Defaults to the standard 8×8.
    pub geometry: (usize, usize),
    /// Architecture label ("Canon", "Systolic", …). Defaults to Canon.
    pub arch: canon_energy::Arch,
    /// Operand seed; `None` derives the grid default
    /// ([`cell_seed`] over [`DEFAULT_BASE_SEED`]).
    pub seed: Option<u64>,
    /// Per-request cycle ceiling ([`CanonConfig::max_cycles`]).
    pub max_cycles: Option<u64>,
    /// Per-request wall-clock budget in ns
    /// ([`CanonConfig::wall_budget_ns`]).
    pub wall_budget_ns: Option<u64>,
    /// Injected fault, in [`FaultAction::descriptor`] spelling on the wire.
    pub fault: Option<FaultAction>,
}

impl SubmitRequest {
    /// A default-axes submit for `workload` (band-sensitive workloads still
    /// need [`SubmitRequest::band`] set before use).
    pub fn new(id: impl Into<String>, workload: impl Into<String>) -> SubmitRequest {
        SubmitRequest {
            id: id.into(),
            workload: workload.into(),
            band: None,
            scale: 1,
            geometry: (8, 8),
            arch: canon_energy::Arch::Canon,
            seed: None,
            max_cycles: None,
            wall_budget_ns: None,
            fault: None,
        }
    }

    /// Resolves the request into a concrete [`Scenario`], or a
    /// client-addressable validation error (including a geometry past
    /// [`canon_sweep::scenario::MAX_FABRIC_PES`]).
    pub fn scenario(&self) -> Result<Scenario, String> {
        let spec = standard_workloads()
            .into_iter()
            .find(|w| w.name == self.workload)
            .ok_or_else(|| format!("unknown workload '{}'", self.workload))?;
        let band = if spec.template.band_sensitive() {
            Some(self.band.ok_or_else(|| {
                format!(
                    "workload '{}' is band-sensitive; band required",
                    self.workload
                )
            })?)
        } else {
            None
        };
        if self.scale == 0 || self.geometry.0 == 0 || self.geometry.1 == 0 {
            return Err("scale, rows, and cols must be positive".into());
        }
        check_fabric_size(self.geometry.0, self.geometry.1)?;
        let seed = self
            .seed
            .unwrap_or_else(|| cell_seed(DEFAULT_BASE_SEED, &self.workload, band, self.scale));
        Ok(Scenario {
            workload: self.workload.clone(),
            op: spec.template.instantiate(band, self.scale),
            band,
            geometry: self.geometry,
            scale: self.scale,
            arch: self.arch,
            seed,
        })
    }

    /// The effective Canon configuration of this request: `base` plus the
    /// per-request budgets and fault — the exact analogue of
    /// [`canon_sweep::SweepOptions::cell_cfg`], so daemon and batch sweep
    /// fingerprint identically configured cells identically.
    pub fn cfg(&self, base: &CanonConfig) -> CanonConfig {
        let mut cfg = base.clone();
        if let Some(ns) = self.wall_budget_ns {
            cfg.wall_budget_ns = Some(ns);
        }
        if let Some(c) = self.max_cycles {
            cfg.max_cycles = Some(c);
        }
        cfg.fault = self.fault;
        cfg
    }

    /// The store key this request resolves to under `base`.
    pub fn key(&self, base: &CanonConfig) -> Result<String, String> {
        let scenario = self.scenario()?;
        Ok(cell_key(&scenario, &cfg_fingerprint(&self.cfg(base))))
    }
}

/// Parses an architecture label as spelled by
/// [`canon_energy::Arch::label`].
pub fn arch_from_label(label: &str) -> Option<canon_energy::Arch> {
    canon_energy::Arch::all()
        .into_iter()
        .find(|a| a.label() == label)
}

/// Parses a sparsity-band label ("S1"/"S2"/"S3").
pub fn band_from_label(label: &str) -> Option<SparsityBand> {
    SparsityBand::all()
        .into_iter()
        .find(|b| b.to_string() == label)
}

/// One protocol request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a scenario (blocking: one reply when it resolves).
    Submit(SubmitRequest),
    /// Report daemon health and counters.
    Status,
    /// Cancel queued submits with the given request id (in-flight cells run
    /// to completion under their budgets).
    Cancel {
        /// The id the submits were tagged with.
        id: String,
    },
    /// Stop accepting work, finish what is queued/in-flight, then exit 0.
    Drain,
    /// Stop accepting work, cancel the queue, finish in-flight, exit 0.
    Shutdown,
}

impl Request {
    /// Serializes to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::from("{");
        match self {
            Request::Submit(s) => {
                push_str_field(&mut out, "cmd", "submit");
                push_str_field(&mut out, "id", &s.id);
                push_str_field(&mut out, "workload", &s.workload);
                if let Some(b) = s.band {
                    push_str_field(&mut out, "band", &b.to_string());
                }
                push_raw_field(&mut out, "scale", s.scale);
                push_raw_field(&mut out, "rows", s.geometry.0);
                push_raw_field(&mut out, "cols", s.geometry.1);
                push_str_field(&mut out, "arch", s.arch.label());
                if let Some(seed) = s.seed {
                    push_raw_field(&mut out, "seed", seed);
                }
                if let Some(c) = s.max_cycles {
                    push_raw_field(&mut out, "max_cycles", c);
                }
                if let Some(ns) = s.wall_budget_ns {
                    push_raw_field(&mut out, "wall_budget_ns", ns);
                }
                if let Some(f) = &s.fault {
                    push_str_field(&mut out, "fault", &f.descriptor());
                }
            }
            Request::Status => push_str_field(&mut out, "cmd", "status"),
            Request::Cancel { id } => {
                push_str_field(&mut out, "cmd", "cancel");
                push_str_field(&mut out, "id", id);
            }
            Request::Drain => push_str_field(&mut out, "cmd", "drain"),
            Request::Shutdown => push_str_field(&mut out, "cmd", "shutdown"),
        }
        out.push('}');
        out
    }

    /// Parses one wire line. Errors are human-readable and safe to echo
    /// back in an `error` reply.
    pub fn parse(line: &str) -> Result<Request, String> {
        let obj =
            parse_flat_object(line).ok_or("malformed request line (not a flat JSON object)")?;
        let cmd = obj
            .get("cmd")
            .and_then(JsonVal::as_str)
            .ok_or("missing 'cmd'")?;
        match cmd {
            "status" => Ok(Request::Status),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            "cancel" => Ok(Request::Cancel {
                id: obj
                    .get("id")
                    .and_then(JsonVal::as_str)
                    .ok_or("cancel requires 'id'")?
                    .to_string(),
            }),
            "submit" => Ok(Request::Submit(parse_submit(&obj)?)),
            other => Err(format!("unknown cmd '{other}'")),
        }
    }
}

fn parse_submit(obj: &HashMap<String, JsonVal>) -> Result<SubmitRequest, String> {
    let workload = obj
        .get("workload")
        .and_then(JsonVal::as_str)
        .ok_or("submit requires 'workload'")?
        .to_string();
    let band = match obj.get("band").and_then(JsonVal::as_str) {
        Some(label) => {
            Some(band_from_label(label).ok_or_else(|| format!("unknown band '{label}'"))?)
        }
        None => None,
    };
    let arch = match obj.get("arch").and_then(JsonVal::as_str) {
        Some(label) => arch_from_label(label).ok_or_else(|| format!("unknown arch '{label}'"))?,
        None => canon_energy::Arch::Canon,
    };
    let fault = match obj.get("fault").and_then(JsonVal::as_str) {
        Some(desc) => Some(
            FaultAction::from_descriptor(desc)
                .ok_or_else(|| format!("unparseable fault descriptor '{desc}'"))?,
        ),
        None => None,
    };
    Ok(SubmitRequest {
        id: obj
            .get("id")
            .and_then(JsonVal::as_str)
            .unwrap_or("")
            .to_string(),
        workload,
        band,
        scale: obj.get("scale").and_then(JsonVal::as_usize).unwrap_or(1),
        geometry: (
            obj.get("rows").and_then(JsonVal::as_usize).unwrap_or(8),
            obj.get("cols").and_then(JsonVal::as_usize).unwrap_or(8),
        ),
        arch,
        seed: obj.get("seed").and_then(JsonVal::as_u64),
        max_cycles: obj.get("max_cycles").and_then(JsonVal::as_u64),
        wall_budget_ns: obj.get("wall_budget_ns").and_then(JsonVal::as_u64),
        fault,
    })
}

/// The result payload of a resolved submit — a projection of the
/// journaled [`StoredRecord`] plus serving provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultReply {
    /// Echoed request id.
    pub id: String,
    /// Content-hash store key the record was journaled under.
    pub key: String,
    /// Record status: `ok`, `unsupported`, `error`, or a
    /// [`canon_sweep::CellFailure::kind`] (`panic` / `deadlock` /
    /// `timeout` / `transient`).
    pub status: String,
    /// Failure/error detail; empty for `ok` and `unsupported`.
    pub reason: String,
    /// Total cycles (abort cycle for deadlock/timeout).
    pub cycles: u64,
    /// Total energy in pJ.
    pub energy_pj: f64,
    /// Useful scalar MACs.
    pub useful_macs: u64,
    /// Effective compute utilization.
    pub utilization: f64,
    /// True when served from the store index without simulating.
    pub cached: bool,
    /// True when this request rode an identical in-flight simulation.
    pub coalesced: bool,
    /// Transient retries consumed resolving this request.
    pub retries: u64,
}

impl ResultReply {
    /// Builds the reply from a journaled record plus provenance flags.
    pub fn from_record(
        id: &str,
        rec: &StoredRecord,
        cached: bool,
        coalesced: bool,
        retries: u64,
    ) -> ResultReply {
        use canon_sweep::store::RecordStatus;
        let (status, reason) = match &rec.status {
            RecordStatus::Ok => ("ok".to_string(), String::new()),
            RecordStatus::Unsupported => ("unsupported".to_string(), String::new()),
            RecordStatus::Error(msg) => ("error".to_string(), msg.clone()),
            RecordStatus::Failed(f) => (f.kind().to_string(), f.reason().to_string()),
        };
        ResultReply {
            id: id.to_string(),
            key: rec.key.clone(),
            status,
            reason,
            cycles: rec.cycles,
            energy_pj: rec.energy_pj,
            useful_macs: rec.useful_macs,
            utilization: rec.utilization,
            cached,
            coalesced,
            retries,
        }
    }

    /// True when the cell produced metrics.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// True when the status is a quarantined-failure kind.
    pub fn is_failure(&self) -> bool {
        matches!(
            self.status.as_str(),
            "panic" | "deadlock" | "timeout" | "transient"
        )
    }
}

/// Daemon health and counters, served by `status`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusReply {
    /// Requests waiting in the bounded queue.
    pub queue_depth: usize,
    /// Queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Cells currently simulating on workers.
    pub inflight: usize,
    /// Worker-thread count.
    pub workers: usize,
    /// True once a drain/shutdown (protocol or signal) is underway.
    pub draining: bool,
    /// Submits resolved (any status) since daemon start.
    pub completed: u64,
    /// Submits served from the store index without simulating.
    pub cache_hits: u64,
    /// Submits that rode an identical in-flight simulation.
    pub coalesced: u64,
    /// Submits rejected with `busy` (queue full).
    pub rejected: u64,
    /// Queued submits cancelled (by `cancel` or `shutdown`).
    pub cancelled: u64,
    /// Transient retry attempts consumed since daemon start.
    pub retries: u64,
    /// True when a drain stopped work before the queue emptied — the
    /// serving-tier mirror of [`canon_sweep::SweepStats::interrupted`].
    pub interrupted: bool,
    /// Quarantined panics since start.
    pub failed_panic: u64,
    /// Quarantined deadlocks since start.
    pub failed_deadlock: u64,
    /// Quarantined budget timeouts since start.
    pub failed_timeout: u64,
    /// Exhausted transient retries since start.
    pub failed_transient: u64,
    /// Warm-pool hits aggregated over workers.
    pub pool_hits: u64,
    /// Warm-pool misses (fresh constructions) aggregated over workers.
    pub pool_misses: u64,
    /// Fabrics discarded (poisoned or over capacity) aggregated over
    /// workers.
    pub pool_discarded: u64,
    /// Records resident in the store index.
    pub store_records: usize,
    /// Journal lines recovered at open ([`RecoveryStats::loaded`]).
    pub recovery_loaded: usize,
    /// Corrupt journal lines skipped at open.
    pub recovery_unreadable: usize,
    /// Torn-tail bytes truncated at open.
    pub recovery_torn_bytes: u64,
    /// Milliseconds since the daemon started serving.
    pub uptime_ms: u64,
}

impl StatusReply {
    /// Folds the store's open-time recovery stats in.
    pub fn with_recovery(mut self, rec: &RecoveryStats) -> StatusReply {
        self.recovery_loaded = rec.loaded;
        self.recovery_unreadable = rec.unreadable_lines;
        self.recovery_torn_bytes = rec.torn_tail_bytes;
        self
    }
}

/// One protocol reply line.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A submit resolved (successfully or as a structured failure).
    Result(ResultReply),
    /// The queue is full; retry after the given delay.
    Busy {
        /// Echoed request id.
        id: String,
        /// Suggested client backoff.
        retry_after_ms: u64,
        /// Queue depth at rejection time.
        queue_depth: usize,
    },
    /// The daemon is draining and accepts no new work.
    Draining {
        /// Echoed request id (empty for non-submit commands).
        id: String,
    },
    /// This queued submit was cancelled before executing.
    Cancelled {
        /// Echoed request id.
        id: String,
    },
    /// Acknowledges a `cancel` command.
    CancelOk {
        /// Queued submits removed.
        cancelled: u64,
    },
    /// Health/counters snapshot.
    Status(Box<StatusReply>),
    /// Acknowledges `drain`/`shutdown`; the daemon exits once in-flight
    /// work resolves.
    ShuttingDown,
    /// The request could not be parsed or validated.
    Error {
        /// Echoed request id (empty when the line had none).
        id: String,
        /// What was wrong.
        message: String,
    },
}

impl Reply {
    /// Serializes to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::from("{");
        match self {
            Reply::Result(r) => {
                push_str_field(&mut out, "reply", "result");
                push_str_field(&mut out, "id", &r.id);
                push_str_field(&mut out, "key", &r.key);
                push_str_field(&mut out, "status", &r.status);
                if !r.reason.is_empty() {
                    push_str_field(&mut out, "reason", &r.reason);
                }
                push_raw_field(&mut out, "cycles", r.cycles);
                push_raw_field(&mut out, "energy_pj", format!("{:.3}", r.energy_pj));
                push_raw_field(&mut out, "useful_macs", r.useful_macs);
                push_raw_field(&mut out, "utilization", format!("{:.6}", r.utilization));
                push_raw_field(&mut out, "cached", r.cached);
                push_raw_field(&mut out, "coalesced", r.coalesced);
                push_raw_field(&mut out, "retries", r.retries);
            }
            Reply::Busy {
                id,
                retry_after_ms,
                queue_depth,
            } => {
                push_str_field(&mut out, "reply", "busy");
                push_str_field(&mut out, "id", id);
                push_raw_field(&mut out, "retry_after_ms", retry_after_ms);
                push_raw_field(&mut out, "queue_depth", queue_depth);
            }
            Reply::Draining { id } => {
                push_str_field(&mut out, "reply", "draining");
                push_str_field(&mut out, "id", id);
            }
            Reply::Cancelled { id } => {
                push_str_field(&mut out, "reply", "cancelled");
                push_str_field(&mut out, "id", id);
            }
            Reply::CancelOk { cancelled } => {
                push_str_field(&mut out, "reply", "cancel_ok");
                push_raw_field(&mut out, "cancelled", cancelled);
            }
            Reply::Status(s) => {
                push_str_field(&mut out, "reply", "status");
                push_raw_field(&mut out, "queue_depth", s.queue_depth);
                push_raw_field(&mut out, "queue_capacity", s.queue_capacity);
                push_raw_field(&mut out, "inflight", s.inflight);
                push_raw_field(&mut out, "workers", s.workers);
                push_raw_field(&mut out, "draining", s.draining);
                push_raw_field(&mut out, "completed", s.completed);
                push_raw_field(&mut out, "cache_hits", s.cache_hits);
                push_raw_field(&mut out, "coalesced", s.coalesced);
                push_raw_field(&mut out, "rejected", s.rejected);
                push_raw_field(&mut out, "cancelled", s.cancelled);
                push_raw_field(&mut out, "retries", s.retries);
                push_raw_field(&mut out, "interrupted", s.interrupted);
                push_raw_field(&mut out, "failed_panic", s.failed_panic);
                push_raw_field(&mut out, "failed_deadlock", s.failed_deadlock);
                push_raw_field(&mut out, "failed_timeout", s.failed_timeout);
                push_raw_field(&mut out, "failed_transient", s.failed_transient);
                push_raw_field(&mut out, "pool_hits", s.pool_hits);
                push_raw_field(&mut out, "pool_misses", s.pool_misses);
                push_raw_field(&mut out, "pool_discarded", s.pool_discarded);
                push_raw_field(&mut out, "store_records", s.store_records);
                push_raw_field(&mut out, "recovery_loaded", s.recovery_loaded);
                push_raw_field(&mut out, "recovery_unreadable", s.recovery_unreadable);
                push_raw_field(&mut out, "recovery_torn_bytes", s.recovery_torn_bytes);
                push_raw_field(&mut out, "uptime_ms", s.uptime_ms);
            }
            Reply::ShuttingDown => push_str_field(&mut out, "reply", "shutting_down"),
            Reply::Error { id, message } => {
                push_str_field(&mut out, "reply", "error");
                push_str_field(&mut out, "id", id);
                push_str_field(&mut out, "message", message);
            }
        }
        out.push('}');
        out
    }

    /// Parses one wire line.
    pub fn parse(line: &str) -> Result<Reply, String> {
        let obj = parse_flat_object(line).ok_or("malformed reply line (not a flat JSON object)")?;
        let kind = obj
            .get("reply")
            .and_then(JsonVal::as_str)
            .ok_or("missing 'reply'")?;
        let id = |o: &HashMap<String, JsonVal>| {
            o.get("id")
                .and_then(JsonVal::as_str)
                .unwrap_or("")
                .to_string()
        };
        match kind {
            "result" => Ok(Reply::Result(ResultReply {
                id: id(&obj),
                key: obj
                    .get("key")
                    .and_then(JsonVal::as_str)
                    .unwrap_or("")
                    .to_string(),
                status: obj
                    .get("status")
                    .and_then(JsonVal::as_str)
                    .ok_or("result reply missing 'status'")?
                    .to_string(),
                reason: obj
                    .get("reason")
                    .and_then(JsonVal::as_str)
                    .unwrap_or("")
                    .to_string(),
                cycles: obj.get("cycles").and_then(JsonVal::as_u64).unwrap_or(0),
                energy_pj: obj
                    .get("energy_pj")
                    .and_then(JsonVal::as_f64)
                    .unwrap_or(0.0),
                useful_macs: obj
                    .get("useful_macs")
                    .and_then(JsonVal::as_u64)
                    .unwrap_or(0),
                utilization: obj
                    .get("utilization")
                    .and_then(JsonVal::as_f64)
                    .unwrap_or(0.0),
                cached: obj
                    .get("cached")
                    .and_then(JsonVal::as_bool)
                    .unwrap_or(false),
                coalesced: obj
                    .get("coalesced")
                    .and_then(JsonVal::as_bool)
                    .unwrap_or(false),
                retries: obj.get("retries").and_then(JsonVal::as_u64).unwrap_or(0),
            })),
            "busy" => Ok(Reply::Busy {
                id: id(&obj),
                retry_after_ms: obj
                    .get("retry_after_ms")
                    .and_then(JsonVal::as_u64)
                    .unwrap_or(100),
                queue_depth: obj
                    .get("queue_depth")
                    .and_then(JsonVal::as_usize)
                    .unwrap_or(0),
            }),
            "draining" => Ok(Reply::Draining { id: id(&obj) }),
            "cancelled" => Ok(Reply::Cancelled { id: id(&obj) }),
            "cancel_ok" => Ok(Reply::CancelOk {
                cancelled: obj.get("cancelled").and_then(JsonVal::as_u64).unwrap_or(0),
            }),
            "shutting_down" => Ok(Reply::ShuttingDown),
            "error" => Ok(Reply::Error {
                id: id(&obj),
                message: obj
                    .get("message")
                    .and_then(JsonVal::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            "status" => {
                let u = |k: &str| obj.get(k).and_then(JsonVal::as_u64).unwrap_or(0);
                let us = |k: &str| obj.get(k).and_then(JsonVal::as_usize).unwrap_or(0);
                let b = |k: &str| obj.get(k).and_then(JsonVal::as_bool).unwrap_or(false);
                Ok(Reply::Status(Box::new(StatusReply {
                    queue_depth: us("queue_depth"),
                    queue_capacity: us("queue_capacity"),
                    inflight: us("inflight"),
                    workers: us("workers"),
                    draining: b("draining"),
                    completed: u("completed"),
                    cache_hits: u("cache_hits"),
                    coalesced: u("coalesced"),
                    rejected: u("rejected"),
                    cancelled: u("cancelled"),
                    retries: u("retries"),
                    interrupted: b("interrupted"),
                    failed_panic: u("failed_panic"),
                    failed_deadlock: u("failed_deadlock"),
                    failed_timeout: u("failed_timeout"),
                    failed_transient: u("failed_transient"),
                    pool_hits: u("pool_hits"),
                    pool_misses: u("pool_misses"),
                    pool_discarded: u("pool_discarded"),
                    store_records: us("store_records"),
                    recovery_loaded: us("recovery_loaded"),
                    recovery_unreadable: us("recovery_unreadable"),
                    recovery_torn_bytes: u("recovery_torn_bytes"),
                    uptime_ms: u("uptime_ms"),
                })))
            }
            other => Err(format!("unknown reply '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_the_wire() {
        let mut req = SubmitRequest::new("r1", "SpMM");
        req.band = Some(SparsityBand::S2);
        req.scale = 4;
        req.geometry = (8, 4);
        req.arch = canon_energy::Arch::Zed;
        req.seed = Some(42);
        req.max_cycles = Some(10_000);
        req.wall_budget_ns = Some(5_000_000_000);
        req.fault = Some(FaultAction::PanicAt { cycle: 3 });
        let wire = Request::Submit(req.clone()).to_line();
        assert_eq!(Request::parse(&wire), Ok(Request::Submit(req)));
    }

    #[test]
    fn oversized_geometry_is_rejected_before_any_fabric_is_built() {
        let mut req = SubmitRequest::new("big", "GEMM");
        req.scale = 4;
        req.geometry = (1, 1 << 20);
        let err = req.scenario().unwrap_err();
        assert!(err.contains("16384"), "{err}");
        // A product that overflows `usize` is rejected, not wrapped.
        req.geometry = (usize::MAX, 2);
        assert!(req.scenario().is_err());
        // The bound itself is inclusive.
        req.geometry = (128, 128);
        assert!(req.scenario().is_ok());
        req.geometry = (128, 129);
        assert!(req.scenario().is_err());
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Status,
            Request::Drain,
            Request::Shutdown,
            Request::Cancel { id: "x".into() },
        ] {
            assert_eq!(Request::parse(&req.to_line()), Ok(req));
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply::Busy {
                id: "a".into(),
                retry_after_ms: 250,
                queue_depth: 8,
            },
            Reply::Draining { id: "b".into() },
            Reply::Cancelled { id: "c".into() },
            Reply::CancelOk { cancelled: 3 },
            Reply::ShuttingDown,
            Reply::Error {
                id: String::new(),
                message: "unknown workload 'nope'".into(),
            },
            Reply::Status(Box::new(StatusReply {
                queue_depth: 2,
                queue_capacity: 64,
                inflight: 1,
                workers: 4,
                draining: true,
                completed: 10,
                cache_hits: 3,
                coalesced: 2,
                rejected: 1,
                cancelled: 1,
                retries: 5,
                interrupted: true,
                failed_panic: 1,
                failed_deadlock: 1,
                failed_timeout: 2,
                failed_transient: 1,
                pool_hits: 7,
                pool_misses: 2,
                pool_discarded: 1,
                store_records: 12,
                recovery_loaded: 12,
                recovery_unreadable: 1,
                recovery_torn_bytes: 17,
                uptime_ms: 1234,
            })),
        ];
        for r in replies {
            assert_eq!(Reply::parse(&r.to_line()), Ok(r));
        }
    }

    #[test]
    fn default_seed_matches_the_grid_builder() {
        let mut req = SubmitRequest::new("", "SpMM");
        req.band = Some(SparsityBand::S3);
        req.scale = 4;
        let scenario = req.scenario().unwrap();
        assert_eq!(
            scenario.seed,
            cell_seed(DEFAULT_BASE_SEED, "SpMM", Some(SparsityBand::S3), 4)
        );
        // And the key matches what a batch sweep computes for the same cell.
        let grid = canon_sweep::ScenarioGrid::builder()
            .workload(
                "SpMM",
                canon_sweep::OpTemplate::Spmm {
                    m: 256,
                    k: 256,
                    n: 128,
                },
            )
            .bands(&[SparsityBand::S3])
            .scales(&[4])
            .archs(&[canon_energy::Arch::Canon])
            .build();
        let batch = &grid.scenarios[0];
        assert_eq!(batch, &scenario);
    }

    #[test]
    fn submit_validation_is_addressable() {
        assert!(SubmitRequest::new("", "nope").scenario().is_err());
        // Band-sensitive workload without a band.
        assert!(SubmitRequest::new("", "SpMM").scenario().is_err());
        // Band-insensitive workload normalizes the band away.
        let mut gemm = SubmitRequest::new("", "GEMM");
        gemm.band = Some(SparsityBand::S1);
        assert_eq!(gemm.scenario().unwrap().band, None);
    }
}

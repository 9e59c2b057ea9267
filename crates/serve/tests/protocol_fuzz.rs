//! Seeded fuzzing of the line-JSON protocol. Every input — random byte
//! strings, and truncations and byte flips of valid `submit`/`status`/
//! `cancel` requests and of valid replies — goes through
//! `String::from_utf8_lossy` (exactly as the daemon decodes a request line)
//! into `Request::parse`, `Reply::parse` and `parse_flat_object`. Each must
//! return `Ok`/`Err` (`Some`/`None`); a panic fails the test. Random
//! submits then go through request handling itself
//! (`SubmitRequest::scenario` and the store key), which must not panic
//! either and must never accept a fabric past the size bound.

use canon_core::{CanonConfig, FaultAction};
use canon_energy::Arch;
use canon_serve::protocol::{Reply, Request, StatusReply, SubmitRequest};
use canon_sparse::gen::SparsityBand;
use canon_sweep::scenario::{standard_workloads, MAX_FABRIC_PES};
use canon_sweep::store::{cell_key, cfg_fingerprint, parse_flat_object};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Well-formed wire lines covering every field kind of the dialect
/// (strings with escapes, integers, floats, booleans).
fn valid_lines() -> Vec<String> {
    let mut submit = SubmitRequest::new("fuzz \"1\"\t", "SpMM");
    submit.band = Some(SparsityBand::S2);
    submit.scale = 4;
    submit.geometry = (16, 8);
    submit.seed = Some(42);
    submit.max_cycles = Some(10_000);
    submit.wall_budget_ns = Some(5_000_000_000);
    submit.fault = Some(FaultAction::SlowCycle { nanos: 1_000 });
    vec![
        Request::Submit(submit).to_line(),
        Request::Status.to_line(),
        Request::Cancel {
            id: "fuzz-1".into(),
        }
        .to_line(),
        Reply::Status(Box::new(StatusReply {
            queue_depth: 3,
            draining: true,
            ..StatusReply::default()
        }))
        .to_line(),
        Reply::Busy {
            id: "b".into(),
            retry_after_ms: 50,
            queue_depth: 64,
        }
        .to_line(),
        Reply::Error {
            id: String::new(),
            message: "bad \\ line\n".into(),
        }
        .to_line(),
    ]
}

/// Feeds one raw line through every parser.
fn parse_all(bytes: &[u8]) {
    let line = String::from_utf8_lossy(bytes);
    let _ = Request::parse(&line);
    let _ = Reply::parse(&line);
    let _ = parse_flat_object(&line);
}

/// Fault fields as a client may spell them: every descriptor kind, plus
/// near misses that must parse to no fault.
const FAULTS: &[&str] = &[
    "panic@3",
    "withhold-credits",
    "slow:1000ns",
    "transient:2",
    "panic@",
    "slow:ns",
    "transient:-1",
    "bogus",
    "",
];

/// A random submit: a standard or junk workload name, any band (or none),
/// any architecture, any fault string, and `scale`/`rows`/`cols` drawn
/// from small, grid-sized, and huge (up to 2^40) ranges, so some geometry
/// products overflow `usize`.
fn random_submit(rng: &mut StdRng) -> SubmitRequest {
    let names: Vec<String> = standard_workloads().into_iter().map(|w| w.name).collect();
    let workload = if rng.gen_bool(0.25) {
        (0..rng.gen_range(0..12usize))
            .map(|_| char::from(fuzz_byte(rng) & 0x7f))
            .collect()
    } else {
        names[rng.gen_range(0..names.len())].clone()
    };
    let mut req = SubmitRequest::new("fuzz", workload);
    req.band = match rng.gen_range(0..4usize) {
        0 => None,
        i => Some(SparsityBand::all()[i - 1]),
    };
    req.arch = Arch::all()[rng.gen_range(0..Arch::all().len())];
    req.fault = FaultAction::from_descriptor(FAULTS[rng.gen_range(0..FAULTS.len())]);
    let dim = |rng: &mut StdRng| match rng.gen_range(0..3u8) {
        0 => rng.gen_range(0..=16usize),
        1 => rng.gen_range(0..=256usize),
        _ => rng.gen_range(0..=1u64 << 40) as usize,
    };
    req.scale = dim(rng);
    req.geometry = (dim(rng), dim(rng));
    req
}

/// A random byte, half the time drawn from the dialect's own alphabet so
/// the parsers get past their first few checks.
fn fuzz_byte(rng: &mut StdRng) -> u8 {
    const ALPHABET: &[u8] = br#"{}[]":, \ntrufalsenull0123456789-+.eE"#;
    if rng.gen_bool(0.5) {
        ALPHABET[rng.gen_range(0..ALPHABET.len())]
    } else {
        rng.gen_range(0..=u8::MAX)
    }
}

#[test]
fn valid_lines_parse() {
    let lines = valid_lines();
    for line in &lines[..3] {
        assert!(Request::parse(line).is_ok(), "{line}");
    }
    for line in &lines[3..] {
        assert!(Reply::parse(line).is_ok(), "{line}");
    }
    for line in &lines {
        assert!(parse_flat_object(line).is_some(), "{line}");
    }
}

#[test]
fn every_truncation_of_a_valid_line_parses_without_panic() {
    for line in valid_lines() {
        for cut in 0..=line.len() {
            parse_all(&line.as_bytes()[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn random_bytes_parse_without_panic(seed in 0u64..u64::MAX, len in 0usize..512) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes: Vec<u8> = (0..len).map(|_| fuzz_byte(&mut rng)).collect();
        if rng.gen_bool(0.5) {
            // Most real parse paths start at an object opener.
            bytes.insert(0, b'{');
        }
        parse_all(&bytes);
    }

    #[test]
    fn flipped_valid_lines_parse_without_panic(seed in 0u64..u64::MAX, flips in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        for line in valid_lines() {
            let mut bytes = line.into_bytes();
            for _ in 0..flips {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = if rng.gen_bool(0.5) {
                    bytes[i] ^ (1 << rng.gen_range(0..8u32))
                } else {
                    fuzz_byte(&mut rng)
                };
            }
            let cut = rng.gen_range(0..=bytes.len());
            parse_all(&bytes);
            parse_all(&bytes[..cut]);
        }
    }

    #[test]
    fn random_submits_resolve_without_panic_within_the_fabric_bound(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = random_submit(&mut rng);
        // The request as built, and as the daemon sees it after the wire.
        let wire = match Request::parse(&Request::Submit(req.clone()).to_line()) {
            Ok(Request::Submit(r)) => Some(r),
            _ => None,
        };
        for r in std::iter::once(req).chain(wire) {
            if let Ok(s) = r.scenario() {
                let (rows, cols) = s.geometry;
                prop_assert!(
                    rows.checked_mul(cols).is_some_and(|pes| pes <= MAX_FABRIC_PES),
                    "accepted a {rows}x{cols} fabric"
                );
                let _ = cell_key(&s, &cfg_fingerprint(&r.cfg(&CanonConfig::default())));
            }
        }
    }
}

//! Properties of the job-spec wire codec:
//!
//! * compatibility: under a v1/v2 tag the prefetcher column decodes
//!   exactly the kinds the old hand-written compact decoder
//!   (`reference::prefetcher_from_wire`) decoded, and rejects everything
//!   it rejected;
//! * the kind ↔ registry-spec bridge round-trips every kind the registry
//!   can name;
//! * the decoders never panic on damaged input, and every run
//!   `WireRun::from_run_spec` accepts decodes back to itself.

mod reference;

use ipsim_core::PrefetcherKind;
use ipsim_cpu::{LimitSpec, WorkloadSet};
use ipsim_harness::wire::{JobSpec, WireRun, TSV_PREFIX};
use ipsim_harness::{RunLengths, RunSpec};
use ipsim_prefetch::{PrefetcherSpec, Scheme, ZooPlan};
use ipsim_trace::Workload;
use ipsim_types::SystemConfig;
use proptest::prelude::*;

/// Every compact head, plus near misses of them.
const HEADS: &[&str] = &[
    "none",
    "nl_always",
    "nl_miss",
    "nl_tagged",
    "nnl",
    "lookahead",
    "disc",
    "disc_gated",
    "target",
    "wrong_path",
    "wrong_path+nl",
    "markov",
    "",
    "nl",
    "mana",
    "stream",
    "NL_TAGGED",
    "disc_gated+nl",
    "wrong_path+",
    "nnl ",
];

/// Positional values: 0, in and out of every knob range, powers of two
/// and not, overflowing, signed, padded and junk.
const ARGS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "4",
    "7",
    "64",
    "65",
    "100",
    "1024",
    "4096",
    "8192",
    "08192",
    "+8192",
    "1048576",
    "2097152",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "",
    " 4",
    "1e3",
    "x",
    "4,ahead=2",
    "n=4",
];

/// The correct arity of a compact head (0 for junk heads).
fn arity(head: &str) -> usize {
    match head {
        "nnl" | "lookahead" | "target" => 1,
        "disc" | "markov" => 2,
        "disc_gated" => 3,
        _ => 0,
    }
}

/// Random compact-form column text: a head with the right or a wrong
/// number of `:`-arguments, or a short run of junk characters.
fn compact_text() -> impl Strategy<Value = String> {
    (
        (0..HEADS.len(), any::<bool>(), 0usize..5),
        prop::collection::vec(0..ARGS.len(), 4),
        prop::collection::vec(0usize..26, 0..10),
        0u8..8,
    )
        .prop_map(|((head, right_arity, n), args, junk, shape)| {
            if shape == 0 {
                const ALPHABET: &[u8] = b"abcdeglnmpt_:+=,0123456789";
                return junk.iter().map(|&i| ALPHABET[i] as char).collect();
            }
            let head = HEADS[head];
            let n = if right_arity { arity(head) } else { n };
            let mut text = head.to_string();
            for &a in &args[..n] {
                text.push(':');
                text.push_str(ARGS[a]);
            }
            text
        })
}

/// Decodes `column` as the prefetcher of a one-run TSV document tagged
/// with wire version `version`.
fn decode_column(column: &str, version: u32) -> Result<Scheme, String> {
    let doc = format!("{TSV_PREFIX}{version}\nsingle_core\tdb\t{column}\tinstall_both\t-\t1\t2\n");
    JobSpec::from_tsv(&doc).map(|job| job.runs[0].scheme.clone())
}

/// Picks from a list of interesting knob values.
fn pick(values: &[u64], i: u64) -> u64 {
    values[i as usize % values.len()]
}

/// Random kinds, knobs inside and outside the registry's ranges.
fn any_kind() -> impl Strategy<Value = PrefetcherKind> {
    const SIZES: &[u64] = &[
        0,
        1,
        63,
        64,
        100,
        1024,
        4096,
        8192,
        1 << 20,
        (1 << 20) + 1,
        1 << 21,
    ];
    const SMALL: &[u64] = &[0, 1, 2, 3, 4, 7, 64, 65, u32::MAX as u64];
    const CONFIDENCE: &[u64] = &[0, 1, 2, 3, 4, 200];
    (0u8..11, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(variant, a, b, c)| {
        let size = pick(SIZES, a) as usize;
        let n = pick(SMALL, b) as u32;
        match variant {
            0 => PrefetcherKind::None,
            1 => PrefetcherKind::NextLineAlways,
            2 => PrefetcherKind::NextLineOnMiss,
            3 => PrefetcherKind::NextLineTagged,
            4 => PrefetcherKind::NextNLineTagged { n },
            5 => PrefetcherKind::Lookahead { n },
            6 => PrefetcherKind::Discontinuity {
                table_entries: size,
                ahead: n,
            },
            7 => PrefetcherKind::DiscontinuityGated {
                table_entries: size,
                ahead: n,
                min_confidence: pick(CONFIDENCE, c) as u8,
            },
            8 => PrefetcherKind::Target {
                table_entries: size,
            },
            9 => PrefetcherKind::WrongPath {
                next_line: c % 2 == 1,
            },
            _ => PrefetcherKind::Markov {
                table_entries: size,
                ahead: n,
            },
        }
    })
}

/// Random in-process run specs: wire presets or not, default workload
/// seeds or not, any kind or a zoo plan, any policy and limit.
fn any_run_spec() -> impl Strategy<Value = RunSpec> {
    const PLANS: &[&str] = &[
        "nl+disc",
        "mana",
        "disc:ahead=2+pmap:depth=2+stream",
        "none",
    ];
    (
        any_kind(),
        0..PLANS.len() + 2,
        (0u32..18, 0u8..6, 0u8..8),
        (any::<bool>(), any::<bool>(), 0u64..3_000_000_000),
    )
        .prop_map(
            |(kind, plan, (cores, workload, limit), (bypass, odd_seed, window))| {
                let config = match cores {
                    0 | 1 => SystemConfig::single_core(),
                    17 => {
                        let mut odd = SystemConfig::cmp4();
                        odd.sched_quantum = 8;
                        odd
                    }
                    n => {
                        let mut config = SystemConfig::cmp4();
                        config.n_cores = n;
                        config
                    }
                };
                let mut workloads = match workload {
                    5 => WorkloadSet::mixed(),
                    w => WorkloadSet::homogeneous(Workload::ALL[w as usize % 4]),
                };
                if odd_seed {
                    workloads.walker_seed ^= 1;
                }
                let lengths = RunLengths {
                    warm: window / 2,
                    measure: window,
                };
                let mut spec = RunSpec::new(config, workloads, lengths);
                spec = match PLANS.get(plan) {
                    Some(plan) => spec.zoo(ZooPlan::parse(plan).unwrap()),
                    None => spec.prefetcher(kind),
                };
                if bypass {
                    spec = spec.policy(ipsim_cache::InstallPolicy::BypassL2UntilUseful);
                }
                if limit > 0 {
                    spec = spec.limit(LimitSpec {
                        sequential: limit & 1 != 0,
                        branch: limit & 2 != 0,
                        function_call: limit & 4 != 0,
                    });
                }
                spec
            },
        )
}

/// A valid document to damage: a few wire-expressible runs as JSON or
/// TSV under any accepted version, or a v1/v2 payload in the old
/// compact grammar.
fn any_document() -> impl Strategy<Value = String> {
    const OLD: &[&str] = &[
        "{\"v\":1,\"runs\":[{\"config\":\"cmp4\",\"workload\":\"mixed\",\
         \"prefetcher\":\"disc:8192:4\",\"policy\":\"bypass\",\
         \"warm\":5000,\"measure\":10000}]}",
        "{\"v\":2,\"runs\":[{\"config\":\"single_core\",\"workload\":\"db\",\
         \"prefetcher\":\"zoo:nl+disc\",\"policy\":\"install_both\",\
         \"limit\":\"seq+br\",\"warm\":10,\"measure\":20}]}",
        "# ipsim-jobspec-tsv v1\ncmp4\tdb\tnl_tagged\tinstall_both\t-\t1\t2\n",
        "# ipsim-jobspec-tsv v2\ncmp2\tweb\twrong_path+nl\tbypass\tcall\t1\t2\n\
         single_core\tjapp\tzoo:mana:degree=4\tinstall_both\t-\t3\t4\n",
    ];
    (
        prop::collection::vec(any_run_spec(), 1..4),
        0u8..4,
        0..OLD.len(),
    )
        .prop_map(|(specs, form, old)| {
            let runs: Vec<WireRun> = specs.iter().filter_map(WireRun::from_run_spec).collect();
            match (JobSpec::new(runs), form) {
                (Ok(job), 0) => job.to_json(),
                (Ok(job), 1) => job.to_tsv(),
                _ => OLD[old].to_string(),
            }
        })
}

/// Damages `doc`: truncation, a bit flip, an oversize number, deep
/// nesting, or a swapped version tag.
fn damage(doc: &str, how: u8, at: u64, bit: u8) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let at = (at % (bytes.len() as u64 + 1)) as usize;
    match how {
        0 => bytes.truncate(at),
        1 if at < bytes.len() => bytes[at] ^= 1 << (bit % 8),
        2 => {
            let huge: &[u8] = match bit % 3 {
                0 => b"1e400",
                1 => b"18446744073709551616",
                _ => b"-0.5",
            };
            bytes.splice(at..at, huge.iter().copied());
        }
        3 => {
            let depth = 64 + usize::from(bit) * 4;
            let mut nested = "[".repeat(depth).into_bytes();
            nested.extend_from_slice(&bytes);
            nested.extend_from_slice("]".repeat(depth).as_bytes());
            bytes = nested;
        }
        _ => {
            let text = String::from_utf8_lossy(&bytes)
                .replacen("\"v\":3", &format!("\"v\":{}", bit % 5), 1)
                .replacen("tsv v3", &format!("tsv v{}", bit % 5), 1);
            bytes = text.into_bytes();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Checks `text` under v1 and v2 against the reference decoder: the same
/// kind where it accepts, an error where it rejects, and a v3 spelling
/// for every kind it accepts.
fn matches_reference(text: &str) -> Result<(), String> {
    for version in [1, 2] {
        let got = decode_column(text, version);
        match reference::prefetcher_from_wire(text) {
            Ok(kind) => {
                let v3 = Scheme::Single(kind).text();
                let back = v3.as_deref().map(|v3| decode_column(v3, 3));
                if got != Ok(Scheme::Single(kind)) || back != Some(got) {
                    return Err(format!("`{text}` v{version}: {kind:?} vs {v3:?}"));
                }
            }
            Err(_) if got.is_ok() => return Err(format!("`{text}` v{version}: {got:?}")),
            Err(_) => {}
        }
    }
    Ok(())
}

/// Every compact head at its right arity, over every combination of
/// [`ARGS`]: the rare accept/reject boundaries (`disc_gated:8192:4:0`)
/// are covered by enumeration, not by chance.
#[test]
fn compact_table_matches_the_reference_on_every_argument_combination() {
    for head in HEADS {
        let mut texts = vec![head.to_string()];
        for _ in 0..arity(head) {
            texts = texts
                .iter()
                .flat_map(|t| ARGS.iter().map(move |a| format!("{t}:{a}")))
                .collect();
        }
        for text in texts {
            matches_reference(&text).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Under v1 and v2 the compact-form table accepts exactly what the old
    /// hand-written decoder accepted, as the same kind, at right and wrong
    /// arities and on junk.
    #[test]
    fn compact_table_matches_the_reference_decoder(text in compact_text()) {
        let checked = matches_reference(&text);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// kind → spec → `PrefetcherSpec::parse` → `kind()` is the identity on
    /// every kind the registry can name, and the spec writes no default.
    #[test]
    fn registry_specs_round_trip_every_nameable_kind(kind in any_kind()) {
        if let Some(spec) = PrefetcherSpec::from_kind(kind) {
            let parsed = PrefetcherSpec::parse(&spec.canonical()).unwrap();
            prop_assert_eq!(parsed.kind(), Some(kind));
            prop_assert_eq!(&parsed, &spec);
            for (knob, value) in spec.knobs() {
                let def = ipsim_prefetch::find_scheme(spec.name()).unwrap();
                prop_assert_ne!(def.knob(knob).unwrap().default, *value);
            }
        }
    }

    /// A run the wire accepts decodes back to itself (and its cache key)
    /// in both encodings; a kind the registry cannot name is not accepted.
    #[test]
    fn accepted_runs_round_trip(spec in any_run_spec()) {
        let wire = WireRun::from_run_spec(&spec);
        if let Scheme::Single(kind) = spec.scheme {
            if PrefetcherSpec::from_kind(kind).is_none() {
                prop_assert!(wire.is_none(), "unnameable {:?} reached the wire", kind);
            }
        }
        if let Some(wire) = wire {
            let job = JobSpec::new(vec![wire]).unwrap();
            prop_assert_eq!(JobSpec::from_json(&job.to_json()).as_ref(), Ok(&job));
            prop_assert_eq!(JobSpec::from_tsv(&job.to_tsv()).as_ref(), Ok(&job));
            let back = job.to_run_specs().unwrap().remove(0);
            prop_assert_eq!(back.cache_key(), spec.cache_key());
        }
    }

    /// Damaged documents are errors or valid jobs, never panics; whatever
    /// decodes re-encodes to a document that decodes to the same job.
    #[test]
    fn decoders_never_panic_on_damaged_input(
        doc in any_document(),
        how in 0u8..5,
        at in any::<u64>(),
        bit in any::<u8>(),
    ) {
        let damaged = damage(&doc, how, at, bit);
        let decoded = [JobSpec::from_json(&damaged), JobSpec::from_tsv(&damaged)];
        for job in decoded.into_iter().flatten() {
            prop_assert_eq!(JobSpec::from_json(&job.to_json()).as_ref(), Ok(&job));
        }
    }
}

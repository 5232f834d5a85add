//! Never-panic properties of the two on-disk stores a sweep trusts
//! between invocations: run-cache entries and the figure manifest.
//!
//! Each case writes a valid file into a temp directory, damages it —
//! truncation, bit flips, oversize numbers, extra rows, non-UTF-8 bytes,
//! swapped schema lines — and reads it back through the public API:
//!
//! * `RunCache::lookup` returns `None` and quarantines the entry exactly
//!   once (every damage below is one the entry format cannot absorb);
//! * `RunCache::lookup_key` returns `None` and leaves the file in place;
//! * `FigureManifest::load` returns an empty manifest, or one whose every
//!   entry survives `store` then `load` unchanged.

use std::fs;
use std::path::{Path, PathBuf};

use ipsim_cpu::WorkloadSet;
use ipsim_harness::manifest::ManifestEntry;
use ipsim_harness::{FigureManifest, RunCache, RunLengths, RunSpec, Summary};
use ipsim_trace::Workload;
use ipsim_types::stats::CategoryCounts;
use ipsim_types::{MissCategory, SystemConfig};
use proptest::prelude::*;

/// Schema lines of every store in the harness, plus near misses of the
/// run cache's own.
const SCHEMAS: &[&str] = &[
    "# ipsim-runlog v5",
    "# ipsim-figure-manifest v1",
    "# ipsim-run-cache v0",
    "# ipsim-run-cache v2",
    "# ipsim-run-cache v1 ",
    "ipsim-run-cache v1",
    "",
];

/// One way to damage a store file. Positions are fractions of the span
/// they apply to, so one strategy fits files of any length.
#[derive(Debug, Clone)]
enum Damage {
    /// Cut the file anywhere before the end of its last tab.
    Truncate(f64),
    /// Flip the high bit of any byte (ASCII becomes invalid UTF-8).
    FlipHighBit(f64),
    /// Flip any bit of the schema line.
    FlipSchemaBit(f64, u32),
    /// Flip any bit of a field separator.
    FlipTabBit(f64, u32),
    /// Replace an all-digit field with a number past `u64::MAX`.
    Oversize(f64, usize),
    /// Append one more line.
    ExtraRow(Vec<u8>),
    /// Insert one byte in `0x80..=0xFF` anywhere.
    NonUtf8(f64, u8),
    /// Replace the schema line with another store's (or a near miss).
    SwapSchema(usize),
    /// Swap the schema line with the line after it.
    SwapFirstLines,
}

fn damages() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Damage::Truncate),
        (0.0f64..1.0).prop_map(Damage::FlipHighBit),
        ((0.0f64..1.0), 0u32..8).prop_map(|(at, bit)| Damage::FlipSchemaBit(at, bit)),
        ((0.0f64..1.0), 0u32..8).prop_map(|(at, bit)| Damage::FlipTabBit(at, bit)),
        ((0.0f64..1.0), 1usize..40).prop_map(|(at, extra)| Damage::Oversize(at, extra)),
        prop::collection::vec(0u8..128, 0..40).prop_map(Damage::ExtraRow),
        ((0.0f64..1.0), 0u8..128).prop_map(|(at, b)| Damage::NonUtf8(at, 0x80 | b)),
        (0..SCHEMAS.len()).prop_map(Damage::SwapSchema),
        Just(Damage::SwapFirstLines),
    ]
}

/// Index `frac` of the way through `0..len` (`len` > 0).
fn pick(frac: f64, len: usize) -> usize {
    ((frac * len as f64) as usize).min(len - 1)
}

/// Byte ranges of every tab- or newline-delimited field.
fn fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\t' || b == b'\n' {
            out.push((start, i));
            start = i + 1;
        }
    }
    out.push((start, bytes.len()));
    out
}

/// `valid` (an ASCII file whose first line is its schema) with `damage`
/// applied.
fn apply(valid: &[u8], damage: &Damage) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let schema_end = bytes.iter().position(|&b| b == b'\n').unwrap();
    let tabs: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\t').collect();
    match damage {
        Damage::Truncate(at) => {
            let end = tabs.last().map_or(bytes.len(), |&t| t + 2);
            bytes.truncate(pick(*at, end));
        }
        Damage::FlipHighBit(at) => {
            let i = pick(*at, bytes.len());
            bytes[i] ^= 0x80;
        }
        Damage::FlipSchemaBit(at, bit) => bytes[pick(*at, schema_end)] ^= 1 << bit,
        Damage::FlipTabBit(at, bit) => {
            if let Some(&t) = tabs.get(pick(*at, tabs.len().max(1))) {
                bytes[t] ^= 1 << bit;
            } else {
                bytes[schema_end] ^= 1 << bit;
            }
        }
        Damage::Oversize(at, extra) => {
            let numeric: Vec<(usize, usize)> = fields(&bytes)
                .into_iter()
                .filter(|&(s, e)| e > s && bytes[s..e].iter().all(u8::is_ascii_digit))
                .collect();
            let (s, e) = numeric[pick(*at, numeric.len())];
            let huge = format!("{}{}", u64::MAX, "9".repeat(*extra));
            bytes.splice(s..e, huge.bytes());
        }
        Damage::ExtraRow(row) => {
            bytes.extend_from_slice(row);
            bytes.push(b'\n');
        }
        Damage::NonUtf8(at, b) => bytes.insert(pick(*at, bytes.len() + 1), *b),
        Damage::SwapSchema(i) => {
            bytes.splice(..schema_end, SCHEMAS[*i].bytes());
        }
        Damage::SwapFirstLines => {
            let text = String::from_utf8(bytes).unwrap();
            let mut lines: Vec<&str> = text.split('\n').collect();
            lines.swap(0, 1);
            bytes = lines.join("\n").into_bytes();
        }
    }
    bytes
}

/// A fresh, empty directory for one case.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsim-store-props-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn summaries() -> impl Strategy<Value = Summary> {
    (
        any::<u64>(),
        0.0f64..8.0,
        0.0f64..1.0,
        0.0f64..2000.0,
        prop::collection::vec(any::<u64>(), 2 * MissCategory::COUNT),
    )
        .prop_map(|(instructions, ipc, rate, issued_per_ki, counts)| {
            let mut breakdowns = [CategoryCounts::new(), CategoryCounts::new()];
            for (i, cat) in MissCategory::ALL.iter().enumerate() {
                breakdowns[0][*cat] = counts[i];
                breakdowns[1][*cat] = counts[MissCategory::COUNT + i];
            }
            Summary {
                instructions,
                ipc,
                l1i_mpi: rate,
                l2i_mpi: rate / 2.0,
                l2d_mpi: rate / 3.0,
                l1d_mpi: rate / 4.0,
                accuracy: rate,
                issued_per_ki,
                l1i_breakdown: breakdowns[0],
                l2i_breakdown: breakdowns[1],
            }
        })
}

fn spec() -> RunSpec {
    RunSpec::new(
        SystemConfig::single_core(),
        WorkloadSet::homogeneous(Workload::Db),
        RunLengths {
            warm: 10,
            measure: 20,
        },
    )
}

/// Names of the files in `dir`.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn manifests() -> impl Strategy<Value = FigureManifest> {
    prop::collection::vec((0usize..20, any::<u64>(), any::<u64>(), 0usize..1000), 1..6).prop_map(
        |rows| {
            let mut m = FigureManifest::new();
            for (fig, fingerprint, output_hash, inputs) in rows {
                m.set(
                    &format!("fig{fig:02}"),
                    ManifestEntry {
                        fingerprint: format!("{fingerprint:016x}"),
                        output_hash: format!("{output_hash:016x}"),
                        inputs,
                    },
                );
            }
            m
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_cache_entries_are_misses_and_quarantined_once(
        summary in summaries(),
        damage in damages(),
    ) {
        let dir = fresh_dir("cache");
        let cache = RunCache::at(&dir);
        let spec = spec();
        cache.store(&spec, &summary);
        let key = spec.cache_key();
        let entry = dir.join(format!("{key}.tsv"));
        let damaged = apply(&fs::read(&entry).unwrap(), &damage);
        fs::write(&entry, &damaged).unwrap();

        // The read-only lookup reports nothing and moves nothing.
        prop_assert_eq!(cache.lookup_key(&key), None, "{:?}", damage);
        prop_assert_eq!(fs::read(&entry).unwrap(), damaged.clone());
        prop_assert_eq!(cache.quarantined(), 0);

        // The sweep's lookup misses and moves the evidence aside, once.
        prop_assert_eq!(cache.lookup(&spec), None, "{:?}", damage);
        prop_assert_eq!(cache.quarantined(), 1);
        prop_assert_eq!(listing(&dir), vec![format!("{key}.tsv.corrupt")]);
        prop_assert_eq!(fs::read(dir.join(format!("{key}.tsv.corrupt"))).unwrap(), damaged);
        prop_assert_eq!(cache.lookup(&spec), None);
        prop_assert_eq!(cache.quarantined(), 1);
        prop_assert_eq!((cache.hits(), cache.misses()), (0, 2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_manifests_load_empty_or_round_trip(
        manifest in manifests(),
        damage in damages(),
    ) {
        let dir = fresh_dir("manifest");
        let path = dir.join("manifest.tsv");
        manifest.store(&path).unwrap();
        prop_assert_eq!(FigureManifest::load(&path), manifest.clone());
        fs::write(&path, apply(&fs::read(&path).unwrap(), &damage)).unwrap();

        let loaded = FigureManifest::load(&path);
        if !loaded.is_empty() {
            let again = dir.join("again.tsv");
            loaded.store(&again).unwrap();
            prop_assert_eq!(FigureManifest::load(&again), loaded, "{:?}", damage);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

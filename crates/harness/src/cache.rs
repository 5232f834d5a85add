//! The hardened on-disk run cache.
//!
//! Identical configurations are simulated once and reused across figures
//! and across invocations. Entries live under one directory (default
//! `results/cache/`), one file per [`RunSpec`] cache key:
//!
//! ```text
//! # ipsim-run-cache v1          <- schema header
//! <instructions>\t<ipc>\t...    <- Summary::to_tsv line
//! ```
//!
//! Hardening, in order of the failure it prevents:
//!
//! * **Stable keys** — [`RunSpec::cache_key`] uses hand-rolled FNV-1a, so
//!   keys survive toolchain upgrades (std's `DefaultHasher` does not
//!   promise that).
//! * **Schema header** — a version line distinguishes "older format" from
//!   "truncated garbage" and lets future PRs evolve the summary layout
//!   without silently misparsing old entries.
//! * **Atomic writes** — entries are written to a temp file and renamed
//!   into place, so a killed run can never leave a truncated entry behind.
//! * **Quarantine** — a file that exists but does not parse is renamed to
//!   `<key>.corrupt` (not deleted: it is evidence) and the run is
//!   re-simulated, instead of silently re-parsing or crashing.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::spec::RunSpec;
use crate::summary::Summary;

/// First line of every valid cache entry.
pub const CACHE_SCHEMA: &str = "# ipsim-run-cache v1";

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// Environment variable overriding the cache directory.
pub const CACHE_DIR_ENV: &str = "IPSIM_CACHE_DIR";

/// A run cache rooted at one directory, with hit/miss accounting.
///
/// All methods take `&self`; the counters are atomic, so one `RunCache`
/// can be shared across the worker pool.
#[derive(Debug)]
pub struct RunCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
}

impl RunCache {
    /// A cache rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> RunCache {
        RunCache {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The cache at `$IPSIM_CACHE_DIR`, or [`DEFAULT_CACHE_DIR`] if unset.
    pub fn from_env() -> RunCache {
        match std::env::var_os(CACHE_DIR_ENV) {
            Some(dir) if !dir.is_empty() => RunCache::at(PathBuf::from(dir)),
            _ => RunCache::at(DEFAULT_CACHE_DIR),
        }
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Entry path for a cache key.
    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.tsv"))
    }

    /// Read-only lookup by raw cache key, for reporting tools that walk
    /// the runlog rather than hold `RunSpec`s. Does not touch the hit/miss
    /// counters and never quarantines: a reporter must not mutate the
    /// store it is describing. Corrupt or missing entries are `None`.
    pub fn lookup_key(&self, key: &str) -> Option<Summary> {
        parse_entry(&fs::read(self.entry_path(key)).ok()?)
    }

    /// Whether `spec` has an entry on disk, without reading it or touching
    /// the counters: a cheap forecast of [`RunCache::lookup`] hitting.
    pub fn contains(&self, spec: &RunSpec) -> bool {
        self.entry_path(&spec.cache_key()).is_file()
    }

    /// Looks up `spec`; counts a hit or a miss. Corrupt entries (non-UTF-8
    /// bytes included) are quarantined to `<key>.tsv.corrupt` and reported
    /// as misses.
    pub fn lookup(&self, spec: &RunSpec) -> Option<Summary> {
        let _probe = ipsim_obs::spans().span("cache.probe");
        let path = self.entry_path(&spec.cache_key());
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse_entry(&bytes) {
            Some(summary) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(summary)
            }
            None => {
                self.quarantine(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `summary` for `spec` atomically (temp file + rename).
    ///
    /// Failures are deliberately non-fatal: a read-only or full disk costs
    /// re-simulation next time, not the current results.
    pub fn store(&self, spec: &RunSpec, summary: &Summary) {
        let _insert = ipsim_obs::spans().span("cache.insert");
        let key = spec.cache_key();
        let path = self.entry_path(&key);
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        // Unique per process; two workers never write the same key within
        // one process (the scheduler dedups), so pid suffices.
        let tmp = self.dir.join(format!(".{key}.{}.tmp", std::process::id()));
        let body = format!("{CACHE_SCHEMA}\n{}\n", summary.to_tsv());
        if fs::write(&tmp, body).is_ok() && fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Moves a corrupt entry aside, preserving it for inspection.
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let mut quarantined = path.as_os_str().to_owned();
        quarantined.push(".corrupt");
        if fs::rename(path, PathBuf::from(quarantined)).is_err() {
            // Renaming failed (e.g. read-only dir): last resort, try to
            // remove it so the rewritten entry isn't blocked.
            let _ = fs::remove_file(path);
        }
    }

    /// Cache hits observed through this instance.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses observed through this instance.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Corrupt entries quarantined by this instance.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

/// Parses a full cache file: schema header, then exactly one summary line.
fn parse_entry(bytes: &[u8]) -> Option<Summary> {
    let mut lines = std::str::from_utf8(bytes).ok()?.lines();
    if lines.next()? != CACHE_SCHEMA {
        return None;
    }
    let summary = Summary::from_tsv(lines.next()?)?;
    if lines.next().is_some() {
        return None;
    }
    Some(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunLengths;
    use ipsim_cpu::WorkloadSet;
    use ipsim_trace::Workload;
    use ipsim_types::SystemConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ipsim-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
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

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = tmp_dir("roundtrip");
        let cache = RunCache::at(&dir);
        let spec = spec();
        assert!(cache.lookup(&spec).is_none());
        let summary = Summary::zeroed();
        cache.store(&spec, &summary);
        assert_eq!(cache.lookup(&spec), Some(summary.clone()));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Raw-key lookup sees the same entry without moving a counter.
        assert_eq!(cache.lookup_key(&spec.cache_key()), Some(summary));
        assert!(cache.lookup_key("not-a-key").is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_reused() {
        let dir = tmp_dir("corrupt");
        let cache = RunCache::at(&dir);
        let spec = spec();
        let path = cache.entry_path(&spec.cache_key());

        // Truncated file: header only.
        fs::write(&path, format!("{CACHE_SCHEMA}\n")).unwrap();
        assert!(cache.lookup(&spec).is_none());
        assert!(!path.exists(), "corrupt entry must be moved aside");
        let quarantined: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".corrupt"))
            .collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(cache.quarantined(), 1);

        // Re-storing over a quarantined slot works.
        cache.store(&spec, &Summary::zeroed());
        assert!(cache.lookup(&spec).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_wrong_header_is_rejected() {
        let summary = Summary::zeroed();
        let parse = |text: String| parse_entry(text.as_bytes());
        // Headerless (the pre-harness format).
        assert!(parse(format!("{}\n", summary.to_tsv())).is_none());
        // Future schema.
        assert!(parse(format!("# ipsim-run-cache v99\n{}\n", summary.to_tsv())).is_none());
        // Trailing junk.
        assert!(parse(format!("{CACHE_SCHEMA}\n{}\nextra\n", summary.to_tsv())).is_none());
        // Valid.
        assert_eq!(
            parse(format!("{CACHE_SCHEMA}\n{}\n", summary.to_tsv())),
            Some(summary)
        );
    }

    #[test]
    fn store_leaves_no_temp_files() {
        let dir = tmp_dir("notmp");
        let cache = RunCache::at(&dir);
        cache.store(&spec(), &Summary::zeroed());
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}

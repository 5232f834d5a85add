//! Per-run telemetry artifacts: each executed run writes its collected
//! telemetry next to the run log, keyed by the run-cache hash.
//!
//! One run's artifact is a directory under the telemetry root (default
//! `results/telemetry/`, overridable via [`TELEMETRY_DIR_ENV`]):
//!
//! ```text
//! results/telemetry/<cache_key>/
//!     events.jsonl      lifecycle event trace (schema ipsim-telemetry-v1)
//!     trace.json        Chrome trace_event timeline (chrome://tracing)
//!     series.tsv        interval time series, one row per (core, sample)
//!     pf_summary.tsv    exact per-component event counts, cores summed
//!     zoo.tsv           per-scheme shadow attribution (zoo runs only)
//!     meta.tsv          run identity + artifact inventory — written last
//! ```
//!
//! Hardening mirrors the run cache and trace store: artifacts are staged
//! in a pid-suffixed temp directory and renamed into place, and
//! [`META_FILE`] is written last inside the stage so its presence marks a
//! complete artifact ([`TelemetrySink::has`]). An interrupted run
//! therefore never leaves a plausible-looking artifact, and a re-run
//! regenerates it from scratch.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ipsim_telemetry::sink;
pub use ipsim_telemetry::TelemetryConfig;
use ipsim_telemetry::{ComponentCounters, PfComponent, TelemetryRun, ZooSchemeRow};

use crate::spec::RunSpec;

/// Environment variable overriding the telemetry artifact root.
pub const TELEMETRY_DIR_ENV: &str = "IPSIM_TELEMETRY_DIR";

/// Default telemetry artifact root, relative to the working directory.
pub const DEFAULT_TELEMETRY_DIR: &str = "results/telemetry";

/// The completion marker, written last: an artifact directory without it
/// is incomplete and gets regenerated.
pub const META_FILE: &str = "meta.tsv";

/// Exact per-component event counts, cores summed.
pub const PF_SUMMARY_FILE: &str = "pf_summary.tsv";

/// Per-scheme shadow-attribution artifact, present only for zoo runs.
pub const ZOO_FILE: &str = "zoo.tsv";

/// Writes per-run telemetry artifacts under one root directory.
///
/// All methods take `&self` (the written counter is atomic), so one sink
/// is shared across the worker pool like the run cache and trace store.
#[derive(Debug)]
pub struct TelemetrySink {
    root: PathBuf,
    config: TelemetryConfig,
    written: AtomicU64,
}

impl TelemetrySink {
    /// A sink rooted at `root`, collecting per `config`.
    pub fn at(root: impl Into<PathBuf>, config: TelemetryConfig) -> TelemetrySink {
        TelemetrySink {
            root: root.into(),
            config,
            written: AtomicU64::new(0),
        }
    }

    /// A sink rooted at `$IPSIM_TELEMETRY_DIR`, or [`DEFAULT_TELEMETRY_DIR`]
    /// if unset.
    pub fn from_env(config: TelemetryConfig) -> TelemetrySink {
        match std::env::var_os(TELEMETRY_DIR_ENV) {
            Some(dir) if !dir.is_empty() => TelemetrySink::at(PathBuf::from(dir), config),
            _ => TelemetrySink::at(DEFAULT_TELEMETRY_DIR, config),
        }
    }

    /// The collection config every run should use.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The artifact root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Artifacts written by this instance.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// The artifact directory for a run-cache key.
    pub fn dir_for(&self, key: &str) -> PathBuf {
        self.root.join(key)
    }

    /// Whether a *complete* artifact (meta marker present) exists for a
    /// run-cache key. A run with an artifact on disk may serve its summary
    /// from the run cache; one without must simulate so the artifact can
    /// be written.
    pub fn has(&self, key: &str) -> bool {
        self.dir_for(key).join(META_FILE).is_file()
    }

    /// Writes one run's artifact set atomically: stage into a temp
    /// directory (meta marker last), then rename into place. A concurrent
    /// writer losing the rename race discards its stage — the artifacts
    /// are deterministic, so either copy is correct.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the caller treats a failed artifact as a
    /// warning, never a failed run.
    pub fn write(&self, spec: &RunSpec, run: &TelemetryRun) -> io::Result<PathBuf> {
        let key = spec.cache_key();
        let stage = self.root.join(format!(".{key}.{}.tmp", std::process::id()));
        let _ = fs::remove_dir_all(&stage);
        fs::create_dir_all(&stage)?;
        let result = self.stage_artifacts(&stage, spec, &key, run);
        if result.is_err() {
            let _ = fs::remove_dir_all(&stage);
            result?;
        }
        let dest = self.dir_for(&key);
        let _ = fs::remove_dir_all(&dest);
        if fs::rename(&stage, &dest).is_err() {
            // Lost the race (or the destination reappeared): keep the
            // existing artifact, drop the stage.
            let _ = fs::remove_dir_all(&stage);
        }
        self.written.fetch_add(1, Ordering::Relaxed);
        Ok(dest)
    }

    /// Writes every artifact file into `stage`, the meta marker last.
    fn stage_artifacts(
        &self,
        stage: &Path,
        spec: &RunSpec,
        key: &str,
        run: &TelemetryRun,
    ) -> io::Result<()> {
        let write = |name: &str, body: &dyn Fn(&mut BufWriter<File>) -> io::Result<()>| {
            let mut w = BufWriter::new(File::create(stage.join(name))?);
            body(&mut w)?;
            w.flush()
        };
        write("events.jsonl", &|w| sink::write_events_jsonl(w, run))?;
        write("trace.json", &|w| sink::write_chrome_trace(w, run))?;
        write("series.tsv", &|w| sink::write_series_tsv(w, &run.samples))?;
        write(PF_SUMMARY_FILE, &|w| {
            sink::write_component_summary_tsv(w, run)
        })?;
        if !run.zoo.is_empty() {
            write(ZOO_FILE, &|w| sink::write_zoo_tsv(w, &run.zoo))?;
        }
        write(META_FILE, &|meta| {
            writeln!(meta, "key\t{key}")?;
            writeln!(meta, "label\t{}", spec.label())?;
            writeln!(meta, "schema\t{}", sink::JSONL_SCHEMA)?;
            writeln!(meta, "interval\t{}", run.interval)?;
            writeln!(meta, "cores\t{}", run.cores.len())?;
            writeln!(meta, "events\t{}", run.total_events())?;
            writeln!(meta, "dropped\t{}", run.total_dropped())?;
            writeln!(meta, "samples\t{}", run.samples.len())?;
            if let Some(plan) = spec.scheme.plan() {
                writeln!(meta, "zoo\t{}", plan.canonical())?;
                writeln!(meta, "zoo_rows\t{}", run.zoo.len())?;
            }
            Ok(())
        })
    }
}

/// Reads an artifact's `meta.tsv` into `(field, value)` pairs; `None` if
/// the marker is missing or unreadable.
pub fn read_meta(dir: &Path) -> Option<Vec<(String, String)>> {
    let text = fs::read_to_string(dir.join(META_FILE)).ok()?;
    let mut out = Vec::new();
    for line in text.lines() {
        let (field, value) = line.split_once('\t')?;
        out.push((field.to_string(), value.to_string()));
    }
    Some(out)
}

/// Reads an artifact's [`PF_SUMMARY_FILE`]; an `Err` names the file and
/// whether it is missing or corrupt.
pub fn read_pf_summary(dir: &Path) -> Result<Vec<(PfComponent, ComponentCounters)>, String> {
    read_artifact(
        &dir.join(PF_SUMMARY_FILE),
        sink::parse_component_summary_tsv,
    )
}

/// Reads a zoo run's [`ZOO_FILE`], reporting errors as [`read_pf_summary`].
pub fn read_zoo(dir: &Path) -> Result<Vec<ZooSchemeRow>, String> {
    read_artifact(&dir.join(ZOO_FILE), sink::parse_zoo_tsv)
}

/// Reads and parses one artifact file; the one loader behind every
/// reader above, so every report names a bad artifact the same way.
pub fn read_artifact<T>(path: &Path, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("missing artifact {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("corrupt artifact {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunLengths;
    use ipsim_cpu::WorkloadSet;
    use ipsim_trace::Workload;
    use ipsim_types::SystemConfig;

    fn spec() -> RunSpec {
        RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Db),
            RunLengths {
                warm: 1_000,
                measure: 3_000,
            },
        )
        .prefetcher(ipsim_core::PrefetcherKind::NextLineTagged)
    }

    #[test]
    fn artifacts_are_complete_validated_and_marked() {
        let root =
            std::env::temp_dir().join(format!("ipsim-telemetry-sink-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let sink_ = TelemetrySink::at(
            &root,
            TelemetryConfig {
                interval: 500,
                max_events_per_core: 4_096,
            },
        );
        let spec = spec();
        assert!(!sink_.has(&spec.cache_key()));

        let run = TraceRun::collect(&spec, sink_.config());
        let dir = sink_.write(&spec, &run).unwrap();
        assert!(sink_.has(&spec.cache_key()));
        assert_eq!(sink_.written(), 1);

        // Every artifact passes its own format's validator.
        let events = fs::read_to_string(dir.join("events.jsonl")).unwrap();
        let parsed = sink::parse_events_jsonl(&events).unwrap();
        assert!(parsed.total_events() > 0);
        let chrome = fs::read_to_string(dir.join("trace.json")).unwrap();
        assert!(!sink::validate_chrome_trace(&chrome).unwrap().is_empty());
        let series = fs::read_to_string(dir.join("series.tsv")).unwrap();
        assert!(!sink::parse_series_tsv(&series).unwrap().is_empty());
        assert!(!read_pf_summary(&dir).unwrap().is_empty());

        let meta = read_meta(&dir).unwrap();
        let get = |f: &str| {
            meta.iter()
                .find(|(field, _)| field == f)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("key"), spec.cache_key());
        assert_eq!(get("interval"), "500");
        assert_eq!(get("events"), parsed.total_events().to_string());

        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn zoo_runs_add_a_zoo_artifact() {
        let root = std::env::temp_dir().join(format!("ipsim-zoo-sink-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let sink_ = TelemetrySink::at(
            &root,
            TelemetryConfig {
                interval: 500,
                max_events_per_core: 4_096,
            },
        );
        let plain = spec();
        let zoo_spec = spec().zoo(ipsim_prefetch::ZooPlan::parse("nl+disc").unwrap());

        let plain_dir = sink_
            .write(&plain, &TraceRun::collect(&plain, sink_.config()))
            .unwrap();
        assert!(
            read_zoo(&plain_dir)
                .unwrap_err()
                .starts_with("missing artifact"),
            "non-zoo runs have no zoo artifact"
        );

        let run = TraceRun::collect(&zoo_spec, sink_.config());
        let dir = sink_.write(&zoo_spec, &run).unwrap();
        let rows = read_zoo(&dir).unwrap();
        assert_eq!(rows, run.zoo);
        assert_eq!(rows.len(), 2, "one row per scheme on the single core");
        let meta = read_meta(&dir).unwrap();
        assert!(meta.contains(&("zoo".to_string(), "nl+disc".to_string())));

        let _ = fs::remove_dir_all(&root);
    }

    /// Test-local helper running one spec with telemetry.
    struct TraceRun;
    impl TraceRun {
        fn collect(spec: &RunSpec, config: &TelemetryConfig) -> TelemetryRun {
            let mut system = spec.build_system();
            system.enable_telemetry(config.clone());
            let _ = system.run_workload(&spec.workloads, spec.lengths.warm, spec.lengths.measure);
            system.take_telemetry().unwrap()
        }
    }
}

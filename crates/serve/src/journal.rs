//! The crash-safe, append-only job journal.
//!
//! Every state transition of every job is one JSON line appended to
//! `<dir>/journal.jsonl` and (by default) fsynced before the daemon acks
//! the transition to a client. A `kill -9` at any instant therefore loses
//! at most the line being written — and the recovery scan tolerates a
//! truncated tail, so the surviving prefix fully describes the queue.
//!
//! Events (`v` is the journal schema version, currently 1):
//!
//! ```text
//! {"v":1,"ev":"submit","job":"j-7","jkey":"<16hex>","client":"...","spec":{...}}
//! {"v":1,"ev":"dup","job":"j-7","kind":"inflight"|"cache"}      dedup hit
//! {"v":1,"ev":"start","job":"j-7"}
//! {"v":1,"ev":"done","job":"j-7","results":[{"key":..,"label":..,"ok":..,"tsv":..},..]}
//! {"v":1,"ev":"failed","job":"j-7","error":"..."}
//! ```
//!
//! Recovery replays the journal in order: a `submit` without a terminal
//! `done`/`failed` is re-enqueued (its runs re-execute; completed runs
//! are served instantly by the content-addressed run cache, so recovery
//! never repeats finished work). On startup the journal is *compacted* —
//! rewritten atomically with one `submit`+terminal pair per finished job
//! and the pending submits — so it stays proportional to history that
//! still matters, not to total traffic.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ipsim_harness::wire::JobSpec;
use ipsim_obs::json::{self, Json};

/// Journal schema version.
pub const JOURNAL_VERSION: u32 = 1;

/// Journal file name under the serve directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// One run's recorded outcome inside a terminal `done` event.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Run-cache key.
    pub key: String,
    /// Human-readable spec label.
    pub label: String,
    /// Whether the run produced a summary.
    pub ok: bool,
    /// The summary TSV line (empty when `ok` is false), or the panic
    /// message when the run failed.
    pub tsv: String,
}

impl RunResult {
    fn to_json(&self) -> String {
        format!(
            "{{\"key\":\"{}\",\"label\":\"{}\",\"ok\":{},\"tsv\":\"{}\"}}",
            json::escape(&self.key),
            json::escape(&self.label),
            self.ok,
            json::escape(&self.tsv),
        )
    }

    fn from_json(value: &Json) -> Option<RunResult> {
        Some(RunResult {
            key: value.get("key")?.as_str()?.to_string(),
            label: value.get("label")?.as_str()?.to_string(),
            ok: matches!(value.get("ok")?, Json::Bool(true)),
            tsv: value.get("tsv")?.as_str()?.to_string(),
        })
    }
}

/// One journal event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job was accepted (spec kept verbatim for recovery).
    Submit {
        /// Job id.
        job: String,
        /// Job-level dedup key.
        jkey: String,
        /// Submitting client id.
        client: String,
        /// The wire spec.
        spec: JobSpec,
    },
    /// A duplicate submission coalesced onto `job`.
    Dup {
        /// The existing job the submission coalesced onto.
        job: String,
        /// `"inflight"` (queued/running job) or `"cache"` (all summaries
        /// already on disk).
        kind: String,
    },
    /// A worker began executing the job.
    Start {
        /// Job id.
        job: String,
    },
    /// The job reached its successful terminal state.
    Done {
        /// Job id.
        job: String,
        /// Per-run outcomes, in spec order.
        results: Vec<RunResult>,
    },
    /// The job failed before producing results.
    Failed {
        /// Job id.
        job: String,
        /// The failure reason.
        error: String,
    },
}

impl Event {
    /// The job id this event concerns.
    pub fn job(&self) -> &str {
        match self {
            Event::Submit { job, .. }
            | Event::Dup { job, .. }
            | Event::Start { job }
            | Event::Done { job, .. }
            | Event::Failed { job, .. } => job,
        }
    }

    /// One JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Event::Submit {
                job,
                jkey,
                client,
                spec,
            } => format!(
                "{{\"v\":{JOURNAL_VERSION},\"ev\":\"submit\",\"job\":\"{}\",\"jkey\":\"{}\",\
                 \"client\":\"{}\",\"spec\":{}}}",
                json::escape(job),
                json::escape(jkey),
                json::escape(client),
                spec.to_json(),
            ),
            Event::Dup { job, kind } => format!(
                "{{\"v\":{JOURNAL_VERSION},\"ev\":\"dup\",\"job\":\"{}\",\"kind\":\"{}\"}}",
                json::escape(job),
                json::escape(kind),
            ),
            Event::Start { job } => format!(
                "{{\"v\":{JOURNAL_VERSION},\"ev\":\"start\",\"job\":\"{}\"}}",
                json::escape(job),
            ),
            Event::Done { job, results } => {
                let results: Vec<String> = results.iter().map(RunResult::to_json).collect();
                format!(
                    "{{\"v\":{JOURNAL_VERSION},\"ev\":\"done\",\"job\":\"{}\",\"results\":[{}]}}",
                    json::escape(job),
                    results.join(","),
                )
            }
            Event::Failed { job, error } => format!(
                "{{\"v\":{JOURNAL_VERSION},\"ev\":\"failed\",\"job\":\"{}\",\"error\":\"{}\"}}",
                json::escape(job),
                json::escape(error),
            ),
        }
    }

    /// Parses one journal line. `Err` for structurally invalid JSON or an
    /// unknown event shape (the recovery scan skips and counts these).
    pub fn from_json(line: &str) -> Result<Event, String> {
        let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        match value.get("v").and_then(Json::as_num) {
            Some(v) if v == f64::from(JOURNAL_VERSION) => {}
            _ => return Err("missing or unsupported journal version".to_string()),
        }
        let ev = value
            .get("ev")
            .and_then(Json::as_str)
            .ok_or("missing `ev`")?;
        let job = value
            .get("job")
            .and_then(Json::as_str)
            .ok_or("missing `job`")?
            .to_string();
        match ev {
            "submit" => {
                let jkey = value
                    .get("jkey")
                    .and_then(Json::as_str)
                    .ok_or("submit missing `jkey`")?
                    .to_string();
                let client = value
                    .get("client")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let spec = value.get("spec").ok_or("submit missing `spec`")?;
                let spec = JobSpec::from_json_value(spec)?;
                Ok(Event::Submit {
                    job,
                    jkey,
                    client,
                    spec,
                })
            }
            "dup" => Ok(Event::Dup {
                job,
                kind: value
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("inflight")
                    .to_string(),
            }),
            "start" => Ok(Event::Start { job }),
            "done" => {
                let results = value
                    .get("results")
                    .and_then(Json::as_arr)
                    .ok_or("done missing `results`")?;
                let results = results
                    .iter()
                    .map(|r| RunResult::from_json(r).ok_or_else(|| "malformed result".to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Event::Done { job, results })
            }
            "failed" => Ok(Event::Failed {
                job,
                error: value
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            _ => Err(format!("unknown event `{ev}`")),
        }
    }
}

/// What a recovery scan found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every event in the surviving journal prefix, in order.
    pub events: Vec<Event>,
    /// Lines that failed to parse (at most the torn tail of a crashed
    /// write, unless the file was damaged some other way).
    pub skipped_lines: u64,
}

/// The append-only journal writer.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    /// Whether to fsync after each append (crash-safe acks; on by
    /// default — turn off only for benchmarks).
    sync: bool,
}

impl Journal {
    /// Opens (creating if needed) the journal under `dir`.
    pub fn open(dir: &Path, sync: bool) -> std::io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
            sync,
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event durably: a single `write` of the full line, then
    /// (unless disabled) `fdatasync`. Called before the transition is
    /// acked anywhere else.
    pub fn append(&self, event: &Event) -> std::io::Result<()> {
        let mut line = event.to_json();
        line.push('\n');
        let mut file = self.file.lock().unwrap();
        file.write_all(line.as_bytes())?;
        if self.sync {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Reads and parses the journal at `dir`, tolerating a torn tail.
    /// A missing file is an empty recovery, not an error.
    pub fn recover(dir: &Path) -> Recovery {
        let path = dir.join(JOURNAL_FILE);
        let Ok(text) = fs::read_to_string(&path) else {
            return Recovery::default();
        };
        let mut recovery = Recovery::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match Event::from_json(line) {
                Ok(event) => recovery.events.push(event),
                Err(_) => recovery.skipped_lines += 1,
            }
        }
        recovery
    }

    /// Atomically replaces the journal under `dir` with `events`
    /// (compaction): write to a temp file, fsync, rename over. Call
    /// *before* [`Journal::open`] — compacting under an open writer
    /// would race.
    pub fn rewrite(dir: &Path, events: &[Event]) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let tmp = dir.join(format!(".{JOURNAL_FILE}.{}.tmp", std::process::id()));
        let mut body = String::new();
        for event in events {
            body.push_str(&event.to_json());
            body.push('\n');
        }
        let mut file = File::create(&tmp)?;
        file.write_all(body.as_bytes())?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, &path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsim_harness::wire::WireRun;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipsim-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_spec() -> JobSpec {
        JobSpec::from_json(
            "{\"v\":1,\"runs\":[{\"config\":\"single_core\",\"workload\":\"db\",\
             \"prefetcher\":\"nl_tagged\",\"policy\":\"install_both\",\
             \"warm\":1000,\"measure\":2000}]}",
        )
        .unwrap()
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Submit {
                job: "j-1".into(),
                jkey: "00ff".into(),
                client: "t".into(),
                spec: sample_spec(),
            },
            Event::Dup {
                job: "j-1".into(),
                kind: "inflight".into(),
            },
            Event::Start { job: "j-1".into() },
            Event::Done {
                job: "j-1".into(),
                results: vec![RunResult {
                    key: "k".into(),
                    label: "1c·DB·tagged \"quoted\"".into(),
                    ok: true,
                    tsv: "1\t2\t3".into(),
                }],
            },
            Event::Failed {
                job: "j-2".into(),
                error: "worker panicked:\nline".into(),
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json() {
        for event in sample_events() {
            let line = event.to_json();
            assert_eq!(Event::from_json(&line), Ok(event), "{line}");
        }
    }

    #[test]
    fn append_recover_round_trips_and_tolerates_torn_tail() {
        let dir = tmp_dir("roundtrip");
        let journal = Journal::open(&dir, true).unwrap();
        let events = sample_events();
        for event in &events {
            journal.append(event).unwrap();
        }
        drop(journal);
        // Simulate a kill -9 mid-append: torn, unterminated half line.
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"v\":1,\"ev\":\"submit\",\"jo").unwrap();
        drop(file);

        let recovery = Journal::recover(&dir);
        assert_eq!(recovery.events, events);
        assert_eq!(recovery.skipped_lines, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_compacts_atomically() {
        let dir = tmp_dir("rewrite");
        let journal = Journal::open(&dir, false).unwrap();
        for event in sample_events() {
            journal.append(&event).unwrap();
        }
        drop(journal);
        let kept = vec![Event::Start { job: "j-9".into() }];
        Journal::rewrite(&dir, &kept).unwrap();
        let recovery = Journal::recover(&dir);
        assert_eq!(recovery.events, kept);
        assert_eq!(recovery.skipped_lines, 0);
        // No temp litter.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_recovers_empty() {
        let recovery = Journal::recover(Path::new("/nonexistent/ipsim-journal"));
        assert!(recovery.events.is_empty());
        assert_eq!(recovery.skipped_lines, 0);
    }

    #[test]
    fn wire_run_spec_survives_submit_event() {
        let spec = sample_spec();
        let event = Event::Submit {
            job: "j-1".into(),
            jkey: "k".into(),
            client: String::new(),
            spec: spec.clone(),
        };
        let Event::Submit { spec: back, .. } = Event::from_json(&event.to_json()).unwrap() else {
            panic!("wrong event kind");
        };
        assert_eq!(spec, back);
        let runs: Vec<WireRun> = back.runs;
        assert_eq!(runs[0].workload, "db");
    }
}

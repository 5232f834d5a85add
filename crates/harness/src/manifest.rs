//! The incremental-render manifest: skip figures whose inputs are
//! unchanged.
//!
//! Re-rendering a figure is cheap; re-*simulating* its inputs is not, and
//! a sweep that can prove "this figure's output file is already
//! byte-identical to what a fresh render would produce" can skip both.
//! The proof has two halves, stored per figure in
//! `results/figures/manifest.tsv`:
//!
//! * a **fingerprint** — FNV-1a 64 over the figure's name, its renderer
//!   version ([`crate::figure::Figure::version`], bumped whenever the
//!   output format changes) and the *sorted* cache keys of every run the
//!   figure consumes. Run summaries are immutable under their
//!   content-addressed key, so an unchanged fingerprint means a fresh
//!   render would produce the same bytes;
//! * an **output hash** — FNV-1a 64 over the bytes previously written to
//!   `results/<name>.txt`, re-checked against the file on disk at skip
//!   time, so a deleted or hand-edited output file forces a re-render
//!   instead of being trusted.
//!
//! The manifest is an optimisation, never an authority: a missing,
//! torn or corrupt manifest parses as empty and the sweep falls back to
//! a full render. Writes are atomic (temp file + rename), matching the
//! run cache's crash discipline.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::hash::{fnv1a64, Fnv1a64};

/// First line of a valid manifest file.
pub const MANIFEST_SCHEMA: &str = "# ipsim-figure-manifest v1";

/// Default manifest path, relative to the working directory.
pub const DEFAULT_MANIFEST: &str = "results/figures/manifest.tsv";

/// What the last successful render of one figure looked like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Fingerprint over name, renderer version and sorted input keys.
    pub fingerprint: String,
    /// FNV-1a 64 (hex) of the rendered output bytes.
    pub output_hash: String,
    /// How many input runs fed the render (diagnostics only).
    pub inputs: usize,
}

/// All figures' render records, keyed by figure name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FigureManifest {
    entries: BTreeMap<String, ManifestEntry>,
}

impl FigureManifest {
    /// An empty manifest (every figure renders).
    pub fn new() -> FigureManifest {
        FigureManifest::default()
    }

    /// Loads the manifest at `path`. Any anomaly — missing file, wrong
    /// schema line, malformed row, truncated tail — yields an *empty*
    /// manifest: the worst consequence of distrust is one full render.
    pub fn load(path: &Path) -> FigureManifest {
        let Ok(text) = fs::read_to_string(path) else {
            return FigureManifest::new();
        };
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_SCHEMA) {
            return FigureManifest::new();
        }
        let mut entries = BTreeMap::new();
        for line in lines {
            if line.starts_with('#') {
                continue;
            }
            let mut cols = line.split('\t');
            let (Some(name), Some(fingerprint), Some(output_hash), Some(inputs), None) = (
                cols.next(),
                cols.next(),
                cols.next(),
                cols.next(),
                cols.next(),
            ) else {
                return FigureManifest::new();
            };
            let Ok(inputs) = inputs.parse::<usize>() else {
                return FigureManifest::new();
            };
            if !is_hex16(fingerprint) || !is_hex16(output_hash) || name.is_empty() {
                return FigureManifest::new();
            }
            entries.insert(
                name.to_string(),
                ManifestEntry {
                    fingerprint: fingerprint.to_string(),
                    output_hash: output_hash.to_string(),
                    inputs,
                },
            );
        }
        FigureManifest { entries }
    }

    /// Writes the manifest atomically (temp file + rename).
    pub fn store(&self, path: &Path) -> io::Result<()> {
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        fs::create_dir_all(dir)?;
        let mut out = String::from(MANIFEST_SCHEMA);
        out.push_str("\n# name\tfingerprint\toutput_hash\tinputs\n");
        for (name, e) in &self.entries {
            out.push_str(&format!(
                "{name}\t{}\t{}\t{}\n",
                e.fingerprint, e.output_hash, e.inputs
            ));
        }
        let tmp = dir.join(format!(".manifest.{}.tmp", std::process::id()));
        fs::write(&tmp, out)?;
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(())
    }

    /// Records (or replaces) the entry for `name`.
    pub fn set(&mut self, name: &str, entry: ManifestEntry) {
        self.entries.insert(name.to_string(), entry);
    }

    /// Whether no figure is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The on-disk text of figure `name` when its render can be skipped:
    /// the recorded fingerprint matches `fingerprint` *and* the file at
    /// `output` still hashes to the recorded value. `None` — unknown
    /// figure, stale fingerprint, missing, edited or non-UTF-8 output —
    /// means render.
    pub fn current_output(&self, name: &str, fingerprint: &str, output: &Path) -> Option<String> {
        let entry = self.entries.get(name)?;
        if entry.fingerprint != fingerprint {
            return None;
        }
        let bytes = fs::read(output).ok()?;
        if hash_hex(&bytes) != entry.output_hash {
            return None;
        }
        String::from_utf8(bytes).ok()
    }
}

/// The render fingerprint of a figure: its name, renderer version and the
/// *sorted, deduplicated* cache keys of every input run. Sorting makes the
/// fingerprint independent of enumeration order; dedup makes it
/// independent of how many times a renderer re-reads the same run.
pub fn fingerprint(name: &str, version: u32, input_keys: &[String]) -> String {
    let mut keys: Vec<&str> = input_keys.iter().map(String::as_str).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut h = Fnv1a64::new();
    h.write(b"figmf-v1|");
    h.write(name.as_bytes());
    h.write(format!("|r{version}").as_bytes());
    for key in keys {
        h.write(b"|");
        h.write(key.as_bytes());
    }
    format!("{:016x}", h.finish())
}

/// FNV-1a 64 of `bytes` as the 16-hex-digit form the manifest stores.
pub fn hash_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

fn is_hex16(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipsim-manifest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(fp: &str, oh: &str) -> ManifestEntry {
        ManifestEntry {
            fingerprint: fp.into(),
            output_hash: oh.into(),
            inputs: 3,
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp("roundtrip");
        let path = dir.join("manifest.tsv");
        let mut m = FigureManifest::new();
        m.set("fig01", entry("00000000000000aa", "00000000000000bb"));
        m.set("fig02", entry("00000000000000cc", "00000000000000dd"));
        m.store(&path).unwrap();
        let loaded = FigureManifest::load(&path);
        assert_eq!(loaded, m);
        // No temp files left behind.
        let tmps: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(tmps.is_empty(), "{tmps:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_torn_manifests_parse_as_empty() {
        let dir = tmp("corrupt");
        let path = dir.join("manifest.tsv");
        for bad in [
            "",                                                     // empty file
            "not a manifest\n",                                     // wrong header
            "# ipsim-figure-manifest v99\nfig01\taa\tbb\t1\n",      // future schema
            &format!("{MANIFEST_SCHEMA}\nfig01\tzz\n"),             // short row
            &format!("{MANIFEST_SCHEMA}\nfig01\tzz\tbb\t1\n"),      // non-hex hash
            &format!("{MANIFEST_SCHEMA}\nfig01\t00000000000000aa"), // torn tail
        ] {
            fs::write(&path, bad).unwrap();
            assert!(
                FigureManifest::load(&path).is_empty(),
                "must fall back to full render for {bad:?}"
            );
        }
        assert!(FigureManifest::load(&dir.join("missing.tsv")).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_knob_sensitive() {
        let keys_ab = vec!["aaaa".to_string(), "bbbb".to_string()];
        let keys_ba = vec!["bbbb".to_string(), "aaaa".to_string()];
        let keys_dup = vec!["aaaa".to_string(), "bbbb".to_string(), "aaaa".to_string()];
        let fp = fingerprint("fig01", 1, &keys_ab);
        assert_eq!(fp, fingerprint("fig01", 1, &keys_ba));
        assert_eq!(fp, fingerprint("fig01", 1, &keys_dup));
        // Any input-key change, name change or renderer bump invalidates.
        assert_ne!(fp, fingerprint("fig01", 1, &["aaaa".to_string()]));
        assert_ne!(fp, fingerprint("fig02", 1, &keys_ab));
        assert_ne!(fp, fingerprint("fig01", 2, &keys_ab));
    }

    #[test]
    fn skip_requires_matching_fingerprint_and_intact_output() {
        let dir = tmp("skip");
        let out = dir.join("fig01.txt");
        fs::write(&out, "rendered\n").unwrap();
        let fp = fingerprint("fig01", 1, &["aaaa".to_string()]);
        let mut m = FigureManifest::new();
        m.set(
            "fig01",
            ManifestEntry {
                fingerprint: fp.clone(),
                output_hash: hash_hex(b"rendered\n"),
                inputs: 1,
            },
        );
        let current = |m: &FigureManifest, name: &str, fp: &str| m.current_output(name, fp, &out);
        assert_eq!(current(&m, "fig01", &fp).as_deref(), Some("rendered\n"));
        // Unknown figure, stale fingerprint, edited output, missing output.
        assert_eq!(current(&m, "fig02", &fp), None);
        assert_eq!(current(&m, "fig01", "0000000000000000"), None);
        fs::write(&out, "tampered\n").unwrap();
        assert_eq!(current(&m, "fig01", &fp), None);
        fs::remove_file(&out).unwrap();
        assert_eq!(current(&m, "fig01", &fp), None);
        // Output that hashes to the record but is not UTF-8.
        let raw = [b'o', b'k', 0xFF, b'\n'];
        fs::write(&out, raw).unwrap();
        m.set(
            "fig01",
            ManifestEntry {
                fingerprint: fp.clone(),
                output_hash: hash_hex(&raw),
                inputs: 1,
            },
        );
        assert_eq!(current(&m, "fig01", &fp), None);
        let _ = fs::remove_dir_all(&dir);
    }
}

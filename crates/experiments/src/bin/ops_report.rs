//! `ops_report`: one operational table from the observability artifacts.
//!
//! Joins a Prometheus text snapshot (a saved `GET /v1/metrics` scrape)
//! and/or a Chrome-trace span file (`spans.trace.json`, written by the
//! daemon on drain) into aligned tables: counters and gauges by family,
//! histogram percentiles per label-set, and per-span-name wall-time
//! totals. `--require` turns it into smoke-test teeth: the report fails
//! unless every named metric family is present in the snapshot.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

use ipsim_experiments::table_string;
use ipsim_obs::json::Json;
use ipsim_obs::{histogram_percentile, parse_text, Exposition};

const USAGE: &str = "\
usage: ops_report [options]

  --metrics FILE    Prometheus text snapshot (e.g. a saved /v1/metrics scrape)
  --spans FILE      Chrome-trace span file (e.g. results/serve/spans.trace.json)
  --require NAMES   comma-separated metric families that must be present;
                    missing families fail the report (exit 1)
  --help            this text

At least one of --metrics / --spans is required.
";

fn main() {
    let mut metrics: Option<PathBuf> = None;
    let mut spans: Option<PathBuf> = None;
    let mut require: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value\n\n{USAGE}");
                exit(2);
            })
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--metrics" => metrics = Some(value("--metrics").into()),
            "--spans" => spans = Some(value("--spans").into()),
            "--require" => require.extend(
                value("--require")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string),
            ),
            _ => {
                eprintln!("unknown argument `{arg}`\n\n{USAGE}");
                exit(2);
            }
        }
    }
    if metrics.is_none() && spans.is_none() {
        eprintln!("nothing to report: pass --metrics and/or --spans\n\n{USAGE}");
        exit(2);
    }
    if metrics.is_none() && !require.is_empty() {
        eprintln!("--require needs --metrics\n\n{USAGE}");
        exit(2);
    }

    let mut failed = false;
    if let Some(path) = &metrics {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("ops_report: cannot read {}: {e}", path.display());
            exit(1);
        });
        match parse_text(&text) {
            Ok(exposition) => {
                print!("{}", metrics_tables(&exposition));
                for name in &require {
                    if exposition.family(name).is_none() {
                        eprintln!("ops_report: required family `{name}` is missing");
                        failed = true;
                    }
                }
            }
            Err(e) => {
                eprintln!(
                    "ops_report: {} is not valid exposition: {e}",
                    path.display()
                );
                failed = true;
            }
        }
    }
    if let Some(path) = &spans {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("ops_report: cannot read {}: {e}", path.display());
            exit(1);
        });
        match span_table(&text) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("ops_report: {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
}

/// Renders the counter/gauge table and the histogram percentile table.
fn metrics_tables(exposition: &Exposition) -> String {
    let mut out = String::new();
    let mut scalars: Vec<Vec<String>> = Vec::new();
    let mut histograms: Vec<Vec<String>> = Vec::new();
    for family in &exposition.families {
        match family.kind.as_str() {
            "counter" | "gauge" => {
                for sample in &family.samples {
                    scalars.push(vec![
                        family.name.clone(),
                        family.kind.clone(),
                        label_string(&sample.labels),
                        trim_float(sample.value),
                    ]);
                }
            }
            "histogram" => {
                // One percentile row per distinct label-set (minus `le`).
                let mut label_sets: Vec<Vec<(String, String)>> = Vec::new();
                for sample in &family.samples {
                    let mut labels: Vec<(String, String)> = sample
                        .labels
                        .iter()
                        .filter(|(k, _)| k != "le")
                        .cloned()
                        .collect();
                    labels.sort();
                    if !label_sets.contains(&labels) {
                        label_sets.push(labels);
                    }
                }
                for labels in label_sets {
                    let want: Vec<(&str, &str)> = labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    let buckets = exposition.histogram_buckets(&family.name, &want);
                    let count = buckets.last().map_or(0.0, |&(_, n)| n);
                    let p = |p: f64| trim_float(histogram_percentile(&buckets, p));
                    histograms.push(vec![
                        family.name.clone(),
                        label_string(&labels),
                        trim_float(count),
                        p(50.0),
                        p(90.0),
                        p(99.0),
                    ]);
                }
            }
            _ => {}
        }
    }
    if !scalars.is_empty() {
        out.push_str("== counters and gauges ==\n");
        out.push_str(&table_string(
            &["family", "kind", "labels", "value"],
            &scalars,
        ));
    }
    if !histograms.is_empty() {
        out.push_str("\n== histograms ==\n");
        out.push_str(&table_string(
            &["family", "labels", "count", "p50", "p90", "p99"],
            &histograms,
        ));
    }
    out
}

/// Folds a Chrome-trace span file into per-name totals: spans, total and
/// maximum wall micros, over the events the shared validator returns.
fn span_table(text: &str) -> Result<String, String> {
    let events = ipsim_obs::chrome::validate(text)?;
    // name -> (spans, total duration micros, max duration micros)
    let mut by_name: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for event in &events {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let dur = event.get("dur").and_then(Json::as_num).unwrap_or(0.0) as u64;
        let entry = by_name.entry(name).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += dur;
        entry.2 = entry.2.max(dur);
    }
    let rows: Vec<Vec<String>> = by_name
        .iter()
        .map(|(name, (n, total, max))| {
            vec![
                name.clone(),
                n.to_string(),
                total.to_string(),
                (total / (*n).max(1)).to_string(),
                max.to_string(),
            ]
        })
        .collect();
    let mut out = String::from("\n== spans ==\n");
    if rows.is_empty() {
        out.push_str("(no complete spans in the trace)\n");
    } else {
        out.push_str(&table_string(
            &["span", "count", "total_us", "mean_us", "max_us"],
            &rows,
        ));
    }
    Ok(out)
}

fn label_string(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return "-".to_string();
    }
    labels
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Integer-valued floats print without the trailing `.0` the exposition
/// format writes.
fn trim_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

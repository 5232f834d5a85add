//! Prometheus text exposition: rendering and a strict parser.
//!
//! The render side turns registry families into the classic text format
//! (`# TYPE` line, then one sample per label-set; histograms as
//! cumulative `_bucket{le=…}` + `_sum` + `_count`). The parse side is
//! the same contract read back: `report ops`, `serve_load` and the
//! `metrics-smoke` CI job all validate a scrape with [`parse_text`]
//! instead of eyeballing it, mirroring how every ipsim-telemetry writer
//! has a matching validator.
//!
//! Histogram `le` bounds are the registry buckets' *inclusive* upper
//! bounds, which is exactly Prometheus's `le` (≤) semantics. Only
//! non-empty buckets are emitted (plus `+Inf`), keeping a scrape of a
//! 252-bucket histogram small.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::registry::{Counter, Gauge, Key};

/// Sorted label pairs identifying one histogram series (minus `le`).
type LabelSet = Vec<(String, String)>;
/// `(le, cumulative_count)` buckets grouped per series.
type BucketGroups = BTreeMap<LabelSet, Vec<(f64, f64)>>;

fn render_labels(out: &mut String, labels: &[(String, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
}

/// Escapes a label value per the exposition format: `\\`, `\"`, `\n`.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders labels with an extra `le` pair appended (histogram buckets).
fn render_bucket_labels(out: &mut String, labels: &[(String, String)], le: &str) {
    out.push('{');
    for (k, v) in labels {
        let _ = write!(out, "{k}=\"{}\",", escape_label(v));
    }
    let _ = write!(out, "le=\"{le}\"");
    out.push('}');
}

fn type_line(out: &mut String, name: &str, kind: &str, last: &mut String) {
    if name != last {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        last.clear();
        last.push_str(name);
    }
}

pub(crate) fn render_counters(out: &mut String, counters: &BTreeMap<Key, Counter>) {
    let mut last = String::new();
    for ((name, labels), c) in counters {
        type_line(out, name, "counter", &mut last);
        out.push_str(name);
        render_labels(out, labels);
        let _ = writeln!(out, " {}", c.get());
    }
}

pub(crate) fn render_gauges(out: &mut String, gauges: &BTreeMap<Key, Gauge>) {
    let mut last = String::new();
    for ((name, labels), g) in gauges {
        type_line(out, name, "gauge", &mut last);
        out.push_str(name);
        render_labels(out, labels);
        let _ = writeln!(out, " {}", g.get());
    }
}

pub(crate) fn render_histograms(out: &mut String, histograms: &BTreeMap<Key, Histogram>) {
    let mut last = String::new();
    for ((name, labels), h) in histograms {
        type_line(out, name, "histogram", &mut last);
        let snap = h.snapshot();
        let mut cum = 0u64;
        for (upper, n) in snap.nonzero() {
            cum += n;
            let _ = write!(out, "{name}_bucket");
            render_bucket_labels(out, labels, &upper.to_string());
            let _ = writeln!(out, " {cum}");
        }
        let _ = write!(out, "{name}_bucket");
        render_bucket_labels(out, labels, "+Inf");
        let _ = writeln!(out, " {}", snap.count);
        out.push_str(name);
        out.push_str("_sum");
        render_labels(out, labels);
        let _ = writeln!(out, " {}", snap.sum);
        out.push_str(name);
        out.push_str("_count");
        render_labels(out, labels);
        let _ = writeln!(out, " {}", snap.count);
    }
}

/// One sample line: metric name, label pairs, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name (for histograms this includes the `_bucket` /
    /// `_sum` / `_count` suffix).
    pub name: String,
    /// Label pairs in file order.
    pub labels: Vec<(String, String)>,
    /// Parsed value (`+Inf`, `-Inf` and `NaN` are accepted).
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether every pair in `want` appears in this sample's labels.
    pub fn has_labels(&self, want: &[(&str, &str)]) -> bool {
        want.iter().all(|(k, v)| self.label(k) == Some(*v))
    }
}

/// A metric family: the `# TYPE` declaration plus its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Family name as declared.
    pub name: String,
    /// Declared type: `counter`, `gauge`, `histogram`, `summary` or
    /// `untyped`.
    pub kind: String,
    /// Samples belonging to this family, in file order.
    pub samples: Vec<Sample>,
}

/// A parsed exposition page.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// Families in declaration order.
    pub families: Vec<Family>,
}

impl Exposition {
    /// Looks up a family by declared name.
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Merged cumulative buckets of histogram family `name`, restricted
    /// to samples carrying every label pair in `want`. Label-sets with
    /// different bucket boundaries are merged by de-cumulating,
    /// combining per-bound, and re-cumulating. Returns ascending
    /// `(le, cumulative_count)` ending with the `+Inf` bound, or an
    /// empty vec if the family is missing or has no buckets.
    pub fn histogram_buckets(&self, name: &str, want: &[(&str, &str)]) -> Vec<(f64, f64)> {
        let Some(fam) = self.family(name) else {
            return Vec::new();
        };
        let bucket_name = format!("{name}_bucket");
        // Group by the full label-set minus `le`, then de-cumulate each
        // group independently.
        let mut groups: BucketGroups = BTreeMap::new();
        for s in &fam.samples {
            if s.name != bucket_name || !s.has_labels(want) {
                continue;
            }
            let Some(le) = s.label("le").and_then(parse_value) else {
                continue;
            };
            let mut base: LabelSet = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            base.sort();
            groups.entry(base).or_default().push((le, s.value));
        }
        let mut deltas: Vec<(f64, f64)> = Vec::new();
        for (_, mut buckets) in groups {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut prev = 0.0;
            for (le, cum) in buckets {
                deltas.push((le, cum - prev));
                prev = cum;
            }
        }
        // Ascending by bound, negative bounds included (raw bit patterns
        // would sort them after `+Inf`); equal bounds merge.
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(deltas.len());
        let mut cum = 0.0;
        for (le, d) in deltas {
            cum += d;
            match out.last_mut() {
                Some(last) if last.0.total_cmp(&le).is_eq() => last.1 = cum,
                _ => out.push((le, cum)),
            }
        }
        out
    }
}

/// Nearest-rank percentile over cumulative `(le, count)` buckets as
/// returned by [`Exposition::histogram_buckets`]: the `le` bound of the
/// bucket holding the rank-th observation. Returns 0 for an empty set.
/// Never panics: a fractional or non-finite total still yields a bound.
pub fn histogram_percentile(buckets: &[(f64, f64)], p: f64) -> f64 {
    let Some(&(_, total)) = buckets.last() else {
        return 0.0;
    };
    if total <= 0.0 {
        return 0.0;
    }
    // `max`/`min` rather than `clamp`: a total below 1 or a NaN would make
    // clamp's range empty and panic.
    let rank = ((p / 100.0) * total).ceil().max(1.0).min(total);
    for &(le, cum) in buckets {
        if cum >= rank {
            return le;
        }
    }
    buckets.last().map_or(0.0, |&(le, _)| le)
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

/// Parses one sample line (`name` or `name{labels} value`).
fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}: {line:?}");
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| err("unclosed label braces"))?;
            if close < brace {
                return Err(err("unclosed label braces"));
            }
            (
                &line[..brace],
                Some((&line[brace + 1..close], &line[close + 1..])),
            )
        }
        None => {
            let sp = line.find(' ').ok_or_else(|| err("missing value"))?;
            (&line[..sp], None::<(&str, &str)>)
        }
    };
    if !valid_metric_name(name_part) {
        return Err(err("invalid metric name"));
    }
    let (labels, value_part) = match rest {
        Some((label_text, tail)) => (parse_labels(label_text, lineno, line)?, tail),
        None => (Vec::new(), &line[name_part.len()..]),
    };
    let value_text = value_part.trim();
    // Ignore an optional trailing timestamp (we never emit one, but the
    // format allows it).
    let value_text = value_text.split_whitespace().next().unwrap_or("");
    let value = parse_value(value_text).ok_or_else(|| err("bad sample value"))?;
    Ok(Sample {
        name: name_part.to_string(),
        labels,
        value,
    })
}

fn parse_labels(text: &str, lineno: usize, line: &str) -> Result<Vec<(String, String)>, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}: {line:?}");
    let mut labels = Vec::new();
    let mut chars = text.chars().peekable();
    loop {
        // Skip separators / trailing comma.
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut name = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            name.push(c);
        }
        if !valid_label_name(&name) {
            return Err(err("invalid label name"));
        }
        if chars.next() != Some('"') {
            return Err(err("label value not quoted"));
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err(err("bad escape in label value")),
                },
                '"' => {
                    closed = true;
                    break;
                }
                c => value.push(c),
            }
        }
        if !closed {
            return Err(err("unterminated label value"));
        }
        labels.push((name, value));
    }
    Ok(labels)
}

/// Parses a text exposition page, validating syntax and histogram
/// structure: sample names and label names match the format's charset,
/// every `histogram` family has a `+Inf` bucket per label-set with
/// `_count` equal to it, and cumulative bucket counts never decrease.
///
/// # Errors
///
/// Returns a message naming the offending line or family.
pub fn parse_text(text: &str) -> Result<Exposition, String> {
    let mut exposition = Exposition::default();
    let mut current: Option<Family> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            // HELP and free-form comments are legal and ignored.
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or(format!("line {lineno}: TYPE without a name"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: invalid family name {name:?}"));
                }
                let kind = parts
                    .next()
                    .ok_or(format!("line {lineno}: TYPE without a type"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown type {kind:?}"));
                }
                if let Some(done) = current.take() {
                    exposition.families.push(done);
                }
                current = Some(Family {
                    name: name.to_string(),
                    kind: kind.to_string(),
                    samples: Vec::new(),
                });
            }
            continue;
        }
        let sample = parse_sample(line, lineno)?;
        let belongs = current.as_ref().is_some_and(|f| {
            sample.name == f.name
                || (f.kind == "histogram"
                    && [("_bucket"), ("_sum"), ("_count")]
                        .iter()
                        .any(|sfx| sample.name == format!("{}{sfx}", f.name)))
        });
        if belongs {
            current.as_mut().unwrap().samples.push(sample);
        } else {
            // A sample without a preceding TYPE is legal (untyped).
            if let Some(done) = current.take() {
                exposition.families.push(done);
            }
            current = Some(Family {
                name: sample.name.clone(),
                kind: "untyped".to_string(),
                samples: vec![sample],
            });
        }
    }
    if let Some(done) = current.take() {
        exposition.families.push(done);
    }
    for family in &exposition.families {
        if family.kind == "histogram" {
            validate_histogram(family)?;
        }
    }
    Ok(exposition)
}

/// Checks one histogram family's structural invariants.
fn validate_histogram(family: &Family) -> Result<(), String> {
    let bucket_name = format!("{}_bucket", family.name);
    let count_name = format!("{}_count", family.name);
    let mut groups: BucketGroups = BTreeMap::new();
    let mut counts: BTreeMap<LabelSet, f64> = BTreeMap::new();
    for s in &family.samples {
        if s.name == bucket_name {
            let le = s
                .label("le")
                .and_then(parse_value)
                .ok_or(format!("{}: bucket without numeric le", family.name))?;
            check_count(family, s.value)?;
            let mut base: LabelSet = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            base.sort();
            groups.entry(base).or_default().push((le, s.value));
        } else if s.name == count_name {
            check_count(family, s.value)?;
            let mut base = s.labels.clone();
            base.sort();
            counts.insert(base, s.value);
        }
    }
    for (base, mut buckets) in groups {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let Some(&(last_le, last_cum)) = buckets.last() else {
            continue;
        };
        if last_le != f64::INFINITY {
            return Err(format!("{}: missing +Inf bucket", family.name));
        }
        let mut prev = 0.0;
        for &(le, cum) in &buckets {
            if cum < prev {
                return Err(format!(
                    "{}: bucket le={le} count decreases ({cum} < {prev})",
                    family.name
                ));
            }
            prev = cum;
        }
        if let Some(&count) = counts.get(&base) {
            if count != last_cum {
                return Err(format!(
                    "{}: _count {count} != +Inf bucket {last_cum}",
                    family.name
                ));
            }
        }
    }
    Ok(())
}

/// A bucket or `_count` value is a number of observations: NaN or a
/// negative count is a damaged page, not data.
fn check_count(family: &Family, value: f64) -> Result<(), String> {
    if value.is_nan() || value < 0.0 {
        return Err(format!(
            "{}: invalid observation count {value}",
            family.name
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("ipsim_serve_requests_total", &[("endpoint", "jobs")])
            .add(7);
        r.counter("ipsim_serve_requests_total", &[("endpoint", "stats")])
            .add(2);
        r.gauge("ipsim_serve_queue_depth", &[]).set(3);
        let h = r.histogram("ipsim_serve_request_micros", &[("endpoint", "jobs")]);
        for v in [5, 5, 90, 1_700] {
            h.observe(v);
        }
        r
    }

    #[test]
    fn render_round_trips_through_parse() {
        let page = sample_registry().render_prometheus();
        let exp = parse_text(&page).expect("valid exposition");
        let requests = exp.family("ipsim_serve_requests_total").unwrap();
        assert_eq!(requests.kind, "counter");
        assert_eq!(requests.samples.len(), 2);
        assert_eq!(requests.samples[0].value, 7.0);
        assert_eq!(requests.samples[0].label("endpoint"), Some("jobs"));
        let depth = exp.family("ipsim_serve_queue_depth").unwrap();
        assert_eq!(depth.kind, "gauge");
        assert_eq!(depth.samples[0].value, 3.0);
        let hist = exp.family("ipsim_serve_request_micros").unwrap();
        assert_eq!(hist.kind, "histogram");
        let buckets = exp.histogram_buckets("ipsim_serve_request_micros", &[]);
        assert_eq!(buckets.last().unwrap().1, 4.0);
        assert_eq!(buckets.last().unwrap().0, f64::INFINITY);
    }

    #[test]
    fn percentiles_from_scraped_buckets_match_the_histogram() {
        let r = sample_registry();
        let h = r.histogram("ipsim_serve_request_micros", &[("endpoint", "jobs")]);
        let exp = parse_text(&r.render_prometheus()).unwrap();
        let buckets = exp.histogram_buckets("ipsim_serve_request_micros", &[]);
        for p in [50.0, 90.0, 99.0] {
            assert_eq!(histogram_percentile(&buckets, p), h.percentile(p) as f64);
        }
    }

    #[test]
    fn merging_label_sets_decumulates_first() {
        let r = Registry::new();
        r.histogram("ipsim_m", &[("e", "a")]).observe(1);
        r.histogram("ipsim_m", &[("e", "a")]).observe(100);
        r.histogram("ipsim_m", &[("e", "b")]).observe(1);
        let exp = parse_text(&r.render_prometheus()).unwrap();
        let merged = exp.histogram_buckets("ipsim_m", &[]);
        assert_eq!(merged.last().unwrap().1, 3.0);
        let only_b = exp.histogram_buckets("ipsim_m", &[("e", "b")]);
        assert_eq!(only_b.last().unwrap().1, 1.0);
    }

    #[test]
    fn parser_rejects_malformed_pages() {
        assert!(parse_text("1bad_name 5\n").is_err());
        assert!(parse_text("name{le=\"x\" 5\n").is_err(), "unclosed braces");
        assert!(parse_text("name not_a_number\n").is_err());
        assert!(parse_text("# TYPE m wat\nm 1\n").is_err());
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_count 1\nh_sum 3\n";
        assert!(parse_text(no_inf).unwrap_err().contains("+Inf"));
        let shrinking = "# TYPE h histogram\nh_bucket{le=\"5\"} 2\nh_bucket{le=\"+Inf\"} 1\n";
        assert!(parse_text(shrinking).unwrap_err().contains("decreases"));
        let mismatch = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 1\n";
        assert!(parse_text(mismatch).unwrap_err().contains("_count"));
        for count in ["NaN", "-1", "-Inf"] {
            let bucket = format!("# TYPE h histogram\nh_bucket{{le=\"+Inf\"}} {count}\n");
            assert!(
                parse_text(&bucket).unwrap_err().contains("count"),
                "{count}"
            );
            let total = format!("# TYPE h histogram\nh_bucket{{le=\"+Inf\"}} 0\nh_count {count}\n");
            assert!(parse_text(&total).unwrap_err().contains("count"), "{count}");
        }
    }

    #[test]
    fn label_escapes_round_trip() {
        let r = Registry::new();
        r.counter("ipsim_esc_total", &[("path", "a\\b\"c\nd")])
            .inc();
        let exp = parse_text(&r.render_prometheus()).unwrap();
        let s = &exp.family("ipsim_esc_total").unwrap().samples[0];
        assert_eq!(s.label("path"), Some("a\\b\"c\nd"));
    }

    #[test]
    fn negative_bounds_merge_in_numeric_order() {
        let page = "# TYPE h histogram\nh_bucket{e=\"a\",le=\"-2\"} 1\n\
                    h_bucket{e=\"a\",le=\"+Inf\"} 2\nh_bucket{e=\"b\",le=\"-2\"} 1\n\
                    h_bucket{e=\"b\",le=\"3\"} 1\nh_bucket{e=\"b\",le=\"+Inf\"} 1\n";
        let exp = parse_text(page).unwrap();
        let merged = exp.histogram_buckets("h", &[]);
        assert_eq!(merged, vec![(-2.0, 2.0), (3.0, 2.0), (f64::INFINITY, 3.0)]);
        assert_eq!(histogram_percentile(&merged, 50.0), -2.0);
    }

    #[test]
    fn percentile_survives_fractional_and_non_finite_totals() {
        let inf = f64::INFINITY;
        assert_eq!(histogram_percentile(&[(inf, 0.5)], 50.0), inf);
        assert_eq!(histogram_percentile(&[(1.0, 0.25), (inf, 0.5)], 0.0), inf);
        assert_eq!(histogram_percentile(&[(inf, f64::NAN)], 99.0), inf);
        assert_eq!(histogram_percentile(&[(2.0, inf), (inf, inf)], 50.0), 2.0);
    }

    #[test]
    fn empty_page_parses_to_nothing() {
        let exp = parse_text("").unwrap();
        assert!(exp.families.is_empty());
        assert_eq!(histogram_percentile(&[], 50.0), 0.0);
    }
}

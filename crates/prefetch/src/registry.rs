//! The string-keyed scheme registry: every prefetcher in the zoo is
//! constructed from a `name[:knob=value,…]` spec, validated against the
//! scheme's declared knobs, and carries a canonical string form that is
//! stable enough to live in run cache keys.

use std::fmt;

use ipsim_core::{PrefetchEngine, PrefetcherKind};

use crate::rivals::{ManaPrefetcher, ProgramMapPrefetcher, StreamPrefetcher};
use crate::zoo::{Zoo, MAX_SCHEMES};

/// One integer knob a scheme accepts.
#[derive(Debug, Clone, Copy)]
pub struct KnobDef {
    /// Knob name as written in specs.
    pub name: &'static str,
    /// Value used when the spec does not set the knob.
    pub default: u64,
    /// Smallest accepted value.
    pub min: u64,
    /// Largest accepted value.
    pub max: u64,
    /// The value must additionally be a power of two.
    pub pow2: bool,
    /// One-line description for docs and error messages.
    pub doc: &'static str,
}

/// A registered scheme: name, documentation, knobs, constructor.
pub struct SchemeDef {
    /// Registry key as written in specs (e.g. `"disc"`).
    pub name: &'static str,
    /// One-line description for the README zoo table.
    pub doc: &'static str,
    /// Accepted knobs; anything else in a spec is rejected.
    pub knobs: &'static [KnobDef],
    make: Make,
}

/// How a scheme's resolved knobs become an engine.
enum Make {
    /// A paper mechanism: the knobs pick a [`PrefetcherKind`], which
    /// builds the engine.
    Kind(fn(&ResolvedKnobs) -> PrefetcherKind),
    /// A rival scheme, built directly.
    Engine(fn(&ResolvedKnobs) -> Box<dyn PrefetchEngine>),
}

impl KnobDef {
    /// Checks `value` against the knob's range and power-of-two rule;
    /// on failure returns what the knob accepts.
    pub fn check(&self, value: u64) -> Result<(), String> {
        if value < self.min || value > self.max {
            return Err(format!("{}..={}", self.min, self.max));
        }
        if self.pow2 && !value.is_power_of_two() {
            return Err("a power of two".to_string());
        }
        Ok(())
    }
}

impl SchemeDef {
    /// The declared knob called `name`.
    pub fn knob(&self, name: &str) -> Option<&'static KnobDef> {
        self.knobs.iter().find(|kd| kd.name == name)
    }
}

/// A spec's knobs after validation: every declared knob present, either
/// explicitly set or at its default.
#[derive(Debug, Clone)]
pub struct ResolvedKnobs {
    vals: Vec<(&'static str, u64)>,
}

impl ResolvedKnobs {
    /// The value of a declared knob.
    ///
    /// # Panics
    ///
    /// Panics on a knob name the scheme never declared — a registry bug,
    /// not an input error (specs are validated before resolution).
    pub fn get(&self, name: &str) -> u64 {
        self.vals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("scheme constructor read undeclared knob {name:?}"))
    }
}

/// Why a prefetcher spec was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The scheme name is not in the registry.
    UnknownScheme(String),
    /// The scheme does not declare this knob.
    UnknownKnob {
        /// Scheme being configured.
        scheme: String,
        /// Offending knob name.
        knob: String,
    },
    /// A knob value failed range / power-of-two validation.
    BadKnobValue {
        /// Scheme being configured.
        scheme: String,
        /// Offending knob name.
        knob: String,
        /// The rejected value as written.
        value: String,
        /// What the knob accepts.
        expected: String,
    },
    /// The spec string is not `name[:knob=value,…]`.
    BadSyntax(String),
    /// A zoo spec listed no schemes or more than [`MAX_SCHEMES`].
    BadZooSize(usize),
    /// A rival scheme was named as a single scheme; it has no
    /// [`PrefetcherKind`] and runs only in a zoo.
    ZooOnly(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownScheme(name) => {
                write!(f, "unknown prefetcher scheme {name:?} (see registry())")
            }
            SpecError::UnknownKnob { scheme, knob } => {
                write!(f, "scheme {scheme:?} has no knob {knob:?}")
            }
            SpecError::BadKnobValue {
                scheme,
                knob,
                value,
                expected,
            } => write!(
                f,
                "bad value {value:?} for {scheme}:{knob} (expected {expected})"
            ),
            SpecError::BadSyntax(spec) => {
                write!(
                    f,
                    "bad prefetcher spec {spec:?} (want name[:knob=value,...])"
                )
            }
            SpecError::BadZooSize(n) => {
                write!(f, "zoo must have 1..={MAX_SCHEMES} schemes, got {n}")
            }
            SpecError::ZooOnly(name) => {
                write!(f, "scheme {name:?} runs only in a zoo (write zoo:{name})")
            }
        }
    }
}

impl std::error::Error for SpecError {}

const fn knob(
    name: &'static str,
    default: u64,
    min: u64,
    max: u64,
    pow2: bool,
    doc: &'static str,
) -> KnobDef {
    KnobDef {
        name,
        default,
        min,
        max,
        pow2,
        doc,
    }
}

/// Every registered scheme, in presentation order: the paper's mechanisms
/// and baselines (built through [`PrefetcherKind::build`]) first, then the
/// rival schemes.
pub fn registry() -> &'static [SchemeDef] {
    &REGISTRY
}

static REGISTRY: [SchemeDef; 11] = [
    SchemeDef {
        name: "none",
        doc: "no prefetching (baseline)",
        knobs: &[],
        make: Make::Kind(|_| PrefetcherKind::None),
    },
    SchemeDef {
        name: "nl",
        doc: "next-line prefetcher (paper baseline)",
        knobs: &[knob(
            "mode",
            2,
            0,
            2,
            false,
            "trigger: 0=always, 1=on miss, 2=tagged",
        )],
        make: Make::Kind(|k| match k.get("mode") {
            0 => PrefetcherKind::NextLineAlways,
            1 => PrefetcherKind::NextLineOnMiss,
            _ => PrefetcherKind::NextLineTagged,
        }),
    },
    SchemeDef {
        name: "nnl",
        doc: "next-N-line tagged sequential prefetcher (paper baseline)",
        knobs: &[knob(
            "n",
            4,
            1,
            64,
            false,
            "prefetch-ahead distance in lines",
        )],
        make: Make::Kind(|k| PrefetcherKind::NextNLineTagged {
            n: k.get("n") as u32,
        }),
    },
    SchemeDef {
        name: "lookahead",
        doc: "single-line lookahead at distance N",
        knobs: &[knob("n", 4, 1, 64, false, "lookahead distance in lines")],
        make: Make::Kind(|k| PrefetcherKind::Lookahead {
            n: k.get("n") as u32,
        }),
    },
    SchemeDef {
        name: "disc",
        doc: "the paper's discontinuity prefetcher + next-N-line partner",
        knobs: &[
            knob(
                "table_entries",
                8192,
                64,
                1 << 20,
                true,
                "prediction-table entries",
            ),
            knob(
                "ahead",
                4,
                1,
                64,
                false,
                "sequential prefetch-ahead distance",
            ),
            knob(
                "min_confidence",
                0,
                0,
                3,
                false,
                "confidence gate (0 = ungated)",
            ),
        ],
        make: Make::Kind(|k| {
            let table_entries = k.get("table_entries") as usize;
            let ahead = k.get("ahead") as u32;
            match k.get("min_confidence") as u8 {
                0 => PrefetcherKind::Discontinuity {
                    table_entries,
                    ahead,
                },
                min_confidence => PrefetcherKind::DiscontinuityGated {
                    table_entries,
                    ahead,
                    min_confidence,
                },
            }
        }),
    },
    SchemeDef {
        name: "target",
        doc: "classic history-based target prefetcher (Smith & Hsu)",
        knobs: &[knob(
            "table_entries",
            4096,
            64,
            1 << 20,
            true,
            "target-table entries",
        )],
        make: Make::Kind(|k| PrefetcherKind::Target {
            table_entries: k.get("table_entries") as usize,
        }),
    },
    SchemeDef {
        name: "wrong_path",
        doc: "wrong-path prefetching (Pierce & Mudge)",
        knobs: &[knob(
            "next_line",
            1,
            0,
            1,
            false,
            "also prefetch the next line on misses",
        )],
        make: Make::Kind(|k| PrefetcherKind::WrongPath {
            next_line: k.get("next_line") != 0,
        }),
    },
    SchemeDef {
        name: "markov",
        doc: "multi-target (Markov) discontinuity predictor",
        knobs: &[
            knob(
                "table_entries",
                8192,
                64,
                1 << 20,
                true,
                "predictor-table entries",
            ),
            knob(
                "ahead",
                4,
                1,
                64,
                false,
                "sequential prefetch-ahead distance",
            ),
        ],
        make: Make::Kind(|k| PrefetcherKind::Markov {
            table_entries: k.get("table_entries") as usize,
            ahead: k.get("ahead") as u32,
        }),
    },
    SchemeDef {
        name: "stream",
        doc: "rival: stream-buffer next-line baseline with miss-allocated trackers",
        knobs: &[
            knob("streams", 4, 1, 16, false, "concurrent stream trackers"),
            knob(
                "degree",
                4,
                1,
                16,
                false,
                "lines prefetched ahead of a stream head",
            ),
        ],
        make: Make::Engine(|k| {
            Box::new(StreamPrefetcher::new(
                k.get("streams") as usize,
                k.get("degree") as u32,
            ))
        }),
    },
    SchemeDef {
        name: "mana",
        doc: "rival: MANA-style spatial-region footprints with chained metadata table",
        knobs: &[
            knob("regions", 1024, 64, 1 << 16, true, "metadata-table entries"),
            knob(
                "region_lines",
                8,
                2,
                64,
                true,
                "lines per spatial region (footprint width)",
            ),
            knob("degree", 8, 1, 32, false, "max prefetches per trigger"),
        ],
        make: Make::Engine(|k| {
            Box::new(ManaPrefetcher::new(
                k.get("regions") as usize,
                k.get("region_lines"),
                k.get("degree") as usize,
            ))
        }),
    },
    SchemeDef {
        name: "pmap",
        doc: "rival: program-map traversal over a learned block graph",
        knobs: &[
            knob(
                "nodes",
                4096,
                64,
                1 << 18,
                true,
                "block-graph node-table entries",
            ),
            knob("depth", 3, 1, 8, false, "traversal depth in graph edges"),
            knob("degree", 8, 1, 32, false, "max prefetches per fetch event"),
        ],
        make: Make::Engine(|k| {
            Box::new(ProgramMapPrefetcher::new(
                k.get("nodes") as usize,
                k.get("depth") as u32,
                k.get("degree") as usize,
            ))
        }),
    },
];

/// Looks up a scheme definition by registry key.
pub fn find_scheme(name: &str) -> Option<&'static SchemeDef> {
    REGISTRY.iter().find(|d| d.name == name)
}

/// One validated `name[:knob=value,…]` prefetcher spec.
///
/// Knobs hold only the values the spec set explicitly (sorted by name),
/// so the canonical form — and everything derived from it, run cache keys
/// included — does not shift when a scheme grows a new knob with a
/// default.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PrefetcherSpec {
    name: String,
    knobs: Vec<(String, u64)>,
}

impl PrefetcherSpec {
    /// Parses and validates one spec against the registry.
    pub fn parse(spec: &str) -> Result<PrefetcherSpec, SpecError> {
        let (name, knob_str) = match spec.split_once(':') {
            Some((n, k)) => (n, Some(k)),
            None => (spec, None),
        };
        if name.is_empty() {
            return Err(SpecError::BadSyntax(spec.to_string()));
        }
        let def = find_scheme(name).ok_or_else(|| SpecError::UnknownScheme(name.to_string()))?;
        let mut knobs: Vec<(String, u64)> = Vec::new();
        if let Some(knob_str) = knob_str {
            for pair in knob_str.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| SpecError::BadSyntax(spec.to_string()))?;
                let kd = def.knob(k).ok_or_else(|| SpecError::UnknownKnob {
                    scheme: name.to_string(),
                    knob: k.to_string(),
                })?;
                let bad = |expected: String| SpecError::BadKnobValue {
                    scheme: name.to_string(),
                    knob: k.to_string(),
                    value: v.to_string(),
                    expected,
                };
                let value: u64 = v
                    .parse()
                    .map_err(|_| bad("an unsigned integer".to_string()))?;
                kd.check(value).map_err(bad)?;
                if knobs.iter().any(|(existing, _)| existing == k) {
                    return Err(SpecError::BadSyntax(spec.to_string()));
                }
                knobs.push((k.to_string(), value));
            }
        }
        knobs.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(PrefetcherSpec {
            name: name.to_string(),
            knobs,
        })
    }

    /// Registry key of the scheme.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Explicitly-set knobs, sorted by name.
    pub fn knobs(&self) -> &[(String, u64)] {
        &self.knobs
    }

    /// The canonical string form: `name` or `name:k=v,…` with knobs
    /// sorted. Parsing the canonical form yields an equal spec.
    pub fn canonical(&self) -> String {
        if self.knobs.is_empty() {
            self.name.clone()
        } else {
            let knobs: Vec<String> = self.knobs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{}:{}", self.name, knobs.join(","))
        }
    }

    /// The spec naming `kind`, with only its non-default knobs written:
    /// the inverse of [`PrefetcherSpec::kind`]. `None` when the registry
    /// cannot name the kind, e.g. a knob outside its [`KnobDef`] range or
    /// a gated discontinuity with `min_confidence: 0`.
    pub fn from_kind(kind: PrefetcherKind) -> Option<PrefetcherSpec> {
        use PrefetcherKind as K;
        let text = match kind {
            K::None => "none".to_string(),
            K::NextLineAlways => "nl:mode=0".to_string(),
            K::NextLineOnMiss => "nl:mode=1".to_string(),
            K::NextLineTagged => "nl:mode=2".to_string(),
            K::NextNLineTagged { n } => format!("nnl:n={n}"),
            K::Lookahead { n } => format!("lookahead:n={n}"),
            K::Discontinuity {
                table_entries: t,
                ahead: a,
            } => {
                format!("disc:table_entries={t},ahead={a}")
            }
            K::DiscontinuityGated {
                table_entries: t,
                ahead: a,
                min_confidence: c,
            } => {
                format!("disc:table_entries={t},ahead={a},min_confidence={c}")
            }
            K::Target { table_entries: t } => format!("target:table_entries={t}"),
            K::WrongPath { next_line } => format!("wrong_path:next_line={}", u8::from(next_line)),
            K::Markov {
                table_entries: t,
                ahead: a,
            } => {
                format!("markov:table_entries={t},ahead={a}")
            }
        };
        let mut spec = PrefetcherSpec::parse(&text).ok()?;
        let def = spec.def();
        spec.knobs
            .retain(|(k, v)| def.knob(k).is_some_and(|kd| kd.default != *v));
        (spec.kind() == Some(kind)).then_some(spec)
    }

    /// The paper mechanism this spec selects; `None` for a rival scheme,
    /// which has no [`PrefetcherKind`].
    pub fn kind(&self) -> Option<PrefetcherKind> {
        match self.def().make {
            Make::Kind(kind) => Some(kind(&self.resolve())),
            Make::Engine(_) => None,
        }
    }

    fn def(&self) -> &'static SchemeDef {
        find_scheme(&self.name).expect("validated at parse time")
    }

    fn resolve(&self) -> ResolvedKnobs {
        let vals = self
            .def()
            .knobs
            .iter()
            .map(|kd| {
                let set = self
                    .knobs
                    .iter()
                    .find(|(k, _)| k == kd.name)
                    .map(|(_, v)| *v);
                (kd.name, set.unwrap_or(kd.default))
            })
            .collect();
        ResolvedKnobs { vals }
    }

    /// Constructs the scheme. Infallible: validation happened at parse.
    pub fn build(&self) -> Box<dyn PrefetchEngine> {
        match self.def().make {
            Make::Kind(kind) => kind(&self.resolve()).build(),
            Make::Engine(build) => build(&self.resolve()),
        }
    }
}

impl fmt::Display for PrefetcherSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// A validated zoo configuration: an ordered list of schemes to run side
/// by side. Construction validates everything, so [`ZooPlan::build`] is
/// infallible — the harness can build one zoo per core after config
/// checks are done.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ZooPlan {
    specs: Vec<PrefetcherSpec>,
}

impl ZooPlan {
    /// Parses a `+`-joined list of specs, e.g. `disc+stream:degree=2`.
    pub fn parse(plan: &str) -> Result<ZooPlan, SpecError> {
        let specs = plan
            .split('+')
            .map(PrefetcherSpec::parse)
            .collect::<Result<Vec<_>, _>>()?;
        ZooPlan::from_specs(specs)
    }

    /// Builds a plan from already-parsed specs.
    pub fn from_specs(specs: Vec<PrefetcherSpec>) -> Result<ZooPlan, SpecError> {
        if specs.is_empty() || specs.len() > MAX_SCHEMES {
            return Err(SpecError::BadZooSize(specs.len()));
        }
        Ok(ZooPlan { specs })
    }

    /// The schemes, in slot order.
    pub fn specs(&self) -> &[PrefetcherSpec] {
        &self.specs
    }

    /// Canonical `+`-joined form; round-trips through [`ZooPlan::parse`].
    pub fn canonical(&self) -> String {
        let parts: Vec<String> = self.specs.iter().map(|s| s.canonical()).collect();
        parts.join("+")
    }

    /// Instantiates a fresh [`Zoo`] (one per core).
    pub fn build(&self) -> Zoo {
        let mut zoo = Zoo::new();
        for spec in &self.specs {
            // Engine before label: the allocation order of `Zoo::single`,
            // so a plan-built zoo of one lays out its heap like the same
            // scheme configured directly and the two time alike.
            let engine = spec.build();
            zoo.add(spec.canonical(), engine);
        }
        zoo
    }
}

impl fmt::Display for ZooPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// The prefetching a run configures: one paper mechanism, or a zoo of
/// registry schemes side by side with per-scheme attribution.
///
/// Its text form is the one spelling of a scheme that the `ipsim` CLI
/// takes: a registry spec (`disc:ahead=2`) for
/// [`Scheme::Single`], `zoo:<plan>` (`zoo:nl+mana`) for [`Scheme::Zoo`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// One paper mechanism, run as a zoo of one.
    Single(PrefetcherKind),
    /// A zoo plan; its runs report per-scheme rows.
    Zoo(ZooPlan),
}

impl Default for Scheme {
    fn default() -> Scheme {
        Scheme::Single(PrefetcherKind::None)
    }
}

impl Scheme {
    /// Parses the text form. A rival scheme written without `zoo:` is a
    /// [`SpecError::ZooOnly`].
    pub fn parse(text: &str) -> Result<Scheme, SpecError> {
        if let Some(plan) = text.strip_prefix("zoo:") {
            return ZooPlan::parse(plan).map(Scheme::Zoo);
        }
        let spec = PrefetcherSpec::parse(text)?;
        spec.kind()
            .map(Scheme::Single)
            .ok_or(SpecError::ZooOnly(spec.name))
    }

    /// The text form, which [`Scheme::parse`] reads back to an equal
    /// scheme; `None` for a kind the registry cannot name (see
    /// [`PrefetcherSpec::from_kind`]).
    pub fn text(&self) -> Option<String> {
        match self {
            Scheme::Single(kind) => PrefetcherSpec::from_kind(*kind).map(|spec| spec.canonical()),
            Scheme::Zoo(plan) => Some(format!("zoo:{plan}")),
        }
    }

    /// The zoo plan; `None` for a single mechanism.
    pub fn plan(&self) -> Option<&ZooPlan> {
        match self {
            Scheme::Single(_) => None,
            Scheme::Zoo(plan) => Some(plan),
        }
    }

    /// A short tag for progress lines: the mechanism's paper legend, or
    /// `zoo[<plan>]`.
    pub fn label(&self) -> String {
        match self {
            Scheme::Single(kind) => kind.label(),
            Scheme::Zoo(plan) => format!("zoo[{plan}]"),
        }
    }

    /// Instantiates one core's [`Zoo`]: the plan's, or the mechanism as a
    /// zoo of one.
    pub fn build(&self) -> Zoo {
        match self {
            Scheme::Single(kind) => Zoo::single(kind.build()),
            Scheme::Zoo(plan) => plan.build(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_scheme_builds_with_defaults() {
        for def in registry() {
            let spec = PrefetcherSpec::parse(def.name).unwrap();
            assert!(!spec.build().name().is_empty(), "{}", def.name);
            assert!(!def.doc.is_empty());
        }
        assert!(registry().len() >= 6, "the zoo must cover >=6 schemes");
    }

    #[test]
    fn registry_names_are_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn canonical_form_round_trips_and_sorts_knobs() {
        let spec = PrefetcherSpec::parse("disc:min_confidence=2,ahead=2").unwrap();
        assert_eq!(spec.canonical(), "disc:ahead=2,min_confidence=2");
        assert_eq!(PrefetcherSpec::parse(&spec.canonical()).unwrap(), spec);
        // Defaults stay implicit.
        assert_eq!(PrefetcherSpec::parse("disc").unwrap().canonical(), "disc");
    }

    /// kind → spec → `PrefetcherSpec::parse` → `kind()` is the identity on
    /// every kind the registry can name, and the spec writes no default.
    /// Runs over every paper kind at sizes and counts on, inside and past
    /// the knobs' ranges.
    #[test]
    fn specs_round_trip_every_nameable_kind() {
        const SIZES: &[usize] = &[0, 1, 63, 64, 100, 1024, 4096, 8192, 1 << 20, (1 << 20) + 1];
        const COUNTS: &[u32] = &[0, 1, 2, 3, 4, 7, 64, 65, u32::MAX];
        const CONFIDENCE: &[u8] = &[0, 1, 2, 3, 4, 200];
        let mut kinds = vec![
            PrefetcherKind::None,
            PrefetcherKind::NextLineAlways,
            PrefetcherKind::NextLineOnMiss,
            PrefetcherKind::NextLineTagged,
            PrefetcherKind::WrongPath { next_line: false },
            PrefetcherKind::WrongPath { next_line: true },
        ];
        for &table_entries in SIZES {
            kinds.push(PrefetcherKind::Target { table_entries });
            for &ahead in COUNTS {
                kinds.push(PrefetcherKind::Discontinuity {
                    table_entries,
                    ahead,
                });
                kinds.push(PrefetcherKind::Markov {
                    table_entries,
                    ahead,
                });
                for &min_confidence in CONFIDENCE {
                    kinds.push(PrefetcherKind::DiscontinuityGated {
                        table_entries,
                        ahead,
                        min_confidence,
                    });
                }
            }
        }
        for &n in COUNTS {
            kinds.push(PrefetcherKind::NextNLineTagged { n });
            kinds.push(PrefetcherKind::Lookahead { n });
        }
        let mut named = 0;
        for kind in kinds {
            let Some(spec) = PrefetcherSpec::from_kind(kind) else {
                continue;
            };
            named += 1;
            let parsed = PrefetcherSpec::parse(&spec.canonical()).unwrap();
            assert_eq!(parsed.kind(), Some(kind));
            assert_eq!(parsed, spec);
            let def = find_scheme(spec.name()).unwrap();
            for (knob, value) in spec.knobs() {
                assert_ne!(def.knob(knob).unwrap().default, *value, "{kind:?}");
            }
        }
        assert!(named > 100, "only {named} kinds were nameable");
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(matches!(
            PrefetcherSpec::parse("warp_drive"),
            Err(SpecError::UnknownScheme(_))
        ));
        assert!(matches!(
            PrefetcherSpec::parse("disc:warp=1"),
            Err(SpecError::UnknownKnob { .. })
        ));
        assert!(matches!(
            PrefetcherSpec::parse("disc:ahead=0"),
            Err(SpecError::BadKnobValue { .. })
        ));
        assert!(matches!(
            PrefetcherSpec::parse("disc:table_entries=100"),
            Err(SpecError::BadKnobValue { .. })
        ));
        assert!(matches!(
            PrefetcherSpec::parse("disc:ahead=x"),
            Err(SpecError::BadKnobValue { .. })
        ));
        assert!(matches!(
            PrefetcherSpec::parse("disc:ahead=2,ahead=3"),
            Err(SpecError::BadSyntax(_))
        ));
        assert!(matches!(
            PrefetcherSpec::parse(""),
            Err(SpecError::BadSyntax(_))
        ));
        assert!(matches!(
            PrefetcherSpec::parse("disc:ahead"),
            Err(SpecError::BadSyntax(_))
        ));
    }

    #[test]
    fn zoo_plan_round_trips_and_builds() {
        let plan = ZooPlan::parse("nl+disc:ahead=2+stream:degree=2").unwrap();
        assert_eq!(plan.canonical(), "nl+disc:ahead=2+stream:degree=2");
        assert_eq!(ZooPlan::parse(&plan.canonical()).unwrap(), plan);
        let labels: Vec<String> = plan
            .build()
            .scheme_stats()
            .into_iter()
            .map(|s| s.0)
            .collect();
        assert_eq!(labels, ["nl", "disc:ahead=2", "stream:degree=2"]);
    }

    #[test]
    fn zoo_plan_size_is_bounded() {
        assert!(ZooPlan::parse("").is_err());
        let too_many = ["none"; MAX_SCHEMES + 1].join("+");
        assert!(matches!(
            ZooPlan::parse(&too_many),
            Err(SpecError::BadZooSize(_))
        ));
        // Exactly MAX_SCHEMES is fine (duplicates are legal: slots, not
        // names, identify members).
        let full = ["none"; MAX_SCHEMES].join("+");
        assert_eq!(
            ZooPlan::parse(&full).unwrap().build().scheme_stats().len(),
            MAX_SCHEMES
        );
    }

    #[test]
    fn spec_errors_render_helpfully() {
        let err = PrefetcherSpec::parse("disc:table_entries=100").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("table_entries"), "{msg}");
        assert!(msg.contains("power of two"), "{msg}");
    }
}

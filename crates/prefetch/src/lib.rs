//! The prefetcher zoo: the scheme host every core drives, a string-keyed
//! scheme registry, and rival schemes evaluated head-to-head against the
//! paper's mechanisms.
//!
//! Every scheme, paper mechanism and rival alike, implements the one
//! scheme trait, [`PrefetchEngine`](ipsim_core::PrefetchEngine): fetch in,
//! requests out, then usefulness and eviction feedback. The crate adds
//!
//! * [`Zoo`] — the host each core drives: up to [`MAX_SCHEMES`] engines
//!   side by side, each request stamped with its engine's slot, and
//!   per-scheme lifecycle counters ([`SchemeCounters`]) credited through
//!   the slot the core keeps beside each line's attribution. A scheme
//!   configured directly is a zoo of one;
//! * the string-keyed [`registry`]: every scheme is constructed from a
//!   validated `name[:knob=value,…]` spec ([`PrefetcherSpec`]), and a
//!   `+`-joined [`ZooPlan`] configures a whole zoo — the canonical forms
//!   are stable and live in run cache keys. The paper's mechanisms map
//!   their knobs to a [`PrefetcherKind`](ipsim_core::PrefetcherKind)
//!   ([`PrefetcherSpec::kind`], inverted by [`PrefetcherSpec::from_kind`]);
//! * [`Scheme`] — what a run configures, one kind or a zoo plan, whose
//!   text form (`disc:ahead=2`, `zoo:nl+mana`) is the one spelling the
//!   CLI and the serve wire take;
//! * three rival schemes: [`StreamPrefetcher`], [`ManaPrefetcher`]
//!   (arXiv 2102.01764) and [`ProgramMapPrefetcher`] (arXiv 2406.06738).
//!
//! # Examples
//!
//! Configure a two-scheme zoo from a spec string and drive it by hand:
//!
//! ```
//! use ipsim_core::FetchEvent;
//! use ipsim_prefetch::ZooPlan;
//! use ipsim_types::LineAddr;
//!
//! let plan = ZooPlan::parse("nl+disc:ahead=2").unwrap();
//! let mut zoo = plan.build();
//! let mut out = Vec::new();
//! zoo.on_fetch(&FetchEvent::miss(LineAddr(100), None), &mut out);
//! // Slot 0 (next-line) and slot 1 (discontinuity's sequential partner)
//! // both want line 101; the scheme tag tells them apart.
//! assert_eq!(out[0].scheme, 0);
//! assert!(out[1..].iter().all(|r| r.scheme == 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod rivals;
mod stats;
mod zoo;

pub use registry::{
    find_scheme, registry, KnobDef, PrefetcherSpec, ResolvedKnobs, Scheme, SchemeDef, SpecError,
    ZooPlan,
};
pub use rivals::{ManaPrefetcher, ProgramMapPrefetcher, StreamPrefetcher};
pub use stats::SchemeCounters;
pub use zoo::{Zoo, MAX_SCHEMES};

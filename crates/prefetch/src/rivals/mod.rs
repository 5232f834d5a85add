//! Rival schemes implemented as ordinary
//! [`PrefetchEngine`](ipsim_core::PrefetchEngine)s, evaluated head-to-head
//! against the paper's mechanisms in the bake-off:
//!
//! * [`StreamPrefetcher`] — the classic stream-buffer next-line baseline;
//! * [`ManaPrefetcher`] — a MANA-style spatial-region scheme (Ansari et
//!   al., arXiv 2102.01764): region footprints in a chained metadata
//!   table;
//! * [`ProgramMapPrefetcher`] — program-map traversal (arXiv 2406.06738):
//!   walks a learned block graph several control-flow edges ahead of the
//!   fetch stream.

mod mana;
mod pmap;
mod stream;

pub use mana::ManaPrefetcher;
pub use pmap::ProgramMapPrefetcher;
pub use stream::StreamPrefetcher;

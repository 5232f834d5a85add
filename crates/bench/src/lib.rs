//! Every micro- and system bench is defined in the `bench_snapshot` binary
//! and the disabled-hook overhead guard in `tests/overhead.rs`; this
//! library is empty.

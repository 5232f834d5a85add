//! The disabled path: after `set_enabled(false)` every span call must
//! record nothing, while a [`Histogram`] — report data, not a hook —
//! keeps recording. Lives in its own integration test binary (own
//! process) because it flips the process-global switch that the
//! enabled-path tests rely on.

use ipsim_obs::{Histogram, SpanRecorder};

#[test]
fn disabled_instrumentation_records_no_spans() {
    assert!(ipsim_obs::enabled(), "instrumentation defaults to on");
    let rec = SpanRecorder::new(8);
    let mut hist = Histogram::new();
    hist.observe(10);

    ipsim_obs::set_enabled(false);
    hist.observe(99);
    {
        let g = rec.span("ghost");
        assert_eq!(g.id(), 0, "inert guard has no id");
    }
    assert_eq!(rec.record("ghost", 0, 1, None), 0);

    assert_eq!(hist.count(), 2, "histograms record while disabled");
    assert!(
        rec.completed().is_empty(),
        "no spans recorded while disabled"
    );
    assert_eq!(rec.dropped(), 0);

    ipsim_obs::set_enabled(true);
    {
        let _g = rec.span("live");
    }
    assert_eq!(rec.completed().len(), 1, "re-enabling resumes recording");
}

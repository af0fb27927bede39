//! The benchmark's own arithmetic: percentile rank, the due-time
//! schedule and lateness, per-window figures, span self time, the
//! closing check, and the metric names `BENCHMARK.json` promises.

use perfbench::report::{json_number, Report};
use perfbench::stats::{
    closing, latency_from_due_ns, lateness_ns, mean, median, percentile, poisson_due_ns, ratio,
    self_time_ns, window, window_figures, Schedule, Span,
};
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), 5.0);
    assert_eq!(percentile(&v, 0.9), 9.0);
    assert_eq!(percentile(&v, 0.91), 10.0);
    assert_eq!(percentile(&v, 1.0), 10.0);
    assert_eq!(percentile(&v, 0.0), 1.0, "rank clamps to the first value");
    assert_eq!(percentile(&[], 0.5), 0.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
}

#[test]
fn median_mean_and_ratio() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(
        median(&[4.0, 1.0, 3.0, 2.0]),
        2.0,
        "lower middle of an even sample"
    );
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(ratio(1.0, 4.0), 0.25);
    assert_eq!(ratio(1.0, 0.0), 0.0, "nothing counted reads 0");
}

#[test]
fn schedule_is_exact_and_does_not_drift() {
    let s = Schedule { rate: 4 };
    assert_eq!(s.due_ns(0), 0);
    assert_eq!(s.due_ns(1), 250_000_000);
    assert_eq!(s.due_ns(4), 1_000_000_000);
    let s = Schedule { rate: 3 };
    assert_eq!(s.due_ns(1), 333_333_333, "rounds down");
    assert_eq!(s.due_ns(3), 1_000_000_000, "no accumulated rounding");
    assert_eq!(s.due_ns(3_000_000), 1_000_000 * 1_000_000_000);
    let s = Schedule { rate: 6_000 };
    assert_eq!(s.due_ns(6_000 * 3600), 3600 * 1_000_000_000);
}

#[test]
fn poisson_arrivals_have_exponential_gaps_at_the_rate() {
    // u = 1 - 1/e makes every gap exactly the mean gap, 1/rate.
    let u = 1.0 - (-1.0f64).exp();
    let due = poisson_due_ns(1_000, 5_500_000, || u);
    let expect: Vec<u64> = (1..=5).map(|k| k * 1_000_000).collect();
    assert_eq!(due.len(), 5, "nothing due at or after the end");
    for (d, e) in due.iter().zip(&expect) {
        assert!(d.abs_diff(*e) <= 1, "{d} vs {e}");
    }
    // A real stream averages the rate and repeats for the same seed.
    let draw = |seed| {
        let mut rng = hermes::common::Rng64::new(seed);
        poisson_due_ns(10_000, 1_000_000_000, || rng.f64())
    };
    let a = draw(7);
    assert_eq!(a, draw(7));
    assert!((9_700..=10_300).contains(&a.len()), "{} arrivals", a.len());
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
}

#[test]
fn lateness_and_latency_count_from_the_due_time() {
    assert_eq!(lateness_ns(100, 150), 50);
    assert_eq!(lateness_ns(100, 90), 0, "an early send is not late");
    assert_eq!(latency_from_due_ns(100, 400), 300);
    // A request sent 50 late and answered 200 after sending waited 250.
    let due = 1_000;
    let sent = due + 50;
    assert_eq!(latency_from_due_ns(due, sent + 200), 250);
}

#[test]
fn windows_split_a_phase_evenly() {
    assert_eq!(window(0, 1_000, 10), 0);
    assert_eq!(window(99, 1_000, 10), 0);
    assert_eq!(window(100, 1_000, 10), 1);
    assert_eq!(window(999, 1_000, 10), 9);
    assert_eq!(
        window(5_000, 1_000, 10),
        9,
        "overrun lands in the last window"
    );
}

#[test]
fn window_figures_take_each_windows_percentile() {
    // Five windows of 100 ns; every window's samples read 10 except the
    // third, where a stall pushed everything to 1000.
    let mut samples = Vec::new();
    for w in 0..5u64 {
        for i in 0..20u64 {
            let v = if w == 2 { 1_000.0 } else { 10.0 };
            samples.push((w * 100 + i, v));
        }
    }
    assert_eq!(
        window_figures(&samples, 500, 5, 0.5),
        [10.0, 10.0, 1_000.0, 10.0, 10.0]
    );
    // Per-window p50s of 2 and 20; the empty third window is skipped.
    let two = [
        (0, 1.0),
        (1, 2.0),
        (2, 3.0),
        (40, 10.0),
        (41, 20.0),
        (42, 30.0),
        (43, 40.0),
    ];
    assert_eq!(window_figures(&two, 100, 3, 0.5), [2.0, 20.0]);
    assert!(window_figures(&[], 100, 2, 0.5).is_empty());
}

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        request: 1,
        name: "test",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let parent = span(0, None, 0, 100);
    let a = span(1, Some(0), 10, 30);
    let b = span(2, Some(0), 20, 50); // overlaps a: [10, 50] counted once
    let c = span(3, Some(0), 90, 120); // overruns the parent: only [90, 100]
    let d = span(4, Some(0), 200, 300); // wholly outside: ignored
    assert_eq!(self_time_ns(&parent, &[&a, &b, &c, &d]), 100 - 40 - 10);
    assert_eq!(self_time_ns(&parent, &[]), 100);
    assert_eq!(self_time_ns(&a, &[]), 20);
    // Children covering the whole parent leave no self time.
    let full = span(5, Some(0), 0, 100);
    assert_eq!(self_time_ns(&parent, &[&full, &a]), 0);
}

#[test]
fn closing_check_compares_the_sum_with_the_whole() {
    assert_eq!(closing(&[1.0, 2.0, 3.0], 6.0, 0.2), (1.0, true));
    assert_eq!(closing(&[1.0, 2.0, 3.0], 10.0, 0.2), (0.6, false));
    let (r, ok) = closing(&[4.0, 4.0], 10.0, 0.2);
    assert!(
        (r - 0.8).abs() < 1e-12 && ok,
        "the tolerance bound itself closes"
    );
    assert!(!closing(&[1.0], 0.0, 0.2).1, "an empty whole never closes");
    assert!(!closing(&[13.0], 10.0, 0.2).1);
}

#[test]
fn result_line_holds_exactly_the_four_keys() {
    let mut r = Report {
        attempted: 10,
        ..Report::default()
    };
    r.e2e("p50_us", 1.25, "us");
    let line = r.json_line(&r.end_to_end);
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"p50_us": {"value": 1.25, "unit": "us"}}}"#
    );
    r.check(false, "a broken invariant");
    assert!(r.json_line(&[]).starts_with(r#"{"correct": false,"#));
    assert_eq!(json_number(0.1), "0.1");
    assert_eq!(json_number(3.0), "3.0");
    assert_eq!(json_number(f64::NAN), "0.0");
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let names = json.matches("\"name\":").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    for name in WORKLOADS.iter().chain(&END_TO_END).chain(&PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} is missing from BENCHMARK.json"
        );
    }
}

//! The benchmark's own arithmetic: percentiles, the open-loop schedule,
//! span self time, and the closing check. Everything here is pure, so
//! `tests/arith.rs` pins it down exactly.

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` of the sample at or below it. `p` is in `[0, 1]`;
/// an empty sample reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample in place and returns it, for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (nearest rank).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, reading 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Which of `windows` equal windows of a `duration_ns` phase the
/// instant `at_ns` falls in (the last window takes any overrun).
pub fn window(at_ns: u64, duration_ns: u64, windows: usize) -> usize {
    let w = u128::from(at_ns) * windows as u128 / u128::from(duration_ns.max(1));
    (w as usize).min(windows - 1)
}

/// The `p` percentile of each window's sample, window by window; a
/// timing is the median of such figures, so a stall of the shared
/// machine confined to a few windows does not move it. Empty windows
/// are skipped.
pub fn window_figures(
    samples: &[(u64, f64)],
    duration_ns: u64,
    windows: usize,
    p: f64,
) -> Vec<f64> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, v) in samples {
        per[window(at, duration_ns, windows)].push(v);
    }
    per.into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(&sorted(w), p))
        .collect()
}

/// A fixed-rate open-loop schedule: request `k` is due `k / rate`
/// seconds after the start, whatever happened to earlier requests.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Requests per second across all connections.
    pub rate: u64,
}

impl Schedule {
    /// Offset of request `k`'s due time from the start, in nanoseconds
    /// (exact integer arithmetic, so no drift accumulates).
    pub fn due_ns(&self, k: u64) -> u64 {
        (u128::from(k) * 1_000_000_000 / u128::from(self.rate.max(1))) as u64
    }
}

/// Due times of Poisson arrivals at `rate` per second before
/// `duration_ns`: each gap is exponential, `-ln(1 - u) / rate` for the
/// next uniform `u` in `[0, 1)` that `uniform` yields. Independent users
/// arrive this way, and unlike a fixed period the random gaps do not
/// lock into step with a periodic service time.
pub fn poisson_due_ns(rate: u64, duration_ns: u64, mut uniform: impl FnMut() -> f64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate.max(1) as f64;
    let mut due = Vec::with_capacity((duration_ns as f64 / mean_gap_ns) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - uniform()).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// How late a send was against its due time (0 when on time or early).
pub fn lateness_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// Latency of a request timed from its due time, not its send time, so
/// a generator or server stall is charged to every request it delayed.
pub fn latency_from_due_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// One traced call: a name, a wall interval, and the span that caused
/// it. Spans of one request share `request`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in its trace.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Request identifier shared by every span of one request.
    pub request: u64,
    /// Layer call this span times, e.g. `mediator.plan`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once, and a
/// child reaching outside the parent counts only inside it).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for (a, b) in kids {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    span.dur_ns() - covered
}

/// The closing check: do the layers' self times add up to the whole
/// they were split from? Returns `(sum / whole, within tolerance)`.
pub fn closing(parts: &[f64], whole: f64, tolerance: f64) -> (f64, bool) {
    let r = ratio(parts.iter().sum(), whole);
    (r, whole > 0.0 && (r - 1.0).abs() <= tolerance)
}

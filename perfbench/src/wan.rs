//! The paper workload, `wan_join`: one caller drives a serial `Mediator`
//! on the virtual-clock WAN testbed, closed loop.
//!
//! The seed derives `VARIANTS` variants, each a world (synthetic data
//! and network jitter) and a 120-query stream of its own. How much work
//! one variant's round costs depends on its frame ranges, their order
//! and its data; over all variants, it does not depend on the seed. A
//! sweep runs one round of every variant, each on a freshly built world,
//! so every round starts cold and fills the caches the same way; the
//! run repeats sweeps until its time is up.
//!
//! Virtual times are a pure function of the variant: every round must
//! reproduce its variant's first round exactly, so the `k`-th query of a
//! variant does the same work in every sweep. Its wall and CPU figures
//! are the minimum over its repetitions. Another tenant of a shared
//! machine only ever adds time to a repetition, never takes it away, so
//! the minimum reads the query's own cost once one repetition ran
//! undisturbed; the timings are taken over these per-query minima.

use crate::report::Report;
use crate::stats::{mean, median, percentile, ratio, sorted};
use crate::sys;
use crate::trace::{Decomposer, Tracer};
use crate::worlds::{answer_digest, wan_mediator, wan_stream, Oracle};
use hermes::common::Rng64;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Blocks of 20 queries per round (see `wan_stream`).
const BLOCKS: usize = 6;
/// World-and-stream variants per run, one round of each per sweep.
const VARIANTS: usize = 32;

/// What one query of a round produced. Rounds must agree exactly.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    sim_all_ms: f64,
    sim_first_ms: Option<f64>,
    digest: u64,
}

/// One round's figures. Only the first round of a variant keeps its
/// outcomes and estimate errors; later rounds keep whether they matched.
struct Round {
    outcomes: Vec<Outcome>,
    diverged: bool,
    build_s: f64,
    /// Wall and CPU time of each query, ns.
    wall_ns: Vec<f64>,
    cpu_ns: Vec<f64>,
    exact: u64,
    partial: u64,
    lookups: u64,
    source_calls: u64,
    answer_bytes: usize,
    est_err: Vec<f64>,
}

/// One variant: its world's seed and its query stream.
struct Variant {
    seed: u64,
    stream: Vec<String>,
}

/// The run's variants, all drawn from `seed`.
fn variants(seed: u64) -> Vec<Variant> {
    let mut rng = Rng64::new(seed ^ 0x7A71_A175);
    (0..VARIANTS)
        .map(|_| {
            let seed = rng.next_u64();
            Variant {
                seed,
                stream: wan_stream(seed, BLOCKS),
            }
        })
        .collect()
}

fn run_round(v: &Variant, mut tracer: Option<(&mut Tracer, u64)>) -> Round {
    let t_build = Instant::now();
    let mut m = wan_mediator(v.seed, true);
    let build_s = t_build.elapsed().as_secs_f64();
    let n = v.stream.len();
    let mut outcomes = Vec::with_capacity(n);
    let (mut wall_ns, mut cpu_ns) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut est_err = Vec::new();
    for (i, q) in v.stream.iter().enumerate() {
        let cpu0 = sys::thread_cpu();
        let t = Instant::now();
        let r = match tracer.as_mut() {
            Some((tr, base)) => tr.span(*base + i as u64, "mediator.query", None, || m.query(q)),
            None => m.query(q),
        }
        .expect("wan query answers");
        wall_ns.push(t.elapsed().as_nanos() as f64);
        cpu_ns.push((sys::thread_cpu() - cpu0).as_nanos() as f64);
        let sim_all_ms = r.t_all.as_millis_f64();
        if let Some(est) = r.estimate.t_all_ms {
            if sim_all_ms > 0.0 {
                est_err.push((est - sim_all_ms).abs() / sim_all_ms);
            }
        }
        outcomes.push(Outcome {
            sim_all_ms,
            sim_first_ms: r.t_first.map(|d| d.as_millis_f64()),
            digest: answer_digest(&r.rows),
        });
    }
    let snapshot = m.caches().stats();
    let cim = snapshot.cim;
    Round {
        outcomes,
        diverged: false,
        build_s,
        wall_ns,
        cpu_ns,
        exact: cim.exact_hits + cim.equal_hits,
        partial: cim.partial_hits,
        lookups: cim.exact_hits + cim.equal_hits + cim.partial_hits + cim.misses,
        source_calls: m.network().source_calls(),
        answer_bytes: snapshot.answer_bytes,
        est_err,
    }
}

/// What a run of sweeps measured.
struct Sweeps {
    sweeps: usize,
    queries: usize,
    /// Rounds that did not reproduce their variant's first round.
    diverged: usize,
    /// The first sweep's rounds, outcomes kept (when no reference).
    first: Vec<Round>,
    /// Every world build, seconds.
    builds: Vec<f64>,
    /// Each query position's minimum wall and CPU time over its
    /// repetitions, ns, variant by variant in stream order.
    min_wall_ns: Vec<f64>,
    min_cpu_ns: Vec<f64>,
    /// CPU seconds of every query run.
    cpu_s: f64,
}

impl Sweeps {
    /// Median per-query minimum wall time, µs.
    fn p50_us(&self) -> f64 {
        median(&self.min_wall_ns) / 1e3
    }
}

/// Runs whole sweeps until `seconds` have passed (at least one). Each
/// round is checked against its variant's round in `reference`, or in
/// the first sweep when there is none.
fn run_sweeps(
    variants: &[Variant],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    reference: Option<&[Round]>,
) -> Sweeps {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let positions: usize = variants.iter().map(|v| v.stream.len()).sum();
    let mut out = Sweeps {
        sweeps: 0,
        queries: 0,
        diverged: 0,
        first: Vec::new(),
        builds: Vec::new(),
        min_wall_ns: vec![f64::INFINITY; positions],
        min_cpu_ns: vec![f64::INFINITY; positions],
        cpu_s: 0.0,
    };
    let mut request = 0u64;
    while out.sweeps == 0 || Instant::now() < deadline {
        let mut rounds = Vec::with_capacity(variants.len());
        let mut at = 0;
        for (i, v) in variants.iter().enumerate() {
            let mut r = run_round(v, tracer.as_deref_mut().map(|t| (t, request)));
            request += v.stream.len() as u64;
            out.builds.push(r.build_s);
            for (k, (&w, &c)) in r.wall_ns.iter().zip(&r.cpu_ns).enumerate() {
                out.min_wall_ns[at + k] = out.min_wall_ns[at + k].min(w);
                out.min_cpu_ns[at + k] = out.min_cpu_ns[at + k].min(c);
                out.cpu_s += c / 1e9;
            }
            at += v.stream.len();
            out.queries += v.stream.len();
            let want = reference.or((!out.first.is_empty()).then_some(out.first.as_slice()));
            if let Some(want) = want {
                r.diverged = r.outcomes != want[i].outcomes;
                out.diverged += usize::from(r.diverged);
                r.outcomes = Vec::new();
                r.est_err = Vec::new();
            }
            rounds.push(r);
        }
        out.sweeps += 1;
        if reference.is_none() && out.first.is_empty() {
            out.first = rounds;
        }
    }
    out
}

/// Runs `wan_join` and fills `report`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let variants = variants(seed);
    let slice = if trace { seconds / 3.0 } else { seconds };
    let run = run_sweeps(&variants, slice, None, None);
    let first = &run.first;
    let mut tracer = Tracer::default();
    let traced = trace.then(|| run_sweeps(&variants, slice, Some(&mut tracer), Some(first)));

    // ---- correctness: determinism across rounds, answers vs oracle.
    let divergent = run.diverged + traced.as_ref().map_or(0, |t| t.diverged);
    report.check(
        divergent == 0,
        format!("{divergent} rounds diverged from their variant's first round's virtual times or answers"),
    );
    let mut expected: Vec<HashMap<&str, u64>> = Vec::new();
    let mut mismatches = 0u64;
    for (v, round) in variants.iter().zip(first) {
        let mut oracle = Oracle::new(wan_mediator(v.seed, false));
        let mut want: HashMap<&str, u64> = HashMap::new();
        for (q, o) in v.stream.iter().zip(&round.outcomes) {
            if *want.entry(q).or_insert_with(|| oracle.digest(q)) != o.digest {
                mismatches += 1;
            }
        }
        expected.push(want);
    }
    report.check(
        mismatches == 0,
        format!("{mismatches} answers differ from the uncached oracle"),
    );
    let queries = run.queries + traced.as_ref().map_or(0, |t| t.queries);
    let per_round = run.min_wall_ns.len() / VARIANTS;
    report.attempted = queries as u64;
    report.failed = mismatches + (divergent * per_round) as u64;
    let error_ratio = ratio(report.failed as f64, queries as f64);

    // ---- end to end, over the per-query minima. A variant's rate is
    // one query per mean minimum wall time; a cold DCSM sends a few
    // variants' first `chain` join down a plan a hundred times dearer,
    // so rate and CPU are the median over variants, not the mean.
    let p50_us = run.p50_us();
    let min_wall = sorted(run.min_wall_ns.clone());
    let per_variant = |ns: &[f64], f: fn(f64) -> f64| -> f64 {
        median(&ns.chunks(per_round).map(|c| f(mean(c))).collect::<Vec<_>>())
    };
    report.e2e("p50_us", p50_us, "us");
    report.e2e(
        "peak_qps",
        per_variant(&run.min_wall_ns, |ns| 1e9 / ns),
        "1/s",
    );
    report.e2e(
        "server_cpu_us_per_query",
        per_variant(&run.min_cpu_ns, |ns| ns / 1e3),
        "us",
    );
    let mut builds = run.builds.clone();
    builds.extend(traced.iter().flat_map(|t| t.builds.iter().copied()));
    report.e2e("setup_s", median(&builds), "s");
    report.e2e("peak_rss_mb", sys::peak_rss_mb(), "MiB");

    // Virtual-time and cache figures: every variant's first round.
    let outcomes = || first.iter().flat_map(|r| r.outcomes.iter());
    let sim_all = sorted(outcomes().map(|o| o.sim_all_ms).collect());
    let sim_first = sorted(
        outcomes()
            .map(|o| o.sim_first_ms.unwrap_or(o.sim_all_ms))
            .collect(),
    );
    let total = |f: fn(&Round) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let lookups = total(|r| r.lookups);
    let partial_ratio = ratio(total(|r| r.partial), lookups);
    let first_queries = first.iter().map(|r| r.outcomes.len()).sum::<usize>() as f64;
    let source_calls_per_query = total(|r| r.source_calls) / first_queries;
    let est_err: Vec<f64> = first
        .iter()
        .flat_map(|r| r.est_err.iter().copied())
        .collect();
    report.check(
        partial_ratio > 0.0,
        "no partial invariant hit on the paper workload",
    );
    report.note(format!(
        "wan_join: {} sweeps of {VARIANTS} variants × {per_round} queries ({} queries, {} world builds), \
         one closed-loop caller; timings are over the {} query positions' minima of {} repetitions each",
        run.sweeps,
        run.queries,
        run.builds.len(),
        min_wall.len(),
        run.sweeps,
    ));
    report.note(format!("cim partial ratio {partial_ratio}"));
    report.unbounded(
        trace,
        &[
            ("p90_us", percentile(&min_wall, 0.9) / 1e3, "us"),
            ("error_ratio", error_ratio, "ratio"),
            ("source_calls_per_query", source_calls_per_query, "count"),
            ("sim_t_all_ms_p50", percentile(&sim_all, 0.5), "sim_ms"),
            ("sim_t_all_ms_p90", percentile(&sim_all, 0.9), "sim_ms"),
            ("sim_t_first_ms_p50", percentile(&sim_first, 0.5), "sim_ms"),
        ],
    );
    if !trace {
        return;
    }

    // ---- per layer (traced run).
    let traced = traced.expect("traced sweeps ran");
    let traced_p50 = traced.p50_us();

    // Decompose the variants' streams in turn, each pass on fresh
    // replicas (the same cold-to-warm course as a measured round), until
    // the slice is up.
    let deadline = Instant::now() + Duration::from_secs_f64(slice);
    let fresh =
        |v: &Variant| Decomposer::new(wan_mediator(v.seed, true), wan_mediator(v.seed, true));
    let mut dec = fresh(&variants[0]);
    let mut request = traced.queries as u64;
    let mut wrong = 0u64;
    let mut pass = 0;
    loop {
        let i = pass % VARIANTS;
        for q in &variants[i].stream {
            let r = dec.sample_serial(&mut tracer, request, q);
            if answer_digest(&r.rows) != expected[i][q.as_str()] {
                wrong += 1;
            }
            request += 1;
        }
        pass += 1;
        if Instant::now() >= deadline {
            break;
        }
        dec.replace(fresh(&variants[pass % VARIANTS]));
    }
    report.check(
        wrong == 0,
        format!("{wrong} decomposed answers differ from the oracle"),
    );
    let layers = dec.finish(&tracer);
    let cpu_s = run.cpu_s + traced.cpu_s;
    let rounds = first.len() as f64;

    // Serving layers do not exist on this workload: they read 0.
    report.layer("serve.overhead_us", 0.0, "us");
    report.layer("serve.ping_us", 0.0, "us");
    report.layer("serve.pre_gate_shed", 0.0, "count");
    report.layer("serve.evicted", 0.0, "count");
    report.layer("serve.bad_frames", 0.0, "count");
    layers.report_frames(report);
    report.layer("server.query_us_p50", 0.0, "us");
    report.layer("server.query_us_p90", 0.0, "us");
    report.layer("server.shed", 0.0, "count");
    report.layer("server.downgraded", 0.0, "count");
    layers.report_pipeline(report);
    report.layer("cim.hit_ratio", ratio(total(|r| r.exact), lookups), "ratio");
    report.layer("cim.partial_ratio", partial_ratio, "ratio");
    report.layer("cim.evictions", 0.0, "count");
    report.layer("cim.invalidated", 0.0, "count");
    // Per round: the mean over the variants' first rounds.
    report.layer(
        "cim.answer_bytes",
        first.iter().map(|r| r.answer_bytes as f64).sum::<f64>() / rounds,
        "bytes",
    );
    report.layer("cim.lock_contention", 0.0, "count");
    report.layer("flight.coalesced_ratio", 0.0, "ratio");
    report.layer(
        "net.source_calls",
        total(|r| r.source_calls) / rounds,
        "count",
    );
    report.layer("net.source_busy_ms", 0.0, "ms");
    report.layer("load.gen_late_us_p50", 0.0, "us");
    report.layer("load.gen_late_us_p99", 0.0, "us");
    report.layer("load.client_cpu_s", 0.0, "s");
    report.layer("load.server_cpu_s", cpu_s, "s");
    layers.report_closing(report, traced_p50 - p50_us);
    report.note(format!(
        "tracing overhead: Mediator::query p50 {traced_p50:.1} us traced vs {p50_us:.1} us untraced ({:+.1} us); \
         DCSM estimate error mean {:.3} over the variants' first rounds",
        traced_p50 - p50_us,
        mean(&est_err)
    ));
    tracer.write("wan_join", seed, report);
}

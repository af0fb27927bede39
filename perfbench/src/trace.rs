//! The traced run: spans recorded around calls into each layer's public
//! API, kept in memory, written out at the end, and reduced to the
//! per-layer metrics.
//!
//! Each sampled query becomes one request of spans:
//!
//! ```text
//! request
//! ├─ serve.ping            WireClient::ping (reactor only)
//! ├─ server.query          ConcurrentMediator::query, as the workload left the cache
//! ├─ wire.query            WireClient::query
//! ├─ server.query.warm     ConcurrentMediator::query again, now warm
//! ├─ serial.query          Mediator::query on serial replica A
//! ├─ serial.pipeline       the same query on replica B, call by call:
//! │  ├─ lang.parse         parse_query
//! │  ├─ mediator.plan      Mediator::plan (parses, enumerates, costs)
//! │  ├─ cost.choose        choose_plan over the plans, on B's DCSM
//! │  └─ exec.execute       Mediator::execute
//! ├─ frame.encode          Frame::encode of the reply's Batch + Done frames
//! └─ frame.decode          Frame::decode_body of the same bytes
//! ```
//!
//! Replicas A and B are built alike and see the same calls in the same
//! order, so their caches and statistics stay in lockstep and B's calls
//! add up to A's `Mediator::query` — the closing check.

use crate::report::Report;
use crate::stats::{closing, mean, percentile, ratio, self_time_ns, sorted, Span};
use crate::wire::{WireSpec, SHARDS};
use crate::worlds::{answer_digest, serving_mediator, serving_query, SOURCES};
use hermes::common::shard_index;
use hermes::core::choose_plan;
use hermes::{
    parse_query, ConcurrentMediator, DoneFrame, Frame, Mediator, QueryFrame, QueryResult, Value,
    WireClient,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Tolerance of the closing check: the layers' self times must sum to
/// within this share of the whole `Mediator::query`.
pub const CLOSING_TOLERANCE: f64 = 0.2;

/// Encodes and decodes are repeated this often per sample and averaged,
/// since one takes well under a microsecond.
const FRAME_REPS: u32 = 16;

/// In-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, request: u64, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes a span.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(request, name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Adds spans a load phase recorded (times relative to `phase_start`).
    pub fn absorb(&mut self, spans: &[Span], phase_start: Instant) {
        let base = phase_start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let offset = self.spans.len();
        self.spans.extend(spans.iter().map(|s| Span {
            id: s.id + offset,
            parent: s.parent.map(|p| p + offset),
            start_ns: s.start_ns + base,
            end_ns: s.end_ns + base,
            ..s.clone()
        }));
    }

    /// Writes every span, one per line, to
    /// `perfbench/out/<workload>-<seed>.spans.tsv` under the working
    /// directory.
    pub fn write(&self, workload: &str, seed: u64, report: &mut Report) {
        let dir = std::path::Path::new("perfbench").join("out");
        let path = dir.join(format!("{workload}-{seed}.spans.tsv"));
        let written = std::fs::create_dir_all(&dir).and_then(|_| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(out, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
            for s in &self.spans {
                let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}",
                    s.request, s.id, parent, s.name, s.start_ns, s.end_ns
                )?;
            }
            out.flush()
        });
        match written {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                self.spans.len(),
                path.display()
            )),
            Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
        }
    }

    /// Duration and self time of every span, by request and name.
    fn requests(&self) -> BTreeMap<u64, BTreeMap<&'static str, (f64, f64)>> {
        let mut children: Vec<Vec<&Span>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push(s);
            }
        }
        let mut out: BTreeMap<u64, BTreeMap<&'static str, (f64, f64)>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.request).or_default().insert(
                s.name,
                (s.dur_ns() as f64, self_time_ns(s, &children[s.id]) as f64),
            );
        }
        out
    }
}

/// The two serial replicas of the decomposition.
pub struct Decomposer {
    a: Mediator,
    b: Mediator,
    est_err: Vec<f64>,
    plans: Vec<f64>,
    reply_bytes: Vec<f64>,
}

/// Per-layer figures reduced from the spans.
pub struct Layers {
    /// `wire.query − server.query.warm`, p50, µs.
    pub serve_overhead_us: f64,
    /// `serve.ping`, p50, µs.
    pub ping_us: f64,
    /// `server.query`, p50, µs.
    pub server_query_us_p50: f64,
    /// `server.query`, p90, µs.
    pub server_query_us_p90: f64,
    /// `wire.query`, p50, µs.
    pub wire_query_us: f64,
    parse_us: f64,
    enumerate_us: f64,
    choose_us: f64,
    execute_us: f64,
    serial_query_us: f64,
    glue_us: f64,
    /// Mean self time per layer and the mean whole, for the closing
    /// check.
    closing_parts_us: [f64; 4],
    closing_whole_us: f64,
    encode_us: f64,
    decode_us: f64,
    reply_bytes: f64,
    est_err: f64,
    plans_per_query: f64,
    samples: usize,
    spans: usize,
}

impl Decomposer {
    /// Replicas of the serving world: the same data and seed, sources
    /// without delay (the decomposition times CPU, not the 3 ms sleep),
    /// warmed with the server's warm-up queries.
    pub fn serving(spec: &WireSpec, seed: u64, warm_ids: &[u32]) -> Self {
        let replica = || {
            let mut m = serving_mediator(seed, spec.keys, Duration::ZERO);
            if let Some(bytes) = spec.answer_budget {
                // The server's budget is per CIM shard; the replica's one
                // cache gets the budgets of the shards the sources use.
                let mut shards: Vec<usize> = SOURCES
                    .iter()
                    .map(|(d, f)| shard_index(d, f, SHARDS))
                    .collect();
                shards.sort_unstable();
                shards.dedup();
                m.caches()
                    .policy()
                    .answer_budget(Some(bytes * shards.len()))
                    .apply()
                    .expect("serial budget applies");
            }
            for &id in warm_ids {
                m.query(serving_query(id, spec.keys))
                    .expect("replica warm-up");
            }
            m
        };
        Decomposer::new(replica(), replica())
    }

    /// Replicas handed in ready-made (the WAN workload builds its own).
    pub fn new(a: Mediator, b: Mediator) -> Self {
        Decomposer {
            a,
            b,
            est_err: Vec::new(),
            plans: Vec::new(),
            reply_bytes: Vec::new(),
        }
    }

    /// Swaps in fresh replicas, keeping what was measured so far.
    pub fn replace(&mut self, fresh: Decomposer) {
        self.a = fresh.a;
        self.b = fresh.b;
    }

    /// Applies one `invalidate_source` to both replicas.
    pub fn invalidate(&mut self, (domain, function): (&str, &str)) {
        self.a.caches().invalidate_source(domain, function);
        self.b.caches().invalidate_source(domain, function);
    }

    /// One sampled serving query, end to end and layer by layer. Returns
    /// the wire answer's digest for the oracle check.
    pub fn sample_wire(
        &mut self,
        tr: &mut Tracer,
        request: u64,
        text: &str,
        client: &mut WireClient,
        server: &ConcurrentMediator,
    ) -> u64 {
        let root = tr.begin(request, "request", None);
        tr.span(request, "serve.ping", Some(root), || client.ping())
            .expect("ping answers");
        tr.span(request, "server.query", Some(root), || server.query(text))
            .expect("in-process query answers");
        let wire = tr
            .span(request, "wire.query", Some(root), || {
                client.query(QueryFrame::new(text))
            })
            .expect("wire query answers");
        tr.span(request, "server.query.warm", Some(root), || {
            server.query(text)
        })
        .expect("in-process query answers");
        self.serial(tr, request, root, text);
        self.frames(tr, request, root, wire.rows.clone(), wire.done.clone());
        tr.end(root);
        answer_digest(&wire.rows)
    }

    /// One sampled query on the serial replicas only (no server).
    /// Returns replica A's result.
    pub fn sample_serial(&mut self, tr: &mut Tracer, request: u64, text: &str) -> QueryResult {
        let root = tr.begin(request, "request", None);
        let result = self.serial(tr, request, root, text);
        let done = DoneFrame {
            columns: result.columns.iter().map(|c| c.to_string()).collect(),
            rows: result.rows.len() as u64,
            ..DoneFrame::default()
        };
        self.frames(tr, request, root, result.rows.clone(), done);
        tr.end(root);
        result
    }

    fn serial(&mut self, tr: &mut Tracer, request: u64, root: usize, text: &str) -> QueryResult {
        // Whichever replica runs first pays for cold instruction and data
        // caches, so the two take turns going first.
        let a_first = request.is_multiple_of(2);
        let mut result = None;
        if a_first {
            result = Some(self.whole(tr, request, root, text));
        }
        let b_result = self.pipeline(tr, request, root, text);
        let result = result.unwrap_or_else(|| self.whole(tr, request, root, text));
        debug_assert_eq!(answer_digest(&b_result.rows), answer_digest(&result.rows));
        if let Some(est) = result.estimate.t_all_ms {
            let actual = result.t_all.as_millis_f64();
            if actual > 0.0 {
                self.est_err.push((est - actual).abs() / actual);
            }
        }
        self.plans.push(result.plans_considered as f64);
        result
    }

    /// Replica A: the whole `Mediator::query`.
    fn whole(&mut self, tr: &mut Tracer, request: u64, root: usize, text: &str) -> QueryResult {
        let a = &mut self.a;
        tr.span(request, "serial.query", Some(root), || a.query(text))
            .expect("replica A answers")
    }

    /// Replica B: the same query, call by call.
    fn pipeline(&mut self, tr: &mut Tracer, request: u64, root: usize, text: &str) -> QueryResult {
        let p = tr.begin(request, "serial.pipeline", Some(root));
        tr.span(request, "lang.parse", Some(p), || {
            black_box(parse_query(text))
        })
        .expect("query parses");
        let b = &mut self.b;
        let planned = tr
            .span(request, "mediator.plan", Some(p), || b.plan(text))
            .expect("replica B plans");
        tr.span(request, "cost.choose", Some(p), || {
            let dcsm = b.dcsm();
            let guard = dcsm.lock();
            black_box(choose_plan(
                &planned.plans,
                &*guard,
                &b.config().cost,
                b.config().optimize_first_answer,
            ))
        });
        let out = tr
            .span(request, "exec.execute", Some(p), || {
                b.execute(planned, None)
            })
            .expect("replica B executes");
        tr.end(p);
        out
    }

    fn frames(
        &mut self,
        tr: &mut Tracer,
        request: u64,
        root: usize,
        rows: Vec<Vec<Value>>,
        done: DoneFrame,
    ) {
        let frames = [Frame::Batch(rows), Frame::Done(done)];
        let bytes: Vec<Vec<u8>> = tr.span(request, "frame.encode", Some(root), || {
            let mut last = Vec::new();
            for _ in 0..FRAME_REPS {
                last = frames.iter().map(|f| black_box(f.encode())).collect();
            }
            last
        });
        tr.span(request, "frame.decode", Some(root), || {
            for _ in 0..FRAME_REPS {
                for b in &bytes {
                    black_box(Frame::decode_body(&b[4..]).expect("reply frame decodes"));
                }
            }
        });
        self.reply_bytes
            .push(bytes.iter().map(|b| b.len() as f64).sum());
    }

    /// Reduces the decomposition spans to per-layer figures.
    pub fn finish(&self, tr: &Tracer) -> Layers {
        let mut col: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut push = |k: &'static str, v: f64| col.entry(k).or_default().push(v / 1e3);
        let mut samples = 0;
        for spans in tr.requests().values() {
            let dur = |n: &str| spans.get(n).map(|&(d, _)| d);
            let (Some(parse), Some(plan), Some(choose), Some(exec), Some(whole)) = (
                dur("lang.parse"),
                dur("mediator.plan"),
                dur("cost.choose"),
                dur("exec.execute"),
                dur("serial.query"),
            ) else {
                continue; // a load-phase request, not a sampled one
            };
            samples += 1;
            push("parse", parse);
            // `Mediator::plan` parses and costs internally; those two
            // are timed on their own and subtracted.
            push("enumerate", plan - parse - choose);
            push("choose", choose);
            push("execute", exec);
            push("serial", whole);
            push("glue", spans["serial.pipeline"].1);
            push(
                "encode",
                dur("frame.encode").unwrap_or(0.0) / f64::from(FRAME_REPS),
            );
            push(
                "decode",
                dur("frame.decode").unwrap_or(0.0) / f64::from(FRAME_REPS),
            );
            if let (Some(w), Some(s)) = (dur("wire.query"), dur("server.query.warm")) {
                push("overhead", w - s);
                push("wire", w);
            }
            if let Some(p) = dur("serve.ping") {
                push("ping", p);
            }
            if let Some(s) = dur("server.query") {
                push("server", s);
            }
        }
        let get = |k: &str| col.get(k).cloned().unwrap_or_default();
        let p = |k: &str, q: f64| percentile(&sorted(get(k)), q);
        Layers {
            serve_overhead_us: p("overhead", 0.5),
            ping_us: p("ping", 0.5),
            server_query_us_p50: p("server", 0.5),
            server_query_us_p90: p("server", 0.9),
            wire_query_us: p("wire", 0.5),
            parse_us: p("parse", 0.5),
            enumerate_us: p("enumerate", 0.5),
            choose_us: p("choose", 0.5),
            execute_us: p("execute", 0.5),
            serial_query_us: p("serial", 0.5),
            glue_us: p("glue", 0.5),
            closing_parts_us: [
                mean(&get("parse")),
                mean(&get("enumerate")),
                mean(&get("choose")),
                mean(&get("execute")),
            ],
            closing_whole_us: mean(&get("serial")),
            encode_us: p("encode", 0.5),
            decode_us: p("decode", 0.5),
            reply_bytes: mean(&self.reply_bytes),
            est_err: percentile(&sorted(self.est_err.clone()), 0.5),
            plans_per_query: mean(&self.plans),
            samples,
            spans: tr.spans.len(),
        }
    }
}

impl Layers {
    /// The `frame.*` metrics.
    pub fn report_frames(&self, report: &mut Report) {
        report.layer("frame.encode_us", self.encode_us, "us");
        report.layer("frame.decode_us", self.decode_us, "us");
        report.layer("frame.reply_bytes", self.reply_bytes, "bytes");
    }

    /// The serial pipeline's metrics: `lang`, `rewrite`, `cost`, `dcsm`,
    /// `exec`.
    pub fn report_pipeline(&self, report: &mut Report) {
        report.layer("lang.parse_us", self.parse_us, "us");
        report.layer("rewrite.enumerate_us", self.enumerate_us, "us");
        report.layer("rewrite.plans_per_query", self.plans_per_query, "count");
        report.layer("cost.choose_us", self.choose_us, "us");
        report.layer("dcsm.est_err", self.est_err, "ratio");
        report.layer("exec.execute_us", self.execute_us, "us");
    }

    /// The closing check, the tracing overhead, and the trace's size.
    pub fn report_closing(&self, report: &mut Report, overhead_us: f64) {
        let (r, ok) = closing(
            &self.closing_parts_us,
            self.closing_whole_us,
            CLOSING_TOLERANCE,
        );
        report.check(
            ok,
            format!(
                "closing check: layer self times sum to {r:.3} of Mediator::query, outside ±{CLOSING_TOLERANCE}"
            ),
        );
        report.check(self.samples > 0, "no query was decomposed");
        report.layer("trace.serial_query_us", self.serial_query_us, "us");
        report.layer(
            "trace.layer_sum_us",
            self.closing_parts_us.iter().sum::<f64>(),
            "us",
        );
        report.layer("trace.closing_ratio", r, "ratio");
        report.layer("trace.glue_us", self.glue_us, "us");
        report.layer("trace.wire_query_us", self.wire_query_us, "us");
        report.layer("trace.overhead_us", overhead_us, "us");
        report.layer("trace.samples", self.samples as f64, "count");
        report.layer("trace.spans", self.spans as f64, "count");
        report.layer("trace.closing_ok", if ok { 1.0 } else { 0.0 }, "bool");
        report.note(format!(
            "closing check: parse {:.2} + enumerate {:.2} + choose {:.2} + execute {:.2} = {:.2} us (means) vs Mediator::query {:.2} us: ratio {r:.3}, tolerance ±{CLOSING_TOLERANCE}, {} samples — {}",
            self.closing_parts_us[0],
            self.closing_parts_us[1],
            self.closing_parts_us[2],
            self.closing_parts_us[3],
            self.closing_parts_us.iter().sum::<f64>(),
            self.closing_whole_us,
            self.samples,
            if ok { "closes" } else { "DOES NOT CLOSE" }
        ));
        if self.wire_query_us > 0.0 {
            report.note(format!(
                "serve split (p50): wire query {:.1} us, ping {:.1} us, in-process query {:.1} us, serve overhead {:.1} us ({:.0}% of wire)",
                self.wire_query_us,
                self.ping_us,
                self.server_query_us_p50,
                self.serve_overhead_us,
                100.0 * ratio(self.serve_overhead_us, self.wire_query_us)
            ));
        }
    }
}

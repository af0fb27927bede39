//! The serving workloads, `hot_point` and `churn_point`: a `NetServer`
//! on loopback driven by the benchmark's own load generator.
//!
//! The generator is one process with at most `nproc` threads. The
//! open-loop phase sends each request at its due time on a fixed-rate
//! schedule and times it from that due time; how late the sender ran is
//! reported as `load.gen_late_us`. The closed-loop phase keeps a fixed
//! number of pipelined queries in flight on each of `nproc` connections
//! and counts answers per second.
//!
//! The untraced run alternates `CYCLES` closed-loop and open-loop
//! phases, so a disturbance of the shared machine that lasts seconds
//! falls on both kinds alike. Each phase is cut into `WINDOWS` windows;
//! a timing is the median of its per-window figures over all phases of
//! its kind, so a disturbance has to reach half the windows to move it.

use crate::report::Report;
use crate::stats::{
    latency_from_due_ns, lateness_ns, mean, median, percentile, poisson_due_ns, ratio, sorted,
    window, window_figures, Schedule, Span,
};
use crate::sys;
use crate::trace::{Decomposer, Tracer};
use crate::worlds::{
    answer_digest, serving_mediator, serving_query, serving_stream, Oracle, FORMS, SOURCES,
};
use hermes::common::Rng64;
use hermes::{
    CacheSnapshot, ConcurrentMediator, Frame, FrameDecoder, HermesError, NetServer, NetServerStats,
    QueryFrame, ServeConfig, ServerStats, Value, WireClient,
};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One serving workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct WireSpec {
    /// Workload name.
    pub name: &'static str,
    /// Keys per relation.
    pub keys: usize,
    /// Zipf exponent of the key draw.
    pub skew: f64,
    /// Real time slept per source call.
    pub delay: Duration,
    /// Answer-cache byte budget per CIM shard (`None`: unbounded).
    pub answer_budget: Option<usize>,
    /// Period of the `invalidate_source` stream (`None`: no stream).
    pub invalidate_every: Option<Duration>,
    /// Warm-up queries (`None`: every distinct query once).
    pub warm: Option<usize>,
    /// Open-loop arrival rate, queries per second.
    pub rate: u64,
    /// Poisson arrivals at `rate` rather than a fixed period. A fixed
    /// period locks into step with `churn_point`'s 3 ms source calls, so
    /// its latencies fall on a staircase; Poisson bursts at `hot_point`'s
    /// rate queue up on two cores and its tail stops repeating.
    pub poisson: bool,
    /// Closed-loop pipeline depth per connection.
    pub depth: usize,
}

/// Warm cache hits only: 4 forms × 64 keys, every call an exact CIM hit.
pub const HOT_POINT: WireSpec = WireSpec {
    name: "hot_point",
    keys: 64,
    skew: 1.1,
    delay: Duration::from_millis(3),
    answer_budget: None,
    invalidate_every: None,
    warm: None,
    rate: 8_000,
    poisson: false,
    depth: 8,
};

/// Writes beside reads: a key space far beyond the answer-cache budget,
/// a fixed invalidation stream, and a 3 ms source call on every miss.
pub const CHURN_POINT: WireSpec = WireSpec {
    name: "churn_point",
    keys: 4_096,
    skew: 1.1,
    delay: Duration::from_millis(3),
    answer_budget: Some(2 * 1024),
    invalidate_every: Some(Duration::from_millis(500)),
    warm: Some(4_000),
    rate: 750,
    poisson: true,
    depth: 8,
};

/// CIM shards of the served mediator (the `hermes-serve` default).
pub(crate) const SHARDS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Closed/open phase pairs of an untraced run.
const CYCLES: usize = 5;
/// Windows per phase.
const WINDOWS: usize = 10;
/// Length of the measured query stream (it wraps).
const STREAM_LEN: usize = 1 << 16;

/// Generator threads: one per core.
fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A live server with the closed-loop connections, warmed.
struct Served {
    net: NetServer,
    clients: Vec<WireClient>,
}

fn serve_config() -> ServeConfig {
    // The pipeline cap is far above anything the generator keeps in
    // flight, so the generator's own bursts are never shed.
    ServeConfig::builder()
        .workers(8)
        .pipeline_depth(4096)
        .queue_depth(8192)
        .wall_clock(true)
        .build()
}

/// Builds the world, binds, connects, and warms. Returns the server and
/// how many warm-up answers differed from `expected`.
fn set_up(spec: &WireSpec, seed: u64, warm_ids: &[u32], expected: &[u64]) -> (Served, u64) {
    let mediator = serving_mediator(seed, spec.keys, spec.delay);
    let server = Arc::new(mediator.to_concurrent(SHARDS));
    if let Some(bytes) = spec.answer_budget {
        server
            .caches()
            .policy()
            .answer_budget(Some(bytes))
            .apply()
            .expect("answer budget applies");
    }
    let net = NetServer::bind(server, "127.0.0.1:0", serve_config()).expect("bind loopback");
    let mut clients: Vec<WireClient> = (0..generator_threads())
        .map(|_| WireClient::connect(net.addr()).expect("connect loopback"))
        .collect();
    let mismatches = warm(&mut clients, warm_ids, spec, expected);
    (Served { net, clients }, mismatches)
}

/// Runs `ids` to completion over the connections, `depth` pipelined per
/// connection, on this thread. Returns answers that differ from
/// `expected`.
fn warm(clients: &mut [WireClient], ids: &[u32], spec: &WireSpec, expected: &[u64]) -> u64 {
    let mut queues: Vec<VecDeque<u32>> = vec![VecDeque::new(); clients.len()];
    let mut mismatches = 0;
    let mut next = 0;
    while next < ids.len() || queues.iter().any(|q| !q.is_empty()) {
        for (c, client) in clients.iter_mut().enumerate() {
            while queues[c].len() < spec.depth && next < ids.len() {
                client
                    .send_query(QueryFrame::new(serving_query(ids[next], spec.keys)))
                    .expect("warm-up send");
                queues[c].push_back(ids[next]);
                next += 1;
            }
            if let Some(id) = queues[c].pop_front() {
                let r = client.recv_result().expect("warm-up query answers");
                if answer_digest(&r.rows) != expected[id as usize] {
                    mismatches += 1;
                }
            }
        }
    }
    mismatches
}

/// What one generator thread saw in one phase.
#[derive(Default)]
struct ConnTally {
    issued: u64,
    answered: u64,
    shed: u64,
    query_errors: u64,
    transport_errors: u64,
    mismatches: u64,
    /// Latency of each answered open-loop query, with its due time.
    latency_ns: Vec<(u64, f64)>,
    late_ns: Vec<f64>,
    /// Closed-loop answers completed in each window.
    done_per_window: [u64; WINDOWS],
    /// Per-thread CPU snapshots at closed-loop window starts (thread 0).
    cpu_marks: Vec<HashMap<u32, f64>>,
    spans: Vec<Span>,
    invalidated: u64,
    cpu_s: f64,
}

impl ConnTally {
    /// Counts one reply; false when the connection is gone.
    fn absorb(
        &mut self,
        id: u32,
        outcome: hermes::Result<Vec<Vec<Value>>>,
        expected: &[u64],
    ) -> bool {
        match outcome {
            Ok(rows) => {
                self.answered += 1;
                if answer_digest(&rows) != expected[id as usize] {
                    self.mismatches += 1;
                }
                true
            }
            Err(HermesError::Shed { .. }) => {
                self.shed += 1;
                true
            }
            Err(HermesError::Io(_)) => {
                self.transport_errors += 1;
                false
            }
            Err(_) => {
                self.query_errors += 1;
                true
            }
        }
    }
}

/// The fixed `invalidate_source` schedule, run from a generator thread.
struct Invalidator {
    server: Arc<ConcurrentMediator>,
    period_ns: u64,
    fired: u64,
}

impl Invalidator {
    fn new(served: &Served, spec: &WireSpec) -> Option<Self> {
        spec.invalidate_every.map(|p| Invalidator {
            server: served.net.mediator().clone(),
            period_ns: p.as_nanos() as u64,
            fired: 0,
        })
    }

    /// Fires every invalidation due by `now_ns`, cycling through the
    /// four sources. Returns answer entries dropped.
    fn tick(&mut self, now_ns: u64, end_ns: u64) -> u64 {
        let mut dropped = 0;
        while (self.fired + 1) * self.period_ns <= now_ns.min(end_ns) {
            let (domain, function) = SOURCES[self.fired as usize % SOURCES.len()];
            dropped += self
                .server
                .caches()
                .invalidate_source(domain, function)
                .answers_dropped as u64;
            self.fired += 1;
        }
        dropped
    }
}

/// Shared inputs of one phase.
struct Phase<'a> {
    stream: &'a [u32],
    keys: usize,
    expected: &'a [u64],
    t0: Instant,
    duration_ns: u64,
    conns: usize,
    traced: bool,
    /// Kernel ids of the generator's threads, excluded from server CPU.
    generator: Mutex<Vec<u32>>,
}

impl<'a> Phase<'a> {
    fn new(
        stream: &'a [u32],
        spec: &WireSpec,
        expected: &'a [u64],
        seconds: f64,
        conns: usize,
        traced: bool,
    ) -> Self {
        Phase {
            stream,
            keys: spec.keys,
            expected,
            t0: Instant::now(),
            duration_ns: (seconds * 1e9) as u64,
            conns,
            traced,
            generator: Mutex::new(vec![sys::current_tid()]),
        }
    }

    /// Registers the calling thread as a generator thread and returns
    /// its CPU clock reading.
    fn enter(&self) -> Duration {
        let tid = sys::current_tid();
        let mut ids = self.generator.lock().expect("generator list lock");
        if !ids.contains(&tid) {
            ids.push(tid);
        }
        sys::thread_cpu()
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn query(&self, k: u64) -> (u32, QueryFrame) {
        let id = self.stream[k as usize % self.stream.len()];
        (id, QueryFrame::new(serving_query(id, self.keys)))
    }

    /// Closes the phase.
    fn result(&self, conns: Vec<ConnTally>, before: &HashMap<u32, f64>) -> PhaseResult {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let after = sys::task_cpu();
        let generator = self.generator.lock().expect("generator list lock").clone();
        // Server CPU per window, from thread 0's snapshots (closed loop).
        let marks = &conns[0].cpu_marks;
        let window_cpu: Vec<f64> = marks
            .windows(2)
            .map(|m| sys::cpu_between(&m[0], &m[1], &generator))
            .collect();
        PhaseResult {
            server_cpu_s: sys::cpu_between(before, &after, &generator),
            client_cpu_s: conns.iter().map(|c| c.cpu_s).sum(),
            wall_s,
            start: self.t0,
            duration_ns: self.duration_ns,
            window_cpu,
            conns,
        }
    }
}

fn finish(mut t: ConnTally, cpu0: Duration) -> ConnTally {
    t.cpu_s = (sys::thread_cpu() - cpu0).as_secs_f64();
    t
}

/// The open loop's due times: Poisson or fixed-period arrivals at the
/// workload's rate.
fn arrivals(spec: &WireSpec, seed: u64, duration_ns: u64) -> Vec<u64> {
    if spec.poisson {
        let mut rng = Rng64::new(seed ^ 0xA771_7A15);
        poisson_due_ns(spec.rate, duration_ns, || rng.f64())
    } else {
        let fixed = Schedule { rate: spec.rate };
        (0..)
            .map(|k| fixed.due_ns(k))
            .take_while(|&d| d < duration_ns)
            .collect()
    }
}

/// One reply the open-loop receiver waits for, in send order.
struct Pending {
    id: u32,
    k: u64,
    due: u64,
    sent: u64,
}

/// The open-loop sender: sleeps until each request's due time, writes
/// its `Query` frame, and hands the receiver its due time. Also drives
/// the invalidation stream.
fn send_open(
    sockets: &[TcpStream],
    queues: &[mpsc::Sender<Option<Pending>>],
    phase: &Phase,
    schedule: &[u64],
    mut inval: Option<&mut Invalidator>,
) -> ConnTally {
    sys::tight_timer_slack();
    let cpu0 = phase.enter();
    let mut t = ConnTally {
        late_ns: Vec::with_capacity(schedule.len()),
        ..ConnTally::default()
    };
    let mut k = 0u64;
    while let Some(&due) = schedule.get(k as usize) {
        let now = phase.now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
            continue;
        }
        let (id, frame) = phase.query(k);
        let conn = k as usize % sockets.len();
        queues[conn]
            .send(Some(Pending {
                id,
                k,
                due,
                sent: now,
            }))
            .expect("receiver outlives the sender");
        t.issued += 1;
        if (&sockets[conn])
            .write_all(&Frame::Query(frame).encode())
            .is_err()
        {
            break; // the receiver counts the broken connection
        }
        t.late_ns.push(lateness_ns(due, now) as f64);
        if let Some(inv) = inval.as_deref_mut() {
            t.invalidated += inv.tick(now, phase.duration_ns);
        }
        k += 1;
    }
    finish(t, cpu0)
}

/// The open-loop receiver of one connection: blocks on the socket,
/// reassembles each reply, and times it from its due time.
fn receive_open(
    mut sock: TcpStream,
    queue: mpsc::Receiver<Option<Pending>>,
    phase: &Phase,
    capacity: usize,
) -> ConnTally {
    let cpu0 = phase.enter();
    let mut t = ConnTally {
        latency_ns: Vec::with_capacity(capacity),
        ..ConnTally::default()
    };
    let mut decoder = FrameDecoder::new();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    while let Ok(Some(p)) = queue.recv() {
        let outcome = loop {
            match decoder.next_frame() {
                Ok(Some(Frame::Batch(mut batch))) => {
                    rows.append(&mut batch);
                    continue;
                }
                Ok(Some(Frame::Done(_))) => break Ok(std::mem::take(&mut rows)),
                Ok(Some(Frame::Error(e))) => {
                    rows.clear();
                    break Err(e.into_error());
                }
                Ok(Some(other)) => break Err(HermesError::Io(format!("unexpected {other:?}"))),
                Ok(None) => {}
                Err(e) => break Err(HermesError::Io(e.to_string())),
            }
            match sock.read(&mut buf) {
                Ok(0) => break Err(HermesError::Io("server closed the connection".into())),
                Ok(n) => decoder.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(HermesError::Io(e.to_string())),
            }
        };
        let done = phase.now_ns();
        if !t.absorb(p.id, outcome, phase.expected) {
            // The connection is gone: everything still queued is lost.
            while let Ok(Some(_)) = queue.recv() {
                t.transport_errors += 1;
            }
            break;
        }
        t.latency_ns
            .push((p.due, latency_from_due_ns(p.due, done) as f64));
        if phase.traced {
            t.spans.push(Span {
                id: t.spans.len(),
                parent: None,
                request: p.k,
                name: "wire.request",
                start_ns: p.sent,
                end_ns: done,
            });
        }
    }
    finish(t, cpu0)
}

/// The open-loop phase. `WireClient` can block on a reply or sleep to a
/// due time but not both, so each connection is split: one sender
/// thread writes every connection's queries on schedule, and one
/// receiver thread per connection blocks on its socket — `nproc`
/// threads in all.
fn open_phase(
    served: &Served,
    stream: &[u32],
    spec: &WireSpec,
    seed: u64,
    expected: &[u64],
    seconds: f64,
    traced: bool,
) -> PhaseResult {
    let conns = generator_threads().saturating_sub(1).max(1);
    let sockets: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(served.net.addr()).expect("connect loopback");
            s.set_nodelay(true).expect("TCP_NODELAY");
            s
        })
        .collect();
    let mut inval = Invalidator::new(served, spec);
    let phase = Phase::new(stream, spec, expected, seconds, conns, traced);
    let schedule = arrivals(spec, seed, phase.duration_ns);
    let capacity = schedule.len() / conns + 16;
    let before = sys::task_cpu();
    let tallies: Vec<ConnTally> = std::thread::scope(|s| {
        let mut queues = Vec::new();
        let mut receivers = Vec::new();
        for sock in &sockets {
            let (tx, rx) = mpsc::channel();
            let reader = sock.try_clone().expect("socket clones");
            let phase = &phase;
            queues.push(tx);
            receivers.push(s.spawn(move || receive_open(reader, rx, phase, capacity)));
        }
        let mut all = vec![send_open(
            &sockets,
            &queues,
            &phase,
            &schedule,
            inval.as_mut(),
        )];
        for q in &queues {
            q.send(None).expect("receiver outlives the sender");
        }
        all.extend(
            receivers
                .into_iter()
                .map(|h| h.join().expect("receiver thread completes")),
        );
        all
    });
    phase.result(tallies, &before)
}

/// Closed loop on one connection: `depth` queries always in flight.
/// Connection 0 also drives the invalidation stream and snapshots
/// per-thread CPU at each window start.
fn drive_closed(
    client: &mut WireClient,
    phase: &Phase,
    depth: usize,
    conn: usize,
    mut inval: Option<&mut Invalidator>,
) -> ConnTally {
    let cpu0 = phase.enter();
    let mut t = ConnTally::default();
    let window_ns = phase.duration_ns / WINDOWS as u64;
    if conn == 0 {
        t.cpu_marks.push(sys::task_cpu());
    }
    let mut k = conn as u64;
    let mut in_flight: VecDeque<(u32, u64, u64)> = VecDeque::new();
    loop {
        let now = phase.now_ns();
        let sending = now < phase.duration_ns;
        while sending && in_flight.len() < depth {
            let (id, frame) = phase.query(k);
            t.issued += 1;
            if client.send_query(frame).is_err() {
                t.transport_errors += 1 + in_flight.len() as u64;
                return finish(t, cpu0);
            }
            in_flight.push_back((id, k, phase.now_ns()));
            k += phase.conns as u64;
        }
        if conn == 0 && t.cpu_marks.len() <= WINDOWS && now >= t.cpu_marks.len() as u64 * window_ns
        {
            t.cpu_marks.push(sys::task_cpu());
        }
        if let Some(inv) = inval.as_deref_mut() {
            t.invalidated += inv.tick(now, phase.duration_ns);
        }
        if in_flight.is_empty() {
            break;
        }
        // Block for the oldest reply, then take whatever else arrived.
        let mut outcome = Some(client.recv_result());
        while let Some(o) = outcome.take() {
            let done = phase.now_ns();
            let (id, gk, sent) = in_flight.pop_front().expect("a query is in flight");
            if !t.absorb(id, o.map(|r| r.rows), phase.expected) {
                t.transport_errors += in_flight.len() as u64;
                return finish(t, cpu0);
            }
            if done < phase.duration_ns {
                t.done_per_window[window(done, phase.duration_ns, WINDOWS)] += 1;
            }
            if phase.traced {
                t.spans.push(Span {
                    id: t.spans.len(),
                    parent: None,
                    request: gk,
                    name: "wire.request",
                    start_ns: sent,
                    end_ns: done,
                });
            }
            if !in_flight.is_empty() {
                match client.poll_result() {
                    Ok(next) => outcome = next,
                    Err(_) => {
                        t.transport_errors += in_flight.len() as u64;
                        return finish(t, cpu0);
                    }
                }
            }
        }
    }
    finish(t, cpu0)
}

/// The closed-loop phase: every connection on its own thread, thread 0
/// on this one.
fn closed_phase(
    served: &mut Served,
    stream: &[u32],
    spec: &WireSpec,
    expected: &[u64],
    seconds: f64,
    traced: bool,
) -> PhaseResult {
    let mut inval = Invalidator::new(served, spec);
    let phase = Phase::new(
        stream,
        spec,
        expected,
        seconds,
        served.clients.len(),
        traced,
    );
    let before = sys::task_cpu();
    let (first, rest) = served.clients.split_first_mut().expect("one connection");
    let tallies: Vec<ConnTally> = std::thread::scope(|s| {
        let phase = &phase;
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                s.spawn(move || drive_closed(client, phase, spec.depth, i + 1, None))
            })
            .collect();
        let mut all = vec![drive_closed(first, phase, spec.depth, 0, inval.as_mut())];
        all.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread completes")),
        );
        all
    });
    phase.result(tallies, &before)
}

/// A phase's tallies plus the server-side CPU it cost.
struct PhaseResult {
    conns: Vec<ConnTally>,
    server_cpu_s: f64,
    client_cpu_s: f64,
    wall_s: f64,
    start: Instant,
    duration_ns: u64,
    /// Server CPU seconds in each window (closed loop only).
    window_cpu: Vec<f64>,
}

impl PhaseResult {
    fn sum(&self, f: impl Fn(&ConnTally) -> u64) -> u64 {
        self.conns.iter().map(f).sum()
    }

    /// Open-loop latency percentile `p` of each window, in µs.
    fn latency_us(&self, p: f64) -> Vec<f64> {
        let samples: Vec<(u64, f64)> = self
            .conns
            .iter()
            .flat_map(|c| c.latency_ns.iter().copied())
            .collect();
        window_figures(&samples, self.duration_ns, WINDOWS, p)
            .into_iter()
            .map(|ns| ns / 1e3)
            .collect()
    }

    fn latency_samples(&self) -> usize {
        self.conns.iter().map(|c| c.latency_ns.len()).sum()
    }

    fn done_in(&self, w: usize) -> f64 {
        self.conns.iter().map(|c| c.done_per_window[w]).sum::<u64>() as f64
    }

    /// Closed-loop answers per second of each window.
    fn qps(&self) -> Vec<f64> {
        let window_s = self.duration_ns as f64 / 1e9 / WINDOWS as f64;
        (0..WINDOWS).map(|w| self.done_in(w) / window_s).collect()
    }

    /// Closed-loop server CPU per answered query of each window, µs.
    fn cpu_us_per_query(&self) -> Vec<f64> {
        self.window_cpu
            .iter()
            .enumerate()
            .map(|(w, cpu)| ratio(cpu * 1e6, self.done_in(w)))
            .collect()
    }
}

/// Reads `section.field` from a `Stats` frame's nested record.
fn stat(stats: &Value, section: &str, field: &str) -> Option<i64> {
    let Value::Record(rec) = stats else {
        return None;
    };
    let Some(Value::Record(sec)) = rec.get(section) else {
        return None;
    };
    match sec.get(field) {
        Some(Value::Int(n)) => Some(*n),
        _ => None,
    }
}

/// The gate invariant, from the server's own `Stats` frame.
fn gate_check(client: &mut WireClient) -> Result<(), String> {
    let stats = client
        .stats()
        .map_err(|e| format!("stats frame failed: {e}"))?;
    let field =
        |name: &str| stat(&stats, "server", name).ok_or(format!("stats frame lacks server.{name}"));
    let (q, a, s) = (field("queries")?, field("admitted")?, field("shed")?);
    if a + s == q {
        Ok(())
    } else {
        Err(format!(
            "gate invariant broken: admitted {a} + shed {s} != queries {q}"
        ))
    }
}

/// Counters read around the load phases.
struct Counters {
    server: ServerStats,
    caches: CacheSnapshot,
    net: NetServerStats,
}

fn counters(served: &Served) -> Counters {
    let m = served.net.mediator();
    Counters {
        server: m.stats(),
        caches: m.caches().stats(),
        net: served.net.net_stats(),
    }
}

/// Runs a serving workload and fills `report`.
pub fn run(spec: &WireSpec, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let distinct = (FORMS * spec.keys) as u32;
    let warm_ids: Vec<u32> = match spec.warm {
        None => (0..distinct).collect(),
        Some(n) => serving_stream(seed ^ 0xAA55, spec.keys, spec.skew, n),
    };
    let stream = serving_stream(seed, spec.keys, spec.skew, STREAM_LEN);
    // The serial oracle's answer to every query the workload can ask.
    let mut oracle = Oracle::serving(seed, spec.keys);
    let expected: Vec<u64> = (0..distinct)
        .map(|id| oracle.digest(&serving_query(id, spec.keys)))
        .collect();

    // Set up several times; keep the last server.
    let mut setups = Vec::new();
    let mut kept = None;
    let mut mismatches = 0;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (served, wrong) = set_up(spec, seed, &warm_ids, &expected);
        setups.push(t.elapsed().as_secs_f64());
        mismatches += wrong;
        if i + 1 == SETUPS {
            kept = Some(served);
        } else {
            drop(served.clients);
            served.net.shutdown();
        }
    }
    let mut served = kept.expect("at least one set-up");

    // Phases: trace 0 = CYCLES × (closed, open); trace 1 = closed
    // traced, open untraced, open traced, then the per-layer
    // decomposition. Every open loop follows a closed one, so each
    // starts from the same state of the server's worker pool.
    let cycles = if trace { 1 } else { CYCLES };
    let slice = seconds / if trace { 4.0 } else { 2.0 * CYCLES as f64 };
    let before = counters(&served);
    let mut phases: Vec<PhaseResult> = Vec::new();
    let mut untraced_p50 = None;
    let (mut open_idx, mut closed_idx, mut gate) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..cycles {
        closed_idx.push(phases.len());
        phases.push(closed_phase(
            &mut served,
            &stream,
            spec,
            &expected,
            slice,
            trace,
        ));
        gate.push(gate_check(&mut served.clients[0]));
        if trace {
            let r = open_phase(&served, &stream, spec, seed, &expected, slice, false);
            untraced_p50 = Some(median(&r.latency_us(0.5)));
            phases.push(r);
        }
        open_idx.push(phases.len());
        phases.push(open_phase(
            &served, &stream, spec, seed, &expected, slice, trace,
        ));
        gate.push(gate_check(&mut served.clients[0]));
    }
    let after = counters(&served);

    // ---- correctness.
    let total = |f: &dyn Fn(&ConnTally) -> u64| -> u64 { phases.iter().map(|p| p.sum(f)).sum() };
    let issued = total(&|c| c.issued);
    let answered = total(&|c| c.answered);
    let shed = total(&|c| c.shed);
    let query_errors = total(&|c| c.query_errors);
    let transport = total(&|c| c.transport_errors);
    let invalidated = total(&|c| c.invalidated);
    mismatches += total(&|c| c.mismatches);
    let failed = shed + query_errors + transport + mismatches;
    report.attempted = issued;
    report.failed = failed;
    report.check(
        mismatches == 0,
        format!("{mismatches} answers differ from the serial oracle"),
    );
    report.check(
        answered + shed + query_errors + transport == issued,
        format!(
            "issued {issued} but answered {answered}, shed {shed}, errors {query_errors}, transport {transport}"
        ),
    );
    for g in gate {
        if let Err(e) = g {
            report.check(false, e);
        }
    }

    // ---- end to end: per-window figures pooled over the phases of a
    // kind, then their median.
    let pooled = |idx: &[usize], f: &dyn Fn(&PhaseResult) -> Vec<f64>| -> Vec<f64> {
        idx.iter().flat_map(|&i| f(&phases[i])).collect()
    };
    let p50_windows = pooled(&open_idx, &|p| p.latency_us(0.5));
    let qps_windows = pooled(&closed_idx, &|p| p.qps());
    let cpu_windows = pooled(&closed_idx, &|p| p.cpu_us_per_query());
    let p50_us = median(&p50_windows);
    let p90_us = median(&pooled(&open_idx, &|p| p.latency_us(0.9)));
    let source_calls = after.server.source_calls - before.server.source_calls;
    let (c0, c1) = (before.caches.cim, after.caches.cim);
    let exact = (c1.exact_hits - c0.exact_hits) + (c1.equal_hits - c0.equal_hits);
    let partial = c1.partial_hits - c0.partial_hits;
    let lookups = (exact + partial + (c1.misses - c0.misses)) as f64;
    let hit_ratio = ratio(exact as f64, lookups);
    let source_calls_per_query = ratio(source_calls as f64, answered as f64);
    let evictions = after.caches.answers.evictions - before.caches.answers.evictions;
    report.e2e("p50_us", p50_us, "us");
    report.e2e("peak_qps", median(&qps_windows), "1/s");
    report.e2e("server_cpu_us_per_query", median(&cpu_windows), "us");
    report.e2e("setup_s", median(&setups), "s");
    report.e2e("peak_rss_mb", sys::peak_rss_mb(), "MiB");
    let open_samples: usize = open_idx.iter().map(|&i| phases[i].latency_samples()).sum();
    report.note(format!(
        "{}: {cycles} × (closed loop on {} connections at depth {}, {slice:.2} s; \
         open loop {} qps over {} connection(s) and 1 sender thread, {slice:.2} s); \
         {open_samples} latency samples; timings are the median of {WINDOWS} windows per phase",
        spec.name,
        served.clients.len(),
        spec.depth,
        spec.rate,
        generator_threads().saturating_sub(1).max(1),
    ));
    for (name, windows) in [
        ("p50_us", &p50_windows),
        ("peak_qps", &qps_windows),
        ("server_cpu_us_per_query", &cpu_windows),
    ] {
        let w = sorted(windows.clone());
        report.note(format!(
            "{name} over {} windows: min {:.1}, first quartile {:.1}, median {:.1}, third quartile {:.1}, max {:.1}",
            w.len(),
            percentile(&w, 0.0),
            percentile(&w, 0.25),
            percentile(&w, 0.5),
            percentile(&w, 0.75),
            percentile(&w, 1.0),
        ));
    }
    report.note(format!(
        "cim.hit_ratio {hit_ratio}; {} answer entries ({} bytes), {evictions} evictions, {invalidated} invalidated",
        after.caches.answer_entries, after.caches.answer_bytes,
    ));
    // Virtual-time metrics belong to the simulated WAN only.
    report.unbounded(
        trace,
        &[
            ("p90_us", p90_us, "us"),
            ("error_ratio", ratio(failed as f64, issued as f64), "ratio"),
            ("source_calls_per_query", source_calls_per_query, "count"),
            ("sim_t_all_ms_p50", 0.0, "sim_ms"),
            ("sim_t_all_ms_p90", 0.0, "sim_ms"),
            ("sim_t_first_ms_p50", 0.0, "sim_ms"),
        ],
    );

    // Acceptance checks on each workload's seed behaviour.
    if spec.invalidate_every.is_none() {
        report.check(
            source_calls == 0,
            format!("{source_calls} source calls after warm-up"),
        );
        report.check(
            hit_ratio == 1.0,
            format!("CIM hit ratio {hit_ratio} after warm-up"),
        );
    } else {
        report.check(
            hit_ratio > 0.0 && hit_ratio < 1.0,
            format!("CIM hit ratio {hit_ratio} not strictly between 0 and 1"),
        );
        report.check(source_calls > 0, "no source calls under churn");
    }
    if !trace {
        served.net.shutdown();
        return;
    }

    // ---- per layer (traced run).
    let late = sorted(
        phases
            .iter()
            .flat_map(|p| p.conns.iter().flat_map(|c| c.late_ns.iter().copied()))
            .collect(),
    );
    let client_cpu: f64 = phases.iter().map(|p| p.client_cpu_s).sum();
    let server_cpu: f64 = phases.iter().map(|p| p.server_cpu_s).sum();
    let phase_wall: f64 = phases.iter().map(|p| p.wall_s).sum();
    let mut tracer = Tracer::default();
    for p in &phases {
        for c in &p.conns {
            tracer.absorb(&c.spans, p.start);
        }
    }

    // Decompose sampled queries on this server and on two serial
    // replicas kept in lockstep; the replicas see the invalidation
    // stream at the same rate per query as the server did.
    let mut dec = Decomposer::serving(spec, seed, &warm_ids);
    let inval_every = spec
        .invalidate_every
        .map(|p| ((spec.rate as f64 * p.as_secs_f64()) as usize).max(1));
    let deadline = Instant::now() + Duration::from_secs_f64(slice);
    let mut client = WireClient::connect(served.net.addr()).expect("connect loopback");
    let mut wrong = 0u64;
    let mut i = 0usize;
    while i == 0 || Instant::now() < deadline {
        let id = stream[(i * 7919) % stream.len()];
        if let Some(every) = inval_every {
            if i > 0 && i.is_multiple_of(every) {
                dec.invalidate(SOURCES[(i / every) % SOURCES.len()]);
            }
        }
        let text = serving_query(id, spec.keys);
        let digest = dec.sample_wire(
            &mut tracer,
            i as u64,
            &text,
            &mut client,
            served.net.mediator(),
        );
        if digest != expected[id as usize] {
            wrong += 1;
        }
        i += 1;
    }
    drop(client);
    report.check(
        wrong == 0,
        format!("{wrong} decomposed answers differ from the oracle"),
    );
    if let Err(e) = gate_check(&mut served.clients[0]) {
        report.check(false, e);
    }
    let layers = dec.finish(&tracer);

    let (s0, s1) = (&before.server, &after.server);
    let (n0, n1) = (&before.net, &after.net);
    let coalesced = s1.calls_coalesced - s0.calls_coalesced;
    let count = |v: u64| v as f64;
    report.layer("serve.overhead_us", layers.serve_overhead_us, "us");
    report.layer("serve.ping_us", layers.ping_us, "us");
    report.layer(
        "serve.pre_gate_shed",
        count(n1.pre_gate_shed - n0.pre_gate_shed),
        "count",
    );
    report.layer("serve.evicted", count(n1.evicted - n0.evicted), "count");
    report.layer(
        "serve.bad_frames",
        count(n1.bad_frames - n0.bad_frames),
        "count",
    );
    layers.report_frames(report);
    report.layer("server.query_us_p50", layers.server_query_us_p50, "us");
    report.layer("server.query_us_p90", layers.server_query_us_p90, "us");
    report.layer("server.shed", count(s1.shed - s0.shed), "count");
    report.layer(
        "server.downgraded",
        count(s1.downgraded - s0.downgraded),
        "count",
    );
    layers.report_pipeline(report);
    report.layer("cim.hit_ratio", hit_ratio, "ratio");
    report.layer("cim.partial_ratio", ratio(partial as f64, lookups), "ratio");
    report.layer("cim.evictions", count(evictions), "count");
    report.layer("cim.invalidated", count(invalidated), "count");
    report.layer(
        "cim.answer_bytes",
        after.caches.answer_bytes as f64,
        "bytes",
    );
    report.layer(
        "cim.lock_contention",
        count(s1.cim_lock_contention - s0.cim_lock_contention),
        "count",
    );
    report.layer(
        "flight.coalesced_ratio",
        ratio(coalesced as f64, (source_calls + coalesced) as f64),
        "ratio",
    );
    report.layer("net.source_calls", count(source_calls), "count");
    report.layer(
        "net.source_busy_ms",
        source_calls as f64 * spec.delay.as_secs_f64() * 1e3,
        "ms",
    );
    report.layer("load.gen_late_us_p50", percentile(&late, 0.5) / 1e3, "us");
    report.layer("load.gen_late_us_p99", percentile(&late, 0.99) / 1e3, "us");
    report.layer("load.client_cpu_s", client_cpu, "s");
    report.layer("load.server_cpu_s", server_cpu, "s");
    let untraced = untraced_p50.expect("the untraced open loop ran");
    layers.report_closing(report, p50_us - untraced);
    report.note(format!(
        "tracing overhead: open-loop p50 {p50_us:.1} us traced vs {untraced:.1} us untraced ({:+.1} us)",
        p50_us - untraced
    ));
    report.note(format!(
        "load phases {phase_wall:.2} s wall: client CPU {client_cpu:.2} s, server CPU {server_cpu:.2} s; \
         sender lateness p50 {:.1} us, p99 {:.1} us, mean {:.1} us",
        percentile(&late, 0.5) / 1e3,
        percentile(&late, 0.99) / 1e3,
        mean(&late) / 1e3
    ));
    tracer.write(spec.name, seed, report);
    served.net.shutdown();
}

//! The repository benchmark: three workloads over the hermes mediator,
//! end-to-end metrics from an untraced run, per-layer metrics from a
//! traced one. See `perfbench/README.md` for what each metric means and
//! where it should move.

pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod wan;
pub mod wire;
pub mod worlds;

/// The workloads, as `--workload` names them.
pub const WORKLOADS: [&str; 3] = ["hot_point", "churn_point", "wan_join"];

/// End-to-end metrics every untraced run reports, in order. Each has a
/// bound in `BENCHMARK.json`, so each must repeat from run to run.
pub const END_TO_END: [&str; 5] = [
    "p50_us",
    "peak_qps",
    "server_cpu_us_per_query",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports, in order. The first six
/// are end-to-end metrics that have no bound: `p90_us` does not repeat
/// on a small shared machine, and the others read 0 on some workload.
pub const PER_LAYER: [&str; 46] = [
    "p90_us",
    "error_ratio",
    "source_calls_per_query",
    "sim_t_all_ms_p50",
    "sim_t_all_ms_p90",
    "sim_t_first_ms_p50",
    "serve.overhead_us",
    "serve.ping_us",
    "serve.pre_gate_shed",
    "serve.evicted",
    "serve.bad_frames",
    "frame.encode_us",
    "frame.decode_us",
    "frame.reply_bytes",
    "server.query_us_p50",
    "server.query_us_p90",
    "server.shed",
    "server.downgraded",
    "lang.parse_us",
    "rewrite.enumerate_us",
    "rewrite.plans_per_query",
    "cost.choose_us",
    "dcsm.est_err",
    "exec.execute_us",
    "cim.hit_ratio",
    "cim.partial_ratio",
    "cim.evictions",
    "cim.invalidated",
    "cim.answer_bytes",
    "cim.lock_contention",
    "flight.coalesced_ratio",
    "net.source_calls",
    "net.source_busy_ms",
    "load.gen_late_us_p50",
    "load.gen_late_us_p99",
    "load.client_cpu_s",
    "load.server_cpu_s",
    "trace.serial_query_us",
    "trace.layer_sum_us",
    "trace.closing_ratio",
    "trace.glue_us",
    "trace.wire_query_us",
    "trace.overhead_us",
    "trace.samples",
    "trace.spans",
    "trace.closing_ok",
];

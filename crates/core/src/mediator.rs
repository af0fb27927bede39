//! The mediator facade: parse → rewrite → cost → choose → execute.

use crate::breaker::BreakerBank;
use crate::caches::CacheControl;
use crate::cost::{estimate_plan, CostConfig};
use crate::cursor::InteractiveQuery;
use crate::exec::{ExecConfig, ExecStats, SubgoalProvenance};
use crate::matcache::MatCache;
use crate::pipeline::Pipeline;
use crate::plan::Plan;
use crate::rewrite::{PushdownRule, RewriteConfig};
use crate::server::AdmissionGate;
use crate::tier::PlanTier;
use hermes_analysis::{AnalysisReport, Analyzer, Diagnostic, QueryForm};
use hermes_cim::{Cim, CimPolicy, RoutingDecision};
use hermes_common::sync::Mutex;
use hermes_common::{HermesError, Result, SimClock, SimDuration, Value};
use hermes_dcsm::{CostVector, Dcsm};
use hermes_lang::{parse_program, parse_query, validate_program, Program, Query};
use hermes_net::Network;
use std::sync::Arc;

/// Mediator-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct MediatorConfig {
    /// Rewriter limits.
    pub rewrite: RewriteConfig,
    /// Cost-model knobs.
    pub cost: CostConfig,
    /// Executor knobs.
    pub exec: ExecConfig,
    /// Optimize for time-to-first-answer (interactive mode, §3) instead of
    /// time-to-all-answers.
    pub optimize_first_answer: bool,
    /// When a hard outage (or open breaker) kills the chosen plan, re-enter
    /// the plan space and run the cheapest alternative that avoids the dead
    /// site. Work the failed attempt completed survives in the answer
    /// cache, so the replanned run resumes rather than restarts.
    pub failover: bool,
    /// Run the deterministic tier selector before every query (see
    /// [`crate::tier`]). Off by default: the paper-exact path never
    /// consults the selector unless the request itself carries a tier or
    /// a budget.
    pub adaptive_tiers: bool,
}

impl Default for MediatorConfig {
    fn default() -> Self {
        MediatorConfig {
            rewrite: RewriteConfig::default(),
            cost: CostConfig::default(),
            exec: ExecConfig::default(),
            optimize_first_answer: false,
            failover: true,
            adaptive_tiers: false,
        }
    }
}

/// The chosen plan plus the full plan space and estimates — what
/// `EXPLAIN` shows.
#[derive(Clone, Debug)]
pub struct Planned {
    /// All executable plans found.
    pub plans: Vec<Plan>,
    /// The §7 estimate for each plan (aligned with `plans`).
    pub estimates: Vec<CostVector>,
    /// Index of the chosen plan.
    pub chosen: usize,
}

impl Planned {
    /// The chosen plan.
    pub fn plan(&self) -> &Plan {
        &self.plans[self.chosen]
    }

    /// The chosen plan's estimate.
    pub fn estimate(&self) -> &CostVector {
        &self.estimates[self.chosen]
    }
}

/// The result of an all-answers query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Answer-variable names, in output order.
    pub columns: Vec<Arc<str>>,
    /// One row per answer, aligned with `columns`. Variables an answer
    /// leaves unbound (possible only for probe-style queries) are `Null`.
    pub rows: Vec<Vec<Value>>,
    /// Simulated time to the first answer.
    pub t_first: Option<SimDuration>,
    /// Simulated time to completion.
    pub t_all: SimDuration,
    /// The executed plan.
    pub plan: Plan,
    /// The optimizer's pre-execution estimate for that plan.
    pub estimate: CostVector,
    /// Number of plans the rewriter produced.
    pub plans_considered: usize,
    /// Execution counters.
    pub stats: ExecStats,
    /// True when any subgoal's answers may be incomplete.
    pub incomplete: bool,
    /// Per-subgoal completeness provenance for the executed plan.
    pub provenance: Vec<SubgoalProvenance>,
    /// Alternative plans executed after outages killed earlier ones.
    pub failovers: u32,
    /// The execution trace (empty unless `ExecConfig::collect_trace`).
    pub trace: Vec<crate::trace::TraceEntry>,
}

/// One query and its per-run options, built fluently:
///
/// ```ignore
/// m.query(QueryRequest::new("?- item(A, B).").limit(5).trace(true))?;
/// ```
///
/// A bare `&str` (or `String`) converts into a request with all options
/// at their defaults, so `m.query("?- item(A, B).")` keeps working.
/// Options override the mediator's configuration for this run only.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    pub(crate) src: String,
    pub(crate) limit: Option<usize>,
    pub(crate) deadline: Option<SimDuration>,
    pub(crate) bindings: Option<hermes_lang::Subst>,
    pub(crate) trace: Option<bool>,
    pub(crate) parallelism: Option<usize>,
    pub(crate) budget: Option<SimDuration>,
    pub(crate) tier: Option<PlanTier>,
}

impl QueryRequest {
    /// A request for `src` with every option at its default.
    pub fn new(src: impl Into<String>) -> Self {
        QueryRequest {
            src: src.into(),
            limit: None,
            deadline: None,
            bindings: None,
            trace: None,
            parallelism: None,
            budget: None,
            tier: None,
        }
    }

    /// Stop after `n` answers.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Abort (returning the answers so far) once the virtual clock has
    /// advanced `d` past the start of the run.
    pub fn deadline(mut self, d: SimDuration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Substitute these parameter bindings into the query *before*
    /// planning, so the optimizer sees real constants (and DCSM can use
    /// exact-constant statistics) instead of `$b` placeholders.
    pub fn bindings(mut self, params: hermes_lang::Subst) -> Self {
        self.bindings = Some(params);
        self
    }

    /// Collect an execution trace for this run.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = Some(on);
        self
    }

    /// Let the scheduler overlap up to `k` independent domain calls
    /// (`1` = the paper's sequential executor). Also makes the cost model
    /// overlap-aware and biases plan enumeration toward orderings with
    /// wide independence groups.
    pub fn parallelism(mut self, k: usize) -> Self {
        self.parallelism = Some(k.max(1));
        self
    }

    /// Give the run a virtual-time budget. Unlike a deadline, exhausting
    /// the budget never aborts: the executor steps the active plan tier
    /// down one level (one-way) and keeps going, so a budgeted query
    /// returns degraded answers instead of an error. Setting a budget
    /// also engages the tier selector for this run.
    pub fn budget(mut self, b: SimDuration) -> Self {
        self.budget = Some(b);
        self
    }

    /// Pin the plan tier for this run (the selector's explicit-override
    /// rule — it beats every other selection rule).
    pub fn tier(mut self, tier: PlanTier) -> Self {
        self.tier = Some(tier);
        self
    }
}

impl From<&str> for QueryRequest {
    fn from(src: &str) -> Self {
        QueryRequest::new(src)
    }
}

impl From<String> for QueryRequest {
    fn from(src: String) -> Self {
        QueryRequest::new(src)
    }
}

impl From<&String> for QueryRequest {
    fn from(src: &String) -> Self {
        QueryRequest::new(src.as_str())
    }
}

/// The HERMES mediator: a program, a network of domains, the two caches,
/// and a persistent virtual clock.
pub struct Mediator {
    program: Program,
    network: Arc<Network>,
    cim: Arc<Mutex<Cim>>,
    dcsm: Arc<Mutex<Dcsm>>,
    breakers: Arc<Mutex<BreakerBank>>,
    policy: CimPolicy,
    config: MediatorConfig,
    clock: SimClock,
    pushdowns: Vec<PushdownRule>,
    /// Warning-severity findings from the last `register_program` (or
    /// `analyze`) run; queryable via [`Mediator::analysis_warnings`].
    analysis_warnings: Vec<Diagnostic>,
    /// The subplan materialization cache. Inert until a query runs with
    /// `ExecConfig::share_subplans` on.
    matcache: Arc<MatCache>,
    /// Monotone counter of program/policy states; the matcache's installed
    /// verdicts are tagged with it, so a `register_program` or routing
    /// change triggers a verdict refresh before the next sharing query.
    cache_epoch: u64,
    /// Always unbounded: the serial mediator serves one caller and never
    /// sheds.
    gate: AdmissionGate,
}

impl Mediator {
    /// Builds a mediator from a parsed program. The program is validated.
    pub fn new(program: Program, network: Network) -> Result<Self> {
        validate_program(&program)?;
        Ok(Mediator {
            program,
            network: Arc::new(network),
            cim: Arc::new(Mutex::new(Cim::new())),
            dcsm: Arc::new(Mutex::new(Dcsm::new())),
            breakers: Arc::new(Mutex::new(BreakerBank::default())),
            policy: CimPolicy::cache_everything(),
            config: MediatorConfig::default(),
            clock: SimClock::new(),
            pushdowns: Vec::new(),
            analysis_warnings: Vec::new(),
            matcache: Arc::new(MatCache::default()),
            cache_epoch: 0,
            gate: AdmissionGate::unbounded(),
        })
    }

    /// Builds a mediator from program source text.
    pub fn from_source(src: &str, network: Network) -> Result<Self> {
        Mediator::new(parse_program(src)?, network)
    }

    /// Runs the whole-program static analyzer over `program` (against this
    /// mediator's domain registry, invariant store, and DCSM) and installs
    /// it as the active program **only** when no error-severity diagnostics
    /// are found. On rejection the error carries every rendered diagnostic;
    /// on success warning-severity findings are stored and queryable via
    /// [`Mediator::analysis_warnings`].
    pub fn register_program(&mut self, program: Program, query_forms: &[QueryForm]) -> Result<()> {
        let report = self.analyze_program(&program, query_forms, false);
        if report.has_errors() {
            return Err(HermesError::Analysis {
                diagnostics: report.diagnostics.iter().map(|d| d.to_string()).collect(),
            });
        }
        self.analysis_warnings = report.warnings().into_iter().cloned().collect();
        self.program = program;
        self.cache_epoch += 1;
        Ok(())
    }

    /// Parses and registers program source text (see `register_program`).
    pub fn register_source(&mut self, src: &str, query_forms: &[QueryForm]) -> Result<()> {
        self.register_program(parse_program(src)?, query_forms)
    }

    /// Runs the analyzer over the *active* program without changing it.
    pub fn analyze(&self, query_forms: &[QueryForm]) -> AnalysisReport {
        self.analyze_program(&self.program, query_forms, false)
    }

    /// Runs the analyzer over the active program with the
    /// materialization-safety pass (`HA070`–`HA074`) enabled: a note-level
    /// inventory of which subplans are safe to materialize, priced against
    /// the live DCSM, with the CIM routing policy doubling as the
    /// volatility signal (a call the policy routes around the CIM has no
    /// invalidation path, so its answers may go stale unnoticed). This is
    /// what the REPL's `:materialize` command prints.
    pub fn analyze_materialization(&self, query_forms: &[QueryForm]) -> AnalysisReport {
        self.analyze_program(&self.program, query_forms, true)
    }

    fn analyze_program(
        &self,
        program: &Program,
        query_forms: &[QueryForm],
        materialization: bool,
    ) -> AnalysisReport {
        let cim = self.cim.lock();
        let dcsm = self.dcsm.lock();
        let routes = |domain: &str, function: &str| {
            self.policy.decide(domain, function) == RoutingDecision::UseCim
        };
        let analyzer = Analyzer::new(program)
            .with_registry(self.network.registry())
            .with_invariant_store(cim.invariants())
            .with_dcsm(&dcsm)
            .with_query_forms(query_forms.iter().cloned())
            .with_cache_routing(&routes);
        if materialization {
            analyzer.with_materialization().analyze()
        } else {
            analyzer.analyze()
        }
    }

    /// Warning-severity findings from the most recent
    /// [`Mediator::register_program`] run.
    pub fn analysis_warnings(&self) -> &[Diagnostic] {
        &self.analysis_warnings
    }

    /// The unified cache-control facade over both cache tiers (the CIM's
    /// ground-call answer cache and the subplan materialization cache):
    /// stats, per-source invalidation, clearing, invariants, and the
    /// policy builder. See [`CacheControl`].
    pub fn caches(&mut self) -> CacheControl<'_> {
        CacheControl::serial(
            &self.cim,
            &mut self.policy,
            &mut self.config.exec,
            &mut self.cache_epoch,
            &self.matcache,
        )
    }

    /// Registers a selection-pushdown rule (§5: "push selections to the
    /// source"). The rewriter will emit fused plan variants for it.
    pub fn add_pushdown(&mut self, rule: PushdownRule) {
        self.pushdowns.push(rule);
    }

    /// Mutable access to the configuration.
    pub fn config_mut(&mut self) -> &mut MediatorConfig {
        &mut self.config
    }

    /// The configuration.
    pub fn config(&self) -> &MediatorConfig {
        &self.config
    }

    /// The shared DCSM (statistics cache).
    pub fn dcsm(&self) -> Arc<Mutex<Dcsm>> {
        self.dcsm.clone()
    }

    /// The per-site circuit breakers. The bank lives as long as the
    /// mediator, so a site isolated during one query stays isolated for the
    /// next until its cooldown elapses.
    pub fn breakers(&self) -> Arc<Mutex<BreakerBank>> {
        self.breakers.clone()
    }

    /// The network of placed domains.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The mediator program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current virtual time (advances across queries, so the simulated
    /// network load drifts like the paper's day-long measurement runs).
    pub fn now(&self) -> hermes_common::SimInstant {
        self.clock.now()
    }

    /// Advances the virtual clock (e.g. to model idle time between
    /// experiment runs).
    pub fn advance_clock(&mut self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Parses, rewrites, and costs a query without executing it.
    pub fn plan(&self, query_src: &str) -> Result<Planned> {
        let query = parse_query(query_src)?;
        self.plan_query(&query)
    }

    /// Plans a pre-parsed query.
    pub fn plan_query(&self, query: &Query) -> Result<Planned> {
        self.pipeline().plan_query(query)
    }

    /// Runs a query. Accepts plain source text (all-answers mode, §3) or
    /// a [`QueryRequest`] carrying per-run options:
    ///
    /// ```ignore
    /// m.query("?- item(A, B).")?;
    /// m.query(QueryRequest::new("?- item(A, B).").limit(5).parallelism(4))?;
    /// ```
    ///
    /// Request options override the mediator's configuration for this run
    /// only; the configuration itself is never changed.
    pub fn query(&mut self, req: impl Into<QueryRequest>) -> Result<QueryResult> {
        let req = req.into();
        self.run(|pipeline, clock| pipeline.query(&req, clock).map(|(result, _)| result))
    }

    /// The query pipeline over this mediator's state: its locked caches,
    /// no single-flight registry, and an unbounded gate.
    fn pipeline(&self) -> Pipeline<'_> {
        Pipeline {
            program: &self.program,
            policy: &self.policy,
            pushdowns: &self.pushdowns,
            config: self.config,
            network: &self.network,
            cim: self.cim.as_ref(),
            dcsm: self.dcsm.as_ref(),
            breakers: &self.breakers,
            flight: None,
            matcache: &self.matcache,
            gate: &self.gate,
        }
    }

    /// Runs `f` over the pipeline on the persistent clock, which keeps the
    /// time the run spent whether it succeeded or not. The subplan
    /// verdicts are brought up to date first.
    fn run<T>(&mut self, f: impl FnOnce(&Pipeline<'_>, &mut SimClock) -> Result<T>) -> Result<T> {
        self.refresh_subplan_verdicts();
        let mut clock = self.clock.clone();
        let result = f(&self.pipeline(), &mut clock);
        self.clock = clock;
        result
    }

    /// Splits this mediator into a shared-state concurrent server: the
    /// planning inputs (program, policy, configuration, pushdown rules)
    /// are copied into an immutable core, the answer cache and statistics
    /// cache are redistributed over `shards` independently locked shards,
    /// and the breaker bank is shared. The returned server's
    /// [`query`](crate::server::ConcurrentMediator::query) takes `&self`,
    /// so any number of client threads can call it at once.
    pub fn to_concurrent(&self, shards: usize) -> crate::server::ConcurrentMediator {
        // The concurrent server's planning core is immutable, so its
        // safety verdicts are fixed here, once, from the program and
        // routing policy it is born with.
        self.refresh_subplan_verdicts();
        crate::server::ConcurrentMediator::from_parts(
            self.program.clone(),
            self.policy.clone(),
            self.config,
            self.pushdowns.clone(),
            self.network.clone(),
            hermes_cim::ShardedCim::from_template(&self.cim.lock(), shards),
            hermes_dcsm::ShardedDcsm::from_dcsm(&self.dcsm.lock(), shards),
            self.breakers.clone(),
            self.matcache.clone(),
            self.clock.now(),
        )
    }

    /// With subplan sharing on, recomputes and installs the matcache's
    /// HA070/HA074 safety verdicts when the installed ones no longer
    /// describe the current program/policy state. Cheap when current (one
    /// epoch compare); a flat classification pass when stale.
    fn refresh_subplan_verdicts(&self) {
        if !self.config.exec.share_subplans
            || self.matcache.verdicts_epoch() == Some(self.cache_epoch)
        {
            return;
        }
        let routes = |domain: &str, function: &str| {
            self.policy.decide(domain, function) == RoutingDecision::UseCim
        };
        let verdicts = hermes_analysis::MaterializationVerdicts::compute(
            &self.program,
            &[],
            None,
            Some(&routes),
        );
        self.matcache.install_verdicts(self.cache_epoch, verdicts);
    }

    /// Executes an already-planned query. When [`MediatorConfig::failover`]
    /// is on and a hard outage (or open breaker) kills the running plan,
    /// the cheapest alternative plan avoiding every dead site seen so far
    /// is executed instead; answers the failed attempt already cached are
    /// reused, so replanning resumes rather than restarts.
    pub fn execute(&mut self, planned: Planned, limit: Option<usize>) -> Result<QueryResult> {
        self.run(|pipeline, clock| pipeline.execute(planned, limit, clock))
    }

    /// Starts a query in interactive mode (§3): answers stream on demand;
    /// dropping the handle cancels outstanding source calls.
    ///
    /// Interactive runs share the caches but do not advance the mediator's
    /// persistent clock (their virtual timeline is reported per-answer).
    pub fn query_interactive(&self, query_src: &str) -> Result<InteractiveQuery> {
        let planned = self.plan(query_src)?;
        let plan = planned.plans[planned.chosen].clone();
        Ok(InteractiveQuery::spawn(
            self.network.clone(),
            self.cim.clone(),
            self.dcsm.clone(),
            Some(self.breakers.clone()),
            self.clock.clone(),
            self.config.exec,
            plan,
        ))
    }

    /// Persists the answer cache and the statistics cache into `dir`
    /// (`answers.cache` and `stats.db`). Expensive remote knowledge
    /// survives a mediator restart.
    pub fn save_state(&self, dir: &std::path::Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        let answers = std::fs::File::create(dir.join("answers.cache"))?;
        hermes_cim::persist::save(self.cim.lock().cache(), answers)?;
        let stats = std::fs::File::create(dir.join("stats.db"))?;
        hermes_dcsm::persist::save(self.dcsm.lock().db(), stats)
    }

    /// Restores state saved by [`Mediator::save_state`]. Missing files are
    /// not an error (a fresh deployment); malformed files are. Restored
    /// answers load into the existing cache, so its byte budget and
    /// invariant indexes stay in force.
    pub fn load_state(&mut self, dir: &std::path::Path) -> Result<()> {
        let cache_path = dir.join("answers.cache");
        if cache_path.exists() {
            let answers = std::fs::File::open(&cache_path)?;
            hermes_cim::persist::load(answers, self.cim.lock().cache_mut())?;
        }
        let stats_path = dir.join("stats.db");
        if stats_path.exists() {
            let stats = std::fs::File::open(&stats_path)?;
            let db = hermes_dcsm::persist::load(stats)?;
            self.dcsm.lock().replay_db(&db);
        }
        Ok(())
    }

    /// A human-readable EXPLAIN: every candidate plan with its estimate,
    /// the chosen one marked.
    pub fn explain(&self, query_src: &str) -> Result<String> {
        let planned = self.plan(query_src)?;
        let mut s = String::new();
        for (i, (plan, est)) in planned.plans.iter().zip(&planned.estimates).enumerate() {
            let marker = if i == planned.chosen { ">>" } else { "  " };
            s.push_str(&format!("{marker} plan {i}: est {est}\n"));
            for line in plan.to_string().lines() {
                s.push_str(&format!("     {line}\n"));
            }
        }
        Ok(s)
    }

    /// Re-estimates one plan with the current statistics (used by the
    /// experiment harnesses to ask "what does DCSM predict now?").
    pub fn estimate_plan(&self, plan: &Plan) -> CostVector {
        estimate_plan(plan, &*self.dcsm.lock(), &self.config.cost)
    }
}

impl std::fmt::Debug for Mediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mediator")
            .field("rules", &self.program.rules.len())
            .field("network", &self.network)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierReason;
    use crate::trace::TraceEvent;
    use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
    use hermes_domains::Domain;
    use hermes_net::profiles;

    fn mediator() -> Mediator {
        let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
        let mut net = Network::new(1);
        net.place(Arc::new(domain), profiles::cornell());
        Mediator::from_source(
            "
            item(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).
            item(A, B) :- in(B, d1:p_bf(A)).
            item(A, B) :- in(A, d1:p_fb(B)).
            ",
            net,
        )
        .unwrap()
    }

    #[test]
    fn query_all_answers_end_to_end() {
        let mut m = mediator();
        let result = m.query("?- item(A, B).").unwrap();
        let expect = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)])
            .call("p_ff", &[])
            .unwrap()
            .answers
            .len();
        assert_eq!(result.rows.len(), expect);
        assert_eq!(result.columns.len(), 2);
        assert!(result.t_all > SimDuration::ZERO);
        assert!(!result.incomplete);
    }

    #[test]
    fn bound_query_uses_probe_path_and_matches_ff_path() {
        let mut m = mediator();
        let all = m.query("?- item(A, B).").unwrap();
        let a0 = all.rows[0][0].clone();
        let expected: Vec<&Vec<Value>> = all.rows.iter().filter(|r| r[0] == a0).collect();
        let bound = m
            .query(format!("?- item({}, B).", a0.to_literal()))
            .unwrap();
        // The bound query projects only B (A is a constant in the query).
        assert_eq!(bound.columns.len(), 1);
        assert_eq!(bound.rows.len(), expected.len());
        let mut got: Vec<Value> = bound.rows.iter().map(|r| r[0].clone()).collect();
        got.sort();
        let mut want: Vec<Value> = expected.iter().map(|r| r[1].clone()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn all_plans_compute_the_same_answers() {
        let m = mediator();
        let planned = m.plan("?- item('p_3', B).").unwrap();
        assert!(planned.plans.len() >= 2);
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for i in 0..planned.plans.len() {
            let mut m2 = mediator();
            let single = Planned {
                plans: vec![planned.plans[i].clone()],
                estimates: vec![planned.estimates[i]],
                chosen: 0,
            };
            let res = m2.execute(single, None).unwrap();
            let mut rows = res.rows.clone();
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(&rows, r, "plan {i} disagrees"),
            }
        }
    }

    #[test]
    fn caching_speeds_up_repeat_queries() {
        let mut m = mediator();
        let first = m.query("?- item('p_1', B).").unwrap();
        let second = m.query("?- item('p_1', B).").unwrap();
        assert_eq!(first.rows, second.rows);
        assert!(second.t_all < first.t_all);
        assert!(second.stats.cim_exact >= 1);
    }

    #[test]
    fn statistics_accumulate_across_queries() {
        let mut m = mediator();
        assert!(m.dcsm().lock().db().is_empty());
        m.query("?- item('p_1', B).").unwrap();
        assert!(!m.dcsm().lock().db().is_empty());
    }

    #[test]
    fn limited_query_stops_early() {
        let mut m = mediator();
        let result = m
            .query(QueryRequest::new("?- item(A, B).").limit(2))
            .unwrap();
        assert_eq!(result.rows.len(), 2);
    }

    #[test]
    fn request_options_do_not_leak_into_config() {
        let mut m = mediator();
        m.query(
            QueryRequest::new("?- item(A, B).")
                .deadline(SimDuration::from_secs(3600))
                .trace(true)
                .parallelism(4)
                .budget(SimDuration::from_secs(1800))
                .tier(PlanTier::Full),
        )
        .unwrap();
        assert_eq!(m.config().exec.deadline, None);
        assert!(!m.config().exec.collect_trace);
        assert_eq!(m.config().exec.max_parallel_calls, 1);
        assert_eq!(m.config().cost.max_parallel_calls, 1);
        assert!(!m.config().rewrite.favor_parallel);
        assert_eq!(m.config().exec.budget, None);
        assert_eq!(m.config().exec.tier, PlanTier::Full);
    }

    #[test]
    fn explicit_cache_only_tier_serves_warm_queries_without_the_wire() {
        let mut m = mediator();
        // Cold + cache-only: nothing to serve, flagged Downgraded.
        let cold = m
            .query(QueryRequest::new("?- item('p_1', B).").tier(PlanTier::CacheOnly))
            .unwrap();
        assert!(cold.rows.is_empty());
        assert!(cold.incomplete);
        assert_eq!(cold.stats.actual_calls, 0);
        // Warm the cache at the default tier, then cache-only matches it.
        let full = m.query("?- item('p_1', B).").unwrap();
        let warm = m
            .query(
                QueryRequest::new("?- item('p_1', B).")
                    .tier(PlanTier::CacheOnly)
                    .trace(true),
            )
            .unwrap();
        assert_eq!(warm.rows, full.rows);
        assert_eq!(warm.stats.actual_calls, 0);
        assert!(!warm.incomplete);
        // The selection is visible in the trace with its reason code.
        assert!(warm.trace.iter().any(|e| matches!(
            e.event,
            TraceEvent::TierSelected {
                tier: PlanTier::CacheOnly,
                reason: TierReason::ExplicitOverride,
            }
        )));
    }

    #[test]
    fn adaptive_tiers_stay_full_when_nothing_is_wrong() {
        let mut m = mediator();
        m.config_mut().adaptive_tiers = true;
        let adaptive = m
            .query(QueryRequest::new("?- item(A, B).").trace(true))
            .unwrap();
        let mut plain = mediator();
        let reference = plain.query("?- item(A, B).").unwrap();
        // Healthy sites, no budget, no load: the selector's default rule
        // picks Full and the answers match the paper-exact run.
        assert_eq!(adaptive.rows, reference.rows);
        assert!(!adaptive
            .trace
            .iter()
            .any(|e| matches!(e.event, TraceEvent::TierSelected { .. })));
        assert_eq!(adaptive.stats.tier_skipped_calls, 0);
    }

    #[test]
    fn explain_lists_plans_and_choice() {
        let m = mediator();
        let text = m.explain("?- item('p_1', B).").unwrap();
        assert!(text.contains(">> plan"));
        assert!(text.contains("est [Tf="));
    }

    #[test]
    fn interactive_streams_answers() {
        let m = mediator();
        let mut iq = m.query_interactive("?- item(A, B).").unwrap();
        let first = iq.next_answer();
        assert!(first.is_some());
        let batch = iq.next_batch(3);
        assert!(batch.len() <= 3);
        let final_ = iq.stop();
        assert!(final_.error.is_none());
    }

    #[test]
    fn interactive_drain_matches_all_answers() {
        let mut m = mediator();
        let all = m.query("?- item(A, B).").unwrap();
        let mut iq = m.query_interactive("?- item(A, B).").unwrap();
        let mut streamed = Vec::new();
        while let Some((row, _)) = iq.next_answer() {
            streamed.push(row);
        }
        assert_eq!(streamed.len(), all.rows.len());
        let f = iq.stop();
        assert!(f.finished);
    }

    #[test]
    fn mixed_fact_rule_predicate_rejected() {
        let domain = SyntheticDomain::generate("d1", 1, &[RelationSpec::uniform("p", 4, 1.0)]);
        let mut net = Network::new(1);
        net.place(Arc::new(domain), profiles::maryland());
        let mut m = Mediator::from_source(
            "mix('a', 'b').
             mix(A, B) :- in(B, d1:p_bf(A)).",
            net,
        )
        .unwrap();
        let err = m.query("?- mix(X, Y).").unwrap_err();
        assert!(err.to_string().contains("mixes facts and rules"));
    }

    #[test]
    fn parameterized_queries_bind_before_planning() {
        use hermes_common::Value;
        use hermes_lang::Subst;
        let mut m = mediator();
        let direct = m.query("?- item('p_1', B).").unwrap();
        let params = Subst::from_pairs([("A", Value::str("p_1"))]);
        let bound = m
            .query(QueryRequest::new("?- item(A, B).").bindings(params))
            .unwrap();
        // The bound query projects both A and B; B values must agree.
        let direct_bs: Vec<Value> = direct.rows.iter().map(|r| r[0].clone()).collect();
        let bound_bs: Vec<Value> = bound
            .rows
            .iter()
            .map(|r| {
                r[bound
                    .columns
                    .iter()
                    .position(|c| c.as_ref() == "B")
                    .unwrap()]
                .clone()
            })
            .collect();
        assert_eq!(direct_bs, bound_bs);
        // And the plan saw the constant (no full-scan-only plan space).
        assert!(bound.plan.to_string().contains("'p_1'"), "{}", bound.plan);
    }

    #[test]
    fn traces_tell_the_cache_story() {
        use crate::trace::TraceEvent;
        let mut m = mediator();
        m.config_mut().exec.collect_trace = true;
        let cold = m.query("?- item('p_1', B).").unwrap();
        assert!(cold
            .trace
            .iter()
            .any(|e| matches!(e.event, TraceEvent::ActualCall { .. })));
        let warm = m.query("?- item('p_1', B).").unwrap();
        assert!(warm
            .trace
            .iter()
            .any(|e| matches!(e.event, TraceEvent::CacheHit { .. })));
        assert!(!warm
            .trace
            .iter()
            .any(|e| matches!(e.event, TraceEvent::ActualCall { .. })));
        // Answer ordinals count up.
        let ordinals: Vec<usize> = warm
            .trace
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Answer { ordinal } => Some(ordinal),
                _ => None,
            })
            .collect();
        assert_eq!(ordinals, (1..=warm.rows.len()).collect::<Vec<_>>());
        // Rendering is line-per-event.
        let text = crate::trace::render(&warm.trace);
        assert_eq!(text.lines().count(), warm.trace.len());
        // Off by default: no allocation.
        m.config_mut().exec.collect_trace = false;
        let silent = m.query("?- item('p_1', B).").unwrap();
        assert!(silent.trace.is_empty());
    }

    #[test]
    fn state_survives_a_restart() {
        let dir =
            std::env::temp_dir().join(format!("hermes-mediator-state-{}", std::process::id()));
        let (rows, cold_ms) = {
            let mut m = mediator();
            let r = m.query("?- item('p_1', B).").unwrap();
            m.save_state(&dir).unwrap();
            (r.rows.clone(), r.t_all.as_millis_f64())
        };
        // A brand-new mediator process loads the saved caches.
        let mut m2 = mediator();
        m2.load_state(&dir).unwrap();
        let warm = m2.query("?- item('p_1', B).").unwrap();
        assert_eq!(warm.rows, rows);
        assert_eq!(warm.stats.actual_calls, 0, "served from restored cache");
        assert!(warm.t_all.as_millis_f64() < cold_ms);
        // Restored statistics inform estimates too.
        assert!(!m2.dcsm().lock().db().is_empty());
        // Loading from an empty directory is a no-op, not an error.
        let empty = dir.join("nothing-here");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(m2.load_state(&empty).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_state_keeps_the_answer_budget_and_invariant_indexes() {
        let dir =
            std::env::temp_dir().join(format!("hermes-mediator-budget-{}", std::process::id()));
        let bf_only = || {
            let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
            let mut net = Network::new(1);
            net.place(Arc::new(domain), profiles::cornell());
            Mediator::from_source("item(A, B) :- in(B, d1:p_bf(A)).", net).unwrap()
        };
        // Eight similar entries; the budget holds about half of them.
        let budget = {
            let mut m = bf_only();
            for k in 0..8 {
                m.query(format!("?- item('p_{k}', B).")).unwrap();
            }
            m.save_state(&dir).unwrap();
            let cim = m.cim.lock();
            assert_eq!(cim.cache().len(), 8);
            cim.cache().bytes() / 2
        };
        let mut m2 = bf_only();
        let inv = hermes_lang::parse_invariant("X <= Y => d1:p_bf(Y) >= d1:p_bf(X).").unwrap();
        m2.caches().add_invariant(inv).unwrap();
        m2.caches()
            .policy()
            .answer_budget(Some(budget))
            .apply()
            .unwrap();
        m2.load_state(&dir).unwrap();
        let cim = m2.cim.lock();
        assert!(!cim.cache().is_empty());
        let bytes = cim.cache().bytes();
        assert!(bytes <= budget, "budget dropped: {bytes} B > {budget} B");
        assert!(cim.cache().ordered_group("d1", "p_bf", 0, &[]).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two replica domains with identical data (same generator seed):
    /// `d1` on a healthy site, `d2` on a permanently dark one.
    fn replicated_mediator() -> Mediator {
        let spec = [RelationSpec::uniform("p", 8, 2.0)];
        let d1 = SyntheticDomain::generate("d1", 42, &spec);
        let d2 = SyntheticDomain::generate("d2", 42, &spec);
        let mut net = Network::new(1);
        net.place(Arc::new(d1), profiles::cornell());
        net.place(
            Arc::new(d2),
            profiles::italy().with_outage(
                hermes_common::SimInstant::EPOCH,
                hermes_common::SimInstant::EPOCH + SimDuration::from_secs(86_400),
            ),
        );
        Mediator::from_source(
            "
            item(A, B) :- in(B, d2:p_bf(A)).
            item(A, B) :- in(B, d1:p_bf(A)).
            ",
            net,
        )
        .unwrap()
    }

    /// Forces the chosen plan to one that calls the dead `d2` replica.
    fn choose_dead_plan(planned: &mut Planned) {
        let dead = planned
            .plans
            .iter()
            .position(|p| p.to_string().contains("d2:"))
            .expect("a plan uses the d2 replica");
        planned.chosen = dead;
    }

    #[test]
    fn failover_replans_around_a_dead_site() {
        let mut m = replicated_mediator();
        let mut planned = m.plan("?- item('p_1', B).").unwrap();
        assert!(planned.plans.len() >= 2);
        choose_dead_plan(&mut planned);
        let result = m.execute(planned, None).unwrap();
        assert_eq!(result.failovers, 1);
        assert!(!result.incomplete);
        assert!(
            result.plan.to_string().contains("d1:"),
            "replanned onto the live replica: {}",
            result.plan
        );
        // Same answers as asking the live replica directly.
        let direct = m.query("?- item('p_1', B).").unwrap();
        let mut a: Vec<_> = result.rows.clone();
        let mut b: Vec<_> = direct.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn failover_can_be_disabled() {
        let mut m = replicated_mediator();
        m.config_mut().failover = false;
        let mut planned = m.plan("?- item('p_1', B).").unwrap();
        choose_dead_plan(&mut planned);
        let err = m.execute(planned, None).unwrap_err();
        assert!(matches!(err, HermesError::Unavailable { .. }));
    }

    #[test]
    fn breaker_bank_persists_across_queries() {
        use crate::breaker::{BreakerConfig, BreakerState};
        let mut m = replicated_mediator();
        m.breakers().lock().set_config(BreakerConfig {
            failure_threshold: 1,
            cooldown: SimDuration::from_secs(3600),
        });
        let mut planned = m.plan("?- item('p_1', B).").unwrap();
        choose_dead_plan(&mut planned);
        m.execute(planned, None).unwrap();
        // The failed attempt tripped milan's breaker, and the bank outlives
        // the query.
        assert_eq!(
            m.breakers().lock().state_at("milan", m.now()),
            BreakerState::Open
        );
        assert_eq!(m.breakers().lock().open_sites(m.now()).len(), 1);
        // A later query forced onto the dead replica now short-circuits
        // (no retry time) before failing over.
        let mut planned = m.plan("?- item('p_2', B).").unwrap();
        choose_dead_plan(&mut planned);
        let result = m.execute(planned, None).unwrap();
        assert_eq!(result.failovers, 1);
    }

    #[test]
    fn cached_answers_survive_a_later_outage() {
        // The site goes dark one hour in; a query warmed before then is
        // still answerable from the cache during the outage.
        let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
        let mut net = Network::new(1);
        let epoch = hermes_common::SimInstant::EPOCH;
        net.place(
            Arc::new(domain),
            profiles::cornell().with_outage(
                epoch + SimDuration::from_secs(3600),
                epoch + SimDuration::from_secs(7200),
            ),
        );
        let mut m = Mediator::from_source("item(A, B) :- in(B, d1:p_bf(A)).", net).unwrap();
        let warm = m.query("?- item('p_1', B).").unwrap();
        assert!(!warm.rows.is_empty());
        m.advance_clock(SimDuration::from_secs(3600));
        let during = m.query("?- item('p_1', B).").unwrap();
        assert_eq!(during.rows, warm.rows);
        assert!(!during.incomplete);
        assert_eq!(during.stats.actual_calls, 0);
        assert!(during.provenance.iter().all(|p| p.complete()));
    }

    #[test]
    fn clock_persists_across_queries() {
        let mut m = mediator();
        let t0 = m.now();
        m.query("?- item('p_1', B).").unwrap();
        assert!(m.now() > t0);
        m.advance_clock(SimDuration::from_secs(60));
        let t1 = m.now();
        assert!(t1.duration_since(t0) >= SimDuration::from_secs(60));
    }

    #[test]
    fn register_program_rejects_errors_with_diagnostics() {
        let mut m = mediator();
        let bad = parse_program("item(A) :- in(A, d1:nosuch()).").unwrap();
        let err = m.register_program(bad, &[]).unwrap_err();
        match err {
            HermesError::Analysis { diagnostics } => {
                assert!(
                    diagnostics.iter().any(|d| d.contains("HA021")),
                    "{diagnostics:?}"
                );
            }
            other => panic!("expected Analysis error, got {other}"),
        }
        // The rejected program did not replace the active one.
        assert_eq!(m.program().rules.len(), 3);
    }

    #[test]
    fn register_program_collects_warnings() {
        let mut m = mediator();
        let p = parse_program(
            "
            item(A, B) :- in(B, d1:p_bf(A)).
            dead(A) :- in(A, d1:p_fb('x')).
            ",
        )
        .unwrap();
        m.register_program(p, &[QueryForm::parse("item(b, f)").unwrap()])
            .unwrap();
        assert_eq!(m.program().rules.len(), 2);
        assert!(
            m.analysis_warnings()
                .iter()
                .any(|d| d.code == hermes_analysis::DiagCode::UnreachablePredicate),
            "{:?}",
            m.analysis_warnings()
        );
    }

    #[test]
    fn register_program_rejects_infeasible_declared_adornment() {
        let mut m = mediator();
        // p_bf needs its argument bound, so `item(f, f)` has no ordering.
        let p = parse_program("item(A, B) :- in(B, d1:p_bf(A)).").unwrap();
        let err = m
            .register_program(p, &[QueryForm::parse("item(f, f)").unwrap()])
            .unwrap_err();
        assert!(err.to_string().contains("HA010"), "{err}");
    }
}

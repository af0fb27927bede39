//! The one query pipeline both mediators run.
//!
//! request options → parse (+ bind) → enumerate + choose → tier selection
//! and gate admission → failover-aware execution.
//!
//! [`Mediator`](crate::mediator::Mediator) and
//! [`ConcurrentMediator`](crate::server::ConcurrentMediator) differ only in
//! what they lend the pipeline: the caches behind `&dyn CimView` /
//! `&dyn PlanStats` (one `Mutex` each, or the sharded facades), the clock
//! the run advances (the serial mediator's persistent one, or a per-query
//! clock started at the server's high-water mark), the single-flight
//! registry (none for the serial mediator), and the admission gate
//! (unbounded for the serial mediator).

use crate::breaker::BreakerBank;
use crate::cost::choose_plan;
use crate::exec::{ExecStats, Executor};
use crate::flight::InFlightRegistry;
use crate::matcache::MatCache;
use crate::mediator::{MediatorConfig, Planned, QueryRequest, QueryResult};
use crate::plan::{Plan, PlanStep};
use crate::rewrite::{
    bind_query, cache_servable_plans, enumerate_plans_with_pushdowns, PushdownRule,
};
use crate::server::AdmissionGate;
use crate::tier::{select_tier, PlanTier, TierDecision, TierInputs, TierReason};
use crate::trace::{TraceEntry, TraceEvent};
use hermes_cim::{CimPolicy, CimView};
use hermes_common::sync::Mutex;
use hermes_common::{HermesError, Result, SimClock, Value};
use hermes_dcsm::{CostVector, Dcsm, DcsmView, ShardedDcsm};
use hermes_lang::{parse_query, Program, Query};
use hermes_net::Network;
use std::collections::BTreeSet;

/// Everything one query run reads, borrowed from its mediator.
#[derive(Clone, Copy)]
pub(crate) struct Pipeline<'a> {
    pub program: &'a Program,
    pub policy: &'a CimPolicy,
    pub pushdowns: &'a [PushdownRule],
    pub config: MediatorConfig,
    pub network: &'a Network,
    pub cim: &'a dyn CimView,
    pub dcsm: &'a dyn PlanStats,
    pub breakers: &'a Mutex<BreakerBank>,
    /// Coalesces identical concurrent ground calls; `None` disables it.
    pub flight: Option<&'a InFlightRegistry>,
    pub matcache: &'a MatCache,
    pub gate: &'a AdmissionGate,
}

impl Pipeline<'_> {
    /// Runs one request on `clock`, returning the result and, when the
    /// tier selector was engaged, the tier the run started at.
    ///
    /// Order matters: total admission is checked before any parsing or
    /// planning, so a shed query costs nothing and returns immediately;
    /// tier selection runs after planning (it needs the cost estimate);
    /// the per-tier slot is claimed last and held across execution.
    pub fn query(
        &self,
        req: &QueryRequest,
        clock: &mut SimClock,
    ) -> Result<(QueryResult, Option<PlanTier>)> {
        let _permit = self.gate.admit().ok_or_else(|| HermesError::Shed {
            reason: "gate-full".into(),
        })?;
        let mut run = *self;
        let config = &mut run.config;
        if let Some(d) = req.deadline {
            config.exec.deadline = Some(d);
        }
        if let Some(t) = req.trace {
            config.exec.collect_trace = t;
        }
        if let Some(k) = req.parallelism {
            config.exec.max_parallel_calls = k;
            config.cost.max_parallel_calls = k;
            config.rewrite.favor_parallel = k > 1;
        }
        if let Some(b) = req.budget {
            config.exec.budget = Some(b);
        }
        let query = parse_query(&req.src)?;
        let query = match &req.bindings {
            Some(params) => bind_query(&query, params),
            None => query,
        };
        let mut planned = run.plan_query(&query)?;
        let tier_permit = match run.select_query_tier(req, &mut planned, clock) {
            Some(d) => {
                let (granted, permit) =
                    self.gate
                        .acquire_tier(d.tier)
                        .ok_or_else(|| HermesError::Shed {
                            reason: "tier-budget-full".into(),
                        })?;
                run.config.exec.tier = granted;
                // A gate-forced fall to a cheaper tier is a load decision,
                // whatever the selector's original reason.
                let reason = if granted < d.tier {
                    TierReason::HighLoad
                } else {
                    d.reason
                };
                Some((granted, reason, permit))
            }
            None => None,
        };
        let selected_at = clock.now();
        let mut result = run.execute(planned, req.limit, clock)?;
        let started_at = tier_permit.map(|(tier, reason, _permit)| {
            if reason != TierReason::Default && run.config.exec.collect_trace {
                result.trace.insert(
                    0,
                    TraceEntry {
                        at: selected_at,
                        event: TraceEvent::TierSelected { tier, reason },
                    },
                );
            }
            tier
        });
        Ok((result, started_at))
    }

    /// Plans a query against the program and the current statistics.
    pub fn plan_query(&self, query: &Query) -> Result<Planned> {
        check_mixed_definitions(self.program)?;
        let plans = enumerate_plans_with_pushdowns(
            self.program,
            query,
            self.policy,
            self.config.rewrite,
            self.pushdowns,
        )?;
        let (chosen, estimates) = self.dcsm.choose(&plans, &self.config);
        Ok(Planned {
            plans,
            estimates,
            chosen,
        })
    }

    /// Runs the deterministic tier selector for this request, when
    /// engaged — by [`MediatorConfig::adaptive_tiers`], an explicit
    /// `QueryRequest::tier`, a budget, or a bounded gate. Returns `None` on
    /// the default path, which therefore stays bit-identical to the
    /// paper-exact behavior. A `CacheOnly` decision also re-points
    /// `planned.chosen` at the cheapest plan whose every call is
    /// CIM-routed, when one exists: a Direct-routed call can never be
    /// cache-served.
    fn select_query_tier(
        &self,
        req: &QueryRequest,
        planned: &mut Planned,
        clock: &SimClock,
    ) -> Option<TierDecision> {
        let engaged = self.config.adaptive_tiers
            || req.tier.is_some()
            || self.config.exec.budget.is_some()
            || self.gate.is_bounded();
        if !engaged {
            return None;
        }
        let plan_sites = self.plan_sites(planned.plan());
        let open = self.breakers.lock().open_sites(clock.now());
        let decision = select_tier(&TierInputs {
            requested: req.tier,
            budget: self.config.exec.budget,
            estimate_ms: planned.estimate().t_all_ms.unwrap_or(0.0),
            plan_site_breaker_open: open.iter().any(|s| plan_sites.contains(s.as_ref())),
            load: self.gate.load(),
        });
        if decision.tier == PlanTier::CacheOnly {
            let servable = cache_servable_plans(&planned.plans);
            if !servable.is_empty() && !servable.contains(&planned.chosen) {
                planned.chosen = servable
                    .into_iter()
                    .min_by(|&a, &b| {
                        let ta = planned.estimates[a].t_all_ms.unwrap_or(f64::INFINITY);
                        let tb = planned.estimates[b].t_all_ms.unwrap_or(f64::INFINITY);
                        ta.partial_cmp(&tb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("servable is non-empty");
            }
        }
        Some(decision)
    }

    /// Executes an already-planned query on `clock`. When
    /// [`MediatorConfig::failover`] is on and a hard outage (or open
    /// breaker) kills the running plan, the cheapest alternative plan
    /// avoiding every dead site seen so far is executed instead; answers
    /// the failed attempt already cached are reused, so replanning resumes
    /// rather than restarts.
    pub fn execute(
        &self,
        planned: Planned,
        limit: Option<usize>,
        clock: &mut SimClock,
    ) -> Result<QueryResult> {
        let config = &self.config;
        let mut idx = planned.chosen;
        let mut avoid: BTreeSet<String> = BTreeSet::new();
        let mut failovers = 0u32;
        // Counters from plan attempts that died mid-run; folded into the
        // final result so the query's cost accounting stays honest.
        let mut carried = ExecStats::default();
        loop {
            let plan = planned.plans[idx].clone();
            let estimate = planned.estimates[idx];
            let mut executor = Executor::new(
                self.network,
                self.cim,
                self.dcsm.view(),
                clock.clone(),
                config.exec,
            )
            .with_breakers(self.breakers);
            if let Some(flight) = self.flight {
                executor = executor.with_flight(flight);
            }
            if config.exec.share_subplans {
                executor = executor.with_matcache(self.matcache);
            }
            let attempt = executor.run(&plan, limit);
            // The attempt's virtual time is real whether it succeeded or
            // not: a failover resumes *after* the retries the dead plan
            // burned, it does not rewind them.
            clock.advance_to(executor.now());
            match attempt {
                Ok(outcome) => {
                    // Project the answers onto the plan's answer variables.
                    let columns = plan.answer_vars.clone();
                    let rows = outcome
                        .answers
                        .iter()
                        .map(|theta| {
                            columns
                                .iter()
                                .map(|v| theta.get(v).cloned().unwrap_or(Value::Null))
                                .collect()
                        })
                        .collect();
                    let mut stats = outcome.stats;
                    stats.absorb(&carried);
                    return Ok(QueryResult {
                        columns,
                        rows,
                        t_first: outcome.t_first,
                        t_all: outcome.t_all,
                        plan,
                        estimate,
                        plans_considered: planned.plans.len(),
                        stats,
                        incomplete: outcome.incomplete,
                        provenance: outcome.provenance,
                        failovers,
                        trace: outcome.trace,
                    });
                }
                Err(HermesError::Unavailable { site, reason }) if config.failover => {
                    carried.absorb(&executor.stats());
                    // A site can only fail over once; seeing it again means
                    // no alternative exists and the outage is final.
                    if !avoid.insert(site.clone()) {
                        return Err(HermesError::Unavailable { site, reason });
                    }
                    match self.failover_choice(&planned, &avoid) {
                        Some(next) => {
                            failovers += 1;
                            idx = next;
                        }
                        None => return Err(HermesError::Unavailable { site, reason }),
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The sites a plan's call steps touch.
    fn plan_sites(&self, plan: &Plan) -> BTreeSet<String> {
        let mut sites = BTreeSet::new();
        for step in &plan.steps {
            if let PlanStep::Call { call, .. } = step {
                if let Ok(site) = self.network.site_of(&call.domain) {
                    sites.insert(site.name.to_string());
                }
            }
        }
        sites
    }

    /// The cheapest plan (under current statistics) touching none of the
    /// sites in `avoid`, if any.
    fn failover_choice(&self, planned: &Planned, avoid: &BTreeSet<String>) -> Option<usize> {
        let eligible: Vec<usize> = (0..planned.plans.len())
            .filter(|&i| self.plan_sites(&planned.plans[i]).is_disjoint(avoid))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let candidates: Vec<Plan> = eligible.iter().map(|&i| planned.plans[i].clone()).collect();
        let (chosen, _) = self.dcsm.choose(&candidates, &self.config);
        Some(eligible[chosen])
    }
}

/// The statistics cache as the pipeline reads it. Costing a plan space
/// takes many estimates: a single `Mutex<Dcsm>` is locked once for the
/// whole pass, so the plans are compared on one snapshot; the sharded
/// DCSM locks per estimate.
pub(crate) trait PlanStats {
    /// Costs `plans` and picks one (see [`choose_plan`]).
    fn choose(&self, plans: &[Plan], config: &MediatorConfig) -> (usize, Vec<CostVector>);

    /// The view the executor records observations into.
    fn view(&self) -> &dyn DcsmView;
}

impl PlanStats for Mutex<Dcsm> {
    fn choose(&self, plans: &[Plan], config: &MediatorConfig) -> (usize, Vec<CostVector>) {
        let dcsm = self.lock();
        choose_plan(plans, &*dcsm, &config.cost, config.optimize_first_answer)
    }

    fn view(&self) -> &dyn DcsmView {
        self
    }
}

impl PlanStats for ShardedDcsm {
    fn choose(&self, plans: &[Plan], config: &MediatorConfig) -> (usize, Vec<CostVector>) {
        choose_plan(plans, self, &config.cost, config.optimize_first_answer)
    }

    fn view(&self) -> &dyn DcsmView {
        self
    }
}

/// Rejects programs where a predicate mixes fact and rule definitions
/// (ambiguous access-path semantics) with a clear message instead of
/// silently finding no plan.
fn check_mixed_definitions(program: &Program) -> Result<()> {
    for key in program.defined_predicates() {
        let rules = program.rules_for(&key.0, key.1);
        let facts = rules.iter().filter(|r| r.body.is_empty()).count();
        if facts > 0 && facts < rules.len() {
            return Err(HermesError::Plan(format!(
                "predicate `{}/{}` mixes facts and rules; define it by \
                 facts only or by access-path rules only",
                key.0, key.1
            )));
        }
    }
    Ok(())
}

//! Multi-tenant **open-loop streaming** serving: several models'
//! request streams scheduled through **one** heterogeneous system,
//! with tail-latency (p50/p95/p99) accounting.
//!
//! The offline mapper (PRs 1–3) answers "where does one model's every
//! layer run"; deployment asks the next question — *N* tenants, each a
//! (model, arrival process, latency SLO) triple, sharing the same
//! boards and the same local DRAM. This module covers the ROADMAP's
//! serving items, batched rounds through streaming tails:
//!
//! 1. **Tenant registry** ([`TenantRegistry::admit`]) — each tenant is
//!    mapped *offline* by the full four-step pipeline (bit-identical to
//!    a standalone [`H2hMapper`] run) and its mapping pinned. Admission
//!    enforces the shared DRAM budget
//!    ([`H2hConfig::serve_dram_budget_frac`] of every board): a tenant
//!    whose pinned weights oversubscribe it keeps only the
//!    highest-value pins — a knapsack on saved transfer time, the same
//!    objective as the step-2 pass — and the trimmed layers are
//!    re-costed through the tenant's [`IncrementalSchedule`] as a delta
//!    (refresh the unpinned layers, propagate their cone) rather than a
//!    rebuild.
//! 2. **Open-loop arrivals** ([`crate::arrivals`]) — each tenant's
//!    requests enter its queue on an arrival schedule materialized
//!    from its [`ArrivalProcess`]: the deterministic `j / rate_hz`
//!    clock (default — bit-identical to the pre-streaming loop),
//!    a seeded Poisson process, or a replayed
//!    [`h2h_system::trace::ArrivalTrace`]. The round loop consults
//!    the schedule through one monotone *event clock*: arrival
//!    cursors advance by exact comparison against the same
//!    `arrival(j)` values the latency ledger charges (integer-exact —
//!    no floor estimate, no epsilon), while fault boundaries and
//!    staged-repair landings share the single
//!    [`h2h_system::sim::BOUNDARY_EPS`] slack, so the three event
//!    streams can never disagree about whether an instant passed and
//!    a request arriving exactly at a fault boundary is counted once.
//! 3. **Online batch former** ([`TenantRegistry::serve`]) — each
//!    scheduling round packs the backlogged tenants whose *combined*
//!    resident footprint fits the DRAM budget and serves each
//!    selected tenant one *slice* of up to
//!    [`H2hConfig::serve_max_batch`] requests. Round forming is a
//!    policy surface ([`RoundPolicy`]): the urgency knapsack (value =
//!    backlog + doomed requests; default and bit-identical to PR 4),
//!    earliest-deadline-first, or weighted-fair virtual finish times.
//! 4. **Interleaved slice evaluator** — a slice of `k` requests streams
//!    through the tenant's pinned mapping with weights fetched **once**
//!    ([`Evaluator::with_batch`] semantics). Slice makespans come from
//!    the tenant's long-lived [`IncrementalSchedule`] via
//!    [`IncrementalSchedule::rebatch`]: changing `k` re-costs layers
//!    and propagates, re-serving the same `k` propagates nothing, and
//!    repeated sizes hit a memo outright — bitwise-equal to a full
//!    evaluation either way (cross-checked when
//!    [`H2hConfig::serve_verify`] is set).
//! 5. **Per-tenant tail-latency accounting** ([`TenantServeStats`]) —
//!    one [`LatencyLedger`] record per served request (its attained
//!    latency and whether a fault window was in force). Every
//!    per-request column — served, violations, mean/max, the
//!    degraded-window counts — is derived from those records when the
//!    outcome is built, and the ledger is sorted once for the exact
//!    p50/p95/p99 tails; run-wide counts that have a per-tenant column
//!    are sums of it. So the columns agree by construction, and
//!    [`ServeOutcome::check_coherence`] checks only what the model
//!    can get wrong (conservation, latency ≥ ideal, fault ledgers
//!    only after a transition, the budget, crosschecks). Rendered by
//!    [`crate::report::serve_report`] and recorded (with offered-load
//!    × p99 throughput curves) by the `bench_serve` bin.
//! 6. **Overload shedding** ([`H2hConfig::serve_queue_cap`]) — with a
//!    bounded per-tenant queue, backlog above the cap sheds from the
//!    queue *head*: under a latency SLO the oldest waiting request is
//!    the lowest-value work (nearest or past its deadline), so
//!    head-drop is value-ranked shedding. Shed requests land in a
//!    per-tenant ledger ([`TenantServeStats::shed`], with
//!    [`TenantServeStats::shed_doomed`] counting those already unable
//!    to meet their SLO), and an unrecovered outage sheds the blocked
//!    tenants' remaining windows instead of stalling the drain — the
//!    bounded-queue fix for the PR 7 "parks whoever fails" gap. The
//!    default unbounded queue keeps the historical semantics
//!    (everything served; a permanent blockage is
//!    [`ServeError::Stalled`]).
//! 7. **Degraded-fabric serving** ([`TenantRegistry::serve_with_faults`])
//!    — the same round loop replayed through a
//!    [`h2h_system::fault::FaultPlan`]: at every boundary that changes
//!    the fabric (sampled at round starts; slices are atomic), each
//!    tenant's mapping is repaired onto the degraded system by the
//!    time-budgeted [`crate::repair::repair_mapping`], its pinned
//!    weights are evicted (the next slice re-streams them over the
//!    degraded routes — re-admission), and the SLO ledger records the
//!    degraded window separately. An empty plan is bit-identical to
//!    [`TenantRegistry::serve`], and the registry is snapshot-restored
//!    afterwards so later no-fault calls stay bit-identical too.
//!    Host-scoped faults extend the timeline: a degraded host NIC
//!    re-prices every via-host route and weight re-stream, while a
//!    **down** host freezes swap-ins entirely — only tenants already
//!    resident keep serving until the recovery boundary (a drain
//!    blocked forever returns [`ServeError::Stalled`]). When
//!    [`H2hConfig::repair_secs_per_move`] is set, each transition's
//!    budgeted search is additionally charged modeled wall time: the
//!    tenant keeps serving on the evacuation-only interim placement
//!    until the searched one *lands*, and the window is recorded in
//!    [`TenantServeStats::repair_time_charged`]. Tenants whose repair
//!    or budget trim fails on the shrunken fabric are parked (shed)
//!    instead of failing the run, and retried at every later
//!    transition.
//!
//! The contention model is deliberately conservative: slices within a
//! round execute sequentially (the host dispatches one model at a
//! time), so co-scheduling never *hides* latency — every win reported
//! here comes from weight-residency amortization, which is exactly what
//! the H2H cost model can defend. Residency itself is stateful across
//! rounds: tenants that fit the budget together stay resident, but
//! when the batch former must alternate oversubscribed tenants, a
//! tenant evicted in one round **re-streams its pinned weights over
//! Ethernet** before its next slice ([`TenantServeStats::reload_time`])
//! — swap-ins are never free, and batching additionally amortizes them
//! across the slice. Related work motivates the framing:
//! task-mapping with shared-resource contention as first-class
//! (arXiv:2208.06321) and multi-application co-residency as the core
//! heterogeneous-CPS challenge (arXiv:2005.07841).

use std::fmt;

use h2h_model::graph::{LayerId, ModelGraph};
use h2h_model::tensor::DataType;
use h2h_model::units::{Bytes, Seconds};
use h2h_system::fault::{FaultPlan, FaultState};
use h2h_system::incremental::IncrementalSchedule;
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{CostCache, Evaluator};
use h2h_system::sim::event_reached;
use h2h_system::system::{AccId, SystemSpec};
use h2h_system::topology::Endpoint;

use crate::arrivals::{ArrivalProcess, ArrivalSchedule, Arrivals};
use crate::config::{H2hConfig, RoundPolicy};
use crate::knapsack::{solve_auto, Item};
use crate::pipeline::{H2hError, H2hMapper};
use crate::preset::PinPreset;
use crate::repair::{repair_mapping, resolve_repair_budget};

/// One tenant's admission request: a model plus its service contract.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (bench/report key; need not be unique, but should be).
    pub name: String,
    /// The tenant's model (validated at admission).
    pub model: ModelGraph,
    /// Request arrival rate in requests/second. Under the default
    /// [`ArrivalProcess::Fixed`] process arrivals are modeled
    /// deterministically at `j / rate_hz` for `j = 0..requests` (every
    /// serve run exactly reproducible); a Poisson process samples its
    /// exponential gaps at this rate; a trace ignores it for timing.
    pub rate_hz: f64,
    /// Per-request latency SLO (arrival → completion).
    pub slo: Seconds,
    /// Number of requests in the serving window (the bench horizon).
    pub requests: usize,
    /// Arrival process driving the open-loop window
    /// ([`ArrivalProcess::Fixed`] by default — the deterministic
    /// clock, bit-identical to the pre-streaming serve loop).
    pub arrivals: ArrivalProcess,
}

impl TenantSpec {
    /// Convenience constructor (deterministic fixed-clock arrivals).
    pub fn new(
        name: impl Into<String>,
        model: ModelGraph,
        rate_hz: f64,
        slo: Seconds,
        requests: usize,
    ) -> Self {
        TenantSpec {
            name: name.into(),
            model,
            rate_hz,
            slo,
            requests,
            arrivals: ArrivalProcess::Fixed,
        }
    }

    /// Builder: replace the arrival process (validated and
    /// materialized at admission).
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }
}

/// Handle to an admitted tenant (index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantId(usize);

impl TenantId {
    /// Raw registry index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors of admission and serving.
#[derive(Debug)]
pub enum ServeError {
    /// The tenant's model could not be mapped on the system.
    Mapping(H2hError),
    /// The service contract is unusable (zero rate, zero requests, …).
    BadSpec {
        /// Tenant name.
        tenant: String,
        /// What was wrong.
        reason: String,
    },
    /// The tenant cannot fit the shared DRAM budget even with every
    /// discretionary pin trimmed (its fusion buffers alone exceed the
    /// budget on some board).
    DramBudget {
        /// Tenant name.
        tenant: String,
        /// Offending accelerator (catalog id).
        acc: String,
        /// Bytes the tenant needs resident on that accelerator.
        needed: Bytes,
        /// The per-accelerator budget.
        budget: Bytes,
    },
    /// Serving deadlocked: every remaining request belongs to a tenant
    /// that cannot currently serve (parked by shedding, or not
    /// resident while the host NIC is down) and no future fault
    /// boundary can change the condition.
    Stalled {
        /// Modeled time at which progress stopped.
        at: Seconds,
        /// Requests left unserved across tenants.
        unserved: usize,
        /// Tenants parked (shed) at the stall.
        parked: usize,
        /// Whether the host NIC was down at the stall.
        host_down: bool,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Mapping(e) => write!(f, "tenant mapping failed: {e}"),
            ServeError::BadSpec { tenant, reason } => {
                write!(f, "tenant `{tenant}`: {reason}")
            }
            ServeError::DramBudget { tenant, acc, needed, budget } => write!(
                f,
                "tenant `{tenant}` needs {needed} resident on {acc} but the serve budget is {budget}"
            ),
            ServeError::Stalled { at, unserved, parked, host_down } => write!(
                f,
                "serving stalled at t={at}: {unserved} requests unserved ({parked} tenants \
                 parked, host {}) — an unrecovered outage blocks every remaining tenant",
                if *host_down { "down" } else { "up" }
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<H2hError> for ServeError {
    fn from(e: H2hError) -> Self {
        ServeError::Mapping(e)
    }
}

/// Validates a service contract (shared by [`TenantRegistry::admit`]
/// and [`TenantRegistry::set_contract`]).
fn validate_contract(
    name: &str,
    rate_hz: f64,
    slo: Seconds,
    requests: usize,
) -> Result<(), ServeError> {
    if !(rate_hz > 0.0 && rate_hz.is_finite()) {
        return Err(ServeError::BadSpec {
            tenant: name.to_owned(),
            reason: format!("rate must be positive and finite, got {rate_hz}"),
        });
    }
    if requests == 0 {
        return Err(ServeError::BadSpec {
            tenant: name.to_owned(),
            reason: "a tenant must bring at least one request".into(),
        });
    }
    // NaN fails the `>` comparison and infinities fail `is_finite`,
    // so neither survives to the urgency math (where a non-finite SLO
    // once meant the round former's `total_cmp` ranks and the doomed
    // horizon silently degenerated, and violation counting turned
    // itself off — `latency > NaN` is never true).
    if !(slo > Seconds::ZERO && slo.as_f64().is_finite()) {
        return Err(ServeError::BadSpec {
            tenant: name.to_owned(),
            reason: format!("the SLO must be positive and finite, got {}", slo.as_f64()),
        });
    }
    Ok(())
}

/// Per-board serve-budget enforcement, shared by admission and the
/// fault-transition repair path: on every board over budget, keep the
/// highest-value pins that fit (knapsack on saved transfer time, the
/// step-2 objective), unpin the rest, and re-cost the dropped layers'
/// cones as an incremental delta. `system` is whatever fabric the
/// tenant is currently priced on (the degraded one during a fault
/// window — budgets depend only on DRAM capacity, which faults never
/// change). Returns the number of pins dropped.
fn trim_to_budget(
    system: &SystemSpec,
    config: &H2hConfig,
    spec: &TenantSpec,
    mapping: &Mapping,
    locality: &mut LocalityState,
    inc: &mut IncrementalSchedule,
    ev: &Evaluator<'_>,
) -> Result<usize, ServeError> {
    let budget_of = |acc: AccId| {
        let cap = system.acc(acc).dram_capacity().as_u64() as f64;
        (cap * config.serve_dram_budget_frac) as u64
    };
    let mut trimmed_pins = 0usize;
    let topo = system.topology();
    for acc in system.acc_ids() {
        let budget = budget_of(acc);
        let used = locality.dram_used(acc).as_u64();
        if used <= budget {
            continue;
        }
        let mut pins: Vec<LayerId> =
            locality.pinned_layers().filter(|l| mapping.acc_of(*l) == acc).collect();
        pins.sort_unstable();
        let pinned_bytes: u64 = pins
            .iter()
            .map(|l| spec.model.layer(*l).weight_bytes(DataType::F32).as_u64())
            .sum();
        // Everything resident that is not a pin (fusion buffers) is
        // non-negotiable: fusions changed the *schedule structure*
        // the offline search committed to, pins only change where
        // weights stream from.
        let fixed = used - pinned_bytes;
        if fixed > budget {
            return Err(ServeError::DramBudget {
                tenant: spec.name.clone(),
                acc: system.acc(acc).meta().id.clone(),
                needed: Bytes::new(fixed),
                budget: Bytes::new(budget),
            });
        }
        let dram = system.acc(acc).dram_bandwidth().as_f64();
        // Saved streaming time is priced at this board's host-route
        // rate (the scalar Ethernet rate on a uniform star).
        let eth = topo.path_bw(Endpoint::Host, Endpoint::Acc(acc)).as_f64();
        let items: Vec<Item> = pins
            .iter()
            .enumerate()
            .map(|(idx, l)| {
                let bytes = spec.model.layer(*l).weight_bytes(DataType::F32).as_u64();
                Item {
                    id: idx,
                    weight: bytes,
                    value: bytes as f64 * (1.0 / eth - 1.0 / dram),
                }
            })
            .collect();
        let keep = solve_auto(&items, budget - fixed);
        let mut keep_mask = vec![false; pins.len()];
        for idx in keep {
            keep_mask[idx] = true;
        }
        let mut dropped = Vec::new();
        for (idx, layer) in pins.iter().enumerate() {
            if !keep_mask[idx] {
                let ok = locality.unpin(&spec.model, *layer, acc);
                debug_assert!(ok, "trim targets were pinned");
                dropped.push(*layer);
                trimmed_pins += 1;
            }
        }
        // Delta re-cost: only the unpinned layers' weight terms
        // changed; refresh them and propagate their cone instead of
        // rebuilding the schedule.
        let seeds = inc.refresh_costs(ev, mapping, locality, dropped);
        inc.propagate(&seeds);
    }
    if trimmed_pins > 0 {
        // Restore bitwise-exact aggregates after the delta edits.
        inc.resum_aggregates();
    }
    for acc in system.acc_ids() {
        let used = locality.dram_used(acc);
        let budget = Bytes::new(budget_of(acc));
        if used > budget {
            return Err(ServeError::DramBudget {
                tenant: spec.name.clone(),
                acc: system.acc(acc).meta().id.clone(),
                needed: used,
                budget,
            });
        }
    }
    Ok(trimmed_pins)
}

/// Evaluates one tenant's slice makespan at batch `k` through its
/// incremental schedule (memoized per batch size). `system` is the
/// fabric the tenant is currently priced on — the degraded system
/// during a fault window; the memo is reset at every fault transition,
/// so hits never cross fabrics.
fn slice_makespan_on(
    system: &SystemSpec,
    verify: bool,
    t: &mut Tenant,
    k: u32,
    counters: &mut ServeCounters,
) -> Seconds {
    let p = &mut t.place;
    if let Some((_, m)) = p.slice_memo.iter().find(|(b, _)| *b == k) {
        counters.slice_cache_hits += 1;
        return *m;
    }
    counters.slice_evals += 1;
    let ev = Evaluator::from_cache(&t.spec.model, system, t.cache.clone()).with_batch(k);
    // The memo pre-empts same-size re-evaluation, so every call
    // here rebatches to a genuinely new size.
    p.inc.rebatch(&ev, &p.mapping, &p.locality);
    let m = p.inc.makespan();
    if verify {
        counters.crosschecks += 1;
        let full = ev.evaluate(&p.mapping, &p.locality).makespan();
        if full.as_f64() != m.as_f64() {
            counters.crosscheck_mismatches += 1;
        }
    }
    p.slice_memo.push((k, m));
    m
}

/// A tenant's placement on the fabric it is currently priced on, with
/// everything derived from it: the long-lived incremental schedule the
/// slice evaluator mutates, the slice memo, and the sizes the round
/// former and reload pricing read. Only [`Placement::build`] makes
/// one; a faulted serve snapshots and restores it whole, so the
/// registry stays bit-identical to a run that never saw faults.
#[derive(Debug, Clone)]
struct Placement {
    mapping: Mapping,
    locality: LocalityState,
    /// The schedule state; durations reflect the batch size of the
    /// last fresh slice evaluation.
    inc: IncrementalSchedule,
    /// Slice makespan memo, keyed by batch size (append-only, tiny).
    slice_memo: Vec<(u32, Seconds)>,
    /// Batch-1 slice makespan — the latency a request attains executing
    /// alone with zero queueing, the "ideal" of the SLO accounting.
    ideal: Seconds,
    /// Weight-transfer seconds one slice pays exactly once regardless
    /// of batch size (the amortization the batch former exploits).
    weight_xfer_once: Seconds,
    /// Resident DRAM bytes per accelerator (pins + fusion buffers).
    resident: Vec<u64>,
    /// Pinned weight bytes per accelerator (post-trim): eviction
    /// reloads charge each board's share at that board's actual
    /// host-link rate, not one global scalar.
    pinned_by_acc: Vec<u64>,
}

impl Placement {
    /// Builds the placement of `spec`'s model on fabric `sys`: a fresh
    /// incremental schedule, the serve-budget trim
    /// ([`trim_to_budget`]), then the derived sizes. Admission,
    /// fault-transition installs and staged-repair landings all come
    /// through here. Returns the placement and the number of pins the
    /// trim dropped.
    ///
    /// # Errors
    ///
    /// [`ServeError::DramBudget`] from the trim.
    ///
    /// # Panics
    ///
    /// Under [`H2hConfig::serve_verify`], if the (possibly
    /// trim-delta-produced) ideal diverges from a full evaluation —
    /// an internal soundness bug, not a caller error.
    fn build(
        sys: &SystemSpec,
        cfg: &H2hConfig,
        spec: &TenantSpec,
        cache: &CostCache,
        mapping: Mapping,
        mut locality: LocalityState,
    ) -> Result<(Placement, usize), ServeError> {
        // The compute-cost cache stores healthy-speed times (throttles
        // are priced at read time), so it stays valid on any degraded
        // fabric.
        let ev = Evaluator::from_cache(&spec.model, sys, cache.clone());
        let mut inc = IncrementalSchedule::new(&ev, &mapping, &locality);
        let trimmed = trim_to_budget(sys, cfg, spec, &mapping, &mut locality, &mut inc, &ev)?;
        let ideal = inc.makespan();
        if cfg.serve_verify {
            // The memo is pre-seeded with `(1, ideal)`, so batch-1
            // slices never re-run the serve-loop crosscheck — verify
            // the ideal here instead.
            let full = ev.evaluate(&mapping, &locality).makespan();
            assert!(
                ideal.as_f64() == full.as_f64(),
                "tenant `{}`: placement ideal {} diverged from the full evaluation {} \
                 (trim delta is unsound)",
                spec.name,
                ideal,
                full
            );
        }
        let weight_xfer_once = spec
            .model
            .layer_ids()
            .map(|id| ev.layer_cost(&mapping, &locality, id).weight_xfer)
            .sum();
        let resident = sys.acc_ids().map(|a| locality.dram_used(a).as_u64()).collect();
        let mut pinned_by_acc = vec![0u64; sys.num_accs()];
        for l in locality.pinned_layers() {
            pinned_by_acc[mapping.acc_of(l).index()] +=
                spec.model.layer(l).weight_bytes(DataType::F32).as_u64();
        }
        let place = Placement {
            mapping,
            locality,
            inc,
            slice_memo: vec![(1, ideal)],
            ideal,
            weight_xfer_once,
            resident,
            pinned_by_acc,
        };
        Ok((place, trimmed))
    }
}

/// One admitted tenant: its service contract plus its current
/// [`Placement`].
#[derive(Debug)]
pub struct Tenant {
    spec: TenantSpec,
    /// Memoized per-(layer, accelerator) compute costs, cloned from the
    /// admission mapper so per-round evaluator rebuilds are cheap
    /// ([`Evaluator::from_cache`]).
    cache: CostCache,
    /// The admitted placement (a repaired one while a fault window is
    /// being served).
    place: Placement,
    /// Pins dropped at admission to fit the shared budget.
    trimmed_pins: usize,
    /// Materialization of `spec.arrivals` against the contract —
    /// rebuilt by `admit`, `set_contract` and `set_arrivals`, never by
    /// serving (fault snapshots need not carry it).
    arrivals: ArrivalSchedule,
}

impl Tenant {
    /// The admission spec.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// The offline-searched mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.place.mapping
    }

    /// The (possibly budget-trimmed) locality state.
    pub fn locality(&self) -> &LocalityState {
        &self.place.locality
    }

    /// Batch-1 slice makespan (zero-queueing request latency).
    pub fn ideal_latency(&self) -> Seconds {
        self.place.ideal
    }

    /// Pins dropped at admission to fit the shared DRAM budget.
    pub fn trimmed_pins(&self) -> usize {
        self.trimmed_pins
    }

    /// Resident DRAM bytes on one accelerator.
    pub fn resident_bytes(&self, acc: AccId) -> Bytes {
        Bytes::new(self.place.resident[acc.index()])
    }

    /// Resident DRAM bytes summed over the system.
    pub fn resident_total(&self) -> Bytes {
        Bytes::new(self.place.resident.iter().sum())
    }

    /// Arrival time of request `j` under the materialized schedule
    /// (the deterministic `j / rate_hz` clock by default).
    fn arrival(&self, j: usize) -> f64 {
        self.arrivals.arrival(j)
    }

    /// Requests already *doomed* at `horizon = now + ideal − slo`:
    /// those arriving strictly before it, since even service starting
    /// immediately completes at `now + ideal > arrival + slo`. Strict
    /// on purpose — a request whose arrival lands exactly on the
    /// horizon attains exactly its SLO, and violations are strictly
    /// `latency > slo`. Counted against the materialized arrivals
    /// (the closed-form `floor(horizon·rate)+1` estimate this
    /// replaces over-counted by one whenever `horizon·rate` sat
    /// within its 1e-9 fudge of an integer).
    fn doomed_arrivals(&self, horizon: f64) -> usize {
        let mut k = 0;
        while k < self.spec.requests && self.arrival(k) < horizon {
            k += 1;
        }
        k
    }
}

/// A repaired placement waiting out its modeled wall time
/// ([`crate::repair::RepairOutcome::wall_time`]): the tenant serves on
/// the evacuation-only interim placement until `lands_at`, then the
/// searched mapping is installed. A newer fault transition drops
/// pending stages — they were computed against a fabric that no longer
/// exists.
#[derive(Debug)]
struct StagedRepair {
    /// Absolute serving-clock time the repair completes.
    lands_at: f64,
    mapping: Mapping,
    locality: LocalityState,
}

/// Installs a placement (a transition's repair, its interim
/// evacuation, or a landed stage) into a tenant priced on fabric
/// `sys`, and lowers the ledger's ideal floor to the new placement's.
/// Residency is the *caller's* decision — an install usually evicts,
/// but a down host keeps an unchanged placement resident.
///
/// # Errors
///
/// Propagates [`ServeError::DramBudget`] from the trim; the caller
/// parks the tenant then, and its next transition repairs from the
/// mapping that failed to install here.
fn install(
    sys: &SystemSpec,
    cfg: &H2hConfig,
    t: &mut Tenant,
    s: &mut TenantServeStats,
    mapping: Mapping,
    locality: LocalityState,
) -> Result<(), ServeError> {
    match Placement::build(sys, cfg, &t.spec, &t.cache, mapping.clone(), locality) {
        Ok((place, _)) => {
            // The ledger's ideal floor must hold for requests served
            // on any fabric of the run; keep the smallest.
            s.ideal = s.ideal.min(place.ideal);
            t.place = place;
            Ok(())
        }
        Err(e) => {
            t.place.mapping = mapping;
            Err(e)
        }
    }
}

/// Parks a tenant whose repair or budget trim failed on the current
/// fabric: it is evicted, any staged repair is dropped, and it sits
/// out rounds until a later transition repairs it.
fn park(
    s: &mut TenantServeStats,
    parked: &mut bool,
    resident: &mut bool,
    staged: &mut Option<StagedRepair>,
) {
    s.parks += 1;
    *parked = true;
    *resident = false;
    *staged = None;
}

/// Sheds tenant `t`'s queue head — oldest request first — into its
/// ledger until its cursor (served + shed) reaches `upto`. A drop
/// counts as doomed when even an immediate ideal-latency slice at
/// `now` would have missed its SLO. Returns the number shed.
fn shed_head(t: &Tenant, s: &mut TenantServeStats, now: f64, upto: usize) -> usize {
    let from = s.done();
    for j in from..upto {
        s.shed += 1;
        if now + t.place.ideal.as_f64() - t.arrival(j) > t.spec.slo.as_f64() {
            s.shed_doomed += 1;
        }
    }
    upto.saturating_sub(from)
}

/// Exact per-tenant attained-latency distribution: one record per
/// served request — its latency and whether a fault window was in
/// force — with nearest-rank percentiles. While a window drains, the
/// records stay in service order and their count is the tenant's
/// served cursor. When the outcome is built they fill the per-request
/// columns of [`TenantServeStats`]; then the fault flags are dropped
/// and the latencies sorted once for the quantile queries. Exact
/// sampling is deliberate at
/// serving-window scale (tens to thousands of requests): the tail
/// quantiles are reproducible bit for bit, which the equivalence
/// suites and the `BENCH_serve.json` byte-identity contract require —
/// a streaming sketch would trade that away to save memory the windows
/// don't need.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyLedger {
    /// Attained latencies (arrival → completion, seconds): in service
    /// order while the window drains, ascending once the columns are
    /// derived.
    samples: Vec<f64>,
    /// Per record, whether a fault window was in force at its round's
    /// start (index-aligned with `samples`; emptied once the columns
    /// are derived).
    degraded: Vec<bool>,
}

impl LatencyLedger {
    /// Records one served request (latency in seconds).
    fn record(&mut self, latency: f64, degraded: bool) {
        self.samples.push(latency);
        self.degraded.push(degraded);
    }

    /// Samples recorded (== requests served).
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Nearest-rank quantile: the `⌈q·n⌉`-th smallest sample
    /// (`Seconds::ZERO` when nothing was recorded).
    pub fn quantile(&self, q: f64) -> Seconds {
        let n = self.samples.len();
        if n == 0 {
            return Seconds::ZERO;
        }
        let rank = (q * n as f64).ceil() as usize;
        Seconds::new(self.samples[rank.clamp(1, n) - 1])
    }

    /// Median attained latency.
    pub fn p50(&self) -> Seconds {
        self.quantile(0.50)
    }

    /// 95th-percentile attained latency.
    pub fn p95(&self) -> Seconds {
        self.quantile(0.95)
    }

    /// 99th-percentile attained latency.
    pub fn p99(&self) -> Seconds {
        self.quantile(0.99)
    }

    /// Worst recorded latency (`Seconds::ZERO` when empty) — equal to
    /// [`TenantServeStats::attained_max`] bitwise.
    pub fn max(&self) -> Seconds {
        Seconds::new(self.samples.last().copied().unwrap_or(0.0))
    }
}

/// Per-tenant serving outcome: the SLO ledger. `served`, `violations`,
/// `attained_total`, `attained_max`, `degraded_served` and
/// `violations_degraded` are derived from the [`LatencyLedger`]
/// records; the other columns count events the ledger does not see.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantServeStats {
    /// Tenant name.
    pub name: String,
    /// Requests in the window.
    pub requests: usize,
    /// Requests actually served (== `requests` after a full run).
    pub served: usize,
    /// Requests whose attained latency exceeded the SLO.
    pub violations: usize,
    /// The SLO target.
    pub slo: Seconds,
    /// Zero-queueing request latency (batch-1 slice makespan).
    pub ideal: Seconds,
    /// Sum of attained latencies (arrival → completion), in service
    /// order.
    pub attained_total: Seconds,
    /// Worst attained latency.
    pub attained_max: Seconds,
    /// Slices served.
    pub batches: usize,
    /// Largest slice batch used.
    pub max_batch: u32,
    /// Weight-fetch seconds saved versus serving every request in its
    /// own slice: `(k - 1) × weight_xfer_once` summed over slices.
    pub amortized_weight_time: Seconds,
    /// Times this tenant was swapped back in after an eviction (its
    /// pinned weights re-streamed over Ethernet before the slice).
    pub weight_reloads: usize,
    /// Total Ethernet time spent on those reloads (already included in
    /// the attained latencies and the drain makespan).
    pub reload_time: Seconds,
    /// Mapping repairs applied to this tenant at fault transitions
    /// ([`TenantRegistry::serve_with_faults`]); zero on no-fault runs.
    pub repairs: usize,
    /// Requests completed while the fabric was degraded (a fault
    /// window was in force at their round's start).
    pub degraded_served: usize,
    /// SLO violations among [`TenantServeStats::degraded_served`] —
    /// the degraded-mode slice of the violation ledger.
    pub violations_degraded: usize,
    /// Modeled repair wall time charged to this tenant's serving clock
    /// ([`crate::repair::RepairOutcome::wall_time`] summed over fault
    /// transitions): while it elapses the tenant serves on the interim
    /// evacuated placement; the searched one lands only afterwards.
    /// Zero under the default instantaneous-repair model.
    pub repair_time_charged: Seconds,
    /// Times this tenant was parked (shed) because a fault transition
    /// left its repair or budget trim unsatisfiable on the shrunken
    /// fabric; a later transition that repairs successfully un-parks
    /// it.
    pub parks: usize,
    /// The full attained-latency distribution (exact sorted samples):
    /// p50/p95/p99 tails alongside the scalar mean/max columns.
    pub latencies: LatencyLedger,
    /// Requests shed by the bounded-queue overload policy
    /// ([`H2hConfig::serve_queue_cap`]) — dropped from the queue head
    /// (oldest first) on overflow, or in bulk when an unrecovered
    /// outage permanently blocks the tenant. Always zero under the
    /// default unbounded queue. `served + shed == requests` after a
    /// complete drain.
    pub shed: usize,
    /// Among [`TenantServeStats::shed`], requests that were already
    /// doomed when dropped (even immediate service would have violated
    /// the SLO) — shedding them lost nothing.
    pub shed_doomed: usize,
}

impl TenantServeStats {
    /// An empty ledger for one tenant's window.
    fn new(name: String, requests: usize, slo: Seconds, ideal: Seconds) -> Self {
        TenantServeStats {
            name,
            requests,
            served: 0,
            violations: 0,
            slo,
            ideal,
            attained_total: Seconds::ZERO,
            attained_max: Seconds::ZERO,
            batches: 0,
            max_batch: 0,
            amortized_weight_time: Seconds::ZERO,
            weight_reloads: 0,
            reload_time: Seconds::ZERO,
            repairs: 0,
            degraded_served: 0,
            violations_degraded: 0,
            repair_time_charged: Seconds::ZERO,
            parks: 0,
            latencies: LatencyLedger::default(),
            shed: 0,
            shed_doomed: 0,
        }
    }

    /// Requests done so far — served (recorded) or shed — which is
    /// also the index of the tenant's next unserved request.
    fn done(&self) -> usize {
        self.latencies.count() + self.shed
    }

    /// Fills the per-request columns from the ledger's records, then
    /// sorts the ledger for the quantile queries. Runs once, when the
    /// outcome is built. `attained_total` sums in record order, so its
    /// bits match a running sum kept while serving.
    fn derive_from_ledger(&mut self) {
        let slo = self.slo.as_f64();
        let ledger = &mut self.latencies;
        let flags = std::mem::take(&mut ledger.degraded);
        for (&latency, degraded) in ledger.samples.iter().zip(flags) {
            let violated = latency > slo;
            self.served += 1;
            self.attained_total += Seconds::new(latency);
            self.attained_max = self.attained_max.max(Seconds::new(latency));
            self.violations += usize::from(violated);
            self.degraded_served += usize::from(degraded);
            self.violations_degraded += usize::from(violated && degraded);
        }
        // Latencies are positive and finite, so `total_cmp` ties are
        // bitwise-equal values and an unstable sort is exact.
        ledger.samples.sort_unstable_by(f64::total_cmp);
    }

    /// Mean attained latency (zero if nothing was served).
    pub fn attained_mean(&self) -> Seconds {
        if self.served == 0 {
            Seconds::ZERO
        } else {
            self.attained_total / self.served as f64
        }
    }
}

/// Run-wide mechanical counters ([`crate::delta::SearchStats`] style):
/// how much work the slice evaluator and the fault path did, and
/// whether the incremental path stayed equal to the reference. A count
/// that has a per-tenant column is not kept twice: `weight_reloads`
/// and `repairs` are sums of the tenant columns, filled when the
/// outcome is built, and parks and shed requests are read through
/// [`ServeOutcome::total_parks`] and [`ServeOutcome::total_shed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCounters {
    /// Scheduling rounds executed.
    pub rounds: usize,
    /// Slices whose makespan was freshly evaluated (rebatch + propagate).
    pub slice_evals: usize,
    /// Slices answered from the per-tenant batch-size memo.
    pub slice_cache_hits: usize,
    /// Full-evaluation cross-checks run ([`H2hConfig::serve_verify`]).
    pub crosschecks: usize,
    /// Cross-checks where the incremental makespan was not bitwise
    /// equal to the full evaluation (must stay zero).
    pub crosscheck_mismatches: usize,
    /// Total swap-ins across tenants (evicted pinned weights
    /// re-streamed over Ethernet): the sum of
    /// [`TenantServeStats::weight_reloads`].
    pub weight_reloads: usize,
    /// Fault-state transitions applied (boundary crossings of the
    /// [`h2h_system::fault::FaultPlan`] that changed the fabric).
    pub fault_transitions: usize,
    /// Per-tenant mapping repairs run at those transitions: the sum of
    /// [`TenantServeStats::repairs`].
    pub repairs: usize,
    /// Attempted delta moves spent by all repairs (the deterministic
    /// budget currency of [`crate::repair::repair_mapping`]).
    pub repair_evals: usize,
    /// Repairs whose searched placement was staged behind a modeled
    /// wall-time window ([`H2hConfig::repair_secs_per_move`]) instead
    /// of landing instantly.
    pub staged_repairs: usize,
}

/// Result of one serving window.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-tenant SLO ledgers, in admission order.
    pub tenants: Vec<TenantServeStats>,
    /// Completion time of the last request (the drain makespan).
    pub makespan: Seconds,
    /// Mechanical counters.
    pub counters: ServeCounters,
    /// Peak co-resident bytes per accelerator over all rounds.
    pub peak_resident: Vec<Bytes>,
    /// The per-accelerator serve budget the rounds were held to.
    pub budgets: Vec<Bytes>,
    /// Accelerator catalog ids, index-aligned with the two vectors
    /// above.
    pub acc_names: Vec<String>,
    /// The round-forming policy the window ran under.
    pub policy: RoundPolicy,
}

impl ServeOutcome {
    /// Total requests served across tenants.
    pub fn total_served(&self) -> usize {
        self.tenants.iter().map(|t| t.served).sum()
    }

    /// Total SLO violations across tenants.
    pub fn total_violations(&self) -> usize {
        self.tenants.iter().map(|t| t.violations).sum()
    }

    /// Total requests shed across tenants (bounded-queue policy).
    pub fn total_shed(&self) -> usize {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    /// Total tenant parks across tenants (repair or budget trim failed
    /// at a fault transition).
    pub fn total_parks(&self) -> usize {
        self.tenants.iter().map(|t| t.parks).sum()
    }

    /// Checks the invariants of the accounting that the serving model
    /// could break: every request served or shed, doomed sheds within
    /// the sheds, mean attained latency at or above the zero-queueing
    /// ideal, degraded/repair/park ledgers only after a fault
    /// transition, reload time only with swap-ins, repair time only
    /// with repairs or parks, the DRAM budget never exceeded, zero
    /// incremental-vs-full mismatches, and every staged repair ending
    /// as a repair or a park. The per-request columns (served,
    /// violations, mean/max, degraded counts, percentiles) are all
    /// derived from one [`LatencyLedger`] record per request, so they
    /// agree with each other by construction and are not re-checked.
    /// Returns the first violated invariant as an error string — the
    /// CI smoke and the property suite both gate on this. A tenant
    /// parked for the whole drain (served 0, everything shed) is
    /// coherent: the ideal check applies only to tenants that served
    /// something.
    pub fn check_coherence(&self) -> Result<(), String> {
        let c = &self.counters;
        let faulted = c.fault_transitions > 0;
        for t in &self.tenants {
            if t.served + t.shed != t.requests {
                return Err(format!(
                    "{}: served {} + shed {} of {} requests",
                    t.name, t.served, t.shed, t.requests
                ));
            }
            if t.shed_doomed > t.shed {
                return Err(format!(
                    "{}: {} doomed sheds exceed {} total sheds",
                    t.name, t.shed_doomed, t.shed
                ));
            }
            if !faulted
                && (t.repairs > 0
                    || t.degraded_served > 0
                    || t.parks > 0
                    || t.repair_time_charged > Seconds::ZERO)
            {
                return Err(format!(
                    "{}: degraded-mode ledger is non-zero without a fault transition",
                    t.name
                ));
            }
            if t.repair_time_charged > Seconds::ZERO && t.repairs == 0 && t.parks == 0 {
                return Err(format!(
                    "{}: {} of repair time charged with zero repairs or parks",
                    t.name, t.repair_time_charged
                ));
            }
            if t.weight_reloads == 0 && t.reload_time > Seconds::ZERO {
                return Err(format!(
                    "{}: {} of reload time with zero swap-ins",
                    t.name, t.reload_time
                ));
            }
            // An all-parked tenant (served 0, window shed under a
            // permanent fault) legitimately reports a ZERO mean, which
            // would otherwise trip `mean < ideal`.
            if t.served > 0 {
                let mean = t.attained_mean().as_f64();
                let ideal = t.ideal.as_f64();
                if mean < ideal * (1.0 - 1e-12) {
                    return Err(format!(
                        "{}: mean attained {mean}s below the zero-queueing ideal {ideal}s",
                        t.name
                    ));
                }
            }
        }
        for (i, (peak, budget)) in
            self.peak_resident.iter().zip(self.budgets.iter()).enumerate()
        {
            if peak > budget {
                return Err(format!(
                    "{}: peak co-resident {peak} exceeds the budget {budget}",
                    self.acc_names[i]
                ));
            }
        }
        if c.crosscheck_mismatches > 0 {
            return Err(format!(
                "{} slice cross-checks diverged from the full evaluation",
                c.crosscheck_mismatches
            ));
        }
        if !faulted && (c.repairs > 0 || c.staged_repairs > 0) {
            return Err(format!(
                "{} repairs / {} staged repairs without a fault transition",
                c.repairs, c.staged_repairs
            ));
        }
        // Every staging ends as either a counted repair (the interim
        // install succeeded) or a park (it did not).
        let parks = self.total_parks();
        if c.staged_repairs > c.repairs + parks {
            return Err(format!(
                "{} staged repairs exceed {} repairs + {parks} parks",
                c.staged_repairs, c.repairs
            ));
        }
        Ok(())
    }
}

/// The multi-tenant serving state: admitted tenants, their pinned
/// placements, and the shared-budget batch former.
#[derive(Debug)]
pub struct TenantRegistry<'s> {
    system: &'s SystemSpec,
    config: H2hConfig,
    tenants: Vec<Tenant>,
}

impl<'s> TenantRegistry<'s> {
    /// An empty registry over one system.
    ///
    /// # Panics
    ///
    /// Panics if the serve knobs are out of range:
    /// [`H2hConfig::serve_dram_budget_frac`] must be in `(0, 1]` (a
    /// fraction above 1 would let the accounting promise more DRAM
    /// than the boards have) and [`H2hConfig::serve_max_batch`] must
    /// be ≥ 1.
    pub fn new(system: &'s SystemSpec, config: H2hConfig) -> Self {
        assert!(
            config.serve_dram_budget_frac > 0.0 && config.serve_dram_budget_frac <= 1.0,
            "serve_dram_budget_frac must be in (0, 1], got {}",
            config.serve_dram_budget_frac
        );
        assert!(config.serve_max_batch >= 1, "serve_max_batch must be at least 1");
        TenantRegistry { system, config, tenants: Vec::new() }
    }

    /// The shared system.
    pub fn system(&self) -> &'s SystemSpec {
        self.system
    }

    /// The serving configuration.
    pub fn config(&self) -> &H2hConfig {
        &self.config
    }

    /// Admitted tenant count.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenant is admitted.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// One admitted tenant.
    pub fn tenant(&self, id: TenantId) -> &Tenant {
        &self.tenants[id.0]
    }

    /// All admitted tenants, in admission order.
    pub fn tenants(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.iter()
    }

    /// The per-accelerator serve budget:
    /// [`H2hConfig::serve_dram_budget_frac`] of the board's capacity.
    pub fn budget_bytes(&self, acc: AccId) -> Bytes {
        let cap = self.system.acc(acc).dram_capacity().as_u64() as f64;
        Bytes::new((cap * self.config.serve_dram_budget_frac) as u64)
    }

    /// Admits a tenant: runs the offline four-step pipeline on its
    /// model (bit-identical to a standalone [`H2hMapper`] run), trims
    /// its pin set to the shared DRAM budget if needed (knapsack on
    /// saved transfer time, applied as an incremental delta), and
    /// registers its service contract.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] for unusable contracts,
    /// [`ServeError::Mapping`] when the model cannot be mapped, and
    /// [`ServeError::DramBudget`] when even the fully trimmed tenant
    /// oversubscribes some board's budget.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<TenantId, ServeError> {
        validate_contract(&spec.name, spec.rate_hz, spec.slo, spec.requests)?;
        let arrivals = spec
            .arrivals
            .materialize(spec.rate_hz, spec.requests)
            .map_err(|reason| ServeError::BadSpec { tenant: spec.name.clone(), reason })?;

        let mapper = H2hMapper::new(&spec.model, self.system).with_config(self.config);
        let out = mapper.run()?;
        let cache = mapper.evaluator().cache().clone();
        // Budget trim: per board, keep the highest-value pins that fit
        // the serve budget; drop the rest and re-cost their cone. The
        // same build re-runs after every fault-transition repair.
        let (place, trimmed_pins) =
            Placement::build(self.system, &self.config, &spec, &cache, out.mapping, out.locality)?;
        self.tenants.push(Tenant { spec, arrivals, cache, place, trimmed_pins });
        Ok(TenantId(self.tenants.len() - 1))
    }

    /// Replaces an admitted tenant's service contract (rate / SLO /
    /// request window) without re-running the offline mapping. Callers
    /// that want contracts scaled to the tenant's own pace admit
    /// first, read [`Tenant::ideal_latency`], and set the contract
    /// from it — the `bench_serve` bin and the CLI do exactly this.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] under the same rules as
    /// [`TenantRegistry::admit`]; the tenant is left unchanged.
    pub fn set_contract(
        &mut self,
        id: TenantId,
        rate_hz: f64,
        slo: Seconds,
        requests: usize,
    ) -> Result<(), ServeError> {
        let t = &mut self.tenants[id.0];
        validate_contract(&t.spec.name, rate_hz, slo, requests)?;
        // Re-materialize the arrival schedule against the new contract
        // *before* committing anything, so a failure (e.g. a trace
        // shorter than the new window) leaves the tenant unchanged.
        let arrivals = t
            .spec
            .arrivals
            .materialize(rate_hz, requests)
            .map_err(|reason| ServeError::BadSpec { tenant: t.spec.name.clone(), reason })?;
        t.spec.rate_hz = rate_hz;
        t.spec.slo = slo;
        t.spec.requests = requests;
        t.arrivals = arrivals;
        Ok(())
    }

    /// Replaces an admitted tenant's arrival process (the open-loop
    /// workload shape) without touching its mapping or contract. The
    /// schedule is re-materialized against the current contract.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] when the process cannot be materialized
    /// (e.g. a trace shorter than the request window); the tenant is
    /// left unchanged.
    pub fn set_arrivals(
        &mut self,
        id: TenantId,
        process: ArrivalProcess,
    ) -> Result<(), ServeError> {
        let t = &mut self.tenants[id.0];
        let arrivals = process
            .materialize(t.spec.rate_hz, t.spec.requests)
            .map_err(|reason| ServeError::BadSpec { tenant: t.spec.name.clone(), reason })?;
        t.spec.arrivals = process;
        t.arrivals = arrivals;
        Ok(())
    }

    /// Switches the batch-forming policy for subsequent serve calls
    /// (the config the registry was built with stays authoritative for
    /// everything else). Lets benches sweep policies on one registry
    /// without re-running admission.
    pub fn set_policy(&mut self, policy: RoundPolicy) {
        self.config.serve_policy = policy;
    }

    /// Sets the per-tenant queue bound for subsequent serve calls
    /// (0 = unbounded, the historical semantics).
    pub fn set_queue_cap(&mut self, cap: usize) {
        self.config.serve_queue_cap = cap;
    }

    /// Serves every tenant's full request window with batched slices
    /// (up to [`H2hConfig::serve_max_batch`] requests per slice) and
    /// the shared-budget batch former. Deterministic: same registry,
    /// same outcome, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty.
    pub fn serve(&mut self) -> ServeOutcome {
        self.serve_impl(self.config.serve_max_batch, &FaultPlan::empty(), true)
            .expect("no-fault serving cannot fail")
    }

    /// The naive per-tenant reference: identical arrivals and round
    /// structure, but every request is served in its own slice (batch
    /// 1), so weight traffic is paid per request. `serve()` must beat
    /// this whenever weights matter — the `bench_serve` gate.
    pub fn serve_naive(&mut self) -> ServeOutcome {
        self.serve_impl(1, &FaultPlan::empty(), true)
            .expect("no-fault serving cannot fail")
    }

    /// Serves the full request window through a fault timeline: at
    /// every [`FaultPlan`] boundary that changes the fabric (sampled
    /// at round starts; slices are atomic), each tenant's mapping is
    /// repaired onto the degraded system by the time-budgeted
    /// [`crate::repair::repair_mapping`]
    /// ([`H2hConfig::repair_eval_budget`] attempted moves per tenant),
    /// its pinned weights are evicted — the next slice re-streams them
    /// over the degraded routes (re-admission) — and the SLO ledger
    /// records the degraded window
    /// ([`TenantServeStats::degraded_served`] /
    /// [`TenantServeStats::violations_degraded`]).
    ///
    /// The registry is snapshot-restored afterwards, so later calls
    /// are unaffected. With an empty plan this is exactly
    /// [`TenantRegistry::serve`], bit for bit — the no-fault identity
    /// contract of the fault subsystem.
    ///
    /// Repair failures no longer abort the run: a tenant whose repair
    /// strands a layer class with no live supporting board, or whose
    /// repaired footprint cannot be trimmed to the serve budget, is
    /// *parked* (gracefully shed — [`TenantServeStats::parks`]) and
    /// retried at every later transition.
    ///
    /// # Errors
    ///
    /// [`ServeError::Stalled`] when an unrecovered outage leaves every
    /// remaining request on tenants that can no longer serve (parked
    /// tenants, or non-resident tenants while the host NIC is down)
    /// with no further fault boundary ahead.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty.
    pub fn serve_with_faults(&mut self, plan: &FaultPlan) -> Result<ServeOutcome, ServeError> {
        self.serve_impl(self.config.serve_max_batch, plan, true)
    }

    /// The no-repair baseline: the identical fault timeline, but every
    /// transition only *evacuates* dead boards (repair budget 0) — the
    /// incumbent-on-degraded serving the budgeted repair is measured
    /// against.
    ///
    /// # Errors
    ///
    /// As for [`TenantRegistry::serve_with_faults`].
    pub fn serve_with_faults_unrepaired(
        &mut self,
        plan: &FaultPlan,
    ) -> Result<ServeOutcome, ServeError> {
        self.serve_impl(self.config.serve_max_batch, plan, false)
    }

    /// Packs this round's co-resident tenant set under the configured
    /// [`RoundPolicy`]. The default (`Knapsack`) keeps the historical
    /// bit-identical former: all backlogged tenants if they fit the
    /// budget together, otherwise a knapsack over per-tenant footprints
    /// (value = backlog + SLO urgency) with a per-board feasibility
    /// repair, returning ascending tenant indices. The ranked policies
    /// (`Edf`, `WeightedFair`) instead order candidates by `rank`
    /// (ascending, ties to admission order) and greedy-pack under the
    /// per-board budgets — the returned order is the *serve* order, so
    /// the most deadline-pressed (EDF) or least-attended (WFQ) tenant's
    /// slice runs first. Never empty when some tenant has backlog.
    fn form_round(&self, pending: &[usize], urgency: &[f64], rank: &[f64]) -> Vec<usize> {
        let n_accs = self.system.num_accs();
        let budgets: Vec<u64> =
            self.system.acc_ids().map(|a| self.budget_bytes(a).as_u64()).collect();
        let cands: Vec<usize> =
            (0..self.tenants.len()).filter(|i| pending[*i] > 0).collect();
        debug_assert!(!cands.is_empty(), "form_round needs backlog");
        let fits = |sel: &[usize]| {
            (0..n_accs).all(|a| {
                sel.iter().map(|i| self.tenants[*i].place.resident[a]).sum::<u64>() <= budgets[a]
            })
        };
        if self.config.serve_policy != RoundPolicy::Knapsack {
            // Ranked path: serve order = rank order. Greedy-pack under
            // the budgets; the front-ranked candidate always enters
            // (admission guarantees a lone tenant fits its budget).
            let mut ordered = cands;
            ordered.sort_by(|&a, &b| rank[a].total_cmp(&rank[b]).then(a.cmp(&b)));
            let mut used = vec![0u64; n_accs];
            let mut chosen = Vec::with_capacity(ordered.len());
            for i in ordered {
                let fits_i = (0..n_accs)
                    .all(|a| used[a] + self.tenants[i].place.resident[a] <= budgets[a]);
                if chosen.is_empty() || fits_i {
                    for (a, u) in used.iter_mut().enumerate() {
                        *u += self.tenants[i].place.resident[a];
                    }
                    chosen.push(i);
                }
            }
            return chosen;
        }
        if fits(&cands) {
            return cands;
        }
        // Knapsack over the total-footprint dimension…
        let items: Vec<Item> = cands
            .iter()
            .map(|&i| Item {
                id: i,
                weight: self.tenants[i].place.resident.iter().sum(),
                value: urgency[i],
            })
            .collect();
        let mut chosen = solve_auto(&items, budgets.iter().sum());
        chosen.sort_unstable();
        // …then a per-board repair: drop the lowest-urgency-density
        // tenant until every board fits (admission guarantees a single
        // tenant always does).
        while chosen.len() > 1 && !fits(&chosen) {
            let worst = chosen
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let da = urgency[a] / self.tenants[a].resident_total().as_u64().max(1) as f64;
                    let db = urgency[b] / self.tenants[b].resident_total().as_u64().max(1) as f64;
                    da.partial_cmp(&db).expect("urgency is finite").then(b.cmp(&a))
                })
                .expect("chosen is non-empty");
            chosen.retain(|&i| i != worst);
        }
        if chosen.is_empty() {
            // Defensive: fall back to the single most urgent tenant.
            let best = cands
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    urgency[a].partial_cmp(&urgency[b]).expect("urgency is finite").then(b.cmp(&a))
                })
                .expect("candidates are non-empty");
            chosen.push(best);
        }
        chosen
    }

    /// Snapshot/serve/restore wrapper: a faulted run mutates tenant
    /// placements (repaired mappings, reset memos, new residents); the
    /// snapshot puts them back so the registry stays reusable and
    /// bit-identical for later calls. The no-fault path takes no
    /// snapshot and runs the historical loop unchanged.
    fn serve_impl(
        &mut self,
        max_batch: u32,
        plan: &FaultPlan,
        budgeted: bool,
    ) -> Result<ServeOutcome, ServeError> {
        let snapshot: Option<Vec<Placement>> =
            (!plan.is_empty()).then(|| self.tenants.iter().map(|t| t.place.clone()).collect());
        let result = self.serve_inner(max_batch, plan, budgeted);
        if let Some(snap) = snapshot {
            for (t, place) in self.tenants.iter_mut().zip(snap) {
                t.place = place;
            }
        }
        result
    }

    /// Applies one fault-state change mid-serve: rebuild the degraded
    /// system and, for every tenant, repair its mapping onto it
    /// (budget per [`H2hConfig::repair_eval_budget`], or
    /// evacuation-only when `budgeted` is false), re-enforce the serve
    /// budget, rebuild the incremental schedule and memo on the new
    /// fabric, and evict residency — the next slice re-streams the
    /// repaired placement's pinned weights. Returns the degraded
    /// system the following rounds are priced on (`None` once healthy
    /// again). Three refinements over the plain install:
    ///
    /// * **Repair wall time** — when
    ///   [`H2hConfig::repair_secs_per_move`] is set and the budgeted
    ///   search actually changed the placement, the searched mapping
    ///   does not take effect instantly: the tenant keeps serving on
    ///   the evacuation-only interim placement and the improvement is
    ///   *staged* to land `attempted_moves × repair_secs_per_move`
    ///   seconds later ([`TenantServeStats::repair_time_charged`]).
    ///   A newer transition drops pending stages — they were computed
    ///   against a fabric that no longer exists.
    /// * **Host-down residency** — while the host NIC is dead, a
    ///   tenant whose installed placement survives unchanged keeps
    ///   its residency: nothing needs restreaming, and restreaming
    ///   would be impossible anyway. An unchanged staged-repair
    ///   interim keeps it too — no weight moved; the genuine
    ///   re-stream is paid when the searched placement lands. Every
    ///   other install evicts.
    /// * **Graceful shedding** — a tenant whose repair or budget trim
    ///   fails on the shrunken fabric is parked (shed) instead of
    ///   failing the whole serve; every later transition retries it.
    #[allow(clippy::too_many_arguments)]
    fn apply_fault_transition(
        &mut self,
        state: &FaultState,
        budgeted: bool,
        now: f64,
        stats: &mut [TenantServeStats],
        counters: &mut ServeCounters,
        resident: &mut [bool],
        parked: &mut [bool],
        staged: &mut [Option<StagedRepair>],
    ) -> Option<SystemSpec> {
        counters.fault_transitions += 1;
        let degraded = (!state.is_healthy()).then(|| self.system.degrade(state));
        let cfg = self.config;
        let preset = PinPreset::new();
        for (i, t) in self.tenants.iter_mut().enumerate() {
            // Any stage computed against the previous fabric is stale.
            staged[i] = None;
            let sys: &SystemSpec = degraded.as_ref().unwrap_or(self.system);
            let ev = Evaluator::from_cache(&t.spec.model, sys, t.cache.clone());
            let budget =
                if budgeted { resolve_repair_budget(&cfg, &t.spec.model) } else { 0 };
            let old_mapping = t.place.mapping.clone();
            let Ok(rep) = repair_mapping(&ev, &cfg, &preset, &old_mapping, state, budget) else {
                // No live board can host some stranded layer.
                park(&mut stats[i], &mut parked[i], &mut resident[i], &mut staged[i]);
                continue;
            };
            counters.repair_evals += rep.stats.attempted_moves;
            let old_locality = t.place.locality.clone();
            // The search's wall time is charged whether or not it
            // found anything — the host CPU spent it either way.
            stats[i].repair_time_charged += rep.wall_time;
            let (mapping, locality) = if rep.wall_time > Seconds::ZERO
                && rep.mapping != old_mapping
            {
                // Stage the searched placement to land after its wall
                // time; serve meanwhile on the evacuation-only interim
                // (the same evacuation step, zero search budget).
                let interim = repair_mapping(&ev, &cfg, &preset, &old_mapping, state, 0)
                    .expect("evacuation succeeded under the larger budget");
                staged[i] = Some(StagedRepair {
                    lands_at: now + rep.wall_time.as_f64(),
                    mapping: rep.mapping,
                    locality: rep.locality,
                });
                counters.staged_repairs += 1;
                (interim.mapping, interim.locality)
            } else {
                (rep.mapping, rep.locality)
            };
            if install(sys, &cfg, t, &mut stats[i], mapping, locality).is_err() {
                // The repaired footprint cannot be trimmed to the
                // serve budget on the shrunken fabric.
                park(&mut stats[i], &mut parked[i], &mut resident[i], &mut staged[i]);
                continue;
            }
            stats[i].repairs += 1;
            let unchanged = t.place.mapping == old_mapping && t.place.locality == old_locality;
            // Eviction: the installed placement's weights are not on
            // the boards yet — its next slice pays the re-stream. Two
            // exceptions keep residency for an *unchanged* placement:
            // a down host cannot restream at all, and the
            // staged-repair interim left every weight exactly where it
            // was (the real move is paid when the searched placement
            // lands).
            if !(unchanged && (!state.host_is_up() || staged[i].is_some())) {
                resident[i] = false;
            }
            parked[i] = false;
        }
        degraded
    }

    fn serve_inner(
        &mut self,
        max_batch: u32,
        plan: &FaultPlan,
        budgeted: bool,
    ) -> Result<ServeOutcome, ServeError> {
        assert!(!self.tenants.is_empty(), "serve() needs at least one admitted tenant");
        let n = self.tenants.len();
        let n_accs = self.system.num_accs();
        let budgets: Vec<Bytes> = self.system.acc_ids().map(|a| self.budget_bytes(a)).collect();
        let acc_names: Vec<String> =
            self.system.acc_ids().map(|a| self.system.acc(a).meta().id.clone()).collect();

        // The per-tenant ledgers double as the drain's cursors: a
        // request is *done* once recorded as served or counted as shed
        // (bounded-queue drops and stall-point write-offs), and
        // `TenantServeStats::done` is the index of the next one.
        let mut stats: Vec<TenantServeStats> = self
            .tenants
            .iter()
            .map(|t| {
                let spec = &t.spec;
                TenantServeStats::new(spec.name.clone(), spec.requests, spec.slo, t.place.ideal)
            })
            .collect();
        let undone =
            |stats: &[TenantServeStats]| stats.iter().map(|s| s.requests - s.done()).sum::<usize>();
        let mut counters = ServeCounters::default();
        let mut peak = vec![0u64; n_accs];
        // Monotone per-tenant cursors over the arrival schedule: `now`
        // never moves backwards, so arrival counting is an exact
        // integer advance (`#{j : arrival(j) <= now}`) instead of the
        // old floor-of-rate estimate plus bidirectional correction.
        let mut arrived = vec![0usize; n];
        let queue_cap = self.config.serve_queue_cap;
        let mut now = 0.0f64;
        let budgets_u: Vec<u64> = budgets.iter().map(|b| b.as_u64()).collect();
        // Fault timeline state: boundaries still ahead, the condition
        // in force, and the degraded system rounds are priced on
        // (`None` while healthy). Empty plan → all of this is inert
        // and the loop below is the historical no-fault arithmetic.
        let boundaries = plan.boundaries();
        let mut next_boundary = 0usize;
        let mut fault_state = FaultState::healthy(n_accs);
        let mut fault_active = false;
        let mut degraded_sys: Option<SystemSpec> = None;
        let verify = self.config.serve_verify;
        // Deployment-time residency: admission-order greedy pack under
        // the shared budget. Weights loaded here are part of bring-up,
        // not the serving window (a single tenant is therefore always
        // resident from the start — the bit-identity contract).
        let mut resident = vec![false; n];
        {
            let mut used = vec![0u64; n_accs];
            for (slot, t) in resident.iter_mut().zip(self.tenants.iter()) {
                if (0..n_accs).all(|a| used[a] + t.place.resident[a] <= budgets_u[a]) {
                    for (a, u) in used.iter_mut().enumerate() {
                        *u += t.place.resident[a];
                    }
                    *slot = true;
                }
            }
        }
        // Fault-window tenant state: parked (shed) tenants sit out
        // rounds until a later transition re-admits them; staged
        // repairs wait out their modeled wall time before landing.
        // Both are per-run scratch, inert on no-fault paths.
        let mut parked = vec![false; n];
        let mut staged: Vec<Option<StagedRepair>> = (0..n).map(|_| None).collect();

        while undone(&stats) > 0 {
            // Fault boundaries crossed since the last round change the
            // fabric; the *latest* crossed boundary defines the state
            // (transitions that cancel out inside an idle gap — e.g. a
            // fully recovered outage nobody was serving through — are
            // skipped as the no-ops they are).
            let mut last_crossed = None;
            while next_boundary < boundaries.len() && event_reached(now, boundaries[next_boundary])
            {
                last_crossed = Some(boundaries[next_boundary]);
                next_boundary += 1;
            }
            if let Some(t_b) = last_crossed {
                let new_state = plan.state_at(Seconds::new(t_b), n_accs);
                if new_state != fault_state {
                    fault_state = new_state;
                    fault_active = !fault_state.is_healthy();
                    degraded_sys = self.apply_fault_transition(
                        &fault_state,
                        budgeted,
                        now,
                        &mut stats,
                        &mut counters,
                        &mut resident,
                        &mut parked,
                        &mut staged,
                    );
                }
            }
            let active_sys: &SystemSpec = degraded_sys.as_ref().unwrap_or(self.system);
            let host_up = fault_state.host_is_up();
            // Land staged repairs whose modeled wall time has elapsed:
            // install the searched placement on the current fabric and
            // evict (the improved placement's weights re-stream next
            // slice) unless the host-down unchanged-placement rule
            // keeps residency.
            let cfg = self.config;
            for i in 0..n {
                if !staged[i].as_ref().is_some_and(|s| event_reached(now, s.lands_at)) {
                    continue;
                }
                let sr = staged[i].take().expect("a due stage exists");
                let t = &mut self.tenants[i];
                let old_mapping = t.place.mapping.clone();
                let old_locality = t.place.locality.clone();
                if install(active_sys, &cfg, t, &mut stats[i], sr.mapping, sr.locality).is_err() {
                    park(&mut stats[i], &mut parked[i], &mut resident[i], &mut staged[i]);
                    continue;
                }
                let unchanged = t.place.mapping == old_mapping && t.place.locality == old_locality;
                if host_up || !unchanged {
                    resident[i] = false;
                }
                parked[i] = false;
            }
            // Backlog at round start: arrivals up to `now`, minus
            // everything already served or shed. The cursor advance is
            // integer-exact against the same `arrival(j)` values the
            // latency accounting uses — arrivals are compared with `<=`
            // and *no* epsilon slack (an epsilon here once pulled a
            // request in before its arrival, attaining less than the
            // ideal), so a request landing exactly on a fault boundary
            // is counted once, by the arrival cursor, never again by
            // the boundary clock.
            for (i, t) in self.tenants.iter().enumerate() {
                while arrived[i] < t.spec.requests && t.arrival(arrived[i]) <= now {
                    arrived[i] += 1;
                }
            }
            // Bounded queues: with a cap, overload sheds from the queue
            // *head* — under a latency SLO the oldest waiter is the
            // nearest deadline and therefore the least salvageable, so
            // head-drop is the value-ranked choice.
            if queue_cap > 0 {
                for (i, t) in self.tenants.iter().enumerate() {
                    shed_head(t, &mut stats[i], now, arrived[i].saturating_sub(queue_cap));
                }
            }
            // Serviceability gate: parked tenants are shelved until a
            // later transition re-admits them, and while the host NIC
            // is down only already-resident tenants can serve (a
            // swap-in would have to stream weights through the dead
            // host). Healthy runs never zero any backlog here.
            let servable: Vec<bool> =
                (0..n).map(|i| !parked[i] && (host_up || resident[i])).collect();
            let pending: Vec<usize> = (0..n)
                .map(|i| if servable[i] { arrived[i] - stats[i].done() } else { 0 })
                .collect();
            if pending.iter().all(|p| *p == 0) {
                // Idle: jump to the earliest outstanding servable
                // arrival. When unservable tenants hold the remaining
                // work, only a fault boundary can re-admit them, so
                // the jump may land there instead; if neither exists
                // the drain is deadlocked. Fully-servable runs keep
                // the historical next-arrival-only jump (bitwise).
                let next_arrival = (0..n)
                    .filter(|&i| servable[i] && stats[i].done() < stats[i].requests)
                    .map(|i| self.tenants[i].arrival(stats[i].done()))
                    .fold(f64::INFINITY, f64::min);
                let blocked =
                    (0..n).any(|i| !servable[i] && stats[i].done() < stats[i].requests);
                let next_b = if blocked {
                    boundaries.get(next_boundary).copied().unwrap_or(f64::INFINITY)
                } else {
                    f64::INFINITY
                };
                let next = next_arrival.min(next_b);
                if !next.is_finite() {
                    // Permanent blockage. With bounded queues the run
                    // degrades gracefully: write off the blocked
                    // tenants' remaining windows as shed (no future
                    // boundary can ever re-admit them) and keep
                    // draining whoever can still serve. The historical
                    // unbounded mode keeps the structural stall error.
                    if queue_cap > 0 {
                        let mut wrote_off = 0;
                        for (i, t) in self.tenants.iter().enumerate() {
                            if !servable[i] {
                                wrote_off += shed_head(t, &mut stats[i], now, t.spec.requests);
                            }
                        }
                        if wrote_off > 0 {
                            continue;
                        }
                    }
                    return Err(ServeError::Stalled {
                        at: Seconds::new(now),
                        unserved: undone(&stats),
                        parked: parked.iter().filter(|p| **p).count(),
                        host_down: !host_up,
                    });
                }
                now = now.max(next);
                continue;
            }
            // Urgency = backlog + requests already doomed to violate
            // unless served immediately (arrived strictly before
            // `now + ideal - slo`, counted against the actual arrival
            // schedule — see [`Tenant::doomed_arrivals`]).
            let urgency: Vec<f64> = (0..n)
                .map(|i| {
                    let t = &self.tenants[i];
                    if pending[i] == 0 {
                        return 0.0;
                    }
                    let horizon = now + t.place.ideal.as_f64() - t.spec.slo.as_f64();
                    let doomed_arrivals = t.doomed_arrivals(horizon);
                    let at_risk = doomed_arrivals.saturating_sub(stats[i].done()).min(pending[i]);
                    (pending[i] + at_risk) as f64
                })
                .collect();
            // Ranked-policy keys, built only for the ranked policies
            // (the knapsack former never reads them): EDF ranks by the
            // head-of-queue deadline, weighted-fair by the virtual
            // finish time of the tenant's next service quantum.
            let policy = self.config.serve_policy;
            let rank: Vec<f64> = if policy == RoundPolicy::Knapsack {
                Vec::new()
            } else {
                (0..n)
                    .map(|i| {
                        let (t, s) = (&self.tenants[i], &stats[i]);
                        if pending[i] == 0 {
                            f64::INFINITY
                        } else if policy == RoundPolicy::Edf {
                            t.arrival(s.done()) + t.spec.slo.as_f64()
                        } else {
                            (s.latencies.count() + 1) as f64 / t.spec.rate_hz
                        }
                    })
                    .collect()
            };
            let selected = self.form_round(&pending, &urgency, &rank);
            // Residency transition: the selected tenants swap in
            // (evicted ones re-stream their pinned weights over
            // Ethernet before their slice); previous residents keep
            // their slot while it still fits next to the selected set,
            // in admission order.
            let was_resident = std::mem::replace(&mut resident, vec![false; n]);
            let mut used = vec![0u64; n_accs];
            for &i in &selected {
                for (a, u) in used.iter_mut().enumerate() {
                    *u += self.tenants[i].place.resident[a];
                }
                resident[i] = true;
            }
            for (i, slot) in resident.iter_mut().enumerate() {
                let footprint = &self.tenants[i].place.resident;
                if was_resident[i]
                    && !*slot
                    && (0..n_accs).all(|a| used[a] + footprint[a] <= budgets_u[a])
                {
                    for (a, u) in used.iter_mut().enumerate() {
                        *u += footprint[a];
                    }
                    *slot = true;
                }
            }
            for (a, slot) in peak.iter_mut().enumerate() {
                *slot = (*slot).max(used[a]);
            }
            counters.rounds += 1;
            for &i in &selected {
                let k = (pending[i].min(max_batch as usize)) as u32;
                let reload = if was_resident[i] {
                    Seconds::ZERO
                } else {
                    stats[i].weight_reloads += 1;
                    // Each board's pinned share re-streams at that
                    // board's actual host-link rate (collapses to one
                    // scalar-rate transfer on a uniform star, bitwise;
                    // degraded routes during a fault window).
                    active_sys.topology().host_stream_time(
                        self.tenants[i]
                            .place
                            .pinned_by_acc
                            .iter()
                            .enumerate()
                            .filter(|(_, b)| **b > 0)
                            .map(|(a, b)| (AccId::new(a), Bytes::new(*b))),
                    )
                };
                stats[i].reload_time += reload;
                let m =
                    slice_makespan_on(active_sys, verify, &mut self.tenants[i], k, &mut counters);
                let end = now + reload.as_f64() + m.as_f64();
                let (t, s) = (&self.tenants[i], &mut stats[i]);
                for _ in 0..k {
                    s.latencies.record(end - t.arrival(s.done()), fault_active);
                }
                s.batches += 1;
                s.max_batch = s.max_batch.max(k);
                s.amortized_weight_time += t.place.weight_xfer_once * (k - 1) as f64;
                now = end;
            }
        }

        for s in &mut stats {
            s.derive_from_ledger();
        }
        counters.weight_reloads = stats.iter().map(|s| s.weight_reloads).sum();
        counters.repairs = stats.iter().map(|s| s.repairs).sum();
        Ok(ServeOutcome {
            tenants: stats,
            makespan: Seconds::new(now),
            counters,
            policy: self.config.serve_policy,
            peak_resident: peak.into_iter().map(Bytes::new).collect(),
            budgets,
            acc_names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_system::system::BandwidthClass;
    use h2h_system::trace::ArrivalTrace;

    fn spec(name: &str, model: ModelGraph, rate: f64, slo_s: f64, requests: usize) -> TenantSpec {
        TenantSpec::new(name, model, rate, Seconds::new(slo_s), requests)
    }

    #[test]
    fn bad_specs_are_refused() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let m = h2h_model::zoo::mocap();
        assert!(matches!(
            reg.admit(spec("zero-rate", m.clone(), 0.0, 1.0, 4)),
            Err(ServeError::BadSpec { .. })
        ));
        assert!(matches!(
            reg.admit(spec("no-requests", m.clone(), 1.0, 1.0, 0)),
            Err(ServeError::BadSpec { .. })
        ));
        assert!(matches!(
            reg.admit(spec("zero-slo", m, 1.0, 0.0, 4)),
            Err(ServeError::BadSpec { .. })
        ));
        assert!(reg.is_empty());
    }

    #[test]
    fn attained_total_sums_in_record_order() {
        // 1e16 has a ulp of 2, so the order of the sum shows: record
        // order gives (1 + 1e16) + 1 == 1e16, sorted order gives
        // (1 + 1) + 1e16 == 1e16 + 2. The BENCH_serve.json bytes rely
        // on the record-order sum.
        let mut s = TenantServeStats::new("t".into(), 3, Seconds::new(2.0), Seconds::new(1.0));
        for latency in [1.0, 1e16, 1.0] {
            s.latencies.record(latency, false);
        }
        s.derive_from_ledger();
        assert_eq!(s.attained_total.as_f64().to_bits(), 1e16f64.to_bits());
        assert_ne!(1.0 + 1.0 + 1e16, 1e16, "sorted order would sum differently");
        assert_eq!((s.served, s.violations), (3, 1));
        assert_eq!(s.attained_max, Seconds::new(1e16));
        assert_eq!(s.latencies.p50(), Seconds::new(1.0));
    }

    #[test]
    fn admission_matches_the_offline_pipeline() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let model = h2h_model::zoo::mocap();
        let offline = H2hMapper::new(&model, &system).run().unwrap();
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let id = reg.admit(spec("mocap", model, 2.0, 2.0, 6)).unwrap();
        let t = reg.tenant(id);
        assert_eq!(t.mapping(), &offline.mapping);
        assert_eq!(t.locality(), &offline.locality);
        assert_eq!(t.ideal_latency(), offline.final_latency());
        assert_eq!(t.trimmed_pins(), 0, "full budget must trim nothing");
    }

    #[test]
    fn single_tenant_serving_is_coherent_and_batches() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let model = h2h_model::zoo::cnn_lstm();
        let cfg = H2hConfig { serve_verify: true, ..H2hConfig::default() };
        let mut reg = TenantRegistry::new(&system, cfg);
        // Arrivals far faster than the service rate force batching.
        reg.admit(spec("cnn", model, 200.0, 5.0, 24)).unwrap();
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 24);
        assert!(out.tenants[0].max_batch > 1, "backlog must trigger batching");
        assert!(out.counters.crosschecks > 0);
        assert_eq!(out.counters.crosscheck_mismatches, 0);
        // The naive reference pays weights per request and must drain
        // strictly slower.
        let naive = reg.serve_naive();
        naive.check_coherence().unwrap();
        assert!(
            out.makespan < naive.makespan,
            "batched {} must beat naive {}",
            out.makespan,
            naive.makespan
        );
        assert!(out.tenants[0].amortized_weight_time > Seconds::ZERO);
        assert_eq!(naive.tenants[0].amortized_weight_time, Seconds::ZERO);
        // A lone tenant is resident from bring-up and never evicted.
        assert_eq!(out.counters.weight_reloads, 0);
        assert_eq!(naive.counters.weight_reloads, 0);
    }

    #[test]
    fn budget_trim_fits_and_stays_consistent() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let model = h2h_model::zoo::cnn_lstm();
        // A tight budget forces pin trimming at admission; verify-mode
        // additionally asserts (inside admit) that the trim delta's
        // ideal equals a full evaluation bitwise.
        let cfg = H2hConfig {
            serve_dram_budget_frac: 0.001,
            serve_verify: true,
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(&system, cfg);
        match reg.admit(spec("tight", model.clone(), 4.0, 5.0, 8)) {
            Ok(id) => {
                let t = reg.tenant(id);
                assert!(t.trimmed_pins() > 0, "0.1% budget must trim pins");
                for acc in system.acc_ids() {
                    assert!(t.resident_bytes(acc) <= reg.budget_bytes(acc));
                }
                // Trimming pins can only slow the tenant down.
                let offline = H2hMapper::new(&model, &system).run().unwrap();
                assert!(t.ideal_latency() >= offline.final_latency());
                // The trimmed incremental state must still match a full
                // evaluation of the trimmed locality.
                let ev = Evaluator::new(&model, &system);
                let full = ev.evaluate(t.mapping(), t.locality()).makespan();
                assert_eq!(t.ideal_latency(), full, "delta trim diverged from full eval");
                let out = reg.serve();
                out.check_coherence().unwrap();
            }
            Err(ServeError::DramBudget { .. }) => {
                // Also acceptable: fusion buffers alone may exceed a
                // 0.1% budget. Nothing to serve then.
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }

    #[test]
    fn oversubscribed_tenants_are_split_across_rounds() {
        // Two tenants that each fit the budget alone but not together:
        // the batch former must alternate them, keep the per-round
        // footprint under budget, and still serve everything.
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let a = h2h_model::zoo::cnn_lstm();
        let b = h2h_model::zoo::mocap();
        let full_budget = H2hConfig::default();
        let mut probe = TenantRegistry::new(&system, full_budget);
        probe.admit(spec("a", a.clone(), 50.0, 10.0, 8)).unwrap();
        probe.admit(spec("b", b.clone(), 50.0, 10.0, 8)).unwrap();
        // Find a budget fraction that separates "fits alone" from
        // "fits together" on the most contended board.
        let mut frac = None;
        for acc in system.acc_ids() {
            let cap = system.acc(acc).dram_capacity().as_u64() as f64;
            let ra = probe.tenant(TenantId(0)).resident_bytes(acc).as_u64() as f64;
            let rb = probe.tenant(TenantId(1)).resident_bytes(acc).as_u64() as f64;
            if ra > 0.0 && rb > 0.0 {
                let f = (ra.max(rb) * 1.05 / cap).min(1.0);
                if ra + rb > f * cap {
                    frac = Some(f);
                    break;
                }
            }
        }
        let Some(frac) = frac else {
            // Zoo placements never contend on this system; the
            // oversubscription path is still covered by prop_serve.
            return;
        };
        let cfg = H2hConfig { serve_dram_budget_frac: frac, ..H2hConfig::default() };
        let mut reg = TenantRegistry::new(&system, cfg);
        reg.admit(spec("a", a, 50.0, 10.0, 8)).unwrap();
        reg.admit(spec("b", b, 50.0, 10.0, 8)).unwrap();
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 16);
        assert!(
            out.counters.rounds >= 2,
            "split tenants need at least two rounds, got {}",
            out.counters.rounds
        );
        // Alternation means evictions, and swap-ins are never free:
        // the returning tenant re-streams its pins over Ethernet.
        assert!(
            out.counters.weight_reloads > 0,
            "alternating tenants must pay reloads"
        );
        assert!(out.tenants.iter().any(|t| t.reload_time > Seconds::ZERO));
    }

    #[test]
    fn set_contract_rescales_without_remapping() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let id = reg.admit(spec("m", h2h_model::zoo::mocap(), 1.0, 1.0, 1)).unwrap();
        let ideal = reg.tenant(id).ideal_latency();
        reg.set_contract(id, 8.0 / ideal.as_f64(), ideal * 16.0, 24).unwrap();
        let t = reg.tenant(id);
        assert_eq!(t.ideal_latency(), ideal, "contract changes must not touch the mapping");
        assert_eq!(t.spec().requests, 24);
        assert!(matches!(
            reg.set_contract(id, 0.0, Seconds::new(1.0), 4),
            Err(ServeError::BadSpec { .. })
        ));
        assert_eq!(reg.tenant(id).spec().requests, 24, "rejected contracts leave state alone");
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 24);
    }

    #[test]
    fn slice_memo_and_noop_counters_fire() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        reg.admit(spec("m", h2h_model::zoo::mocap(), 500.0, 60.0, 40)).unwrap();
        let out = reg.serve();
        out.check_coherence().unwrap();
        // 40 requests at batch ≤ 8 need ≥ 5 slices but only a handful
        // of distinct batch sizes — the memo must carry most slices.
        assert!(out.tenants[0].batches >= 5);
        assert!(out.counters.slice_cache_hits > 0, "repeated batch sizes must hit the memo");
        assert!(out.counters.slice_evals <= 8, "distinct batch sizes are few");
    }

    #[test]
    fn non_finite_slos_are_refused() {
        // NaN slipped past the old `slo <= ZERO` check (every
        // comparison with NaN is false) and +inf trivially passed it;
        // both must be typed admission errors, at admit and at
        // set_contract.
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let m = h2h_model::zoo::mocap();
        // `Seconds::new` debug-asserts non-finite inputs away, but
        // arithmetic does not — scaling is how a NaN/inf SLO reaches a
        // contract in practice (e.g. `ideal * frac` with a bad knob).
        for bad in [f64::NAN, f64::INFINITY] {
            let s = TenantSpec::new("bad-slo", m.clone(), 1.0, Seconds::new(1.0) * bad, 4);
            assert!(matches!(reg.admit(s), Err(ServeError::BadSpec { .. })));
        }
        assert!(reg.is_empty());
        let id = reg.admit(spec("ok", m, 1.0, 1.0, 4)).unwrap();
        assert!(matches!(
            reg.set_contract(id, 1.0, Seconds::new(1.0) * f64::NAN, 4),
            Err(ServeError::BadSpec { .. })
        ));
        assert_eq!(reg.tenant(id).spec().slo, Seconds::new(1.0));
    }

    #[test]
    fn doomed_arrival_count_is_strict_at_integral_horizons() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let id = reg.admit(spec("m", h2h_model::zoo::mocap(), 1.0, 1.0, 4)).unwrap();
        let t = reg.tenant(id);
        // Rate 1 Hz: arrivals at 0, 1, 2, 3. An exactly-integral
        // horizon of 2.0 dooms the arrivals strictly before it — 0 and
        // 1, not 2 (the old `floor(h·r + 1e-9) + 1` counted 3 here).
        assert_eq!(t.doomed_arrivals(2.0), 2);
        assert_eq!(t.doomed_arrivals(2.5), 3);
        assert_eq!(t.doomed_arrivals(0.0), 0);
        assert_eq!(t.doomed_arrivals(-1.0), 0);
        assert_eq!(t.doomed_arrivals(100.0), 4, "the count caps at the window");
    }

    #[test]
    fn poisson_and_trace_tenants_serve_coherently_and_replay() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let m = h2h_model::zoo::mocap();
        reg.admit(
            spec("poisson", m.clone(), 50.0, 5.0, 30)
                .with_arrivals(ArrivalProcess::Poisson { seed: 42 }),
        )
        .unwrap();
        let tr = ArrivalTrace::new((0..30).map(|j| j as f64 * 0.01).collect()).unwrap();
        reg.admit(spec("trace", m, 50.0, 5.0, 30).with_arrivals(ArrivalProcess::Trace(tr)))
            .unwrap();
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 60);
        for t in &out.tenants {
            assert_eq!(t.latencies.count(), t.served);
            assert!(t.latencies.p50() <= t.latencies.p99());
        }
        // Sampled-at-admission schedules replay bitwise run to run
        // (the slice memo warms across serves, so only the ledgers and
        // the drain clock are compared — not the cache counters).
        let again = reg.serve();
        assert_eq!(out.tenants, again.tenants);
        assert_eq!(out.makespan, again.makespan);
    }

    #[test]
    fn contract_changes_refusing_to_materialize_leave_the_tenant_alone() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let tr = ArrivalTrace::new(vec![0.0, 0.1, 0.2, 0.3]).unwrap();
        let id = reg
            .admit(
                spec("m", h2h_model::zoo::mocap(), 10.0, 5.0, 4)
                    .with_arrivals(ArrivalProcess::Trace(tr)),
            )
            .unwrap();
        // Growing the window past the trace length must refuse and
        // leave both the contract and the materialized schedule as
        // they were.
        assert!(matches!(
            reg.set_contract(id, 10.0, Seconds::new(5.0), 16),
            Err(ServeError::BadSpec { .. })
        ));
        assert_eq!(reg.tenant(id).spec().requests, 4);
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 4);
        // Swapping the process re-materializes against the contract.
        reg.set_arrivals(id, ArrivalProcess::Fixed).unwrap();
        assert_eq!(reg.tenant(id).arrival(3), 3.0 / 10.0);
    }

    #[test]
    fn ranked_policies_serve_everything_coherently() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        for policy in [RoundPolicy::Edf, RoundPolicy::WeightedFair] {
            let cfg = H2hConfig { serve_policy: policy, ..H2hConfig::default() };
            let mut reg = TenantRegistry::new(&system, cfg);
            reg.admit(spec("cnn", h2h_model::zoo::cnn_lstm(), 60.0, 8.0, 12)).unwrap();
            reg.admit(spec("mocap", h2h_model::zoo::mocap(), 60.0, 8.0, 12)).unwrap();
            let out = reg.serve();
            out.check_coherence().unwrap();
            assert_eq!(out.total_served(), 24);
            assert_eq!(out.policy, policy);
        }
    }

    #[test]
    fn bounded_queue_sheds_overload_and_stays_coherent() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig { serve_queue_cap: 2, ..H2hConfig::default() };
        let mut reg = TenantRegistry::new(&system, cfg);
        // Arrivals far above the service rate against a 2-deep queue:
        // most of the window must be dropped at the head, and the
        // drops must reconcile with the served ledger exactly.
        let id = reg.admit(spec("m", h2h_model::zoo::mocap(), 1.0, 1.0, 1)).unwrap();
        let ideal = reg.tenant(id).ideal_latency();
        reg.set_contract(id, 50.0 / ideal.as_f64(), ideal * 4.0, 60).unwrap();
        let out = reg.serve();
        out.check_coherence().unwrap();
        let t = &out.tenants[0];
        assert!(t.shed > 0, "overload against a bounded queue must shed");
        assert!(t.served > 0, "the queue head that survives must still be served");
        assert_eq!(t.served + t.shed, 60);
        assert_eq!(out.total_shed(), t.shed);
        assert!(t.shed_doomed <= t.shed);
    }

    #[test]
    fn permanent_total_outage_stalls_unbounded_and_sheds_bounded() {
        // Every board goes down for good before the first arrival. The
        // historical unbounded-queue mode must report the structural
        // stall; with a bounded queue the blocked window is written
        // off as shed and the accounting still reconciles.
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let n_accs = system.num_accs();
        let mut plan = FaultPlan::empty();
        for a in 0..n_accs {
            plan = plan.with_event(h2h_system::fault::FaultEvent {
                acc: h2h_system::system::AccId::new(a),
                kind: h2h_system::fault::FaultKind::BoardDown,
                at: Seconds::new(1e-6),
                recover_at: None,
            });
        }
        let tr = ArrivalTrace::new((0..6).map(|j| 0.5 + j as f64 * 0.1).collect()).unwrap();
        let mk = |cap: usize| {
            let cfg = H2hConfig { serve_queue_cap: cap, ..H2hConfig::default() };
            let mut reg = TenantRegistry::new(&system, cfg);
            reg.admit(
                spec("m", h2h_model::zoo::mocap(), 10.0, 1.0, 6)
                    .with_arrivals(ArrivalProcess::Trace(tr.clone())),
            )
            .unwrap();
            reg
        };
        assert!(matches!(
            mk(0).serve_with_faults(&plan),
            Err(ServeError::Stalled { unserved: 6, .. })
        ));
        let out = mk(8).serve_with_faults(&plan).unwrap();
        out.check_coherence().unwrap();
        let t = &out.tenants[0];
        assert_eq!(t.served, 0, "an all-down fabric serves nothing");
        assert_eq!(t.shed, 6, "the whole window is written off");
        assert!(t.parks > 0, "the tenant must have been parked");
        assert_eq!(out.total_shed(), 6);
    }

    #[test]
    fn arrival_exactly_on_a_fault_boundary_counts_once() {
        // A fault boundary placed bitwise on an arrival instant: the
        // arrival clock (compared exactly, no slack) and the
        // epsilon-slackened boundary clock must not double- or
        // zero-count the request. Everything still drains, once.
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let id = reg.admit(spec("m", h2h_model::zoo::mocap(), 1.0, 1.0, 1)).unwrap();
        let ideal = reg.tenant(id).ideal_latency();
        let rate = 0.5 / ideal.as_f64();
        reg.set_contract(id, rate, ideal * 16.0, 6).unwrap();
        // The same quotient expression `FixedArrivals::arrival` uses.
        let boundary = 2.0 / rate;
        assert_eq!(boundary.to_bits(), reg.tenant(id).arrival(2).to_bits());
        let plan = FaultPlan::empty().with_event(h2h_system::fault::FaultEvent {
            acc: h2h_system::system::AccId::new(0),
            kind: h2h_system::fault::FaultKind::LinkDegraded { factor: 4.0 },
            at: Seconds::new(boundary),
            recover_at: None,
        });
        let out = reg.serve_with_faults(&plan).unwrap();
        out.check_coherence().unwrap();
        assert_eq!(out.tenants[0].served, 6, "every request exactly once");
        assert_eq!(out.total_shed(), 0);
    }
}

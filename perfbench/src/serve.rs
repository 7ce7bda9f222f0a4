//! The serving phases: timed admission on fresh registries, open-loop
//! Poisson drains at the three frozen rates with the bisection for
//! `max_rate_at_slo_hz`, and fault-timeline drains with direct
//! `repair_mapping` calls.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use h2h_core::repair::resolve_repair_budget;
use h2h_core::serve::{ServeOutcome, TenantId, TenantRegistry};
use h2h_core::{
    repair_mapping, scratch_remap, ArrivalProcess, H2hConfig, PinPreset, RepairOutcome, SearchStats,
};
use h2h_model::units::Seconds;
use h2h_system::schedule::Evaluator;
use h2h_system::trace::ArrivalTrace;

use crate::inputs::{
    Serving, Timeline, RATES_HZ, REQUESTS, SLO_MS, TENANTS, TIMED_REQUESTS, TRICKLE_HZ,
};
use crate::report::{keep_min, median, ratio, values, Allowance, Report};
use crate::trace::Tracer;

/// Admits every tenant into a fresh registry; returns the per-admit
/// host times (s).
pub fn admit_all<'s>(
    serving: &'s Serving,
    config: H2hConfig,
    tr: &mut Tracer,
) -> Result<(TenantRegistry<'s>, Vec<TenantId>, Vec<f64>), String> {
    let mut reg = TenantRegistry::new(&serving.system, config);
    let mut ids = Vec::new();
    let mut secs = Vec::new();
    for (k, name) in TENANTS.iter().enumerate() {
        let spec = serving.spec(k);
        let open = tr.enter("TenantRegistry::admit");
        let t = Instant::now();
        let id = reg.admit(spec);
        secs.push(t.elapsed().as_secs_f64());
        tr.exit(open);
        ids.push(id.map_err(|e| format!("{name}: admission failed: {e}"))?);
    }
    Ok((reg, ids, secs))
}

/// Sets every tenant's contract and its first `requests` Poisson
/// arrivals at aggregate rate `agg_hz`.
pub fn set_rate(
    reg: &mut TenantRegistry<'_>,
    ids: &[TenantId],
    serving: &Serving,
    slo_ms: &[f64; 3],
    agg_hz: f64,
    requests: usize,
) -> Result<(), String> {
    for (k, &id) in ids.iter().enumerate() {
        // The trace always holds every arrival; the contract serves a prefix.
        let trace = ArrivalTrace::new(serving.arrivals(k, agg_hz, REQUESTS))?;
        let slo = Seconds::new(slo_ms[k] / 1e3);
        reg.set_arrivals(id, ArrivalProcess::Trace(trace))
            .and_then(|()| reg.set_contract(id, agg_hz / TENANTS.len() as f64, slo, requests))
            .map_err(|e| format!("{}: contract at {agg_hz} Hz rejected: {e}", TENANTS[k]))?;
    }
    Ok(())
}

/// One timed no-fault drain: (outcome, host seconds).
fn drain(reg: &mut TenantRegistry<'_>, tr: &mut Tracer) -> (ServeOutcome, f64) {
    let open = tr.enter("TenantRegistry::serve");
    let t = Instant::now();
    let out = reg.serve();
    let secs = t.elapsed().as_secs_f64();
    tr.exit(open);
    (out, secs)
}

fn drained(out: &ServeOutcome) -> usize {
    out.tenants.iter().map(|t| t.served + t.shed).sum()
}

/// Worst tenant's modeled p99 over its SLO.
pub fn p99_over_slo(out: &ServeOutcome) -> f64 {
    out.tenants
        .iter()
        .map(|t| t.latencies.p99().as_f64() / t.slo.as_f64())
        .fold(0.0, f64::max)
}

/// The backlog-growth test: the drain must end within one SLO (the
/// largest tenant SLO) of the last arrival. A backlog that grows over
/// a horizon of thousands of requests overshoots it by far.
pub fn backlog_ok(out: &ServeOutcome, serving: &Serving, agg_hz: f64) -> bool {
    let last = (out.tenants.iter().enumerate())
        .filter_map(|(k, t)| serving.arrivals(k, agg_hz, t.requests).last().copied())
        .fold(0.0, f64::max);
    let slo = out
        .tenants
        .iter()
        .map(|t| t.slo.as_f64())
        .fold(0.0, f64::max);
    out.makespan.as_f64() <= last + slo
}

/// Meets the SLO contract at this rate: every tenant's p99 within its
/// SLO, nothing shed, and no growing backlog.
pub fn meets_slo(out: &ServeOutcome, serving: &Serving, agg_hz: f64) -> bool {
    p99_over_slo(out) <= 1.0 && out.total_shed() == 0 && backlog_ok(out, serving, agg_hz)
}

fn coherent(report: &mut Report, out: &ServeOutcome, what: &str) {
    let res = out.check_coherence();
    report.check(res.is_ok(), || {
        format!("{what}: check_coherence: {}", res.unwrap_err())
    });
}

/// Bisection bracket for `max_rate_at_slo_hz` (aggregate Hz); ten
/// geometric steps resolve the rate to 0.4%.
const BISECT_LO_HZ: f64 = TRICKLE_HZ;
const BISECT_HI_HZ: f64 = 1.0;
const BISECT_STEPS: usize = 10;

/// Highest aggregate rate meeting the SLO contract, by geometric
/// bisection between the bracket ends; returns (rate, serve calls).
pub fn max_rate_at_slo(
    reg: &mut TenantRegistry<'_>,
    ids: &[TenantId],
    serving: &Serving,
    slo_ms: &[f64; 3],
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(f64, usize), String> {
    let mut serves = 0;
    let mut probe = |rate: f64, tr: &mut Tracer, report: &mut Report| -> Result<bool, String> {
        set_rate(reg, ids, serving, slo_ms, rate, REQUESTS)?;
        let (out, _) = drain(reg, tr);
        serves += 1;
        coherent(report, &out, &format!("bisection drain at {rate} Hz"));
        Ok(meets_slo(&out, serving, rate))
    };
    let (mut lo, mut hi) = (BISECT_LO_HZ, BISECT_HI_HZ);
    let bracket = probe(lo, tr, report)? && !probe(hi, tr, report)?;
    report.check(bracket, || {
        format!("bisection bracket [{lo}, {hi}] Hz does not straddle the SLO")
    });
    for _ in 0..BISECT_STEPS {
        let mid = (lo * hi).sqrt();
        if probe(mid, tr, report)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo, serves))
}

/// The stream phase: timed drains at the three frozen rates in turn.
#[derive(Debug, Default)]
pub struct Stream {
    /// The first outcome at each rate.
    first: Vec<ServeOutcome>,
    /// Fastest drain (s) per rate.
    best: BTreeMap<usize, f64>,
    drain_ms: Vec<f64>,
    next: usize,
    clock: Allowance,
}

impl Stream {
    /// Drains while the phase has time left.
    pub fn step(
        &mut self,
        serving: &Serving,
        reg: &mut TenantRegistry<'_>,
        ids: &[TenantId],
        share: Duration,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Result<(), String> {
        self.clock.grant(share);
        while self.clock.left() {
            let start = Instant::now();
            self.drain_at(self.next % RATES_HZ.len(), serving, reg, ids, tr, report)?;
            self.clock.charge(start);
            self.next += 1;
        }
        Ok(())
    }

    fn drain_at(
        &mut self,
        r: usize,
        serving: &Serving,
        reg: &mut TenantRegistry<'_>,
        ids: &[TenantId],
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Result<(), String> {
        let (rate_name, rate) = RATES_HZ[r];
        set_rate(reg, ids, serving, &SLO_MS, rate, TIMED_REQUESTS)?;
        let (out, secs) = drain(reg, tr);
        keep_min(&mut self.best, r, secs);
        self.drain_ms.push(secs * 1e3);
        report.issued(1);
        coherent(report, &out, &format!("{rate_name} drain"));
        match self.first.get(r) {
            Some(f) => report.check(same_ledgers(&out, f), || {
                format!("{rate_name} drain is not deterministic")
            }),
            None => self.first.push(out),
        }
        Ok(())
    }

    /// Reports the phase's metrics, then the modeled tail metrics, the
    /// bisection and one `serve_verify` pass per rate.
    pub fn finish(
        mut self,
        serving: &Serving,
        reg: &mut TenantRegistry<'_>,
        ids: &[TenantId],
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Result<(), String> {
        while self.first.len() < RATES_HZ.len() {
            self.drain_at(self.first.len(), serving, reg, ids, tr, report)?;
        }
        let reqs: usize = self.first.iter().map(drained).sum();
        let host: f64 = self.best.values().sum();
        report.set("serve.stream_us_per_req", host * 1e6 / reqs as f64, "us");
        report.set("serve.drain_ms", median(&self.drain_ms), "ms");

        // The modeled tail metrics come from one longer drain per rate.
        let mut tails = Vec::new();
        for &(rate_name, rate) in &RATES_HZ {
            set_rate(reg, ids, serving, &SLO_MS, rate, REQUESTS)?;
            let (out, _) = drain(reg, tr);
            report.issued(1);
            coherent(report, &out, &format!("{rate_name} tail drain"));
            tails.push(out);
        }
        let mut totals = [0usize; 6];
        let mut reload_s = 0.0;
        for ((rate_name, _), out) in RATES_HZ.iter().zip(&tails) {
            report.set(
                format!("p99_over_slo.{rate_name}"),
                p99_over_slo(out),
                "ratio",
            );
            for t in &out.tenants {
                let name = format!("serve.p99_over_slo.{}.{rate_name}", t.name.to_lowercase());
                report.set(name, t.latencies.p99().as_f64() / t.slo.as_f64(), "ratio");
                totals[4] += t.batches;
                totals[5] += t.served;
                reload_s += t.reload_time.as_f64();
            }
            let c = &out.counters;
            totals[0] += c.rounds;
            totals[1] += c.slice_evals;
            totals[2] += c.slice_cache_hits;
            totals[3] += c.weight_reloads;
            report.check(out.total_shed() == 0, || {
                format!("{rate_name} drain shed requests")
            });
        }
        report.set("serve.rounds", totals[0] as f64, "count");
        report.set("serve.slice_evals", totals[1] as f64, "count");
        report.set(
            "serve.slice_cache_hit_ratio",
            ratio(totals[2], totals[2] + totals[1]),
            "ratio",
        );
        report.set("serve.weight_reloads", totals[3] as f64, "count");
        report.set("serve.mean_batch", ratio(totals[5], totals[4]), "requests");
        report.set("serve.reload_time_s", reload_s, "s");
        let shed: usize = tails.iter().map(ServeOutcome::total_shed).sum();
        report.set("serve.requests_shed", shed as f64, "count");
        let trimmed: usize = ids.iter().map(|id| reg.tenant(*id).trimmed_pins()).sum();
        report.set("serve.trimmed_pins", trimmed as f64, "count");

        let (rate, serves) = max_rate_at_slo(reg, ids, serving, &SLO_MS, tr, report)?;
        report.issued(serves);
        report.set("max_rate_at_slo_hz", rate, "Hz");
        report.set("serve.bisect_serves", serves as f64, "count");

        // One verified pass per rate: every slice cross-checked against
        // a full evaluation, and ledgers equal to the unverified drain.
        let cfg = H2hConfig {
            serve_verify: true,
            ..serving.config
        };
        let (mut vreg, vids, _) = admit_all(serving, cfg, tr)?;
        report.issued(vids.len());
        // Batch-1 slices are verified at admission, so a rate whose
        // slices are all single requests makes no crosschecks; the three
        // passes together must make some.
        let mut crosschecks = 0;
        for ((rate_name, rate), plain) in RATES_HZ.iter().zip(&self.first) {
            set_rate(&mut vreg, &vids, serving, &SLO_MS, *rate, TIMED_REQUESTS)?;
            let (out, _) = drain(&mut vreg, tr);
            report.issued(1);
            coherent(report, &out, &format!("{rate_name} verified drain"));
            let c = &out.counters;
            crosschecks += c.crosschecks;
            report.check(c.crosscheck_mismatches == 0, || {
                format!(
                    "{rate_name}: {} of {} slice crosschecks mismatched",
                    c.crosscheck_mismatches, c.crosschecks
                )
            });
            report.check(same_ledgers(&out, plain), || {
                format!("{rate_name}: verified drain's ledgers differ from the timed drain")
            });
        }
        report.check(crosschecks > 0, || {
            "the verified drains cross-checked no slice".to_owned()
        });
        Ok(())
    }
}

fn same_ledgers(a: &ServeOutcome, b: &ServeOutcome) -> bool {
    let bits = |s: Seconds| s.as_f64().to_bits();
    a.makespan == b.makespan
        && a.counters.rounds == b.counters.rounds
        && a.tenants.len() == b.tenants.len()
        && a.tenants.iter().zip(&b.tenants).all(|(x, y)| {
            x.served == y.served
                && x.violations == y.violations
                && x.batches == y.batches
                && x.weight_reloads == y.weight_reloads
                && bits(x.reload_time) == bits(y.reload_time)
                && bits(x.attained_total) == bits(y.attained_total)
                && bits(x.attained_max) == bits(y.attained_max)
                && bits(x.latencies.p50()) == bits(y.latencies.p50())
                && bits(x.latencies.p99()) == bits(y.latencies.p99())
        })
}

/// The admit phase: fresh registries, every admission timed.
#[derive(Debug, Default)]
pub struct Admit {
    /// Fastest admission (ms) per tenant.
    best: BTreeMap<usize, f64>,
    clock: Allowance,
}

impl Admit {
    /// Admits into fresh registries while the phase has time left.
    pub fn step(
        &mut self,
        serving: &Serving,
        base: &TenantRegistry<'_>,
        base_ids: &[TenantId],
        share: Duration,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Result<(), String> {
        self.clock.grant(share);
        while self.clock.left() {
            let start = Instant::now();
            let (reg, ids, secs) = admit_all(serving, serving.config, tr)?;
            report.issued(ids.len());
            for (k, s) in secs.iter().enumerate() {
                keep_min(&mut self.best, k, s * 1e3);
            }
            for (k, (id, base_id)) in ids.iter().zip(base_ids).enumerate() {
                let (t, b) = (reg.tenant(*id), base.tenant(*base_id));
                report.check(
                    t.mapping() == b.mapping() && t.ideal_latency() == b.ideal_latency(),
                    || format!("{}: admission is not deterministic", TENANTS[k]),
                );
            }
            self.clock.charge(start);
        }
        Ok(())
    }

    pub fn finish(self, report: &mut Report) {
        report.set("admit_ms_p50", median(&values(&self.best)), "ms");
    }
}

/// The fault phase: timed `serve_with_faults` drains through both
/// timelines at the mid rate, and timed `repair_mapping` calls (one per
/// tenant and fault state) on the degraded evaluators. Drains and
/// repairs each get half the phase's time, so the cheap repairs are
/// sampled as often as the drains allow.
#[derive(Debug)]
pub struct Faults<'a> {
    timelines: &'a [Timeline],
    /// Degraded evaluators, one per (timeline, tenant).
    evaluators: Vec<Vec<Evaluator<'a>>>,
    /// Fastest drain (s) per timeline and repair (ms) per (timeline, tenant).
    best_drain: BTreeMap<usize, f64>,
    best_repair: BTreeMap<(usize, usize), f64>,
    drain_ms: Vec<f64>,
    first_drains: BTreeMap<usize, ServeOutcome>,
    first_repairs: BTreeMap<(usize, usize), RepairOutcome>,
    next_drain: usize,
    next_repair: usize,
    drain_clock: Allowance,
    repair_clock: Allowance,
}

impl<'a> Faults<'a> {
    pub fn new(serving: &'a Serving, timelines: &'a [Timeline], tr: &mut Tracer) -> Self {
        let evaluators = timelines
            .iter()
            .map(|tl| {
                serving
                    .models
                    .iter()
                    .map(|model| tr.span("Evaluator::new", || Evaluator::new(model, &tl.degraded)))
                    .collect()
            })
            .collect();
        Faults {
            timelines,
            evaluators,
            best_drain: BTreeMap::new(),
            best_repair: BTreeMap::new(),
            drain_ms: Vec::new(),
            first_drains: BTreeMap::new(),
            first_repairs: BTreeMap::new(),
            next_drain: 0,
            next_repair: 0,
            drain_clock: Allowance::default(),
            repair_clock: Allowance::default(),
        }
    }

    /// Drains and repairs while each has time left.
    pub fn step(
        &mut self,
        serving: &Serving,
        reg: &mut TenantRegistry<'_>,
        ids: &[TenantId],
        share: Duration,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Result<(), String> {
        self.drain_clock.grant(share / 2);
        self.repair_clock.grant(share / 2);
        while self.drain_clock.left() {
            let start = Instant::now();
            let i = self.next_drain % self.timelines.len();
            let (out, secs) = self.drain(i, serving, reg, ids, TIMED_REQUESTS, tr, report)?;
            keep_min(&mut self.best_drain, i, secs);
            self.drain_ms.push(secs * 1e3);
            self.first_drains.entry(i).or_insert(out);
            self.drain_clock.charge(start);
            self.next_drain += 1;
        }
        while self.repair_clock.left() {
            let start = Instant::now();
            let j = self.next_repair % (self.timelines.len() * TENANTS.len());
            self.repair(
                (j / TENANTS.len(), j % TENANTS.len()),
                serving,
                reg,
                ids,
                tr,
                report,
            )?;
            self.repair_clock.charge(start);
            self.next_repair += 1;
        }
        Ok(())
    }

    /// One `serve_with_faults` drain through timeline `i` at the mid
    /// rate; returns the outcome and its host seconds.
    #[allow(clippy::too_many_arguments)]
    fn drain(
        &self,
        i: usize,
        serving: &Serving,
        reg: &mut TenantRegistry<'_>,
        ids: &[TenantId],
        requests: usize,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Result<(ServeOutcome, f64), String> {
        let tl = &self.timelines[i];
        set_rate(reg, ids, serving, &SLO_MS, RATES_HZ[1].1, requests)?;
        let open = tr.enter("TenantRegistry::serve_with_faults");
        let t = Instant::now();
        let res = reg.serve_with_faults(&tl.plan);
        let secs = t.elapsed().as_secs_f64();
        tr.exit(open);
        report.issued(1);
        let out = res.map_err(|e| format!("{} drain failed: {e}", tl.name))?;
        coherent(
            report,
            &out,
            &format!("{} drain ({requests} requests per tenant)", tl.name),
        );
        Ok((out, secs))
    }

    fn repair(
        &mut self,
        (i, k): (usize, usize),
        serving: &Serving,
        reg: &TenantRegistry<'_>,
        ids: &[TenantId],
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Result<(), String> {
        let (tl, ev) = (&self.timelines[i], &self.evaluators[i][k]);
        let cfg = serving.config;
        let incumbent = reg.tenant(ids[k]).mapping();
        let moves = resolve_repair_budget(&cfg, ev.model());
        let open = tr.enter("repair_mapping");
        let t = Instant::now();
        let res = repair_mapping(ev, &cfg, &PinPreset::new(), incumbent, &tl.state, moves);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.exit(open);
        report.issued(1);
        keep_min(&mut self.best_repair, (i, k), ms);
        let rep = res.map_err(|e| format!("{} / {}: repair failed: {e}", TENANTS[k], tl.name))?;
        if let Entry::Vacant(first) = self.first_repairs.entry((i, k)) {
            report.check(rep.repaired() <= rep.incumbent_degraded, || {
                format!(
                    "{} / {}: repaired {} above evacuated incumbent {}",
                    TENANTS[k],
                    tl.name,
                    rep.repaired(),
                    rep.incumbent_degraded
                )
            });
            first.insert(rep);
        }
        Ok(())
    }

    /// Reports the phase's metrics, then the recovery metrics against
    /// one untimed `scratch_remap` per tenant and fault state.
    pub fn finish(
        mut self,
        serving: &Serving,
        reg: &mut TenantRegistry<'_>,
        ids: &[TenantId],
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Result<(), String> {
        for i in 0..self.timelines.len() {
            if !self.first_drains.contains_key(&i) {
                let (out, secs) = self.drain(i, serving, reg, ids, TIMED_REQUESTS, tr, report)?;
                keep_min(&mut self.best_drain, i, secs);
                self.first_drains.insert(i, out);
            }
            for k in 0..TENANTS.len() {
                if !self.first_repairs.contains_key(&(i, k)) {
                    self.repair((i, k), serving, reg, ids, tr, report)?;
                }
            }
        }
        let reqs: usize = self.first_drains.values().map(drained).sum();
        let host: f64 = self.best_drain.values().sum();
        report.set("serve.fault_us_per_req", host * 1e6 / reqs as f64, "us");
        report.set("repair_ms_p50", median(&values(&self.best_repair)), "ms");
        report.set("serve.fault_drain_ms", median(&self.drain_ms), "ms");

        // The modeled fault metrics come from one longer drain per timeline.
        let mut tails = Vec::new();
        for i in 0..self.timelines.len() {
            tails.push(self.drain(i, serving, reg, ids, REQUESTS, tr, report)?.0);
        }
        let (mut met, mut window) = (0usize, 0usize);
        let mut counts = [0usize; 5];
        for out in &tails {
            for t in &out.tenants {
                met += t.degraded_served - t.violations_degraded;
                window += t.degraded_served + t.shed;
                counts[4] += t.parks;
            }
            let c = &out.counters;
            counts[0] += c.fault_transitions;
            counts[1] += c.repairs;
            counts[2] += c.staged_repairs;
            counts[3] += c.repair_evals;
        }
        report.set(
            "degraded_slo_attainment_pct",
            100.0 * ratio(met, window),
            "%",
        );
        let names = [
            "serve.fault_transitions",
            "serve.repairs",
            "serve.staged_repairs",
            "serve.repair_evals",
            "serve.parks",
        ];
        for (name, v) in names.into_iter().zip(counts) {
            report.set(name, v as f64, "count");
        }
        report.check(counts[0] > 0, || {
            "fault timelines were never crossed".to_owned()
        });

        let cfg = serving.config;
        let preset = PinPreset::new();
        let (mut gained, mut possible) = (0.0, 0.0);
        let mut repair = SearchStats::default();
        let mut scratch_moves = 0usize;
        let mut evacuated = 0usize;
        for (&(i, k), rep) in &self.first_repairs {
            let (tl, model) = (&self.timelines[i], &serving.models[k]);
            let open = tr.enter("scratch_remap");
            let scratch = scratch_remap(model, reg.system(), &tl.state, &cfg, &preset);
            tr.exit(open);
            report.issued(1);
            let scratch = scratch
                .map_err(|e| format!("{} / {}: scratch_remap failed: {e}", TENANTS[k], tl.name))?;
            let incumbent = rep.incumbent_degraded.as_f64();
            gained += incumbent - rep.repaired().as_f64();
            possible += incumbent - scratch.makespan.as_f64();
            repair.absorb(&rep.stats);
            scratch_moves += scratch.stats.attempted_moves;
            evacuated += rep.evacuated.len();
        }
        report.set("repair_recovery_pct", 100.0 * gained / possible, "%");
        report.set(
            "repair.attempted_moves",
            repair.attempted_moves as f64,
            "count",
        );
        report.set(
            "repair.accepted_moves",
            repair.accepted_moves as f64,
            "count",
        );
        report.set("repair.propagations", repair.propagations as f64, "count");
        report.set("repair.evacuated_layers", evacuated as f64, "count");
        report.set(
            "repair.accept_ratio",
            ratio(repair.accepted_moves, repair.attempted_moves),
            "ratio",
        );
        report.set(
            "repair.move_ratio_vs_scratch",
            ratio(repair.attempted_moves, scratch_moves),
            "ratio",
        );
        Ok(())
    }
}

/// Derives the frozen contract from today's code at the calibration
/// seed: SLO = 1.5 × each tenant's p99 at the trickle rate; the three
/// rates are 0.25, 0.5 and 0.85 of the resulting `max_rate_at_slo_hz`.
pub fn calibrate(serving: &Serving, report: &mut Report) -> Result<String, String> {
    let mut tr = Tracer::new(false);
    let (mut reg, ids, _) = admit_all(serving, serving.config, &mut tr)?;
    set_rate(&mut reg, &ids, serving, &[1e9; 3], TRICKLE_HZ, REQUESTS)?;
    let (out, _) = drain(&mut reg, &mut tr);
    coherent(report, &out, "trickle drain");
    let slo: Vec<f64> = out
        .tenants
        .iter()
        .map(|t| (1.5 * t.latencies.p99().as_f64() * 1e4).round() / 10.0)
        .collect();
    let slo: [f64; 3] = slo
        .try_into()
        .map_err(|_| "one SLO per tenant".to_owned())?;
    let (max, _) = max_rate_at_slo(&mut reg, &ids, serving, &slo, &mut tr, report)?;
    let round = |x: f64| (x * 1e5).round() / 1e5;
    Ok(format!(
        "pub const SLO_MS: [f64; 3] = {slo:?};\n\
         pub const RATES_HZ: [(&str, f64); 3] = [(\"light\", {}), (\"mid\", {}), (\"heavy\", {})];\n\
         // max_rate_at_slo_hz at the calibration seed: {max}",
        round(0.25 * max),
        round(0.5 * max),
        round(0.85 * max)
    ))
}

//! Multi-tenant serving benchmark: admits N zoo tenants into one
//! system, serves their full request windows with the batched
//! scheduler *and* the naive per-request reference, verifies every
//! slice against the full evaluator, checks the SLO/budget accounting
//! for coherence, and emits `BENCH_serve.json` so the serving
//! trajectory is tracked from run to run.
//!
//! ```text
//! cargo run --release -p h2h-bench --bin bench_serve -- [out.json]
//!     [--tenants CASIA-SURF:24,FaceBag:24,VFS:24]
//!     [--bandwidths Low-] [--max-batch 8] [--budget-frac 1.0,0.1]
//!     [--min-speedup 1.05] [--topology uniform,skewed]
//!     [--faults board-down | --faults "board:3@0.5;link:1/4@0.2"]
//!     [--arrivals fixed|poisson:SEED|trace:PATH]
//!     [--policy knapsack,edf,wfair] [--load-sweep 0.5,0.8,1.1]
//!     [--min-tail-gain 1.0]
//! ```
//!
//! `--topology` sweeps interconnect fabrics (specs as accepted by
//! `h2h_system::topology::Topology::parse`): tenants are admitted,
//! trimmed and served on the chosen fabric, with eviction reloads and
//! weight streaming charged at each board's actual link rate.
//!
//! `--faults` additionally drains every run through a degraded-fabric
//! window twice — once with time-budgeted mapping repair at each fault
//! transition and once evacuate-only — and gates the repaired drain
//! and degraded-window SLO attainment against the unrepaired baseline.
//! The `board-down` preset downs the board holding the most resident
//! tenant weights just after the drain starts and never recovers it.
//! The `nic-degrade` preset halves the host NIC and throttles the
//! busiest board 8x for the whole drain, with a realistic 25µs
//! per-attempted-move repair cost, so every repair is staged behind
//! its modeled wall time (`repair_time_charged` on the ledgers);
//! anything else is parsed as a raw `h2h_system::fault::FaultPlan`.
//! The no-fault records are unaffected (fault serving snapshots and
//! restores the registry), which is what the CI bit-identity diff of
//! `BENCH_serve.json` checks.
//!
//! `--load-sweep` adds the open-loop throughput–p99 curve: a fresh
//! registry at the 10% serve budget whose per-tenant arrival rates are
//! scaled to fractions of the fleet's measured max-batch capacity
//! (`load × max_batch / Σ_j slice_makespan_j(max_batch)`), 200
//! requests per tenant so p99 is a real tail, swept across the
//! `--policy` batch formers. Each knapsack curve point gates the
//! batched tail against the naive per-request reference
//! (`naive p99 / batched p99 >= --min-tail-gain`, default 1.0).
//! `--arrivals` picks the open-loop arrival process for every run
//! (default `fixed`, the deterministic clock — curve rows in the
//! committed `BENCH_serve.json` stay byte-stable; the CI max-load
//! smoke passes `poisson:42` and writes to /tmp, since `ln` is not
//! guaranteed bit-identical across machines).
//!
//! Tenant entries are `name[:requests[:rate_hz[:slo_ms]]]`; omitted
//! rate/SLO default to a backlog-heavy `8 / ideal` arrival rate and a
//! `24 × ideal` SLO (ideal = the tenant's zero-queueing latency, read
//! from its admitted placement). Exits non-zero if any slice diverges
//! from the full evaluator (`matches_reference: false`), any
//! SLO/budget ledger is incoherent, batched serving fails to beat
//! the naive reference by `--min-speedup` on drain makespan, or a
//! knapsack curve point fails the tail gate. `--help` prints the usage
//! line and exits 0; an unknown flag, a malformed or out-of-range
//! value (`--budget-frac` outside (0, 1], `--max-batch 0`, a
//! non-positive `--load-sweep` entry), or a tenant contract that
//! admission refuses exits 2.

use serde::Serialize;

use h2h_bench::cli::Cli;
use h2h_core::serve::{TenantRegistry, TenantSpec};
use h2h_core::{ArrivalProcess, H2hConfig, RoundPolicy};
use h2h_model::units::Seconds;
use h2h_system::fault::FaultPlan;
use h2h_system::schedule::Evaluator;
use h2h_system::system::{BandwidthClass, SystemSpec};

/// One (run, tenant) record; run-level columns repeat per tenant row.
#[derive(Debug, Serialize)]
struct ServeRecord {
    bandwidth: String,
    /// Interconnect fabric spec (`uniform` = the scalar star).
    topology: String,
    tenants: usize,
    tenant: String,
    layers: usize,
    requests: usize,
    rate_hz: f64,
    slo_ms: f64,
    /// Zero-queueing request latency (batch-1 slice makespan).
    ideal_ms: f64,
    attained_mean_ms: f64,
    attained_max_ms: f64,
    /// Tail-latency ledger (nearest-rank percentiles over the exact
    /// per-request samples).
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    violations: usize,
    /// Requests dropped by the bounded per-tenant queue (0 here — the
    /// bench serves unbounded queues).
    shed: usize,
    batches: usize,
    max_batch: u32,
    /// Weight-fetch time saved by batching for this tenant.
    amortized_weight_ms: f64,
    /// Eviction swap-ins and the Ethernet reload time they cost.
    weight_reloads: usize,
    reload_time_ms: f64,
    /// Pins dropped at admission to fit the shared DRAM budget.
    trimmed_pins: usize,
    // Run-level columns.
    /// Arrival process label (`fixed`, `poisson:SEED`, `trace(N)`).
    arrivals: String,
    /// Batch-forming policy the run used.
    policy: String,
    /// Offered load as a fraction of the fleet's measured max-batch
    /// capacity; `None` on the classic contract rows.
    offered_load_frac: Option<f64>,
    /// Naive max-p99 over batched max-p99 at this curve point
    /// (`None` off the load sweep).
    tail_gain: Option<f64>,
    max_batch_cap: u32,
    budget_frac: f64,
    rounds: usize,
    slice_evals: usize,
    slice_cache_hits: usize,
    drain_batched_s: f64,
    drain_naive_s: f64,
    batching_speedup: f64,
    /// Peak co-resident bytes across all boards, and the summed budget.
    peak_resident_mib: f64,
    budget_mib: f64,
    budget_ok: bool,
    /// All slice cross-checks matched the full evaluator bitwise.
    matches_reference: bool,
    coherent: bool,
    // Fault-window columns (`--faults`); `None`/zero without it.
    fault_spec: Option<String>,
    fault_transitions: usize,
    fault_repairs: usize,
    /// Drain makespan through the fault window with budgeted repair,
    /// and with the evacuate-only baseline.
    drain_repaired_s: Option<f64>,
    drain_unrepaired_s: Option<f64>,
    /// Fraction of degraded-window requests that met their SLO, with
    /// and without repair.
    degraded_attainment_repaired: Option<f64>,
    degraded_attainment_unrepaired: Option<f64>,
}

/// SLO attainment over the degraded-window requests of an outcome
/// (1.0 when the window served nothing).
fn degraded_attainment(out: &h2h_core::serve::ServeOutcome) -> f64 {
    let (mut served, mut viol) = (0usize, 0usize);
    for t in &out.tenants {
        served += t.degraded_served;
        viol += t.violations_degraded;
    }
    if served == 0 {
        1.0
    } else {
        (served - viol) as f64 / served as f64
    }
}

const USAGE: &str = "usage: bench_serve [OUT.json] [--tenants NAME[:REQS[:HZ[:SLO_MS]]],...] \
[--bandwidths Low-] [--max-batch N] [--budget-frac 1.0,0.1] [--min-speedup X] \
[--topology uniform,skewed] [--faults board-down|nic-degrade|SPEC] \
[--arrivals fixed|poisson:SEED|trace:PATH] [--policy knapsack,edf,wfair] \
[--load-sweep 0.5,0.8,1.1] [--min-tail-gain X]";

fn main() {
    let mut out_path = "BENCH_serve.json".to_owned();
    // Default mix: the three zoo models with a real weight-transfer
    // share at Low- (13–26% of their makespan even DRAM-resident) —
    // the population batching exists for. MoCap / CNN-LSTM are
    // activation-dominated (≤ 2% weight share) and show only marginal
    // batching gains; pass them via --tenants to measure that floor.
    let mut tenant_args =
        vec!["CASIA-SURF:24".to_owned(), "FaceBag:24".to_owned(), "VFS:24".to_owned()];
    let mut bandwidths = vec!["Low-".to_owned()];
    let mut max_batch = 8u32;
    // Two budget scenarios by default: the full board (everything the
    // offline pipeline pinned stays resident — batching only amortizes
    // DRAM-rate weight reads, the ~1.05x floor) and a 10% serve budget
    // (admission trims pins, weights stream over Ethernet, and batching
    // amortizes the expensive fetch — the multi-tenant story).
    let mut budget_fracs = vec![1.0f64, 0.1];
    let mut min_speedup: Option<f64> = None;
    let mut topologies = vec!["uniform".to_owned(), "skewed".to_owned()];
    let mut fault_arg: Option<String> = None;
    // Open-loop serving knobs: the arrival process every run uses, the
    // batch-forming policies and capacity fractions the load sweep
    // walks, and the knapsack tail gate.
    let mut arrivals_arg = "fixed".to_owned();
    let mut policies = vec!["knapsack".to_owned(), "edf".to_owned(), "wfair".to_owned()];
    let mut load_sweep = vec![0.5f64, 0.8, 1.1];
    let mut min_tail_gain = 1.0f64;

    let mut cli = Cli::new(USAGE);
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--tenants" => tenant_args = cli.list("--tenants"),
            "--bandwidths" => bandwidths = cli.list("--bandwidths"),
            "--max-batch" => max_batch = cli.parsed("--max-batch"),
            "--budget-frac" => budget_fracs = cli.parsed_list("--budget-frac"),
            "--min-speedup" => min_speedup = Some(cli.parsed("--min-speedup")),
            "--topology" => topologies = cli.list("--topology"),
            "--faults" => fault_arg = Some(cli.value("--faults")),
            "--arrivals" => arrivals_arg = cli.value("--arrivals"),
            "--policy" => policies = cli.list("--policy"),
            "--load-sweep" => load_sweep = cli.parsed_list("--load-sweep"),
            "--min-tail-gain" => min_tail_gain = cli.parsed("--min-tail-gain"),
            flag if flag.starts_with("--") => cli.fail(format!("unknown flag `{flag}`")),
            path => out_path = path.to_owned(),
        }
    }
    if tenant_args.is_empty() {
        cli.fail("--tenants list must not be empty");
    }
    if max_batch == 0 {
        cli.fail("--max-batch must be at least 1");
    }
    if let Some(f) = budget_fracs.iter().find(|f| !(**f > 0.0 && **f <= 1.0)) {
        cli.fail(format!("--budget-frac entries must be in (0, 1], got {f}"));
    }
    if let Some(l) = load_sweep.iter().find(|l| !(**l > 0.0 && l.is_finite())) {
        cli.fail(format!("--load-sweep entries must be positive and finite, got {l}"));
    }

    let bandwidths: Vec<BandwidthClass> = bandwidths
        .iter()
        .map(|label| {
            BandwidthClass::by_label(label)
                .unwrap_or_else(|| cli.fail(format!("unknown bandwidth class `{label}`")))
        })
        .collect();
    let arrival_process = ArrivalProcess::parse(&arrivals_arg)
        .unwrap_or_else(|e| cli.fail(format!("--arrivals: {e}")));
    let policies: Vec<RoundPolicy> = policies
        .iter()
        .map(|p| RoundPolicy::parse(p).unwrap_or_else(|e| cli.fail(format!("--policy: {e}"))))
        .collect();

    let mut records = Vec::new();
    let mut failures = 0usize;
    println!(
        "{:<10} {:>5} {:>9} {:>6} {:>5} {:>8} {:>10} {:>10} {:>5} {:>9} {:>8} {:>6}",
        "tenant", "bw", "topology", "dram", "req", "maxbatch", "ideal", "mean", "viol",
        "speedup", "budget", "match"
    );
    for bw in &bandwidths {
        for topo_spec in &topologies {
        let system = SystemSpec::standard_with_topology(*bw, Some(topo_spec))
            .unwrap_or_else(|e| cli.fail(format!("--topology `{topo_spec}`: {e}")));
        for &budget_frac in &budget_fracs {
            // A nonzero per-move repair cost only matters to the
            // fault-window serves (admission and the no-fault drains
            // never read it), so the no-fault records stay
            // bit-identical with or without `--faults nic-degrade`.
            let repair_secs_per_move =
                if fault_arg.as_deref() == Some("nic-degrade") { 25e-6 } else { 0.0 };
            let cfg = H2hConfig {
                serve_max_batch: max_batch,
                serve_dram_budget_frac: budget_frac,
                serve_verify: true,
                repair_secs_per_move,
                ..H2hConfig::default()
            };
            let mut reg = TenantRegistry::new(&system, cfg);
            for entry in &tenant_args {
                let parts: Vec<&str> = entry.split(':').collect();
                let name = parts[0];
                let model = h2h_model::zoo::by_name(name).unwrap_or_else(|| {
                    cli.fail(format!(
                        "--tenants entry `{name}` matches no zoo model (have: {})",
                        h2h_model::zoo::all_models()
                            .iter()
                            .map(|m| m.name().to_owned())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                });
                let requests: usize =
                    parts.get(1).map_or(24, |r| cli.parse("--tenants request count", r));
                let explicit_rate: Option<f64> =
                    parts.get(2).map(|r| cli.parse("--tenants rate (Hz)", r));
                let explicit_slo: Option<f64> =
                    parts.get(3).map(|r| cli.parse::<f64>("--tenants SLO (ms)", r) / 1e3);
                // Admit first (one pipeline run), then scale the
                // omitted contract terms to the tenant's own
                // zero-queueing latency: a backlog-heavy 8/ideal
                // arrival rate and a 24x ideal SLO so every model
                // batches.
                let id = reg
                    .admit(TenantSpec::new(
                        name,
                        model,
                        explicit_rate.unwrap_or(1.0),
                        Seconds::new(explicit_slo.unwrap_or(1.0)),
                        requests,
                    ))
                    .unwrap_or_else(|e| cli.fail(format!("--tenants: {e}")));
                let ideal = reg.tenant(id).ideal_latency().as_f64();
                reg.set_contract(
                    id,
                    explicit_rate.unwrap_or(8.0 / ideal),
                    Seconds::new(explicit_slo.unwrap_or(24.0 * ideal)),
                    requests,
                )
                .unwrap_or_else(|e| cli.fail(format!("--tenants: {e}")));
                // The arrival process re-materializes against the
                // scaled contract (default `fixed` is the historical
                // deterministic clock, bit-identical).
                reg.set_arrivals(id, arrival_process.clone())
                    .unwrap_or_else(|e| cli.fail(format!("--arrivals: {e}")));
            }

            let batched = reg.serve();
            let naive = reg.serve_naive();
            let coherent = match batched.check_coherence().and(naive.check_coherence()) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("FAIL: incoherent serve accounting @ {}: {e}", bw.label());
                    false
                }
            };
            let matches_reference = batched.counters.crosscheck_mismatches == 0
                && naive.counters.crosscheck_mismatches == 0
                && batched.counters.crosschecks > 0;
            if !matches_reference {
                eprintln!(
                    "FAIL: slice evaluations diverged from the full evaluator @ {} ({} of {})",
                    bw.label(),
                    batched.counters.crosscheck_mismatches + naive.counters.crosscheck_mismatches,
                    batched.counters.crosschecks + naive.counters.crosschecks
                );
            }
            let budget_ok = batched
                .peak_resident
                .iter()
                .zip(batched.budgets.iter())
                .all(|(peak, budget)| peak <= budget);
            let speedup = naive.makespan.as_f64() / batched.makespan.as_f64().max(1e-12);
            let speedup_ok = min_speedup.is_none_or(|min| speedup >= min);
            if !speedup_ok {
                eprintln!(
                    "FAIL: batching speedup {:.3}x below the {:.2}x gate @ {}",
                    speedup,
                    min_speedup.unwrap_or(0.0),
                    bw.label()
                );
            }
            // Degraded-fabric window: serve the same drain through the
            // fault plan with budgeted repair and evacuate-only, and
            // gate repair's value. Runs after the no-fault serves and
            // leaves the registry untouched (snapshot/restore), so the
            // records above stay bit-identical with or without it.
            let mut fault = None;
            if let Some(spec) = &fault_arg {
                let n_accs = system.num_accs();
                let plan = if spec == "board-down" {
                    // Down the board holding the most resident tenant
                    // weights (ties to the lowest index), just after
                    // the drain starts, with no recovery.
                    let dead = system
                        .acc_ids()
                        .max_by_key(|acc| {
                            let held: u64 =
                                reg.tenants().map(|t| t.resident_bytes(*acc).as_u64()).sum();
                            (held, std::cmp::Reverse(acc.index()))
                        })
                        .expect("system has boards");
                    FaultPlan::board_down(dead, Seconds::new(1e-6))
                } else if spec == "nic-degrade" {
                    // Halve the host NIC and throttle the board where
                    // the tenants' compute concentrates (most mapped
                    // layers, ties to the lowest index) 8x, just after
                    // the drain starts, with no recovery: repairs must
                    // move real work off the slowed board while paying
                    // the re-priced host link, each staged behind its
                    // 25µs-per-move wall time.
                    let slowed = system
                        .acc_ids()
                        .max_by_key(|acc| {
                            let layers: usize = reg
                                .tenants()
                                .map(|t| {
                                    t.spec()
                                        .model
                                        .layer_ids()
                                        .filter(|id| t.mapping().acc_of(*id) == *acc)
                                        .count()
                                })
                                .sum();
                            (layers, std::cmp::Reverse(acc.index()))
                        })
                        .expect("system has boards");
                    FaultPlan::parse(
                        &format!("host:2@0.000001;slow:{}/8@0.000001", slowed.index()),
                        n_accs,
                    )
                    .expect("nic-degrade preset plan parses")
                } else {
                    FaultPlan::parse(spec, n_accs)
                        .unwrap_or_else(|e| cli.fail(format!("--faults `{spec}`: {e}")))
                };
                let repaired =
                    reg.serve_with_faults(&plan).unwrap_or_else(|e| panic!("fault serve: {e}"));
                let unrepaired = reg
                    .serve_with_faults_unrepaired(&plan)
                    .unwrap_or_else(|e| panic!("fault serve (unrepaired): {e}"));
                let fault_coherent =
                    match repaired.check_coherence().and(unrepaired.check_coherence()) {
                        Ok(()) => true,
                        Err(e) => {
                            eprintln!("FAIL: incoherent fault-window accounting: {e}");
                            false
                        }
                    };
                let crossed = repaired.counters.fault_transitions > 0;
                if !crossed {
                    eprintln!("FAIL: fault plan `{spec}` was never crossed during the drain");
                }
                let att_rep = degraded_attainment(&repaired);
                let att_unrep = degraded_attainment(&unrepaired);
                let drain_ok = repaired.makespan <= unrepaired.makespan;
                let att_ok = att_rep >= att_unrep;
                if !drain_ok || !att_ok {
                    eprintln!(
                        "FAIL: repair lost to evacuate-only (drain {:.3}s vs {:.3}s, \
                         attainment {:.1}% vs {:.1}%)",
                        repaired.makespan.as_f64(),
                        unrepaired.makespan.as_f64(),
                        att_rep * 100.0,
                        att_unrep * 100.0
                    );
                }
                // The nic-degrade preset must exercise the staged-
                // repair path: a repair held behind its modeled wall
                // time, and that time charged to a tenant ledger.
                let staged_ok = spec != "nic-degrade"
                    || (repaired.counters.staged_repairs > 0
                        && repaired
                            .tenants
                            .iter()
                            .any(|t| t.repair_time_charged > Seconds::ZERO));
                if !staged_ok {
                    eprintln!(
                        "FAIL: nic-degrade staged no repair ({} staged) or charged no wall time",
                        repaired.counters.staged_repairs
                    );
                }
                println!(
                    "  faults `{spec}`: repaired drain {:.3}s / attainment {:.1}% vs \
                     evacuate-only {:.3}s / {:.1}% ({} repairs, {} moves)",
                    repaired.makespan.as_f64(),
                    att_rep * 100.0,
                    unrepaired.makespan.as_f64(),
                    att_unrep * 100.0,
                    repaired.counters.repairs,
                    repaired.counters.repair_evals,
                );
                if !fault_coherent || !crossed || !drain_ok || !att_ok || !staged_ok {
                    failures += 1;
                }
                fault = Some((repaired, unrepaired, att_rep, att_unrep));
            }
            if !coherent || !matches_reference || !budget_ok || !speedup_ok {
                failures += 1;
            }
            let peak_mib: f64 =
                batched.peak_resident.iter().map(|b| b.as_u64() as f64 / (1 << 20) as f64).sum();
            let budget_mib: f64 =
                batched.budgets.iter().map(|b| b.as_u64() as f64 / (1 << 20) as f64).sum();
            for (t, tenant) in batched.tenants.iter().zip(reg.tenants()) {
                println!(
                    "{:<10} {:>5} {:>9} {:>5.0}% {:>5} {:>8} {:>8.1}ms {:>8.1}ms {:>5} {:>8.2}x {:>8} {:>6}",
                    t.name,
                    bw.label(),
                    topo_spec,
                    budget_frac * 100.0,
                    t.served,
                    t.max_batch,
                    t.ideal.as_millis(),
                    t.attained_mean().as_millis(),
                    t.violations,
                    speedup,
                    budget_ok,
                    matches_reference,
                );
                records.push(ServeRecord {
                    bandwidth: bw.label().to_owned(),
                    topology: topo_spec.clone(),
                    tenants: batched.tenants.len(),
                    tenant: t.name.clone(),
                    layers: tenant.spec().model.num_layers(),
                    requests: t.requests,
                    rate_hz: tenant.spec().rate_hz,
                    slo_ms: t.slo.as_millis(),
                    ideal_ms: t.ideal.as_millis(),
                    attained_mean_ms: t.attained_mean().as_millis(),
                    attained_max_ms: t.attained_max.as_millis(),
                    p50_ms: t.latencies.p50().as_millis(),
                    p95_ms: t.latencies.p95().as_millis(),
                    p99_ms: t.latencies.p99().as_millis(),
                    violations: t.violations,
                    shed: t.shed,
                    batches: t.batches,
                    max_batch: t.max_batch,
                    amortized_weight_ms: t.amortized_weight_time.as_millis(),
                    weight_reloads: t.weight_reloads,
                    reload_time_ms: t.reload_time.as_millis(),
                    trimmed_pins: tenant.trimmed_pins(),
                    arrivals: arrival_process.label(),
                    policy: batched.policy.label().to_owned(),
                    offered_load_frac: None,
                    tail_gain: None,
                    max_batch_cap: max_batch,
                    budget_frac,
                    rounds: batched.counters.rounds,
                    slice_evals: batched.counters.slice_evals,
                    slice_cache_hits: batched.counters.slice_cache_hits,
                    drain_batched_s: batched.makespan.as_f64(),
                    drain_naive_s: naive.makespan.as_f64(),
                    batching_speedup: speedup,
                    peak_resident_mib: peak_mib,
                    budget_mib,
                    budget_ok,
                    matches_reference,
                    coherent,
                    fault_spec: fault_arg.clone(),
                    fault_transitions: fault
                        .as_ref()
                        .map_or(0, |(r, _, _, _)| r.counters.fault_transitions),
                    fault_repairs: fault.as_ref().map_or(0, |(r, _, _, _)| r.counters.repairs),
                    drain_repaired_s: fault.as_ref().map(|(r, _, _, _)| r.makespan.as_f64()),
                    drain_unrepaired_s: fault.as_ref().map(|(_, u, _, _)| u.makespan.as_f64()),
                    degraded_attainment_repaired: fault.as_ref().map(|(_, _, a, _)| *a),
                    degraded_attainment_unrepaired: fault.as_ref().map(|(_, _, _, a)| *a),
                });
            }
        }
        // ---- Open-loop load sweep: the throughput–p99 curve --------
        if !load_sweep.is_empty() {
            // A fresh registry at the 10% serve budget (the
            // weight-streaming regime batching exists for): pins trim
            // at admission, evicted tenants re-stream over the fabric,
            // and the tail actually moves with the batch former.
            const SWEEP_REQUESTS: usize = 200;
            const SWEEP_BUDGET_FRAC: f64 = 0.1;
            let cfg = H2hConfig {
                serve_max_batch: max_batch,
                serve_dram_budget_frac: SWEEP_BUDGET_FRAC,
                serve_verify: true,
                ..H2hConfig::default()
            };
            let mut reg = TenantRegistry::new(&system, cfg);
            let mut ids = Vec::new();
            for entry in &tenant_args {
                let name = entry.split(':').next().expect("tenant entry is non-empty");
                let model = h2h_model::zoo::by_name(name).unwrap_or_else(|| {
                    cli.fail(format!("--tenants entry `{name}` matches no zoo model"))
                });
                let id = reg
                    .admit(TenantSpec::new(name, model, 1.0, Seconds::new(1.0), SWEEP_REQUESTS))
                    .unwrap_or_else(|e| cli.fail(format!("--tenants: {e}")));
                reg.set_arrivals(id, arrival_process.clone())
                    .unwrap_or_else(|e| cli.fail(format!("--arrivals: {e}")));
                ids.push(id);
            }
            // Fleet capacity at the batch cap: one full round of
            // max-batch slices serves `tenants × max_batch` requests
            // in the sum of the tenants' batch-cap slice makespans
            // (reload time ignored — a deliberate over-estimate, so
            // a 1.1 point is genuinely past sustainable throughput).
            let round_time: f64 = ids
                .iter()
                .map(|&id| {
                    let t = reg.tenant(id);
                    Evaluator::new(&t.spec().model, &system)
                        .with_batch(max_batch)
                        .evaluate(t.mapping(), t.locality())
                        .makespan()
                        .as_f64()
                })
                .sum();
            for &policy in &policies {
                reg.set_policy(policy);
                for &load in &load_sweep {
                    let rate = load * max_batch as f64 / round_time;
                    for &id in &ids {
                        let ideal = reg.tenant(id).ideal_latency().as_f64();
                        reg.set_contract(id, rate, Seconds::new(24.0 * ideal), SWEEP_REQUESTS)
                            .unwrap_or_else(|e| cli.fail(format!("--load-sweep: {e}")));
                    }
                    let batched = reg.serve();
                    let naive = reg.serve_naive();
                    let coherent = match batched.check_coherence().and(naive.check_coherence()) {
                        Ok(()) => true,
                        Err(e) => {
                            eprintln!("FAIL: incoherent sweep accounting @ {}: {e}", bw.label());
                            false
                        }
                    };
                    let matches_reference = batched.counters.crosscheck_mismatches == 0
                        && naive.counters.crosscheck_mismatches == 0;
                    let p99 = |out: &h2h_core::serve::ServeOutcome| {
                        out.tenants
                            .iter()
                            .map(|t| t.latencies.p99())
                            .fold(Seconds::ZERO, Seconds::max)
                    };
                    let tail_gain = p99(&naive).as_f64() / p99(&batched).as_f64().max(1e-12);
                    // The gate judges only the default former — the
                    // EDF / WFQ rows are exploratory curve data.
                    let tail_ok = policy != RoundPolicy::Knapsack || tail_gain >= min_tail_gain;
                    if !tail_ok {
                        eprintln!(
                            "FAIL: knapsack p99 lost to naive at {:.0}% load \
                             (tail gain {tail_gain:.3} < {min_tail_gain:.2}) @ {}",
                            load * 100.0,
                            bw.label()
                        );
                    }
                    if !coherent || !matches_reference || !tail_ok {
                        failures += 1;
                    }
                    let speedup =
                        naive.makespan.as_f64() / batched.makespan.as_f64().max(1e-12);
                    println!(
                        "sweep {:<8} {:>5} {:>9} load {:>3.0}% p99 {:>9.1}ms vs naive {:>9.1}ms ({:.2}x tail gain)",
                        policy.label(),
                        bw.label(),
                        topo_spec,
                        load * 100.0,
                        p99(&batched).as_millis(),
                        p99(&naive).as_millis(),
                        tail_gain,
                    );
                    let peak_mib: f64 = batched
                        .peak_resident
                        .iter()
                        .map(|b| b.as_u64() as f64 / (1 << 20) as f64)
                        .sum();
                    let budget_mib: f64 = batched
                        .budgets
                        .iter()
                        .map(|b| b.as_u64() as f64 / (1 << 20) as f64)
                        .sum();
                    let budget_ok = batched
                        .peak_resident
                        .iter()
                        .zip(batched.budgets.iter())
                        .all(|(peak, budget)| peak <= budget);
                    for (t, tenant) in batched.tenants.iter().zip(reg.tenants()) {
                        records.push(ServeRecord {
                            bandwidth: bw.label().to_owned(),
                            topology: topo_spec.clone(),
                            tenants: batched.tenants.len(),
                            tenant: t.name.clone(),
                            layers: tenant.spec().model.num_layers(),
                            requests: t.requests,
                            rate_hz: tenant.spec().rate_hz,
                            slo_ms: t.slo.as_millis(),
                            ideal_ms: t.ideal.as_millis(),
                            attained_mean_ms: t.attained_mean().as_millis(),
                            attained_max_ms: t.attained_max.as_millis(),
                            p50_ms: t.latencies.p50().as_millis(),
                            p95_ms: t.latencies.p95().as_millis(),
                            p99_ms: t.latencies.p99().as_millis(),
                            violations: t.violations,
                            shed: t.shed,
                            batches: t.batches,
                            max_batch: t.max_batch,
                            amortized_weight_ms: t.amortized_weight_time.as_millis(),
                            weight_reloads: t.weight_reloads,
                            reload_time_ms: t.reload_time.as_millis(),
                            trimmed_pins: tenant.trimmed_pins(),
                            arrivals: arrival_process.label(),
                            policy: policy.label().to_owned(),
                            offered_load_frac: Some(load),
                            tail_gain: Some(tail_gain),
                            max_batch_cap: max_batch,
                            budget_frac: SWEEP_BUDGET_FRAC,
                            rounds: batched.counters.rounds,
                            slice_evals: batched.counters.slice_evals,
                            slice_cache_hits: batched.counters.slice_cache_hits,
                            drain_batched_s: batched.makespan.as_f64(),
                            drain_naive_s: naive.makespan.as_f64(),
                            batching_speedup: speedup,
                            peak_resident_mib: peak_mib,
                            budget_mib,
                            budget_ok,
                            matches_reference,
                            coherent,
                            fault_spec: None,
                            fault_transitions: 0,
                            fault_repairs: 0,
                            drain_repaired_s: None,
                            drain_unrepaired_s: None,
                            degraded_attainment_repaired: None,
                            degraded_attainment_unrepaired: None,
                        });
                    }
                }
            }
        }
        }
    }

    let json = serde_json::to_string_pretty(&records).expect("records serialize");
    std::fs::write(&out_path, json).expect("write BENCH_serve.json");
    println!("\nwrote {out_path} ({} records)", records.len());
    assert!(!records.is_empty(), "benchmark produced no records — nothing was verified");
    if failures > 0 {
        eprintln!("WARNING: {failures} run(s) failed the serve gates");
        std::process::exit(1);
    }
}

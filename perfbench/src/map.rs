//! The map phase: closed-loop `H2hMapper::new(..).run()` calls, one
//! client, cycling through a population. Untraced calls feed the
//! end-to-end metrics; traced calls replay the four pipeline steps one
//! public call at a time under spans.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use h2h_core::activation_fusion::activation_fusion_opt;
use h2h_core::compute_map::computation_prioritized;
use h2h_core::remap::{data_locality_remapping, data_locality_remapping_reference};
use h2h_core::weight_locality::weight_locality_opt;
use h2h_core::{H2hConfig, H2hError, H2hMapper, PinPreset, SearchStats};
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{Evaluator, Schedule};
use h2h_system::sim::{simulate, SimConfig};

use crate::inputs::{MapInput, Population};
use crate::report::{geomean, keep_min, median, quantile, ratio, values, Allowance, Report};
use crate::trace::Tracer;

/// What one mapping call produced.
#[derive(Debug)]
struct Mapped {
    mapping: Mapping,
    locality: LocalityState,
    /// `Sys_latency` after each of the four steps (s).
    latencies: [f64; 4],
    energy_j: [f64; 2],
    compute_ratio: f64,
    stats: SearchStats,
    evals: usize,
}

impl Mapped {
    fn new(
        mapping: Mapping,
        locality: LocalityState,
        snaps: [&Schedule; 4],
        stats: SearchStats,
        evals: usize,
    ) -> Self {
        Mapped {
            mapping,
            locality,
            latencies: snaps.map(|s| s.makespan().as_f64()),
            energy_j: [
                snaps[1].energy().total().as_f64(),
                snaps[3].energy().total().as_f64(),
            ],
            compute_ratio: snaps[3].compute_ratio(),
            stats,
            evals,
        }
    }

    fn final_latency(&self) -> f64 {
        self.latencies[3]
    }
}

fn run_mapper(input: &MapInput) -> Result<Mapped, H2hError> {
    let mapper = H2hMapper::new(&input.model, &input.system);
    let out = mapper.run()?;
    let evals = mapper.evaluator().evals_performed();
    let latencies = std::array::from_fn(|i| out.snapshots[i].latency.as_f64());
    Ok(Mapped {
        latencies,
        energy_j: [out.baseline_energy().as_f64(), out.final_energy().as_f64()],
        compute_ratio: out.snapshots[3].compute_ratio,
        mapping: out.mapping,
        locality: out.locality,
        stats: out.remap_stats,
        evals,
    })
}

/// Phase split of one traced call's step 4 (`profile_phases`).
type Phases = [f64; 4];

/// `H2hMapper::run`, replayed one public call at a time under spans.
fn replay(input: &MapInput, tr: &mut Tracer) -> Result<(Mapped, Phases), H2hError> {
    let cfg = H2hConfig {
        profile_phases: true,
        ..H2hConfig::default()
    };
    let preset = PinPreset::new();
    let root = tr.enter("map");
    let open = tr.enter("H2hMapper::new");
    let mapper = H2hMapper::new(&input.model, &input.system).with_config(cfg);
    tr.exit(open);
    let ev = mapper.evaluator();
    let eval = |tr: &mut Tracer, mapping: &Mapping, loc: &LocalityState| {
        tr.span("Evaluator::evaluate", || ev.evaluate(mapping, loc))
    };
    let open = tr.enter("computation_prioritized");
    let step1 = computation_prioritized(ev, &cfg, &preset);
    tr.exit(open);
    let (mut mapping, _) = match step1 {
        Ok(m) => m,
        Err(e) => {
            tr.exit(root);
            return Err(e);
        }
    };
    let zero = LocalityState::new(ev.system());
    let s1 = eval(tr, &mapping, &zero);
    let open = tr.enter("weight_locality_opt");
    let loc2 = weight_locality_opt(ev, &mapping, zero, cfg.knapsack, &preset);
    tr.exit(open);
    let s2 = eval(tr, &mapping, &loc2);
    let open = tr.enter("activation_fusion_opt");
    let mut loc3 = loc2.clone();
    activation_fusion_opt(ev, &mapping, &mut loc3);
    tr.exit(open);
    let s3 = eval(tr, &mapping, &loc3);
    let open = tr.enter("data_locality_remapping");
    let out = data_locality_remapping(ev, &cfg, &preset, &mut mapping);
    tr.exit(open);
    let valid = tr.span("Mapping::validate", || {
        mapping.validate(ev.model(), ev.system())
    });
    tr.exit(root);
    valid?;
    let p = out.profile;
    let evals = ev.evals_performed();
    let mapped = Mapped::new(
        mapping,
        out.locality,
        [&s1, &s2, &s3, &out.schedule],
        out.stats,
        evals,
    );
    Ok((mapped, [p.scoring_s, p.propagate_s, p.guard_s, p.commit_s]))
}

/// The closed-loop map client. It walks the population's call sequence
/// (cycle after cycle) across successive [`MapPhase::step`]s, so the
/// phase's calls spread over the whole run.
#[derive(Debug, Default)]
pub struct MapPhase {
    traced: bool,
    /// Inputs mapped so far; each is checked once, when first seen.
    seen: BTreeSet<(bool, usize)>,
    /// Results for the first cycle's inputs, for the quality metrics.
    first_cycle: BTreeMap<(bool, usize), Mapped>,
    /// Position in the population's call sequence.
    next: usize,
    calls: usize,
    /// Fastest untraced and traced call (ms) per zoo input: the inputs
    /// that repeat every cycle.
    best: BTreeMap<usize, f64>,
    best_traced: BTreeMap<usize, f64>,
    phases: Vec<Phases>,
    repeated: usize,
    clock: Allowance,
}

impl MapPhase {
    pub fn new(traced: bool) -> Self {
        MapPhase {
            traced,
            ..MapPhase::default()
        }
    }

    /// Maps while the phase has time left. With tracing on, each input
    /// is mapped untraced and then replayed under spans, so both see the
    /// same machine state. A new input's checks run untimed after its
    /// calls.
    pub fn step(
        &mut self,
        pop: &Population,
        share: Duration,
        tr: &mut Tracer,
        report: &mut Report,
    ) {
        self.clock.grant(share);
        while self.clock.left() {
            let cycle_len = pop.zoo.len() + pop.per_cycle;
            let (cycle, pos) = (self.next / cycle_len, self.next % cycle_len);
            let key = pop
                .cycle(cycle)
                .nth(pos)
                .expect("position within the cycle");
            let input = pop.input(key);
            self.visit(&input, key, pop.in_first_cycle(key), tr, report);
            self.next += 1;
        }
    }

    fn visit(
        &mut self,
        input: &MapInput,
        key: (bool, usize),
        first_cycle: bool,
        tr: &mut Tracer,
        report: &mut Report,
    ) {
        let start = Instant::now();
        let run = self.call(input, key, false, tr, report);
        let replay = if self.traced {
            self.call(input, key, true, tr, report)
        } else {
            None
        };
        self.clock.charge(start);
        self.calls += 1;
        if !self.seen.insert(key) {
            self.repeated += 1;
            return;
        }
        let Some(run) = run else { return };
        if let Some(r) = &replay {
            report.check(
                r.mapping == run.mapping
                    && r.final_latency().to_bits() == run.final_latency().to_bits(),
                || format!("{}: traced replay differs from H2hMapper::run", input.label),
            );
        }
        check(input, &run, report);
        if first_cycle {
            self.first_cycle.insert(key, run);
        }
    }

    /// One mapping call; failures are reported and yield `None`.
    fn call(
        &mut self,
        input: &MapInput,
        key: (bool, usize),
        traced: bool,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Option<Mapped> {
        report.issued(1);
        let t = Instant::now();
        let out = if traced {
            replay(input, tr).map(|(m, p)| {
                self.phases.push(p);
                m
            })
        } else {
            run_mapper(input)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if !key.0 {
            keep_min(
                if traced {
                    &mut self.best_traced
                } else {
                    &mut self.best
                },
                key.1,
                ms,
            );
        }
        out.map_err(|e| report.fail(format!("{}: mapping failed: {e}", input.label)))
            .ok()
    }

    /// Reports the phase's metrics and the modeled quality of the first
    /// cycle, mapping any of its inputs the run did not reach.
    pub fn finish(mut self, pop: &Population, report: &mut Report) {
        let best = values(&self.best);
        report.set("map_ms_p50", median(&best), "ms");
        report.set("map_ms_p90", quantile(&best, 0.9), "ms");
        // One client cycling through the repeated inputs at their best times.
        report.set(
            "maps_per_s",
            1e3 * best.len() as f64 / best.iter().sum::<f64>(),
            "1/s",
        );
        report.set("map.calls", self.calls as f64, "count");
        report.set(
            "map.repeated_input_pct",
            100.0 * ratio(self.repeated, self.calls),
            "%",
        );
        if self.traced {
            let overhead: Vec<f64> = self
                .best_traced
                .iter()
                .filter_map(|(k, t)| Some(t - self.best.get(k)?))
                .collect();
            report.set("trace.map_overhead_ms", median(&overhead), "ms");
            let names = [
                "remap.scoring_s",
                "remap.propagate_s",
                "remap.guard_s",
                "remap.commit_s",
            ];
            // Step 4's own split, printed beside the span table.
            let totals: Vec<f64> = (0..4)
                .map(|i| self.phases.iter().map(|p| p[i]).sum())
                .collect();
            let all: f64 = totals.iter().sum();
            println!(
                "{:<36} {:>12} {:>7}",
                "data_locality_remapping phase", "total_ms", "share"
            );
            for (i, name) in names.into_iter().enumerate() {
                let xs: Vec<f64> = self.phases.iter().map(|p| p[i]).collect();
                report.set(name, median(&xs), "s");
                println!(
                    "{name:<36} {:>12.3} {:>6.1}%",
                    totals[i] * 1e3,
                    100.0 * totals[i] / all
                );
            }
        }
        for key in pop.cycle(0).collect::<Vec<_>>() {
            if !self.seen.contains(&key) {
                let input = pop.input(key);
                self.visit(&input, key, true, &mut Tracer::new(false), report);
            }
        }
        quality(&self.first_cycle, report);
    }
}

/// Modeled quality and search counts over the first cycle's inputs,
/// which every run maps, so the values depend on the seed alone.
fn quality(first_cycle: &BTreeMap<(bool, usize), Mapped>, report: &mut Report) {
    let first: Vec<&Mapped> = first_cycle.values().collect();
    let lat: Vec<f64> = first.iter().map(|m| m.final_latency() * 1e3).collect();
    let energy: Vec<f64> = first.iter().map(|m| m.energy_j[1] * 1e3).collect();
    report.set("model_latency_ms_geomean", geomean(&lat), "ms");
    report.set("model_energy_mj_geomean", geomean(&energy), "mJ");

    let mut st = SearchStats::default();
    for m in &first {
        st.absorb(&m.stats);
    }
    let n = first.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Mapped) -> f64| first.iter().map(|m| f(m)).sum::<f64>() / n;
    let counts: [(&str, usize); 11] = [
        ("schedule.evals", first.iter().map(|m| m.evals).sum()),
        ("remap.propagations", st.propagations),
        ("remap.guards_total", st.guards_total),
        ("remap.guards_skipped", st.guards_skipped),
        ("remap.guard_reverts_fast", st.guard_reverts_fast),
        ("remap.prefix_evals", st.prefix_evals),
        ("remap.delta_evals", st.delta_evals),
        ("remap.full_evals", st.full_evals),
        ("remap.passes", st.passes),
        ("remap.attempted_moves", st.attempted_moves),
        ("remap.accepted_moves", st.accepted_moves),
    ];
    for (name, v) in counts {
        report.set(name, v as f64, "count");
    }
    report.set("remap.mean_cone_layers", st.mean_propagated(), "layers");
    report.set("remap.max_cone_layers", st.max_propagated as f64, "layers");
    report.set(
        "remap.guard_prune_ratio",
        ratio(st.guards_skipped, st.guards_total),
        "ratio",
    );
    report.set(
        "remap.accept_ratio",
        ratio(st.accepted_moves, st.attempted_moves),
        "ratio",
    );
    report.set(
        "pipeline.latency_reduction_pct",
        100.0 * mean(&|m| 1.0 - m.latencies[3] / m.latencies[1]),
        "%",
    );
    report.set(
        "pipeline.energy_reduction_pct",
        100.0 * mean(&|m| 1.0 - m.energy_j[1] / m.energy_j[0]),
        "%",
    );
    report.set(
        "pipeline.compute_ratio",
        mean(&|m| m.compute_ratio),
        "ratio",
    );
}

/// Output checks for one input's first `H2hMapper::run` result.
fn check(input: &MapInput, m: &Mapped, report: &mut Report) {
    let cfg = H2hConfig::default();
    let preset = PinPreset::new();
    let label = &input.label;
    let ev = Evaluator::new(&input.model, &input.system);
    match computation_prioritized(&ev, &cfg, &preset) {
        Ok((mut reference, _)) => {
            let out = data_locality_remapping_reference(&ev, &cfg, &preset, &mut reference);
            report.check(
                reference == m.mapping
                    && out.schedule.makespan().as_f64().to_bits() == m.final_latency().to_bits(),
                || format!("{label}: step 4 differs from data_locality_remapping_reference"),
            );
        }
        Err(e) => report.fail(format!("{label}: reference step 1 failed: {e}")),
    }
    report.check(
        m.mapping.validate(&input.model, &input.system).is_ok(),
        || format!("{label}: Mapping::validate failed"),
    );
    report.check(m.latencies.windows(2).all(|w| w[1] <= w[0]), || {
        format!("{label}: step latencies increase: {:?}", m.latencies)
    });
    let sim = simulate(
        &input.model,
        &input.system,
        &m.mapping,
        &m.locality,
        SimConfig::dedicated(),
    )
    .makespan()
    .as_f64();
    let analytic = m.final_latency();
    report.check((sim - analytic).abs() <= 1e-6 * analytic, || {
        format!("{label}: simulated makespan {sim} vs analytic {analytic}")
    });
}

/// One untimed call per zoo input.
pub fn warm_up(pop: &Population) {
    for input in &pop.zoo {
        let _ = run_mapper(input);
    }
}

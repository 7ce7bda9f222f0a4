//! Search-efficiency benchmark: runs the step-4 remapping loop with the
//! incremental delta engine (sweeping scoring strategies, bandwidth
//! classes and fabrics) and with the per-candidate full-re-evaluation
//! reference on every zoo model, checks that every configuration
//! reproduces the reference mapping bit-exactly, and emits
//! `BENCH_search.json` so the perf trajectory of the search core is
//! tracked from run to run.
//!
//! ```text
//! cargo run --release -p h2h-bench --bin bench_search -- [out.json]
//!     [--models VFS,MoCap] [--bandwidths Low-,Mid]
//!     [--strategy adaptive,full-eval] [--reps 3]
//!     [--min-large-speedup 1.1] [--profile]
//!     [--topology uniform,skewed,switched] [--min-topology-gain 1.1]
//! ```
//!
//! `--profile` arms the engine's per-phase wall-clock timers
//! (`H2hConfig::profile_phases`) and attaches a `profile` object to
//! every delta row: seconds spent in candidate scoring vs deferred
//! cost propagation vs risky-guard resolution vs commit. The run fails if
//! any profiled row is malformed — a non-finite or negative bucket, or
//! a row that attempted moves while reporting zero scoring time.
//!
//! `--topology` sweeps interconnect fabrics (specs as accepted by
//! `h2h_system::topology::Topology::parse`). The `uniform` rows run
//! every requested strategy (and must stay bit-identical to
//! the scalar model); non-uniform rows run the adaptive strategy, are
//! still checked bit-exactly against the per-candidate
//! full-re-evaluation reference *on that fabric*, and additionally
//! record the **topology-blind** latency — the mapping a scalar-model
//! mapper would pick, its locality rebuilt and evaluated on the true
//! fabric — so `topology_gain = blind / aware` measures what seeing
//! the links is worth. With `--min-topology-gain G`, every non-uniform
//! fabric must show at least one large-model row with gain ≥ G.
//!
//! Timings are best-of-`reps` (each configuration re-runs from the same
//! seed mapping), which keeps sub-millisecond rows out of scheduler
//! noise. Exits non-zero if any row fails to match the reference, or if
//! an adaptive-strategy row on a large risky model (more layers than
//! the small-model threshold and at least one multi-consumer producer,
//! i.e. the ResNet-like zoo entries) reports `guards_skipped == 0` —
//! dominance pruning must actually fire there. `--min-large-speedup`
//! additionally fails any such adaptive row below the given wall-clock
//! speedup vs the full-re-evaluation reference; CI's smoke runs with
//! `--min-large-speedup 1.5`.
//!
//! `--help` prints the usage line and exits 0; an unknown flag or a
//! malformed value exits 2.

use std::time::Instant;

use serde::Serialize;

use h2h_core::activation_fusion::rebuild_locality;
use h2h_core::compute_map::computation_prioritized;
use h2h_core::remap::{data_locality_remapping, data_locality_remapping_reference, RemapOutcome};
use h2h_bench::cli::Cli;
use h2h_core::{H2hConfig, PinPreset, ScoreStrategy};
use h2h_system::mapping::Mapping;
use h2h_system::schedule::Evaluator;
use h2h_system::system::{BandwidthClass, SystemSpec};

/// One (model, bandwidth, topology, strategy) delta-vs-reference
/// search record.
#[derive(Debug, Serialize)]
struct SearchRecord {
    model: String,
    bandwidth: String,
    /// Interconnect fabric spec (`uniform` = the scalar star).
    topology: String,
    layers: usize,
    /// Candidate scoring strategy (see `h2h_core::ScoreStrategy`).
    strategy: String,
    attempted_moves: usize,
    accepted_moves: usize,
    passes: usize,
    delta_evals: usize,
    /// Delta evaluations that took the prefix-exact fast path.
    prefix_evals: usize,
    full_evals_delta: usize,
    full_evals_reference: usize,
    full_eval_reduction: f64,
    /// Propagation rounds and their mean/max cone sizes.
    propagations: usize,
    mean_propagated_layers: f64,
    max_propagated_layers: usize,
    /// Risky fusion guards reached by the delta replay, how many were
    /// resolved by dominance pruning (no toggle/revert replay), and how
    /// many rejected toggles restored via the O(cone) savepoint.
    guards_total: usize,
    guards_skipped: usize,
    guard_reverts_fast: usize,
    delta_seconds: f64,
    reference_seconds: f64,
    wall_clock_speedup: f64,
    final_latency_s: f64,
    /// Non-uniform fabrics only: the true-fabric latency of the
    /// topology-blind mapping (scalar-model search, locality rebuilt on
    /// the real links), and the aware/blind improvement factor.
    topology_blind_latency_s: Option<f64>,
    topology_gain: Option<f64>,
    matches_reference: bool,
    /// Per-phase wall-clock breakdown of the timed delta run
    /// (`--profile` only).
    profile: Option<ProfileRecord>,
}

/// Phase breakdown attached to a row under `--profile`.
#[derive(Debug, Serialize)]
struct ProfileRecord {
    /// Candidate scoring (stage + rollback) outside the other buckets.
    scoring_s: f64,
    /// Deferred cost refresh + cone propagation.
    propagate_s: f64,
    /// Risky-guard resolution (dominance proofs, toggles, reverts).
    guard_s: f64,
    /// Committing accepted candidates.
    commit_s: f64,
    /// Sum of the buckets.
    total_s: f64,
}

impl ProfileRecord {
    fn from_phases(p: &h2h_core::PhaseProfile) -> ProfileRecord {
        ProfileRecord {
            scoring_s: p.scoring_s,
            propagate_s: p.propagate_s,
            guard_s: p.guard_s,
            commit_s: p.commit_s,
            total_s: p.total(),
        }
    }

    /// A profiled row must be structurally sound: finite non-negative
    /// buckets, a consistent total, and non-zero scoring time whenever
    /// the row actually attempted moves.
    fn malformed(&self, attempted_moves: usize) -> Option<String> {
        let buckets = [
            ("scoring_s", self.scoring_s),
            ("propagate_s", self.propagate_s),
            ("guard_s", self.guard_s),
            ("commit_s", self.commit_s),
            ("total_s", self.total_s),
        ];
        for (name, v) in buckets {
            if !v.is_finite() || v < 0.0 {
                return Some(format!("{name} = {v}"));
            }
        }
        let sum = self.scoring_s + self.propagate_s + self.guard_s + self.commit_s;
        if (self.total_s - sum).abs() > 1e-9 + sum.abs() * 1e-9 {
            return Some(format!("total_s {} != bucket sum {sum}", self.total_s));
        }
        if attempted_moves > 0 && self.scoring_s <= 0.0 {
            return Some(format!(
                "scoring_s = {} with {attempted_moves} attempted moves",
                self.scoring_s
            ));
        }
        None
    }
}

const USAGE: &str = "usage: bench_search [OUT.json] [--models A,B] [--bandwidths Low-,Mid] \
[--strategy adaptive,full-eval] [--reps N] [--min-large-speedup X] [--profile] \
[--topology uniform,skewed,switched] [--min-topology-gain X]";

fn main() {
    let mut out_path = "BENCH_search.json".to_owned();
    let mut models_filter: Option<Vec<String>> = None;
    let mut bandwidths = vec!["Low-".to_owned(), "Mid".to_owned()];
    let mut strategies = vec![ScoreStrategy::Adaptive, ScoreStrategy::FullEval];
    let mut reps = 3usize;
    let mut min_large_speedup: Option<f64> = None;
    let mut topologies = vec!["uniform".to_owned(), "skewed".to_owned(), "switched".to_owned()];
    let mut min_topology_gain: Option<f64> = None;
    let mut profile_phases = false;

    let mut cli = Cli::new(USAGE);
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--models" => models_filter = Some(cli.list("--models")),
            "--bandwidths" => bandwidths = cli.list("--bandwidths"),
            "--strategy" => {
                strategies = cli
                    .list("--strategy")
                    .iter()
                    .map(|s| match s.as_str() {
                        "adaptive" => ScoreStrategy::Adaptive,
                        "full-eval" | "fulleval" => ScoreStrategy::FullEval,
                        other => cli.fail(format!("unknown strategy `{other}`")),
                    })
                    .collect();
            }
            "--reps" => reps = cli.parsed("--reps"),
            "--profile" => profile_phases = true,
            "--topology" => topologies = cli.list("--topology"),
            "--min-topology-gain" => min_topology_gain = Some(cli.parsed("--min-topology-gain")),
            "--min-large-speedup" => min_large_speedup = Some(cli.parsed("--min-large-speedup")),
            flag if flag.starts_with("--") => cli.fail(format!("unknown flag `{flag}`")),
            path => out_path = path.to_owned(),
        }
    }
    let reps = reps.max(1);
    if strategies.is_empty() {
        cli.fail("--strategy list must not be empty");
    }

    // A typo'd filter must not let the divergence check pass vacuously
    // (CI smoke-tests rely on this binary's exit code).
    if let Some(filter) = &models_filter {
        for name in filter {
            if h2h_model::zoo::by_name(name).is_none() {
                cli.fail(format!(
                    "--models entry `{name}` matches no zoo model (have: {})",
                    h2h_model::zoo::all_models()
                        .iter()
                        .map(|m| m.name().to_owned())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
    }

    let bandwidths: Vec<BandwidthClass> = bandwidths
        .iter()
        .map(|label| {
            BandwidthClass::by_label(label)
                .unwrap_or_else(|| cli.fail(format!("unknown bandwidth class `{label}`")))
        })
        .collect();

    let mut records = Vec::new();
    let mut gate_failures = 0usize;
    println!(
        "{:<10} {:>5} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "model", "bw", "topology", "strategy", "layers", "attempts", "reduction", "prefix",
        "g-skip", "speedup", "match"
    );
    for bw in &bandwidths {
        let uniform_system = SystemSpec::standard(*bw);
        // Topology-blind mappings depend only on (model, bandwidth);
        // memoized across the topology sweep so the skewed and switched
        // fabrics of one bandwidth do not each repeat the full
        // scalar-model search.
        let mut blind_maps: std::collections::HashMap<String, Mapping> =
            std::collections::HashMap::new();
        for topo_spec in &topologies {
        let system = SystemSpec::standard_with_topology(*bw, Some(topo_spec))
            .unwrap_or_else(|e| cli.fail(format!("--topology `{topo_spec}`: {e}")));
        let fabric_uniform = system.topology().is_uniform();
        // Non-uniform fabrics sweep the adaptive strategy only (the
        // uniform rows already pin down strategy equivalence; these
        // rows measure what topology awareness is worth).
        let row_strategies: Vec<ScoreStrategy> =
            if fabric_uniform { strategies.clone() } else { vec![ScoreStrategy::Adaptive] };
        let mut best_large_gain = f64::NEG_INFINITY;
        let mut any_large = false;
        for model in h2h_model::zoo::all_models() {
            if let Some(filter) = &models_filter {
                if !filter.iter().any(|m| m.eq_ignore_ascii_case(model.name())) {
                    continue;
                }
            }
            let ev = Evaluator::new(&model, &system);
            let base_cfg = H2hConfig::default();
            let (seed, _) = computation_prioritized(&ev, &base_cfg, &PinPreset::new())
                .expect("standard system maps every zoo model");
            // The topology-blind yardstick: map with the scalar model,
            // rebuild the locality (a deployment still pins/fuses
            // against real capacities), evaluate on the true fabric.
            let blind_latency: Option<f64> = if fabric_uniform {
                None
            } else {
                let blind_map =
                    blind_maps.entry(model.name().to_owned()).or_insert_with(|| {
                        let blind_ev = Evaluator::new(&model, &uniform_system);
                        let (mut blind_map, _) =
                            computation_prioritized(&blind_ev, &base_cfg, &PinPreset::new())
                                .expect("uniform system maps every zoo model");
                        let _ = data_locality_remapping(
                            &blind_ev,
                            &base_cfg,
                            &PinPreset::new(),
                            &mut blind_map,
                        );
                        blind_map
                    });
                let loc = rebuild_locality(&ev, blind_map, &base_cfg, &PinPreset::new());
                Some(ev.evaluate(blind_map, &loc).makespan().as_f64())
            };
            // "Large risky" = more layers than the adaptive fallback
            // threshold AND at least one multi-consumer producer (a
            // risky fusion candidate can actually arise) — the
            // ResNet-like zoo entries. Only these rows are held to the
            // dominance-pruning and speedup gates.
            let large_risky = model.num_layers() > base_cfg.small_model_threshold
                && model.layer_ids().any(|id| {
                    !matches!(
                        model.layer(id).op(),
                        h2h_model::layer::LayerOp::Input { .. }
                    ) && model.successors(id).count() >= 2
                });

            // Untimed warm-up of both code paths (first-touch cache and
            // allocator effects otherwise land on whichever
            // configuration happens to run first — visible on the
            // sub-millisecond models).
            {
                let mut m = seed.clone();
                let _ = data_locality_remapping_reference(&ev, &base_cfg, &PinPreset::new(), &mut m);
                let mut m = seed.clone();
                let _ = data_locality_remapping(&ev, &base_cfg, &PinPreset::new(), &mut m);
            }

            // Best-of-N timing; sub-millisecond configurations sample
            // until ~50 ms of total run time so a single scheduler
            // hiccup cannot skew a row.
            let time_best = |run: &mut dyn FnMut(&mut Mapping) -> RemapOutcome| {
                let mut best_seconds = f64::INFINITY;
                let mut result = None;
                let mut spent = 0.0;
                let mut samples = 0;
                while samples < reps || (spent < 0.05 && samples < 200) {
                    let mut m = seed.clone();
                    let t = Instant::now();
                    let out = run(&mut m);
                    let elapsed = t.elapsed().as_secs_f64();
                    spent += elapsed;
                    samples += 1;
                    best_seconds = best_seconds.min(elapsed);
                    result = Some((m, out));
                }
                let (mapping, outcome) = result.expect("at least one sample");
                (best_seconds, mapping, outcome)
            };

            // The per-candidate full-re-evaluation reference, shared by
            // every strategy row of this (model, bandwidth).
            let (reference_seconds, map_ref, reference) = time_best(&mut |m| {
                data_locality_remapping_reference(&ev, &base_cfg, &PinPreset::new(), m)
            });

            for &strategy in &row_strategies {
                let cfg = H2hConfig { strategy, profile_phases, ..base_cfg };
                let (delta_seconds, map_delta, delta) = time_best(&mut |m| {
                    data_locality_remapping(&ev, &cfg, &PinPreset::new(), m)
                });
                // Phase breakdown of the last timed sample (the
                // sample whose outcome the row reports).
                let profile =
                    profile_phases.then(|| ProfileRecord::from_phases(&delta.profile));
                let profile_err = profile
                    .as_ref()
                    .and_then(|p| p.malformed(delta.stats.attempted_moves));
                if let Some(err) = &profile_err {
                    eprintln!(
                        "FAIL: {} @ {} ({}): malformed profile record: {err}",
                        model.name(),
                        bw.label(),
                        strategy.label()
                    );
                }
                let aware_latency = delta.schedule.makespan().as_f64();
                let topology_gain =
                    blind_latency.map(|b| b / aware_latency.max(1e-15));
                if let Some(g) = topology_gain {
                    if model.num_layers() > base_cfg.small_model_threshold {
                        any_large = true;
                        best_large_gain = best_large_gain.max(g);
                    }
                }

                let matches_reference = map_delta == map_ref
                    && (delta.schedule.makespan().as_f64()
                        - reference.schedule.makespan().as_f64())
                    .abs()
                        <= reference.schedule.makespan().as_f64() * 1e-12;
                let reduction = if delta.stats.full_evals > 0 {
                    reference.stats.full_evals as f64 / delta.stats.full_evals as f64
                } else {
                    f64::INFINITY
                };
                let speedup = reference_seconds / delta_seconds.max(1e-12);
                // Dominance pruning must actually fire where it is
                // the point: adaptive rows on large risky models
                // route risky candidates through the guard replay,
                // so zero skipped guards there means the pruning
                // regressed. (FullEval rows never reach guards, and
                // small models fall back to plain full evaluation.)
                let guards_ok = strategy == ScoreStrategy::FullEval
                    || !large_risky
                    || delta.stats.guards_skipped > 0;
                let speedup_ok = strategy != ScoreStrategy::Adaptive
                    || !large_risky
                    || min_large_speedup.is_none_or(|min| speedup >= min);
                println!(
                    "{:<10} {:>5} {:>9} {:>9} {:>7} {:>9} {:>8.1}x {:>9} {:>9} {:>8.1}x {:>8}{}",
                    model.name(),
                    bw.label(),
                    topo_spec,
                    strategy.label(),
                    model.num_layers(),
                    delta.stats.attempted_moves,
                    reduction,
                    delta.stats.prefix_evals,
                    delta.stats.guards_skipped,
                    speedup,
                    matches_reference,
                    topology_gain
                        .map(|g| format!(" gain {g:.2}x"))
                        .unwrap_or_default(),
                );
                if !guards_ok {
                    eprintln!(
                        "FAIL: {} @ {} ({}): guards_skipped == 0 on a large risky model",
                        model.name(),
                        bw.label(),
                        strategy.label()
                    );
                }
                if !speedup_ok {
                    eprintln!(
                        "FAIL: {} @ {} ({}): speedup {:.2}x below the {:.2}x gate",
                        model.name(),
                        bw.label(),
                        strategy.label(),
                        speedup,
                        min_large_speedup.unwrap_or(0.0)
                    );
                }
                records.push(SearchRecord {
                    model: model.name().to_owned(),
                    bandwidth: bw.label().to_owned(),
                    topology: topo_spec.clone(),
                    layers: model.num_layers(),
                    strategy: strategy.label().to_owned(),
                    attempted_moves: delta.stats.attempted_moves,
                    accepted_moves: delta.stats.accepted_moves,
                    passes: delta.stats.passes,
                    delta_evals: delta.stats.delta_evals,
                    prefix_evals: delta.stats.prefix_evals,
                    full_evals_delta: delta.stats.full_evals,
                    full_evals_reference: reference.stats.full_evals,
                    full_eval_reduction: reduction,
                    propagations: delta.stats.propagations,
                    mean_propagated_layers: delta.stats.mean_propagated(),
                    max_propagated_layers: delta.stats.max_propagated,
                    guards_total: delta.stats.guards_total,
                    guards_skipped: delta.stats.guards_skipped,
                    guard_reverts_fast: delta.stats.guard_reverts_fast,
                    delta_seconds,
                    reference_seconds,
                    wall_clock_speedup: speedup,
                    final_latency_s: aware_latency,
                    topology_blind_latency_s: blind_latency,
                    topology_gain,
                    matches_reference,
                    profile,
                });
                if !guards_ok || !speedup_ok || profile_err.is_some() {
                    gate_failures += 1;
                }
            }
        }
        if let Some(min) = min_topology_gain {
            if !fabric_uniform && !any_large {
                // A filter with no large model must not read as "gate
                // passed" — the gain only means anything where the
                // search has room to move layers.
                eprintln!(
                    "FAIL: topology `{topo_spec}` @ {}: --min-topology-gain set but the \
                     model filter contains no large model — gate not evaluated",
                    bw.label()
                );
                gate_failures += 1;
            } else if !fabric_uniform && best_large_gain < min {
                eprintln!(
                    "FAIL: topology `{topo_spec}` @ {}: best large-model gain {:.2}x below \
                     the {:.2}x gate — the topology-aware search is not beating the \
                     topology-blind mapping",
                    bw.label(),
                    best_large_gain,
                    min
                );
                gate_failures += 1;
            }
        }
        }
    }

    let json = serde_json::to_string_pretty(&records).expect("records serialize");
    std::fs::write(&out_path, json).expect("write BENCH_search.json");
    println!("\nwrote {out_path} ({} records)", records.len());
    assert!(!records.is_empty(), "benchmark produced no records — nothing was verified");
    if records.iter().any(|r| !r.matches_reference) {
        eprintln!("WARNING: delta search diverged from the reference on some configuration");
        std::process::exit(1);
    }
    if gate_failures > 0 {
        eprintln!("WARNING: {gate_failures} row(s) failed the guard-pruning/speedup gates");
        std::process::exit(1);
    }
}

//! Equivalence properties of the step-4 search core: for every zoo
//! model, the remapping loop must produce the same final mapping and
//! latency under both scoring strategies, on uniform and non-uniform
//! fabrics, with guard-dominance pruning on or off, all equal to the
//! per-candidate full-re-evaluation reference. The guard, prefix-path
//! and propagation counters must stay coherent along the way.

use h2h_core::compute_map::computation_prioritized;
use h2h_core::remap::{data_locality_remapping, data_locality_remapping_reference};
use h2h_core::{H2hConfig, PinPreset, ScoreStrategy};
use h2h_system::schedule::Evaluator;
use h2h_system::system::{BandwidthClass, SystemSpec};
use h2h_system::topology::Topology;

#[test]
fn every_scoring_strategy_makes_identical_search_decisions() {
    // Zoo-wide sweep guard: every zoo model under every strategy must
    // reproduce the per-candidate
    // full-re-evaluation reference mapping bit-exactly — this is the
    // acceptance contract of the dominance-pruned guard replay: pruning
    // may only skip work whose outcome it proved. Each swept
    // configuration must additionally keep its guard counters coherent
    // (skips within the guard population, fast reverts only from
    // unresolved guards).
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in h2h_model::zoo::all_models() {
        let ev = Evaluator::new(&model, &system);
        let cfg0 = H2hConfig::default();
        let (seed, _) = computation_prioritized(&ev, &cfg0, &PinPreset::new()).unwrap();
        let mut map_ref = seed.clone();
        let reference =
            data_locality_remapping_reference(&ev, &cfg0, &PinPreset::new(), &mut map_ref);
        let mut outcomes = Vec::new();
        for strategy in [ScoreStrategy::Adaptive, ScoreStrategy::FullEval] {
            let cfg = H2hConfig { strategy, ..H2hConfig::default() };
            let mut mapping = seed.clone();
            let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut mapping);
            assert_eq!(
                mapping,
                map_ref,
                "{} under {strategy:?}: diverged from the reference mapping",
                model.name()
            );
            let mk = out.schedule.makespan().as_f64();
            let mk_ref = reference.schedule.makespan().as_f64();
            assert!(
                (mk - mk_ref).abs() <= mk_ref * 1e-12,
                "{} under {strategy:?}: latency {mk} vs reference {mk_ref}",
                model.name()
            );
            assert!(
                out.stats.guards_skipped <= out.stats.guards_total,
                "{} under {strategy:?}: skipped {} > total {}",
                model.name(),
                out.stats.guards_skipped,
                out.stats.guards_total
            );
            assert!(
                out.stats.guard_reverts_fast <= out.stats.guards_total - out.stats.guards_skipped,
                "{} under {strategy:?}: {} fast reverts exceed the {} unresolved guards",
                model.name(),
                out.stats.guard_reverts_fast,
                out.stats.guards_total - out.stats.guards_skipped
            );
            outcomes.push((strategy, mapping, out));
        }
        let (_, first_map, first_out) = &outcomes[0];
        for (strategy, mapping, out) in &outcomes[1..] {
            assert_eq!(mapping, first_map, "{} under {strategy:?}: mapping diverged", model.name());
            assert_eq!(
                out.schedule.makespan(),
                first_out.schedule.makespan(),
                "{} under {strategy:?}: latency diverged",
                model.name()
            );
            assert_eq!(
                out.stats.attempted_moves, first_out.stats.attempted_moves,
                "{} under {strategy:?}: attempt counts diverged",
                model.name()
            );
            assert_eq!(
                out.stats.accepted_moves, first_out.stats.accepted_moves,
                "{} under {strategy:?}: accept counts diverged",
                model.name()
            );
        }
    }
}

#[test]
fn delta_search_matches_reference_on_non_uniform_topologies() {
    // Per-route path bandwidths make a layer's transfer terms depend on
    // its neighbours' placements; the delta engine compensates by
    // refreshing the moved layer's graph neighbours. This sweep is the
    // proof: on a skewed star and a partitioned switch, every strategy
    // must still reproduce the per-candidate
    // full-re-evaluation reference bit-exactly, dominance on or off.
    let bw = BandwidthClass::LowMinus;
    for spec in ["skewed", "switched", "star:host=0.125;links=0.125,0.05,0.2"] {
        let base = SystemSpec::standard(bw);
        let topo = Topology::parse(spec, bw.bandwidth(), base.num_accs()).unwrap();
        let system = base.with_topology(topo);
        for model in [
            h2h_model::zoo::mocap(),
            h2h_model::zoo::cnn_lstm(),
            h2h_model::zoo::casia_surf(),
        ] {
            let ev = Evaluator::new(&model, &system);
            let cfg0 = H2hConfig::default();
            let (seed, _) = computation_prioritized(&ev, &cfg0, &PinPreset::new()).unwrap();
            let mut map_ref = seed.clone();
            let reference =
                data_locality_remapping_reference(&ev, &cfg0, &PinPreset::new(), &mut map_ref);
            for strategy in [ScoreStrategy::Adaptive, ScoreStrategy::FullEval] {
                for dominance in [true, false] {
                    let cfg = H2hConfig {
                        strategy,
                        enable_guard_dominance: dominance,
                        ..H2hConfig::default()
                    };
                    let mut mapping = seed.clone();
                    let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut mapping);
                    assert_eq!(
                        mapping,
                        map_ref,
                        "{} on `{spec}` under {strategy:?} dom={dominance}: \
                         diverged from the reference mapping",
                        model.name()
                    );
                    assert_eq!(
                        out.schedule.makespan(),
                        reference.schedule.makespan(),
                        "{} on `{spec}` under {strategy:?} dom={dominance}: latency diverged",
                        model.name()
                    );
                }
            }
        }
    }
}

#[test]
fn guard_dominance_changes_no_search_decision() {
    // Pruning on vs off: identical final mappings, latencies, attempt /
    // accept counts and guard totals — only the skip counters (and the
    // propagation volume they save) may differ. The risky large models
    // (ResNet-like: CASIA-SURF, FaceBag, VLocNet) must actually resolve
    // a healthy share of their guards by dominance.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in [h2h_model::zoo::casia_surf(), h2h_model::zoo::facebag()] {
        let ev = Evaluator::new(&model, &system);
        let run = |dominance: bool| {
            let cfg = H2hConfig {
                enable_guard_dominance: dominance,
                ..H2hConfig::default()
            };
            let (mut mapping, _) =
                computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
            let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut mapping);
            (mapping, out)
        };
        let (map_on, out_on) = run(true);
        let (map_off, out_off) = run(false);
        assert_eq!(map_on, map_off, "{}: dominance flipped a decision", model.name());
        assert_eq!(
            out_on.schedule.makespan(),
            out_off.schedule.makespan(),
            "{}: dominance changed the final latency",
            model.name()
        );
        assert_eq!(out_on.stats.attempted_moves, out_off.stats.attempted_moves);
        assert_eq!(out_on.stats.accepted_moves, out_off.stats.accepted_moves);
        assert_eq!(
            out_on.stats.guards_total, out_off.stats.guards_total,
            "{}: pruning must not change which guards are reached",
            model.name()
        );
        assert_eq!(out_off.stats.guards_skipped, 0, "{}: pruning was off", model.name());
        assert!(
            out_on.stats.guards_skipped * 2 > out_on.stats.guards_total,
            "{}: dominance should resolve most guards, got {}/{}",
            model.name(),
            out_on.stats.guards_skipped,
            out_on.stats.guards_total
        );
        assert!(
            out_on.stats.propagations < out_off.stats.propagations,
            "{}: resolved guards must save propagation rounds ({} vs {})",
            model.name(),
            out_on.stats.propagations,
            out_off.stats.propagations
        );
    }
}

#[test]
fn guard_counters_are_coherent() {
    // Skip/revert counters must stay within the guard population, and
    // fast reverts can only come from guards the pruning did *not*
    // resolve (a dominance-rejected guard never toggles, so it has
    // nothing to revert).
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in h2h_model::zoo::all_models() {
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        let (mut mapping, _) = computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
        let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut mapping);
        let stats = out.stats;
        assert!(
            stats.guards_skipped <= stats.guards_total,
            "{}: skipped {} > total {}",
            model.name(),
            stats.guards_skipped,
            stats.guards_total
        );
        assert!(
            stats.guard_reverts_fast <= stats.guards_total - stats.guards_skipped,
            "{}: {} fast reverts exceed the {} unresolved guards",
            model.name(),
            stats.guard_reverts_fast,
            stats.guards_total - stats.guards_skipped
        );
        if model.num_layers() > cfg.small_model_threshold && stats.guards_total > 0 {
            assert!(
                stats.guards_skipped > 0,
                "{}: large risky model resolved no guard by dominance",
                model.name()
            );
        }
    }
}

#[test]
fn chain_models_take_the_prefix_fast_path() {
    // VFS and MoCap have no multi-consumer producer, so under the
    // adaptive strategy every candidate must be scored on the
    // prefix-exact fast path (no global fusion replay, no full-eval
    // fallback beyond seed + finalize).
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in [h2h_model::zoo::vfs(), h2h_model::zoo::mocap()] {
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        let (mut mapping, _) = computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
        let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut mapping);
        assert!(out.stats.delta_evals > 0, "{}: no candidates scored", model.name());
        assert_eq!(
            out.stats.prefix_evals,
            out.stats.delta_evals,
            "{}: chain model must stay on the fast path",
            model.name()
        );
        assert_eq!(
            out.stats.full_evals, 2,
            "{}: only seed + finalize may evaluate fully",
            model.name()
        );
    }
}

#[test]
fn propagation_stats_are_coherent() {
    // The regression this guards: `mean_propagated` was once normalized
    // by delta evaluations instead of propagation rounds, reporting a
    // "mean" ~20x larger than the largest possible cone.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in h2h_model::zoo::all_models() {
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        let (mut mapping, _) = computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
        let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut mapping);
        let stats = out.stats;
        assert!(
            stats.mean_propagated() <= stats.max_propagated as f64,
            "{}: mean cone {} exceeds max cone {}",
            model.name(),
            stats.mean_propagated(),
            stats.max_propagated
        );
        assert!(
            stats.max_propagated <= model.num_layers(),
            "{}: propagation cone cannot exceed the graph",
            model.name()
        );
        // Every delta-scored candidate flushes at least one round (the
        // moved layer is always in the deferred batch).
        assert!(stats.propagations >= stats.delta_evals);
    }
}

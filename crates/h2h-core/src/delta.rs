//! The incremental-evaluation search core (paper §4.2 / §4.4).
//!
//! Every H2H search loop asks the same question thousands of times:
//! *"if layer L moved to accelerator A, what would the system cost
//! be?"*. Historically each candidate re-ran the full knapsack +
//! fusion rebuild and a full `O(V+E)` list schedule. [`DeltaEngine`]
//! answers it incrementally instead:
//!
//! 1. **Scoped locality rebuild** — a move from accelerator `A` to `B`
//!    can only change the weight-knapsack inputs *of `A` and `B`*
//!    (knapsacks are per-accelerator), so only those two accelerators'
//!    pin sets are re-optimized; every other accelerator's pins are
//!    carried over unchanged.
//! 2. **Delta scheduling** — the tentative durations feed
//!    [`IncrementalSchedule`], which re-times only the affected cone
//!    (graph successors + same-accelerator queue successors) instead of
//!    the whole graph. Cost refreshes are *deferred*: they batch up and
//!    flush right before the first exact makespan read (or once at the
//!    end), so a layer stripped and re-fused within one candidate is
//!    re-derived once, not twice.
//!
//! # Scoring strategies (all bitwise-exact)
//!
//! The fusion pass guards "risky" candidates with a *global* makespan
//! comparison, so in general the staged rebuild must replay the fusion
//! pass over **all** accelerators in its exact global order (with the
//! guard answered by the incremental schedule, which is bitwise-equal
//! to the full evaluation it replaces). How the default
//! [`ScoreStrategy::Adaptive`] scores a candidate, by its shape (the
//! reference [`ScoreStrategy::FullEval`] takes the plain full
//! evaluation for every candidate):
//!
//! | Candidate shape | Path | Per-guard cost |
//! |---|---|---|
//! | no risky producer anywhere | prefix-exact scoped re-fusion | no guards at all |
//! | risky, ≤ `small_model_threshold` layers | plain full evaluation | n/a (one `O(V+E)` eval) |
//! | risky, large, guard **proven** by dominance | global replay, guard pruned | `O(1)` proof, deferred refresh |
//! | risky, large, guard unproven, accepted | global replay, toggle kept | one cone propagation |
//! | risky, large, guard unproven, rejected | global replay, toggle undone | one cone propagation + `O(cone)` journal restore |
//!
//! * **Prefix-exact fast path** — risky candidates only arise at
//!   producers with ≥ 2 consumers at least one of which is co-located.
//!   When the candidate mapping has *no* such producer anywhere, every
//!   fusion decision is a purely per-accelerator capacity rule, so
//!   untouched accelerators' fusion sets are carried over verbatim and
//!   only the two touched accelerators' candidates are re-fused — no
//!   global replay, no makespan guards. Chain-structured models (VFS,
//!   CNN-LSTM, MoCap) take this path for essentially every candidate.
//! * **Full-eval fallback** — on small models (≤
//!   [`crate::H2hConfig::small_model_threshold`] layers) a risky
//!   candidate is cheaper to score by a plain full rebuild +
//!   evaluation than by the global replay; the adaptive strategy does
//!   exactly that (and reseeds the delta state on accept).
//! * **Guard-dominance pruning** (large-model replay, on by default via
//!   [`crate::H2hConfig::enable_guard_dominance`]) — before a risky
//!   guard replays its toggle, [`DeltaOracle::resolve_guard`] tries to
//!   *prove* the accept/reject outcome from local quantities: the
//!   producer's new finish time is exactly computable, and when every
//!   reader of it absorbs the change (their starts already clear it)
//!   while the consumer's saving keeps its own finish bounded, the
//!   global comparison reduces to `new_finish ≤ makespan` — decided
//!   without touching the schedule. ResNet-like models resolve the
//!   large majority of their guards this way
//!   ([`SearchStats::guards_skipped`] / [`SearchStats::guards_total`]).
//! * **`O(cone)` guard reverts** — unproven guards still toggle and
//!   measure, but the toggle runs inside a journal savepoint
//!   ([`h2h_system::incremental::IncrementalSchedule::savepoint`]), so
//!   a rejected guard restores the touched set by replaying the
//!   recorded undo entries ([`SearchStats::guard_reverts_fast`])
//!   instead of paying a second cost-refresh + re-propagation.
//!
//! Accepted candidates commit the delta state directly; the only full
//! evaluations in a search run are the seed, the finalization and any
//! full-eval-fallback candidates, and final mappings/latencies are
//! identical to the historical per-candidate full-re-evaluation
//! implementations (asserted by equivalence tests over the whole zoo,
//! over both strategies and with dominance pruning on or off).
//!
//! [`SearchStats`] counts delta vs full evaluations so the speedup is
//! observable (`h2h-bench` emits it as `BENCH_search.json`).

use serde::Serialize;

use h2h_model::graph::LayerId;
use h2h_model::layer::LayerOp;
use h2h_model::units::{Bytes, Seconds};
use h2h_system::incremental::IncrementalSchedule;
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{Evaluator, Schedule};
use h2h_system::system::AccId;

use crate::activation_fusion::{
    fusion_pass, rebuild_locality, sorted_fusable_edges, FusionOracle,
};
use crate::config::{H2hConfig, ScoreStrategy};
use crate::preset::PinPreset;
use crate::weight_locality::weight_locality_pass;

/// Instrumentation of one search run: how often the delta engine
/// answered a candidate query versus how often a full evaluation was
/// needed, and how local the delta updates were.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SearchStats {
    /// Candidate moves scored by the delta engine.
    pub delta_evals: usize,
    /// Delta evaluations that took the prefix-exact fast path (no
    /// global fusion replay).
    pub prefix_evals: usize,
    /// Full `Evaluator::evaluate` calls on the search path.
    pub full_evals: usize,
    /// Full (all-accelerator) locality rebuilds.
    pub full_rebuilds: usize,
    /// Scoped (two-accelerator) locality rebuilds.
    pub scoped_rebuilds: usize,
    /// Total layers re-timed across all delta propagations.
    pub propagated_layers: usize,
    /// Individual propagation rounds executed (each re-times one
    /// affected cone).
    pub propagations: usize,
    /// Largest single propagation cone.
    pub max_propagated: usize,
    /// Risky fusion guards reached by the delta replay (each one the
    /// reference answers with a toggle + global makespan comparison).
    pub guards_total: usize,
    /// Risky guards whose outcome was *proven* by dominance, skipping
    /// the toggle/revert replay. Capacity-refused fusions (which also
    /// avoid the replay, trivially) are deliberately not counted, so a
    /// non-zero value always means the dominance proof itself fired —
    /// the CI gate relies on that.
    pub guards_skipped: usize,
    /// Rejected risky guards whose toggle was undone by the journal's
    /// `O(cone)` savepoint restore instead of a second re-propagation.
    pub guard_reverts_fast: usize,
    /// Moves attempted by the search loop.
    pub attempted_moves: usize,
    /// Moves accepted.
    pub accepted_moves: usize,
    /// Full passes executed (remap loop only).
    pub passes: usize,
}

impl SearchStats {
    /// Full evaluations a per-candidate-full-re-evaluation
    /// implementation would have spent: one per attempted move (the
    /// historical inner loop), versus [`SearchStats::full_evals`]
    /// actually spent.
    pub fn full_evals_saved_ratio(&self) -> f64 {
        if self.full_evals == 0 {
            return self.attempted_moves as f64;
        }
        self.attempted_moves as f64 / self.full_evals as f64
    }

    /// Mean layers re-timed per propagation round — the paper's
    /// locality-of-update measure, always ≤
    /// [`SearchStats::max_propagated`]. (A candidate evaluation may run
    /// several propagation rounds, so this is deliberately *not*
    /// normalized by [`SearchStats::delta_evals`]: doing so once
    /// inflated the "mean" far beyond the largest possible cone.)
    pub fn mean_propagated(&self) -> f64 {
        if self.propagations == 0 {
            return 0.0;
        }
        self.propagated_layers as f64 / self.propagations as f64
    }

    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.delta_evals += other.delta_evals;
        self.prefix_evals += other.prefix_evals;
        self.full_evals += other.full_evals;
        self.full_rebuilds += other.full_rebuilds;
        self.scoped_rebuilds += other.scoped_rebuilds;
        self.propagated_layers += other.propagated_layers;
        self.propagations += other.propagations;
        self.max_propagated = self.max_propagated.max(other.max_propagated);
        self.guards_total += other.guards_total;
        self.guards_skipped += other.guards_skipped;
        self.guard_reverts_fast += other.guard_reverts_fast;
        self.attempted_moves += other.attempted_moves;
        self.accepted_moves += other.accepted_moves;
        self.passes += other.passes;
    }
}

fn note_propagation(stats: &mut SearchStats, touched: usize) {
    stats.propagated_layers += touched;
    stats.propagations += 1;
    stats.max_propagated = stats.max_propagated.max(touched);
}

/// Wall-clock breakdown of one engine's search time by phase, filled
/// only when [`H2hConfig::profile_phases`] is on (`bench_search
/// --profile`). Deliberately **not** part of [`SearchStats`]: the stat
/// counters are asserted bitwise-equal across strategies, while
/// wall-clock numbers are machine- and run-specific.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct PhaseProfile {
    /// Candidate scoring outside the other buckets: locality
    /// strip/rebuild replay, fusion-pass bookkeeping, full-eval
    /// fallbacks, staged-candidate rollback.
    pub scoring_s: f64,
    /// Deferred cost refresh + cone propagation rounds (the
    /// [`DeltaOracle`] flush/toggle paths and the prefix-path flush).
    pub propagate_s: f64,
    /// Risky-guard resolution: dominance proofs, toggle savepoints and
    /// `O(cone)` reverts.
    pub guard_s: f64,
    /// Committing accepted candidates into the engine state.
    pub commit_s: f64,
}

impl PhaseProfile {
    /// Sum of all buckets.
    pub fn total(&self) -> f64 {
        self.scoring_s + self.propagate_s + self.guard_s + self.commit_s
    }
}

/// The [`FusionOracle`] that answers the shared fusion pass's makespan
/// guards from the incremental schedule. Cost refreshes (the staged
/// move itself, pin diffs, stripped and re-fused edge endpoints) batch
/// in `pending` and structural re-queue seeds in `pending_seeds`; both
/// are flushed lazily right before a guard reads the makespan (and once
/// at the end via [`DeltaOracle::flush`]), so layers stripped and
/// re-fused within one candidate are refreshed once, with their final
/// state.
///
/// Risky guards additionally go through [`FusionOracle::resolve_guard`]
/// dominance pruning (see [`DeltaOracle::resolve_guard`] for the proof
/// obligations) and, when the toggle replay does run, a journal
/// savepoint turns a rejected guard's revert into an `O(cone)` restore
/// instead of a second re-propagation.
struct DeltaOracle<'x, 'e, 'm> {
    ev: &'e Evaluator<'m>,
    mapping: &'x Mapping,
    inc: &'x mut IncrementalSchedule,
    stats: &'x mut SearchStats,
    pending: Vec<LayerId>,
    pending_seeds: Vec<LayerId>,
    /// Dominance pruning enabled ([`H2hConfig::enable_guard_dominance`]).
    dominance: bool,
    /// Restore point of the risky-guard toggle currently in flight.
    savepoint: Option<h2h_system::incremental::Savepoint>,
    /// Phase wall-clock accumulator, present iff profiling is on.
    profile: Option<&'x mut PhaseProfile>,
}

impl DeltaOracle<'_, '_, '_> {
    fn flush(&mut self, loc: &LocalityState) {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        if !self.pending.is_empty() {
            // Stripped-then-restored layers appear several times in the
            // batch; one refresh against the flush-time locality is the
            // same snapshot (and the same seeds), minus the repeat
            // `layer_cost` derivations.
            self.pending.sort_unstable();
            self.pending.dedup();
            self.inc.refresh_costs_into(
                self.ev,
                self.mapping,
                loc,
                self.pending.drain(..),
                &mut self.pending_seeds,
            );
        }
        // A batch whose refreshes all came back with identical durations
        // (and no structural seeds outstanding) moves nothing: skip the
        // zero-touch propagation round instead of counting it.
        if !self.pending_seeds.is_empty() {
            self.inc.propagate(&self.pending_seeds);
            self.pending_seeds.clear();
            note_propagation(self.stats, self.inc.touched());
        }
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.propagate_s += t0.elapsed().as_secs_f64();
        }
    }
}

impl FusionOracle for DeltaOracle<'_, '_, '_> {
    fn fused(&mut self, _loc: &LocalityState, from: LayerId, to: LayerId) {
        self.pending.push(from);
        self.pending.push(to);
    }

    fn toggled(&mut self, loc: &LocalityState, from: LayerId, to: LayerId) {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        // Toggles always follow a makespan read, so the batches are
        // drained and `pending_seeds` is free to reuse as the seed
        // buffer.
        debug_assert!(self.pending.is_empty() && self.pending_seeds.is_empty());
        self.inc.refresh_costs_into(
            self.ev,
            self.mapping,
            loc,
            [from, to],
            &mut self.pending_seeds,
        );
        self.inc.propagate(&self.pending_seeds);
        self.pending_seeds.clear();
        note_propagation(self.stats, self.inc.touched());
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.propagate_s += t0.elapsed().as_secs_f64();
        }
    }

    fn makespan(&mut self, loc: &LocalityState) -> Seconds {
        self.flush(loc);
        self.inc.makespan()
    }

    /// Dominance pruning for a risky guard. The reference semantics it
    /// must reproduce: accept the fusion iff the toggled schedule's
    /// makespan does not exceed the pre-toggle makespan.
    ///
    /// Toggling the `from → to` fusion changes exactly two durations —
    /// `from`'s (it gains a DRAM write; call its new duration `ndf` and
    /// its new finish `nf = start[from] + ndf`, both exactly computable
    /// because nothing upstream of `from` changes) and `to`'s (its IFM
    /// download becomes a DRAM read, `ndt`). The schedule recurrence
    /// `start = max(inputs); finish = start + dur` is monotone in every
    /// input *bitwise* (IEEE round-to-nearest `max`/`+` are monotone),
    /// so one induction over the recurrence order settles the guard
    /// when two local conditions hold:
    ///
    /// 1. **Absorption** — every reader of `from`'s finish other than
    ///    `to` (graph successors + the queue successor) already starts
    ///    at or after `nf`, so no start time outside `to`'s cone can
    ///    increase.
    /// 2. **Consumer slack** — `max(start[to], nf) + ndt ≤ finish[to]`:
    ///    an exact upper bound on `to`'s new finish (its other inputs
    ///    cannot increase, by 1.), so `to`'s cone only moves earlier.
    ///
    /// Under 1+2 every finish except `from`'s is bounded by its current
    /// value ≤ the current makespan, and `from`'s is exactly `nf`;
    /// hence the toggled makespan is `≤ before` iff `nf ≤ before` —
    /// accept — and `> before` (it *is* `nf`) otherwise — reject. Both
    /// outcomes are proven, not estimated, so the search decisions stay
    /// bit-identical to the full replay (asserted over the zoo by the
    /// equivalence suites). If either condition fails, `None` sends the
    /// pass down the full toggle/measure path.
    fn resolve_guard(
        &mut self,
        loc: &mut LocalityState,
        from: LayerId,
        to: LayerId,
        acc: AccId,
        bytes: Bytes,
    ) -> Option<bool> {
        self.stats.guards_total += 1;
        if !self.dominance {
            return None;
        }
        // The proof reads exact start/finish times, so the deferred
        // batches must land first — the same flush the reference pays
        // at this guard's `before` makespan read. Must happen before
        // the tentative fuse: pending layers refresh against the
        // pre-toggle locality. (Charged to `propagate_s`, not
        // `guard_s`: the reference pays the same flush.)
        self.flush(loc);
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        let out = self.resolve_guard_inner(loc, from, to, acc, bytes);
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.guard_s += t0.elapsed().as_secs_f64();
        }
        out
    }

    fn guard_begin(&mut self) {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        debug_assert!(self.savepoint.is_none(), "risky guards never nest");
        self.savepoint = Some(self.inc.savepoint());
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.guard_s += t0.elapsed().as_secs_f64();
        }
    }

    fn guard_revert(&mut self, _loc: &LocalityState, _from: LayerId, _to: LayerId) {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        // The savepoint journal recorded the toggle's touched set
        // (costs, durations, start/finish times, aggregates); restoring
        // it is O(touched), replacing the reference's second refresh +
        // re-propagation — which would recompute exactly these values.
        let sp = self.savepoint.take().expect("guard_begin marks the restore point");
        self.inc.rollback_to(&sp);
        self.stats.guard_reverts_fast += 1;
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.guard_s += t0.elapsed().as_secs_f64();
        }
    }

    fn guard_commit(&mut self) {
        self.savepoint = None;
    }
}

impl DeltaOracle<'_, '_, '_> {
    /// The dominance-proof body of [`FusionOracle::resolve_guard`],
    /// factored out so the wrapper can charge it to
    /// [`PhaseProfile::guard_s`] as one span.
    fn resolve_guard_inner(
        &mut self,
        loc: &mut LocalityState,
        from: LayerId,
        to: LayerId,
        acc: AccId,
        bytes: Bytes,
    ) -> Option<bool> {
        if !loc.is_fused(from, to) && bytes > loc.dram_free(acc, self.ev.system()) {
            // Capacity-refused: the reference would measure `before`,
            // fail the same try_fuse and move on. No state changed;
            // only the makespan scan is saved. Not counted in
            // `guards_skipped` — that counter certifies the dominance
            // proof fired, and this branch never ran it.
            return Some(false);
        }
        // The toggle changes exactly one term on each endpoint: `from`
        // gains a DRAM write (OFM), `to`'s download becomes a DRAM read
        // (IFM). Everything else — weights, compute, the other
        // endpoint's untouched transfer side — is read from the costs
        // the pre-toggle flush just certified, so only the changed term
        // reruns the kernel, with the toggle itself priced as an
        // `extra_fused` overlay — no tentative fuse/unfuse churn on the
        // sorted fused-edge vector. Bitwise equal to the full recompute
        // (the specialized sums replay the same float ops in the same
        // order over the same locality view), which the debug
        // assertions below pin down against a real toggle.
        let ndf = self
            .ev
            .duration_new_ofm(self.mapping, loc, from, self.inc.cost_of(from), Some(to))
            .as_f64();
        let ndt = self
            .ev
            .duration_new_ifm(self.mapping, loc, to, self.inc.cost_of(to), Some(from))
            .as_f64();
        #[cfg(debug_assertions)]
        {
            assert!(loc.try_fuse_bytes(self.ev.system(), from, to, acc, bytes));
            assert_eq!(
                ndf.to_bits(),
                self.ev.layer_cost(self.mapping, loc, from).duration().as_f64().to_bits()
            );
            assert_eq!(
                ndt.to_bits(),
                self.ev.layer_cost(self.mapping, loc, to).duration().as_f64().to_bits()
            );
            assert!(loc.unfuse(self.ev.model(), from, to, acc));
        }
        let nf = self.inc.start_of(from).as_f64() + ndf;
        let start_of = |l: LayerId| self.inc.start_of(l).as_f64();
        let absorbed = self.ev.successors_flat(from).iter().all(|&s| s == to || nf <= start_of(s))
            && self
                .inc
                .queue_successor(from)
                .is_none_or(|q| q == to || nf <= start_of(q));
        if absorbed {
            let new_finish_to_bound = start_of(to).max(nf) + ndt;
            if new_finish_to_bound <= self.inc.finish_of(to).as_f64() {
                let accept = nf <= self.inc.makespan().as_f64();
                if accept {
                    // The overlay becomes real only now — a proven
                    // reject (and the unproven fall-through below)
                    // leaves `loc` untouched, where the pre-overlay
                    // proof paid a tentative fuse and its revert.
                    let ok = loc.try_fuse_bytes(self.ev.system(), from, to, acc, bytes);
                    debug_assert!(ok, "capacity was checked above");
                    // Exactly like a non-risky accept: the endpoints'
                    // refreshes defer to the next flush.
                    self.pending.push(from);
                    self.pending.push(to);
                }
                self.stats.guards_skipped += 1;
                return Some(accept);
            }
        }
        // Unproven: hand the untouched state back to the full guard.
        None
    }
}

/// The staged candidate: which layer moved, where it came from, and
/// whether it was scored through the delta schedule (transactional) or
/// a plain full evaluation.
#[derive(Debug, Clone, Copy)]
struct StagedMove {
    layer: LayerId,
    from: AccId,
    delta: bool,
}

/// Incremental candidate-move evaluator bound to one search run.
///
/// The engine always holds the exact state of the current mapping
/// (locality + the delta schedule mirroring it, with aggregates
/// resummed so every objective scores bitwise like a full evaluation).
/// Candidates are staged transactionally on top and either rolled back
/// or committed as the new current state.
#[derive(Debug)]
pub struct DeltaEngine<'e, 'm> {
    ev: &'e Evaluator<'m>,
    cfg: &'e H2hConfig,
    preset: &'e PinPreset,
    inc: IncrementalSchedule,
    locality: LocalityState,
    schedule: Schedule,
    score: f64,
    staged: Option<StagedMove>,
    staged_locality: Option<LocalityState>,
    staged_schedule: Option<Schedule>,
    staged_makespan: f64,
    /// Resolved adaptive fallback: small models score risky candidates
    /// by full evaluation, large ones by the global replay.
    prefer_full: bool,
    /// All non-input-producer edges pre-sorted by the fusion pass's
    /// global order (bytes desc, then endpoint indices) — the
    /// mapping-independent part of the candidate list, computed once.
    sorted_edges: Vec<(LayerId, LayerId, Bytes)>,
    /// Non-input producers with ≥ 2 consumers (and those consumers):
    /// the only places a "risky" fusion candidate can arise. The
    /// prefix-exact fast path applies exactly when no such producer is
    /// co-located with any of its consumers in the candidate mapping.
    multi_out: Vec<(LayerId, Vec<LayerId>)>,
    // Reusable scratch for the staging hot path, kept across candidates
    // so steady-state scoring allocates nothing.
    spare_locality: Option<LocalityState>,
    scratch_costs: Vec<LayerId>,
    scratch_seeds: Vec<LayerId>,
    scratch_cands: Vec<(LayerId, LayerId, Bytes)>,
    scratch_pins: Vec<(LayerId, AccId)>,
    scratch_fusions: Vec<(LayerId, LayerId, AccId)>,
    /// Evaluation counters for this run.
    pub stats: SearchStats,
    /// Phase timers armed ([`H2hConfig::profile_phases`]).
    profile_enabled: bool,
    /// Wall-clock per-phase breakdown of this engine's work; stays
    /// zeroed unless profiling is on. Unlike [`DeltaEngine::stats`]
    /// this is never compared across runs.
    pub profile: PhaseProfile,
}

impl<'e, 'm> DeltaEngine<'e, 'm> {
    /// Binds the engine to `mapping`'s exact state (one full rebuild +
    /// evaluation).
    pub fn new(
        ev: &'e Evaluator<'m>,
        cfg: &'e H2hConfig,
        preset: &'e PinPreset,
        mapping: &Mapping,
    ) -> Self {
        let mut stats = SearchStats::default();
        stats.full_rebuilds += 1;
        stats.full_evals += 1;
        let model = ev.model();
        let locality = rebuild_locality(ev, mapping, cfg, preset);
        let schedule = ev.evaluate(mapping, &locality);
        let score = cfg.objective.score(&schedule);
        let inc = IncrementalSchedule::new(ev, mapping, &locality);
        let multi_out = model
            .layer_ids()
            .filter(|id| !matches!(model.layer(*id).op(), LayerOp::Input { .. }))
            .filter_map(|id| {
                let succs: Vec<LayerId> = model.successors(id).collect();
                (succs.len() >= 2).then_some((id, succs))
            })
            .collect();
        DeltaEngine {
            ev,
            cfg,
            preset,
            inc,
            locality,
            schedule,
            score,
            staged: None,
            staged_locality: None,
            staged_schedule: None,
            staged_makespan: 0.0,
            prefer_full: model.num_layers() <= cfg.small_model_threshold,
            sorted_edges: sorted_fusable_edges(model),
            multi_out,
            spare_locality: None,
            scratch_costs: Vec::new(),
            scratch_seeds: Vec::new(),
            scratch_cands: Vec::new(),
            scratch_pins: Vec::new(),
            scratch_fusions: Vec::new(),
            stats,
            profile_enabled: cfg.profile_phases,
            profile: PhaseProfile::default(),
        }
    }

    /// Objective score of the current (exact) state.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Schedule of the last exactly evaluated state (the seed, the last
    /// [`DeltaEngine::finalize`]d state, or the last accepted
    /// full-eval-fallback candidate). Trusted delta accepts advance the
    /// engine past this snapshot; call [`DeltaEngine::finalize`] for an
    /// up-to-date exact schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Locality of the current state (exact: the staged rebuild replay
    /// reproduces the full rebuild's decisions bitwise).
    pub fn locality(&self) -> &LocalityState {
        &self.locality
    }

    /// Re-evaluates the current state exactly (one full evaluation) and
    /// consumes the engine, yielding the final `(locality, schedule,
    /// stats)`.
    ///
    /// # Panics
    ///
    /// Panics if a candidate is still staged.
    pub fn finalize(mut self, mapping: &Mapping) -> (LocalityState, Schedule, SearchStats) {
        assert!(self.staged.is_none(), "finalize with a staged candidate");
        self.stats.full_evals += 1;
        let schedule = self.ev.evaluate(mapping, &self.locality);
        (self.locality, schedule, self.stats)
    }

    /// True when moving `layer` to `to` leaves a mapping in which some
    /// multi-consumer producer is co-located with one of its consumers —
    /// i.e. the fusion pass could see a "risky" candidate whose accept
    /// decision needs a global makespan guard. When false, the
    /// prefix-exact fast path applies.
    fn candidate_has_risky_fusion(
        &self,
        mapping: &Mapping,
        layer: LayerId,
        to: AccId,
    ) -> bool {
        let mapped = |l: LayerId| if l == layer { Some(to) } else { mapping.get(l) };
        self.multi_out.iter().any(|(f, succs)| {
            let fa = mapped(*f);
            fa.is_some() && succs.iter().any(|s| mapped(*s) == fa)
        })
    }

    /// Stages the candidate "move `layer` to `to`": mutates `mapping`,
    /// scores the candidate through the strategy-selected path
    /// (prefix-exact scoped rebuild, global fusion replay, or plain
    /// full evaluation — all bitwise-identical scores) and returns the
    /// candidate's objective score. The candidate stays staged until
    /// [`DeltaEngine::reject_staged`] or [`DeltaEngine::accept_staged`].
    ///
    /// # Panics
    ///
    /// Panics if a candidate is already staged or `to` equals the
    /// layer's current accelerator.
    pub fn stage_move(&mut self, mapping: &mut Mapping, layer: LayerId, to: AccId) -> f64 {
        if !self.profile_enabled {
            return self.stage_move_inner(mapping, layer, to);
        }
        // The oracle charges its own propagate/guard spans while the
        // stage runs; scoring gets the remainder of the elapsed time.
        let inner_before = self.profile.propagate_s + self.profile.guard_s;
        let t0 = std::time::Instant::now();
        let score = self.stage_move_inner(mapping, layer, to);
        let inner = (self.profile.propagate_s + self.profile.guard_s) - inner_before;
        self.profile.scoring_s += (t0.elapsed().as_secs_f64() - inner).max(0.0);
        score
    }

    fn stage_move_inner(&mut self, mapping: &mut Mapping, layer: LayerId, to: AccId) -> f64 {
        assert!(self.staged.is_none(), "candidate already staged");
        let from = mapping.acc_of(layer);
        assert_ne!(from, to, "staging a no-op move");
        match self.cfg.strategy {
            ScoreStrategy::FullEval => self.stage_full(mapping, layer, from, to),
            ScoreStrategy::Adaptive => {
                if !self.candidate_has_risky_fusion(mapping, layer, to) {
                    self.stage_delta(mapping, layer, from, to, true)
                } else if self.prefer_full {
                    self.stage_full(mapping, layer, from, to)
                } else {
                    self.stage_delta(mapping, layer, from, to, false)
                }
            }
        }
    }

    /// Plain full evaluation of the candidate (reference semantics);
    /// the delta schedule is left untouched and reseeded on accept.
    fn stage_full(
        &mut self,
        mapping: &mut Mapping,
        layer: LayerId,
        from: AccId,
        to: AccId,
    ) -> f64 {
        self.stats.full_evals += 1;
        self.stats.full_rebuilds += 1;
        self.staged = Some(StagedMove { layer, from, delta: false });
        mapping.set(layer, to);
        let loc = rebuild_locality(self.ev, mapping, self.cfg, self.preset);
        let schedule = self.ev.evaluate(mapping, &loc);
        let score = self.cfg.objective.score(&schedule);
        self.staged_makespan = schedule.makespan().as_f64();
        self.staged_locality = Some(loc);
        self.staged_schedule = Some(schedule);
        score
    }

    /// Transactional delta scoring: scoped pin rebuild plus either the
    /// prefix-exact local re-fusion (`prefix`) or the global
    /// fusion-pass replay.
    fn stage_delta(
        &mut self,
        mapping: &mut Mapping,
        layer: LayerId,
        from: AccId,
        to: AccId,
        prefix: bool,
    ) -> f64 {
        self.stats.delta_evals += 1;
        self.stats.scoped_rebuilds += 1;
        if prefix {
            self.stats.prefix_evals += 1;
        }
        self.staged = Some(StagedMove { layer, from, delta: true });
        self.inc.begin();

        let model = self.ev.model();

        // Strip the pins charged to the two touched accelerators
        // (attribution uses the pre-move mapping): a move can only
        // change the per-accelerator knapsack inputs of its endpoints,
        // so every other accelerator's pin set is provably identical to
        // what a full rebuild would recompute and is carried over.
        let mut loc = match self.spare_locality.take() {
            Some(mut spare) => {
                spare.clone_from(&self.locality);
                spare
            }
            None => self.locality.clone(),
        };
        let in_scope = |a: AccId| a == from || a == to;
        // Deferred cost refreshes: the moved layer, stripped fusion
        // endpoints, (re-)pinned layers and re-fused endpoints
        // accumulate here and are re-derived lazily — at the first
        // exact makespan read, or once at the end when no guard fires —
        // with their final locality state, instead of once per
        // intermediate state. Duplicates and unchanged-state layers are
        // fine: a refresh whose cost comes out identical seeds nothing.
        let mut pending_costs = std::mem::take(&mut self.scratch_costs);
        pending_costs.clear();
        pending_costs.push(layer);
        // Per-route bandwidths make a layer's transfer terms depend on
        // its neighbours' placements: the move re-rates the IFM edges
        // of `layer`'s successors and the OFM upload of its
        // predecessors, so both sides join the deferred refresh. (On a
        // uniform fabric the refreshes come back with identical
        // durations and seed nothing.)
        pending_costs.extend(self.ev.predecessors_flat(layer));
        pending_costs.extend(self.ev.successors_flat(layer));
        self.scratch_pins.clear();
        self.scratch_pins.extend(
            loc.pinned_layers()
                .filter_map(|l| mapping.get(l).filter(|a| in_scope(*a)).map(|a| (l, a))),
        );
        for k in 0..self.scratch_pins.len() {
            let (l, a) = self.scratch_pins[k];
            loc.unpin(model, l, a);
            pending_costs.push(l);
        }

        // Fusions: the activation-fusion pass guards "risky" candidates
        // with a *global* makespan comparison, so in general any
        // accelerator's fusion decisions can flip when the schedule
        // changes — the replay strips them all and re-runs the pass in
        // its exact global order below. On the prefix fast path the
        // caller has proven no risky candidate exists anywhere, so
        // every fusion decision is a per-accelerator capacity rule:
        // only the two touched accelerators' fusions (charge
        // attribution: the producer's pre-move accelerator, which
        // co-location guarantees equals the consumer's) can change.
        if prefix {
            self.scratch_fusions.clear();
            self.scratch_fusions.extend(
                loc.fused_edges()
                    .filter_map(|(f, t)| mapping.get(f).map(|a| (f, t, a)))
                    .filter(|(_, _, a)| in_scope(*a)),
            );
            for k in 0..self.scratch_fusions.len() {
                let (f, t, a) = self.scratch_fusions[k];
                loc.unfuse(model, f, t, a);
                pending_costs.push(f);
                pending_costs.push(t);
            }
        } else {
            // The replay strips *every* fused edge; per-edge removal
            // from the sorted vec would be quadratic, so the bulk strip
            // refunds all recorded charges in one linear pass.
            pending_costs.extend(
                loc.fused_edges()
                    .filter(|(f, _)| mapping.get(*f).is_some())
                    .flat_map(|(f, t)| [f, t]),
            );
            loc.unfuse_all(mapping);
        }

        // Apply the move.
        mapping.set(layer, to);
        let mut pending_seeds = std::mem::take(&mut self.scratch_seeds);
        pending_seeds.clear();
        self.inc.move_layer_into(layer, to, &mut pending_seeds);

        // Scoped step 2: the shared `weight_locality_pass` body (preset
        // pins + per-accelerator knapsack) restricted to the two
        // touched accelerators.
        let mut scoped = [from, to];
        scoped.sort_by_key(|a| a.index());
        if self.cfg.enable_weight_locality {
            weight_locality_pass(
                self.ev,
                mapping,
                &mut loc,
                self.cfg.knapsack,
                self.preset,
                &scoped,
            );
        }
        // Every in-scope pin of the rebuilt state joins the refresh;
        // together with the stripped pins above this covers the pin
        // diff (re-deriving a pin whose state is unchanged is a no-op).
        pending_costs
            .extend(loc.pinned_layers().filter(|l| mapping.get(*l).is_some_and(in_scope)));

        if self.cfg.enable_activation_fusion && prefix {
            // Prefix-exact step 3: only the touched accelerators'
            // candidates are re-fused, in the canonical global order
            // restricted to them (per-accelerator budget consumption
            // order is preserved, and that is all a capacity-only
            // decision depends on). No makespan guards are needed: the
            // no-risky-candidate precondition makes every candidate's
            // accept rule unconditional-if-it-fits.
            let system = self.ev.system();
            for &(f, t, bytes) in &self.sorted_edges {
                let fa = mapping.get(f);
                if fa.is_none() || fa != mapping.get(t) {
                    continue;
                }
                let acc = fa.expect("checked above");
                if !in_scope(acc) {
                    continue;
                }
                if loc.try_fuse_bytes(system, f, t, acc, bytes) {
                    pending_costs.push(f);
                    pending_costs.push(t);
                }
            }
        }
        if self.cfg.enable_activation_fusion && !prefix {
            // Step 3 replay: the shared `fusion_pass` body over all
            // accelerators in the exact global candidate order of
            // `activation_fusion_opt`, with the makespan guard for
            // risky candidates answered by the delta schedule
            // (bitwise-equal to the full evaluation it replaces).
            let mut candidates = std::mem::take(&mut self.scratch_cands);
            candidates.clear();
            candidates.extend(self.sorted_edges.iter().copied().filter(|(f, t, _)| {
                mapping.get(*f).is_some() && mapping.get(*f) == mapping.get(*t)
            }));
            let mut oracle = DeltaOracle {
                ev: self.ev,
                mapping,
                inc: &mut self.inc,
                stats: &mut self.stats,
                pending: pending_costs,
                pending_seeds,
                dominance: self.cfg.enable_guard_dominance,
                savepoint: None,
                profile: self.profile_enabled.then_some(&mut self.profile),
            };
            fusion_pass(self.ev, mapping, &mut loc, &candidates, &mut oracle);
            oracle.flush(&loc);
            self.scratch_costs = oracle.pending;
            self.scratch_seeds = oracle.pending_seeds;
            self.scratch_cands = candidates;
        } else {
            // Prefix path (or fusion disabled): one deferred flush (a
            // layer refreshed once with its final state is the same
            // snapshot its duplicates would telescope to).
            let t0 = self.profile_enabled.then(std::time::Instant::now);
            pending_costs.sort_unstable();
            pending_costs.dedup();
            self.inc.refresh_costs_into(
                self.ev,
                mapping,
                &loc,
                pending_costs.drain(..),
                &mut pending_seeds,
            );
            self.inc.propagate(&pending_seeds);
            note_propagation(&mut self.stats, self.inc.touched());
            self.scratch_costs = pending_costs;
            self.scratch_seeds = pending_seeds;
            if let Some(t0) = t0 {
                self.profile.propagate_s += t0.elapsed().as_secs_f64();
            }
        }

        // A fresh in-order summation makes the proxy aggregates
        // bitwise-equal to a full evaluation's, so every objective's
        // score — not just latency — filters exactly.
        self.inc.resum_aggregates();
        self.staged_makespan = self.inc.makespan().as_f64();
        self.staged_locality = Some(loc);
        self.cfg.objective.score_proxy(&self.inc.proxy())
    }

    /// Makespan of the currently staged candidate (exact).
    pub fn staged_makespan(&self) -> f64 {
        self.staged_makespan
    }

    /// Rolls the staged candidate back, restoring `mapping` and the
    /// delta schedule to the current state.
    ///
    /// # Panics
    ///
    /// Panics if no candidate is staged.
    pub fn reject_staged(&mut self, mapping: &mut Mapping) {
        let t0 = self.profile_enabled.then(std::time::Instant::now);
        let staged = self.staged.take().expect("no staged candidate");
        // Recycle the staged locality's buffers for the next candidate.
        self.spare_locality = self.staged_locality.take();
        self.staged_schedule = None;
        mapping.set(staged.layer, staged.from);
        if staged.delta {
            self.inc.rollback();
        }
        if let Some(t0) = t0 {
            // Rollback is part of the transactional scoring cost.
            self.profile.scoring_s += t0.elapsed().as_secs_f64();
        }
    }

    /// Commits the staged candidate: its replayed locality and delta
    /// schedule become the engine's current state (a delta-staged
    /// candidate commits without any full evaluation — the replay is
    /// exact by construction; a full-eval-staged candidate reseeds the
    /// delta schedule from its already-evaluated state). `mapping` must
    /// be the mapping the candidate was staged on (still moved).
    /// Returns the committed objective score.
    ///
    /// # Panics
    ///
    /// Panics if no candidate is staged.
    pub fn accept_staged(&mut self, mapping: &Mapping) -> f64 {
        let t0 = self.profile_enabled.then(std::time::Instant::now);
        let staged = self.staged.take().expect("no staged candidate");
        let accepted = self
            .staged_locality
            .take()
            .expect("staged candidate carries its locality");
        self.spare_locality = Some(std::mem::replace(&mut self.locality, accepted));
        if staged.delta {
            self.inc.commit();
            self.staged_schedule = None;
        } else {
            self.schedule = self
                .staged_schedule
                .take()
                .expect("full-eval candidate carries its schedule");
            self.inc = IncrementalSchedule::new(self.ev, mapping, &self.locality);
        }
        self.score = self.cfg.objective.score_proxy(&self.inc.proxy());
        self.stats.accepted_moves += 1;
        if let Some(t0) = t0 {
            self.profile.commit_s += t0.elapsed().as_secs_f64();
        }
        self.score
    }

    /// Greedy accept-if-better step: stages the move and accepts iff
    /// the candidate score improves on the current state by more than
    /// `accept_epsilon` — the same decision rule (over bitwise-equal
    /// scores) as the historical full-re-evaluation loop. Returns
    /// `true` on accept (with `mapping` left moved) and `false` on
    /// reject (with `mapping` restored).
    pub fn try_improving_move(
        &mut self,
        mapping: &mut Mapping,
        layer: LayerId,
        to: AccId,
    ) -> bool {
        self.stats.attempted_moves += 1;
        let best = self.score;
        let cand = self.stage_move(mapping, layer, to);
        if cand + self.cfg.accept_epsilon < best {
            self.accept_staged(mapping);
            true
        } else {
            self.reject_staged(mapping);
            false
        }
    }
}


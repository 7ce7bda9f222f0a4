//! Workload inputs, all generated from the `--seed` argument: the map
//! populations (zoo inputs plus seeded `synthetic_mmmt` draws), the
//! serving tenants with their frozen contract, Poisson arrival gaps and
//! the two fault timelines.

use std::borrow::Cow;

use h2h_core::serve::{TenantId, TenantRegistry, TenantSpec};
use h2h_core::H2hConfig;
use h2h_model::graph::ModelGraph;
use h2h_model::synth::{synthetic_mmmt, SyntheticConfig};
use h2h_model::units::Seconds;
use h2h_system::fault::{FaultPlan, FaultState};
use h2h_system::system::{BandwidthClass, SystemSpec};

/// SplitMix64: the benchmark's own generator, so inputs depend on the
/// seed and on nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One mapping input: a model on a system.
#[derive(Debug, Clone)]
pub struct MapInput {
    pub label: String,
    pub model: ModelGraph,
    pub system: SystemSpec,
}

fn system(bw: BandwidthClass, topology: &str) -> SystemSpec {
    SystemSpec::standard_with_topology(bw, Some(topology)).expect("built-in topology spec parses")
}

const TOPOLOGIES: [&str; 2] = ["uniform", "skewed"];

/// Shape of one population's synthetic draws.
#[derive(Debug, Clone, Copy)]
struct SynthShape {
    modalities: (usize, usize),
    layers: (usize, usize),
    bandwidths: &'static [BandwidthClass],
}

/// A map workload's inputs: zoo inputs that repeat every cycle, and
/// `per_cycle` synthetic draws per cycle that never repeat. The first
/// cycle's draws are built with the population; later draws are built
/// when their turn comes and dropped after use.
#[derive(Debug)]
pub struct Population {
    pub zoo: Vec<MapInput>,
    pub per_cycle: usize,
    first: Vec<MapInput>,
    shape: SynthShape,
    seed: u64,
}

impl Population {
    /// VLocNet, CASIA-SURF and FaceBag × {Low-, Mid} × {uniform,
    /// skewed}, plus one 100–150-layer draw with 3–6 modalities per cycle.
    pub fn large(seed: u64) -> Self {
        const BWS: &[BandwidthClass] = &[BandwidthClass::LowMinus, BandwidthClass::Mid];
        Population::new(
            seed ^ 0x4C41_5247,
            ["VLocNet", "CASIA-SURF", "FaceBag"],
            BWS,
            1,
            SynthShape {
                modalities: (3, 6),
                layers: (100, 150),
                bandwidths: BWS,
            },
        )
    }

    /// VFS, CNN-LSTM and MoCap × all five bandwidth classes × {uniform,
    /// skewed}, plus two draws under 80 layers per cycle.
    pub fn small(seed: u64) -> Self {
        Population::new(
            seed ^ 0x534D_414C,
            ["VFS", "CNN-LSTM", "MoCap"],
            &BandwidthClass::ALL,
            2,
            SynthShape {
                modalities: (2, 4),
                layers: (30, 79),
                bandwidths: &BandwidthClass::ALL,
            },
        )
    }

    fn new(
        seed: u64,
        names: [&str; 3],
        bws: &[BandwidthClass],
        per_cycle: usize,
        shape: SynthShape,
    ) -> Self {
        let mut zoo = Vec::new();
        for name in names {
            let model = h2h_model::zoo::by_name(name).expect("zoo model exists");
            for &bw in bws {
                for topo in TOPOLOGIES {
                    zoo.push(MapInput {
                        label: format!("{name}@{}/{topo}", bw.label()),
                        model: model.clone(),
                        system: system(bw, topo),
                    });
                }
            }
        }
        let first = (0..per_cycle as u64)
            .map(|k| synth_draw(seed, k, &shape))
            .collect();
        Population {
            zoo,
            per_cycle,
            first,
            shape,
            seed,
        }
    }

    /// Inputs of cycle `c`, as (is_synthetic, index) pairs.
    pub fn cycle(&self, c: usize) -> impl Iterator<Item = (bool, usize)> + '_ {
        (0..self.zoo.len())
            .map(|i| (false, i))
            .chain((0..self.per_cycle).map(move |j| (true, c * self.per_cycle + j)))
    }

    /// The input behind a `(is_synthetic, index)` key.
    pub fn input(&self, (synthetic, i): (bool, usize)) -> Cow<'_, MapInput> {
        match (synthetic, self.first.get(i)) {
            (false, _) => Cow::Borrowed(&self.zoo[i]),
            (true, Some(draw)) => Cow::Borrowed(draw),
            (true, None) => Cow::Owned(synth_draw(self.seed, i as u64, &self.shape)),
        }
    }

    /// Whether a key belongs to the first cycle.
    pub fn in_first_cycle(&self, (synthetic, i): (bool, usize)) -> bool {
        !synthetic || i < self.per_cycle
    }
}

/// The `k`-th synthetic draw of a population: modality count, target
/// size, cross-talk, task count, bandwidth and topology all come from
/// the seed; the branch depth is stepped until the layer count lands in
/// the population's range.
fn synth_draw(seed: u64, k: u64, shape: &SynthShape) -> MapInput {
    let mut rng = Rng::new(seed, k + 1);
    let modalities = rng.range(shape.modalities.0, shape.modalities.1);
    let target = rng.range(shape.layers.0, shape.layers.1);
    let cfg = SyntheticConfig {
        modalities,
        depth: 2,
        vision_fraction: 0.3 + 0.5 * rng.unit(),
        cross_talk: 0.2 + 0.4 * rng.unit(),
        tasks: rng.range(1, 4),
        seed: rng.next_u64(),
    };
    let bw = shape.bandwidths[rng.range(0, shape.bandwidths.len() - 1)];
    let topo = TOPOLOGIES[rng.range(0, 1)];
    let mut depth = (target * 4 / (5 * modalities)).max(2);
    let mut model = synthetic_mmmt(&SyntheticConfig { depth, ..cfg });
    for _ in 0..16 {
        let n = model.num_layers();
        if n < shape.layers.0 {
            depth += 1;
        } else if n > shape.layers.1 && depth > 2 {
            depth -= 1;
        } else {
            break;
        }
        model = synthetic_mmmt(&SyntheticConfig { depth, ..cfg });
    }
    MapInput {
        label: format!(
            "synth#{k}(m{modalities},{}L)@{}/{topo}",
            model.num_layers(),
            bw.label()
        ),
        model,
        system: system(bw, topo),
    }
}

// ---- Serving contract (frozen; see `--calibrate` and BENCHMARK.json) ----

/// Tenants of both serving workloads, all at Low- on the uniform fabric.
pub const TENANTS: [&str; 3] = ["CASIA-SURF", "FaceBag", "VFS"];
/// Per-tenant SLOs (ms): 1.5 × each tenant's p99 at [`TRICKLE_HZ`]
/// (calibration seed [`CALIBRATION_SEED`], [`REQUESTS`] requests each).
pub const SLO_MS: [f64; 3] = [11656.6, 13532.2, 17031.1];
/// The three frozen aggregate Poisson rates (Hz): light, mid and heavy
/// are 0.25, 0.5 and 0.85 of `max_rate_at_slo_hz` at the calibration
/// seed. Each tenant receives a third of the aggregate rate.
pub const RATES_HZ: [(&str, f64); 3] = [("light", 0.02811), ("mid", 0.05623), ("heavy", 0.09558)];
/// Aggregate rate at which the SLOs are calibrated.
pub const TRICKLE_HZ: f64 = 0.02;
pub const CALIBRATION_SEED: u64 = 1;
/// Requests per tenant in the drains that give the modeled tail metrics.
pub const REQUESTS: usize = 10_000;
/// Requests per tenant in the timed drains: short enough that every run
/// times many of them.
pub const TIMED_REQUESTS: usize = 2_000;
/// Share of every board's DRAM the tenants may keep resident.
pub const DRAM_BUDGET_FRAC: f64 = 0.1;
/// Modeled wall-clock cost of one attempted repair move.
pub const REPAIR_SECS_PER_MOVE: f64 = 25e-6;

/// Serving inputs: the shared system, the tenants' models and their
/// unit-rate exponential inter-arrival gaps (scaled by `1 / rate` at
/// each rate, so every rate replays the same arrival pattern).
#[derive(Debug)]
pub struct Serving {
    pub system: SystemSpec,
    pub models: Vec<ModelGraph>,
    pub gaps: Vec<Vec<f64>>,
    pub config: H2hConfig,
}

impl Serving {
    pub fn new(seed: u64) -> Self {
        let models = TENANTS
            .iter()
            .map(|name| h2h_model::zoo::by_name(name).expect("zoo model exists"))
            .collect();
        let gaps = (0..TENANTS.len() as u64)
            .map(|k| {
                let mut rng = Rng::new(seed ^ 0x5345_5256, k + 1);
                (0..REQUESTS).map(|_| -(1.0 - rng.unit()).ln()).collect()
            })
            .collect();
        Serving {
            system: system(BandwidthClass::LowMinus, "uniform"),
            models,
            gaps,
            config: H2hConfig {
                serve_dram_budget_frac: DRAM_BUDGET_FRAC,
                repair_secs_per_move: REPAIR_SECS_PER_MOVE,
                ..H2hConfig::default()
            },
        }
    }

    /// Tenant `k`'s first `requests` arrival times at aggregate rate `agg_hz`.
    pub fn arrivals(&self, k: usize, agg_hz: f64, requests: usize) -> Vec<f64> {
        let rate = agg_hz / TENANTS.len() as f64;
        let mut t = 0.0;
        self.gaps[k][..requests]
            .iter()
            .map(|g| {
                t += g / rate;
                t
            })
            .collect()
    }

    /// Tenant `k`'s admission request. Admission does not read the
    /// contract; every drain sets its own rate and SLO first.
    pub fn spec(&self, k: usize) -> TenantSpec {
        TenantSpec::new(
            TENANTS[k],
            self.models[k].clone(),
            1.0,
            Seconds::new(1.0),
            REQUESTS,
        )
    }
}

/// One named fault timeline and the fault state it settles into.
#[derive(Debug)]
pub struct Timeline {
    pub name: &'static str,
    pub plan: FaultPlan,
    pub state: FaultState,
    pub degraded: SystemSpec,
}

/// Onset of both timelines: just after the drain starts, no recovery.
const ONSET_S: f64 = 1e-6;

/// The two fault timelines, placed on the admitted tenants:
/// `nic-degrade` halves the host NIC and slows the board with the most
/// mapped layers 8×; `board-down` downs the board holding the most
/// resident weights. Ties go to the lowest board index.
pub fn timelines(reg: &TenantRegistry<'_>, ids: &[TenantId]) -> Vec<Timeline> {
    let system = reg.system();
    let n = system.num_accs();
    let busiest = system
        .acc_ids()
        .max_by_key(|acc| {
            let layers: usize = ids
                .iter()
                .map(|id| {
                    let t = reg.tenant(*id);
                    t.spec()
                        .model
                        .layer_ids()
                        .filter(|l| t.mapping().acc_of(*l) == *acc)
                        .count()
                })
                .sum();
            (layers, std::cmp::Reverse(acc.index()))
        })
        .expect("system has boards");
    let most_resident = system
        .acc_ids()
        .max_by_key(|acc| {
            let held: u64 = ids
                .iter()
                .map(|id| reg.tenant(*id).resident_bytes(*acc).as_u64())
                .sum();
            (held, std::cmp::Reverse(acc.index()))
        })
        .expect("system has boards");
    let nic = FaultPlan::parse(
        &format!("host:2@{ONSET_S};slow:{}/8@{ONSET_S}", busiest.index()),
        n,
    )
    .expect("nic-degrade plan parses");
    let down = FaultPlan::board_down(most_resident, Seconds::new(ONSET_S));
    [("nic-degrade", nic), ("board-down", down)]
        .into_iter()
        .map(|(name, plan)| {
            let state = plan.state_at(Seconds::new(2.0 * ONSET_S), n);
            let degraded = system.degrade(&state);
            Timeline {
                name,
                plan,
                state,
                degraded,
            }
        })
        .collect()
}

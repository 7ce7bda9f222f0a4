//! End-to-end and per-layer benchmark of the H2H mapper, tenant
//! admission, open-loop streaming serve and fault repair.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload map-large|map-small|serve-stream|serve-faults|all \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --calibrate
//! ```
//!
//! Every run reports every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`). BENCHMARK.json at the repository
//! root lists them with their units and bounds; NOTES.md beside this
//! crate defines them, says which workload each belongs to, and records
//! the serving contract. The last line of standard output is the JSON
//! result; the exit code is non-zero when any output check failed (after
//! everything is printed).

mod inputs;
mod map;
mod report;
mod serve;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use h2h_core::H2hConfig;

use inputs::{Population, Serving, RATES_HZ};
use report::{median, Report};
use trace::Tracer;

/// End-to-end metrics, in BENCHMARK.json order.
const END_TO_END: [&str; 16] = [
    "setup_s",
    "map_ms_p50",
    "map_ms_p90",
    "maps_per_s",
    "model_latency_ms_geomean",
    "model_energy_mj_geomean",
    "admit_ms_p50",
    "serve_host_us_per_req",
    "p99_over_slo.light",
    "p99_over_slo.mid",
    "p99_over_slo.heavy",
    "max_rate_at_slo_hz",
    "repair_ms_p50",
    "repair_recovery_pct",
    "degraded_slo_attainment_pct",
    "peak_rss_mib",
];

/// Per-layer metrics, in BENCHMARK.json order.
const PER_LAYER: [&str; 67] = [
    "schedule.evaluator_new_us",
    "schedule.evaluate_us",
    "schedule.evals",
    "compute_map.ms",
    "weight_locality.ms",
    "activation_fusion.ms",
    "remap.ms",
    "remap.propagations",
    "remap.mean_cone_layers",
    "remap.max_cone_layers",
    "remap.guards_total",
    "remap.guards_skipped",
    "remap.guard_prune_ratio",
    "remap.guard_reverts_fast",
    "remap.prefix_evals",
    "remap.delta_evals",
    "remap.full_evals",
    "remap.passes",
    "remap.scoring_s",
    "remap.propagate_s",
    "remap.guard_s",
    "remap.commit_s",
    "remap.attempted_moves",
    "remap.accepted_moves",
    "remap.accept_ratio",
    "pipeline.latency_reduction_pct",
    "pipeline.energy_reduction_pct",
    "pipeline.compute_ratio",
    "map.calls",
    "map.repeated_input_pct",
    "trace.map_overhead_ms",
    "admit.ms",
    "serve.drain_ms",
    "serve.stream_us_per_req",
    "serve.rounds",
    "serve.slice_evals",
    "serve.slice_cache_hit_ratio",
    "serve.mean_batch",
    "serve.weight_reloads",
    "serve.reload_time_s",
    "serve.trimmed_pins",
    "serve.requests_shed",
    "serve.bisect_serves",
    "serve.p99_over_slo.casia-surf.light",
    "serve.p99_over_slo.casia-surf.mid",
    "serve.p99_over_slo.casia-surf.heavy",
    "serve.p99_over_slo.facebag.light",
    "serve.p99_over_slo.facebag.mid",
    "serve.p99_over_slo.facebag.heavy",
    "serve.p99_over_slo.vfs.light",
    "serve.p99_over_slo.vfs.mid",
    "serve.p99_over_slo.vfs.heavy",
    "repair.ms",
    "repair.attempted_moves",
    "repair.propagations",
    "repair.evacuated_layers",
    "repair.accepted_moves",
    "repair.accept_ratio",
    "repair.move_ratio_vs_scratch",
    "serve.fault_drain_ms",
    "serve.fault_us_per_req",
    "serve.fault_transitions",
    "serve.repairs",
    "serve.staged_repairs",
    "serve.repair_evals",
    "serve.parks",
    "setup.admission_ms",
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    MapLarge,
    MapSmall,
    ServeStream,
    ServeFaults,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::MapLarge,
        Workload::MapSmall,
        Workload::ServeStream,
        Workload::ServeFaults,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::MapLarge => "map-large",
            Workload::MapSmall => "map-small",
            Workload::ServeStream => "serve-stream",
            Workload::ServeFaults => "serve-faults",
        }
    }

    /// Shares of the run's seconds for the map, admit, stream and fault
    /// phases. The workload's own phases get 55% (35% each on
    /// serve-stream); the others get 15% each, enough for every
    /// operation they time to repeat in every round, so that every run
    /// reports every end-to-end metric from a steady best-of.
    fn shares(self) -> [f64; 4] {
        match self {
            Workload::MapLarge | Workload::MapSmall => [0.55, 0.15, 0.15, 0.15],
            Workload::ServeStream => [0.15, 0.35, 0.35, 0.15],
            Workload::ServeFaults => [0.15, 0.15, 0.15, 0.55],
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                args.workloads = if w == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![*Workload::ALL
                        .iter()
                        .find(|x| x.name() == w)
                        .ok_or(format!("unknown workload `{w}`"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--calibrate" => args.calibrate = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() && !args.calibrate {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Set-up runs once before the first timed call and again between
/// rounds (discarding the copy), SETUP_REPS times in all; `setup_s` is
/// the median, so it samples the machine across the whole run.
const SETUP_REPS: usize = 9;
/// The timed phases run interleaved in this many rounds, so each phase's
/// samples span the whole run rather than one stretch of it: the
/// machine's speed drifts over seconds, and a best-of needs samples
/// from many moments to find its fast stretches.
const ROUNDS: usize = 40;

struct Setup {
    pop: Population,
    serving: Serving,
}

/// One set-up: the map population's zoo graphs and first-cycle
/// synthetic draws, the serving system and arrival gaps, an untimed admission of
/// the tenants with their fault plans, and a warm-up of the workload's
/// own operation.
fn set_up(w: Workload, seed: u64) -> Result<Setup, String> {
    let pop = match w {
        Workload::MapLarge => Population::large(seed),
        _ => Population::small(seed),
    };
    let serving = Serving::new(seed);

    let (mut reg, ids, _) = serve::admit_all(&serving, serving.config, &mut Tracer::new(false))?;
    let timelines = inputs::timelines(&reg, &ids);
    if matches!(w, Workload::MapLarge | Workload::MapSmall) {
        map::warm_up(&pop);
    } else {
        let mid = RATES_HZ[1].1;
        serve::set_rate(
            &mut reg,
            &ids,
            &serving,
            &inputs::SLO_MS,
            mid,
            inputs::TIMED_REQUESTS,
        )?;
        if w == Workload::ServeStream {
            reg.serve();
        } else {
            for tl in &timelines {
                reg.serve_with_faults(&tl.plan)
                    .map_err(|e| format!("{}: {e}", tl.name))?;
            }
        }
    }
    drop(reg);
    Ok(Setup { pop, serving })
}

fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let round = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
    let [map_s, admit_s, stream_s, fault_s] = w.shares().map(round);

    let start = Instant::now();
    let Setup { pop, serving } = set_up(w, seed)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];

    let mut tr = Tracer::new(traced);
    let (mut reg, ids, admit) =
        serve::admit_all(&serving, serving.config, &mut Tracer::new(false))?;
    report.set("setup.admission_ms", admit.iter().sum::<f64>() * 1e3, "ms");
    let timelines = inputs::timelines(&reg, &ids);
    let mut mapper = map::MapPhase::new(traced);
    let mut admit = serve::Admit::default();
    let mut stream = serve::Stream::default();
    let mut faults = serve::Faults::new(&serving, &timelines, &mut tr);
    for r in 0..ROUNDS {
        mapper.step(&pop, map_s, &mut tr, &mut report);
        admit.step(&serving, &reg, &ids, admit_s, &mut tr, &mut report)?;
        stream.step(&serving, &mut reg, &ids, stream_s, &mut tr, &mut report)?;
        faults.step(&serving, &mut reg, &ids, fault_s, &mut tr, &mut report)?;
        if r % (ROUNDS / (SETUP_REPS - 1)) == 1 && setup_s.len() < SETUP_REPS {
            let start = Instant::now();
            drop(set_up(w, seed)?);
            setup_s.push(start.elapsed().as_secs_f64());
        }
    }
    report.set("setup_s", median(&setup_s), "s");
    mapper.finish(&pop, &mut report);
    admit.finish(&mut report);
    stream.finish(&serving, &mut reg, &ids, &mut tr, &mut report)?;
    faults.finish(&serving, &mut reg, &ids, &mut tr, &mut report)?;

    let primary_us = if w == Workload::ServeFaults {
        "serve.fault_us_per_req"
    } else {
        "serve.stream_us_per_req"
    };
    let us = report.metrics[primary_us].0;
    report.set("serve_host_us_per_req", us, "us");
    report.set("peak_rss_mib", peak_rss_mib(), "MiB");
    if traced {
        layer_times(&tr, &mut report);
        print_self_times(&tr);
        let path = format!("perfbench/out/trace-{}-seed{seed}.json", w.name());
        match std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, tr.chrome_json()))
        {
            Ok(()) => println!("wrote {path} ({} spans)", tr.spans.len()),
            Err(e) => report.fail(format!("writing {path}: {e}")),
        }
    }
    Ok(report)
}

/// Per-layer times from the traced run's spans (medians per call).
fn layer_times(tr: &Tracer, report: &mut Report) {
    let med = |name: &str, scale: f64| median(&tr.durations(name)) * scale;
    report.set(
        "schedule.evaluator_new_us",
        med("H2hMapper::new", 1e6),
        "us",
    );
    report.set(
        "schedule.evaluate_us",
        med("Evaluator::evaluate", 1e6),
        "us",
    );
    report.set("compute_map.ms", med("computation_prioritized", 1e3), "ms");
    report.set("weight_locality.ms", med("weight_locality_opt", 1e3), "ms");
    report.set(
        "activation_fusion.ms",
        med("activation_fusion_opt", 1e3),
        "ms",
    );
    report.set("remap.ms", med("data_locality_remapping", 1e3), "ms");
    report.set("admit.ms", med("TenantRegistry::admit", 1e3), "ms");
    report.set("repair.ms", med("repair_mapping", 1e3), "ms");
}

fn print_self_times(tr: &Tracer) {
    let table = tr.self_times();
    let total: f64 = table.values().map(|v| v.2).sum();
    println!(
        "{:<36} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, (count, all, own)) in &table {
        println!(
            "{name:<36} {count:>8} {:>12.3} {:>12.3} {:>6.1}%",
            all * 1e3,
            own * 1e3,
            100.0 * own / total
        );
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

/// FNV-1a digest of the program's sources (`Cargo.toml` and
/// `crates/**`), which names the code measured when there is no `.git`.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                    files.push(p);
                }
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload map-large|map-small|serve-stream|serve-faults|all --seed N \
                 --seconds S --trace 0|1  |  --calibrate"
            );
            return ExitCode::from(2);
        }
    };
    if args.calibrate {
        let mut report = Report::default();
        let out = serve::calibrate(&Serving::new(inputs::CALIBRATION_SEED), &mut report);
        for f in &report.failures {
            println!("FAIL: {f}");
        }
        return match out {
            Ok(text) if report.failures.is_empty() => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let names: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    // With several workloads each prints its own result line and the
    // last line sums them, metric names prefixed by the workload.
    let (mut attempted, mut failed) = (0, 0);
    let mut combined = Vec::new();
    let mut last = String::new();
    for &w in &args.workloads {
        let mut report = match run(w, args.seed, args.seconds, args.trace) {
            Ok(r) => r,
            Err(e) => {
                let mut r = Report::default();
                r.issued(1);
                r.fail(format!("{}: run aborted: {e}", w.name()));
                r
            }
        };
        println!(
            "# workload={} seed={} seconds={} trace={} cores={} available_parallelism={parallelism} \
             effective_scoring_workers={} commit={} source_digest={}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            cores(),
            // The mapper's rule: scoring lanes = score_threads, capped at
            // the available parallelism.
            H2hConfig::default().score_threads.clamp(1, parallelism),
            commit(),
            source_digest()
        );
        let mut fields = Vec::new();
        for &name in &names {
            let (value, unit) = match report.metrics.get(name) {
                Some(&(v, u)) => (v, u),
                None => {
                    report.fail(format!("metric {name} was not measured"));
                    (f64::NAN, "")
                }
            };
            if !value.is_finite() {
                report.fail(format!("metric {name} is not finite"));
            }
            println!("{name:<40} {value:>18.6} {unit}");
            let field = format!("{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(value));
            combined.push(format!("\"{}.{name}\":{field}", w.name()));
            fields.push(format!("\"{name}\":{field}"));
        }
        for f in &report.failures {
            println!("FAIL: {f}");
        }
        attempted += report.attempted.max(1);
        failed += report.failures.len();
        last = result_line(report.attempted.max(1), report.failures.len(), &fields);
        if args.workloads.len() > 1 {
            println!("{last}");
        }
    }
    if args.workloads.len() > 1 {
        last = result_line(attempted, failed, &combined);
    }
    println!("{last}");
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn result_line(attempted: usize, failed: usize, fields: &[String]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        fields.join(",")
    )
}

//! # h2h-bench — experiment harness for the H2H reproduction
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `fig4` | Fig. 4 latency + energy per step × bandwidth |
//! | `table4` | Table 4 latency-reduction breakdown |
//! | `fig5a` | Fig. 5a communication/computation ratio |
//! | `fig5b` | Fig. 5b mapper search time |
//! | `headline` | §1/§5.2 headline claims check |
//! | `dynamic_modality` | §4.5 extension experiment |
//! | `ablation` | design-choice ablations (ours) |
//! | `batch_sweep` | batched-serving extension (ours) |
//! | `bench_search` | delta-vs-full search-core record → `BENCH_search.json` (ours) |
//! | `repro_all` | everything above + JSON dump |
//!
//! Criterion benches (`cargo bench -p h2h-bench`) measure mapper search
//! time (Fig. 5b's wall-clock complement), scheduler evaluation
//! throughput, incremental-vs-full candidate scoring, knapsack solvers
//! and the event-driven simulator.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod cli;
pub mod experiments;
pub mod tables;

pub use experiments::{run_model, run_sweep, ModelRun};

//! Metric collection, failure accounting and summary statistics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
pub struct Report {
    /// name → (value, unit), for end-to-end and per-layer metrics alike.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Operations issued: timed calls, untimed quality calls and checks.
    pub attempted: usize,
    /// One line per failed check, naming the input and the check.
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Counts one checked operation; records `what()` if `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts operations whose outputs are checked elsewhere.
    pub fn issued(&mut self, n: usize) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// Nearest-rank quantile of `xs` (`q` in `[0, 1]`); NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Keeps the fastest sample per key: the benchmark's host times are
/// best-of-repeats, which the machine's speed drifts move far less than
/// medians over calls.
pub fn keep_min<K: Ord>(best: &mut BTreeMap<K, f64>, key: K, value: f64) {
    let e = best.entry(key).or_insert(value);
    if value < *e {
        *e = value;
    }
}

pub fn values<K>(best: &BTreeMap<K, f64>) -> Vec<f64> {
    best.values().copied().collect()
}

pub fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A phase's share of the run. Each round grants the phase its share;
/// the phase then runs whole operations while it has time left, so a
/// phase whose operations outlast one round's share still ends the run
/// close to its total share.
#[derive(Debug, Default)]
pub struct Allowance {
    granted: Duration,
    spent: Duration,
}

impl Allowance {
    pub fn grant(&mut self, share: Duration) {
        self.granted += share;
    }

    pub fn left(&self) -> bool {
        self.spent < self.granted
    }

    /// Charges one operation that started at `start`.
    pub fn charge(&mut self, start: Instant) {
        self.spent += start.elapsed();
    }
}

//! Arbitrary-input property tests for the text parsers: the `.h2h`
//! model format, topology specs, fault plans, arrival processes and
//! arrival-trace files. Each parser must return `Ok` or a typed error
//! on any input and never panic.
//!
//! Inputs are token strings: grammar words, the separators the
//! grammars use, indices, and awkward numbers (`inf`, `NaN`,
//! negatives, overflowing integers), joined into specs or lines.

use std::panic::{catch_unwind, UnwindSafe};

use proptest::prelude::*;

use h2h::core::ArrivalProcess;
use h2h::model::parse::parse_model;
use h2h::system::fault::FaultPlan;
use h2h::system::topology::Topology;
use h2h::system::trace::ArrivalTrace;
use h2h::system::BandwidthClass;

const WORDS: &[&str] = &[
    "model", "input", "img", "vec", "seq", "conv", "conv1d", "fc", "lstm", "last", "maxpool",
    "avgpool", "gap", "add", "concat", "toseq", "a", "b", "c", "uniform", "skewed", "switched",
    "star", "host", "links", "peers", "board", "link", "slow", "down", "fixed", "poisson",
];
const NUMBERS: &[&str] = &[
    "0", "1", "2", "3", "7", "64", "-1", "-0", "0.5", "1e300", "4294967295",
    "18446744073709551616", "inf", "-inf", "NaN",
];
const PUNCT: &[&str] = &["@", "@rgb", "@-down", ":", ";", "/", "-", ",", "=", "#", " "];

fn pick(pool: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..pool.len()).prop_map(move |i| pool[i])
}

fn token() -> impl Strategy<Value = &'static str> {
    prop_oneof![pick(WORDS), pick(NUMBERS), pick(PUNCT), Just("")]
}

/// A one-line spec: tokens concatenated (`star:host=1;links=2,3`).
fn spec() -> impl Strategy<Value = String> {
    proptest::collection::vec(token(), 0..12).prop_map(|t| t.concat())
}

/// A multi-line text: space-joined token lines.
fn text() -> impl Strategy<Value = String> {
    let line = proptest::collection::vec(token(), 0..6).prop_map(|t| t.join(" "));
    proptest::collection::vec(line, 0..10).prop_map(|l| l.join("\n"))
}

fn assert_no_panic<T>(what: &str, input: &str, parse: impl FnOnce() -> T + UnwindSafe) {
    assert!(catch_unwind(parse).is_ok(), "{what} panicked on {input:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn parse_model_never_panics(text in text()) {
        assert_no_panic("parse_model", &text, || parse_model(&text));
    }

    #[test]
    fn topology_parse_never_panics(spec in spec(), n_accs in 0usize..6) {
        let base = BandwidthClass::LowMinus.bandwidth();
        assert_no_panic("Topology::parse", &spec, || Topology::parse(&spec, base, n_accs));
    }

    #[test]
    fn fault_plan_parse_never_panics(spec in spec(), n_accs in 0usize..6) {
        assert_no_panic("FaultPlan::parse", &spec, || FaultPlan::parse(&spec, n_accs));
    }

    #[test]
    fn arrival_parsers_never_panic(spec in spec(), text in text()) {
        assert_no_panic("ArrivalProcess::parse", &spec, || ArrivalProcess::parse(&spec));
        assert_no_panic("ArrivalTrace::parse", &text, || ArrivalTrace::parse(&text));
    }
}

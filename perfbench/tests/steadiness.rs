//! Steadiness self-tests of the benchmark: metric identity, simulated
//! determinism across runs, worker counts and tracing, the open-loop
//! backlog rule, and completeness of both result sets.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::metrics::{self, Clock, Metric, Values, END_TO_END, PER_LAYER};
use perfbench::{run, serving, Opts, WORKLOADS};

/// Short inputs: enough to exercise every path in seconds.
fn short(workload: &str) -> u64 {
    match workload {
        "campaign" => 20,
        "kv-d-flash" => 160,
        _ => 400,
    }
}

fn opts(workload: &str, trace: bool) -> Opts {
    Opts { seed: 5, seconds: 0.0, trace, ops: Some(short(workload)) }
}

fn sim(values: &Values) -> Vec<(&'static str, u64)> {
    values
        .iter()
        .filter(|(k, _)| metrics::find(k).is_some_and(|m| m.clock == Clock::Sim))
        .map(|(k, v)| (*k, v.to_bits()))
        .collect()
}

/// The `(name, unit, better)` triples of one list in `BENCHMARK.json`.
fn listed(doc: &str, key: &str) -> Vec<(String, String, String)> {
    let start = doc.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("list is closed")];
    let field = |entry: &str, f: &str| -> String {
        let at = entry.find(&format!("\"{f}\"")).unwrap_or_else(|| panic!("entry lacks {f}: {entry}"));
        let rest = &entry[at + f.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("closed string")].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"), field(e, "better"))).collect()
}

fn triples(ms: &[Metric]) -> Vec<(String, String, String)> {
    ms.iter().map(|m| (m.name.to_string(), m.unit.to_string(), m.better.label().to_string())).collect()
}

#[test]
fn metric_names_units_and_directions_are_well_formed_and_match_benchmark_json() {
    let mut seen = std::collections::BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(metrics::valid_name(m.name), "bad metric name {}", m.name);
        assert!(seen.insert(m.name), "metric {} is listed twice", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?} of {}",
            m.unit,
            m.name
        );
    }
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    assert_eq!(listed(&doc, "end_to_end"), triples(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), triples(&PER_LAYER));
    let workloads: Vec<String> = listed_names(&doc, "workloads");
    assert_eq!(workloads, WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>());
}

fn listed_names(doc: &str, key: &str) -> Vec<String> {
    let start = doc.find(&format!("\"{key}\"")).expect("key present");
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("list is closed")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').expect("closed")].to_string()).collect()
}

#[test]
fn sim_metrics_are_bit_identical_across_runs_workers_and_tracing() {
    for w in WORKLOADS {
        let a = run(w, &opts(w, false)).expect("known workload");
        let b = run(w, &opts(w, false)).expect("known workload");
        let t = run(w, &opts(w, true)).expect("known workload");
        for out in [&a, &b, &t] {
            // Every timed repetition ran at 2 workers and was checked
            // against the 1-worker reference: digest, outcome counts,
            // latency histogram and ledger.
            assert!(out.correct(), "{w}: {:?}", out.notes);
            assert_eq!(out.failed, 0, "{w}");
        }
        assert!(!sim(&a.values).is_empty());
        assert_eq!(sim(&a.values), sim(&b.values), "{w}: simulated metrics differ between runs");
        let e2e: Vec<_> = sim(&a.values).into_iter().filter(|(k, _)| k.starts_with("sim_")).collect();
        let traced: Vec<_> = sim(&t.values).into_iter().filter(|(k, _)| k.starts_with("sim_")).collect();
        assert_eq!(e2e, traced, "{w}: simulated metrics differ between traced and untraced runs");
    }
}

#[test]
fn every_result_set_is_complete() {
    for w in WORKLOADS {
        let plain = run(w, &opts(w, false)).expect("known workload");
        let line =
            metrics::result_line(plain.correct(), plain.attempted, plain.failed, &END_TO_END, &plain.values)
                .expect("every end-to-end metric measured");
        assert!(line.starts_with("{\"correct\": true"), "{w}: {line}");
        for m in END_TO_END {
            assert!(plain.values[m.name] > 0.0, "{w}: end-to-end metric {} is 0", m.name);
        }
        let traced = run(w, &opts(w, true)).expect("known workload");
        metrics::result_line(traced.correct(), traced.attempted, traced.failed, &PER_LAYER, &traced.values)
            .unwrap_or_else(|e| panic!("{w}: {e}"));
        let spans = traced.spans.expect("the traced run keeps its spans");
        assert!(spans.contains("\"parent\"") && spans.contains("\"self_us\""));
    }
}

#[test]
fn open_loop_backlog_does_not_grow_with_run_length() {
    // At the benchmark's offered rates, p99 at half length and at full
    // length agree within the metric's bound: the virtual backlog does
    // not grow with the run, so p99 measures the service.
    for w in ["kv-a-static", "web-batched", "kv-d-flash"] {
        let spec = serving::spec(w).expect("serving workload");
        let full = serving::simulate(&spec, spec.requests, 1).expect("reference builds");
        let half = serving::simulate(&spec, spec.requests / 2, 1).expect("reference builds");
        let (f, h) = (full["sim_p99_us"], half["sim_p99_us"]);
        assert!((f - h).abs() <= 0.25 * f, "{w}: p99 {h:.2} us at half length vs {f:.2} us at full length");
        assert!(full["sim.beyond_p99"] >= 10.0, "{w}: fewer than 10 samples beyond p99");
    }
}

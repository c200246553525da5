//! Tiny-size runs of every workload: each emits every metric that
//! `BENCHMARK.json` names, with a unit, and fails nothing; the simulator's
//! exact counts repeat for a repeated seed.

use perfbench::{run, Outcome, RunConfig, Scale, Workload};
use std::sync::Mutex;

/// Runs share process-wide state — the counting allocator, per-thread
/// CPU accounting, and the processors whose idleness the sleep metrics
/// observe — so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// `(end_to_end names, per_layer names)` from the repository's
/// `BENCHMARK.json`, whose `end_to_end` list precedes its `per_layer` list.
fn declared() -> (Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        section
            .split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    };
    let e2e = text.find("\"end_to_end\"").expect("end_to_end list");
    let layer = text.find("\"per_layer\"").expect("per_layer list");
    assert!(e2e < layer);
    (names(&text[e2e..layer]), names(&text[layer..]))
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
    })
}

fn assert_emits(out: &Outcome, names: &[String]) {
    assert!(out.correct(), "{}", out.report());
    assert_eq!(out.failed, 0, "{}", out.report());
    assert_eq!(out.error_rate(), 0.0);
    assert!(out.attempted > 0);
    let emitted: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut expected: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut got = emitted.clone();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(
        got, expected,
        "{} emits exactly the declared metrics",
        out.workload
    );
    for m in &out.metrics {
        assert!(!m.unit.is_empty(), "{} has a unit", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let json = out.json();
    for name in names {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {json}"
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let (e2e, _) = declared();
    for w in Workload::ALL {
        let out = tiny(w, 7, false);
        assert_emits(&out, &e2e);
        for m in &out.metrics {
            assert!(
                m.value > 0.0,
                "{} on {} is {}",
                m.name,
                out.workload,
                m.value
            );
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_traced() {
    let (_, layers) = declared();
    for w in Workload::ALL {
        assert_emits(&tiny(w, 7, true), &layers);
    }
}

#[test]
fn simulator_counts_repeat_for_a_seed() {
    let exact =
        |o: &Outcome| ["sim_rounds", "sim_bound_ratio_max"].map(|n| o.metric(n).expect(n).value);
    let a = tiny(Workload::MultiprogSim, 11, false);
    let b = tiny(Workload::MultiprogSim, 11, false);
    assert!(a.correct() && b.correct());
    assert_eq!(exact(&a), exact(&b));
}

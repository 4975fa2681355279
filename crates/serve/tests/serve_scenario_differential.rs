//! Differential determinism tests for the scenario library and the
//! predictive scaling policy:
//!
//! * every [`ScenarioPreset`] × {reactive, predictive} run is
//!   *bit-identical* across host worker counts — outcome counts, the
//!   KV digest, the cycle ledger, the scaling event log and the
//!   canonical trace bytes — because scenarios compile to pure
//!   virtual-time streams and the Holt forecast reads only the stream;
//! * predictive scaling actually helps where it should: on the
//!   flash-crowd preset it pre-boots through the onset ramp and beats
//!   reactive's p99 (shedding off, so the tail measures pure queueing);
//! * at constant load the forecast sits exactly on the smoothed level,
//!   neither predictive trigger can fire, and the two policies produce
//!   the same decisions — same scaling event log, same report;
//! * the per-epoch `Forecast` trace series is a function of the stream
//!   alone: identical across worker counts *and* batch policies even
//!   when the resulting scaling schedules differ;
//! * an all-shed tail still produces a total, conserved report
//!   (`served + rejected + shed == requests`, ledger verified on merge).

use elzar::{Artifact, Mode};
use elzar_apps::Scale;
use elzar_serve::gen::{Phase, PhaseLoad, Scenario, ScenarioPreset};
use elzar_serve::{serve_scenario, EventKind, ScalingPolicy, ServeConfig, ServeReport, Service};

const REQUESTS: u64 = 320;
// One Tiny KvA shard sustains roughly one request per ~5k cycles
// (execution + K=16 snapshot amortization, plus 50k-cycle restart
// detours on crash-class faults), so a 12_000-cycle calm gap runs one
// shard at comfortable utilization, a crowd at gap/6 (2_000) needs the
// whole 4-shard fleet, and a 3x-gap night leaves most of it idle —
// real scaling dynamics, not a monotone queue explosion.
const BASE_GAP: u64 = 12_000;
const BASE_PPM: u32 = 50_000; // ~5% ambient SEU rate

fn scenario_cfg(policy: ScalingPolicy) -> ServeConfig {
    ServeConfig {
        shards: 1,
        workers: 4,
        batch_size: 4,
        snapshot_interval: 16,
        seed: 0x5CE2_A210,
        queue_capacity: 1 << 20, // reject nothing: totals stay comparable
        adaptive_shards: true,
        shards_max: 4,
        control_interval: 16,
        scale_up_backlog: 6,
        scale_down_backlog: 1,
        scaling_policy: policy,
        trace_events: 64,
        ..Default::default()
    }
}

fn run(preset: ScenarioPreset, policy: ScalingPolicy, workers: u32) -> ServeReport {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let scenario = preset.scenario(REQUESTS, BASE_GAP, BASE_PPM);
    let cfg = ServeConfig { workers, ..scenario_cfg(policy) };
    serve_scenario(service, artifact.program(), &app, &scenario, &cfg)
}

fn bit_identical(tag: &str, a: &ServeReport, b: &ServeReport) {
    assert_eq!(a.served, b.served, "{tag}: served");
    assert_eq!(a.rejected, b.rejected, "{tag}: rejected");
    assert_eq!(a.shed, b.shed, "{tag}: shed");
    assert_eq!(a.injected, b.injected, "{tag}: injected");
    assert_eq!(a.outcomes, b.outcomes, "{tag}: outcomes");
    assert_eq!(a.restarts, b.restarts, "{tag}: restarts");
    assert_eq!(a.makespan_cycles, b.makespan_cycles, "{tag}: makespan");
    assert_eq!(a.hist, b.hist, "{tag}: latency histogram");
    assert_eq!(a.table_digest, b.table_digest, "{tag}: table digest");
    assert_eq!(a.events, b.events, "{tag}: scaling event log");
    assert_eq!(a.ledger, b.ledger, "{tag}: cycle ledger");
    assert_eq!(a.peak_shards, b.peak_shards, "{tag}: peak shards");
    assert_eq!(a.final_shards, b.final_shards, "{tag}: final shards");
    assert_eq!(a.trace.canonical_bytes(), b.trace.canonical_bytes(), "{tag}: canonical trace bytes");
}

/// The tentpole invariance: every preset × policy run is bit-identical
/// across worker counts, canonical trace bytes included.
#[test]
fn every_preset_and_policy_is_worker_invariant() {
    for preset in ScenarioPreset::all() {
        for policy in [ScalingPolicy::Reactive, ScalingPolicy::Predictive] {
            let tag = format!("{}/{policy:?}", preset.label());
            let w1 = run(preset, policy, 1);
            let w4 = run(preset, policy, 4);
            assert_eq!(
                w1.served + w1.rejected + w1.shed,
                REQUESTS,
                "{tag}: report must account for every request"
            );
            bit_identical(&tag, &w1, &w4);
            // The 4-worker side must really fan out wherever the
            // schedule ran more than one shard (skew-shift, fault-storm
            // and reactive diurnal never scale up at this load, so
            // their single shard has nothing to split); the flash crowd
            // needs the whole fleet, one thread per shard.
            assert_eq!(w1.host_workers, 1, "{tag}");
            if w4.peak_shards > 1 {
                assert!(w4.host_workers > 1, "{tag}: the 4-worker run never fanned out");
            }
            if preset == ScenarioPreset::FlashCrowd {
                assert_eq!(w4.host_workers, 4, "{tag}: the flash crowd must drain on all four workers");
            }
            // Scenarios with fault phases must actually inject (the
            // preset rates are 5%+ over 320 requests).
            assert!(w1.injected > 0, "{tag}: no injections");
        }
    }
}

/// Predictive pre-boots through the flash-crowd onset ramp and beats
/// reactive's p99 (shedding off: the tail is pure queueing delay).
#[test]
fn predictive_beats_reactive_p99_on_flash_crowd() {
    let reactive = run(ScenarioPreset::FlashCrowd, ScalingPolicy::Reactive, 4);
    let predictive = run(ScenarioPreset::FlashCrowd, ScalingPolicy::Predictive, 4);
    // Same committed work either way — policy changes timing only.
    assert_eq!(reactive.table_digest, predictive.table_digest);
    assert_eq!(reactive.outcomes, predictive.outcomes);
    assert_eq!(reactive.served, predictive.served);
    // Predictive must have fired at least one pre-boot the reactive
    // schedule didn't have yet (earlier or extra scale-ups).
    assert!(predictive.events != reactive.events, "predictive schedule should differ on a flash crowd");
    let (rp99, pp99) = (reactive.quantile_cycles(0.99), predictive.quantile_cycles(0.99));
    assert!(pp99 < rp99, "predictive p99 {pp99} must beat reactive p99 {rp99} on the flash crowd");
}

/// At constant load the forecast equals the smoothed level exactly
/// (integer Holt has the constant as a fixed point), so predictive is
/// reactive, decision for decision: same event log, same everything
/// except the extra `Forecast` trace instants.
#[test]
fn constant_load_predictive_matches_reactive_decision_for_decision() {
    let steady = Scenario {
        name: "steady",
        phases: vec![Phase {
            name: "steady",
            requests: REQUESTS,
            load: PhaseLoad::Steady { mean_gap: BASE_GAP },
            fault_ppm: BASE_PPM,
            key_rotate_pct: 0,
        }],
    };
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let reactive =
        serve_scenario(service, artifact.program(), &app, &steady, &scenario_cfg(ScalingPolicy::Reactive));
    let predictive =
        serve_scenario(service, artifact.program(), &app, &steady, &scenario_cfg(ScalingPolicy::Predictive));
    assert_eq!(reactive.events, predictive.events, "decisions must match at constant load");
    assert_eq!(reactive.served, predictive.served);
    assert_eq!(reactive.outcomes, predictive.outcomes);
    assert_eq!(reactive.table_digest, predictive.table_digest);
    assert_eq!(reactive.makespan_cycles, predictive.makespan_cycles);
    assert_eq!(reactive.hist, predictive.hist);
    assert_eq!(reactive.ledger, predictive.ledger);
    // The only trace difference is the predictive driver's Forecast
    // instants; with those filtered the event payloads are identical
    // (sequence numbers on the driver track shift past each Forecast
    // record, so compare payloads, not canonical bytes).
    let strip = |r: &ServeReport| -> Vec<(u64, u32, EventKind, u64, u64)> {
        r.trace
            .events
            .iter()
            .filter(|e| e.kind != EventKind::Forecast)
            .map(|e| (e.cycle, e.track, e.kind, e.a, e.b))
            .collect()
    };
    assert_eq!(strip(&reactive), strip(&predictive), "non-forecast trace must match");
    let forecasts = predictive.trace.events.iter().filter(|e| e.kind == EventKind::Forecast).count();
    assert!(forecasts > 0, "predictive runs must record forecasts");
    assert!(
        !reactive.trace.events.iter().any(|e| e.kind == EventKind::Forecast),
        "reactive runs must not record forecasts"
    );
}

/// The Forecast series is a pure function of the stream: identical
/// across worker counts and batch policies, even though the *scaling
/// schedules* may legitimately differ across batch policies (backlogs
/// differ; the forecast input does not).
#[test]
fn forecast_series_is_stream_only() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let scenario = ScenarioPreset::Diurnal.scenario(REQUESTS, BASE_GAP, 0);
    let series = |cfg: &ServeConfig| -> Vec<(u64, u64, u64)> {
        let r = serve_scenario(service, artifact.program(), &app, &scenario, cfg);
        r.trace.events.iter().filter(|e| e.kind == EventKind::Forecast).map(|e| (e.cycle, e.a, e.b)).collect()
    };
    let base = scenario_cfg(ScalingPolicy::Predictive);
    let a = series(&base);
    assert!(!a.is_empty(), "no forecasts recorded");
    let b = series(&ServeConfig { workers: 1, ..base.clone() });
    let c = series(&ServeConfig { batch_adaptive: true, batch_max: 32, ..base.clone() });
    let d = series(&ServeConfig { batch_size: 1, workers: 2, ..base });
    assert_eq!(a, b, "forecasts diverged across worker counts");
    assert_eq!(a, c, "forecasts diverged across batch policies");
    assert_eq!(a, d, "forecasts diverged across batch size and workers");
}

/// An all-shed tail: the final phase arrives so fast under so tight an
/// SLO that deadline-aware admission sheds it wholesale — and the
/// report stays total (every request accounted) and conserved (ledger
/// verified on merge), across both policies and worker counts.
#[test]
fn all_shed_final_epoch_is_total_and_conserved() {
    let scenario = Scenario {
        name: "cliff",
        phases: vec![
            Phase {
                name: "calm",
                requests: 96,
                load: PhaseLoad::Steady { mean_gap: BASE_GAP },
                fault_ppm: 0,
                key_rotate_pct: 0,
            },
            Phase {
                name: "wall",
                requests: 96,
                load: PhaseLoad::Steady { mean_gap: 1 },
                fault_ppm: 0,
                key_rotate_pct: 0,
            },
        ],
    };
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    for policy in [ScalingPolicy::Reactive, ScalingPolicy::Predictive] {
        let cfg = ServeConfig {
            slo_cycles: 60_000,
            shed_slo: true,
            // Cheap snapshot clones: the admission predictor charges a
            // worst-case clone per crossed boundary, and at the default
            // 64 B/cycle that one charge (~41k cycles for the Tiny KV
            // table) would eat most of the SLO budget on its own.
            snapshot_bytes_per_cycle: 1024,
            // One shard, no headroom: the wall must overrun the fleet,
            // not get absorbed by scale-ups, for the tail to all-shed.
            shards_max: 1,
            ..scenario_cfg(policy)
        };
        let w1 = serve_scenario(
            service,
            artifact.program(),
            &app,
            &scenario,
            &ServeConfig { workers: 1, ..cfg.clone() },
        );
        let w4 = serve_scenario(service, artifact.program(), &app, &scenario, &cfg);
        assert_eq!(w1.served + w1.rejected + w1.shed, 192, "{policy:?}: every request must be accounted for");
        assert!(w1.shed > 30, "{policy:?}: the wall must shed heavily (shed {})", w1.shed);
        assert!(w1.served >= 80, "{policy:?}: the calm phase must mostly serve ({})", w1.served);
        bit_identical(&format!("all-shed/{policy:?}"), &w1, &w4);
    }
}

//! Engine differential suite: every execution engine must be an exact
//! drop-in for the reference interpreter.
//!
//! The trace engine replays the reference retire sequence with
//! pre-resolved costs, fused check idioms and whole-register kernels, so
//! *everything* observable — outcomes, output bytes, cycle counts, perf
//! counters, eligible-instruction totals, heartbeat timestamps,
//! fault-campaign classifications, serving-pipeline digests — must be
//! bit-identical. These tests pin that equivalence over the full
//! benchmark matrix, with `Reference` as the oracle. CI also runs the
//! suite under `ELZAR_ENGINE=reference` and `ELZAR_ENGINE=trace`, which
//! pins both sides to one engine and checks the override path itself.

use elzar_suite::elzar::{Artifact, Mode};
use elzar_suite::elzar_apps::{App, AppParams, YcsbWorkload};
use elzar_suite::elzar_fault::CampaignConfig;
use elzar_suite::elzar_serve::{ServeConfig, Service};
use elzar_suite::elzar_vm::{EngineKind, MachineConfig, RunResult};
use elzar_suite::elzar_workloads::{all_workloads, by_name, Scale};

/// Engines measured against the `Reference` baseline.
const ENGINES: [EngineKind; 1] = [EngineKind::Trace];

fn cfg(engine: EngineKind) -> MachineConfig {
    MachineConfig { step_limit: 5_000_000_000, threads: 2, engine, ..MachineConfig::default() }
}

/// Every observable of a run, compared field by field so a divergence
/// names what broke (timing vs architectural state vs events).
fn assert_identical(what: &str, engine: EngineKind, r: &RunResult, base: &RunResult) {
    assert_eq!(r.outcome, base.outcome, "{what}/{engine:?}: outcome");
    assert_eq!(r.output, base.output, "{what}/{engine:?}: output bytes");
    assert_eq!(r.cycles, base.cycles, "{what}/{engine:?}: wall-clock cycles");
    assert_eq!(r.steps, base.steps, "{what}/{engine:?}: retired instructions");
    assert_eq!(r.eligible, base.eligible, "{what}/{engine:?}: eligible count");
    assert_eq!(r.counters, base.counters, "{what}/{engine:?}: perf counters");
    assert_eq!(r.thread_cycles, base.thread_cycles, "{what}/{engine:?}: per-thread clocks");
    assert_eq!(r.heartbeats, base.heartbeats, "{what}/{engine:?}: heartbeat count");
    assert_eq!(r.heartbeat_cycles, base.heartbeat_cycles, "{what}/{engine:?}: heartbeat cycles");
}

/// All 14 benchmarks, native and hardened, under every engine.
#[test]
fn workloads_bit_identical_across_engines() {
    for w in all_workloads() {
        let built = w.build(Scale::Tiny);
        for mode in [Mode::NativeNoSimd, Mode::elzar_default()] {
            let artifact = Artifact::build(&built.module, &mode);
            let base = artifact.run(&built.input, cfg(EngineKind::Reference));
            for engine in ENGINES {
                let r = artifact.run(&built.input, cfg(engine));
                assert_identical(w.name(), engine, &r, &base);
            }
        }
    }
}

/// The three case-study apps (KV store, web server, SQLite-like DB).
#[test]
fn apps_bit_identical_across_engines() {
    let p = AppParams::new(Scale::Tiny, YcsbWorkload::A);
    for app in App::all() {
        let built = app.build(&p);
        for mode in [Mode::NativeNoSimd, Mode::elzar_default()] {
            let artifact = Artifact::build(&built.module, &mode);
            let base = artifact.run(&built.input, cfg(EngineKind::Reference));
            for engine in ENGINES {
                let r = artifact.run(&built.input, cfg(engine));
                assert_identical(app.name(), engine, &r, &base);
            }
        }
    }
}

/// A seeded fault-injection campaign classifies every run identically
/// regardless of engine: the injection points are sampled from the
/// golden run's eligible count (engine-invariant) and each faulty run's
/// outcome must match the reference executor's bit for bit.
#[test]
fn fault_campaign_is_engine_invariant() {
    let built = by_name("linear_regression").unwrap().build(Scale::Tiny);
    let artifact = Artifact::build(&built.module, &Mode::elzar_default());
    let campaign = |engine: EngineKind| {
        artifact.campaign(
            &built.input,
            &CampaignConfig { runs: 40, seed: 11, machine: cfg(engine), ..Default::default() },
        )
    };
    let base = campaign(EngineKind::Reference);
    assert_eq!(base.counts.iter().sum::<u64>(), 40);
    for engine in ENGINES {
        let r = campaign(engine);
        assert_eq!(r.counts, base.counts, "{engine:?}: Table-I outcome counts");
    }
}

/// A crash-storm serving run (aggressive online fault rate, restarts,
/// snapshot recovery) is engine-invariant down to the final KV table
/// digest and the latency distribution.
#[test]
fn serve_crash_storm_is_engine_invariant() {
    let app = Service::KvA.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let serve = |engine: EngineKind| {
        let cfg = ServeConfig {
            shards: 2,
            requests: 80,
            mean_gap_cycles: 500,
            fault_rate_ppm: 200_000,
            machine: MachineConfig { engine, ..ServeConfig::default().machine },
            ..Default::default()
        };
        artifact.serve(Service::KvA, &app, &cfg)
    };
    let base = serve(EngineKind::Reference);
    assert!(base.injected > 0, "the storm must actually inject faults");
    for engine in ENGINES {
        let r = serve(engine);
        assert_eq!(r.served, base.served, "{engine:?}: served");
        assert_eq!(r.rejected, base.rejected, "{engine:?}: rejected");
        assert_eq!(r.injected, base.injected, "{engine:?}: injected");
        assert_eq!(r.outcomes, base.outcomes, "{engine:?}: Table-I outcomes");
        assert_eq!(r.restarts, base.restarts, "{engine:?}: restarts");
        assert_eq!(r.table_digest, base.table_digest, "{engine:?}: KV table digest");
        for q in [0.5, 0.99] {
            assert_eq!(
                r.quantile_cycles(q),
                base.quantile_cycles(q),
                "{engine:?}: p{} latency",
                (q * 100.0) as u32
            );
        }
    }
}

//! Execution-engine differential for the discrete-event serving core
//! (`elzar_sim`):
//!
//! * shard VMs run on the per-instruction reference interpreter
//!   (`EngineKind::Reference`) and on the superblock trace engine
//!   (`EngineKind::Trace`) produce *bit-identical* reports — outcome
//!   counts, the KV digest, p50/p99/p999 latency quantiles, the cycle
//!   ledger and the canonical trace bytes — for every scenario preset ×
//!   scaling policy, and for the static path across shard counts;
//! * the engine axis composes with the worker axis: the single-worker
//!   reference run is the oracle for the trace engine at 1 *and* 4
//!   workers, so an engine difference that only shows once the drain
//!   fans out across threads is caught too;
//! * per-shard cycle ledgers conserve against shard lifetimes on every
//!   run.

use elzar::{Artifact, Mode};
use elzar_apps::Scale;
use elzar_serve::gen::ScenarioPreset;
use elzar_serve::{serve_program, serve_scenario, ScalingPolicy, ServeConfig, ServeReport, Service};
use elzar_vm::{EngineKind, MachineConfig};

const REQUESTS: u64 = 320;
const BASE_GAP: u64 = 12_000;
const BASE_PPM: u32 = 50_000;

/// `cfg` with its shard machines pinned to `engine`.
fn on_engine(cfg: &ServeConfig, engine: EngineKind, workers: u32) -> ServeConfig {
    ServeConfig { workers, machine: MachineConfig { engine, ..cfg.machine }, ..cfg.clone() }
}

/// Full-report equality, quantile grid included. `tag` names the run
/// so a divergence points at the exact preset/policy/worker cell.
fn bit_identical(tag: &str, reference: &ServeReport, trace: &ServeReport) {
    assert_eq!(reference.served, trace.served, "{tag}: served");
    assert_eq!(reference.rejected, trace.rejected, "{tag}: rejected");
    assert_eq!(reference.shed, trace.shed, "{tag}: shed");
    assert_eq!(reference.injected, trace.injected, "{tag}: injected");
    assert_eq!(reference.outcomes, trace.outcomes, "{tag}: outcome counts");
    assert_eq!(reference.restarts, trace.restarts, "{tag}: restarts");
    assert_eq!(reference.makespan_cycles, trace.makespan_cycles, "{tag}: makespan");
    for q in [0.5, 0.99, 0.999] {
        assert_eq!(reference.quantile_cycles(q), trace.quantile_cycles(q), "{tag}: p{} quantile", q * 1000.0);
    }
    assert_eq!(reference.hist, trace.hist, "{tag}: latency histogram");
    assert_eq!(reference.table_digest, trace.table_digest, "{tag}: KV table digest");
    assert_eq!(reference.events, trace.events, "{tag}: scaling event log");
    assert_eq!(reference.ledger, trace.ledger, "{tag}: cycle ledger");
    assert_eq!(reference.peak_shards, trace.peak_shards, "{tag}: peak shards");
    assert_eq!(reference.final_shards, trace.final_shards, "{tag}: final shards");
    assert_eq!(
        reference.trace.canonical_bytes(),
        trace.trace.canonical_bytes(),
        "{tag}: canonical trace bytes"
    );
    for (report, engine) in [(reference, "reference"), (trace, "trace")] {
        for s in &report.shards {
            s.ledger
                .verify(s.lifetime_cycles)
                .unwrap_or_else(|e| panic!("{tag}/{engine}: shard {} leaks cycles: {e}", s.shard));
        }
    }
}

/// The static serving path: same program, same stream, both engines —
/// across shard and worker counts, with tracing on so the canonical
/// byte streams are compared too.
#[test]
fn static_path_engines_are_bit_identical() {
    for service in [Service::KvA, Service::Web] {
        let app = service.app(Scale::Tiny);
        let artifact = Artifact::build(&app.module, &Mode::elzar_default());
        for shards in [1, 4] {
            let cfg = ServeConfig {
                shards,
                requests: 220,
                seed: 0xD5EE_D001,
                fault_rate_ppm: 120_000,
                queue_capacity: 1 << 20,
                mean_gap_cycles: 1_500,
                trace_events: 64,
                ..Default::default()
            };
            let reference =
                serve_program(service, artifact.program(), &app, &on_engine(&cfg, EngineKind::Reference, 1));
            assert_eq!(
                reference.served + reference.rejected + reference.shed,
                220,
                "{}/{shards}s: report must account for every request",
                service.label()
            );
            assert!(
                !reference.trace.is_empty(),
                "{}/{shards}s: tracing on must record events",
                service.label()
            );
            for workers in [1, 4] {
                let tag = format!("{}/{shards}s/{workers}w", service.label());
                let trace = serve_program(
                    service,
                    artifact.program(),
                    &app,
                    &on_engine(&cfg, EngineKind::Trace, workers),
                );
                assert_eq!(trace.host_workers, shards.min(workers), "{tag}: drain fan-out");
                bit_identical(&tag, &reference, &trace);
            }
        }
    }
}

/// The adaptive path: every scenario preset × scaling policy runs
/// bit-identical between the reference interpreter and the trace
/// engine, with the trace side at 1 and 4 workers.
#[test]
fn every_preset_and_policy_is_engine_invariant() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    for preset in ScenarioPreset::all() {
        let scenario = preset.scenario(REQUESTS, BASE_GAP, BASE_PPM);
        for policy in [ScalingPolicy::Reactive, ScalingPolicy::Predictive] {
            let cfg = ServeConfig {
                shards: 1,
                batch_size: 4,
                snapshot_interval: 16,
                seed: 0x5CE2_A210,
                queue_capacity: 1 << 20,
                adaptive_shards: true,
                shards_max: 4,
                control_interval: 16,
                scale_up_backlog: 6,
                scale_down_backlog: 1,
                scaling_policy: policy,
                trace_events: 64,
                ..Default::default()
            };
            let reference = serve_scenario(
                service,
                artifact.program(),
                &app,
                &scenario,
                &on_engine(&cfg, EngineKind::Reference, 1),
            );
            assert_eq!(
                reference.served + reference.rejected + reference.shed,
                REQUESTS,
                "{}/{policy:?}: report must account for every request",
                preset.label()
            );
            assert!(reference.injected > 0, "{}/{policy:?}: no injections", preset.label());
            for workers in [1, 4] {
                let tag = format!("{}/{policy:?}/{workers}w", preset.label());
                let trace = serve_scenario(
                    service,
                    artifact.program(),
                    &app,
                    &scenario,
                    &on_engine(&cfg, EngineKind::Trace, workers),
                );
                bit_identical(&tag, &reference, &trace);
            }
        }
    }
}

//! Differential determinism tests for the serving runtime, extending
//! PR 1's campaign guarantee to the serving layer:
//!
//! * host *worker* count changes nothing at all (full report equality,
//!   ledger and canonical trace bytes included), while the drain
//!   really fans out across the workers;
//! * *shard* count changes latency/throughput but never the online
//!   fault outcome counts or the final KV-table digest — shards commit
//!   only reference executions and the fault schedule keys on global
//!   request ids, so the resident state is a pure function of the
//!   committed request sequence per key.

use elzar::{Artifact, Mode};
use elzar_apps::Scale;
use elzar_serve::{serve_program, ServeConfig, ServeReport, Service};

/// Build the hardened artifact and serve the service's stream on it —
/// the same `Artifact::build` + `serve_program` composition
/// `Artifact::serve` performs.
fn serve(service: Service, mode: &Mode, scale: Scale, cfg: &ServeConfig) -> ServeReport {
    let app = service.app(scale);
    let artifact = Artifact::build(&app.module, mode);
    serve_program(service, artifact.program(), &app, cfg)
}

fn cfg(shards: u32, workers: u32) -> ServeConfig {
    ServeConfig {
        shards,
        workers,
        requests: 220,
        seed: 0xD5EE_D001,
        fault_rate_ppm: 120_000, // ~12%: a few dozen online injections
        // Large enough that the overloaded 1-shard config still
        // rejects nothing — rejections are load-dependent and would
        // legitimately differ across shard counts.
        queue_capacity: 1 << 20,
        mean_gap_cycles: 1_500,
        ..Default::default()
    }
}

/// Full report equality across host worker counts on the static path,
/// over shard counts {1, 4} with tracing off and on (so the canonical
/// trace bytes are compared too). The 4-worker side must really fan
/// out: one thread per shard.
#[test]
fn worker_count_never_changes_anything() {
    for service in [Service::KvA, Service::Web] {
        for shards in [1, 4] {
            for trace_events in [0, 64] {
                let tag = format!("{}/{shards}s/trace {trace_events}", service.label());
                let a = serve(
                    service,
                    &Mode::elzar_default(),
                    Scale::Tiny,
                    &ServeConfig { trace_events, ..cfg(shards, 1) },
                );
                let b = serve(
                    service,
                    &Mode::elzar_default(),
                    Scale::Tiny,
                    &ServeConfig { trace_events, ..cfg(shards, 4) },
                );
                assert_eq!(a.host_workers, 1, "{tag}");
                assert_eq!(b.host_workers, shards, "{tag}: the drain must fan out one thread per shard");
                assert_eq!(a.served + a.rejected + a.shed, 220, "{tag}: every request accounted for");
                assert_eq!(a.served, b.served, "{tag}");
                assert_eq!(a.rejected, b.rejected, "{tag}");
                assert_eq!(a.injected, b.injected, "{tag}");
                assert_eq!(a.outcomes, b.outcomes, "{tag}");
                assert_eq!(a.restarts, b.restarts, "{tag}");
                assert_eq!(a.makespan_cycles, b.makespan_cycles, "{tag}");
                assert_eq!(a.hist, b.hist, "{tag}: latency histogram diverged");
                assert_eq!(a.table_digest, b.table_digest, "{tag}");
                assert_eq!(a.ledger, b.ledger, "{tag}: cycle ledger diverged");
                assert_eq!(
                    a.trace.canonical_bytes(),
                    b.trace.canonical_bytes(),
                    "{tag}: canonical trace bytes"
                );
                assert_eq!(a.trace.is_empty(), trace_events == 0, "{tag}: tracing on must record events");
                for (sa, sb) in a.shards.iter().zip(&b.shards) {
                    assert_eq!(sa.busy_cycles(), sb.busy_cycles(), "{tag}");
                    assert_eq!(sa.last_completion, sb.last_completion, "{tag}");
                }
            }
        }
    }
}

#[test]
fn shard_count_preserves_outcomes_and_table_digest() {
    let one = serve(Service::KvA, &Mode::elzar_default(), Scale::Tiny, &cfg(1, 4));
    let four = serve(Service::KvA, &Mode::elzar_default(), Scale::Tiny, &cfg(4, 4));
    assert_eq!(one.served, four.served, "large queue: nothing rejected in either config");
    assert_eq!(one.rejected, 0);
    assert_eq!(four.rejected, 0);
    assert_eq!(one.injected, four.injected, "fault schedule keys on request ids");
    assert_eq!(one.outcomes, four.outcomes, "Table-I outcome counts must be shard-count invariant");
    assert_eq!(one.restarts, four.restarts);
    assert_eq!(
        one.table_digest, four.table_digest,
        "final KV state must be bit-identical across shard counts"
    );
    // Sanity: the campaign actually exercised the interesting paths.
    assert!(one.injected > 10, "only {} injections", one.injected);
    assert!(one.outcomes.iter().sum::<u64>() == one.injected, "every injection classified exactly once");
    // Sharding must actually help under this offered load.
    assert!(
        four.makespan_cycles < one.makespan_cycles,
        "4 shards should finish earlier: {} vs {}",
        four.makespan_cycles,
        one.makespan_cycles
    );
}

#[test]
fn elzar_mode_corrects_online_where_native_corrupts() {
    use elzar_fault::Outcome;
    let c = cfg(2, 4);
    let hardened = serve(Service::KvA, &Mode::elzar_default(), Scale::Tiny, &c);
    assert!(hardened.count(Outcome::ElzarCorrected) > 0, "online recovery must fire under a 12% fault rate");
    let native = serve(Service::KvA, &Mode::NativeNoSimd, Scale::Tiny, &c);
    assert_eq!(
        native.injected, hardened.injected,
        "the fault schedule keys on request ids, not on the build mode"
    );
    assert_eq!(native.count(Outcome::ElzarCorrected), 0, "native cannot correct");
    assert!(
        native.count(Outcome::Sdc) > hardened.count(Outcome::Sdc),
        "native SDCs {} should exceed hardened {}",
        native.count(Outcome::Sdc),
        hardened.count(Outcome::Sdc)
    );
    assert!(hardened.sdc_rate() < 0.02, "hardened SDC rate {}", hardened.sdc_rate());
}

//! Differential determinism tests for the two PR-4 serving levers,
//! extending the shard/worker guarantees of `serve_differential.rs`:
//!
//! * *batch size* and *snapshot interval* change latency/throughput
//!   only — the outcome histogram and the final KV digest are
//!   bit-identical across `batch_size x snapshot_interval x shards`,
//!   because fault-scheduled requests always execute through the
//!   single-request entry against suffix-replayed pre-request state,
//!   and fault-free batches commit exactly the bytes the equivalent
//!   single-request sequence would;
//! * crash recovery really goes through the snapshot + suffix-replay
//!   machinery (`replay_cycles` is observable when a crash lands past
//!   the first request of a snapshot interval);
//! * the report's quantile accessors are total at the edges (empty
//!   report, q = 0.0 / 1.0).

use elzar::{Artifact, Mode};
use elzar_apps::Scale;
use elzar_serve::histogram::LatencyHistogram;
use elzar_serve::{serve_program, CycleLedger, ServeConfig, ServeReport, Service, Trace};

fn grid_cfg(shards: u32, batch_size: u32, snapshot_interval: u32) -> ServeConfig {
    ServeConfig {
        shards,
        batch_size,
        snapshot_interval,
        workers: 4,
        requests: 180,
        seed: 0xBA7C_4001,
        fault_rate_ppm: 120_000, // ~12%: a few dozen online injections
        // Large enough that nothing is rejected — rejections are
        // load-dependent and would legitimately differ across
        // configurations.
        queue_capacity: 1 << 20,
        mean_gap_cycles: 1_500,
        ..Default::default()
    }
}

/// The invariance the tentpole promises: outcome counts and the final
/// resident-table digest are a pure function of the stream, never of
/// how requests were grouped into batches, how often the shard
/// snapshotted, or how the keyspace was partitioned.
#[test]
fn batch_and_interval_grid_is_outcome_and_digest_invariant() {
    for service in [Service::KvA, Service::Web] {
        let app = service.app(Scale::Tiny);
        let artifact = Artifact::build(&app.module, &Mode::elzar_default());
        let mut reference: Option<ServeReport> = None;
        for shards in [1u32, 4] {
            for batch_size in [1u32, 8] {
                for snapshot_interval in [1u32, 16] {
                    let cfg = grid_cfg(shards, batch_size, snapshot_interval);
                    let r = serve_program(service, artifact.program(), &app, &cfg);
                    let tag = format!(
                        "{}: shards={shards} batch={batch_size} K={snapshot_interval}",
                        service.label()
                    );
                    assert_eq!(r.served, 180, "{tag}: large queue must reject nothing");
                    assert_eq!(r.rejected, 0, "{tag}");
                    assert_eq!(
                        r.outcomes.iter().sum::<u64>(),
                        r.injected,
                        "{tag}: every injection classified exactly once"
                    );
                    match &reference {
                        None => {
                            assert!(r.injected > 10, "{tag}: only {} injections", r.injected);
                            reference = Some(r);
                        }
                        Some(a) => {
                            assert_eq!(a.injected, r.injected, "{tag}: injection count diverged");
                            assert_eq!(a.outcomes, r.outcomes, "{tag}: outcome histogram diverged");
                            assert_eq!(a.restarts, r.restarts, "{tag}: restart count diverged");
                            assert_eq!(
                                a.table_digest, r.table_digest,
                                "{tag}: final resident state diverged"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Batching is a pure timing lever even at fault rate 0: the committed
/// state (digest) matches the unbatched run, batches actually form
/// under saturating load, and throughput does not regress.
#[test]
fn saturated_batches_form_and_preserve_state() {
    let app = Service::KvD.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let base = ServeConfig {
        shards: 2,
        workers: 2,
        requests: 160,
        fault_rate_ppm: 0,
        mean_gap_cycles: 50, // saturating: queues stay occupied
        queue_capacity: 1 << 20,
        snapshot_interval: 32,
        ..Default::default()
    };
    let unbatched = serve_program(Service::KvD, artifact.program(), &app, &base);
    let batched = serve_program(
        Service::KvD,
        artifact.program(),
        &app,
        &ServeConfig { batch_size: 16, ..base.clone() },
    );
    assert_eq!(unbatched.table_digest, batched.table_digest);
    assert_eq!(unbatched.served, batched.served);
    // 160 requests in batches of up to 16 on 2 shards: far fewer
    // entries than requests.
    assert!(
        batched.batches * 4 < batched.served,
        "only {} batches for {} served requests",
        batched.batches,
        batched.served
    );
    assert!(
        batched.throughput_rps() > unbatched.throughput_rps(),
        "batching must not lose throughput under saturation: {} vs {}",
        batched.throughput_rps(),
        unbatched.throughput_rps()
    );
    assert!(
        batched.quantile_cycles(0.99) <= unbatched.quantile_cycles(0.99),
        "drain-on-free batching never waits, so p99 must not regress"
    );
}

/// Crash recovery goes through snapshot + suffix replay: with a
/// snapshot interval > 1, a crash that lands mid-interval must replay
/// committed requests (observable as `replay_cycles`), and the detour
/// is charged to downtime/availability.
#[test]
fn crashes_restore_snapshots_and_replay_the_suffix() {
    let app = Service::Web.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let cfg = ServeConfig {
        shards: 2,
        workers: 2,
        batch_size: 8,
        snapshot_interval: 16,
        requests: 200,
        seed: 0xC4A5_11E5,
        fault_rate_ppm: 200_000,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 1_000,
        ..Default::default()
    };
    let r = serve_program(Service::Web, artifact.program(), &app, &cfg);
    assert!(r.injected > 20, "only {} injections", r.injected);
    assert!(r.restarts > 0, "the web parse must crash under a 20% SEU rate");
    assert!(r.replay_cycles() > 0, "a K=16 crash must replay committed suffix requests");
    assert!(r.downtime_cycles() >= r.restarts * cfg.restart_cycles + r.replay_cycles());
    assert!(r.availability() < 1.0);
    assert!(r.snapshots > 0);
    // Same config, snapshot every request: recovery never replays.
    let tight = serve_program(
        Service::Web,
        artifact.program(),
        &app,
        &ServeConfig { snapshot_interval: 1, ..cfg.clone() },
    );
    assert_eq!(tight.restarts, r.restarts, "outcomes are interval-invariant");
    assert_eq!(tight.replay_cycles(), 0, "K=1 snapshots leave no suffix to replay");
    assert!(tight.snapshot_cycles() > r.snapshot_cycles(), "K=1 pays clone cost per request");
}

/// `quantile_cycles`/`quantile_us` are total at the edges: an empty
/// report yields zeros, q is clamped, q=1.0 reports the exact maximum.
#[test]
fn quantile_edges_are_total() {
    let empty = ServeReport {
        shards: vec![],
        hist: LatencyHistogram::new(),
        served: 0,
        rejected: 0,
        shed: 0,
        slo_met: 0,
        batches: 0,
        injected: 0,
        outcomes: [0; 5],
        restarts: 0,
        snapshots: 0,
        scale_ups: 0,
        scale_downs: 0,
        migrated_slots: 0,
        migration_replays: 0,
        promotions: 0,
        ledger: CycleLedger::new(),
        compactions: 0,
        compacted_entries: 0,
        max_slot_log: 0,
        divergence_checks: 0,
        divergence_alarms: 0,
        div_probed: [0; 5],
        div_flagged: [0; 5],
        peak_shards: 0,
        final_shards: 0,
        host_workers: 0,
        events: vec![],
        trace: Trace::default(),
        makespan_cycles: 0,
        table_digest: 0,
    };
    for q in [0.0, 0.5, 1.0, -3.0, 7.0, f64::NAN] {
        assert_eq!(empty.quantile_cycles(q), 0, "empty report, q={q}");
        assert_eq!(empty.quantile_us(q), 0.0, "empty report, q={q}");
    }
    assert_eq!(empty.throughput_rps(), 0.0);
    assert_eq!(empty.availability(), 1.0);
    assert_eq!(empty.sdc_rate(), 0.0);

    let mut hist = LatencyHistogram::new();
    for v in [10u64, 100, 1_000, 10_000] {
        hist.record(v);
    }
    let r = ServeReport { hist, served: 4, ..empty };
    // q is clamped into [0, 1]; 0 reports the smallest covering bucket,
    // 1 the exact maximum.
    assert_eq!(r.quantile_cycles(-1.0), r.quantile_cycles(0.0));
    assert_eq!(r.quantile_cycles(2.0), r.quantile_cycles(1.0));
    assert_eq!(r.quantile_cycles(1.0), 10_000);
    assert!(r.quantile_cycles(0.0) >= 10 && r.quantile_cycles(0.0) <= 11);
    assert!(r.quantile_cycles(0.0) <= r.quantile_cycles(0.5));
    assert!(r.quantile_cycles(0.5) <= r.quantile_cycles(1.0));
    // The microsecond view is the cycle view scaled by the simulated
    // clock.
    let scale = 1e6 / elzar_apps::FREQ_HZ;
    assert!((r.quantile_us(0.99) - r.quantile_cycles(0.99) as f64 * scale).abs() < 1e-9);
}

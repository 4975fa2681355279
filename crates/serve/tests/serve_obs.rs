//! Observability suite: the tracer and the cycle ledger are pinned by
//! the same differential discipline as the serving runtime itself.
//!
//! * **The canonical trace is worker-count invariant.** Every stamp is
//!   virtual time, every ring has one deterministic producer, and the
//!   merge is a total order — so the full byte serialization is
//!   bit-identical across 1 and 4 workers even under a failover +
//!   compaction storm on an elastic fleet.
//! * **Ring overflow drops oldest-first, deterministically.** A
//!   tight-capped run retains exactly the per-track suffix of the
//!   uncapped run's stream, and `dropped_events` accounts for every
//!   evicted record.
//! * **The ledger conserves cycles.** On a seeded crash storm every
//!   shard's foreground categories (execute, snapshot, replay,
//!   migration, downtime, idle) partition its lifetime exactly — the
//!   regression guard for the availability denominator's
//!   lifetime-integral fix.
//! * **Tracing is observation only.** Toggling `trace_events` moves no
//!   behavioral field: digest, outcomes, histogram, makespan, ledger.

use elzar::{Artifact, Mode};
use elzar_apps::Scale;
use elzar_serve::gen::{rescale_gaps, Request};
use elzar_serve::{serve_stream, Category, ServeConfig, ServeReport, Service, TraceEvent};
use std::collections::BTreeMap;

/// The failover suite's crash storm (~30% SEU rate) with tracing on.
fn storm_cfg(trace_events: usize) -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers: 2,
        batch_size: 8,
        snapshot_interval: 16,
        requests: 360,
        seed: 0xFA11_0EE5,
        fault_rate_ppm: 300_000,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 300,
        trace_events,
        ..Default::default()
    }
}

/// Dense head, stretched tail: drives the elastic controller both ways
/// so the trace sees scale-ups, scale-downs and compaction epochs.
fn phased_stream(service: Service, app: &elzar_apps::ServeApp, cfg: &ServeConfig) -> Vec<Request> {
    let mut stream = service.stream(app, cfg);
    let from = stream.len() * 2 / 3;
    rescale_gaps(&mut stream, from, 30, 1);
    stream
}

fn storm_run(cfg: &ServeConfig) -> ServeReport {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let stream = phased_stream(service, &app, cfg);
    serve_stream(artifact.program(), &app, &stream, cfg)
}

/// An elastic failover + compaction storm on YCSB-A: the richest event
/// mix the runtime can produce (admits, batches, injections, restarts,
/// promotions, rebuilds, migrations, catch-ups, scale events,
/// compactions), traced bit-identically at 1 and 4 workers.
#[test]
fn canonical_trace_is_bit_identical_across_workers() {
    let base = ServeConfig {
        replicas: true,
        adaptive_shards: true,
        compaction: true,
        shards: 1,
        shards_max: 4,
        ..storm_cfg(1 << 14)
    };
    let w1 = storm_run(&ServeConfig { workers: 1, ..base.clone() });
    let w4 = storm_run(&ServeConfig { workers: 4, ..base.clone() });
    assert!(!w1.trace.is_empty(), "a traced storm must record events");
    assert!(w4.host_workers > 1, "the 4-worker storm never fanned out");
    assert_eq!(w1.trace.dropped_events, 0, "the deep ring must not drop on this stream");
    assert_eq!(
        w1.trace.canonical_bytes(),
        w4.trace.canonical_bytes(),
        "canonical trace bytes diverged across worker counts"
    );
    // The stream really exercised the elastic + replication machinery.
    assert!(w1.restarts > 0, "no crashes — the storm never stormed");
    assert!(w1.promotions > 0, "no failovers traced");
    assert!(w1.scale_ups > 0 && w1.scale_downs > 0, "controller never scaled");
    assert!(w1.compactions > 0, "compaction never ran");
}

/// Capping the ring drops the *oldest* events and counts every
/// eviction: per track, the tight run retains exactly the suffix of the
/// uncapped run's stream, and the retained-plus-dropped total matches.
#[test]
fn ring_overflow_drops_oldest_first_with_exact_accounting() {
    let full = storm_run(&storm_cfg(1 << 14));
    let tight = storm_run(&storm_cfg(32));
    assert_eq!(full.trace.dropped_events, 0, "reference run must retain everything");
    assert!(tight.trace.dropped_events > 0, "a 32-slot ring must overflow on this storm");
    assert_eq!(
        tight.trace.dropped_events,
        (full.trace.len() - tight.trace.len()) as u64,
        "every evicted event must be counted exactly once"
    );

    let by_track = |events: &[TraceEvent]| {
        let mut m: BTreeMap<u32, Vec<TraceEvent>> = BTreeMap::new();
        for e in events {
            m.entry(e.track).or_default().push(*e);
        }
        m
    };
    let full_tracks = by_track(&full.trace.events);
    let tight_tracks = by_track(&tight.trace.events);
    assert_eq!(full_tracks.len(), tight_tracks.len(), "overflow must not lose whole tracks");
    for (track, kept) in &tight_tracks {
        let all = &full_tracks[track];
        assert_eq!(
            kept.as_slice(),
            &all[all.len() - kept.len()..],
            "track {track}: retained window is not the stream's suffix"
        );
    }

    // Determinism of the drop accounting itself.
    let again = storm_run(&storm_cfg(32));
    assert_eq!(tight.trace, again.trace, "capped trace must be reproducible");
}

/// The PR 6 lifetime-integral regression guard, restated on the typed
/// ledger: per shard, downtime + accounted busy work + idle is exactly
/// the lifetime (`retired_at - spawned_at` for retirees), so
/// `availability()`'s numerator and denominator come from one conserved
/// account.
#[test]
fn crash_storm_ledger_conserves_every_shard_cycle() {
    let cfg = ServeConfig {
        replicas: true,
        adaptive_shards: true,
        compaction: true,
        shards: 1,
        shards_max: 4,
        ..storm_cfg(0)
    };
    let r = storm_run(&cfg);
    assert!(r.restarts > 0, "no crashes — nothing to conserve against");
    let mut saw_retiree = false;
    for s in &r.shards {
        let foreground = [
            Category::Execute,
            Category::Snapshot,
            Category::Replay,
            Category::Migration,
            Category::Downtime,
            Category::Idle,
        ]
        .iter()
        .map(|&c| s.ledger.get(c))
        .sum::<u64>();
        assert_eq!(foreground, s.lifetime_cycles, "shard {}: downtime + busy + idle != lifetime", s.shard);
        s.ledger.verify(s.lifetime_cycles).unwrap_or_else(|e| panic!("shard {}: {e}", s.shard));
        if s.retired_at != u64::MAX {
            saw_retiree = true;
            assert!(
                s.lifetime_cycles >= s.retired_at - s.spawned_at,
                "shard {}: lifetime shorter than its retirement span",
                s.shard
            );
        }
    }
    assert!(saw_retiree, "the phased storm must retire at least one shard");
    // The aggregate account the availability formula consumes.
    let lifetimes: u64 = r.shards.iter().map(|s| s.lifetime_cycles).sum();
    assert_eq!(r.ledger.foreground_total(), lifetimes);
    assert!(r.availability() < 1.0 && r.availability() > 0.0);
}

/// `trace_events` is a pure observation knob: toggling it moves nothing
/// a differential suite pins.
#[test]
fn tracing_toggle_has_zero_behavioral_delta() {
    let off = storm_run(&storm_cfg(0));
    let on = storm_run(&storm_cfg(1 << 14));
    assert!(off.trace.is_empty() && off.trace.dropped_events == 0, "off must record nothing");
    assert_eq!(off.served, on.served);
    assert_eq!(off.injected, on.injected);
    assert_eq!(off.outcomes, on.outcomes);
    assert_eq!(off.restarts, on.restarts);
    assert_eq!(off.hist, on.hist, "latency histogram moved under tracing");
    assert_eq!(off.makespan_cycles, on.makespan_cycles, "virtual time moved under tracing");
    assert_eq!(off.ledger, on.ledger, "cycle attribution moved under tracing");
    assert_eq!(off.table_digest, on.table_digest, "resident state moved under tracing");
}

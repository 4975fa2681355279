//! Seeded event-order fuzzing at the serving layer:
//!
//! * permuting the scheduler's same-cycle ready set under an
//!   `elzar_rng` seed (`ServeConfig::order_fuzz`) changes *nothing* —
//!   shards share no mutable state, so every report is bit-identical
//!   to the canonical tie-break, static and adaptive alike;
//! * `elzar_sim::hunt_order_dependence` run over the full serving
//!   pipeline comes back empty: no seed flushes out order-dependent
//!   committed state (the new hunt mode — a divergence here would be a
//!   real scheduler-seam bug, not test noise);
//! * deliberate same-cycle collisions — eight shards woken on the same
//!   arrival instant, instants aligned with epoch boundaries — commit
//!   in `(cycle, track, seq)` order everywhere: the canonical trace
//!   byte stream is invariant across worker counts and fuzz seeds;
//! * virtual-time overflow dies loudly: a stream whose arrivals sit
//!   near `u64::MAX` panics naming the shard component that would have
//!   wrapped, instead of silently lapping the clock — also when the
//!   panic happens on a drain worker thread and must cross the join.

use elzar::{Artifact, Mode};
use elzar_apps::Scale;
use elzar_serve::gen::ScenarioPreset;
use elzar_serve::{
    serve_program, serve_scenario, serve_stream, ScalingPolicy, ServeConfig, ServeReport, Service,
};
use elzar_sim::{hunt_order_dependence, TieBreak};

const FUZZ_SEEDS: [u64; 6] = [1, 2, 3, 0xDEAD_BEEF, 0x5EED_CAFE, u64::MAX];

fn fingerprint(r: &ServeReport) -> (u64, u64, u64, u64, [u64; 5], u64, Vec<u8>) {
    (
        r.served,
        r.rejected,
        r.shed,
        r.makespan_cycles,
        [
            r.quantile_cycles(0.5),
            r.quantile_cycles(0.9),
            r.quantile_cycles(0.99),
            r.quantile_cycles(0.999),
            r.quantile_cycles(1.0),
        ],
        r.table_digest,
        r.trace.canonical_bytes(),
    )
}

/// Static path: every fuzz seed produces the canonical report,
/// bit for bit.
#[test]
fn static_order_fuzz_is_bit_identical_to_canonical() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let cfg = ServeConfig {
        shards: 4,
        workers: 2,
        requests: 220,
        seed: 0xD5EE_D001,
        fault_rate_ppm: 120_000,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 1_500,
        trace_events: 64,
        ..Default::default()
    };
    let report = serve_program(service, artifact.program(), &app, &cfg);
    assert_eq!(report.host_workers, 2, "four shards must split across both workers");
    let canonical = fingerprint(&report);
    for seed in FUZZ_SEEDS {
        let fuzzed = fingerprint(&serve_program(
            service,
            artifact.program(),
            &app,
            &ServeConfig { order_fuzz: seed, ..cfg.clone() },
        ));
        assert_eq!(canonical, fuzzed, "static path diverged under order-fuzz seed {seed:#x}");
    }
}

/// Adaptive path: the flash-crowd scenario (heaviest scaling churn)
/// survives every fuzz seed bit-identically, both policies.
#[test]
fn adaptive_order_fuzz_is_bit_identical_to_canonical() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let scenario = ScenarioPreset::FlashCrowd.scenario(320, 12_000, 50_000);
    for policy in [ScalingPolicy::Reactive, ScalingPolicy::Predictive] {
        let cfg = ServeConfig {
            shards: 1,
            workers: 4,
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
        let canonical = fingerprint(&serve_scenario(service, artifact.program(), &app, &scenario, &cfg));
        for seed in FUZZ_SEEDS {
            let fuzzed = fingerprint(&serve_scenario(
                service,
                artifact.program(),
                &app,
                &scenario,
                &ServeConfig { order_fuzz: seed, ..cfg.clone() },
            ));
            assert_eq!(
                canonical, fuzzed,
                "{policy:?}: adaptive path diverged under order-fuzz seed {seed:#x}"
            );
        }
    }
}

/// The hunt mode, driven end to end: `hunt_order_dependence` permutes
/// the ready set across a seed battery and must find no seed whose
/// committed serving state diverges from canonical.
#[test]
fn order_dependence_hunt_comes_back_empty() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let cfg = ServeConfig {
        shards: 4,
        workers: 1,
        requests: 160,
        seed: 0x0D0_FEED,
        fault_rate_ppm: 80_000,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 1_500,
        trace_events: 64,
        ..Default::default()
    };
    let verdict = hunt_order_dependence(
        |tie| {
            let order_fuzz = match tie {
                TieBreak::Canonical => 0,
                TieBreak::Fuzzed(seed) => seed,
            };
            fingerprint(&serve_program(
                service,
                artifact.program(),
                &app,
                &ServeConfig { order_fuzz, ..cfg.clone() },
            ))
        },
        &FUZZ_SEEDS,
    );
    assert_eq!(verdict, None, "serving committed state is order-dependent under seed {verdict:?}");
}

/// Deliberate same-cycle collisions: arrivals quantized so batches of
/// requests land on identical instants (which are also the epoch
/// boundaries the controller reads), waking several shards on the
/// same cycle. The committed order is pinned by `(cycle, track, seq)`:
/// the canonical trace byte stream — and the whole report — is
/// invariant across worker counts and fuzz seeds.
#[test]
fn same_cycle_collisions_commit_in_pinned_order() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let base = ServeConfig {
        shards: 1,
        workers: 1,
        requests: 128,
        seed: 0xC0_11_1D_E5,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 1_500,
        adaptive_shards: true,
        shards_max: 4,
        control_interval: 16,
        scale_up_backlog: 6,
        scale_down_backlog: 1,
        trace_events: 64,
        ..Default::default()
    };
    let mut stream = service.stream(&app, &base);
    // Sixteen requests per instant — one control epoch per instant —
    // so every epoch boundary, every shard wake-up and the controller
    // decision all collide on one cycle.
    for (i, req) in stream.iter_mut().enumerate() {
        req.arrival = (i as u64 / 16 + 1) * 40_000;
    }
    let reference = fingerprint(&serve_stream(artifact.program(), &app, &stream, &base));
    assert!(!reference.6.is_empty(), "collision run must produce trace bytes");
    for workers in [1, 4] {
        for order_fuzz in [0, 0xF00D] {
            let cfg = ServeConfig { workers, order_fuzz, ..base.clone() };
            let report = serve_stream(artifact.program(), &app, &stream, &cfg);
            if workers > 1 {
                assert!(report.host_workers > 1, "workers={workers}: the collision epochs never fanned out");
            }
            assert_eq!(
                reference,
                fingerprint(&report),
                "collision run diverged at workers={workers} order_fuzz={order_fuzz:#x}"
            );
        }
    }
}

/// A stream whose arrivals crowd `u64::MAX` must die loudly in the
/// shard clock arithmetic — naming the component — not wrap and serve
/// requests in a lapped past. At two workers each shard drains on its
/// own thread, so the message must survive the join.
#[test]
fn near_max_arrivals_panic_naming_the_shard_component() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let cfg = ServeConfig {
        shards: 2,
        workers: 1,
        requests: 16,
        seed: 0xBADC_0FFE,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 1_000,
        ..Default::default()
    };
    let mut stream = service.stream(&app, &cfg);
    // Shift the (monotone) arrivals so the last lands 8 cycles shy of
    // the end of virtual time: the first completion estimate wraps.
    let n = stream.len() as u64;
    for (i, req) in stream.iter_mut().enumerate() {
        req.arrival = u64::MAX - 8 - (n - i as u64);
    }
    for workers in [1, 2] {
        let cfg = ServeConfig { workers, ..cfg.clone() };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_stream(artifact.program(), &app, &stream, &cfg)
        }))
        .expect_err("near-MAX arrivals must panic, not wrap");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("virtual-time overflow") && msg.contains("shard"),
            "workers={workers}: panic must name the shard component, got: {msg}"
        );
    }
}

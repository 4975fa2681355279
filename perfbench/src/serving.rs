//! The serving workloads: one hardened service on a 4-shard fleet (or
//! an elastic 1→4 fleet), an open loop in *virtual* time — arrivals come
//! from a seeded schedule regardless of service — and offline batch
//! work on the host, reported as requests per host second.

use crate::metrics::Values;
use crate::probes;
use crate::spans::Spans;
use crate::stats::{beyond, median, nearest_rank, time_us};
use crate::{Opts, Report};
use elzar::{Artifact, Mode};
use elzar_apps::{kv, Scale, ServeApp, FREQ_HZ};
use elzar_fault::Outcome;
use elzar_serve::gen::{Request, ScenarioPreset};
use elzar_serve::{serve_stream, Category, EventKind, ScalingPolicy, ServeConfig, ServeReport, Service};
use elzar_vm::{Machine, MachineConfig, Program, RunOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// SLO of every serving workload, in virtual cycles (30 µs at 2 GHz),
/// for accounting only: nothing is shed.
pub const SLO_CYCLES: u64 = 60_000;

/// How a workload's arrivals are generated.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Steady open loop with this mean inter-arrival gap (cycles).
    Open {
        /// Mean gap in virtual cycles.
        mean_gap: u64,
    },
    /// A scenario preset compiled against the service.
    Scenario {
        /// The preset.
        preset: ScenarioPreset,
        /// Its base mean gap in virtual cycles.
        base_gap: u64,
        /// Its base SEU rate in ppm.
        base_ppm: u32,
    },
}

/// A serving workload.
#[derive(Clone, Debug)]
pub struct ServingSpec {
    /// Workload name.
    pub name: &'static str,
    /// The service.
    pub service: Service,
    /// Offered requests per stream.
    pub requests: u64,
    /// Independent streams per run, each from its own seed derived from
    /// the workload seed. Timed repetitions cycle through them.
    pub instances: u32,
    /// Arrival schedule.
    pub load: Load,
    /// Serving configuration (seed, length and workers are set per run).
    pub cfg: ServeConfig,
}

/// Host workers of every timed call (the container's core count).
pub const WORKERS: u32 = 2;

/// The serving workload named `name`.
pub fn spec(name: &str) -> Option<ServingSpec> {
    let base = ServeConfig {
        workers: WORKERS,
        queue_capacity: 1 << 20,
        slo_cycles: SLO_CYCLES,
        shed_slo: false,
        ..ServeConfig::default()
    };
    Some(match name {
        "kv-a-static" => ServingSpec {
            name: "kv-a-static",
            service: Service::KvA,
            requests: 2_000,
            instances: 4,
            load: Load::Open { mean_gap: 4_000 },
            cfg: ServeConfig {
                shards: 4,
                batch_size: 1,
                snapshot_interval: 8,
                fault_rate_ppm: 20_000,
                ..base
            },
        },
        "web-batched" => ServingSpec {
            name: "web-batched",
            service: Service::Web,
            requests: 16_000,
            instances: 1,
            load: Load::Open { mean_gap: 200 },
            cfg: ServeConfig {
                shards: 4,
                batch_adaptive: true,
                batch_max: 32,
                snapshot_interval: 64,
                fault_rate_ppm: 0,
                ..base
            },
        },
        "kv-d-flash" => ServingSpec {
            name: "kv-d-flash",
            service: Service::KvD,
            requests: 3_000,
            instances: 12,
            load: Load::Scenario { preset: ScenarioPreset::FlashCrowd, base_gap: 24_000, base_ppm: 50_000 },
            cfg: ServeConfig {
                shards: 1,
                adaptive_shards: true,
                shards_max: 4,
                scaling_policy: ScalingPolicy::Predictive,
                replicas: true,
                batch_size: 4,
                snapshot_interval: 16,
                control_interval: 16,
                scale_up_backlog: 6,
                scale_down_backlog: 1,
                ..base
            },
        },
        _ => return None,
    })
}

/// What set-up produces: the app, both builds and the stream.
pub struct Built {
    /// Serving-form app.
    pub app: ServeApp,
    /// ELZAR-hardened build.
    pub hardened: Artifact,
    /// Native (no SIMD) build of the same module.
    pub native: Artifact,
    /// The generated streams.
    pub instances: Vec<Instance>,
}

/// One generated stream and the configuration that serves it.
pub struct Instance {
    /// The request stream.
    pub stream: Vec<Request>,
    /// Its configuration (seed, length and fault phases filled in).
    pub cfg: ServeConfig,
}

/// Seed of instance `i` of a run with workload seed `seed`.
pub fn instance_seed(seed: u64, i: u32) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(i)
}

/// Set-up: build the app and both artifacts, generate the streams.
pub fn setup(spec: &ServingSpec, requests: u64, seed: u64, spans: &mut Spans, rep: u32) -> Built {
    let app = spans.time("apps.build", rep, |_| spec.service.app(Scale::Tiny));
    let hardened =
        spans.time("core.artifact_build", rep, |_| Artifact::build(&app.module, &Mode::elzar_default()));
    let native =
        spans.time("core.artifact_build_native", rep, |_| Artifact::build(&app.module, &Mode::NativeNoSimd));
    let instances = spans.time("serve.gen", rep, |_| {
        (0..spec.instances.max(1))
            .map(|i| {
                let mut cfg = ServeConfig { seed: instance_seed(seed, i), requests, ..spec.cfg.clone() };
                let stream = match spec.load {
                    Load::Open { mean_gap } => {
                        cfg.mean_gap_cycles = mean_gap;
                        spec.service.stream(&app, &cfg)
                    }
                    Load::Scenario { preset, base_gap, base_ppm } => {
                        let scenario = preset.scenario(requests, base_gap, base_ppm);
                        let c = scenario.compile(spec.service.stream_kind(&app), cfg.seed);
                        cfg.fault_phases = c.fault_phases;
                        c.stream
                    }
                };
                cfg.requests = stream.len() as u64;
                Instance { stream, cfg }
            })
            .collect()
    });
    Built { app, hardened, native, instances }
}

/// FNV-1a fold of one little-endian word (the serving report's digest
/// rule).
fn fnv_fold(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Digest of a machine's resident KV table in global key order, read
/// through the host-side `kv::serve_lookup` mirror (`FNV_OFFSET` for a
/// stateless app) — the same fold the serving report uses.
fn table_digest(m: &Machine<'_>, app: &ServeApp) -> u64 {
    let mut h = FNV_OFFSET;
    if app.table_base != 0 {
        for k in 0..app.n_keys {
            let v = kv::serve_lookup(m.memory(), app.table_base, k).unwrap_or(0);
            h = fnv_fold(fnv_fold(h, k), v);
        }
    }
    h
}

/// A single-machine replay: table digest, digest of every reply byte,
/// and the summed simulated cycles of the requests.
struct Replay {
    table: u64,
    replies: u64,
    cycles: u64,
}

/// Boot one machine and apply `payloads` in order through
/// `Machine::reenter` — the independent reference the sharded runtime
/// is checked against.
fn replay(prog: &Program, app: &ServeApp, mc: MachineConfig, payloads: &[&[u8]]) -> Result<Replay, String> {
    let mut mc = mc;
    mc.fault = None;
    let mut m = Machine::start(prog, app.init_entry, &[], mc);
    let o = m.run_to_completion();
    if !matches!(o, RunOutcome::Exited(_)) {
        return Err(format!("reference init did not exit: {o:?}"));
    }
    let (mut cycles, mut replies) = (0, FNV_OFFSET);
    for (i, p) in payloads.iter().enumerate() {
        m.reenter(app.request_entry, p);
        let o = m.run_to_completion();
        if !matches!(o, RunOutcome::Exited(_)) {
            return Err(format!("reference request {i} did not exit: {o:?}"));
        }
        cycles += m.cycles_so_far();
        for b in m.result(o).output {
            replies = (replies ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
    Ok(Replay { table: table_digest(&m, app), replies, cycles })
}

/// The reference a run is checked against: a 1-worker serve with the
/// virtual-time event ring on (exact per-request latencies and the set
/// of committed ids) and the single-machine replay of those commits.
pub struct Reference {
    /// The 1-worker report.
    pub w1: ServeReport,
    /// Exact latencies (cycles) of committed requests, ascending.
    pub latencies: Vec<u64>,
    /// Replayed table digest (hardened build).
    pub digest: u64,
    /// Simulated cycles of the replay on the hardened build.
    pub hardened_cycles: u64,
    /// Simulated cycles of the replay on the native build.
    pub native_cycles: u64,
}

/// Build the reference of one instance, checking the 1-worker run
/// against the replay.
pub fn reference(b: &Built, inst: &Instance) -> Result<Reference, String> {
    let ring = ServeConfig { workers: 1, trace_events: inst.stream.len() * 16 + 1024, ..inst.cfg.clone() };
    let w1 = serve_stream(b.hardened.program(), &b.app, &inst.stream, &ring);
    if w1.trace.dropped_events != 0 {
        return Err(format!("event ring dropped {} events", w1.trace.dropped_events));
    }
    let mut commits: Vec<(u64, u64)> =
        w1.trace.events.iter().filter(|e| e.kind == EventKind::Commit).map(|e| (e.a, e.b)).collect();
    commits.sort_unstable();
    commits.dedup_by_key(|c| c.0);
    if commits.len() as u64 != w1.served {
        return Err(format!("{} distinct commits for {} served requests", commits.len(), w1.served));
    }
    let offered = inst.stream.len() as u64;
    if w1.served + w1.rejected + w1.shed != offered {
        return Err(format!(
            "served {} + rejected {} + shed {} != offered {offered}",
            w1.served, w1.rejected, w1.shed
        ));
    }
    let payloads: Vec<&[u8]> = commits
        .iter()
        .map(|&(id, _)| inst.stream.get(id as usize).filter(|r| r.id == id).map(|r| &r.payload[..]))
        .collect::<Option<_>>()
        .ok_or("a committed id is not in the stream")?;
    let hard = replay(b.hardened.program(), &b.app, inst.cfg.machine, &payloads)?;
    let native = replay(b.native.program(), &b.app, inst.cfg.machine, &payloads)?;
    if hard.table != w1.table_digest {
        return Err(format!(
            "table digest {:#x} != single-machine reference {:#x}",
            w1.table_digest, hard.table
        ));
    }
    if (hard.table, hard.replies) != (native.table, native.replies) {
        return Err("hardened and native replays disagree".into());
    }
    let mut latencies: Vec<u64> = commits.iter().map(|c| c.1).collect();
    latencies.sort_unstable();
    if latencies.len() as u64 != w1.hist.count() {
        return Err("commit events and histogram samples disagree".into());
    }
    for q in [0.5, 0.99] {
        let exact = nearest_rank(&latencies, q);
        let hist = w1.quantile_cycles(q);
        if hist < exact || hist > exact + exact / 8 + 8 {
            return Err(format!("histogram p{q} = {hist} outside the bucket of the exact {exact}"));
        }
    }
    Ok(Reference {
        w1,
        latencies,
        digest: hard.table,
        hardened_cycles: hard.cycles,
        native_cycles: native.cycles,
    })
}

/// Every way `r` differs from the reference (empty when it matches).
pub fn mismatches(r: &ServeReport, reference: &Reference, offered: u64) -> Vec<&'static str> {
    let w1 = &reference.w1;
    let mut bad = Vec::new();
    let mut check = |ok: bool, what| {
        if !ok {
            bad.push(what);
        }
    };
    check(r.table_digest == reference.digest, "table digest");
    check(r.served + r.rejected + r.shed == offered, "served + rejected + shed == offered");
    check((r.served, r.rejected, r.shed) == (w1.served, w1.rejected, w1.shed), "admission counts");
    check(r.outcomes == w1.outcomes && r.injected == w1.injected, "Table-I outcome counts");
    check(r.hist == w1.hist, "latency histogram");
    check(r.slo_met == w1.slo_met && r.makespan_cycles == w1.makespan_cycles, "SLO accounting");
    check(r.ledger == w1.ledger, "cycle ledger");
    bad
}

/// Simulated-clock metrics of the references, pooled over instances.
pub fn sim_values(refs: &[Reference], v: &mut Values) {
    let us = |c: f64| c / FREQ_HZ * 1e6;
    let mut lat: Vec<u64> = refs.iter().flat_map(|r| r.latencies.iter().copied()).collect();
    lat.sort_unstable();
    let n = lat.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Reference) -> f64| refs.iter().map(f).sum::<f64>() / refs.len().max(1) as f64;
    v.insert("sim_mean_us", us(lat.iter().sum::<u64>() as f64 / n));
    // A flash-crowd tail is set by one transient per stream, so the tail
    // of a pooled sample is set by the worst stream: report the typical
    // stream's p99, the median over streams.
    let p99s: Vec<f64> = refs.iter().map(|r| nearest_rank(&r.latencies, 0.99) as f64).collect();
    v.insert("sim_p99_us", us(median(&p99s)));
    v.insert("sim.p50_cycles", nearest_rank(&lat, 0.50) as f64);
    let (hc, nc) = refs.iter().fold((0, 0), |(h, n), r| (h + r.hardened_cycles, n + r.native_cycles));
    v.insert("sim_overhead_x", hc as f64 / nc.max(1) as f64);
    v.insert("sim_availability", mean(&|r| r.w1.availability()));
    v.insert("sim_goodput_rps", mean(&|r| r.w1.goodput_rps()));
    let injected: u64 = refs.iter().map(|r| r.w1.injected).sum();
    let sdc: u64 = refs.iter().map(|r| r.w1.count(Outcome::Sdc)).sum();
    v.insert("sim_sdc_pct", if injected == 0 { 0.0 } else { sdc as f64 / injected as f64 * 100.0 });
    v.insert("sim.latency_samples", lat.len() as f64);
    let fewest = refs.iter().map(|r| beyond(r.latencies.len(), 0.99)).min().unwrap_or(0);
    v.insert("sim.beyond_p99", fewest as f64);
}

/// The simulated-clock values of `spec` at `requests` per stream: one
/// set-up and the references, without timed repetitions.
///
/// # Errors
/// Returns the first failed reference check.
pub fn simulate(spec: &ServingSpec, requests: u64, seed: u64) -> Result<Values, String> {
    let b = setup(spec, requests, seed, &mut Spans::new(false, spec.name), 0);
    let refs: Vec<Reference> = b.instances.iter().map(|i| reference(&b, i)).collect::<Result<_, _>>()?;
    let mut v = Values::new();
    sim_values(&refs, &mut v);
    Ok(v)
}

/// Run `spec` once: set-up, reference, timed repetitions (and, traced,
/// the layer probes).
pub fn run(spec: &ServingSpec, o: &Opts) -> Report {
    let requests = o.ops.unwrap_or(spec.requests);
    let mut spans = Spans::new(o.trace, spec.name);
    let mut out = Report::new();
    let timed_setup = |spans: &mut Spans, rep: u32| {
        let t = Instant::now();
        let b = spans.time("setup", rep, |s| setup(spec, requests, o.seed, s, rep));
        (t.elapsed().as_secs_f64(), b)
    };

    let mut setups = Vec::new();
    let mut built = None;
    for rep in 0..crate::SETUP_REPS {
        let (secs, b) = timed_setup(&mut spans, rep);
        setups.push(secs);
        if spans.on() {
            let prepared = elzar::prepare(&b.app.module, &Mode::elzar_default());
            spans.time("vm.lower", rep, |_| Program::lower(&prepared));
        }
        built = Some(b);
    }
    let b = built.expect("at least one set-up");
    let offered: u64 = b.instances.iter().map(|i| i.stream.len() as u64).sum();

    let refs = match catch_unwind(AssertUnwindSafe(|| b.instances.iter().map(|i| reference(&b, i)).collect()))
    {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return out.fail_all(offered, format!("reference check failed: {e}")),
        Err(_) => return out.fail_all(offered, "reference run panicked".into()),
    };
    let refs: Vec<Reference> = refs;
    out.attempted += offered;
    sim_values(&refs, &mut out.values);
    if out.values["sim.beyond_p99"] < 10.0 {
        out.note(format!("a stream has fewer than 10 latency samples beyond its p99 ({requests} requests)"));
    }

    let prog = b.hardened.program();
    // One timed, checked serve call of stream `k`; `traced` wraps it in
    // a span.
    let call = |spans: &mut Spans, i: u32, k: usize, traced: bool, out: &mut Report| -> Option<f64> {
        let (inst, reference) = (&b.instances[k], &refs[k]);
        let n = inst.stream.len() as u64;
        let cfg = ServeConfig { workers: WORKERS, trace_events: 0, ..inst.cfg.clone() };
        let serve = || catch_unwind(AssertUnwindSafe(|| serve_stream(prog, &b.app, &inst.stream, &cfg)));
        let (us, r) =
            if traced { time_us(|| spans.time("serve.run", i, |_| serve())) } else { time_us(serve) };
        out.attempted += n;
        let bad = match r {
            Ok(r) => mismatches(&r, reference, n),
            Err(_) => vec!["serve call panicked"],
        };
        if bad.is_empty() {
            Some(n as f64 / (us / 1e6))
        } else {
            out.failed += n;
            out.note(format!("repetition {i} (stream {k}) failed: {}", bad.join(", ")));
            None
        }
    };
    let reps = crate::repeat(
        o,
        b.instances.len(),
        &mut spans,
        setups,
        |spans, rep| timed_setup(spans, rep).0,
        |spans, i, k, traced| call(spans, i, k, traced, &mut out),
    );
    out.record(o.trace, &reps);
    if o.trace {
        layers(&b, &refs, &mut spans, &mut out.values);
        out.spans = Some(spans.to_json(o.seed));
    }
    out
}

/// The traced run's per-layer measurements.
fn layers(b: &Built, refs: &[Reference], spans: &mut Spans, v: &mut Values) {
    let med = |spans: &Spans, name| median(&spans.durations_us(name));
    v.insert("apps.build_us", med(spans, "apps.build"));
    v.insert("serve.gen_us", med(spans, "serve.gen"));
    v.insert("vm.lower_us", med(spans, "vm.lower"));
    let prog = b.hardened.program();
    let cfg = &b.instances[0].cfg;
    probes::passes(&b.hardened, v);
    probes::cpu(spans, v);
    probes::memory(prog, cfg.machine, spans, v);

    let shards = cfg.shards.max(1);
    let mine: Vec<&Request> = b.instances[0]
        .stream
        .iter()
        .filter(|r| elzar_serve::gen::shard_of(r.key, shards) == 0)
        .take(256)
        .collect();
    let k = cfg.snapshot_interval.max(1) as usize;
    probes::shard_machine(prog, &b.app, cfg.machine, &mine, cfg.batch_max as usize, k, spans, v);

    // The serve call of the first stream at 1 and 2 workers, event ring
    // off; the counts below are that stream's, so the estimated split
    // compares like with like.
    let inst = &b.instances[0];
    let run_us = |workers: u32, spans: &mut Spans| {
        let name = if workers == 1 { "serve.run_w1" } else { "serve.run_w2" };
        let cfg = ServeConfig { workers, trace_events: 0, ..inst.cfg.clone() };
        let samples: Vec<f64> = (0..3)
            .map(|i| time_us(|| spans.time(name, i, |_| serve_stream(prog, &b.app, &inst.stream, &cfg))).0)
            .collect();
        median(&samples)
    };
    let w1 = run_us(1, spans);
    let w2 = run_us(WORKERS, spans);
    v.insert("serve.run_us_w1", w1);
    v.insert("serve.run_us_w2", w2);
    v.insert("serve.worker_speedup", w1 / w2);

    let r = &refs[0].w1;
    let (served, injected, restarts) = (r.served, r.injected, r.restarts);
    let (snapshots, batches, scale_ups) = (r.snapshots, r.batches, r.scale_ups);
    let migration_replays = r.migration_replays;
    v.insert("serve.snapshots", snapshots as f64);
    v.insert("serve.batches", batches as f64);
    let batched = served - injected.min(served);
    v.insert("serve.mean_batch", if batches == 0 { 0.0 } else { batched as f64 / batches as f64 });
    v.insert("serve.injected", injected as f64);
    v.insert("serve.restarts", restarts as f64);
    v.insert("serve.promotions", r.promotions as f64);
    v.insert("serve.migrated_slots", r.migrated_slots as f64);
    v.insert("serve.migration_replays", migration_replays as f64);
    v.insert("serve.scale_ups", scale_ups as f64);
    v.insert("serve.peak_shards", f64::from(r.peak_shards));
    v.insert("serve.rejected", r.rejected as f64);
    v.insert("serve.shed", r.shed as f64);
    for c in Category::ALL {
        v.insert(crate::ledger_metric(c), r.ledger.get(c) as f64);
    }

    // Estimated host-time split of the 2-worker serve calls: count of
    // each layer call × its measured per-call cost, over the call time.
    // Clones: periodic snapshots, one fault twin per injection, one
    // restore per restart, a donor clone plus a snapshot per joiner.
    let clones = (snapshots + injected + restarts + 2 * scale_ups) as f64;
    let per_req = if cfg.batch_adaptive || cfg.batch_size > 1 {
        v["vm.batch_us_per_req"]
    } else {
        v["vm.reenter_us_per_req"]
    };
    let mirror = if cfg.replicas { served as f64 * v["vm.reenter_us_per_req"] } else { 0.0 };
    let reenter = served as f64 * per_req + mirror;
    // A twin or a restart replays half a snapshot interval on average.
    let replays = (injected + restarts) as f64 * k as f64 / 2.0 + migration_replays as f64;
    let clone_share = clones * v["vm.clone_us"] / w2;
    let reenter_share = reenter / w2;
    let replay_share = replays * v["fault.replay_us_per_payload"] / w2;
    v.insert("serve.est_clone_share", clone_share);
    v.insert("serve.est_reenter_share", reenter_share);
    v.insert("serve.est_replay_share", replay_share);
    v.insert("serve.unattributed_share", 1.0 - clone_share - reenter_share - replay_share);

    for name in [
        "fault.golden_us",
        "fault.run_plans_us_per_run_w1",
        "fault.run_plans_us_per_run_w2",
        "fault.worker_speedup",
    ] {
        v.insert(name, 0.0);
    }
}

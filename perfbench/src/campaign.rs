//! The `campaign` workload: the Fig. 13 path on hardened `kmeans` (tiny
//! scale, 2 simulated threads), a checkpointed fault-injection campaign
//! through `Artifact::campaign` at 2 host workers. An operation is one
//! classified injection run.

use crate::metrics::Values;
use crate::probes::{self, ENGINES};
use crate::spans::Spans;
use crate::stats::{beyond, median, median_us, nearest_rank, time_us};
use crate::{Opts, Report};
use elzar::{Artifact, Mode};
use elzar_apps::FREQ_HZ;
use elzar_fault::{inject_one, sample_plans, CampaignConfig, GoldenRun, Outcome, OutcomeClass};
use elzar_vm::{Machine, MachineConfig, Program, RunOutcome};
use elzar_workloads::{by_name, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Injection runs per campaign.
pub const PLANS: u64 = 125;

/// Campaigns per run, each with its own plan seed derived from the
/// workload seed: 1,000 injection runs in all, enough for ≥ 10 samples
/// beyond p99. Timed repetitions cycle through them.
pub const CAMPAIGNS: u32 = 8;

/// Simulated threads, as in the paper's injection campaigns.
pub const SIM_THREADS: u32 = 2;

/// Hang budget multiple (the library default).
const HANG_FACTOR: u64 = 20;

/// What set-up produces.
pub struct Built {
    input: Vec<u8>,
    hardened: Artifact,
    golden: Arc<GoldenRun>,
    native_golden: Arc<GoldenRun>,
    /// `(plan seed, plans)` per campaign.
    campaigns: Vec<(u64, Vec<(u64, u32)>)>,
    mc: MachineConfig,
}

/// Set-up: build kmeans, both artifacts, both golden runs and the plans.
pub fn setup(runs: u64, seed: u64, spans: &mut Spans, rep: u32) -> Built {
    let w = by_name("kmeans").expect("kmeans is a registered workload");
    let built = spans.time("apps.build", rep, |_| w.build(Scale::Tiny));
    let hardened =
        spans.time("core.artifact_build", rep, |_| Artifact::build(&built.module, &Mode::elzar_default()));
    let native = spans
        .time("core.artifact_build_native", rep, |_| Artifact::build(&built.module, &Mode::NativeNoSimd));
    let mc = MachineConfig { threads: SIM_THREADS, ..MachineConfig::default() };
    let golden = spans.time("fault.golden", rep, |_| hardened.golden(&built.input, &mc));
    let native_golden = spans.time("fault.golden_native", rep, |_| native.golden(&built.input, &mc));
    let campaigns = spans.time("fault.plans", rep, |_| {
        (0..CAMPAIGNS)
            .map(|i| {
                let seed = crate::serving::instance_seed(seed, i);
                (seed, sample_plans(seed, golden.eligible, runs as u32))
            })
            .collect()
    });
    Built { input: built.input, hardened, golden, native_golden, campaigns, mc }
}

fn config(b: &Built, k: usize, workers: u32) -> CampaignConfig {
    let (seed, plans) = &b.campaigns[k];
    CampaignConfig {
        runs: plans.len() as u32,
        seed: *seed,
        workers,
        hang_factor: HANG_FACTOR,
        machine: b.mc,
        ..CampaignConfig::default()
    }
}

/// Classify every plan independently of the campaign driver: advance
/// one fault-free base machine in ascending injection order and inject
/// each plan on a clone of it. Returns each plan's outcome and
/// simulated cycles, in plan order.
fn classify_plans(
    prog: &Program,
    b: &Built,
    plans: &[(u64, u32)],
    spans: &mut Spans,
) -> Result<Vec<(Outcome, u64)>, String> {
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&i| plans[i].0);
    let mut base = Machine::start(prog, "main", &b.input, b.mc);
    let mut out = vec![None; plans.len()];
    for (n, i) in order.into_iter().enumerate() {
        let (index, bit) = plans[i];
        while base.eligible_so_far() + base.eligible_round_bound() < index {
            if let Some(o) = base.run_round() {
                return Err(format!("fault-free base ended ({o:?}) before eligible instruction {index}"));
            }
        }
        let twin = spans.time("vm.clone", n as u32, |_| base.clone());
        let (o, r) = spans
            .time("fault.inject_one", n as u32, |_| inject_one(twin, &b.golden, index, bit, HANG_FACTOR));
        out[i] = Some((o, r.cycles));
    }
    Ok(out.into_iter().map(|o| o.expect("every plan classified")).collect())
}

fn counts(outcomes: &[(Outcome, u64)]) -> [u64; 5] {
    let mut c = [0; 5];
    for (o, _) in outcomes {
        c[o.index()] += 1;
    }
    c
}

/// Run the campaign workload once.
pub fn run(o: &Opts) -> Report {
    let runs = o.ops.unwrap_or(PLANS);
    let mut spans = Spans::new(o.trace, "campaign");
    let mut out = Report::new();
    let timed_setup = |spans: &mut Spans, rep: u32| {
        let t = Instant::now();
        let b = spans.time("setup", rep, |s| setup(runs, o.seed, s, rep));
        (t.elapsed().as_secs_f64(), b)
    };

    let mut setups = Vec::new();
    let mut built = None;
    for rep in 0..crate::SETUP_REPS {
        let (secs, b) = timed_setup(&mut spans, rep);
        setups.push(secs);
        if spans.on() {
            let w = by_name("kmeans").expect("kmeans is a registered workload");
            let prepared = elzar::prepare(&w.build(Scale::Tiny).module, &Mode::elzar_default());
            spans.time("vm.lower", rep, |_| Program::lower(&prepared));
        }
        built = Some(b);
    }
    let b = built.expect("at least one set-up");
    let total: u64 = b.campaigns.iter().map(|c| c.1.len() as u64).sum();

    // The reference: native and hardened agree fault-free, and every
    // plan is classified by the independent injector.
    if b.golden.output != b.native_golden.output || b.golden.outcome != b.native_golden.outcome {
        return out.fail_all(total, "hardened and native golden outputs differ".into());
    }
    let prog = b.hardened.program();
    let mut ref_spans = Spans::new(o.trace, "campaign");
    let reference: Result<Vec<Vec<(Outcome, u64)>>, String> = match catch_unwind(AssertUnwindSafe(|| {
        b.campaigns.iter().map(|(_, plans)| classify_plans(prog, &b, plans, &mut ref_spans)).collect()
    })) {
        Ok(r) => r,
        Err(_) => Err("reference injector panicked".into()),
    };
    let reference = match reference {
        Ok(r) => r,
        Err(e) => return out.fail_all(total, format!("reference injector failed: {e}")),
    };
    out.attempted += total;
    let expected: Vec<[u64; 5]> = reference.iter().map(|r| counts(r)).collect();

    let all: Vec<(Outcome, u64)> = reference.iter().flatten().copied().collect();
    let mut cycles: Vec<u64> = all.iter().map(|r| r.1).collect();
    cycles.sort_unstable();
    let n = all.len().max(1) as f64;
    let us = |c: f64| c / FREQ_HZ * 1e6;
    out.values.insert("sim_mean_us", us(cycles.iter().sum::<u64>() as f64 / n));
    out.values.insert("sim_p99_us", us(nearest_rank(&cycles, 0.99) as f64));
    out.values.insert("sim.p50_cycles", nearest_rank(&cycles, 0.50) as f64);
    out.values.insert("sim_overhead_x", b.golden.cycles as f64 / b.native_golden.cycles.max(1) as f64);
    let crashed = all.iter().filter(|r| r.0.class() == OutcomeClass::Crashed).count();
    out.values.insert("sim_availability", 1.0 - crashed as f64 / n);
    let sdc = all.iter().filter(|r| r.0 == Outcome::Sdc).count();
    out.values.insert("sim_sdc_pct", sdc as f64 / n * 100.0);
    out.values.insert("sim_goodput_rps", 0.0);
    out.values.insert("sim.latency_samples", all.len() as f64);
    out.values.insert("sim.beyond_p99", beyond(all.len(), 0.99) as f64);

    // One timed, checked campaign `k` at `workers`; `traced` wraps it in
    // a span.
    let campaign = |spans: &mut Spans, i: u32, k: usize, workers: u32, traced: bool, out: &mut Report| {
        let cfg = config(&b, k, workers);
        let runs = u64::from(cfg.runs);
        let call = || catch_unwind(AssertUnwindSafe(|| b.hardened.campaign(&b.input, &cfg)));
        let (t_us, r) = if traced {
            let name = if workers == 1 { "fault.campaign_w1" } else { "fault.campaign_w2" };
            time_us(|| spans.time(name, i, |_| call()))
        } else {
            time_us(call)
        };
        out.attempted += runs;
        match r {
            Ok(r) if r.counts == expected[k] && r.total() == runs => Some(runs as f64 / (t_us / 1e6)),
            Ok(r) => {
                out.failed += runs;
                out.note(format!(
                    "repetition {i} (campaign {k}, {workers} workers): counts {:?} != reference {:?}",
                    r.counts, expected[k]
                ));
                None
            }
            Err(_) => {
                out.failed += runs;
                out.note(format!("repetition {i} (campaign {k}) panicked"));
                None
            }
        }
    };
    let workers = crate::serving::WORKERS;
    let reps = crate::repeat(
        o,
        b.campaigns.len(),
        &mut spans,
        setups,
        |spans, rep| timed_setup(spans, rep).0,
        |spans, i, k, traced| campaign(spans, i, k, workers, traced, &mut out),
    );
    out.record(o.trace, &reps);

    if o.trace {
        // Campaign 0 at 1 and at 2 workers: the campaign's host fan-out.
        let w1 = campaign(&mut spans, reps.count, 0, 1, true, &mut out).map_or(0.0, |rate| 1e6 / rate);
        let w2 =
            campaign(&mut spans, reps.count + 1, 0, workers, true, &mut out).map_or(0.0, |rate| 1e6 / rate);
        out.values.insert("fault.run_plans_us_per_run_w1", w1);
        out.values.insert("fault.run_plans_us_per_run_w2", w2);
        out.values.insert("fault.worker_speedup", if w2 > 0.0 { w1 / w2 } else { 0.0 });
        layers(&b, &ref_spans, &mut spans, &mut out.values);
        out.spans = Some(spans.to_json(o.seed));
    }
    out
}

/// The traced run's per-layer measurements.
fn layers(b: &Built, ref_spans: &Spans, spans: &mut Spans, v: &mut Values) {
    let med = |spans: &Spans, name| median(&spans.durations_us(name));
    v.insert("apps.build_us", med(spans, "apps.build"));
    v.insert("vm.lower_us", med(spans, "vm.lower"));
    v.insert("fault.golden_us", med(spans, "fault.golden"));
    v.insert("serve.gen_us", 0.0);
    probes::passes(&b.hardened, v);
    probes::cpu(spans, v);
    let prog = b.hardened.program();
    probes::memory(prog, b.mc, spans, v);

    let boot =
        spans.time("vm.boot", 0, |_| median_us(5, || (), |_| Machine::start(prog, "main", &b.input, b.mc)));
    v.insert("vm.boot_us", boot);
    // A checkpoint halfway through the golden run: what each plan clones.
    let mut mid = Machine::start(prog, "main", &b.input, b.mc);
    while mid.eligible_so_far() < b.golden.eligible / 2 {
        if mid.run_round().is_some() {
            break;
        }
    }
    v.insert("vm.clone_us", med(ref_spans, "vm.clone"));
    v.insert("memory.resident_bytes", mid.memory().resident_bytes() as f64);
    v.insert("fault.inject_us", med(ref_spans, "fault.inject_one"));
    v.insert("engine.steps_per_req", b.golden.steps as f64);
    for (kind, name) in ENGINES {
        let mc = MachineConfig { engine: kind, ..b.mc };
        let us = spans.time("engine.run", 0, |_| {
            median_us(
                3,
                || Machine::start(prog, "main", &b.input, mc),
                |mut m| {
                    let o = m.run_to_completion();
                    assert!(matches!(o, RunOutcome::Exited(_)), "golden run exits on every engine");
                },
            )
        });
        v.insert(name, b.golden.steps as f64 / (us / 1e6));
    }
    for name in [
        "vm.reenter_us_per_req",
        "vm.batch_us_per_req",
        "fault.replay_us_per_payload",
        "serve.run_us_w1",
        "serve.run_us_w2",
        "serve.worker_speedup",
        "serve.snapshots",
        "serve.batches",
        "serve.mean_batch",
        "serve.injected",
        "serve.restarts",
        "serve.promotions",
        "serve.migrated_slots",
        "serve.migration_replays",
        "serve.scale_ups",
        "serve.peak_shards",
        "serve.rejected",
        "serve.shed",
        "serve.est_clone_share",
        "serve.est_reenter_share",
        "serve.est_replay_share",
        "serve.unattributed_share",
    ] {
        v.insert(name, 0.0);
    }
    for c in elzar_serve::Category::ALL {
        v.insert(crate::ledger_metric(c), 0.0);
    }
}

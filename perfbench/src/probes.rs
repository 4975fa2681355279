//! Layer probes: each times one public call of one crate, from the
//! benchmark's own code, on the workload's own program and inputs.

use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats::{median, median_us, time_us};
use elzar::Artifact;
use elzar_apps::ServeApp;
use elzar_cpu::{Core, SharedL3};
use elzar_fault::{inject_one, replay_suffix, GoldenRun};
use elzar_serve::gen::Request;
use elzar_vm::{EngineKind, Machine, MachineConfig, Memory, Program};

/// Samples per median of the fast probes.
const SAMPLES: usize = 15;

/// The engines `engine.<kind>.steps_per_s` is reported for.
pub const ENGINES: [(EngineKind, &str); 3] = [
    (EngineKind::Reference, "engine.reference.steps_per_s"),
    (EngineKind::TraceScalar, "engine.trace_scalar.steps_per_s"),
    (EngineKind::TraceSimd, "engine.trace_simd.steps_per_s"),
];

/// Pass-pipeline stats recorded by `Artifact::build`.
pub fn passes(a: &Artifact, v: &mut Values) {
    let elzar: u64 = a.pass_stats().iter().filter(|p| p.name == "elzar").map(|p| p.micros).sum();
    v.insert("passes.elzar_us", elzar as f64);
    let insts = a.pass_stats().last().map_or(0, |p| p.insts_after);
    v.insert("passes.insts", insts as f64);
}

/// Timing-model construction: cloning the 32 MiB shared-L3 model and
/// building a core.
pub fn cpu(spans: &mut Spans, v: &mut Values) {
    let l3 = SharedL3::haswell();
    let clone = spans.time("cpu.l3_clone", 0, |_| median_us(SAMPLES, || (), |_| l3.clone()));
    v.insert("cpu.l3_clone_us", clone);
    // One Core::new is well under a microsecond: time batches of 100.
    let core = spans.time("cpu.core_new", 0, |_| {
        median_us(SAMPLES, || (), |_| (0..100).map(|_| Core::new()).collect::<Vec<_>>()) / 100.0
    });
    v.insert("cpu.core_new_us", core);
}

/// Address-space construction plus the first store into a thread
/// stack, which materializes that stack.
pub fn memory(prog: &Program, mc: MachineConfig, spans: &mut Spans, v: &mut Values) {
    let us = spans.time("memory.stack_materialize", 0, |_| {
        median_us(
            SAMPLES,
            || (),
            |_| {
                let mut mem = Memory::new(mc.mem_size, &prog.globals, &[], mc.max_threads);
                let top = mem.stack_top(1);
                mem.store(top - 8, 8, 1).expect("a thread stack accepts a store below its top");
                mem
            },
        )
    });
    v.insert("memory.stack_materialize_us", us);
}

/// Boot a serving shard machine: start the init entry and run it.
fn boot<'p>(prog: &'p Program, app: &ServeApp, mc: MachineConfig) -> Machine<'p> {
    let mut m = Machine::start(prog, app.init_entry, &[], mc);
    m.run_to_completion();
    m
}

/// Per-request VM, engine and fault-path costs on one shard's own
/// routed requests `reqs`: boot, clone, single and batched re-entry,
/// steps/s per engine, suffix replay of `k` payloads, and one injected
/// run on a twin.
#[allow(clippy::too_many_arguments)]
pub fn shard_machine(
    prog: &Program,
    app: &ServeApp,
    mc: MachineConfig,
    reqs: &[&Request],
    batch_max: usize,
    k: usize,
    spans: &mut Spans,
    v: &mut Values,
) {
    let mut mc = mc;
    mc.fault = None;
    let n = reqs.len().max(1) as f64;
    let boot_us = spans.time("vm.boot", 0, |_| median_us(5, || (), |_| boot(prog, app, mc)));
    v.insert("vm.boot_us", boot_us);
    let booted = boot(prog, app, mc);
    v.insert("vm.clone_us", spans.time("vm.clone", 0, |_| median_us(SAMPLES, || (), |_| booted.clone())));
    v.insert("memory.resident_bytes", booted.memory().resident_bytes() as f64);

    let single = |m: &mut Machine| {
        for r in reqs {
            m.reenter(app.request_entry, &r.payload);
            m.run_to_completion();
        }
    };
    let reenter = spans.time("vm.reenter", 0, |_| median_us(3, || booted.clone(), |mut m| single(&mut m)));
    v.insert("vm.reenter_us_per_req", reenter / n);
    let batched = spans.time("vm.reenter_batch", 0, |_| {
        median_us(
            3,
            || booted.clone(),
            |mut m| {
                for chunk in reqs.chunks(batch_max.max(1)) {
                    let parts: Vec<&[u8]> = chunk.iter().map(|r| &r.payload[..]).collect();
                    m.reenter_batch(app.batch_entry, &parts);
                    m.run_to_completion();
                }
            },
        )
    });
    v.insert("vm.batch_us_per_req", batched / n);

    // Steps per request and steps per host second on each engine.
    let mut steps = 0u64;
    let mut m = booted.clone();
    for r in reqs {
        m.reenter(app.request_entry, &r.payload);
        let o = m.run_to_completion();
        steps += m.result(o).steps;
    }
    v.insert("engine.steps_per_req", steps as f64 / n);
    for (kind, name) in ENGINES {
        let base = boot(prog, app, MachineConfig { engine: kind, ..mc });
        let us = spans.time("engine.run", 0, |_| median_us(3, || base.clone(), |mut m| single(&mut m)));
        v.insert(name, steps as f64 / (us / 1e6));
    }

    // Suffix replay of one snapshot interval onto a clone.
    let payloads: Vec<&[u8]> = reqs.iter().take(k).map(|r| &r.payload[..]).collect();
    let replay = spans.time("fault.replay_suffix", 0, |_| {
        median_us(
            5,
            || booted.clone(),
            |mut m| {
                replay_suffix(&mut m, app.request_entry, &payloads)
                    .expect("committed requests replay cleanly")
            },
        )
    });
    v.insert("fault.replay_us_per_payload", replay / payloads.len().max(1) as f64);

    // One injected run per request on a twin, classified against the
    // request's own fault-free run.
    let samples: Vec<f64> = reqs
        .iter()
        .take(SAMPLES)
        .enumerate()
        .map(|(i, r)| {
            let mut g = booted.clone();
            g.reenter(app.request_entry, &r.payload);
            let o = g.run_to_completion();
            let res = g.result(o);
            let golden = GoldenRun {
                output: res.output,
                outcome: o,
                eligible: res.eligible,
                steps: res.steps,
                cycles: res.cycles,
            };
            let mut twin = booted.clone();
            twin.reenter(app.request_entry, &r.payload);
            let index = (golden.eligible / 2).max(1);
            let bit = (i as u32 * 37) % 256;
            spans.time("fault.inject_one", i as u32, |_| {
                time_us(|| inject_one(twin, &golden, index, bit, 20)).0
            })
        })
        .collect();
    v.insert("fault.inject_us", median(&samples));
}

//! Execution-engine shoot-out: the same hardened artifact run by the
//! reference interpreter and by the superblock trace engine, side by
//! side.
//!
//! Two things are demonstrated at once:
//!
//! * **Throughput** — host steps/second per engine, native and
//!   ELZAR-hardened. The trace engine's win comes from pre-decoded
//!   superblocks plus pattern fusion of the §IV-B check idioms.
//! * **Bit-identity** — every engine must report the *same* simulated
//!   cycles, retired steps and output bytes (asserted below), and a
//!   seeded SEU campaign must classify identically: the Figure-8
//!   TMR check (`rot; xor; ptest; branch` — fused to one dispatch
//!   in-trace) fires live and corrects the injected flips.
//!
//! ```sh
//! cargo run --release --example engine_bench
//! ```

use elzar_suite::elzar::{Artifact, Mode};
use elzar_suite::elzar_fault::{CampaignConfig, Outcome};
use elzar_suite::elzar_ir::builder::{c64, FuncBuilder};
use elzar_suite::elzar_ir::{BinOp, Builtin, Module, Ty};
use elzar_suite::elzar_vm::{EngineKind, MachineConfig};
use std::time::Instant;

fn kernel(iters: i64) -> Module {
    let mut m = Module::new("engine-bench");
    let mut b = FuncBuilder::new("main", vec![], Ty::I64);
    let buf = b.call_builtin(Builtin::Malloc, vec![c64(64 * 8)], Ty::Ptr).unwrap();
    b.counted_loop(c64(0), c64(iters), |b, i| {
        let idx = b.bin(BinOp::And, Ty::I64, i, c64(63));
        let p = b.gep(buf, idx, 8);
        let v = b.load(Ty::I64, p);
        let x = b.mul(v, c64(3));
        let y = b.add(x, i);
        b.store(Ty::I64, y, p);
    });
    let p0 = b.gep(buf, c64(0), 8);
    let v = b.load(Ty::I64, p0);
    b.call_builtin(Builtin::OutputI64, vec![v.into()], Ty::Void);
    b.ret(c64(0));
    m.add_func(b.finish());
    m
}

/// Steps/second of `artifact` under `engine` over a short timed window.
fn rate(artifact: &Artifact, engine: EngineKind) -> f64 {
    let cfg = MachineConfig { engine, ..MachineConfig::default() };
    artifact.run(&[], cfg); // warm-up
    let mut steps = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_millis() < 200 {
        steps += artifact.run(&[], cfg).steps;
    }
    steps as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let engines = [EngineKind::Reference, EngineKind::Trace];
    let native = Artifact::build(&kernel(20_000), &Mode::NativeNoSimd);
    let elzar = Artifact::build(&kernel(20_000), &Mode::elzar_default());

    println!(
        "{:<14} {:>16} {:>16} {:>14} {:>14}",
        "engine", "native steps/s", "elzar steps/s", "sim cycles", "sim steps"
    );
    let base = elzar.run(&[], MachineConfig::default());
    let mut ref_elzar_rate = 0.0;
    for engine in engines {
        let cfg = MachineConfig { engine, ..MachineConfig::default() };
        let r = elzar.run(&[], cfg);
        // The engines are drop-in replacements: every simulated
        // observable must be bit-identical to the reference run.
        assert_eq!(r.cycles, base.cycles, "{engine:?}: simulated cycles diverged");
        assert_eq!(r.steps, base.steps, "{engine:?}: retired steps diverged");
        assert_eq!(r.output, base.output, "{engine:?}: output bytes diverged");
        let nr = rate(&native, engine);
        let er = rate(&elzar, engine);
        if engine == EngineKind::Reference {
            ref_elzar_rate = er;
        }
        println!(
            "{:<14} {:>14.1}M {:>14.1}M {:>14} {:>14}",
            engine.name(),
            nr / 1e6,
            er / 1e6,
            r.cycles,
            r.steps
        );
    }
    println!();

    // Live Figure-8 check: inject real SEUs and let the fused in-trace
    // check catch them. The outcome distribution must not depend on
    // which engine executed the run.
    let campaign = |engine: EngineKind| {
        elzar.campaign(
            &[],
            &CampaignConfig {
                runs: 120,
                seed: 7,
                machine: MachineConfig { engine, ..MachineConfig::default() },
                ..Default::default()
            },
        )
    };
    let base = campaign(EngineKind::Reference);
    let r = campaign(EngineKind::Trace);
    assert_eq!(r.counts, base.counts, "trace: campaign outcomes diverged");
    assert!(r.rate(Outcome::ElzarCorrected) > 0.0, "trace: the Figure-8 check never fired");
    println!(
        "figure-8 check live under trace engine: {:.1}% of {} injected \
         faults corrected, outcome counts bit-identical to reference",
        base.rate(Outcome::ElzarCorrected) * 100.0,
        120
    );
    let trace_rate = rate(&elzar, EngineKind::Trace);
    println!("hardened-mode speedup (trace vs reference): {:.2}x", trace_rate / ref_elzar_rate);
}

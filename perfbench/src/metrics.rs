//! The metric registry: every metric the benchmark reports, with its
//! unit, direction and clock, and the renderer of the final JSON line.
//!
//! Host-clock metrics say how long *this program* takes on the host;
//! simulated-clock metrics (`sim_*`, `ledger.*`) say what the modelled
//! AVX machine and service do. The two are never mixed in one number:
//! a host-only optimisation must leave every simulated value identical.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The label `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a metric is read from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Host wall clock or host memory: what the simulator costs.
    Host,
    /// Simulated time or simulated outcomes: what the modelled system does.
    Sim,
    /// A count of work done, read from a report or a machine.
    Count,
}

/// One metric's identity.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
}

const fn m(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric { name, unit, better, clock }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Sim};

/// End-to-end metrics, reported by every workload's untraced run. An
/// *operation* is one request on the serving workloads and one
/// classified injection run on `campaign`.
pub const END_TO_END: [Metric; 7] = [
    m("host_ops_per_s", "ops/s", Higher, Host),
    m("setup_s", "s", Lower, Host),
    m("peak_rss_mib", "MiB", Lower, Host),
    m("sim_mean_us", "us", Lower, Sim),
    m("sim_p99_us", "us", Lower, Sim),
    m("sim_overhead_x", "x", Lower, Sim),
    m("sim_availability", "fraction", Higher, Sim),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [Metric; 61] = [
    m("apps.build_us", "us", Lower, Host),
    m("serve.gen_us", "us", Lower, Host),
    m("vm.lower_us", "us", Lower, Host),
    m("passes.elzar_us", "us", Lower, Host),
    m("passes.insts", "count", Lower, Count),
    m("cpu.l3_clone_us", "us", Lower, Host),
    m("cpu.core_new_us", "us", Lower, Host),
    m("vm.boot_us", "us", Lower, Host),
    m("vm.clone_us", "us", Lower, Host),
    m("memory.resident_bytes", "bytes", Lower, Count),
    m("vm.reenter_us_per_req", "us", Lower, Host),
    m("vm.batch_us_per_req", "us", Lower, Host),
    m("memory.stack_materialize_us", "us", Lower, Host),
    m("engine.reference.steps_per_s", "1/s", Higher, Host),
    m("engine.trace_scalar.steps_per_s", "1/s", Higher, Host),
    m("engine.trace_simd.steps_per_s", "1/s", Higher, Host),
    m("engine.steps_per_req", "count", Lower, Count),
    m("fault.replay_us_per_payload", "us", Lower, Host),
    m("fault.inject_us", "us", Lower, Host),
    m("fault.golden_us", "us", Lower, Host),
    m("fault.run_plans_us_per_run_w1", "us", Lower, Host),
    m("fault.run_plans_us_per_run_w2", "us", Lower, Host),
    m("fault.worker_speedup", "x", Higher, Host),
    m("serve.run_us_w1", "us", Lower, Host),
    m("serve.run_us_w2", "us", Lower, Host),
    m("serve.worker_speedup", "x", Higher, Host),
    m("serve.snapshots", "count", Lower, Count),
    m("serve.batches", "count", Lower, Count),
    m("serve.mean_batch", "count", Higher, Count),
    m("serve.injected", "count", Lower, Count),
    m("serve.restarts", "count", Lower, Count),
    m("serve.promotions", "count", Lower, Count),
    m("serve.migrated_slots", "count", Lower, Count),
    m("serve.migration_replays", "count", Lower, Count),
    m("serve.scale_ups", "count", Lower, Count),
    m("serve.peak_shards", "count", Lower, Count),
    m("serve.rejected", "count", Lower, Count),
    m("serve.shed", "count", Lower, Count),
    m("serve.est_clone_share", "fraction", Lower, Host),
    m("serve.est_reenter_share", "fraction", Lower, Host),
    m("serve.est_replay_share", "fraction", Lower, Host),
    m("serve.unattributed_share", "fraction", Lower, Host),
    m("ledger.execute_cycles", "cycles", Lower, Sim),
    m("ledger.snapshot_cycles", "cycles", Lower, Sim),
    m("ledger.replay_cycles", "cycles", Lower, Sim),
    m("ledger.migration_cycles", "cycles", Lower, Sim),
    m("ledger.downtime_cycles", "cycles", Lower, Sim),
    m("ledger.idle_cycles", "cycles", Lower, Sim),
    m("ledger.mirror_cycles", "cycles", Lower, Sim),
    m("ledger.rebuild_cycles", "cycles", Lower, Sim),
    m("ledger.catchup_cycles", "cycles", Lower, Sim),
    m("ledger.divergence_cycles", "cycles", Lower, Sim),
    m("sim_goodput_rps", "req/s", Higher, Sim),
    m("sim_sdc_pct", "%", Lower, Sim),
    m("sim.p50_cycles", "cycles", Lower, Sim),
    m("sim.latency_samples", "count", Higher, Count),
    m("sim.beyond_p99", "count", Higher, Count),
    m("bench.trace_overhead_pct", "%", Lower, Host),
    m("bench.reps", "count", Higher, Count),
    m("bench.untraced_ops_per_s", "ops/s", Higher, Host),
    m("bench.traced_ops_per_s", "ops/s", Higher, Host),
];

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<Metric> {
    END_TO_END.iter().chain(PER_LAYER.iter()).copied().find(|m| m.name == name)
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Whether `name` matches `[A-Za-z0-9_.-]+` and starts with a letter or
/// digit.
pub fn valid_name(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Render the result line: `correct`, `attempted`, `failed` and the
/// values of every metric in `set` with its unit.
///
/// # Errors
/// Returns the name of a metric of `set` that `values` lacks, or whose
/// value is not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    set: &[Metric],
    values: &Values,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for m in set {
        let v = *values.get(m.name).ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", m.name));
        }
        parts.push(format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

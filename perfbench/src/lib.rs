//! # perfbench
//!
//! The repository's benchmark: each named workload runs in its own
//! process, measures for a given number of host seconds, checks every
//! output, and reports end-to-end metrics (untraced run) or per-layer
//! metrics (traced run) as one JSON line. It times only calls into the
//! public functions of the repository's crates, from its own code.
//!
//! Host-clock metrics (how long this program takes) and simulated-clock
//! metrics (what the modelled AVX machine and service do) are reported
//! side by side and never mixed; see [`metrics`].

pub mod campaign;
pub mod metrics;
pub mod probes;
pub mod serving;
pub mod spans;
pub mod stats;

use elzar_serve::Category;
use metrics::Values;
use spans::Spans;
use std::time::Instant;

/// The workloads, in report order.
pub const WORKLOADS: [&str; 4] = ["kv-a-static", "web-batched", "kv-d-flash", "campaign"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of every tuning run, for re-checking a later claim.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Set-ups before the first timed repetition.
pub const SETUP_REPS: u32 = 7;

/// Further set-ups before each timed repetition, so `setup_s` samples
/// the same host conditions as the timed calls.
pub const SETUPS_PER_REP: u32 = 3;

/// Timed repetitions per run, however short `--seconds` is.
pub const MIN_REPS: u32 = 2;

/// One run's options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Host seconds to keep repeating the timed call for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Stream length or plan count override (tests use short inputs).
    pub ops: Option<u64>,
}

/// What one run produced.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted (requests or injection runs, summed over
    /// checked repetitions).
    pub attempted: u64,
    /// Operations of repetitions that failed an output check.
    pub failed: u64,
    /// Every value measured, end-to-end and per-layer.
    pub values: Values,
    /// Diagnostics for the log.
    pub notes: Vec<String>,
    /// The traced run's spans as JSON.
    pub spans: Option<String>,
    /// Whether the reference itself could be built and checked.
    pub reference_ok: bool,
}

impl Report {
    fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            values: Values::new(),
            notes: Vec::new(),
            spans: None,
            reference_ok: true,
        }
    }

    fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// The reference could not be built: every operation failed.
    fn fail_all(mut self, ops: u64, why: String) -> Report {
        self.attempted += ops;
        self.failed += ops;
        self.reference_ok = false;
        self.note(why);
        self
    }

    /// Record the host-clock results of the timed repetitions.
    fn record(&mut self, trace: bool, reps: &Reps) {
        let rates: Vec<String> = reps.rates.iter().map(|r| format!("{r:.1}")).collect();
        self.note(format!("ops/s per untraced repetition: {}", rates.join(" ")));
        self.values.insert("host_ops_per_s", stats::median(&reps.rates));
        self.values.insert("setup_s", stats::median(&reps.setups));
        self.values.insert("peak_rss_mib", stats::median(&reps.peaks));
        self.values.insert("bench.reps", f64::from(reps.count));
        if trace {
            let (untraced, traced) = (stats::median(&reps.rates), stats::median(&reps.traced_rates));
            self.values.insert("bench.untraced_ops_per_s", untraced);
            self.values.insert("bench.traced_ops_per_s", traced);
            let overhead = if traced > 0.0 { (untraced / traced - 1.0) * 100.0 } else { 0.0 };
            self.values.insert("bench.trace_overhead_pct", overhead);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.reference_ok && self.failed == 0 && self.attempted > 0
    }
}

/// Host measurements of a run's timed repetitions.
#[derive(Debug, Default)]
pub struct Reps {
    /// Operations per host second of each untraced repetition.
    pub rates: Vec<f64>,
    /// The same for span-wrapped repetitions (traced run only).
    pub traced_rates: Vec<f64>,
    /// Resident high-water mark (MiB) during each untraced repetition.
    pub peaks: Vec<f64>,
    /// Set-up times (s), the initial ones included.
    pub setups: Vec<f64>,
    /// Repetitions run.
    pub count: u32,
}

/// Repeat the timed call for `o.seconds` (at least [`MIN_REPS`] times),
/// cycling through `units` inputs, with [`SETUPS_PER_REP`] set-ups
/// before each call. `call(spans, i, unit, traced)` runs and checks one
/// repetition and returns its operations per host second, or `None`
/// when a check failed. The traced run serves each unit twice in a row,
/// plain then span-wrapped, so the two rates see the same inputs and
/// host conditions.
pub fn repeat(
    o: &Opts,
    units: usize,
    spans: &mut Spans,
    setups: Vec<f64>,
    mut setup: impl FnMut(&mut Spans, u32) -> f64,
    mut call: impl FnMut(&mut Spans, u32, usize, bool) -> Option<f64>,
) -> Reps {
    let start = Instant::now();
    let per_unit = if o.trace { 2 } else { 1 };
    let mut r = Reps { setups, ..Reps::default() };
    while r.count < MIN_REPS || start.elapsed().as_secs_f64() < o.seconds {
        let i = r.count;
        for _ in 0..SETUPS_PER_REP {
            r.setups.push(setup(spans, i));
        }
        let unit = (i / per_unit) as usize % units.max(1);
        let traced = o.trace && i % 2 == 1;
        stats::reset_peak_rss();
        let rate = call(spans, i, unit, traced);
        let peak = stats::peak_rss_mib();
        match (rate, traced) {
            (Some(rate), true) => r.traced_rates.push(rate),
            (Some(rate), false) => {
                r.rates.push(rate);
                r.peaks.push(peak);
            }
            (None, _) => {}
        }
        r.count += 1;
    }
    r
}

/// Per-layer metric name of a ledger category.
pub fn ledger_metric(c: Category) -> &'static str {
    match c {
        Category::Execute => "ledger.execute_cycles",
        Category::Snapshot => "ledger.snapshot_cycles",
        Category::Replay => "ledger.replay_cycles",
        Category::Migration => "ledger.migration_cycles",
        Category::Downtime => "ledger.downtime_cycles",
        Category::Idle => "ledger.idle_cycles",
        Category::Mirror => "ledger.mirror_cycles",
        Category::Rebuild => "ledger.rebuild_cycles",
        Category::Catchup => "ledger.catchup_cycles",
        Category::Divergence => "ledger.divergence_cycles",
    }
}

/// Run `workload` once; `None` for an unknown name.
pub fn run(workload: &str, o: &Opts) -> Option<Report> {
    if workload == "campaign" {
        return Some(campaign::run(o));
    }
    serving::spec(workload).map(|spec| serving::run(&spec, o))
}

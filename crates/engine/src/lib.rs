//! # elzar-engine
//!
//! Execution-engine selection and the 256-bit kernel table for the
//! ELZAR reproduction.
//!
//! The reference interpreter in `elzar-vm` steps one lowered instruction
//! at a time. This crate provides everything the faster *trace* engine
//! needs that is independent of the VM itself:
//!
//! - [`EngineKind`]: the user-facing knob (`MachineConfig::engine`, with
//!   an `ELZAR_ENGINE` environment override applied by
//!   [`EngineKind::resolve`]) naming which engine runs a machine.
//! - [`kernels`]: one table of portable 256-bit register kernels, one
//!   function per full-register lane op the trace engine runs whole.
//! - [`Engine`]: the trait a VM implements per engine so callers can
//!   drive quantum-sized execution steps generically.
//!
//! The crate deliberately knows nothing about lowered instructions or
//! timing; `elzar-vm` owns trace formation and execution and uses the
//! table for the data-parallel inner ops. Kernels operate on the raw
//! `[u64; 4]` limb representation of [`elzar_avx::Ymm`], whose lane
//! semantics are the executable specification the table must match.

#![warn(missing_docs)]

pub mod kernels;

/// Which execution engine a [`MachineConfig`](index.html) asks for.
///
/// Both engines are bit-identical in every simulated observable; they
/// differ only in host speed. The `ELZAR_ENGINE` environment variable
/// (`reference` or `trace`) overrides the configured kind at
/// [`EngineKind::resolve`] time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The original per-instruction reference interpreter: the oracle.
    Reference,
    /// Superblock trace execution with fused check idioms and
    /// whole-register kernels. The default.
    #[default]
    Trace,
}

#[allow(non_upper_case_globals)]
impl EngineKind {
    // The benchmark crate (`perfbench/`, changed only together with the
    // benchmark itself) still names the two deleted kernel-table engines
    // in a `const`. Both now mean `Trace`; remove them with the next
    // change to the benchmark. `parse` does not accept their names.
    #[doc(hidden)]
    pub const TraceScalar: EngineKind = EngineKind::Trace;
    #[doc(hidden)]
    pub const TraceSimd: EngineKind = EngineKind::Trace;
}

impl EngineKind {
    /// Parse an engine name as used by `ELZAR_ENGINE`.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s.trim() {
            "reference" => Some(EngineKind::Reference),
            "trace" => Some(EngineKind::Trace),
            _ => None,
        }
    }

    /// Canonical name (round-trips through [`EngineKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Reference => "reference",
            EngineKind::Trace => "trace",
        }
    }

    /// The engine that runs: the `ELZAR_ENGINE` override if set, else
    /// `self`.
    ///
    /// # Panics
    /// Panics if `ELZAR_ENGINE` is set to anything but an engine name,
    /// so a stale or mistyped override never runs the wrong engine
    /// silently. An empty value counts as unset.
    pub fn resolve(self) -> EngineKind {
        self.resolve_with(std::env::var("ELZAR_ENGINE").ok().as_deref())
    }

    /// [`EngineKind::resolve`] against an explicit override value.
    fn resolve_with(self, env: Option<&str>) -> EngineKind {
        match env.map(str::trim) {
            None | Some("") => self,
            Some(v) => EngineKind::parse(v).unwrap_or_else(|| {
                panic!("ELZAR_ENGINE={v:?} is not an engine; the accepted names are `reference` and `trace`")
            }),
        }
    }
}

/// A pluggable execution engine over some machine type `M`.
///
/// The contract mirrors the VM's scheduler granularity: one call
/// executes up to a scheduling quantum of instructions on `thread`,
/// leaving the machine in exactly the state the reference interpreter
/// would produce — same retired-instruction sequence, same cycle
/// accounting, same eligible-instruction count, so `run`, `reenter` and
/// `reenter_batch` semantics (and every golden digest) are
/// engine-invariant.
pub trait Engine<M: ?Sized> {
    /// Error type surfaced by execution (the VM's trap type).
    type Error;

    /// Which engine this is.
    fn kind(&self) -> EngineKind;

    /// Execute up to one scheduling quantum on `thread`.
    fn step_quantum(&self, m: &mut M, thread: usize) -> Result<(), Self::Error>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for k in [EngineKind::Reference, EngineKind::Trace] {
            assert_eq!(EngineKind::parse(k.name()), Some(k));
        }
        assert_eq!(EngineKind::parse("banana"), None);
        // The names of the deleted kernel-table engines are rejected.
        for old in ["trace-simd", "trace-scalar", "trace_simd", "trace_scalar", "simd", "scalar", "ref"] {
            assert_eq!(EngineKind::parse(old), None, "{old}");
        }
    }

    #[test]
    fn resolve_honors_kind() {
        for k in [EngineKind::Reference, EngineKind::Trace] {
            assert_eq!(k.resolve_with(None), k);
            assert_eq!(k.resolve_with(Some("")), k);
            assert_eq!(k.resolve_with(Some("reference")), EngineKind::Reference);
            assert_eq!(k.resolve_with(Some(" trace ")), EngineKind::Trace);
        }
    }

    #[test]
    #[should_panic(
        expected = "ELZAR_ENGINE=\"simd\" is not an engine; the accepted names are `reference` and `trace`"
    )]
    fn unknown_override_panics_naming_value_and_engines() {
        EngineKind::Trace.resolve_with(Some("simd"));
    }
}

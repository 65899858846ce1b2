//! Spans and allocation counts around the benchmark's own calls into each
//! layer.
//!
//! No span or counter lives inside the program: every layer is timed from
//! the outside, at the call the benchmark makes into its public function.

use crate::alloc;
use local_obs::Trace;
use std::time::Instant;

/// What one layer cost within one trial (summed over its calls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStat {
    /// Wall time inside those calls, in nanoseconds.
    pub ns: u64,
    /// Allocator calls made inside them (0 unless the counting allocator is
    /// installed and switched on).
    pub allocs: u64,
}

impl LayerStat {
    /// Wall time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// The per-trial layer meter. Off, it calls straight through; traced, it
/// opens a span named after the layer on the trial's [`Trace`] (so every
/// span of a trial shares its trial id) and records time and allocations.
pub struct Meter<'t> {
    trace: Option<&'t Trace>,
    layers: Vec<(&'static str, LayerStat)>,
}

impl<'t> Meter<'t> {
    /// A meter that records nothing: the end-to-end path.
    pub fn off() -> Self {
        Meter {
            trace: None,
            layers: Vec::new(),
        }
    }

    /// A meter that spans every layer call on `trace`.
    pub fn on(trace: &'t Trace) -> Self {
        Meter {
            trace: Some(trace),
            layers: Vec::new(),
        }
    }

    /// Whether this meter records (a traced trial).
    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Run `f`, the call into layer `name`.
    pub fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(trace) = self.trace else {
            return f();
        };
        let span = trace.span(name);
        let allocs_before = alloc::count();
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let allocs = alloc::count() - allocs_before;
        drop(span);
        let stat = match self.layers.iter().position(|(n, _)| *n == name) {
            Some(i) => &mut self.layers[i].1,
            None => {
                self.layers.push((name, LayerStat::default()));
                &mut self.layers.last_mut().expect("just pushed").1
            }
        };
        stat.ns += ns;
        stat.allocs += allocs;
        out
    }

    /// The recorded cost of layer `name` (zero if it was never called).
    pub fn get(&self, name: &str) -> LayerStat {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }
}

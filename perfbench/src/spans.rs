//! The benchmark's own spans: one per call into a workspace crate inside
//! an op that makes several, recorded from the benchmark's side of the
//! call. The program itself gains no instrumentation; a disabled
//! recorder reads no clock.

use std::time::Instant;

/// Per-run span log: layer-qualified name and duration of every call.
pub struct Spans {
    enabled: bool,
    log: Vec<(&'static str, f64)>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            log: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` (e.g. `"layout.bdl_pack"`).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.log.push((name, t.elapsed().as_secs_f64() * 1e3));
        r
    }

    /// The durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.log
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, ms)| ms)
            .collect()
    }
}

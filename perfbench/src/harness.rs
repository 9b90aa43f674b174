//! What every workload shares: arguments, the metric list, the closed
//! loop that drives the solver workloads, and their end-to-end metrics.

use std::time::Instant;

use cachegraph_graph::{generators, EdgeListBuilder, Weight};

use crate::spans::Spans;
use crate::stats::{beyond, median, peak_rss_mb, percentile, timed};

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Times each solver workload repeats its set-up; `setup_s` is their
/// median. Set-ups of 5-100 ms moved by a quarter from run to run with
/// five repetitions.
const SETUP_REPS: usize = 9;

/// Edge weights are uniform in `1..=MAX_WEIGHT` in every generated graph.
pub const MAX_WEIGHT: Weight = 100;

/// Worker threads of the parallel speedup probes (the box has two cores).
pub const THREADS: usize = 2;

/// Worker threads of every timed end-to-end op, the daemon's engine
/// included. At two threads every phase of an op waits for its slower
/// thread, so one busy process elsewhere on a 2-core host slowed ops
/// 1.7x (apsp-dense 560 -> 930 ms; serve-mixed's closed-loop rate
/// halved and its tail tripled). At one thread the same neighbour moved
/// them no more than run-to-run noise. Runs of the same code on a shared
/// host split into those two modes, a spread of about 0.5.
pub const OP_THREADS: usize = 1;

/// Derive an independent seed for one purpose from the workload seed.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut x = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A generated graph's shape; the seed comes from the run.
#[derive(Clone, Copy)]
pub enum GraphSpec {
    /// `generators::random_directed(n, density, MAX_WEIGHT, seed)`.
    Directed { n: usize, density: f64 },
    /// `generators::random_bipartite(n, density, seed)`.
    Bipartite { n: usize, density: f64 },
}

impl GraphSpec {
    pub fn generate(self, seed: u64) -> EdgeListBuilder {
        match self {
            Self::Directed { n, density } => {
                generators::random_directed(n, density, MAX_WEIGHT, seed)
            }
            Self::Bipartite { n, density } => generators::random_bipartite(n, density, seed),
        }
    }
}

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics {
    pub rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per wrong answer or failed check.
    pub mismatches: Vec<String>,
    pub metrics: Metrics,
}

/// One op's latency in ms, and `Err` with a reason if its answer was wrong.
pub type Checked = (f64, Result<(), String>);

/// Per-op latencies and counts from one closed loop.
struct LoopStats {
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

/// Run `op(i)` back to back for `secs` seconds, and at least twice.
fn closed_loop(secs: f64, out: &mut Outcome, mut op: impl FnMut(usize) -> Checked) -> LoopStats {
    let start = Instant::now();
    let mut stats = LoopStats {
        lat_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
    };
    while stats.attempted < 2 || start.elapsed().as_secs_f64() < secs {
        let (ms, checked) = op(stats.attempted as usize);
        stats.attempted += 1;
        stats.lat_ms.push(ms);
        if let Err(why) = checked {
            stats.failed += 1;
            out.mismatches.push(why);
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// Whether op `i` of a traced loop runs traced. Ops alternate in ABBA
/// order (off, on, on, off, ...), so drift over the run and warming
/// caches fall on both sides of `bench.trace_overhead_frac` alike.
pub fn abba(i: usize) -> bool {
    matches!(i % 4, 1 | 2)
}

/// `traced / untraced - 1` of the two sides' median latencies.
pub fn overhead_frac(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    median(traced_ms) / median(untraced_ms) - 1.0
}

/// A solver workload: repeated set-up, a reference answer computed once
/// outside the timed set-up, and one checked op per iteration.
pub struct Solver<W, R> {
    /// Builds the inputs (timed as `setup_s`).
    pub setup: fn(u64) -> W,
    /// The benchmark's own reference answers (not timed).
    pub reference: fn(&W) -> R,
    /// One op, checked against the reference; it records a span per
    /// crate call when it makes more than one.
    pub op: fn(&W, &R, usize, &mut Spans) -> Checked,
    /// The nearest-rank level reported as `latency_tail_ms`, fixed per
    /// workload and low enough to leave about ten samples beyond it.
    pub tail_pct: f64,
}

/// Median set-up time in seconds over [`SETUP_REPS`] runs of `setup`,
/// and the last set-up's result; each earlier one is dropped before the
/// next starts.
fn repeated_setup<W>(mut setup: impl FnMut() -> W) -> (W, f64) {
    let (mut last, ms) = timed(&mut setup);
    let mut secs = vec![ms / 1e3];
    for _ in 1..SETUP_REPS {
        drop(last);
        let (w, ms) = timed(&mut setup);
        secs.push(ms / 1e3);
        last = w;
    }
    (last, median(&secs))
}

/// Print the latency summary line: sample count, p50, the workload's
/// tail level, p90 and p99, with the samples beyond each level.
pub fn print_latency(label: &str, lat_ms: &[f64], tail_pct: f64) {
    let n = lat_ms.len();
    let mut line = format!("{label}: samples={n} p50={:.3} ms", median(lat_ms));
    let mut levels = vec![tail_pct, 90.0, 99.0];
    levels.dedup();
    for pct in levels {
        line += &format!(
            " p{pct}={:.3} ms ({} beyond)",
            percentile(lat_ms, pct),
            beyond(n, pct)
        );
    }
    println!("{line} max={:.3} ms", percentile(lat_ms, 100.0));
}

/// Run a solver workload. Untraced, it reports the end-to-end metrics.
/// Traced, every other pair of ops (ABBA) records its spans into
/// `spans`, and the run reports `bench.trace_overhead_frac`.
pub fn run_solver<W, R>(args: &Args, s: &Solver<W, R>, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let (input, setup_s) = repeated_setup(|| (s.setup)(args.seed));
    let reference = (s.reference)(&input);
    // One unmeasured op lets caches fill and lazy set-up finish.
    let mut off = Spans::new(false);
    if let (_, Err(why)) = (s.op)(&input, &reference, 0, &mut off) {
        out.mismatches.push(format!("warm-up: {why}"));
    }
    let l = closed_loop(args.seconds, &mut out, |i| {
        let on = args.trace && abba(i);
        let spans = if on { &mut *spans } else { &mut off };
        (s.op)(&input, &reference, i + 1, spans)
    });
    out.attempted = l.attempted;
    out.failed = l.failed;
    if args.trace {
        let side = |on: bool| -> Vec<f64> {
            (0..l.lat_ms.len())
                .filter(|&i| abba(i) == on)
                .map(|i| l.lat_ms[i])
                .collect()
        };
        let (traced, untraced) = (side(true), side(false));
        print_latency("untraced", &untraced, s.tail_pct);
        print_latency("traced", &traced, s.tail_pct);
        out.metrics.push(
            "bench.trace_overhead_frac",
            overhead_frac(&traced, &untraced),
            "frac",
        );
    } else {
        print_latency("latency", &l.lat_ms, s.tail_pct);
        let ok = (l.attempted - l.failed) as f64;
        println!("fail_frac: {} of {} ops", l.failed, l.attempted);
        let m = &mut out.metrics;
        m.push("setup_s", setup_s, "s");
        m.push("latency_p50_ms", median(&l.lat_ms), "ms");
        m.push("latency_tail_ms", percentile(&l.lat_ms, s.tail_pct), "ms");
        m.push("throughput_ops_s", ok / l.wall_s, "1/s");
        m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    out
}

//! The cachegraph benchmark: one workload per run, end-to-end metrics
//! untraced, per-layer metrics from a separate traced run. Usage:
//!
//! ```text
//! cachegraph-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object. See
//! `METRICS.md` for the workloads and what each metric should move.

mod apsp;
mod harness;
mod layers;
mod matching;
mod serve;
mod spans;
mod sssp;
mod stats;

use cachegraph_obs::Json;

use harness::{run_solver, Args, GraphSpec, Outcome};
use spans::Spans;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cachegraph-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cpu_before = stats::cpu_times();
    let mut spans = Spans::new(args.trace);
    let (graph, mut out): (GraphSpec, Outcome) = match args.workload.as_str() {
        "apsp-dense" => (apsp::GRAPH, run_solver(&args, &apsp::WORKLOAD, &mut spans)),
        "sssp-sparse" => (sssp::GRAPH, run_solver(&args, &sssp::WORKLOAD, &mut spans)),
        "match-bipartite" => (
            matching::GRAPH,
            run_solver(&args, &matching::WORKLOAD, &mut spans),
        ),
        "serve-mixed" => (serve::GRAPH, serve::run(&args)),
        other => {
            eprintln!("cachegraph-perfbench: unknown workload {other:?}; one of apsp-dense, sssp-sparse, match-bipartite, serve-mixed");
            std::process::exit(2);
        }
    };
    if args.trace {
        if args.workload != "serve-mixed" {
            serve::probe_rows(args.seed, &mut out);
        }
        layers::probe_all(args.seed, graph, &mut spans, &mut out);
    }
    let context = Json::obj()
        .field("workload", args.workload.as_str())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("seed_capacity_rps", serve::SEED_CAPACITY_RPS)
        .field(
            "host_steal_frac",
            stats::steal_frac(&cpu_before, &stats::cpu_times()),
        );
    println!("context {context}");
    for why in &out.mismatches {
        println!("MISMATCH {why}");
    }
    let mut metrics = Json::obj();
    for (name, value, unit) in &out.metrics.rows {
        println!("metric {name} = {value} {unit}");
        metrics = metrics.field(
            name,
            Json::obj().field("value", *value).field("unit", *unit),
        );
    }
    let correct = out.mismatches.is_empty();
    let result = Json::obj()
        .field("correct", correct)
        .field("attempted", out.attempted)
        .field("failed", out.failed)
        .field("metrics", metrics);
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}

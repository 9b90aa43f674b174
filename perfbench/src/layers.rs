//! The traced run's layer probes: each times calls into one crate's
//! public functions at the configuration of the workload its row
//! explains, and checks the answers. The `layout` rows are the spans of
//! apsp-dense ops: those of the traced loop when it was apsp-dense's,
//! plus a few ops run here. Rows named `cache_sim.*`,
//! `matching.*_frac` and `sssp.reached` are exact counts or ratios of
//! counts: the same seed must reproduce them bit for bit.

use cachegraph_fw::instrumented::{sim_iterative, sim_tiled_bdl};
use cachegraph_fw::{fw_tiled, parallel::fw_tiled_parallel, FwMatrix};
use cachegraph_graph::{Graph, INF};
use cachegraph_layout::BlockLayout;
use cachegraph_matching::instrumented::sim_find_matching_partitioned;
use cachegraph_matching::{find_matching_partitioned_parallel, hopcroft_karp, PartitionedStats};
use cachegraph_plan::run_tasks;
use cachegraph_sim::{profiles, HierarchyStats};
use cachegraph_sssp::instrumented::sim_dijkstra_adj_array;
use cachegraph_sssp::{delta_stepping_parallel, dijkstra_binary_heap};

use crate::harness::{sub_seed, GraphSpec, Outcome, THREADS};
use crate::spans::Spans;
use crate::stats::{median, timed};
use crate::{apsp, matching, sssp};

/// Repetitions of each timed probe; rows report the median.
const REPS: usize = 3;
/// Calls timed for the dispatch row.
const DISPATCH_CALLS: usize = 200;
/// Simulated FW size: the paper's simulation tables use n = 256, b = 32.
const SIM_FW_N: usize = 256;
const SIM_FW_BLOCK: usize = 32;
/// Simulated Dijkstra: CSR at 64 Ki vertices, ~10 arcs per vertex.
const SIM_SSSP: GraphSpec = GraphSpec::Directed {
    n: 65_536,
    density: 10.0 / 65_535.0,
};

/// Median of `REPS` timings (ms) of `f`, with the last result.
fn median_ms<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let (mut last, t) = timed(&mut f);
    let mut ms = vec![t];
    for _ in 1..REPS {
        let (r, t) = timed(&mut f);
        ms.push(t);
        last = r;
    }
    (last, median(&ms))
}

/// Record the check `what` as failed unless `ok`.
fn check(out: &mut Outcome, ok: bool, what: &str) {
    if !ok {
        out.mismatches.push(format!("layer probe: {what}"));
    }
}

fn sim_rows(out: &mut Outcome, name: &str, stats: &HierarchyStats) {
    out.metrics.push(
        format!("cache_sim.{name}.l1_misses"),
        stats.levels[0].misses as f64,
        "count",
    );
    out.metrics.push(
        format!("cache_sim.{name}.l2_misses"),
        stats.levels[1].misses as f64,
        "count",
    );
}

/// Every probe row; `graph` is the running workload's graph shape and
/// `spans` the traced loop's spans.
pub fn probe_all(seed: u64, graph: GraphSpec, spans: &mut Spans, out: &mut Outcome) {
    graph_rows(seed, graph, out);
    fw_rows(seed, spans, out);
    plan_dispatch_row(out);
    sssp_rows(seed, out);
    matching_rows(seed, out);
}

fn graph_rows(seed: u64, graph: GraphSpec, out: &mut Outcome) {
    let (edges, gen_ms) = median_ms(|| graph.generate(sub_seed(seed, 10)));
    let (_, csr_ms) = median_ms(|| edges.build_array());
    out.metrics.push("graph.gen_ms", gen_ms, "ms");
    out.metrics.push("graph.csr_build_ms", csr_ms, "ms");
}

/// Layout, FW kernel and plan-runtime rows at the apsp-dense size, plus
/// the simulated misses of tiled and iterative FW at the paper's size.
fn fw_rows(seed: u64, spans: &mut Spans, out: &mut Outcome) {
    let n = apsp::N;
    let costs = apsp::dense_costs(apsp::GRAPH, n, sub_seed(seed, 1));
    let (want, iter_ms) = timed(|| apsp::reference_apsp(&costs, n));
    for i in 0..REPS {
        if let (_, Err(why)) = (apsp::WORKLOAD.op)(&costs, &want, i, spans) {
            check(out, false, &why);
        }
    }
    let packed = FwMatrix::from_costs(BlockLayout::new(n, apsp::BLOCK), &costs);
    let mut t1 = Vec::new();
    let mut tiled = Vec::new();
    let mut t2 = Vec::new();
    for _ in 0..REPS {
        for (threads, times) in [(0, &mut tiled), (1, &mut t1), (THREADS, &mut t2)] {
            let mut m = packed.clone();
            let (_, ms) = timed(|| match threads {
                0 => fw_tiled(&mut m, apsp::BLOCK),
                t => fw_tiled_parallel(&mut m, apsp::BLOCK, t),
            });
            times.push(ms);
            check(
                out,
                m.to_row_major() == want,
                "tiled FW differs from fw_iterative_slice",
            );
        }
    }
    let updates = (n * n * n) as f64;
    let m = &mut out.metrics;
    for (row, span) in [
        ("layout.bdl_pack_ms", apsp::PACK_SPAN),
        ("layout.bdl_unpack_ms", apsp::UNPACK_SPAN),
    ] {
        let ms = spans.durations(span);
        println!("span {span}: samples={}", ms.len());
        m.push(row, median(&ms), "ms");
    }
    m.push("fw.iterative_ns_per_update", iter_ms * 1e6 / updates, "ns");
    m.push(
        "fw.tiled_ns_per_update",
        median(&tiled) * 1e6 / updates,
        "ns",
    );
    m.push("fw.tiled_vs_iterative", iter_ms / median(&tiled), "x");
    m.push("plan.fw_t1_ms", median(&t1), "ms");
    m.push("plan.fw_t2_ms", median(&t2), "ms");
    m.push("plan.fw_speedup_t2", median(&t1) / median(&t2), "x");

    let sim_costs = apsp::dense_costs(
        GraphSpec::Directed {
            n: SIM_FW_N,
            density: 0.1,
        },
        SIM_FW_N,
        sub_seed(seed, 11),
    );
    let sim_want = apsp::reference_apsp(&sim_costs, SIM_FW_N);
    let tiled = sim_tiled_bdl(&sim_costs, SIM_FW_N, SIM_FW_BLOCK, profiles::simplescalar());
    let iterative = sim_iterative(&sim_costs, SIM_FW_N, profiles::simplescalar());
    check(
        out,
        tiled.dist == sim_want && iterative.dist == sim_want,
        "simulated FW distances",
    );
    sim_rows(out, "fw_tiled", &tiled.stats);
    sim_rows(out, "fw_iterative", &iterative.stats);
}

/// The cost of one `run_tasks` phase: two no-op tasks on two workers.
fn plan_dispatch_row(out: &mut Outcome) {
    let tasks = [(), ()];
    let us: Vec<f64> = (0..DISPATCH_CALLS)
        .map(|_| {
            timed(|| {
                run_tasks(&tasks, THREADS, |t| {
                    std::hint::black_box(t);
                })
            })
            .1 * 1e3
        })
        .collect();
    out.metrics.push("plan.dispatch_us", median(&us), "us");
}

/// Delta-stepping and Dijkstra on the sssp-sparse graph, plus simulated
/// Dijkstra misses on a 64 Ki-vertex CSR.
fn sssp_rows(seed: u64, out: &mut Outcome) {
    let g = sssp::GRAPH.generate(sub_seed(seed, 2)).build_array();
    let src = sssp::sources(sssp::N, sub_seed(seed, 3), 1)[0];
    let (want, dij_ms) = timed(|| dijkstra_binary_heap(&g, src));
    let mut t1 = Vec::new();
    let mut t2 = Vec::new();
    for _ in 0..REPS {
        for (threads, times) in [(1, &mut t1), (THREADS, &mut t2)] {
            let (r, ms) = timed(|| delta_stepping_parallel(&g, src, sssp::DELTA, threads));
            times.push(ms);
            check(
                out,
                r.dist == want.dist,
                "delta-stepping differs from dijkstra_binary_heap",
            );
        }
    }
    let reached = want.dist.iter().filter(|&&d| d != INF).count();

    let sim_g = SIM_SSSP.generate(sub_seed(seed, 12)).build_array();
    let sim_want = dijkstra_binary_heap(&sim_g, 0).dist;
    let sim = sim_dijkstra_adj_array(&sim_g, 0, profiles::simplescalar());
    check(out, sim.keys == sim_want, "simulated Dijkstra distances");

    let m = &mut out.metrics;
    m.push("sssp.delta_t1_ms", median(&t1), "ms");
    m.push("plan.delta_t2_ms", median(&t2), "ms");
    m.push("plan.delta_speedup_t2", median(&t1) / median(&t2), "x");
    m.push(
        "sssp.dijkstra_ns_per_edge",
        dij_ms * 1e6 / g.num_edges() as f64,
        "ns",
    );
    m.push("sssp.reached", reached as f64, "count");
    sim_rows(out, "dijkstra", &sim.stats);
    out.metrics.push(
        "cache_sim.dijkstra.mem_lines",
        sim.stats.memory_lines_fetched as f64,
        "count",
    );
}

/// Partitioned matching at one and two threads on the first instance
/// of the match-bipartite pool, its local-phase ratios, and its
/// simulated misses.
fn matching_rows(seed: u64, out: &mut Outcome) {
    let p = matching::instance(seed, 0);
    let n = matching::N;
    let want = hopcroft_karp(&p.graph, n / 2).size;
    let mut t1 = Vec::new();
    let mut t2 = Vec::new();
    let mut stats = PartitionedStats::default();
    for _ in 0..REPS {
        for (threads, times) in [(1, &mut t1), (THREADS, &mut t2)] {
            let ((m, st), ms) = timed(|| {
                find_matching_partitioned_parallel(
                    &p.graph,
                    n / 2,
                    p.edges.edges(),
                    matching::SCHEME,
                    threads,
                )
            });
            times.push(ms);
            check(
                out,
                m.size == want,
                "partitioned matching size differs from hopcroft_karp",
            );
            stats = st;
        }
    }
    let sim = sim_find_matching_partitioned(
        n,
        n / 2,
        p.edges.edges(),
        matching::SCHEME,
        profiles::simplescalar(),
    );
    check(out, sim.size == want, "simulated matching size");

    let m = &mut out.metrics;
    m.push("matching.partitioned_t1_ms", median(&t1), "ms");
    m.push("plan.match_t2_ms", median(&t2), "ms");
    m.push("plan.match_speedup_t2", median(&t1) / median(&t2), "x");
    m.push(
        "matching.local_frac",
        stats.local_matched as f64 / want as f64,
        "frac",
    );
    m.push(
        "matching.internal_edge_frac",
        stats.internal_edges as f64 / p.edges.edges().len() as f64,
        "frac",
    );
    sim_rows(out, "match_partitioned", &sim.stats);
}

//! `sssp-sparse`: parallel delta-stepping at `OP_THREADS` from seeded
//! sources on a random directed graph of 200 000 vertices and ~2 M
//! arcs. Its CSR is far beyond L2 and the `plan` runtime runs many small
//! phases per solve; no FW runs here.

use cachegraph_graph::{AdjacencyArray, VertexId, Weight};
use cachegraph_rng::StdRng;
use cachegraph_sssp::{delta_stepping_parallel, dijkstra_binary_heap};

use crate::harness::{sub_seed, GraphSpec, Solver, OP_THREADS};
use crate::spans::Spans;
use crate::stats::timed;

/// Vertices in the graph.
pub const N: usize = 200_000;
/// About 2 M arcs.
pub const GRAPH: GraphSpec = GraphSpec::Directed {
    n: N,
    density: 2e6 / (N as f64 * (N - 1) as f64),
};
/// Delta-stepping bucket width.
pub const DELTA: Weight = 16;
/// Distinct sources per run; each has a reference tree.
const SOURCES: usize = 8;

/// The graph and the run's sources.
pub struct Input {
    graph: AdjacencyArray,
    sources: Vec<VertexId>,
}

/// `count` seeded source vertices of an `n`-vertex graph.
pub fn sources(n: usize, seed: u64, count: usize) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| rng.gen_range(0..n as VertexId))
        .collect()
}

/// The workload: set-up, reference and one op.
pub const WORKLOAD: Solver<Input, Vec<Vec<Weight>>> = Solver {
    setup: |seed| Input {
        graph: GRAPH.generate(sub_seed(seed, 2)).build_array(),
        sources: sources(N, sub_seed(seed, 3), SOURCES),
    },
    reference: |input| {
        input
            .sources
            .iter()
            .map(|&s| dijkstra_binary_heap(&input.graph, s).dist)
            .collect()
    },
    op: |input, expect, i, _: &mut Spans| {
        let k = i % SOURCES;
        let (r, ms) =
            timed(|| delta_stepping_parallel(&input.graph, input.sources[k], DELTA, OP_THREADS));
        let checked = if r.dist == expect[k] {
            Ok(())
        } else {
            Err(format!(
                "sssp-sparse: source {} differs from dijkstra_binary_heap",
                input.sources[k]
            ))
        };
        (ms, checked)
    },
    tail_pct: 90.0,
};

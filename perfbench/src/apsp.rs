//! `apsp-dense`: pack a dense cost matrix into BDL, solve with the
//! parallel tiled Floyd-Warshall at `OP_THREADS` (its phases run
//! inline), unpack. At n = 1024 the 4 MiB matrix is twice a 2 MiB
//! per-core L2, so tiling is what keeps it in cache; the only workload
//! where the FW kernel and `layout` do the work.

use cachegraph_fw::{fw_iterative_slice, parallel::fw_tiled_parallel, FwMatrix};
use cachegraph_graph::{Weight, INF};
use cachegraph_layout::BlockLayout;

use crate::harness::{sub_seed, GraphSpec, Solver, OP_THREADS};
use crate::spans::Spans;
use crate::stats::timed;

/// Vertices in the cost matrix.
pub const N: usize = 1024;
/// BDL tile side.
pub const BLOCK: usize = 64;
/// The graph whose arcs fill the cost matrix.
pub const GRAPH: GraphSpec = GraphSpec::Directed { n: N, density: 0.1 };

/// Row-major `n x n` costs (`INF` = no edge, parallel edges keep the
/// lightest) of `spec`'s graph.
pub fn dense_costs(spec: GraphSpec, n: usize, seed: u64) -> Vec<Weight> {
    let mut costs = vec![INF; n * n];
    for e in spec.generate(seed).edges() {
        let cell = &mut costs[e.from as usize * n + e.to as usize];
        *cell = (*cell).min(e.weight);
    }
    costs
}

/// Iterative FW over a copy of `costs` with a zero diagonal.
pub fn reference_apsp(costs: &[Weight], n: usize) -> Vec<Weight> {
    let mut dist = costs.to_vec();
    for v in 0..n {
        dist[v * n + v] = 0;
    }
    fw_iterative_slice(&mut dist, n);
    dist
}

/// Span name of the op's BDL pack call.
pub const PACK_SPAN: &str = "layout.bdl_pack";
/// Span name of the op's BDL unpack call.
pub const UNPACK_SPAN: &str = "layout.bdl_unpack";

/// The workload: set-up, reference and one op.
pub const WORKLOAD: Solver<Vec<Weight>, Vec<Weight>> = Solver {
    setup: |seed| dense_costs(GRAPH, N, sub_seed(seed, 1)),
    reference: |costs| reference_apsp(costs, N),
    op: |costs, expect, _, spans: &mut Spans| {
        let (dist, ms) = timed(|| {
            let mut m = spans.time(PACK_SPAN, || {
                FwMatrix::from_costs(BlockLayout::new(N, BLOCK), costs)
            });
            fw_tiled_parallel(&mut m, BLOCK, OP_THREADS);
            spans.time(UNPACK_SPAN, || m.to_row_major())
        });
        let checked = if dist == *expect {
            Ok(())
        } else {
            Err("apsp-dense: distances differ from fw_iterative_slice".into())
        };
        (ms, checked)
    },
    // A 15 s run makes only 15-19 one-thread solves; p70 leaves 5-6
    // of them beyond it.
    tail_pct: 70.0,
};

//! `match-bipartite`: partitioned parallel matching (`Contiguous(8)`,
//! `OP_THREADS`) over a small seeded pool of random bipartite
//! instances. The only place matching is timed: the daemon memoises
//! `match` after one call.

use cachegraph_graph::{AdjacencyArray, EdgeListBuilder};
use cachegraph_matching::{find_matching_partitioned_parallel, hopcroft_karp, PartitionScheme};

use crate::harness::{sub_seed, GraphSpec, Solver, OP_THREADS};
use crate::spans::Spans;
use crate::stats::timed;

/// Vertices per instance, half on each side.
pub const N: usize = 8192;
/// Each instance's graph.
pub const GRAPH: GraphSpec = GraphSpec::Bipartite {
    n: N,
    density: 0.001,
};
/// The partitioning the op uses.
pub const SCHEME: PartitionScheme = PartitionScheme::Contiguous(8);
/// Instances in the pool: enough that one run's median does not hang
/// on a few easy or hard instances.
const POOL: usize = 32;

/// One pool instance: its edge list, which partitioning needs, and CSR.
pub struct Instance {
    pub edges: EdgeListBuilder,
    pub graph: AdjacencyArray,
}

/// Instance `k` of the run's pool.
pub fn instance(seed: u64, k: usize) -> Instance {
    let edges = GRAPH.generate(sub_seed(seed, 100 + k as u64));
    let graph = edges.build_array();
    Instance { edges, graph }
}

/// The workload: set-up, reference and one op.
pub const WORKLOAD: Solver<Vec<Instance>, Vec<usize>> = Solver {
    setup: |seed| (0..POOL).map(|k| instance(seed, k)).collect(),
    reference: |pool| {
        pool.iter()
            .map(|p| hopcroft_karp(&p.graph, N / 2).size)
            .collect()
    },
    op: |pool, expect, i, _: &mut Spans| {
        let k = i % POOL;
        let p = &pool[k];
        let ((m, _), ms) = timed(|| {
            find_matching_partitioned_parallel(&p.graph, N / 2, p.edges.edges(), SCHEME, OP_THREADS)
        });
        let checked = if m.size == expect[k] {
            Ok(())
        } else {
            Err(format!(
                "match-bipartite: instance {k} size {} != hopcroft_karp {}",
                m.size, expect[k]
            ))
        };
        (ms, checked)
    },
    tail_pct: 90.0,
};

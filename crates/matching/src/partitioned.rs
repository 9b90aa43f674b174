//! The cache-friendly matching implementation (Fig. 9):
//! partition → solve locally → union → finish globally.

use cachegraph_graph::{AdjacencyArray, Edge, VertexId};

use crate::augmenting::{find_matching, Matching};
use crate::parallel::find_matching_partitioned_parallel;
use crate::partition::two_way_partition;
use crate::FREE;

/// How the input graph is split into sub-problems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionScheme {
    /// `p` contiguous blocks: left block `k` with right block `k`. Cheap
    /// and effective when the graph has block-local structure; the number
    /// of parts is the tuning knob (§3.3: size each part to the cache).
    Contiguous(usize),
    /// The paper's linear-time two-way partitioner (4 arbitrary groups,
    /// paired to maximise internal edges).
    TwoWay,
}

/// Statistics from the partitioned run, useful for the experiments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionedStats {
    /// Matching size after the local phase (before the global pass).
    pub local_matched: usize,
    /// Edges internal to some part (processed in the local phase).
    pub internal_edges: usize,
    /// Number of parts used.
    pub parts: usize,
}

/// Assign each vertex to a part under `scheme`.
pub(crate) fn assign_parts(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    scheme: PartitionScheme,
) -> (Vec<u32>, usize) {
    match scheme {
        PartitionScheme::Contiguous(p) => {
            assert!(p >= 1, "need at least one part");
            let n_right = n - n_left;
            let mut part = vec![0u32; n];
            for (v, pt) in part.iter_mut().enumerate() {
                *pt = if v < n_left {
                    ((v * p) / n_left.max(1)) as u32
                } else {
                    (((v - n_left) * p) / n_right.max(1)) as u32
                };
            }
            (part, p)
        }
        PartitionScheme::TwoWay => {
            let tw = two_way_partition(n, n_left, edges);
            (tw.side.iter().map(|&s| s as u32).collect(), 2)
        }
    }
}

/// `CacheFriendlyFindMatching` (Fig. 9): solve each sub-graph locally,
/// union the local matchings, then run the augmenting-path algorithm on
/// the whole graph starting from the union. Returns the maximum matching
/// and the phase statistics.
///
/// `g` is the already-built representation of the whole graph (the same
/// object the baseline traverses); `edges` is its edge list, from which
/// the sub-problems are carved. Partitioning and sub-graph construction
/// happen inside this function — they are part of the optimization's cost,
/// exactly as in the paper's measurements.
///
/// This is [`find_matching_partitioned_parallel`] at one thread, where
/// the local solves run inline in part order.
pub fn find_matching_partitioned(
    g: &AdjacencyArray,
    n_left: usize,
    edges: &[Edge],
    scheme: PartitionScheme,
) -> (Matching, PartitionedStats) {
    find_matching_partitioned_parallel(g, n_left, edges, scheme, 1)
}

/// One sub-problem of the Fig. 9 decomposition: the vertices of a part
/// (locals numbered left-first, so `members[local] = global`) and its
/// internal edges in local ids (both arcs).
#[derive(Clone, Debug)]
pub struct LocalPart {
    /// Global vertex id per local id, left vertices first.
    pub members: Vec<VertexId>,
    /// Number of left vertices in this part (locals `0..left_count`).
    pub left_count: usize,
    /// Internal edges in local ids, both arcs per undirected edge.
    pub edges: Vec<Edge>,
}

impl LocalPart {
    /// A part contributes a local solve only if it has vertices and
    /// internal edges; otherwise it is skipped.
    pub fn is_trivial(&self) -> bool {
        self.members.is_empty() || self.edges.is_empty()
    }

    /// Solve this sub-problem with the Fig. 8 algorithm; `None` for
    /// trivial parts.
    pub fn solve(&self) -> Option<Matching> {
        if self.is_trivial() {
            return None;
        }
        let sub = AdjacencyArray::from_edges(self.members.len(), &self.edges);
        Some(find_matching(&sub, self.left_count, Matching::empty(self.members.len())))
    }
}

/// Carve the graph into per-part sub-problems under `scheme`: the front
/// half of [`find_matching_partitioned_parallel`]. Returns the parts and
/// the internal-edge count.
pub fn build_local_parts(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    scheme: PartitionScheme,
) -> (Vec<LocalPart>, usize) {
    let (part, p) = assign_parts(n, n_left, edges, scheme);

    // Split vertices per part, locals numbered left-first.
    let mut local_id = vec![FREE; n];
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); p];
    let mut left_count = vec![0usize; p];
    for v in 0..n {
        if v < n_left {
            let k = part[v] as usize;
            local_id[v] = left_count[k] as u32;
            left_count[k] += 1;
            members[k].push(v as VertexId);
        }
    }
    let mut right_count = vec![0usize; p];
    for v in n_left..n {
        let k = part[v] as usize;
        local_id[v] = (left_count[k] + right_count[k]) as u32;
        right_count[k] += 1;
        members[k].push(v as VertexId);
    }

    // Internal edges per part (left-arc canonical form).
    let mut local_edges: Vec<Vec<Edge>> = vec![Vec::new(); p];
    let mut internal = 0usize;
    for e in edges {
        if (e.from as usize) >= n_left {
            continue;
        }
        let (k_from, k_to) = (part[e.from as usize] as usize, part[e.to as usize] as usize);
        if k_from == k_to {
            internal += 1;
            let l = local_id[e.from as usize];
            let r = local_id[e.to as usize];
            local_edges[k_from].push(Edge::new(l, r, 1));
            local_edges[k_from].push(Edge::new(r, l, 1));
        }
    }

    let parts = members
        .into_iter()
        .zip(left_count)
        .zip(local_edges)
        .map(|((members, left_count), edges)| LocalPart { members, left_count, edges })
        .collect();
    (parts, internal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_karp;
    use cachegraph_graph::generators;

    fn check_equals_oracle(n: usize, edges: &[Edge], scheme: PartitionScheme) {
        let g = AdjacencyArray::from_edges(n, edges);
        let oracle = hopcroft_karp(&g, n / 2);
        let (m, _) = find_matching_partitioned(&g, n / 2, edges, scheme);
        assert_eq!(m.size, oracle.size);
        m.assert_valid(&g);
    }

    #[test]
    fn random_graphs_all_schemes() {
        for seed in 0..5 {
            let b = generators::random_bipartite(48, 0.12, seed);
            check_equals_oracle(48, b.edges(), PartitionScheme::Contiguous(4));
            check_equals_oracle(48, b.edges(), PartitionScheme::Contiguous(1));
            check_equals_oracle(48, b.edges(), PartitionScheme::TwoWay);
        }
    }

    #[test]
    fn best_case_local_phase_finds_maximum() {
        let b = generators::matching_best_case(32, 4, 0.1, 2);
        let g = AdjacencyArray::from_edges(32, b.edges());
        let (m, stats) = find_matching_partitioned(&g, 16, b.edges(), PartitionScheme::Contiguous(4));
        assert_eq!(m.size, 16, "perfect matching expected");
        assert_eq!(stats.local_matched, 16, "local phase should already be maximum");
    }

    #[test]
    fn worst_case_local_phase_finds_nothing() {
        let b = generators::matching_worst_case(32, 4, 0.5, 3);
        let g = AdjacencyArray::from_edges(32, b.edges());
        let (m, stats) =
            find_matching_partitioned(&g, 16, b.edges(), PartitionScheme::Contiguous(4));
        assert_eq!(stats.local_matched, 0, "no internal edges by construction");
        assert_eq!(stats.internal_edges, 0);
        let oracle = hopcroft_karp(&g, 16);
        assert_eq!(m.size, oracle.size, "global phase must still reach maximum");
    }

    #[test]
    fn two_way_rescues_crossed_structure() {
        // Edges cross contiguous halves, so Contiguous(2) finds nothing
        // locally but TwoWay re-pairs the groups and captures everything.
        let b = generators::matching_worst_case(32, 2, 0.4, 4);
        let g = AdjacencyArray::from_edges(32, b.edges());
        let (_, contiguous) =
            find_matching_partitioned(&g, 16, b.edges(), PartitionScheme::Contiguous(2));
        let (_, two_way) = find_matching_partitioned(&g, 16, b.edges(), PartitionScheme::TwoWay);
        assert_eq!(contiguous.internal_edges, 0);
        assert!(
            two_way.internal_edges > 0,
            "partitioner should recover internal edges: {two_way:?}"
        );
    }

    #[test]
    fn empty_graph() {
        let g = AdjacencyArray::from_edges(8, &[]);
        let (m, stats) = find_matching_partitioned(&g, 4, &[], PartitionScheme::Contiguous(2));
        assert_eq!(m.size, 0);
        assert_eq!(stats.local_matched, 0);
    }
}

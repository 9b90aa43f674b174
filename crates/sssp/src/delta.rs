//! Delta-stepping SSSP — the bucketed relaxation scheme the paper's
//! conclusion points at for parallel shortest paths — built on the
//! shared [`cachegraph_plan`] TaskGraph runtime.
//!
//! Vertices are grouped into buckets of width `delta` by tentative
//! distance. One *inner iteration* takes the current bucket's frontier
//! ([`take_frontier`]) and runs two phases with declared, disjoint
//! footprints:
//!
//! * **gather** — the frontier is split into contiguous chunks, one task
//!   per worker. Each task scans its frontier vertices' out-edges and
//!   appends *proposals* (`(v, dist, pred, slot)`) to a private
//!   per-owner *inbox*: `out[o]` collects the proposals whose target `v`
//!   lies in scatter task `o`'s owned range. Tasks read the distance
//!   array and write only their own slot range (slot = position of the
//!   edge in the frontier's concatenated edge list, planned from
//!   `Graph::degree`), so writes are disjoint by construction.
//! * **scatter** — the vertex range `0..n` is split into fixed contiguous
//!   *owned* ranges, one task per worker. Task `t` reads only its own
//!   inboxes, `inbox[g][t]` for every gather task `g` in gather order,
//!   and applies the strict-min update to the vertices it owns,
//!   recording each improved vertex id in a private list. Every
//!   proposal is read by exactly one scatter task, and writes are
//!   confined to the owned range, so again disjoint by construction.
//!
//! Determinism: gather chunks cover ascending slot ranges, so a scatter
//! task's inboxes in gather order are exactly the slot-ordered
//! subsequence of all proposals that land in its range; it applies them
//! with a strict `<` comparison. Each improved list is sorted and
//! deduplicated, and the lists are pushed into buckets coordinator-side
//! in owned-range order ([`push_improved`]) — globally ascending vertex
//! id. The result — `dist` *and* `pred` — is therefore bit-identical for
//! every thread count, and [`delta_stepping`] is literally the parallel
//! driver at `threads = 1` (where [`run_tasks_mut`] degrades to an
//! inline loop and spawns nothing).
//!
//! Cost: an inner iteration does O(frontier + out-degree sum +
//! proposals + threads²) work. Nothing of size `n` is allocated or
//! scanned inside the bucket loop; the inbox and improved-list buffers
//! live for the whole solve.
//!
//! Footprint domain: unit `v` (for `v < n`) is vertex `v`'s dist/pred
//! entry; unit `n + j` is proposal slot `j` of the current iteration.
//! `cachegraph-check`'s delta driver proves the declared footprints
//! disjoint, replays both phases against shadow memory over every (or a
//! sampled set of) worker interleavings, and verifies the canonical
//! result against Dijkstra.

use std::convert::Infallible;
use std::ops::Range;

use cachegraph_graph::{Graph, VertexId, Weight, INF};
use cachegraph_plan::{run_tasks_mut, NoSink, TaskFootprint, TaskGraph, UnitSink};

use crate::cancel::Cancelled;
use crate::dijkstra::SsspResult;
use crate::NO_VERTEX;

/// A relaxation candidate produced by the gather phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Proposal {
    /// Target vertex.
    pub v: VertexId,
    /// Proposed tentative distance.
    pub dist: Weight,
    /// Proposing vertex (the predecessor if this proposal wins).
    pub pred: VertexId,
    /// Global slot index of the edge that produced this proposal.
    pub slot: u32,
}

/// The task plan of one inner iteration: which worker gathers which
/// frontier chunk, which slot range it may write, and which vertex range
/// each scatter task owns.
#[derive(Clone, Debug)]
pub struct DeltaPhasePlan {
    /// Number of vertices (vertex units are `0..n`).
    pub n: usize,
    /// The deduplicated frontier of the current bucket.
    pub frontier: Vec<VertexId>,
    /// Index ranges into `frontier`, one per gather task.
    pub gather_chunks: Vec<Range<usize>>,
    /// `slot_of[p]` = first slot of frontier position `p`'s out-edges;
    /// the last entry is the total slot count.
    pub slot_of: Vec<usize>,
    /// Contiguous vertex ranges, one per scatter task, covering `0..n`.
    pub owned: Vec<Range<usize>>,
}

fn chunk_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    if len == 0 {
        return out;
    }
    let workers = threads.min(len).max(1);
    let chunk = len.div_ceil(workers);
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

impl DeltaPhasePlan {
    /// Plan one inner iteration over `frontier` for `threads` workers.
    pub fn new<G: Graph>(g: &G, frontier: Vec<VertexId>, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        let n = g.num_vertices();
        let mut slot_of = Vec::with_capacity(frontier.len() + 1);
        let mut total = 0usize;
        slot_of.push(0);
        for &u in &frontier {
            total += g.degree(u);
            slot_of.push(total);
        }
        let gather_chunks = chunk_ranges(frontier.len(), threads);
        let owned = chunk_ranges(n, threads);
        Self { n, frontier, gather_chunks, slot_of, owned }
    }

    /// Total proposal slots of this iteration (= frontier out-degree sum).
    pub fn total_slots(&self) -> usize {
        *self.slot_of.last().unwrap_or(&0)
    }

    /// Footprint unit of proposal slot `j`.
    pub fn slot_unit(&self, j: usize) -> u64 {
        (self.n + j) as u64
    }

    /// The scatter task whose owned range holds `v`. Owned ranges
    /// ascend and there are at most `threads` of them, so this is a
    /// few boundary comparisons, not a division.
    #[inline]
    fn owner(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.owned.iter().take_while(|r| r.end <= v).count()
    }

    /// Declared footprint of gather task `t`: reads the dist entries of
    /// its frontier vertices and their edge targets, writes its slot
    /// range (the actual writes — improving proposals only — are a
    /// subset).
    pub fn gather_footprint<G: Graph>(&self, g: &G, t: usize) -> TaskFootprint {
        let mut fp = TaskFootprint::default();
        let chunk = self.gather_chunks[t].clone();
        for p in chunk.clone() {
            let u = self.frontier[p];
            fp.reads.insert(u as u64);
            for (v, _) in g.neighbors(u) {
                fp.reads.insert(v as u64);
            }
        }
        for j in self.slot_of[chunk.start]..self.slot_of[chunk.end] {
            fp.writes.insert(self.slot_unit(j));
        }
        fp
    }

    /// Declared footprint of scatter task `t`: may read any proposal
    /// slot plus its owned dist entries, writes only the owned entries.
    /// (The slots it actually reads — its inboxes — are the subset
    /// whose target it owns.)
    pub fn scatter_footprint(&self, t: usize) -> TaskFootprint {
        let mut fp = TaskFootprint::default();
        for j in 0..self.total_slots() {
            fp.reads.insert(self.slot_unit(j));
        }
        for v in self.owned[t].clone() {
            fp.reads.insert(v as u64);
            fp.writes.insert(v as u64);
        }
        fp
    }

    /// The two-phase [`TaskGraph`] of this iteration.
    pub fn task_graph<G: Graph>(&self, g: &G) -> TaskGraph {
        let mut tg = TaskGraph::new("delta");
        tg.push_phase(
            "gather",
            (0..self.gather_chunks.len()).map(|t| self.gather_footprint(g, t)).collect(),
        );
        tg.push_phase(
            "scatter",
            (0..self.owned.len()).map(|t| self.scatter_footprint(t)).collect(),
        );
        tg
    }
}

/// Take bucket `cur` as the next frontier: deduplicate it and drop
/// stale entries (vertices whose distance has since improved into
/// another bucket), keeping first-push order. `in_frontier` is all
/// `false` on entry and on return.
pub fn take_frontier(
    bucket: &mut Vec<VertexId>,
    cur: usize,
    dist: &[Weight],
    delta: Weight,
    in_frontier: &mut [bool],
) -> Vec<VertexId> {
    let mut frontier = std::mem::take(bucket);
    frontier.retain(|&v| {
        let vi = v as usize;
        let keep = !in_frontier[vi] && dist[vi] != INF && (dist[vi] / delta) as usize == cur;
        in_frontier[vi] |= keep;
        keep
    });
    for &v in &frontier {
        in_frontier[v as usize] = false;
    }
    frontier
}

/// Push one scatter task's improved vertices (sorted, deduplicated)
/// into the buckets of their new distances. Called once per owned
/// range in range order, this pushes in globally ascending vertex id.
pub fn push_improved(
    buckets: &mut Vec<Vec<VertexId>>,
    improved: &[VertexId],
    dist: &[Weight],
    delta: Weight,
) {
    for &v in improved {
        let b = (dist[v as usize] / delta) as usize;
        if b >= buckets.len() {
            buckets.resize(b + 1, Vec::new());
        }
        buckets[b].push(v);
    }
}

/// Gather task body: scan the frontier chunk's out-edges against the
/// (phase-stable) distance array and append improving proposals in slot
/// order to `out[owner(v)]` (`out` has one inbox per owned range).
/// Generic over the access sink so the differential footprint test can
/// record exactly what it touches.
pub fn gather_task<G: Graph, S: UnitSink>(
    g: &G,
    plan: &DeltaPhasePlan,
    t: usize,
    dist: &[Weight],
    out: &mut [Vec<Proposal>],
    sink: &mut S,
) {
    debug_assert_eq!(out.len(), plan.owned.len(), "one inbox per owned range");
    let single = out.len() == 1;
    for p in plan.gather_chunks[t].clone() {
        let u = plan.frontier[p];
        sink.read(u as u64);
        let du = dist[u as usize];
        for (e, (v, w)) in g.neighbors(u).enumerate() {
            sink.read(v as u64);
            let nd = du.saturating_add(w);
            if nd < dist[v as usize] {
                let slot = plan.slot_of[p] + e;
                sink.write(plan.slot_unit(slot));
                let o = if single { 0 } else { plan.owner(v) };
                out[o].push(Proposal { v, dist: nd, pred: u, slot: slot as u32 });
            }
        }
    }
}

/// Scatter task body: apply task `t`'s inboxes (`inbox[g]` = gather
/// task `g`'s proposals for this range, in gather order) with a
/// strict-min comparison, then sort and deduplicate the ids appended
/// to `improved`. `dist`/`pred` are the owned sub-slices (index
/// `v - owned[t].start`).
pub fn scatter_task<S: UnitSink>(
    plan: &DeltaPhasePlan,
    t: usize,
    inbox: &[&[Proposal]],
    dist: &mut [Weight],
    pred: &mut [VertexId],
    improved: &mut Vec<VertexId>,
    sink: &mut S,
) {
    let range = plan.owned[t].clone();
    for props in inbox {
        for pr in props.iter() {
            sink.read(plan.slot_unit(pr.slot as usize));
            let v = pr.v as usize;
            debug_assert!(range.contains(&v), "proposal for {v} outside owned range");
            sink.read(v as u64);
            let i = v - range.start;
            if pr.dist < dist[i] {
                sink.write(v as u64);
                dist[i] = pr.dist;
                pred[i] = pr.pred;
                improved.push(pr.v);
            }
        }
    }
    improved.sort_unstable();
    improved.dedup();
}

/// Serial delta-stepping: the parallel driver at one thread (inline
/// loops, no spawns). Distances match Dijkstra exactly; `pred` is the
/// delta-stepping tree (first strict improvement in slot order).
pub fn delta_stepping<G: Graph + Sync>(g: &G, source: VertexId, delta: Weight) -> SsspResult {
    delta_stepping_parallel(g, source, delta, 1)
}

/// Parallel delta-stepping on `threads` scoped workers. Bit-identical
/// to [`delta_stepping`] for every thread count.
pub fn delta_stepping_parallel<G: Graph + Sync>(
    g: &G,
    source: VertexId,
    delta: Weight,
    threads: usize,
) -> SsspResult {
    let Ok(r) = run_delta::<G, Infallible>(g, source, delta, threads, &|| Ok(()));
    r
}

/// [`delta_stepping_parallel`] with deadline propagation: `cancel` is
/// polled by the coordinator at every bucket boundary and by every
/// worker before each gather/scatter task. On `Err` the partial
/// distance array is dropped — it is not an answer.
pub fn delta_stepping_parallel_cancellable<G: Graph + Sync>(
    g: &G,
    source: VertexId,
    delta: Weight,
    threads: usize,
    cancel: &(impl Fn() -> bool + Sync),
) -> Result<SsspResult, Cancelled> {
    run_delta(g, source, delta, threads, &|| if cancel() { Err(Cancelled) } else { Ok(()) })
}

/// Gather task state that lives for the whole solve: one inbox per
/// owned range, plus the poll error that stopped the task, if any.
struct Gather<E> {
    out: Vec<Vec<Proposal>>,
    stop: Option<E>,
}

/// Scatter task state of one inner iteration.
struct Scatter<'a, E> {
    dist: &'a mut [Weight],
    pred: &'a mut [VertexId],
    inbox: Vec<&'a [Proposal]>,
    improved: &'a mut Vec<VertexId>,
    stop: Option<E>,
}

/// The one delta-stepping driver behind [`delta_stepping_parallel`] and
/// [`delta_stepping_parallel_cancellable`]. `poll` runs on the
/// coordinator at every inner iteration and on every worker before each
/// task; an `Err` ends the solve. With a poll whose error type is
/// uninhabited, every check compiles away.
fn run_delta<G: Graph + Sync, E: Send>(
    g: &G,
    source: VertexId,
    delta: Weight,
    threads: usize,
    poll: &(impl Fn() -> Result<(), E> + Sync),
) -> Result<SsspResult, E> {
    assert!(delta >= 1, "bucket width must be at least 1");
    assert!(threads >= 1, "need at least one thread");
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![INF; n];
    let mut pred = vec![NO_VERTEX; n];
    dist[source as usize] = 0;
    let mut buckets: Vec<Vec<VertexId>> = vec![vec![source]];
    let mut in_frontier = vec![false; n];
    let owners = chunk_ranges(n, threads).len();
    let mut gathers: Vec<Gather<E>> = Vec::new();
    let mut improved: Vec<Vec<VertexId>> = vec![Vec::new(); owners];
    let mut cur = 0usize;
    while cur < buckets.len() {
        while !buckets[cur].is_empty() {
            poll()?;
            let frontier = take_frontier(&mut buckets[cur], cur, &dist, delta, &mut in_frontier);
            if frontier.is_empty() {
                continue;
            }
            let plan = DeltaPhasePlan::new(g, frontier, threads);
            let gn = plan.gather_chunks.len();
            if gathers.len() < gn {
                gathers.resize_with(gn, || Gather { out: vec![Vec::new(); owners], stop: None });
            }
            let gathers = &mut gathers[..gn];

            // Phase 1: gather proposals into per-task, per-owner inboxes.
            for gt in gathers.iter_mut() {
                gt.out.iter_mut().for_each(Vec::clear);
            }
            {
                let dist_ref: &[Weight] = &dist;
                let plan_ref = &plan;
                run_tasks_mut(gathers, threads, |t, gt| match poll() {
                    Ok(()) => gather_task(g, plan_ref, t, dist_ref, &mut gt.out, &mut NoSink),
                    Err(e) => gt.stop = Some(e),
                });
            }
            if let Some(e) = gathers.iter_mut().find_map(|gt| gt.stop.take()) {
                return Err(e);
            }

            // Phase 2: scatter over disjoint owned vertex ranges, each
            // task reading only its own inboxes.
            {
                let mut tasks: Vec<Scatter<'_, E>> = Vec::with_capacity(owners);
                let mut drest: &mut [Weight] = &mut dist;
                let mut prest: &mut [VertexId] = &mut pred;
                for (t, (r, imp)) in plan.owned.iter().zip(improved.iter_mut()).enumerate() {
                    let len = r.end - r.start;
                    let (d, dnext) = drest.split_at_mut(len);
                    let (p, pnext) = prest.split_at_mut(len);
                    drest = dnext;
                    prest = pnext;
                    let inbox = gathers.iter().map(|gt| gt.out[t].as_slice()).collect();
                    tasks.push(Scatter { dist: d, pred: p, inbox, improved: imp, stop: None });
                }
                let plan_ref = &plan;
                run_tasks_mut(&mut tasks, threads, |t, s| match poll() {
                    Ok(()) => scatter_task(
                        plan_ref,
                        t,
                        &s.inbox,
                        s.dist,
                        s.pred,
                        s.improved,
                        &mut NoSink,
                    ),
                    Err(e) => s.stop = Some(e),
                });
                if let Some(e) = tasks.iter_mut().find_map(|s| s.stop.take()) {
                    return Err(e);
                }
            }

            // Bucket pushes in owned-range order: globally ascending
            // vertex id, independent of thread count.
            for imp in &mut improved {
                push_improved(&mut buckets, imp, &dist, delta);
                imp.clear();
            }
        }
        cur += 1;
    }
    Ok(SsspResult { dist, pred })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra_binary_heap;
    use cachegraph_graph::generators;

    #[test]
    fn distances_match_dijkstra() {
        for seed in 0..4 {
            let g = generators::random_directed(90, 0.06, 50, seed).build_array();
            let base = dijkstra_binary_heap(&g, 0);
            for delta in [1, 7, 16, 1000] {
                let r = delta_stepping(&g, 0, delta);
                assert_eq!(r.dist, base.dist, "seed {seed} delta {delta}");
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        for seed in 0..3 {
            let g = generators::random_directed(120, 0.05, 30, 40 + seed).build_array();
            let serial = delta_stepping(&g, 2, 8);
            for threads in [2, 3, 4, 9] {
                let par = delta_stepping_parallel(&g, 2, 8, threads);
                assert_eq!(par.dist, serial.dist, "seed {seed} threads {threads}");
                assert_eq!(par.pred, serial.pred, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn pred_forms_a_valid_shortest_path_tree() {
        let g = generators::random_directed(80, 0.08, 20, 5).build_array();
        let r = delta_stepping_parallel(&g, 0, 4, 4);
        for v in 0..80usize {
            if v != 0 && r.dist[v] != INF {
                let p = r.pred[v] as usize;
                let w = g
                    .neighbors(r.pred[v])
                    .filter(|&(t, _)| t as usize == v)
                    .map(|(_, w)| w)
                    .min()
                    .expect("pred edge must exist");
                assert_eq!(r.dist[p].saturating_add(w), r.dist[v], "v {v}");
            }
        }
    }

    #[test]
    fn plan_footprints_are_disjoint() {
        let g = generators::random_directed(40, 0.15, 10, 6).build_array();
        let frontier: Vec<VertexId> = vec![3, 11, 17, 20, 35];
        for threads in [1, 2, 4, 8] {
            let plan = DeltaPhasePlan::new(&g, frontier.clone(), threads);
            let tg = plan.task_graph(&g);
            let v = tg.check_disjoint();
            assert!(v.is_empty(), "threads {threads}: {}", v[0]);
        }
    }

    #[test]
    fn cancellation_returns_err_and_all_workers_poll() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let g = generators::random_directed(400, 0.03, 50, 13).build_array();
        let seen = Mutex::new(HashSet::new());
        let threads = 4;
        let r = delta_stepping_parallel_cancellable(&g, 0, 4, threads, &|| {
            let mut ids = match seen.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            ids.insert(std::thread::current().id());
            ids.len() > threads // cancel once every worker has polled
        });
        assert_eq!(r, Err(Cancelled));
        let ids = match seen.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        assert!(ids.len() > threads, "coordinator + {threads} workers must all poll");
    }

    #[test]
    fn single_vertex_and_unreachable() {
        let g = generators::random_directed(1, 0.0, 1, 0).build_array();
        let r = delta_stepping(&g, 0, 4);
        assert_eq!(r.dist, vec![0]);
        let mut b = cachegraph_graph::EdgeListBuilder::new(3);
        b.add(0, 1, 2);
        let r = delta_stepping_parallel(&b.build_array(), 0, 1, 4);
        assert_eq!(r.dist, vec![0, 2, INF]);
        assert_eq!(r.pred, vec![NO_VERTEX, 0, NO_VERTEX]);
    }

    #[test]
    fn zero_weight_edges_terminate_and_agree() {
        // A zero-weight cycle: proposals keep landing in the current
        // bucket; strict-min application guarantees termination.
        let mut b = cachegraph_graph::EdgeListBuilder::new(5);
        b.add(0, 1, 0).add(1, 2, 0).add(2, 0, 0).add(2, 3, 1).add(3, 4, 0);
        let g = b.build_array();
        let base = dijkstra_binary_heap(&g, 0);
        for threads in [1, 2, 4] {
            let r = delta_stepping_parallel(&g, 0, 3, threads);
            assert_eq!(r.dist, base.dist, "threads {threads}");
        }
    }
}

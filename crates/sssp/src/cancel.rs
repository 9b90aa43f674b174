//! Cancellable Dijkstra for deadline-propagating callers.
//!
//! The serve daemon must never let a long query hang a worker past its
//! deadline: [`dijkstra_cancellable`] runs the one Fig. 7 loop behind
//! [`dijkstra`](crate::dijkstra) with its two additions switched on,
//! neither of which touches the kernel's access pattern:
//!
//! * a *cancellation check* polled every [`CANCEL_CHECK_INTERVAL`]
//!   extract-mins (the "bucket boundary" — checking per relaxation
//!   would put a branch in the hot loop for nothing, since a deadline
//!   is milliseconds and a bucket is microseconds);
//! * an optional *target* vertex: point-to-point queries stop as soon
//!   as the target is settled, since every later extraction is farther
//!   away.
//!
//! The check is a plain `FnMut() -> bool` closure, so this crate never
//! references the observability layer (the obs-purity fixture pair
//! `obs_pos_cancel.rs` / `obs_neg_cancel.rs` in `cachegraph-tidy`
//! documents exactly this seam); callers build the closure from a
//! deadline, an `AtomicBool`, or anything else. The poll cadence is
//! also the unit of the serve layer's `cancel_polls` trace tag: one
//! count per [`CANCEL_CHECK_INTERVAL`] extract-mins, so a request
//! trace exposes how often a query could have been abandoned.

use cachegraph_graph::{Graph, VertexId, Weight};
use cachegraph_pq::{DecreaseKeyQueue, IndexedBinaryHeap};

use crate::dijkstra::{run_dijkstra, SsspResult};

/// Extract-mins between cancellation polls.
pub const CANCEL_CHECK_INTERVAL: usize = 64;

/// The query was cancelled before it finished; partial results are
/// discarded (a half-filled distance array is not an answer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query cancelled at a bucket boundary")
    }
}

impl std::error::Error for Cancelled {}

/// [`dijkstra`](crate::dijkstra) with cancellation and optional early
/// exit at `target`. `cancel` is polled every
/// [`CANCEL_CHECK_INTERVAL`] extract-mins; returning `true` abandons
/// the search with [`Cancelled`]. With a target, distances of vertices
/// settled *after* the target are left `INF` — `dist[target]` and
/// everything nearer are exact.
pub fn dijkstra_cancellable<G: Graph, Q: DecreaseKeyQueue>(
    g: &G,
    source: VertexId,
    target: Option<VertexId>,
    cancel: &mut impl FnMut() -> bool,
) -> Result<SsspResult, Cancelled> {
    run_dijkstra::<G, Q, Cancelled>(g, source, target, &mut || {
        if cancel() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    })
}

/// [`dijkstra_cancellable`] with the standard indexed binary heap.
pub fn dijkstra_to<G: Graph>(
    g: &G,
    source: VertexId,
    target: Option<VertexId>,
    cancel: &mut impl FnMut() -> bool,
) -> Result<SsspResult, Cancelled> {
    dijkstra_cancellable::<G, IndexedBinaryHeap>(g, source, target, cancel)
}

/// Shortest `source -> target` distance with cancellation (`INF` when
/// unreachable).
pub fn distance_to<G: Graph>(
    g: &G,
    source: VertexId,
    target: VertexId,
    cancel: &mut impl FnMut() -> bool,
) -> Result<Weight, Cancelled> {
    let r = dijkstra_to(g, source, Some(target), cancel)?;
    Ok(r.dist[target as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra_binary_heap;
    use cachegraph_graph::generators;

    #[test]
    fn uncancelled_matches_plain_dijkstra() {
        for seed in 0..4 {
            let g = generators::random_directed(80, 0.08, 50, seed).build_array();
            let plain = dijkstra_binary_heap(&g, 0);
            let cancellable =
                dijkstra_to(&g, 0, None, &mut || false).expect("never cancelled");
            assert_eq!(plain.dist, cancellable.dist, "seed {seed}");
            assert_eq!(plain.pred, cancellable.pred, "seed {seed}");
        }
    }

    #[test]
    fn early_exit_settles_the_target_exactly() {
        let g = generators::random_directed(120, 0.06, 50, 9).build_array();
        let plain = dijkstra_binary_heap(&g, 3);
        for t in [0u32, 17, 64, 119] {
            let d = distance_to(&g, 3, t, &mut || false).expect("not cancelled");
            assert_eq!(d, plain.dist[t as usize], "target {t}");
        }
    }

    #[test]
    fn cancellation_fires_at_a_bucket_boundary() {
        // A graph big enough to cross the check interval at least once.
        let g = generators::random_directed(300, 0.05, 50, 2).build_array();
        let mut polls = 0usize;
        let result = dijkstra_to(&g, 0, None, &mut || {
            polls += 1;
            true // cancel at the first poll
        });
        assert_eq!(result, Err(Cancelled));
        assert_eq!(polls, 1, "first poll must already abandon the search");
    }

    #[test]
    fn small_searches_never_poll() {
        // Fewer extract-mins than the interval: the closure is not
        // consulted at all, so trivial queries pay zero overhead.
        let g = generators::random_directed(16, 0.3, 10, 1).build_array();
        let mut polls = 0usize;
        let r = dijkstra_to(&g, 0, None, &mut || {
            polls += 1;
            true
        });
        assert!(r.is_ok());
        assert_eq!(polls, 0);
    }

    #[test]
    fn cancelled_error_displays() {
        assert!(Cancelled.to_string().contains("bucket boundary"));
    }
}

//! Cancellable matching for deadline-propagating callers.
//!
//! [`find_matching_cancellable`] runs the one Fig. 8 loop behind
//! [`find_matching`](crate::find_matching), polling a cancellation
//! closure *between* augmentation rounds — the natural boundary: each
//! round is one whole-graph BFS plus one path flip, so the matching is
//! structurally consistent (just not yet maximum) whenever the poll
//! fires. On cancellation the partial matching built so far is
//! returned alongside the marker, letting a caller distinguish "no
//! answer" from "a valid but possibly sub-maximum matching".
//!
//! The closure is a plain `FnMut() -> bool`; this crate never
//! references the observability layer (obs-purity — see the
//! `obs_*_cancel.rs` fixture pair in `cachegraph-tidy`). The
//! per-round poll is also the unit of the serve layer's `cancel_polls`
//! trace tag: one count per augmentation round.

use cachegraph_graph::Graph;
use cachegraph_plan::NoSink;

use crate::augmenting::{run_matching, Matching};

/// The search was cancelled between augmentation rounds; the carried
/// matching is valid but may not be maximum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchCancelled {
    /// The structurally consistent partial matching at cancellation.
    pub partial: Matching,
}

impl std::fmt::Display for MatchCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matching cancelled after {} augmentations", self.partial.size)
    }
}

impl std::error::Error for MatchCancelled {}

/// [`find_matching`](crate::find_matching) with a cancellation poll
/// between augmentation rounds.
pub fn find_matching_cancellable<G: Graph>(
    g: &G,
    n_left: usize,
    initial: Matching,
    cancel: &mut impl FnMut() -> bool,
) -> Result<Matching, MatchCancelled> {
    let poll = &mut || if cancel() { Err(()) } else { Ok(()) };
    run_matching(g, n_left, initial, &mut NoSink, poll)
        .map_err(|((), partial)| MatchCancelled { partial })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_matching;
    use cachegraph_graph::generators;

    #[test]
    fn uncancelled_matches_find_matching() {
        for seed in 0..6 {
            let b = generators::random_bipartite(60, 0.1, seed);
            let g = b.build_array();
            let plain = find_matching(&g, 30, Matching::empty(60));
            let c = find_matching_cancellable(&g, 30, Matching::empty(60), &mut || false)
                .expect("never cancelled");
            assert_eq!(plain.size, c.size, "seed {seed}");
            c.assert_valid(&g);
        }
    }

    #[test]
    fn cancellation_returns_a_consistent_partial_matching() {
        let b = generators::random_bipartite(80, 0.15, 3);
        let g = b.build_array();
        let full = find_matching(&g, 40, Matching::empty(80));
        // Allow exactly 2 augmentation rounds, then cancel.
        let mut rounds = 0usize;
        let err = find_matching_cancellable(&g, 40, Matching::empty(80), &mut || {
            rounds += 1;
            rounds > 2
        })
        .expect_err("must cancel");
        assert_eq!(err.partial.size, 2, "two granted rounds, one augmentation each");
        assert!(err.partial.size <= full.size);
        err.partial.assert_valid(&g);
        // Resuming from the partial matching completes to the maximum.
        let resumed = find_matching(&g, 40, err.partial);
        assert_eq!(resumed.size, full.size);
    }

    #[test]
    fn immediate_cancellation_returns_the_initial_matching() {
        let b = generators::random_bipartite(20, 0.2, 1);
        let g = b.build_array();
        let err = find_matching_cancellable(&g, 10, Matching::empty(20), &mut || true)
            .expect_err("cancelled before the first round");
        assert_eq!(err.partial.size, 0);
        assert!(err.to_string().contains("after 0 augmentations"));
    }
}

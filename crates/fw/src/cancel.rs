//! Cancellable tiled Floyd-Warshall for deadline-propagating callers.
//!
//! [`fw_tiled_cancellable`] is the tiled driver with a cancellation poll
//! at every *block boundary* (once per tile, between kernel calls): its
//! hook polls on each [`FwEvent::Kernel`]. The FWI kernel itself is
//! untouched and never polls: a `b x b` kernel call is microseconds, so
//! per-tile granularity bounds the overrun past a deadline at one tile
//! while keeping the hot loop branch-free.
//!
//! Cancellation is a plain `FnMut() -> bool`, mirroring the event-hook
//! pattern of [`crate::observed`]: this crate stays free of any
//! observability reference (obs-purity), and callers build the closure
//! from whatever deadline source they have. The per-tile poll is also
//! the unit of the serve layer's `cancel_polls` trace tag — one count
//! per kernel call, so a request trace shows the deadline granularity
//! an APSP query actually ran under.

use crate::kernel::{SliceAccess, StridedView};
use crate::matrix::FwMatrix;
use crate::observed::FwEvent;
use crate::plan::Planner;
use crate::tiled::{drive, Inline};

/// The computation was abandoned at a tile boundary. The matrix is left
/// partially relaxed and must be discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FwCancelled;

impl std::fmt::Display for FwCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tiled Floyd-Warshall cancelled at a tile boundary")
    }
}

impl std::error::Error for FwCancelled {}

/// [`fw_tiled`](crate::fw_tiled) with cancellation: `cancel` is polled
/// before every kernel call, and `true` abandons the run. On `Err` the
/// matrix holds a partially relaxed state and must not be read as
/// distances.
pub fn fw_tiled_cancellable<L: StridedView>(
    m: &mut FwMatrix<L>,
    b: usize,
    cancel: &mut impl FnMut() -> bool,
) -> Result<(), FwCancelled> {
    let layout = m.layout().clone();
    let planner = Planner::new(&layout, m.n(), b);
    drive(&planner, &mut Inline(&mut SliceAccess(m.storage_mut())), &mut |ev| {
        if ev == FwEvent::Kernel && cancel() {
            Err(FwCancelled)
        } else {
            Ok(())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_tiled;
    use cachegraph_graph::INF;
    use cachegraph_layout::BlockLayout;
    use cachegraph_rng::StdRng;

    fn random_costs(n: usize, density: f64, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut costs = vec![INF; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    costs[i * n + j] = 0;
                } else if rng.gen_bool(density) {
                    costs[i * n + j] = rng.gen_range(1..100);
                }
            }
        }
        costs
    }

    #[test]
    fn uncancelled_matches_fw_tiled() {
        for n in [5, 9, 16, 30] {
            let costs = random_costs(n, 0.25, n as u64);
            for b in [2, 4, 8] {
                let mut expect = FwMatrix::from_costs(BlockLayout::new(n, b), &costs);
                fw_tiled(&mut expect, b);
                let mut got = FwMatrix::from_costs(BlockLayout::new(n, b), &costs);
                fw_tiled_cancellable(&mut got, b, &mut || false).expect("never cancelled");
                assert_eq!(got.to_row_major(), expect.to_row_major(), "n={n} b={b}");
            }
        }
    }

    #[test]
    fn cancellation_stops_between_kernel_calls() {
        let n = 16;
        let costs = random_costs(n, 0.3, 7);
        // Cancel after exactly `stop` polls: the number of kernel calls
        // performed equals the number of granted polls.
        for stop in [0usize, 1, 5] {
            let mut polls = 0usize;
            let mut m = FwMatrix::from_costs(BlockLayout::new(n, 4), &costs);
            let r = fw_tiled_cancellable(&mut m, 4, &mut || {
                polls += 1;
                polls > stop
            });
            assert_eq!(r, Err(FwCancelled), "stop={stop}");
            assert_eq!(polls, stop + 1, "stop={stop}: one failing poll ends the run");
        }
    }

    #[test]
    fn poll_count_equals_kernel_call_count() {
        let n = 8;
        let b = 4;
        let costs = random_costs(n, 0.5, 3);
        let mut polls = 0usize;
        let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), &costs);
        fw_tiled_cancellable(&mut m, b, &mut || {
            polls += 1;
            false
        })
        .expect("not cancelled");
        // 2x2 tile grid: per block iteration 1 diagonal + 1 row + 1
        // column + 1 remainder kernel = 4; two iterations = 8.
        assert_eq!(polls, 8);
    }

    #[test]
    fn cancelled_error_displays() {
        assert!(FwCancelled.to_string().contains("tile boundary"));
    }
}

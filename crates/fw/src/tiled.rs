//! The tiled implementation (Fig. 4, §3.1.2) and the one driver every
//! tiled entry point runs.
//!
//! Correctness comes from the special case of Claim 1 with
//! `k−1 ≤ k′ ≤ k+B−1`: during block iteration `b`, first the diagonal tile
//! `(b, b)` is brought fully up to date (self-dependent FWI), then the rest
//! of row `b` and column `b` (each depends on the diagonal tile), then all
//! remaining tiles (each depends on its row-`b` and column-`b` tiles).
//!
//! [`drive`] is that block loop, and the only one in the crate: the tiles
//! come from [`Planner`], the model-checked plan. What differs between
//! entry points is supplied around it:
//!
//! * a **hook** sees an [`FwEvent`] at every block start and before every
//!   kernel call, and can stop the run by returning `Err` (the cancellable
//!   variant's poll). The plain entry points pass a hook whose error type
//!   is [`Infallible`], which compiles away;
//! * a [`TileExec`] runs each phase's tasks: [`Inline`] over any
//!   [`CellAccess`] (plain, observed, cancellable, simulated and copy
//!   runs), or the chunked executors of [`crate::parallel`] and
//!   [`crate::instrumented`].

use std::convert::Infallible;

use crate::kernel::{CellAccess, SliceAccess, StridedView};
use crate::matrix::FwMatrix;
use crate::observed::FwEvent;
use crate::plan::{Planner, TileTask};

/// Tiled Floyd-Warshall with tile size `b`. The padded dimension must be a
/// multiple of `b`, and the layout must expose every aligned `b x b` tile
/// as a strided view (true for [`RowMajor`](cachegraph_layout::RowMajor)
/// with any `b`, and for [`BlockLayout`](cachegraph_layout::BlockLayout) /
/// [`ZMorton`](cachegraph_layout::ZMorton) when `b` equals their block
/// size — the "layout matches the access pattern" configuration of §3.1.3).
///
/// Tiles lying entirely in the padding region are skipped — the efficient
/// handling of padding the paper calls for in §4.1. (Padding cells are
/// `INF` except a zero diagonal, so they can never improve a real path.)
pub fn fw_tiled<L: StridedView>(m: &mut FwMatrix<L>, b: usize) {
    let layout = m.layout().clone();
    let n = m.n();
    run_tiled(&layout, n, &mut SliceAccess(m.storage_mut()), b);
}

/// Accessor-generic form of [`fw_tiled`]; the instrumented
/// (cache-simulated) variant runs the identical decomposition through a
/// traced accessor.
pub fn run_tiled<L: StridedView, A: CellAccess>(layout: &L, n: usize, acc: &mut A, b: usize) {
    let Ok(()) = drive(&Planner::new(layout, n, b), &mut Inline(acc), &mut no_hook);
}

/// The hook of the unobserved entry points: never stops the run.
pub(crate) fn no_hook(_: FwEvent) -> Result<(), Infallible> {
    Ok(())
}

/// Runs the tasks of one phase. Tasks of one phase are mutually
/// independent (the plan's phase disjointness), so an executor may run
/// them in any order or concurrently; it returns only once all are done.
pub(crate) trait TileExec {
    /// Run `tasks` (tile size `b`), calling `hook(FwEvent::Kernel)` once
    /// per task; an `Err` from the hook stops the phase.
    fn phase<E>(
        &mut self,
        tasks: &[TileTask],
        b: usize,
        hook: &mut impl FnMut(FwEvent) -> Result<(), E>,
    ) -> Result<(), E>;

    /// Run phase 1, the diagonal task. Executors that place it specially
    /// override this.
    fn diag<E>(
        &mut self,
        task: TileTask,
        b: usize,
        hook: &mut impl FnMut(FwEvent) -> Result<(), E>,
    ) -> Result<(), E> {
        self.phase(std::slice::from_ref(&task), b, hook)
    }
}

/// Runs every task in plan order on the calling thread through one
/// accessor, with the hook called directly before each kernel call.
pub(crate) struct Inline<'a, A>(pub &'a mut A);

impl<A: CellAccess> TileExec for Inline<'_, A> {
    fn phase<E>(
        &mut self,
        tasks: &[TileTask],
        b: usize,
        hook: &mut impl FnMut(FwEvent) -> Result<(), E>,
    ) -> Result<(), E> {
        for t in tasks {
            hook(FwEvent::Kernel)?;
            self.0.fwi_block(t.a, t.b, t.c, b);
        }
        Ok(())
    }
}

/// The block loop of Fig. 4 over `planner`'s tiles: per block iteration
/// `t`, a [`FwEvent::BlockStart`], then the diagonal task, the row and
/// column tasks, and the remainder tasks, each phase run to completion by
/// `exec` before the next starts. Stops at the first hook error.
pub(crate) fn drive<L: StridedView, X: TileExec, E>(
    planner: &Planner<'_, L>,
    exec: &mut X,
    hook: &mut impl FnMut(FwEvent) -> Result<(), E>,
) -> Result<(), E> {
    let b = planner.b();
    let mut tasks = Vec::new();
    for t in 0..planner.real_tiles() {
        hook(FwEvent::BlockStart(t))?;
        exec.diag(planner.phase1(t), b, hook)?;
        planner.phase2(t, &mut tasks);
        exec.phase(&tasks, b, hook)?;
        planner.phase3(t, &mut tasks);
        exec.phase(&tasks, b, hook)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::fw_iterative_slice;
    use cachegraph_graph::INF;
    use cachegraph_layout::{BlockLayout, RowMajor, ZMorton};
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

    fn baseline(costs: &[u32], n: usize) -> Vec<u32> {
        let mut d = costs.to_vec();
        fw_iterative_slice(&mut d, n);
        d
    }

    #[test]
    fn tiled_row_major_matches_baseline() {
        for n in [4, 7, 8, 16, 23] {
            let costs = random_costs(n, 0.3, n as u64);
            let expect = baseline(&costs, n);
            for b in [1, 2, 4] {
                // Row-major views exist for any aligned tile only if b
                // divides the padded dimension; RowMajor has no padding,
                // so only divisors of n are valid.
                if n % b != 0 {
                    continue;
                }
                let mut m = FwMatrix::from_costs(RowMajor::new(n), &costs);
                fw_tiled(&mut m, b);
                assert_eq!(m.to_row_major(), expect, "n={n} b={b}");
            }
        }
    }

    #[test]
    fn tiled_bdl_matches_baseline_with_padding() {
        for n in [5, 9, 16, 30] {
            let costs = random_costs(n, 0.25, 100 + n as u64);
            let expect = baseline(&costs, n);
            for b in [2, 4, 8] {
                let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), &costs);
                fw_tiled(&mut m, b);
                assert_eq!(m.to_row_major(), expect, "n={n} b={b}");
            }
        }
    }

    #[test]
    fn tiled_morton_matches_baseline() {
        for n in [6, 12, 16] {
            let costs = random_costs(n, 0.4, 7 * n as u64);
            let expect = baseline(&costs, n);
            let mut m = FwMatrix::from_costs(ZMorton::new(n, 4), &costs);
            fw_tiled(&mut m, 4);
            assert_eq!(m.to_row_major(), expect, "n={n}");
        }
    }

    #[test]
    fn dense_and_empty_graphs() {
        let n = 8;
        let dense = random_costs(n, 1.0, 1);
        let empty = random_costs(n, 0.0, 2);
        for costs in [dense, empty] {
            let expect = baseline(&costs, n);
            let mut m = FwMatrix::from_costs(BlockLayout::new(n, 4), &costs);
            fw_tiled(&mut m, 4);
            assert_eq!(m.to_row_major(), expect);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the tile size")]
    fn rejects_non_dividing_tile() {
        let costs = random_costs(6, 0.5, 3);
        let mut m = FwMatrix::from_costs(RowMajor::new(6), &costs);
        fw_tiled(&mut m, 4);
    }
}

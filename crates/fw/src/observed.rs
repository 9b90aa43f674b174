//! Observed Floyd-Warshall entry points.
//!
//! The drivers in this crate take an [`FwEvent`] hook; this module turns
//! those events into `cachegraph-obs` spans and counters. The FWI kernel
//! itself (`kernel.rs`, `// tidy: kernel`) stays instrumentation-free —
//! the `obs-purity` tidy rule enforces that — so hooks fire only between
//! kernel calls, at tile/base-case granularity.
//!
//! Span naming (see EXPERIMENTS.md): roots are `fw.<variant>`
//! (`fw.iterative`, `fw.tiled`, `fw.recursive`, `fw.copy`,
//! `fw.parallel`); the tiled variants open one `tile[t]` (or `block[t]`)
//! child per block iteration. Counters: `fw.kernel_calls`,
//! `fw.base_case_hits`, `fw.tile_copies`.

use std::convert::Infallible;

use cachegraph_layout::RowMajor;
use cachegraph_obs::{Counter, Registry, Span};

use crate::copy_tiled::CopyAccess;
use crate::kernel::{CellAccess, SliceAccess, StridedView};
use crate::matrix::FwMatrix;
use crate::plan::Planner;
use crate::recursive::run_recursive_with;
use crate::tiled::{drive, Inline};

/// Driver events surfaced to instrumentation hooks. Every variant is
/// per-tile or coarser — never per-cell — so a hook costs at most one
/// call per kernel invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FwEvent {
    /// A tiled block iteration `t` begins.
    BlockStart(usize),
    /// One FWI kernel invocation over a tile.
    Kernel,
    /// The recursion bottomed out in a base-case kernel.
    BaseCase,
    /// The recursive decomposition entered a node at this depth (root
    /// call = 0, base cases deepest). Balanced with
    /// [`RecurseLeave`](Self::RecurseLeave) per non-skipped node, so a
    /// hook can maintain a depth-labeled scope stack (`depth[K]` spans
    /// in profiled FWR runs).
    RecurseEnter(usize),
    /// The matching exit for [`RecurseEnter`](Self::RecurseEnter) at
    /// the same depth.
    RecurseLeave(usize),
}

/// The tiled drivers' observation hook: one `{child}[t]` span under
/// `root` per block iteration `t`, and one `kernel_calls` tick per
/// kernel call.
pub(crate) fn span_hook<'a>(
    root: &'a Span,
    child: &'a str,
    kernel_calls: Counter,
) -> impl FnMut(FwEvent) -> Result<(), Infallible> + 'a {
    // Holds the open block span; replacing it closes the previous one.
    let mut _block: Option<Span> = None;
    move |ev| {
        match ev {
            FwEvent::BlockStart(t) => _block = Some(root.child(&format!("{child}[{t}]"))),
            FwEvent::Kernel => kernel_calls.incr(),
            _ => {}
        }
        Ok(())
    }
}

/// Run the tiled driver inline over `acc`, with one `tile[t]` child of
/// `root` per block iteration and the `fw.kernel_calls` counter.
fn run_tiled_observed<L: StridedView, A: CellAccess>(
    layout: &L,
    n: usize,
    acc: &mut A,
    b: usize,
    registry: &Registry,
    root: &Span,
) {
    let mut hook = span_hook(root, "tile", registry.counter("fw.kernel_calls"));
    let Ok(()) = drive(&Planner::new(layout, n, b), &mut Inline(acc), &mut hook);
}

/// [`fw_iterative`](crate::fw_iterative) under a `fw.iterative` span.
pub fn fw_iterative_observed<L: StridedView>(m: &mut FwMatrix<L>, registry: &Registry) {
    let _root = registry.span("fw.iterative");
    registry.counter("fw.kernel_calls").incr();
    crate::fw_iterative(m);
}

/// [`fw_tiled`](crate::fw_tiled) reporting into `registry`: a `fw.tiled`
/// root span, one `tile[t]` child per block iteration, and the
/// `fw.kernel_calls` counter.
pub fn fw_tiled_observed<L: StridedView>(m: &mut FwMatrix<L>, b: usize, registry: &Registry) {
    let root = registry.span("fw.tiled");
    let (layout, n) = (m.layout().clone(), m.n());
    run_tiled_observed(&layout, n, &mut SliceAccess(m.storage_mut()), b, registry, &root);
}

/// [`fw_recursive`](crate::fw_recursive) reporting into `registry`: a
/// `fw.recursive` root span and the `fw.base_case_hits` /
/// `fw.kernel_calls` counters.
pub fn fw_recursive_observed<L: StridedView>(m: &mut FwMatrix<L>, base: usize, registry: &Registry) {
    let _root = registry.span("fw.recursive");
    let base_cases = registry.counter("fw.base_case_hits");
    let kernel_calls = registry.counter("fw.kernel_calls");
    let layout = m.layout().clone();
    let n = m.n();
    run_recursive_with(&layout, n, &mut SliceAccess(m.storage_mut()), base, &mut |ev| {
        if ev == FwEvent::BaseCase {
            base_cases.incr();
            kernel_calls.incr();
        }
    });
}

/// [`fw_tiled_copy`](crate::fw_tiled_copy) reporting into `registry`: a
/// `fw.copy` root span, one `tile[t]` child per block iteration, and the
/// `fw.kernel_calls` / `fw.tile_copies` counters.
pub fn fw_tiled_copy_observed(m: &mut FwMatrix<RowMajor>, b: usize, registry: &Registry) {
    let root = registry.span("fw.copy");
    let (layout, n) = (*m.layout(), m.n());
    let mut acc = CopyAccess::new(m.storage_mut(), b);
    run_tiled_observed(&layout, n, &mut acc, b, registry, &root);
    registry.counter("fw.tile_copies").add(acc.copies);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_iterative_slice;
    use cachegraph_graph::INF;
    use cachegraph_layout::{BlockLayout, ZMorton};
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
    fn observed_tiled_counts_kernels_and_spans() {
        let n = 16;
        let b = 4;
        let costs = random_costs(n, 0.3, 1);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);

        let reg = Registry::new();
        let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), &costs);
        fw_tiled_observed(&mut m, b, &reg);
        assert_eq!(m.to_row_major(), expect);

        let snap = reg.snapshot();
        // 4x4 tile grid: 16 kernel calls per block iteration, 4 iterations.
        let tiles = n / b;
        assert_eq!(snap.counters.get("fw.kernel_calls"), Some(&((tiles * tiles * tiles) as u64)));
        // One root + one tile[t] child per iteration.
        assert_eq!(snap.spans.len(), tiles + 1);
        let root = snap.spans.last().expect("root span");
        assert_eq!(root.path, "fw.tiled");
        assert_eq!(root.counters.get("fw.kernel_calls"), Some(&((tiles * tiles * tiles) as u64)));
        assert!(snap.spans[0].path.starts_with("fw.tiled/tile["));
    }

    #[test]
    fn observed_recursive_counts_base_cases() {
        let n = 16;
        let base = 4;
        let costs = random_costs(n, 0.3, 2);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);

        let reg = Registry::new();
        let mut m = FwMatrix::from_costs(ZMorton::new(n, base), &costs);
        fw_recursive_observed(&mut m, base, &reg);
        assert_eq!(m.to_row_major(), expect);

        let snap = reg.snapshot();
        // (n/base)^3 base-case kernels, none skipped (no padding here).
        let tiles = (n / base) as u64;
        assert_eq!(snap.counters.get("fw.base_case_hits"), Some(&(tiles * tiles * tiles)));
    }

    #[test]
    fn observed_copy_counts_tile_copies() {
        let n = 8;
        let b = 4;
        let costs = random_costs(n, 0.4, 3);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);

        let reg = Registry::new();
        let mut m = FwMatrix::from_costs(RowMajor::new(n), &costs);
        fw_tiled_copy_observed(&mut m, b, &reg);
        assert_eq!(m.to_row_major(), expect);

        let snap = reg.snapshot();
        let copies = *snap.counters.get("fw.tile_copies").expect("copies counted");
        let kernels = *snap.counters.get("fw.kernel_calls").expect("kernels counted");
        // Every kernel call copies at least A in and A out.
        assert_eq!(kernels, 8); // 2x2 tile grid, 4 calls per iteration, 2 iterations
        assert!(copies >= 2 * kernels, "copies {copies} vs kernels {kernels}");
    }

    #[test]
    fn disabled_registry_changes_nothing() {
        let n = 12;
        let costs = random_costs(n, 0.35, 4);
        let mut plain = FwMatrix::from_costs(BlockLayout::new(n, 4), &costs);
        crate::fw_tiled(&mut plain, 4);
        let mut observed = FwMatrix::from_costs(BlockLayout::new(n, 4), &costs);
        fw_tiled_observed(&mut observed, 4, &Registry::disabled());
        assert_eq!(plain.to_row_major(), observed.to_row_major());
    }

    #[test]
    fn observed_parallel_shares_counter_across_threads() {
        let n = 16;
        let b = 4;
        let costs = random_costs(n, 0.3, 5);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);

        let reg = Registry::new();
        let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), &costs);
        crate::parallel::fw_tiled_parallel_observed(&mut m, b, 4, &reg);
        assert_eq!(m.to_row_major(), expect);

        let snap = reg.snapshot();
        let tiles = (n / b) as u64;
        // Same kernel-call count as the sequential tiled variant.
        assert_eq!(snap.counters.get("fw.kernel_calls"), Some(&(tiles * tiles * tiles)));
        assert_eq!(snap.spans.last().map(|s| s.path.as_str()), Some("fw.parallel"));
    }
}

//! Parallel tiled Floyd-Warshall — the parallelisation the paper's
//! conclusion sketches: "Since computation and data are already decomposed,
//! what need to be added are computation and data distribution [and]
//! synchronization".
//!
//! Within one block iteration `t` the tiled decomposition has three
//! phases with a barrier between them:
//!
//! 1. the diagonal tile `(t, t)` — inherently sequential;
//! 2. the rest of row `t` and column `t` — every tile independent, each
//!    reading only itself and the (now stable) diagonal tile;
//! 3. all remaining tiles — every tile independent, each reading only
//!    itself and its (now stable) row-`t` / column-`t` tiles.
//!
//! Tiles in phases 2 and 3 are written by exactly one task and read tiles
//! written only in earlier phases, so tasks are data-race free. The
//! parallel driver is the tiled driver (`tiled.rs`) with a chunked
//! executor: each phase's tasks go to [`cachegraph_plan::run_tasks`]
//! scoped workers, which run the `kernel.rs` FWI kernel over a
//! `SharedStorage` handle — raw pointers, because disjoint mutable tile
//! views of one allocation cannot be expressed as safe slices.
//!
//! The task plan (which tile each task writes and reads, per phase) is
//! built by [`crate::plan::Planner`] — pure data shared with the dynamic
//! disjointness test below and with the `cachegraph-check` footprint
//! oracle and schedule explorer, which machine-check the phase
//! disjointness argument every `SAFETY:` comment here relies on.

use std::marker::PhantomData;

use cachegraph_graph::Weight;
use cachegraph_obs::Registry;

use crate::kernel::{CellAccess, StridedView};
use crate::matrix::FwMatrix;
use crate::observed::{span_hook, FwEvent};
use crate::plan::{Planner, TileTask};
use crate::tiled::{drive, no_hook, TileExec};

/// One matrix's storage, shared by the workers of a phase: a copyable
/// pointer+len handle whose [`CellAccess`] reads and writes cells in
/// place, so every worker runs the one FWI kernel of `kernel.rs`.
#[derive(Clone, Copy)]
pub(crate) struct SharedStorage<'a> {
    ptr: *mut Weight,
    len: usize,
    _data: PhantomData<&'a mut [Weight]>,
}

// SAFETY: the handle is a plain pointer+len pair with no interior state;
// all concurrent access goes through `read`/`write`, whose users uphold
// the contract of `SharedStorage::new` (each A tile written by exactly
// one task per phase, B/C tiles only read).
unsafe impl Sync for SharedStorage<'_> {}
// SAFETY: moving the handle to another thread transfers no aliasing
// obligations; soundness rests on the per-phase task disjointness, not on
// which thread holds the copy.
unsafe impl Send for SharedStorage<'_> {}

impl<'a> SharedStorage<'a> {
    /// # Safety
    /// While any copy of the handle is in use, `data` must be accessed
    /// only through the handle's copies; every index they are given must
    /// be in bounds; and copies used concurrently must not conflict — a
    /// cell written through one is neither read nor written through
    /// another at the same time.
    ///
    /// Passing the handle only to the FWI kernel over [`Planner`] tasks
    /// meets the last two clauses: the kernel's accesses stay inside the
    /// task's tiles (`cachegraph-analyze` proves it from the kernel
    /// source), and running the tasks of one phase concurrently, with a
    /// join between phases, is the phase disjointness the footprint
    /// oracle proves. Bounds are checked in debug builds only: a release
    /// check on every access slowed the one-thread n = 1024 BDL solve by
    /// about 12% on a 2-core x86-64 host.
    pub(crate) unsafe fn new(data: &'a mut [Weight]) -> Self {
        Self { ptr: data.as_mut_ptr(), len: data.len(), _data: PhantomData }
    }
}

impl CellAccess for SharedStorage<'_> {
    #[inline(always)]
    fn read(&mut self, idx: usize) -> Weight {
        debug_assert!(idx < self.len);
        // SAFETY: in bounds and no concurrent writer of this cell, by the
        // contract of `SharedStorage::new`.
        unsafe { *self.ptr.add(idx) }
    }

    #[inline(always)]
    fn write(&mut self, idx: usize, v: Weight) {
        debug_assert!(idx < self.len);
        // SAFETY: in bounds and no concurrent reader or writer of this
        // cell, by the contract of `SharedStorage::new`.
        unsafe { *self.ptr.add(idx) = v }
    }
}

/// Runs each phase on [`cachegraph_plan::run_tasks`] workers — the
/// chunking the `cachegraph-check` explorer models. Kernel events fire on
/// the calling thread, one per task, before the phase starts.
struct Chunked<'a> {
    data: SharedStorage<'a>,
    threads: usize,
}

impl TileExec for Chunked<'_> {
    fn phase<E>(
        &mut self,
        tasks: &[TileTask],
        b: usize,
        hook: &mut impl FnMut(FwEvent) -> Result<(), E>,
    ) -> Result<(), E> {
        for _ in tasks {
            hook(FwEvent::Kernel)?;
        }
        let data = self.data;
        cachegraph_plan::run_tasks(tasks, self.threads, |t| {
            let mut acc = data;
            acc.fwi_block(t.a, t.b, t.c, b);
        });
        Ok(())
    }
}

/// The hand-rolled dispatch of the first parallel driver (one scoped
/// thread per chunk, inline at one worker), kept only as the executor
/// the `obs_overhead` TaskGraph dispatch budget compares [`Chunked`]
/// against.
struct HandRolled<'a> {
    data: SharedStorage<'a>,
    threads: usize,
}

impl TileExec for HandRolled<'_> {
    fn phase<E>(
        &mut self,
        tasks: &[TileTask],
        b: usize,
        hook: &mut impl FnMut(FwEvent) -> Result<(), E>,
    ) -> Result<(), E> {
        for _ in tasks {
            hook(FwEvent::Kernel)?;
        }
        let data = self.data;
        let run = move |slice: &[TileTask]| {
            let mut acc = data;
            for t in slice {
                acc.fwi_block(t.a, t.b, t.c, b);
            }
        };
        let threads = self.threads.min(tasks.len()).max(1);
        if threads == 1 {
            run(tasks);
            return Ok(());
        }
        std::thread::scope(|s| {
            for slice in tasks.chunks(tasks.len().div_ceil(threads)) {
                s.spawn(move || run(slice));
            }
        });
        Ok(())
    }
}

/// [`fw_tiled_parallel`] driven by the hand-rolled dispatch loop instead
/// of the shared TaskGraph executor. Exists solely so the
/// dispatch-overhead benchmark has a baseline; results are identical.
#[doc(hidden)]
pub fn fw_tiled_parallel_handrolled<L: StridedView>(m: &mut FwMatrix<L>, b: usize, threads: usize) {
    assert!(threads >= 1, "need at least one thread");
    let layout = m.layout().clone();
    let planner = Planner::new(&layout, m.n(), b);
    // SAFETY: only `drive` uses the handle, running one planner phase at
    // a time through `HandRolled`, which joins every worker before it
    // returns; tasks of one phase are disjoint (the footprint oracle).
    let data = unsafe { SharedStorage::new(m.storage_mut()) };
    let Ok(()) = drive(&planner, &mut HandRolled { data, threads }, &mut no_hook);
}

/// Parallel tiled Floyd-Warshall with tile size `b` on `threads` threads.
/// Produces the same result as [`crate::fw_tiled`].
pub fn fw_tiled_parallel<L: StridedView>(m: &mut FwMatrix<L>, b: usize, threads: usize) {
    fw_tiled_parallel_observed(m, b, threads, &Registry::disabled());
}

/// [`fw_tiled_parallel`] reporting into `registry`: a `fw.parallel` root
/// span with one `block[t]` child per block iteration, and a
/// `fw.kernel_calls` counter. With a disabled registry every
/// instrumentation point is a branch, so this *is* the implementation
/// behind [`fw_tiled_parallel`].
pub fn fw_tiled_parallel_observed<L: StridedView>(
    m: &mut FwMatrix<L>,
    b: usize,
    threads: usize,
    registry: &Registry,
) {
    assert!(threads >= 1, "need at least one thread");
    let root = registry.span("fw.parallel");
    let mut hook = span_hook(&root, "block", registry.counter("fw.kernel_calls"));
    let layout = m.layout().clone();
    // The planner checks the tiling preconditions (padded dimension a
    // multiple of b, layout exposes aligned bxb tiles).
    let planner = Planner::new(&layout, m.n(), b);
    // SAFETY: only `drive` uses the handle, running one planner phase at
    // a time through `Chunked`, whose `run_tasks` joins every worker
    // before it returns; tasks of one phase are disjoint (the footprint
    // oracle), and with one worker they run inline.
    let data = unsafe { SharedStorage::new(m.storage_mut()) };
    let Ok(()) = drive(&planner, &mut Chunked { data, threads }, &mut hook);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_iterative_slice;
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
    fn parallel_matches_sequential_baseline() {
        for n in [8, 17, 32] {
            let costs = random_costs(n, 0.3, n as u64);
            let mut expect = costs.clone();
            fw_iterative_slice(&mut expect, n);
            for threads in [1, 2, 4] {
                let mut m = FwMatrix::from_costs(BlockLayout::new(n, 4), &costs);
                fw_tiled_parallel(&mut m, 4, threads);
                assert_eq!(m.to_row_major(), expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn single_tile_problem() {
        let costs = random_costs(4, 0.5, 9);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, 4);
        let mut m = FwMatrix::from_costs(BlockLayout::new(4, 4), &costs);
        fw_tiled_parallel(&mut m, 4, 4);
        assert_eq!(m.to_row_major(), expect);
    }

    /// The data-race-freedom claim the parallel phases rest on, checked
    /// dynamically against the *same* task plan the driver executes
    /// (`plan::Planner` — no inline re-derivation that could drift):
    /// within one phase, no two tasks write a common cell, no task reads
    /// a cell that another task of the same phase writes, and every
    /// recorded access stays inside the footprint the plan declares for
    /// it (what the `cachegraph-check` footprint oracle reasons about).
    /// The third leg — footprints *statically inferred* from the kernel
    /// source — is closed by the three-way differential test in
    /// `cachegraph-analyze`, which reuses the same [`RecordingAccess`].
    #[test]
    fn phase_tasks_access_disjoint_cells() {
        use crate::kernel::fwi_access;
        use crate::record::RecordingAccess;

        let n = 12;
        let b = 4;
        let layout = BlockLayout::new(n, b);
        let costs = random_costs(n, 0.4, 7);
        let mut m = FwMatrix::from_costs(layout, &costs);
        let planner = Planner::new(&layout, n, b);

        let check_phase = |phase: &str, t: usize, tasks: &[TileTask], data: &mut [u32]| {
            let mut records = Vec::new();
            for (i, task) in tasks.iter().enumerate() {
                let mut acc = RecordingAccess::new(data);
                fwi_access(&mut acc, task.a, task.b, task.c, b);
                // The declared footprints must cover every access the real
                // kernel performs — this is what makes the static oracle's
                // disjointness proof evidence about the executed code.
                let declared_w: std::collections::BTreeSet<usize> =
                    task.write_rows(b).flatten().collect();
                let declared_r: std::collections::BTreeSet<usize> =
                    task.read_rows(b).flatten().collect();
                assert!(
                    acc.writes.is_subset(&declared_w),
                    "{phase} t={t}: task {i} writes outside its declared footprint"
                );
                assert!(
                    acc.reads.is_subset(&declared_r),
                    "{phase} t={t}: task {i} reads outside its declared footprint"
                );
                records.push((acc.reads, acc.writes));
            }
            for (x, (_, wx)) in records.iter().enumerate() {
                for (y, (ry, wy)) in records.iter().enumerate() {
                    if x == y {
                        continue;
                    }
                    assert!(
                        wx.is_disjoint(wy),
                        "{phase} t={t}: tasks {x} and {y} write common cells"
                    );
                    assert!(
                        wx.is_disjoint(ry),
                        "{phase} t={t}: task {y} reads cells task {x} writes"
                    );
                }
            }
        };

        let mut phase2 = Vec::new();
        let mut phase3 = Vec::new();
        for t in 0..planner.real_tiles() {
            let diag = planner.phase1(t);
            let data = m.storage_mut();
            crate::kernel::fwi(data, diag.a, diag.b, diag.c, b);

            planner.phase2(t, &mut phase2);
            check_phase("phase2", t, &phase2, data);

            planner.phase3(t, &mut phase3);
            check_phase("phase3", t, &phase3, data);
        }

        // The recorded (sequential) run must still compute the right
        // answer, so the disjointness evidence covers the real kernel
        // inputs, not a degenerate matrix.
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);
        assert_eq!(m.to_row_major(), expect);
    }

    #[test]
    fn many_threads_more_than_tasks() {
        let costs = random_costs(8, 0.4, 2);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, 8);
        let mut m = FwMatrix::from_costs(BlockLayout::new(8, 4), &costs);
        fw_tiled_parallel(&mut m, 4, 64);
        assert_eq!(m.to_row_major(), expect);
    }
}

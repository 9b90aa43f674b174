//! The full variant × shape matrix: every Floyd-Warshall implementation
//! in the crate, run over handcrafted edge shapes (n < b, b = 1, n not a
//! multiple of b, n = 1, fully disconnected, zero-weight cycles) and a
//! seeded random sweep, all diffed cell-for-cell against the iterative
//! row-major baseline. Every assertion carries the seed and shape so a
//! failure replays deterministically.

use cachegraph_fw::{
    fw_iterative, fw_iterative_slice, fw_recursive, fw_tiled, fw_tiled_cancellable, fw_tiled_copy,
    fw_tiled_observed, parallel::fw_tiled_parallel, FwMatrix, INF,
};
use cachegraph_layout::{BlockLayout, RowMajor, ZMorton};
use cachegraph_obs::Registry;
use cachegraph_rng::StdRng;

fn baseline(costs: &[u32], n: usize) -> Vec<u32> {
    let mut d = costs.to_vec();
    fw_iterative_slice(&mut d, n);
    d
}

/// Run every variant that accepts this `(n, b)` shape and diff against
/// the baseline. `tag` identifies the case (shape name or seed) in
/// failure output.
fn check_all_variants(costs: &[u32], n: usize, b: usize, tag: &str) {
    let expect = baseline(costs, n);

    // Iterative, layout-generic: row-major and Block Data Layout.
    let mut m = FwMatrix::from_costs(RowMajor::new(n), costs);
    fw_iterative(&mut m);
    assert_eq!(m.to_row_major(), expect, "[{tag}] fw_iterative/RowMajor n={n}");
    let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), costs);
    fw_iterative(&mut m);
    assert_eq!(m.to_row_major(), expect, "[{tag}] fw_iterative/BlockLayout n={n} b={b}");

    // Recursive (FWR) on Z-Morton, several base-case sizes. ZMorton pads
    // to base * 2^k by construction, so any base is legal.
    for base in [1, 2, 4] {
        let mut m = FwMatrix::from_costs(ZMorton::new(n, base), costs);
        fw_recursive(&mut m, base);
        assert_eq!(m.to_row_major(), expect, "[{tag}] fw_recursive/ZMorton n={n} base={base}");
    }

    // Tiled on the Block Data Layout (pads to a multiple of b).
    let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), costs);
    fw_tiled(&mut m, b);
    assert_eq!(m.to_row_major(), expect, "[{tag}] fw_tiled/BlockLayout n={n} b={b}");

    // Cancellable tiled with a poll that never fires.
    let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), costs);
    let r = fw_tiled_cancellable(&mut m, b, &mut || false);
    assert_eq!(r, Ok(()), "[{tag}] fw_tiled_cancellable n={n} b={b}");
    assert_eq!(m.to_row_major(), expect, "[{tag}] fw_tiled_cancellable n={n} b={b}");

    // Observed tiled on an enabled registry: one kernel call per
    // (block iteration, tile) pair over the real tiles.
    let registry = Registry::new();
    let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), costs);
    fw_tiled_observed(&mut m, b, &registry);
    assert_eq!(m.to_row_major(), expect, "[{tag}] fw_tiled_observed n={n} b={b}");
    let real_tiles = n.div_ceil(b) as u64;
    assert_eq!(
        registry.snapshot().counters.get("fw.kernel_calls"),
        Some(&(real_tiles * real_tiles * real_tiles)),
        "[{tag}] fw_tiled_observed kernel calls n={n} b={b}"
    );

    // Row-major tiled variants need n divisible by b (no padding).
    if n.is_multiple_of(b) {
        let mut m = FwMatrix::from_costs(RowMajor::new(n), costs);
        fw_tiled(&mut m, b);
        assert_eq!(m.to_row_major(), expect, "[{tag}] fw_tiled/RowMajor n={n} b={b}");
        let mut m = FwMatrix::from_costs(RowMajor::new(n), costs);
        fw_tiled_copy(&mut m, b);
        assert_eq!(m.to_row_major(), expect, "[{tag}] fw_tiled_copy n={n} b={b}");
        for threads in [1, 2] {
            let mut m = FwMatrix::from_costs(RowMajor::new(n), costs);
            fw_tiled_parallel(&mut m, b, threads);
            assert_eq!(
                m.to_row_major(),
                expect,
                "[{tag}] fw_tiled_parallel/RowMajor n={n} b={b} threads={threads}"
            );
        }
    }

    // Parallel tiled at several thread counts (including more threads
    // than tiles for small n).
    for threads in [1, 2, 4] {
        let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), costs);
        fw_tiled_parallel(&mut m, b, threads);
        assert_eq!(
            m.to_row_major(),
            expect,
            "[{tag}] fw_tiled_parallel n={n} b={b} threads={threads}"
        );
    }
}

/// Random costs with the given edge density and weight floor (a floor of
/// 0 permits zero-weight cycles).
fn random_costs(rng: &mut StdRng, n: usize, density: f64, min_w: u32) -> Vec<u32> {
    let mut c: Vec<u32> = (0..n * n)
        .map(|_| if rng.gen_bool(density) { rng.gen_range(min_w..100) } else { INF })
        .collect();
    for v in 0..n {
        c[v * n + v] = 0;
    }
    c
}

#[test]
fn matrix_smaller_than_tile() {
    // n < b: a single partially-real tile; padding must stay inert.
    let mut rng = StdRng::seed_from_u64(0x51a1);
    let (n, b) = (3, 8);
    let costs = random_costs(&mut rng, n, 0.5, 1);
    check_all_variants(&costs, n, b, "n<b");
}

#[test]
fn unit_tiles() {
    // b = 1 degenerates every phase to single cells.
    let mut rng = StdRng::seed_from_u64(0x0b01);
    let costs = random_costs(&mut rng, 7, 0.4, 1);
    check_all_variants(&costs, 7, 1, "b=1");
}

#[test]
fn ragged_tilings() {
    // n not a multiple of b: the last tile row/column is mostly padding.
    let mut rng = StdRng::seed_from_u64(0x4a66);
    for (n, b) in [(10, 4), (7, 3), (13, 5)] {
        let costs = random_costs(&mut rng, n, 0.4, 1);
        check_all_variants(&costs, n, b, "ragged");
    }
}

#[test]
fn single_vertex() {
    // n = 1: nothing to relax; every variant must leave the 0 diagonal.
    check_all_variants(&[0], 1, 4, "n=1");
    check_all_variants(&[0], 1, 1, "n=1,b=1");
}

#[test]
fn fully_disconnected_graph() {
    // Density 0: all distances stay INF except the diagonal.
    let n = 9;
    let mut costs = vec![INF; n * n];
    for v in 0..n {
        costs[v * n + v] = 0;
    }
    check_all_variants(&costs, n, 4, "disconnected");
    let expect = baseline(&costs, n);
    for i in 0..n {
        for j in 0..n {
            assert_eq!(expect[i * n + j], if i == j { 0 } else { INF });
        }
    }
}

#[test]
fn zero_weight_cycles() {
    // A handcrafted 0-weight cycle 0 -> 1 -> 2 -> 0 plus one real edge:
    // everything on the cycle is mutually at distance 0, and the cycle
    // must not loop forever or underflow.
    let n = 4;
    let mut costs = vec![INF; n * n];
    for v in 0..n {
        costs[v * n + v] = 0;
    }
    costs[1] = 0; // 0 -> 1
    costs[n + 2] = 0; // 1 -> 2
    costs[2 * n] = 0; // 2 -> 0
    costs[2 * n + 3] = 5; // 2 -> 3
    check_all_variants(&costs, n, 2, "zero-cycle");
    let expect = baseline(&costs, n);
    assert_eq!(expect[3], 5, "0 -> 3 goes through the free cycle");
    assert_eq!(expect[n], 0, "1 -> 0 closes the cycle at cost 0");

    // And randomized graphs whose weight floor is 0.
    let mut rng = StdRng::seed_from_u64(0x02e0);
    for n in [5, 8, 11] {
        let costs = random_costs(&mut rng, n, 0.5, 0);
        check_all_variants(&costs, n, 3, "zero-weights");
    }
}

#[test]
fn seeded_random_sweep() {
    // The broad sweep: random n, b, density per case; the seed in the
    // tag replays any failure.
    let mut rng = StdRng::seed_from_u64(0xd1ce);
    for case in 0..48 {
        let n = rng.gen_range(1usize..=18);
        let b = rng.gen_range(1usize..=6);
        let density = [0.1, 0.4, 0.8][rng.gen_range(0usize..3)];
        let costs = random_costs(&mut rng, n, density, 1);
        let tag = format!("sweep seed=0xd1ce case={case}");
        check_all_variants(&costs, n, b, &tag);
    }
}

//! Seeded property matrix for the parallel delta-stepping driver:
//! every (threads, shape) cell must produce `dist` AND `pred` arrays
//! bit-identical to the serial driver, and distances equal to
//! Dijkstra's. Every assertion prints the seed so a failure replays
//! deterministically.

use cachegraph_graph::{generators, AdjacencyArray, EdgeListBuilder, Weight, INF};
use cachegraph_sssp::{delta_stepping, delta_stepping_parallel, dijkstra_binary_heap};

const THREADS: &[usize] = &[1, 2, 4];
const DELTAS: &[Weight] = &[1, 3, 8];

/// Assert the full matrix property for one graph under one seed label.
fn assert_matrix(g: &AdjacencyArray, seed: u64, label: &str) {
    let reference = dijkstra_binary_heap(g, 0);
    for &delta in DELTAS {
        let serial = delta_stepping(g, 0, delta);
        assert_eq!(
            serial.dist, reference.dist,
            "seed {seed:#x} {label} delta {delta}: serial dist != dijkstra"
        );
        for &threads in THREADS {
            let par = delta_stepping_parallel(g, 0, delta, threads);
            assert_eq!(
                par.dist, serial.dist,
                "seed {seed:#x} {label} delta {delta} threads {threads}: dist diverged"
            );
            assert_eq!(
                par.pred, serial.pred,
                "seed {seed:#x} {label} delta {delta} threads {threads}: pred diverged"
            );
        }
    }
}

#[test]
fn single_vertex() {
    let g = EdgeListBuilder::new(1).build_array();
    assert_matrix(&g, 0, "n=1");
}

#[test]
fn disconnected_components() {
    for seed in [0x5eed, 0xace0, 0xbeef] {
        // Two random halves with no cross edges: everything in the
        // second half must stay at INF under every thread count.
        let half = generators::random_directed(10, 0.3, 9, seed);
        let mut b = EdgeListBuilder::new(20);
        for e in half.edges() {
            b.add(e.from, e.to, e.weight);
            b.add(e.from + 10, e.to + 10, e.weight);
        }
        let g = b.build_array();
        assert_matrix(&g, seed, "disconnected");
        let serial = delta_stepping(&g, 0, 3);
        assert!(
            serial.dist[10..].iter().all(|&d| d == INF),
            "seed {seed:#x}: unreachable component got a finite distance"
        );
    }
}

#[test]
fn zero_weight_edges() {
    for seed in [0x5eed, 0xace0] {
        // A zero-weight cycle plus random weighted chords: zero-weight
        // relaxations stay in the current bucket and must terminate.
        let n = 12u32;
        let mut b = EdgeListBuilder::new(n as usize);
        for v in 0..n {
            b.add(v, (v + 1) % n, 0);
        }
        let chords = generators::random_directed(n as usize, 0.25, 7, seed);
        for e in chords.edges() {
            b.add(e.from, e.to, e.weight);
        }
        assert_matrix(&b.build_array(), seed, "zero-weight");
    }
}

#[test]
fn long_path_spanning_many_buckets() {
    let n = 40u32;
    let mut b = EdgeListBuilder::new(n as usize);
    for v in 0..n - 1 {
        b.add(v, v + 1, 1 + (v % 5));
    }
    assert_matrix(&b.build_array(), 0, "path");
}

#[test]
fn random_graph_sweep() {
    for seed in [0x5eed, 0xace0, 0xbeef, 0xcafe] {
        for (n, density) in [(16, 0.2), (48, 0.08)] {
            let g = generators::random_directed(n, density, 20, seed).build_array();
            assert_matrix(&g, seed, "random");
        }
    }
}

#[test]
fn more_threads_than_vertices() {
    for seed in [0x5eed, 0xace0] {
        let g = generators::random_directed(5, 0.4, 6, seed).build_array();
        let serial = delta_stepping(&g, 0, 2);
        for threads in [7, 16] {
            let par = delta_stepping_parallel(&g, 0, 2, threads);
            assert_eq!(
                (par.dist, par.pred),
                (serial.dist.clone(), serial.pred.clone()),
                "seed {seed:#x} threads {threads}: oversubscribed run diverged"
            );
        }
    }
}

#[test]
fn many_frontier_vertices_improve_one_target() {
    // Source 0 reaches 1..=6 at distance 1, so with delta >= 2 they form
    // one frontier; each of them then proposes to every hub in the same
    // iteration, with decreasing weights (later slots keep winning) and
    // ties (the first slot in order must keep `pred`). Hubs sit in
    // different owned ranges at every thread count.
    for seed in [0x5eed, 0xace0] {
        let n = 23u32;
        let mut b = EdgeListBuilder::new(n as usize);
        for u in 1..=6 {
            b.add(0, u, 1);
        }
        for (k, &hub) in [7u32, 12, 20, 22].iter().enumerate() {
            for u in 1..=6u32 {
                let w = if k % 2 == 0 { 12 - u } else { 4 + u % 2 };
                b.add(u, hub, w);
            }
            b.add(hub, (hub + 1) % n, 2);
        }
        let chords = generators::random_directed(n as usize, 0.05, 9, seed);
        for e in chords.edges() {
            b.add(e.from, e.to, e.weight);
        }
        assert_matrix(&b.build_array(), seed, "shared-target");
        let mut b = EdgeListBuilder::new(n as usize);
        for u in 1..=6 {
            b.add(0, u, 1);
            b.add(u, 20, 5);
        }
        let r = delta_stepping(&b.build_array(), 0, 8);
        assert_eq!(r.pred[20], 1, "seed {seed:#x}: a tie must go to the first slot");
    }
}

#[test]
fn light_edges_reenter_the_current_bucket() {
    // Weights far below the widest delta: relaxations keep landing in
    // the bucket being processed, so one bucket takes many inner
    // iterations, and chords re-improve vertices already settled in it.
    for seed in [0x5eed, 0xace0, 0xbeef] {
        let n = 37u32;
        let mut b = EdgeListBuilder::new(n as usize);
        for v in 0..n - 1 {
            b.add(v, v + 1, 1 + v % 2);
        }
        let chords = generators::random_directed(n as usize, 0.08, 2, seed);
        for e in chords.edges() {
            b.add(e.from, e.to, e.weight);
        }
        assert_matrix(&b.build_array(), seed, "light-edges");
    }
}

#[test]
fn vertex_count_not_a_multiple_of_threads() {
    // Uneven owned ranges: the last scatter task owns fewer vertices.
    for seed in [0x5eed, 0xace0, 0xbeef] {
        for n in [13, 29, 50] {
            let g = generators::random_directed(n, 0.15, 9, seed).build_array();
            for delta in [2, 5] {
                let serial = delta_stepping(&g, 0, delta);
                for threads in [3, 6, 7] {
                    let par = delta_stepping_parallel(&g, 0, delta, threads);
                    assert_eq!(
                        (&par.dist, &par.pred),
                        (&serial.dist, &serial.pred),
                        "seed {seed:#x} n {n} delta {delta} threads {threads}: diverged"
                    );
                }
            }
        }
    }
}

/// FNV-1a over `dist ++ pred`, little-endian words.
fn digest(dist: &[u32], pred: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in dist.iter().chain(pred) {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn dist_and_pred_digests_are_pinned() {
    // Digests recorded from the driver that scanned every proposal in
    // every scatter task and merged per-vertex improved flags. Small
    // weights make equal-distance ties common, so `pred` pins the exact
    // frontier and application order, not just the distances.
    let cases = [
        (0x5eed_u64, 500usize, 0x988a_4df9_28fc_d3c3_u64),
        (0xace0, 701, 0x558e_8043_357b_f01d),
        (0xbeef, 1024, 0x39fd_879f_cb22_ddee),
    ];
    for (seed, n, want) in cases {
        let g = generators::random_directed(n, 0.01, 6, seed).build_array();
        for threads in [1, 2, 3] {
            let r = delta_stepping_parallel(&g, 0, 4, threads);
            assert_eq!(
                digest(&r.dist, &r.pred),
                want,
                "seed {seed:#x} n {n} threads {threads}: dist/pred digest moved"
            );
        }
    }
}

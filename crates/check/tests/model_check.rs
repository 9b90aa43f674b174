//! Tier-1 model-checking pass: the footprint oracle sweep, an exhaustive
//! schedule exploration of a nontrivial configuration, random-mode
//! coverage of wider configurations, and the barrier-omission mutation
//! that proves the checker actually detects races.

use cachegraph_check::{explore_config, sweep_footprints, Config, ExploreOptions};

#[test]
fn oracle_sweep_is_clean() {
    let (configs, violations) = sweep_footprints(20, 6);
    assert_eq!(configs, 120);
    assert!(violations.is_empty(), "footprint overlap: {}", violations[0]);
}

#[test]
fn exhaustive_exploration_of_a_nontrivial_config() {
    // n=8, b=4, 2 threads: 2 block iterations, each with a 2-task-per-
    // worker phase 2 (C(8,4) = 70 interleavings of the 4 k-steps per
    // worker) and a single-task phase 3 (1 interleaving) => 142 total.
    let cfg = Config { n: 8, b: 4, threads: 2, seed: 0x5eed };
    let report = explore_config(&cfg, &ExploreOptions::default());
    assert!(report.exhaustive, "interleaving count must be within the bound");
    assert_eq!(report.schedules, 142, "expected every interleaving exactly once");
    assert!(report.is_clean(), "violation on {cfg}: {report:?}");
}

#[test]
fn random_mode_covers_wider_configs() {
    for (n, b, threads) in [(16, 4, 4), (12, 3, 3), (20, 5, 2)] {
        let cfg = Config { n, b, threads, seed: 0xace0 + n as u64 };
        let report = explore_config(&cfg, &ExploreOptions::default());
        assert!(!report.exhaustive, "{cfg} should overflow the bound into sampling");
        assert!(report.schedules > 0);
        assert!(report.is_clean(), "violation on {cfg}: {report:?}");
    }
}

#[test]
fn more_threads_than_tasks_is_explored_cleanly() {
    // threads > per-phase task count: run_tasks clamps the worker
    // count, and so must the explorer.
    let cfg = Config { n: 8, b: 4, threads: 16, seed: 0xbeef };
    let report = explore_config(&cfg, &ExploreOptions::default());
    assert!(report.is_clean(), "violation on {cfg}: {report:?}");
}

#[test]
fn barrier_omission_is_detected_as_a_race() {
    let cfg = Config { n: 8, b: 4, threads: 2, seed: 0x5eed };
    let opts = ExploreOptions { merge_phases: true, ..ExploreOptions::default() };
    let report = explore_config(&cfg, &opts);
    assert!(
        !report.violations.is_empty(),
        "merging phases 2+3 removes the barrier; the checker must see the race"
    );
    let v = &report.violations[0];
    assert_eq!(v.phase, "merged2+3");
    assert!(!v.schedule.is_empty(), "violation must carry a replayable schedule");
    assert_eq!(v.seed, cfg.seed, "violation must carry the replay seed");
    // The canonical (serial) order of the merged list still equals the
    // barriered execution, so the final state stays correct even though
    // the parallel schedules race.
    assert!(report.final_matches_sequential);
}

#[test]
fn mutation_is_detected_at_higher_thread_counts_too() {
    for threads in [3, 4] {
        let cfg = Config { n: 12, b: 4, threads, seed: 0x7ace };
        let opts = ExploreOptions { merge_phases: true, ..ExploreOptions::default() };
        let report = explore_config(&cfg, &opts);
        assert!(!report.violations.is_empty(), "{cfg}: mutation must be detected");
    }
}

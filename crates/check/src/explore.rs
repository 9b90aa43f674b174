//! The cooperative schedule explorer.
//!
//! Re-executes the parallel driver's phase structure over a
//! [`ShadowStorage`] under a deterministic scheduler. Fidelity to the
//! real driver, piece by piece:
//!
//! * the task plan per phase is [`cachegraph_fw::plan::Planner`] — the
//!   same calls `fw_tiled_parallel` makes;
//! * tasks are assigned to workers with the same chunking as
//!   [`cachegraph_plan::run_tasks`] (`threads.min(tasks).max(1)`
//!   workers, contiguous chunks of `len.div_ceil(threads)` tasks);
//! * each worker's work is split into *steps*: one outer-`k` iteration
//!   of the FWI kernel per step, in exactly the operation order of the
//!   default `CellAccess::fwi_block` in `fw/src/kernel.rs`, which the
//!   parallel driver's workers run.
//!
//! A schedule is a sequence of worker ids; the scheduler runs the next
//! step of the named worker at each position. The scheduler itself —
//! interleaving enumeration, seeded sampling, canonical-state
//! comparison — is the generic engine in [`cachegraph_plan::schedule`],
//! shared with the delta-stepping, matching, and closure checkers; this
//! module contributes the FW step semantics and phase structure. Per phase the explorer
//! enumerates **every** interleaving when their number is within
//! [`ExploreOptions::exhaustive_bound`], otherwise it samples
//! seeded-random schedules (`cachegraph-rng`), and checks two things on
//! each: the shadow reports no same-phase conflicting accesses, and the
//! end-of-phase values equal the canonical (sequential) outcome. Any
//! failure is reported with the exact worker sequence and the config
//! seed, so it replays byte-for-byte.
//!
//! Step granularity: interleaving below the `k` level cannot change what
//! the race bookkeeping sees — the shadow records reader/writer *sets*
//! per cell and phase, so a conflicting pair is flagged in whichever
//! order the two accesses land (see [`crate::shadow`]). Coarser steps
//! only shorten schedules, they do not hide conflicts.

use std::fmt;

use cachegraph_fw::plan::{Planner, TileTask};
use cachegraph_fw::{fw_tiled, FwMatrix, INF};
use cachegraph_layout::BlockLayout;
use cachegraph_plan::schedule::{
    explore_phase as explore_phase_generic, worker_steps, ScheduleOptions,
};
use cachegraph_rng::StdRng;

use crate::shadow::{Race, ShadowStorage};

/// One model-checking configuration: a seeded random graph plus the
/// tiling and thread count to explore.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Logical matrix dimension.
    pub n: usize,
    /// Tile size (Block Data Layout block).
    pub b: usize,
    /// Worker thread count to model.
    pub threads: usize,
    /// Seed for the random graph and for schedule sampling.
    pub seed: u64,
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} b={} threads={} seed={:#x}", self.n, self.b, self.threads, self.seed)
    }
}

/// Knobs for the explorer.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Enumerate every interleaving of a phase when their count is at
    /// most this; otherwise fall back to seeded-random sampling.
    pub exhaustive_bound: u64,
    /// Sampled schedules per phase in random mode.
    pub samples: usize,
    /// Barrier-omission mutation: run phases 2 and 3 of every block
    /// iteration as one merged phase. The checker must detect a race —
    /// used to test the checker's sensitivity, not the driver.
    pub merge_phases: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self { exhaustive_bound: 20_000, samples: 48, merge_phases: false }
    }
}

/// A race found on a concrete schedule.
#[derive(Clone, Debug)]
pub struct RaceViolation {
    /// Block iteration.
    pub t: usize,
    /// Phase name (`"phase2"`, `"phase3"`, or `"merged2+3"`).
    pub phase: &'static str,
    /// The worker sequence that exhibited the race (replayable).
    pub schedule: Vec<u16>,
    /// The first conflicting access.
    pub race: Race,
    /// The config seed (replays the graph and the sampling stream).
    pub seed: u64,
}

impl fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={} {}: {} at cell {} (tasks {} vs {}) on schedule {:?}, replay seed {:#x}",
            self.t, self.phase, self.race.kind, self.race.unit, self.race.task, self.race.other,
            self.schedule, self.seed
        )
    }
}

/// A schedule whose end-of-phase values diverged from the canonical
/// sequential outcome (schedule-dependent result — determinism broken).
#[derive(Clone, Debug)]
pub struct ScheduleMismatch {
    /// Block iteration.
    pub t: usize,
    /// Phase name.
    pub phase: &'static str,
    /// The diverging worker sequence.
    pub schedule: Vec<u16>,
    /// First cell whose value differs.
    pub cell: usize,
}

impl fmt::Display for ScheduleMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={} {}: schedule-dependent value at cell {} on schedule {:?}",
            self.t, self.phase, self.cell, self.schedule
        )
    }
}

/// Outcome of exploring one configuration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// The explored configuration.
    pub config: Config,
    /// Schedules executed across all phases (canonical runs excluded).
    pub schedules: u64,
    /// True when every parallel phase was enumerated exhaustively.
    pub exhaustive: bool,
    /// Races found (at most one recorded per phase instance).
    pub violations: Vec<RaceViolation>,
    /// Result divergences found (at most one recorded per phase instance).
    pub mismatches: Vec<ScheduleMismatch>,
    /// After all block iterations, the shadow values equal the
    /// sequential `fw_tiled` result on the same input.
    pub final_matches_sequential: bool,
}

impl ExploreReport {
    /// No races, no schedule-dependent results, final values correct.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.mismatches.is_empty() && self.final_matches_sequential
    }
}

/// Record only the first race of a schedule.
fn note(first: &mut Option<Race>, race: Option<Race>) {
    if first.is_none() {
        *first = race;
    }
}

/// One outer-`k` iteration of `FWI(A, B, C)` for `task`, in exactly
/// the default `CellAccess::fwi_block`'s operation order, against the
/// shadow.
fn k_step(shadow: &mut ShadowStorage, task: &TileTask, k: usize, b: usize, tid: u16, first: &mut Option<Race>) {
    for i in 0..b {
        let (bik, race) = shadow.read(task.b.at(i, k), tid);
        note(first, race);
        if bik == INF {
            continue;
        }
        let c_row = task.c.at(k, 0);
        let a_row = task.a.at(i, 0);
        for j in 0..b {
            let (cv, race) = shadow.read(c_row + j, tid);
            note(first, race);
            let via = bik.saturating_add(cv);
            let (av, race) = shadow.read(a_row + j, tid);
            note(first, race);
            if via < av {
                note(first, shadow.write(a_row + j, tid, via));
            }
        }
    }
}

struct PhaseCtx {
    t: usize,
    phase: &'static str,
    b: usize,
    threads: usize,
}

/// Explore one parallel phase through the generic engine in
/// [`cachegraph_plan::schedule`]: one step = one outer-`k` iteration of
/// a task's kernel ([`k_step`]), workers chunked exactly like
/// `cachegraph_plan::run_tasks`. On return `shadow` holds the canonical end-of-phase
/// state (what the barriered driver computes).
fn explore_phase(
    shadow: &mut ShadowStorage,
    tasks: &[TileTask],
    ctx: &PhaseCtx,
    opts: &ExploreOptions,
    rng: &mut StdRng,
    report: &mut ExploreReport,
) {
    shadow.begin_phase();
    if tasks.is_empty() {
        return;
    }
    let workers = worker_steps(&vec![ctx.b; tasks.len()], ctx.threads);
    let sched_opts =
        ScheduleOptions { exhaustive_bound: opts.exhaustive_bound, samples: opts.samples };
    let (canonical, outcome) = explore_phase_generic(
        shadow,
        &workers,
        &sched_opts,
        rng,
        &mut |s, ti, k| {
            let mut first = None;
            // tidy note: task ids fit u16 — tiles² per phase, asserted by
            // the planner sweep sizes used here.
            k_step(s, &tasks[ti], k, ctx.b, ti as u16, &mut first);
            first
        },
        &mut |end, canon| {
            end.values().iter().zip(canon.values()).position(|(a, b)| a != b)
        },
    );
    report.schedules += outcome.schedules;
    if outcome.sampled {
        report.exhaustive = false;
    }
    if let Some((schedule, race)) = outcome.race {
        report.violations.push(RaceViolation {
            t: ctx.t,
            phase: ctx.phase,
            schedule,
            race,
            seed: report.config.seed,
        });
    }
    if let Some((schedule, cell)) = outcome.mismatch {
        report.mismatches.push(ScheduleMismatch { t: ctx.t, phase: ctx.phase, schedule, cell });
    }
    *shadow = canonical;
}

/// Seeded random cost matrix, same idiom as the fw test generators.
fn random_costs(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut costs = vec![INF; n * n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                costs[i * n + j] = 0;
            } else if rng.gen_bool(0.4) {
                costs[i * n + j] = rng.gen_range(1..100);
            }
        }
    }
    costs
}

/// Model-check one configuration: build a seeded random graph, then walk
/// the block iterations exactly like `fw_tiled_parallel` — sequential
/// diagonal, then the parallel phases under schedule exploration (or one
/// merged phase in mutation mode). The end state must equal the
/// sequential `fw_tiled` result.
pub fn explore_config(cfg: &Config, opts: &ExploreOptions) -> ExploreReport {
    assert!(cfg.threads >= 1, "need at least one thread");
    let layout = BlockLayout::new(cfg.n, cfg.b);
    let costs = random_costs(cfg.n, cfg.seed);
    let m = FwMatrix::from_costs(layout, &costs);
    let mut expect = m.clone();
    fw_tiled(&mut expect, cfg.b);

    let planner = Planner::new(&layout, cfg.n, cfg.b);
    let mut shadow = ShadowStorage::new(m.storage().to_vec());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = ExploreReport {
        config: *cfg,
        schedules: 0,
        exhaustive: true,
        violations: Vec::new(),
        mismatches: Vec::new(),
        final_matches_sequential: false,
    };

    let mut phase2 = Vec::new();
    let mut phase3 = Vec::new();
    let mut merged = Vec::new();
    for t in 0..planner.real_tiles() {
        // Phase 1: the diagonal tile, sequential by construction.
        shadow.begin_phase();
        let diag = planner.phase1(t);
        let mut none = None;
        for k in 0..cfg.b {
            k_step(&mut shadow, &diag, k, cfg.b, 0, &mut none);
        }
        debug_assert!(none.is_none(), "single-task phase cannot race");

        planner.phase2(t, &mut phase2);
        planner.phase3(t, &mut phase3);
        if opts.merge_phases {
            merged.clear();
            merged.extend_from_slice(&phase2);
            merged.extend_from_slice(&phase3);
            let ctx = PhaseCtx { t, phase: "merged2+3", b: cfg.b, threads: cfg.threads };
            explore_phase(&mut shadow, &merged, &ctx, opts, &mut rng, &mut report);
        } else {
            let ctx = PhaseCtx { t, phase: "phase2", b: cfg.b, threads: cfg.threads };
            explore_phase(&mut shadow, &phase2, &ctx, opts, &mut rng, &mut report);
            let ctx = PhaseCtx { t, phase: "phase3", b: cfg.b, threads: cfg.threads };
            explore_phase(&mut shadow, &phase3, &ctx, opts, &mut rng, &mut report);
        }
    }
    report.final_matches_sequential = shadow.values() == expect.storage();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegraph_plan::schedule::{for_each_interleaving, interleaving_count, sample_schedule};

    #[test]
    fn interleaving_counts_are_multinomials() {
        assert_eq!(interleaving_count(&[4, 4], 1_000_000), 70); // C(8,4)
        assert_eq!(interleaving_count(&[1, 1, 1], 1_000_000), 6); // 3!
        assert_eq!(interleaving_count(&[5], 1_000_000), 1);
        assert_eq!(interleaving_count(&[], 1_000_000), 1);
        // Saturates just above the cap instead of overflowing.
        assert_eq!(interleaving_count(&[40, 40, 40], 100), 101);
    }

    #[test]
    fn enumeration_visits_each_interleaving_once() {
        let mut seen = std::collections::BTreeSet::new();
        let mut count = 0u64;
        let mut prefix = Vec::new();
        for_each_interleaving(&mut [2, 2], &mut prefix, &mut |s| {
            count += 1;
            assert!(seen.insert(s.to_vec()), "duplicate schedule {s:?}");
        });
        assert_eq!(count, 6); // C(4,2)
    }

    #[test]
    fn sampled_schedules_are_valid_permutations() {
        let mut rng = StdRng::seed_from_u64(7);
        let counts = [3usize, 2, 4];
        for _ in 0..20 {
            let s = sample_schedule(&counts, &mut rng);
            assert_eq!(s.len(), 9);
            for (w, &c) in counts.iter().enumerate() {
                assert_eq!(s.iter().filter(|&&x| x as usize == w).count(), c);
            }
        }
    }

    #[test]
    fn single_thread_exploration_matches_sequential() {
        // One worker per phase — a drift guard: the shadow re-execution
        // of the kernel must reproduce fw_tiled exactly.
        for (n, b) in [(4, 4), (8, 4), (9, 3), (13, 4)] {
            let cfg = Config { n, b, threads: 1, seed: 0xd21f7 + n as u64 };
            let report = explore_config(&cfg, &ExploreOptions::default());
            assert!(report.is_clean(), "n={n} b={b}: {report:?}");
            assert!(report.exhaustive);
        }
    }
}

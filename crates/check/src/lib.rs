//! `cachegraph-check`: a vendored, zero-dependency mini-loom for the
//! parallel tiled Floyd-Warshall driver.
//!
//! `fw::parallel`'s `SharedStorage` is the workspace's only `unsafe`
//! raw-pointer sharing; the parallel tiled driver and the parallel
//! cache simulation both run their workers over it. Its soundness rests
//! on one claim, repeated in every `SAFETY:` comment: *within each
//! parallel phase, every task writes only its own tile, and no task
//! reads a cell any other task of that phase writes*. This crate turns that comment into a machine-
//! checked fact, in the spirit of loom/CDSChecker-style exhaustive
//! interleaving exploration but vendored and deterministic (the sandbox
//! has no registry access and no Miri):
//!
//! * [`oracle`] — the **footprint oracle**: for every `(n, b)` in a
//!   sweep, builds the same task plan the driver executes
//!   ([`cachegraph_fw::plan::Planner`]) and proves each phase's write
//!   footprints pairwise disjoint and disjoint from all other tasks'
//!   read footprints — the exact precondition the `SAFETY:` comments
//!   claim. Pure set arithmetic over the declared cell ranges; the
//!   `fw` disjointness test separately proves the declared ranges cover
//!   every access the real kernel performs.
//! * [`shadow`] — [`shadow::ShadowStorage`]: an epoch-stamped shadow of
//!   the matrix storage (no raw pointers). Every cell records the phase
//!   epoch of its last write plus current-phase reader/writer task sets,
//!   so any same-phase conflicting access — write/write, read of a
//!   concurrently written cell, write of a concurrently read cell — is
//!   reported the moment it happens, on *every* schedule, not just the
//!   unluckily interleaved ones.
//! * [`explore`] — the **schedule explorer**: re-executes the phase
//!   structure over shadow storage under a cooperative scheduler that
//!   enumerates task interleavings per phase (exhaustively when the
//!   interleaving count is within a bound, else seeded-random via
//!   `cachegraph-rng`, with the failing schedule and seed reported for
//!   replay). Workers mirror `cachegraph_plan::run_tasks`'s chunking;
//!   steps mirror the operation order of the default
//!   `CellAccess::fwi_block` kernel in `fw/src/kernel.rs` (the one the
//!   parallel driver runs) at outer-`k`-iteration granularity.
//!   Every raceless schedule must reproduce the sequential tiled result.
//! * **Mutation mode** ([`explore::ExploreOptions::merge_phases`]) —
//!   deliberately omits the barrier between phases 2 and 3 and asserts
//!   the checker *detects* the resulting race, so the oracle itself is
//!   tested for sensitivity, not just for silence.
//!
//! What is *not* modeled: weak memory (the driver's phases are separated
//! by full `std::thread::scope` joins, which are seq-cst synchronization
//! points, so reordering across barriers cannot be observed), and
//! intra-`j`-loop interleavings (cells are independent in the inner
//! loop; the per-cell reader/writer sets make detection granularity
//! per-access anyway). See DESIGN.md §10.
//!
//! Beyond the FW driver, the same machinery checks the other parallel
//! drivers built on the `cachegraph-plan` TaskGraph runtime, via the
//! shared script-replay engine in [`driver`]: the real algorithm runs
//! *serially* through its sink-generic task bodies, recording each
//! task's ordered unit-access script, and the scripts are replayed
//! against `cachegraph_plan::ShadowMem` over enumerated/sampled
//! interleavings. Per-driver checkers (oracle + replay + seeded
//! barrier-omission mutation + drift guard against a serial reference):
//!
//! * [`delta`] — delta-stepping SSSP (`cachegraph_sssp::delta`);
//! * [`matching`] — parallel partitioned matching
//!   (`cachegraph_matching::parallel`);
//! * [`closure`] — parallel tiled boolean closure
//!   (`cachegraph_fw::closure_parallel`).
//!
//! Run the full pass (footprint sweep + bounded exploration + mutation
//! sensitivity, for all four drivers) with
//! `cargo run -p cachegraph-check`; the same checks run under
//! `cargo test -p cachegraph-check` as tier-1 tests.

pub mod closure;
pub mod delta;
pub mod driver;
pub mod explore;
pub mod matching;
pub mod oracle;
pub mod shadow;

pub use closure::{check_closure, check_closure_mutation, ClosureConfig};
pub use delta::{check_delta, check_delta_mutation, DeltaConfig};
pub use driver::{DriverReport, DriverViolation, PhaseScripts, Script, ScriptSink, ScriptedShadow};
pub use explore::{explore_config, Config, ExploreOptions, ExploreReport, RaceViolation};
pub use matching::{check_matching, check_matching_mutation, MatchingConfig};
pub use oracle::{
    check_footprints, check_phase_footprints, sweep_footprints, FootprintViolation, OverlapKind,
};
pub use shadow::{Race, RaceKind, ShadowStorage};

//! The chaos campaign: every fault in the matrix either recovers to a
//! bitwise-identical final model or exits with its documented code and
//! a resumable checkpoint.
//!
//! This drives the supervised execution runtime end to end at the
//! library level:
//!
//! * transient I/O faults at the named write sites recover within the
//!   retry budget (bitwise identically, with the exact deterministic
//!   backoff schedule) or exit with the I/O code leaving a resumable
//!   checkpoint — and no test here ever wall-sleeps (the sleeper is
//!   injected everywhere);
//! * watchdog deadline expiry performs a graceful checkpoint-and-abort
//!   with its own exit code (7), and resuming completes byte-identically
//!   to an undeadlined run;
//! * injected worker panics are recovered by deterministic shard
//!   re-execution, leaving the run *successful* and bitwise identical;
//! * a property-based campaign samples the whole fault matrix (worker
//!   panics x (epoch, shard), I/O faults x (site, budget), stalls,
//!   crashes) across thread counts and asserts the recover-or-documented-
//!   exit property for each. `PROPTEST_CASES` elevates the case count in
//!   the CI `chaos-suite` job.

use hignn::io::write_hierarchy;
use hignn::prelude::*;
use hignn_graph::{BipartiteGraph, SamplingMode};
use hignn_integration_tests::support::silence_injected_panics;
use hignn_tensor::{init, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

// ---------------------------------------------------------------------
// Helpers (mirror `crash_recovery.rs` / `determinism.rs`).

/// A small clustered graph + features + config that trains fast but
/// builds two honest levels through the full parallel trainer.
fn small_setup() -> (BipartiteGraph, Matrix, Matrix, HignnConfig) {
    let mut rng = StdRng::seed_from_u64(37);
    let (blocks, per) = (4usize, 10usize);
    let n = blocks * per;
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        let b = u as usize / per;
        for _ in 0..5 {
            let i = (b * per + rng.gen_range(0..per)) as u32;
            edges.push((u, i, 1.0));
        }
    }
    let g = BipartiteGraph::from_edges(n, n, edges);
    let uf = init::xavier_uniform(n, 8, &mut rng);
    let if_ = init::xavier_uniform(n, 8, &mut rng);
    let cfg = HignnConfig {
        levels: 2,
        sage: BipartiteSageConfig {
            input_dim: 8,
            dim: 8,
            fanouts: vec![4, 3],
            sampling: SamplingMode::Uniform,
            ..Default::default()
        },
        train: SageTrainConfig { epochs: 3, batch_edges: 32, neg_pool: 16, ..Default::default() },
        cluster_counts: ClusterCounts::AlphaDecay { alpha: 4.0 },
        kmeans: KMeansAlgo::Lloyd,
        normalize: true,
        seed: 53,
    };
    (g, uf, if_, cfg)
}

fn serialize(h: &Hierarchy) -> Vec<u8> {
    let mut buf = Vec::new();
    write_hierarchy(&mut buf, h).expect("in-memory write cannot fail");
    buf
}

/// The uninjected run's bytes — the ground truth every recovery is
/// compared against. Built once per process.
fn baseline() -> &'static [u8] {
    static BASELINE: OnceLock<Vec<u8>> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let (g, uf, if_, cfg) = small_setup();
        serialize(&build_hierarchy_with(&g, &uf, &if_, &cfg, &BuildOptions::default()).unwrap())
    })
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hignn_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Transient I/O at the core write sites: within the retry budget the
// run recovers bitwise identically, and the backoff schedule is exactly
// the deterministic exponential one. Nothing wall-sleeps: the sleeper
// is a recording fake.

#[test]
fn transient_io_within_budget_recovers_bitwise_with_exact_backoff() {
    let (g, uf, if_, cfg) = small_setup();
    let policy = RetryPolicy::default(); // 3 retries
    for site in [WriteSite::SaveLevel, WriteSite::WriteMeta] {
        for failures in 1..=3u32 {
            let dir = scratch(&format!("io_{}_{failures}", site.spec_token()));
            let store = CheckpointStore::create(&dir).unwrap();
            let sleeper = RecordingSleeper::new();
            let h = build_hierarchy_with(
                &g,
                &uf,
                &if_,
                &cfg,
                &BuildOptions {
                    checkpoint: Some(&store),
                    fault: Some(FaultPlan::TransientIo { site, failures }),
                    retry: policy,
                    sleeper: Some(&sleeper),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| {
                panic!("{} with {failures} failures must recover: {e}", site.name())
            });
            assert_eq!(
                serialize(&h).as_slice(),
                baseline(),
                "{} recovered run diverged ({failures} failures)",
                site.name()
            );
            let expected: Vec<Duration> = (0..failures).map(|r| policy.backoff(r)).collect();
            assert_eq!(
                sleeper.slept(),
                expected,
                "{} backoff schedule mismatch ({failures} failures)",
                site.name()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn exhausted_retry_budget_exits_3_and_checkpoint_resumes_byte_identically() {
    let (g, uf, if_, cfg) = small_setup();
    let dir = scratch("io_exhaust");
    let store = CheckpointStore::create(&dir).unwrap();
    let sleeper = RecordingSleeper::new();
    // 5 consecutive failures against a budget of 2: the site never
    // heals within the run, so it exits with the documented I/O code.
    let err = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions {
            checkpoint: Some(&store),
            fault: Some(FaultPlan::TransientIo { site: WriteSite::SaveLevel, failures: 5 }),
            retry: RetryPolicy::with_max_retries(2),
            sleeper: Some(&sleeper),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 3, "exhausted retries surface as I/O: {err}");
    assert!(err.is_transient(), "the underlying fault stays classified transient");
    assert_eq!(sleeper.slept().len(), 2, "exactly the budget's worth of backoffs");

    // The meta record (levels_done = 0) is durable: the run resumes —
    // retraining level 1 — and matches the uninterrupted bytes.
    let resumed = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions { checkpoint: Some(&store), resume: true, ..Default::default() },
    )
    .unwrap();
    assert_eq!(serialize(&resumed).as_slice(), baseline());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_initial_meta_write_fails_clean_and_a_fresh_run_recovers() {
    let (g, uf, if_, cfg) = small_setup();
    let dir = scratch("io_meta_exhaust");
    let store = CheckpointStore::create(&dir).unwrap();
    let sleeper = RecordingSleeper::new();
    // The very first durable write (the fresh-run meta record) stays
    // faulted past the budget: nothing was committed, so the documented
    // recovery is a fresh restart, not a resume.
    let err = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions {
            checkpoint: Some(&store),
            fault: Some(FaultPlan::TransientIo { site: WriteSite::WriteMeta, failures: 10 }),
            retry: RetryPolicy::with_max_retries(1),
            sleeper: Some(&sleeper),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err}");
    assert!(!store.has_meta(), "failed initial meta write must leave no record");
    let fresh = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions { checkpoint: Some(&store), ..Default::default() },
    )
    .unwrap();
    assert_eq!(serialize(&fresh).as_slice(), baseline());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Watchdog: a (virtually) stalled level trips the deadline at an epoch
// boundary, the build checkpoint-and-aborts with exit code 7, and the
// resumed run completes byte-identically to an undeadlined one. No real
// time passes: the stall advances the watchdog's virtual clock.

#[test]
fn deadline_expiry_checkpoints_aborts_with_exit_7_and_resumes_byte_identically() {
    let (g, uf, if_, cfg) = small_setup();
    let dir = scratch("deadline");
    let store = CheckpointStore::create(&dir).unwrap();
    let err = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions {
            checkpoint: Some(&store),
            fault: Some(FaultPlan::StallEpoch { level: 2, epoch: 0, virtual_ms: 3_600_000 }),
            deadline: Some(Duration::from_secs(60)),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 7, "deadline abort has its own exit code: {err}");
    assert!(err.to_string().contains("--resume"), "the error advertises resume: {err}");
    match err {
        HignnError::DeadlineExceeded { levels_done, elapsed_ms, deadline_ms } => {
            assert_eq!(levels_done, 1, "level 1 was durable before the stall");
            assert_eq!(deadline_ms, 60_000);
            assert!(elapsed_ms >= deadline_ms, "{elapsed_ms} < {deadline_ms}");
        }
        other => panic!("wrong error variant: {other}"),
    }
    assert_eq!(store.read_meta().unwrap().0.levels_done, 1);

    let resumed = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions { checkpoint: Some(&store), resume: true, ..Default::default() },
    )
    .unwrap();
    assert_eq!(
        serialize(&resumed).as_slice(),
        baseline(),
        "deadline-aborted + resumed run diverged from the undeadlined one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stall_without_deadline_is_inert() {
    // The stall fault models slowness, not failure: with no watchdog
    // armed it must change nothing.
    let (g, uf, if_, cfg) = small_setup();
    let h = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions {
            fault: Some(FaultPlan::StallEpoch { level: 1, epoch: 0, virtual_ms: u64::MAX / 2 }),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(serialize(&h).as_slice(), baseline());
}

// ---------------------------------------------------------------------
// Worker panic during a *resumed* run: recovery composes with resume.

#[test]
fn worker_panic_during_resumed_run_recovers_byte_identically() {
    silence_injected_panics();
    let (g, uf, if_, cfg) = small_setup();
    let dir = scratch("panic_resume");
    let store = CheckpointStore::create(&dir).unwrap();
    let err = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions {
            checkpoint: Some(&store),
            fault: Some(FaultPlan::CrashAfterLevel(1)),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 6);

    // Resume at 4 threads with a one-shot panic injected into level 2's
    // first epoch: the executor re-executes the shard and the run still
    // reproduces the uninterrupted bytes.
    let before = hignn_tensor::parallel::recovered_panics();
    let resumed = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions {
            checkpoint: Some(&store),
            resume: true,
            fault: Some(FaultPlan::WorkerPanic { level: 2, epoch: 0, shard: 1 }),
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(
        hignn_tensor::parallel::recovered_panics() - before,
        1,
        "the injected panic must actually fire and be recovered"
    );
    assert_eq!(serialize(&resumed).as_slice(), baseline());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The property-based campaign over the whole fault matrix.

/// One sampled chaos scenario.
#[derive(Clone, Copy, Debug)]
struct ChaosCase {
    fault: FaultPlan,
    max_retries: u32,
    threads: usize,
}

/// What the runtime contract says must happen for a given case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expected {
    /// The run succeeds and is bitwise identical to the baseline.
    Recover,
    /// The run exits with this documented code, leaving state from
    /// which recovery (resume, or fresh restart when nothing was
    /// committed) reproduces the baseline bytes.
    Exit(i32),
}

fn expected_outcome(case: &ChaosCase) -> Expected {
    match case.fault {
        FaultPlan::WorkerPanic { .. } => Expected::Recover,
        FaultPlan::TransientIo { failures, .. } => {
            if failures <= case.max_retries {
                Expected::Recover
            } else {
                Expected::Exit(3)
            }
        }
        FaultPlan::StallEpoch { .. } => Expected::Exit(7),
        FaultPlan::CrashAfterLevel(_) | FaultPlan::CrashAfterEpoch { .. } => Expected::Exit(6),
        FaultPlan::TruncateCheckpoint { .. } | FaultPlan::CorruptCheckpoint { .. } => {
            unreachable!("damage faults are covered by crash_recovery.rs")
        }
    }
}

fn chaos_case() -> impl Strategy<Value = ChaosCase> {
    // The vendored proptest's `prop_oneof!` needs same-typed arms, so
    // the matrix is sampled as one flat tuple with a kind discriminant
    // mapped onto the fault variants. Unused coordinates for a given
    // kind are simply ignored.
    ((0..5u8, 1..=2usize, 0..3usize, 0..8usize), (0..5u32, 0..4u32, 1..=4usize)).prop_map(
        |((kind, level, epoch, shard), (failures, max_retries, threads))| {
            let fault = match kind {
                0 => FaultPlan::WorkerPanic { level, epoch, shard },
                1 => FaultPlan::TransientIo {
                    site: if shard % 2 == 0 { WriteSite::SaveLevel } else { WriteSite::WriteMeta },
                    failures,
                },
                2 => FaultPlan::StallEpoch { level, epoch, virtual_ms: 86_400_000 },
                3 => FaultPlan::CrashAfterLevel(level),
                _ => FaultPlan::CrashAfterEpoch { level, epoch },
            };
            ChaosCase { fault, max_retries, threads }
        },
    )
}

proptest! {
    // 14 cases by default; the CI `chaos-suite` job elevates this via
    // the `PROPTEST_CASES` environment variable.
    #![proptest_config(ProptestConfig::with_cases(14))]

    #[test]
    fn every_injected_fault_recovers_or_exits_documented(case in chaos_case()) {
        silence_injected_panics();
        let (g, uf, if_, cfg) = small_setup();
        let dir = scratch(&format!("campaign_{:x}", {
            // Stable per-case tag so concurrent proptest shrink runs
            // never collide on a directory.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in format!("{case:?}").bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
            h
        }));
        let store = CheckpointStore::create(&dir).unwrap();
        let sleeper = RecordingSleeper::new();
        let deadline = match case.fault {
            FaultPlan::StallEpoch { .. } => Some(Duration::from_secs(60)),
            _ => None,
        };
        let result = build_hierarchy_with(&g, &uf, &if_, &cfg, &BuildOptions {
            checkpoint: Some(&store),
            fault: Some(case.fault),
            retry: RetryPolicy::with_max_retries(case.max_retries),
            sleeper: Some(&sleeper),
            deadline,
            threads: case.threads,
            ..Default::default()
        });

        match (expected_outcome(&case), result) {
            (Expected::Recover, Ok(h)) => {
                prop_assert_eq!(serialize(&h).as_slice(), baseline(), "recovered run diverged: {:?}", case);
            }
            (Expected::Recover, Err(e)) => {
                panic!("{case:?} should recover, got: {e}");
            }
            (Expected::Exit(code), Err(e)) => {
                prop_assert_eq!(e.exit_code(), code, "{:?}: wrong exit code: {}", case, e);
                // Recovery: resume when something was committed, fresh
                // restart otherwise. Either way: baseline bytes.
                let resume = store.has_meta();
                let recovered = build_hierarchy_with(&g, &uf, &if_, &cfg, &BuildOptions {
                    checkpoint: Some(&store),
                    resume,
                    ..Default::default()
                });
                match recovered {
                    Ok(h) => prop_assert_eq!(
                        serialize(&h).as_slice(), baseline(),
                        "recovery after {:?} diverged", case
                    ),
                    Err(e) => panic!("recovery (resume = {resume}) after {case:?} failed: {e}"),
                }
            }
            (Expected::Exit(code), Ok(_)) => {
                panic!("{case:?} should exit {code}, but succeeded");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

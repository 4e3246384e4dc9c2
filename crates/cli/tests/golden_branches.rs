//! Pins `patrolctl` output byte-for-byte on every branch of the CHB
//! construction pipeline, not only the exact one `golden_euclidean.rs`
//! covers.
//!
//! Each case drives one combination of seed and neighbourhood:
//!
//! * matrix-free candidate lists (Euclidean, `Auto` above the threshold,
//!   and an explicit `--search candidates --knn` on `simulate` — `plan`
//!   always builds the service's default construction and rejects the
//!   search flags);
//! * matrix candidate lists (road metric above the threshold);
//! * the exact pipeline on a road matrix;
//! * the Sweep baseline's per-group circuits on both metrics.
//!
//! The FNV-1a-64 hashes were captured before the three CHB pipelines were
//! folded into one (the `simulate` case before the flag parser was folded
//! into one table, the two benchmark-size cases before the k-NN query and
//! the plan writer were rewritten); a refactor must leave them alone.
//! (An intentional, reviewed output change may re-pin them, with the diff
//! in hand.)

use patrol_cli::args::parse_args;
use patrol_cli::commands::run_command;

/// FNV-1a 64-bit — the same stable hash the spec fingerprint uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn assert_pinned(flags: &str, expected: u64) {
    assert_pinned_command(&format!("plan {flags}"), expected);
}

fn assert_pinned_command(cmdline: &str, expected: u64) {
    let out = run_command(&parse_args(&argv(cmdline)).unwrap()).unwrap();
    let got = fnv1a(out.text.as_bytes());
    assert_eq!(
        got, expected,
        "`patrolctl {cmdline}` drifted: got {got:#018x}"
    );
}

#[test]
fn auto_above_threshold_runs_matrix_free_candidates() {
    assert_pinned("--targets 300 --mules 6 --seed 3", 0xefdf_0c15_d7c9_a016);
}

#[test]
fn explicit_candidate_search_is_pinned() {
    assert_pinned_command(
        "simulate --targets 60 --mules 3 --seed 9 --search candidates --knn 6",
        0xb7c5_1a72_14ca_e2f9,
    );
}

#[test]
fn road_above_threshold_runs_matrix_candidates() {
    assert_pinned(
        "--targets 200 --mules 4 --seed 5 --metric road-grid",
        0x20c3_91c8_d86a_ccc2,
    );
}

#[test]
fn road_below_threshold_runs_exact_on_the_road_matrix() {
    assert_pinned(
        "--targets 40 --mules 3 --seed 2 --metric road-grid",
        0x9071_96f2_8d09_e96d,
    );
}

#[test]
fn sweep_baseline_euclidean_is_pinned() {
    assert_pinned(
        "--planner sweep --targets 150 --mules 4 --seed 4",
        0xe519_5614_c7e0_6467,
    );
}

#[test]
fn sweep_baseline_road_runs_matrix_candidates_per_group() {
    assert_pinned(
        "--planner sweep --targets 600 --mules 2 --seed 4 --metric road-grid",
        0xfbbb_cc47_c780_e835,
    );
}

#[test]
fn benchmark_size_euclidean_plan_is_pinned() {
    assert_pinned("--targets 2000 --mules 8 --seed 3", 0x15a3_e2b5_cf0f_3a0f);
}

#[test]
fn benchmark_size_road_plan_is_pinned() {
    assert_pinned(
        "--targets 800 --mules 4 --metric road-grid --seed 3",
        0x4edf_24fd_074c_b8c7,
    );
}

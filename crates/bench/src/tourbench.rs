//! The tracked tour-engine benchmark behind `patrolctl bench-tours`.
//!
//! Measures `construct_circuit` wall-clock and tour quality across instance
//! sizes, exact pipeline vs. candidate-list pipeline, and serialises the
//! result as the `BENCH_tours.json` artefact the repo tracks from PR 3
//! onward. The JSON is written by hand (the in-tree `serde` shim has no
//! real serialisers) and kept deliberately flat so CI can validate it with
//! any JSON parser.
//!
//! The exact pipeline is `O(n³)` in construction, so it is only timed up to
//! [`TourBenchParams::exact_cap`] points; above the cap the speedup and
//! length-ratio columns are `null` in the JSON (explicitly, not silently
//! dropped).

use mule_graph::{construct_circuit, ChbConfig, SearchMode};
use mule_metrics::TextTable;
use mule_road::TravelMetric;
use mule_workload::layout::bench_layout;
use std::time::Instant;

/// Parameters of one `bench-tours` run.
#[derive(Debug, Clone, PartialEq)]
pub struct TourBenchParams {
    /// Instance sizes (target counts) to bench.
    pub sizes: Vec<usize>,
    /// Seed of the deterministic topologies.
    pub seed: u64,
    /// Candidate-list width for the candidates pipeline.
    pub k: usize,
    /// Largest size at which the exact pipeline is still timed; above it
    /// only the candidate pipeline runs (`O(n³)` exact construction is
    /// minutes-to-hours at 5000 points).
    pub exact_cap: usize,
    /// Timed repetitions per measurement; the minimum is reported, which
    /// is the stablest wall-clock statistic on a noisy machine.
    pub samples: usize,
}

impl Default for TourBenchParams {
    fn default() -> Self {
        TourBenchParams {
            sizes: vec![50, 200, 1000, 5000],
            seed: 42,
            k: mule_graph::chb::DEFAULT_CANDIDATES_K,
            exact_cap: 1000,
            samples: 3,
        }
    }
}

/// One benched instance size.
#[derive(Debug, Clone, PartialEq)]
pub struct TourBenchRow {
    /// Number of targets.
    pub n: usize,
    /// Exact-pipeline wall clock, milliseconds (`None` above `exact_cap`).
    pub exact_ms: Option<f64>,
    /// Candidate-pipeline wall clock, milliseconds.
    pub candidates_ms: f64,
    /// Exact tour length, metres (`None` above `exact_cap`).
    pub exact_len: Option<f64>,
    /// Candidate tour length, metres.
    pub candidates_len: f64,
    /// Construction-phase time (seed tour + candidate lists) of one traced
    /// candidates run, milliseconds. Measured separately from the timed
    /// samples, so span collection never pollutes `candidates_ms`.
    pub phase_construction_ms: f64,
    /// Local-search time (2-opt + Or-opt passes) of the same traced run,
    /// milliseconds.
    pub phase_local_search_ms: f64,
    /// Peak resident set size after the traced candidates run, kB
    /// (`None` off-Linux). Never pinned by a gate: RSS depends on the
    /// allocator and the platform.
    pub peak_rss_kb: Option<u64>,
    /// Bytes allocated by one candidates construction, measured with the
    /// counting allocator armed around the traced run.
    pub alloc_bytes: u64,
}

impl TourBenchRow {
    /// Exact time over candidate time (`None` when exact was not run).
    pub fn speedup(&self) -> Option<f64> {
        self.exact_ms.map(|e| {
            if self.candidates_ms > 0.0 {
                e / self.candidates_ms
            } else {
                f64::INFINITY
            }
        })
    }

    /// Candidate tour length over exact tour length (`None` when exact was
    /// not run). 1.0 means identical quality; the tracked bound is 1.02.
    pub fn len_ratio(&self) -> Option<f64> {
        self.exact_len.map(|e| {
            if e > 0.0 {
                self.candidates_len / e
            } else {
                1.0
            }
        })
    }
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct TourBenchReport {
    /// Parameters the report was generated with.
    pub params: TourBenchParams,
    /// One row per benched size, in input order.
    pub rows: Vec<TourBenchRow>,
}

impl TourBenchReport {
    /// Largest tour-length ratio across rows where exact ran, if any.
    pub fn max_len_ratio(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(TourBenchRow::len_ratio)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// Renders the human-readable summary table.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "n",
            "exact (ms)",
            "candidates (ms)",
            "speedup",
            "length ratio",
            "constr (ms)",
            "search (ms)",
            "alloc (MB)",
            "peak RSS (MB)",
        ]);
        let na = "-".to_string();
        for row in &self.rows {
            table.add_row(vec![
                row.n.to_string(),
                row.exact_ms
                    .map(|m| format!("{m:.2}"))
                    .unwrap_or_else(|| na.clone()),
                format!("{:.2}", row.candidates_ms),
                row.speedup()
                    .map(|s| format!("{s:.1}×"))
                    .unwrap_or_else(|| na.clone()),
                row.len_ratio()
                    .map(|r| format!("{r:.4}"))
                    .unwrap_or_else(|| na.clone()),
                format!("{:.2}", row.phase_construction_ms),
                format!("{:.2}", row.phase_local_search_ms),
                format!("{:.1}", row.alloc_bytes as f64 / (1024.0 * 1024.0)),
                row.peak_rss_kb
                    .map(|kb| format!("{:.1}", kb as f64 / 1024.0))
                    .unwrap_or_else(|| na.clone()),
            ]);
        }
        table
    }

    /// Serialises the report as the tracked `BENCH_tours.json` document.
    /// Schema `v2` appends `alloc_bytes` and `peak_rss_kb` per row; every
    /// `v1` field is unchanged.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"bench-tours/v2\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.params.seed));
        out.push_str(&format!("  \"k\": {},\n", self.params.k));
        out.push_str(&format!("  \"exact_cap\": {},\n", self.params.exact_cap));
        out.push_str(&format!("  \"samples\": {},\n", self.params.samples));
        out.push_str("  \"sizes\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"n\": {}", row.n));
            out.push_str(&format!(", \"exact_ms\": {}", json_opt(row.exact_ms, 3)));
            out.push_str(&format!(", \"candidates_ms\": {:.3}", row.candidates_ms));
            out.push_str(&format!(", \"speedup\": {}", json_opt(row.speedup(), 2)));
            out.push_str(&format!(", \"exact_len\": {}", json_opt(row.exact_len, 1)));
            out.push_str(&format!(", \"candidates_len\": {:.1}", row.candidates_len));
            out.push_str(&format!(
                ", \"len_ratio\": {}",
                json_opt(row.len_ratio(), 6)
            ));
            out.push_str(&format!(
                ", \"phase_construction_ms\": {:.3}",
                row.phase_construction_ms
            ));
            out.push_str(&format!(
                ", \"phase_local_search_ms\": {:.3}",
                row.phase_local_search_ms
            ));
            out.push_str(&format!(", \"alloc_bytes\": {}", row.alloc_bytes));
            out.push_str(&format!(
                ", \"peak_rss_kb\": {}",
                row.peak_rss_kb
                    .map(|kb| kb.to_string())
                    .unwrap_or_else(|| "null".to_string())
            ));
            out.push('}');
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_opt(value: Option<f64>, decimals: usize) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v:.decimals$}"),
        _ => "null".to_string(),
    }
}

/// Times `build()` `samples` times and returns the minimum wall-clock in
/// milliseconds alongside the (deterministic) tour length.
fn time_pipeline<F: Fn() -> f64>(samples: usize, build: F) -> (f64, f64) {
    let mut best_ms = f64::INFINITY;
    let mut length = 0.0;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        length = build();
        let elapsed = start.elapsed().as_secs_f64() * 1000.0;
        best_ms = best_ms.min(elapsed);
    }
    (best_ms, length)
}

/// Runs the tour benchmark over the configured sizes.
pub fn run_tour_bench(params: &TourBenchParams) -> TourBenchReport {
    let exact_config = ChbConfig::default().with_search(SearchMode::Exact);
    let fast_config = ChbConfig::default().with_search(SearchMode::Candidates(params.k.max(1)));

    let rows = params
        .sizes
        .iter()
        .map(|&n| {
            let points = bench_layout(params.seed, n);
            let (candidates_ms, candidates_len) = time_pipeline(params.samples, || {
                construct_circuit(&points, &TravelMetric::Euclidean, &fast_config).length(&points)
            });
            let (exact_ms, exact_len) = if n <= params.exact_cap {
                let (ms, len) = time_pipeline(params.samples, || {
                    construct_circuit(&points, &TravelMetric::Euclidean, &exact_config)
                        .length(&points)
                });
                (Some(ms), Some(len))
            } else {
                (None, None)
            };
            // One extra traced run — after the timed samples — yields the
            // per-phase breakdown without touching the timed numbers. The
            // counting allocator is armed around it so the same run also
            // yields the memory columns (thread-local tallies, so other
            // threads cannot pollute the delta).
            mule_obs::alloc::reset_rss_peak();
            let before = mule_obs::alloc::thread_stats();
            mule_obs::alloc::arm();
            let (_, trace) = mule_obs::capture(|| {
                construct_circuit(&points, &TravelMetric::Euclidean, &fast_config);
            });
            mule_obs::alloc::disarm();
            let after = mule_obs::alloc::thread_stats();
            let alloc_bytes = after.allocated_bytes - before.allocated_bytes;
            let peak_rss_kb = mule_obs::alloc::rss_peak_kb();
            let profile = mule_obs::FlatProfile::of(&trace);
            let phase_construction_ms = profile.total_ms_where(|name| {
                matches!(
                    name,
                    "chb.nn_seed"
                        | "chb.hull_insertion"
                        | "chb.candidate_lists"
                        | "graph.distance_matrix"
                )
            });
            let phase_local_search_ms =
                profile.total_ms_where(|name| matches!(name, "chb.two_opt" | "chb.or_opt"));
            TourBenchRow {
                n,
                exact_ms,
                candidates_ms,
                exact_len,
                candidates_len,
                phase_construction_ms,
                phase_local_search_ms,
                peak_rss_kb,
                alloc_bytes,
            }
        })
        .collect();

    TourBenchReport {
        params: params.clone(),
        rows,
    }
}

/// Measures the wall-clock overhead of span collection *plus the armed
/// counting allocator* on the candidates pipeline at the largest
/// configured size: `min(traced+armed) / min(plain)`. The CI gate
/// (`bench-tours --overhead-gate 1.05`) pins this ratio — both tracing
/// and allocation accounting must stay cheap enough to leave on in
/// production paths.
pub fn tracing_overhead_ratio(params: &TourBenchParams) -> f64 {
    let n = params.sizes.iter().copied().max().unwrap_or(200);
    let points = bench_layout(params.seed, n);
    let config = ChbConfig::default().with_search(SearchMode::Candidates(params.k.max(1)));
    // Minimum-of-samples on both sides; a floor of 5 samples keeps the
    // ratio stable on noisy machines even when `--samples` is lower.
    let samples = params.samples.max(5);
    let (plain_ms, _) = time_pipeline(samples, || {
        construct_circuit(&points, &TravelMetric::Euclidean, &config).length(&points)
    });
    let mut traced_ms = f64::INFINITY;
    mule_obs::alloc::arm();
    for _ in 0..samples {
        let start = Instant::now();
        let _ = mule_obs::capture(|| {
            construct_circuit(&points, &TravelMetric::Euclidean, &config).length(&points)
        });
        traced_ms = traced_ms.min(start.elapsed().as_secs_f64() * 1000.0);
    }
    mule_obs::alloc::disarm();
    if plain_ms > 0.0 {
        traced_ms / plain_ms
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> TourBenchParams {
        TourBenchParams {
            sizes: vec![30, 60],
            seed: 7,
            k: 8,
            exact_cap: 50,
            samples: 1,
        }
    }

    #[test]
    fn report_has_one_row_per_size_and_respects_the_exact_cap() {
        let report = run_tour_bench(&quick_params());
        assert_eq!(report.rows.len(), 2);
        let small = &report.rows[0];
        assert_eq!(small.n, 30);
        assert!(small.exact_ms.is_some());
        assert!(small.speedup().is_some());
        assert!(small.len_ratio().is_some());
        let large = &report.rows[1];
        assert_eq!(large.n, 60);
        assert!(large.exact_ms.is_none(), "above the cap exact is skipped");
        assert!(large.speedup().is_none());
        assert!(large.candidates_ms >= 0.0);
        assert!(large.candidates_len > 0.0);
    }

    #[test]
    fn quality_stays_within_the_tracked_bound_on_small_instances() {
        let report = run_tour_bench(&quick_params());
        let ratio = report.max_len_ratio().unwrap();
        assert!(ratio <= 1.02, "length ratio {ratio}");
    }

    #[test]
    fn json_is_flat_well_formed_and_null_aware() {
        let report = run_tour_bench(&quick_params());
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema\": \"bench-tours/v2\""));
        assert!(json.contains("\"n\": 30"));
        assert!(json.contains("\"exact_ms\": null"), "cap row is explicit");
        // Balanced braces/brackets — a cheap structural sanity check that
        // catches every way the hand serialiser could break.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No NaN/inf can leak into the document.
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn phase_breakdown_is_populated_and_serialised() {
        let report = run_tour_bench(&quick_params());
        for row in &report.rows {
            assert!(row.phase_construction_ms >= 0.0);
            assert!(
                row.phase_local_search_ms > 0.0,
                "local search always runs at n={}",
                row.n
            );
        }
        let json = report.to_json();
        assert!(json.contains("\"phase_construction_ms\""));
        assert!(json.contains("\"phase_local_search_ms\""));
    }

    #[test]
    fn memory_columns_are_measured_and_serialised() {
        let report = run_tour_bench(&quick_params());
        for row in &report.rows {
            assert!(
                row.alloc_bytes > 0,
                "armed traced run allocates at n={}",
                row.n
            );
            if cfg!(target_os = "linux") {
                assert!(row.peak_rss_kb.is_some(), "procfs RSS available on Linux");
            }
        }
        let json = report.to_json();
        assert!(json.contains("\"alloc_bytes\""));
        assert!(json.contains("\"peak_rss_kb\""));
    }

    #[test]
    fn tracing_overhead_is_modest() {
        let params = TourBenchParams {
            sizes: vec![200],
            samples: 3,
            ..quick_params()
        };
        let ratio = tracing_overhead_ratio(&params);
        // Generous bound for a shared test machine; the tracked CI gate
        // pins 1.05 on the dedicated bench-smoke job.
        assert!(ratio < 1.5, "tracing overhead ratio {ratio}");
    }

    #[test]
    fn table_renders_all_columns() {
        let report = run_tour_bench(&quick_params());
        let rendered = report.to_table().render();
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("length ratio"));
        assert!(rendered.contains(" - "), "capped cells show a dash");
    }
}

//! The tracked memory-scale benchmark behind `patrolctl bench-scale`.
//!
//! Measures circuit **construction** at large instance sizes in two
//! flavours — the matrix-free candidate pipeline
//! ([`mule_graph::construct_circuit`] on Euclidean input, which never
//! allocates `O(n²)` state) against the dense matrix-backed pipeline
//! ([`mule_graph::construct_circuit_on`] over a materialised Euclidean
//! [`DistanceMatrix`]) — and records, next
//! to wall-clock, the memory figures the ROADMAP's million-target item is
//! gated on: allocation count and bytes (from the armed
//! [`mule_obs::alloc`] tallies), the live-bytes high-water mark, peak
//! process RSS, and bytes per target.
//!
//! Timing follows the `bench-tours` convention: minimum over disarmed,
//! untraced samples; the allocation figures come from one extra **armed**
//! run per flavour after the timed samples, so instrumentation never
//! pollutes the timed numbers. The matrix flavour is capped at
//! [`ScaleBenchParams::matrix_cap`] points (the `n²` doubles stop fitting
//! long before 100k targets — which is the point of the benchmark); above
//! the cap its columns are explicit `null`s in the JSON.
//!
//! Determinism contract: `alloc_count` is a pure function of the seeded
//! workload; every bytes/peak/RSS figure is machine-dependent and never
//! pinned (`docs/DETERMINISM.md`, "Memory").

use mule_graph::{construct_circuit, construct_circuit_on, ChbConfig, DistanceMatrix, SearchMode};
use mule_metrics::TextTable;
use mule_road::TravelMetric;
use mule_workload::layout::bench_layout;
use std::time::Instant;

/// Parameters of one `bench-scale` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBenchParams {
    /// Instance sizes (target counts) to bench.
    pub sizes: Vec<usize>,
    /// Seed of the deterministic topologies.
    pub seed: u64,
    /// Candidate-list width for both pipelines.
    pub k: usize,
    /// Largest size at which the matrix-backed flavour still runs; the
    /// dense matrix is `8·n²` bytes (800 MB at 10k, 80 GB at 100k), so
    /// above the cap its columns are explicit `null`s.
    pub matrix_cap: usize,
    /// Timed repetitions per measurement (minimum reported).
    pub samples: usize,
}

impl Default for ScaleBenchParams {
    fn default() -> Self {
        ScaleBenchParams {
            sizes: vec![10_000, 100_000],
            seed: 42,
            k: mule_graph::chb::DEFAULT_CANDIDATES_K,
            matrix_cap: 10_000,
            samples: 3,
        }
    }
}

/// Memory and wall-clock figures for one flavour at one size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlavourStats {
    /// Construction wall clock, milliseconds (min over samples, measured
    /// disarmed and untraced).
    pub construction_ms: f64,
    /// Tour length, metres (deterministic).
    pub tour_len: f64,
    /// Allocation events during one armed construction run.
    pub alloc_count: u64,
    /// Bytes allocated during the same run.
    pub alloc_bytes: u64,
    /// Live-bytes high-water mark above the pre-run live figure.
    pub peak_live_bytes: u64,
    /// Process peak RSS (kB) sampled right after the armed run; `None`
    /// where procfs is unavailable.
    pub peak_rss_kb: Option<u64>,
}

impl FlavourStats {
    /// Peak live bytes per target — the scaling figure the regression
    /// gate (`--max-bytes-per-target`) pins for the matrix-free flavour.
    pub fn bytes_per_target(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.peak_live_bytes as f64 / n as f64
        }
    }
}

/// One benched instance size.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBenchRow {
    /// Number of targets.
    pub n: usize,
    /// Matrix-free candidate pipeline figures.
    pub matrix_free: FlavourStats,
    /// Matrix-backed pipeline figures (`None` above `matrix_cap`).
    pub matrix: Option<FlavourStats>,
}

impl ScaleBenchRow {
    /// Matrix-free tour length over matrix-backed tour length (`None`
    /// when the matrix flavour was capped). ~1.0 means the matrix-free
    /// pipeline loses no quality by skipping the `O(n²)` state.
    pub fn len_ratio(&self) -> Option<f64> {
        self.matrix.map(|m| {
            if m.tour_len > 0.0 {
                self.matrix_free.tour_len / m.tour_len
            } else {
                1.0
            }
        })
    }
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBenchReport {
    /// Parameters the report was generated with.
    pub params: ScaleBenchParams,
    /// One row per benched size, in input order.
    pub rows: Vec<ScaleBenchRow>,
}

impl ScaleBenchReport {
    /// Largest matrix-free bytes-per-target figure across rows.
    pub fn max_bytes_per_target(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.matrix_free.bytes_per_target(r.n))
            .fold(0.0, f64::max)
    }

    /// Largest tour-length ratio across rows where the matrix ran.
    pub fn max_len_ratio(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(ScaleBenchRow::len_ratio)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// Renders the human-readable summary table.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "n",
            "free (ms)",
            "matrix (ms)",
            "free peak (MB)",
            "matrix peak (MB)",
            "bytes/target",
            "peak RSS (MB)",
            "length ratio",
        ]);
        let na = "-".to_string();
        let mb = |bytes: u64| format!("{:.1}", bytes as f64 / (1024.0 * 1024.0));
        for row in &self.rows {
            table.add_row(vec![
                row.n.to_string(),
                format!("{:.2}", row.matrix_free.construction_ms),
                row.matrix
                    .map(|m| format!("{:.2}", m.construction_ms))
                    .unwrap_or_else(|| na.clone()),
                mb(row.matrix_free.peak_live_bytes),
                row.matrix
                    .map(|m| mb(m.peak_live_bytes))
                    .unwrap_or_else(|| na.clone()),
                format!("{:.0}", row.matrix_free.bytes_per_target(row.n)),
                row.matrix_free
                    .peak_rss_kb
                    .map(|kb| format!("{:.1}", kb as f64 / 1024.0))
                    .unwrap_or_else(|| na.clone()),
                row.len_ratio()
                    .map(|r| format!("{r:.4}"))
                    .unwrap_or_else(|| na.clone()),
            ]);
        }
        table
    }

    /// Serialises the report as the tracked `BENCH_scale.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"bench-scale/v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.params.seed));
        out.push_str(&format!("  \"k\": {},\n", self.params.k));
        out.push_str(&format!("  \"matrix_cap\": {},\n", self.params.matrix_cap));
        out.push_str(&format!("  \"samples\": {},\n", self.params.samples));
        out.push_str("  \"sizes\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let free = &row.matrix_free;
            out.push_str("    {");
            out.push_str(&format!("\"n\": {}", row.n));
            out.push_str(&format!(
                ", \"construction_ms\": {:.3}",
                free.construction_ms
            ));
            out.push_str(&format!(
                ", \"peak_rss_kb\": {}",
                json_opt_u64(free.peak_rss_kb)
            ));
            out.push_str(&format!(", \"alloc_count\": {}", free.alloc_count));
            out.push_str(&format!(", \"alloc_bytes\": {}", free.alloc_bytes));
            out.push_str(&format!(", \"peak_live_bytes\": {}", free.peak_live_bytes));
            out.push_str(&format!(
                ", \"bytes_per_target\": {:.1}",
                free.bytes_per_target(row.n)
            ));
            out.push_str(&format!(
                ", \"matrix_construction_ms\": {}",
                json_opt(row.matrix.map(|m| m.construction_ms), 3)
            ));
            out.push_str(&format!(
                ", \"matrix_alloc_bytes\": {}",
                json_opt_u64(row.matrix.map(|m| m.alloc_bytes))
            ));
            out.push_str(&format!(
                ", \"matrix_peak_live_bytes\": {}",
                json_opt_u64(row.matrix.map(|m| m.peak_live_bytes))
            ));
            out.push_str(&format!(
                ", \"matrix_bytes_per_target\": {}",
                json_opt(row.matrix.map(|m| m.bytes_per_target(row.n)), 1)
            ));
            out.push_str(&format!(
                ", \"len_ratio\": {}",
                json_opt(row.len_ratio(), 6)
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

fn json_opt_u64(value: impl Into<Option<u64>>) -> String {
    match value.into() {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Times `build()` disarmed (minimum over `samples` runs), then runs it
/// once more with the allocation tallies armed to collect the memory
/// figures. Arming is process-global; `bench-scale` runs single-threaded
/// in its own process, so the global deltas belong to this workload.
fn measure_flavour<F: Fn() -> f64>(samples: usize, build: F) -> FlavourStats {
    let mut construction_ms = f64::INFINITY;
    let mut tour_len = 0.0;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        tour_len = build();
        construction_ms = construction_ms.min(start.elapsed().as_secs_f64() * 1000.0);
    }
    mule_obs::alloc::reset_rss_peak();
    // Thread-local tallies: allocation on unrelated threads (parallel
    // tests, a scraping server) cannot pollute the deltas.
    let before = mule_obs::alloc::thread_stats();
    mule_obs::alloc::reset_thread_peak();
    mule_obs::alloc::arm();
    build();
    mule_obs::alloc::disarm();
    let after = mule_obs::alloc::thread_stats();
    FlavourStats {
        construction_ms,
        tour_len,
        alloc_count: after.events() - before.events(),
        alloc_bytes: after.allocated_bytes - before.allocated_bytes,
        peak_live_bytes: after.peak_live_bytes.saturating_sub(before.live_bytes),
        peak_rss_kb: mule_obs::alloc::rss_peak_kb(),
    }
}

/// Runs the scale benchmark over the configured sizes.
pub fn run_scale_bench(params: &ScaleBenchParams) -> ScaleBenchReport {
    let config = ChbConfig::default().with_search(SearchMode::Candidates(params.k.max(1)));
    let rows = params
        .sizes
        .iter()
        .map(|&n| {
            let points = bench_layout(params.seed, n);
            let matrix_free = measure_flavour(params.samples, || {
                construct_circuit(&points, &TravelMetric::Euclidean, &config).length(&points)
            });
            let matrix = if n <= params.matrix_cap {
                Some(measure_flavour(params.samples, || {
                    let dm = DistanceMatrix::from_points(&points);
                    construct_circuit_on(&points, &dm, &config).length(&points)
                }))
            } else {
                None
            };
            ScaleBenchRow {
                n,
                matrix_free,
                matrix,
            }
        })
        .collect();
    ScaleBenchReport {
        params: params.clone(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> ScaleBenchParams {
        ScaleBenchParams {
            sizes: vec![300, 600],
            seed: 7,
            k: 8,
            matrix_cap: 400,
            samples: 1,
        }
    }

    #[test]
    fn report_has_one_row_per_size_and_respects_the_matrix_cap() {
        let report = run_scale_bench(&quick_params());
        assert_eq!(report.rows.len(), 2);
        let small = &report.rows[0];
        assert!(small.matrix.is_some());
        assert!(small.len_ratio().is_some());
        let large = &report.rows[1];
        assert!(
            large.matrix.is_none(),
            "above the cap the matrix is skipped"
        );
        assert!(large.len_ratio().is_none());
        for row in &report.rows {
            assert!(row.matrix_free.construction_ms >= 0.0);
            assert!(row.matrix_free.tour_len > 0.0);
        }
    }

    #[test]
    fn armed_run_attributes_allocations_and_matrix_dominates_memory() {
        let report = run_scale_bench(&quick_params());
        let row = &report.rows[0];
        assert!(row.matrix_free.alloc_count > 0, "armed run saw allocations");
        assert!(row.matrix_free.alloc_bytes > 0);
        assert!(row.matrix_free.peak_live_bytes > 0);
        let matrix = row.matrix.expect("matrix ran at n=300");
        // The dense matrix is 8·n² bytes — it must dwarf the matrix-free
        // footprint even at 300 points (720 kB vs tens of kB).
        assert!(
            matrix.peak_live_bytes > row.matrix_free.peak_live_bytes,
            "matrix {} <= free {}",
            matrix.peak_live_bytes,
            row.matrix_free.peak_live_bytes
        );
        assert!(matrix.peak_live_bytes as f64 >= 8.0 * 300.0 * 300.0 * 0.9);
    }

    #[test]
    fn alloc_count_is_deterministic_run_to_run() {
        let params = ScaleBenchParams {
            sizes: vec![300],
            ..quick_params()
        };
        // Warm-up absorbs one-time lazy initialisation.
        run_scale_bench(&params);
        let a = run_scale_bench(&params);
        let b = run_scale_bench(&params);
        assert_eq!(
            a.rows[0].matrix_free.alloc_count,
            b.rows[0].matrix_free.alloc_count
        );
        assert_eq!(
            a.rows[0].matrix_free.tour_len,
            b.rows[0].matrix_free.tour_len
        );
    }

    #[test]
    fn json_is_flat_well_formed_and_null_aware() {
        let report = run_scale_bench(&quick_params());
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"bench-scale/v1\""));
        for key in [
            "\"construction_ms\"",
            "\"peak_rss_kb\"",
            "\"alloc_count\"",
            "\"alloc_bytes\"",
            "\"bytes_per_target\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(
            json.contains("\"matrix_construction_ms\": null"),
            "capped row is explicit"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn gate_figures_are_populated() {
        let report = run_scale_bench(&quick_params());
        assert!(report.max_bytes_per_target() > 0.0);
        let ratio = report.max_len_ratio().unwrap();
        assert!((0.8..=1.2).contains(&ratio), "length ratio {ratio}");
        let rendered = report.to_table().render();
        assert!(rendered.contains("bytes/target"));
        assert!(rendered.contains(" - "), "capped cells show a dash");
    }
}

//! The daemon: a `TcpListener` accept loop feeding a bounded set of
//! connection handlers on a long-lived `mule-par` [`TaskPool`].
//!
//! ## Request flow
//!
//! 1. The accept thread admits a connection if fewer than
//!    `queue_depth` connections are currently admitted; otherwise it
//!    answers `503 Service Unavailable` with `Retry-After` immediately
//!    and closes — **backpressure is explicit and cheap**, not a growing
//!    queue.
//! 2. Admitted connections are handed to the worker pool. A worker owns
//!    the connection for its lifetime (keep-alive requests run
//!    back-to-back on one worker), bounded by the idle read timeout.
//! 3. `/v1/plan` bodies are parsed into a `ScenarioSpec`, fingerprinted,
//!    and served through the [`PlanCache`] — hit, coalesced or computed,
//!    the bytes are identical (see `docs/DETERMINISM.md`). The `X-Cache`
//!    response header reports which path served the request.
//!
//! ## Graceful degradation
//!
//! Three opt-in mechanisms keep the daemon answering well-formed
//! responses when computes misbehave (see `docs/RELIABILITY.md`):
//!
//! * **Deadlines** ([`ServerConfig::deadline`]): bounds both the total
//!   header+body read time of a request (closing the slow-loris hole a
//!   per-read idle timeout leaves open) and the compute time of
//!   `/v1/plan` / `/v1/simulate`; exceeding either answers `504`.
//! * **Circuit breakers** ([`ServerConfig::breaker_threshold`]): after K
//!   consecutive compute panics/timeouts a route fails fast with `503`
//!   until a half-open probe succeeds (see [`crate::breaker`]).
//! * **Stale-on-error** ([`ServerConfig::degraded`]): when a plan
//!   compute fails and the cache still holds last-good bytes for the
//!   fingerprint, they are served with `X-Cache: stale` and a `Warning`
//!   header instead of the 5xx.
//!
//! Compute panics are caught at the request level in all cases, so a
//! panicking planner produces a well-formed 500 (or a stale 200) instead
//! of a dropped connection. The `mule-fault` points in this file
//! (`serve.plan`, `serve.cache`, `serve.conn.read`, `serve.conn.write`)
//! exist to prove exactly that under `patrolctl chaos`.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (also run on drop) flips the shutdown flag,
//! pokes the listener with a loopback connection to unblock `accept`,
//! and drops the pool — which joins every worker after the in-flight
//! connections wind down (the idle timeout bounds how long an idle
//! keep-alive peer can delay this).

use crate::api;
use crate::breaker::{BreakerSnapshot, CircuitBreaker};
use crate::cache::{CacheOutcome, PlanCache};
use crate::http::{read_request, HttpError, Request, Response};
use mule_metrics::LatencyHistogram;
use mule_obs::FlatProfile;
use mule_par::TaskPool;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of a [`start`]ed server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Plan-cache capacity (entries); 0 disables caching.
    pub cache_capacity: usize,
    /// Maximum concurrently admitted connections; beyond it new
    /// connections get `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Worker override for `/v1/simulate` replication sweeps (`None` =
    /// `mule_par::resolve_workers` default).
    pub sim_workers: Option<usize>,
    /// How long a worker waits for the next request on an idle keep-alive
    /// connection before closing it.
    pub idle_timeout: Duration,
    /// Opt-in slow-request log: requests taking at least this many
    /// milliseconds are logged to stderr with their trace id and a
    /// per-span self-time breakdown. `None` (the default) logs nothing.
    pub slow_request_ms: Option<f64>,
    /// Opt-in per-request deadline (`patrolctl serve --deadline-ms`). It
    /// bounds (a) the total time a peer may take to deliver one request's
    /// header + body once its first byte arrived — the per-read
    /// `idle_timeout` alone lets a slow-loris peer trickle one byte per
    /// timeout forever — and (b) the compute time of a plan/simulate
    /// request, which is moved onto a helper thread so the worker can
    /// answer `504 Gateway Timeout` while an overrunning compute finishes
    /// in the background. `None` (the default) disables both.
    pub deadline: Option<Duration>,
    /// Opt-in per-route circuit breaker (`patrolctl serve --breaker K`):
    /// after this many consecutive compute panics/timeouts the route
    /// fails fast with `503` until a half-open probe succeeds. `None`
    /// disables breaking.
    pub breaker_threshold: Option<usize>,
    /// How long an open breaker waits before admitting a half-open probe.
    pub breaker_cooldown: Duration,
    /// Stale-on-error mode (`patrolctl serve --degraded`): serve last
    /// good cached bytes (`X-Cache: stale` + `Warning`) when a plan
    /// compute fails, instead of the 5xx.
    pub degraded: bool,
    /// Expose the read-only `GET /debug/*` introspection endpoints
    /// (`patrolctl serve --debug-endpoints`) and record the telemetry
    /// rings backing them: recent sampled traces, recent request records
    /// and the since-last-scrape profile.
    pub debug_endpoints: bool,
    /// Head-based trace sampling rate in `[0, 1]` for the recent-traces
    /// ring (`--trace-sample`). Keep/drop is a pure function of the
    /// request's trace token (see [`mule_obs::sample_keep`]); slow and
    /// 5xx requests are tail-promoted into the ring regardless.
    pub trace_sample_rate: f64,
    /// Rolling-window SLO objectives (`--slo "p99_ms=1.0,availability=99.9"`);
    /// `None` disables burn-rate tracking and the `mule_slo_*` gauges.
    pub slo: Option<mule_obs::SloSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            cache_capacity: 128,
            queue_depth: 64,
            sim_workers: None,
            idle_timeout: Duration::from_secs(5),
            slow_request_ms: None,
            deadline: None,
            breaker_threshold: None,
            breaker_cooldown: Duration::from_secs(1),
            degraded: false,
            debug_endpoints: false,
            trace_sample_rate: 0.01,
            slo: None,
        }
    }
}

/// The value of the `Retry-After` header on 503 responses, seconds.
pub const RETRY_AFTER_S: u32 = 1;

/// Request counters, latency histogram and cache statistics, exposed as
/// the `/metrics` document.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    inner: Mutex<MetricsInner>,
}

#[derive(Debug, Default)]
struct MetricsInner {
    healthz: u64,
    metrics: u64,
    plan: u64,
    simulate: u64,
    debug: u64,
    other: u64,
    ok_2xx: u64,
    client_err_4xx: u64,
    server_err_5xx: u64,
    rejected_503: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_coalesced: u64,
    /// Requests whose header+body read overran the deadline (504 before
    /// any request was parsed).
    deadline_read: u64,
    /// Computes cut off by the deadline (504 after admission).
    deadline_compute: u64,
    /// Failed computes answered from the last-good store (`X-Cache:
    /// stale`).
    stale_served: u64,
    latency: LatencyHistogram,
    /// Per-request span profiles merged under the same lock as the route
    /// counters, so `mule_span_total{span="request"}` always equals the
    /// summed per-route request counters at scrape time.
    spans: FlatProfile,
}

/// Which endpoint a request hit, for the per-route counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Healthz,
    Metrics,
    Plan,
    Simulate,
    Debug,
    Other,
}

impl ServerMetrics {
    /// Locks the counters, recovering from poisoning: a handler that
    /// panicked mid-request leaves plain integers behind, and losing every
    /// later scrape to a cascading panic would turn one bad request into a
    /// dead `/metrics` endpoint.
    fn lock(&self) -> MutexGuard<'_, MetricsInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one handled request together with its span profile.
    fn observe(
        &self,
        route: Route,
        status: u16,
        elapsed: Duration,
        cache: Option<CacheOutcome>,
        profile: &FlatProfile,
    ) {
        let mut inner = self.lock();
        match route {
            Route::Healthz => inner.healthz += 1,
            Route::Metrics => inner.metrics += 1,
            Route::Plan => inner.plan += 1,
            Route::Simulate => inner.simulate += 1,
            Route::Debug => inner.debug += 1,
            Route::Other => inner.other += 1,
        }
        match status {
            200..=299 => inner.ok_2xx += 1,
            400..=499 => inner.client_err_4xx += 1,
            _ => inner.server_err_5xx += 1,
        }
        match cache {
            Some(CacheOutcome::Hit) => inner.cache_hits += 1,
            Some(CacheOutcome::Miss) => inner.cache_misses += 1,
            Some(CacheOutcome::Coalesced) => inner.cache_coalesced += 1,
            None => {}
        }
        inner.latency.record_duration(elapsed);
        inner.spans.merge(profile);
    }

    /// Records one connection rejected by backpressure (no request was
    /// read, so nothing else is counted — rejections carry no trace).
    fn observe_rejected(&self) {
        self.lock().rejected_503 += 1;
    }

    /// Records one request whose header+body read overran the deadline.
    fn observe_deadline_read(&self) {
        self.lock().deadline_read += 1;
    }

    /// Records one compute cut off by the deadline.
    fn observe_deadline_compute(&self) {
        self.lock().deadline_compute += 1;
    }

    /// Records one stale-on-error serve.
    fn observe_stale_served(&self) {
        self.lock().stale_served += 1;
    }

    /// Renders the `/metrics` document. Cache hit rate counts coalesced
    /// requests as served-from-cache: they did not recompute.
    pub fn to_json(&self) -> String {
        self.to_json_with(&[], &[])
    }

    /// [`ServerMetrics::to_json`] extended with per-route breaker
    /// snapshots and the armed fault plan's firing counters (the server
    /// passes its live breakers and `mule_fault::injection_counts()`;
    /// `&[]` omits the sections' rows). Carrying the fault rows here
    /// keeps `/metrics.json` in lockstep with the Prometheus
    /// `mule_fault_injected_total{point,kind}` family.
    pub fn to_json_with(
        &self,
        breakers: &[(&str, BreakerSnapshot)],
        faults: &[(String, &'static str, u64)],
    ) -> String {
        use crate::json::JsonValue;
        let inner = self.lock();
        let total =
            inner.healthz + inner.metrics + inner.plan + inner.simulate + inner.debug + inner.other;
        let cache_total = inner.cache_hits + inner.cache_misses + inner.cache_coalesced;
        let hit_rate = if cache_total == 0 {
            0.0
        } else {
            (inner.cache_hits + inner.cache_coalesced) as f64 / cache_total as f64
        };
        // Group the sorted (point, kind, count) rows into point → kind →
        // count, mirroring the Prometheus label pair.
        let mut fault_rows: Vec<(&str, JsonValue)> = Vec::new();
        for (point, kind, count) in faults {
            match fault_rows.iter_mut().find(|(p, _)| *p == point.as_str()) {
                Some((_, JsonValue::Object(kinds))) => {
                    kinds.push((kind.to_string(), (*count).into()));
                }
                _ => fault_rows.push((
                    point.as_str(),
                    JsonValue::object(vec![(kind, (*count).into())]),
                )),
            }
        }
        let doc = JsonValue::object(vec![
            ("schema", "server-metrics/v1".into()),
            (
                "requests",
                JsonValue::object(vec![
                    ("total", total.into()),
                    ("healthz", inner.healthz.into()),
                    ("metrics", inner.metrics.into()),
                    ("plan", inner.plan.into()),
                    ("simulate", inner.simulate.into()),
                    ("debug", inner.debug.into()),
                    ("other", inner.other.into()),
                ]),
            ),
            (
                "responses",
                JsonValue::object(vec![
                    ("ok_2xx", inner.ok_2xx.into()),
                    ("client_error_4xx", inner.client_err_4xx.into()),
                    ("server_error_5xx", inner.server_err_5xx.into()),
                    ("rejected_503", inner.rejected_503.into()),
                ]),
            ),
            (
                "latency_ms",
                JsonValue::object(vec![
                    ("count", inner.latency.count().into()),
                    ("mean", (inner.latency.mean_s() * 1e3).into()),
                    ("p50", (inner.latency.p50() * 1e3).into()),
                    ("p95", (inner.latency.p95() * 1e3).into()),
                    ("p99", (inner.latency.p99() * 1e3).into()),
                    ("max", (inner.latency.max_s() * 1e3).into()),
                ]),
            ),
            (
                "cache",
                JsonValue::object(vec![
                    ("hits", inner.cache_hits.into()),
                    ("misses", inner.cache_misses.into()),
                    ("coalesced", inner.cache_coalesced.into()),
                    ("hit_rate", hit_rate.into()),
                ]),
            ),
            (
                "degraded",
                JsonValue::object(vec![
                    ("deadline_read_504", inner.deadline_read.into()),
                    ("deadline_compute_504", inner.deadline_compute.into()),
                    ("stale_served", inner.stale_served.into()),
                ]),
            ),
            (
                "breakers",
                JsonValue::object(
                    breakers
                        .iter()
                        .map(|(route, snap)| {
                            (
                                *route,
                                JsonValue::object(vec![
                                    ("state", snap.state.label().into()),
                                    (
                                        "consecutive_failures",
                                        (snap.consecutive_failures as u64).into(),
                                    ),
                                    ("opened", snap.opened.into()),
                                    ("half_opened", snap.half_opened.into()),
                                    ("closed", snap.closed.into()),
                                    ("fast_failed", snap.fast_failed.into()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("faults", JsonValue::object(fault_rows)),
        ]);
        doc.to_pretty_string()
    }

    /// Renders the Prometheus text exposition (format 0.0.4) served at
    /// `/metrics`: per-route request counters, status-class counters,
    /// cache outcomes, the latency histogram (`_bucket`/`_sum`/`_count`)
    /// and per-span-name totals from the merged request profiles.
    pub fn to_prometheus(&self) -> String {
        self.to_prometheus_with(&[], &[], None)
    }

    /// [`ServerMetrics::to_prometheus`] extended with per-route breaker
    /// gauges/counters, the `mule_fault_injected_total{point,kind}` rows
    /// of the armed fault plan (both empty on a plain scrape), and —
    /// when SLO tracking is configured — the `mule_slo_*` burn-rate
    /// gauges rendered from the tracker's current report.
    pub fn to_prometheus_with(
        &self,
        breakers: &[(&str, BreakerSnapshot)],
        faults: &[(String, &'static str, u64)],
        slo: Option<&mule_obs::SloReport>,
    ) -> String {
        use mule_obs::prom::PromText;
        let inner = self.lock();
        let mut p = PromText::new();

        p.family(
            "mule_requests_total",
            "counter",
            "Requests handled, by route.",
        );
        for (route, count) in [
            ("healthz", inner.healthz),
            ("metrics", inner.metrics),
            ("plan", inner.plan),
            ("simulate", inner.simulate),
            ("debug", inner.debug),
            ("other", inner.other),
        ] {
            p.sample_u64("mule_requests_total", &[("route", route)], count);
        }

        p.family(
            "mule_responses_total",
            "counter",
            "Responses sent, by status class.",
        );
        for (class, count) in [
            ("2xx", inner.ok_2xx),
            ("4xx", inner.client_err_4xx),
            ("5xx", inner.server_err_5xx),
        ] {
            p.sample_u64("mule_responses_total", &[("class", class)], count);
        }

        p.family(
            "mule_rejected_total",
            "counter",
            "Connections rejected by backpressure (503 + Retry-After).",
        );
        p.sample_u64("mule_rejected_total", &[], inner.rejected_503);

        p.family(
            "mule_cache_events_total",
            "counter",
            "Plan-cache lookups, by outcome.",
        );
        for (event, count) in [
            ("hit", inner.cache_hits),
            ("miss", inner.cache_misses),
            ("coalesced", inner.cache_coalesced),
        ] {
            p.sample_u64("mule_cache_events_total", &[("event", event)], count);
        }

        p.family(
            "mule_deadline_exceeded_total",
            "counter",
            "Requests answered 504, by which deadline was overrun.",
        );
        for (stage, count) in [
            ("read", inner.deadline_read),
            ("compute", inner.deadline_compute),
        ] {
            p.sample_u64("mule_deadline_exceeded_total", &[("stage", stage)], count);
        }

        p.family(
            "mule_stale_served_total",
            "counter",
            "Failed computes answered from the last-good store (X-Cache: stale).",
        );
        p.sample_u64("mule_stale_served_total", &[], inner.stale_served);

        p.family(
            "mule_breaker_state",
            "gauge",
            "Circuit breaker state, by route (0 closed, 1 open, 2 half-open).",
        );
        for (route, snap) in breakers {
            p.sample_u64("mule_breaker_state", &[("route", route)], snap.state.code());
        }
        p.family(
            "mule_breaker_transitions_total",
            "counter",
            "Circuit breaker transitions, by route and target state.",
        );
        for (route, snap) in breakers {
            for (to, count) in [
                ("open", snap.opened),
                ("half_open", snap.half_opened),
                ("closed", snap.closed),
            ] {
                p.sample_u64(
                    "mule_breaker_transitions_total",
                    &[("route", route), ("to", to)],
                    count,
                );
            }
        }
        p.family(
            "mule_breaker_fast_fail_total",
            "counter",
            "Requests rejected fast (503) by an open breaker, by route.",
        );
        for (route, snap) in breakers {
            p.sample_u64(
                "mule_breaker_fast_fail_total",
                &[("route", route)],
                snap.fast_failed,
            );
        }

        p.family(
            "mule_fault_injected_total",
            "counter",
            "Faults fired by the armed mule-fault plan, by point and kind.",
        );
        for (point, kind, count) in faults {
            p.sample_u64(
                "mule_fault_injected_total",
                &[("point", point), ("kind", kind)],
                *count,
            );
        }

        if let Some(report) = slo {
            p.family(
                "mule_slo_error_budget_remaining",
                "gauge",
                "Fraction of the error budget left over the longest SLO window, by objective.",
            );
            for obj in &report.objectives {
                p.sample_f64(
                    "mule_slo_error_budget_remaining",
                    &[("objective", obj.objective)],
                    obj.budget_remaining,
                );
            }
            p.family(
                "mule_slo_burn_rate",
                "gauge",
                "Error-budget burn rate (1.0 = spending exactly the budget), by objective and window.",
            );
            for obj in &report.objectives {
                for &(window, rate) in &obj.windows {
                    p.sample_f64(
                        "mule_slo_burn_rate",
                        &[("objective", obj.objective), ("window", window)],
                        rate,
                    );
                }
            }
        }

        // Process RSS gauges are sampled from /proc at scrape time;
        // both rows are omitted on platforms without procfs.
        if let Some(kb) = mule_obs::alloc::rss_now_kb() {
            p.family(
                "mule_process_resident_bytes",
                "gauge",
                "Resident set size of the serving process, sampled at scrape.",
            );
            p.sample_u64("mule_process_resident_bytes", &[], kb * 1024);
        }
        if let Some(kb) = mule_obs::alloc::rss_peak_kb() {
            p.family(
                "mule_process_peak_resident_bytes",
                "gauge",
                "Peak resident set size of the serving process (VmHWM).",
            );
            p.sample_u64("mule_process_peak_resident_bytes", &[], kb * 1024);
        }

        // Log-linear histogram buckets carry inclusive upper bounds in
        // nanoseconds; Prometheus `le` is inclusive too, so converting
        // the bound to seconds preserves the semantics exactly.
        let mut cumulative = 0u64;
        let buckets: Vec<(f64, u64)> = inner
            .latency
            .nonzero_buckets()
            .into_iter()
            .map(|(upper_ns, count)| {
                cumulative += count;
                (upper_ns as f64 / 1e9, cumulative)
            })
            .collect();
        p.histogram(
            "mule_request_duration_seconds",
            "Request handling latency.",
            &buckets,
            inner.latency.sum_s(),
            inner.latency.count(),
        );

        p.family(
            "mule_span_total",
            "counter",
            "Spans recorded across all request traces, by span name.",
        );
        for e in &inner.spans.entries {
            p.sample_u64("mule_span_total", &[("span", &e.name)], e.count);
        }
        p.family(
            "mule_span_seconds_total",
            "counter",
            "Total wall-clock seconds spent in spans (children included), by span name.",
        );
        for e in &inner.spans.entries {
            p.sample_f64(
                "mule_span_seconds_total",
                &[("span", &e.name)],
                e.total_ns as f64 / 1e9,
            );
        }
        p.finish()
    }
}

/// One handled request's record in the `/debug/requests` ring.
#[derive(Debug, Clone)]
struct RequestRecord {
    trace_id: String,
    method: String,
    path: String,
    status: u16,
    duration_ms: f64,
    /// Cache outcome label (`hit` / `miss` / `coalesced`), when the
    /// request went through the plan cache.
    cache: Option<&'static str>,
    /// Root-span allocation tally (zero while the counting allocator is
    /// disarmed).
    allocs: u64,
    alloc_bytes: u64,
    /// Whether the trace landed in the recent-traces ring (head-sampled
    /// or tail-promoted).
    sampled: bool,
    slow: bool,
}

/// The in-process stores behind the `/debug/*` endpoints, recorded only
/// when [`ServerConfig::debug_endpoints`] is on. Ring pushes are
/// lock-light (one atomic + one slot mutex) and never block the request
/// path on a reader.
struct Telemetry {
    /// Recent sampled traces, `(trace id, trace)`.
    traces: mule_obs::Ring<(String, mule_obs::Trace)>,
    /// Recent request records.
    requests: mule_obs::Ring<RequestRecord>,
    /// Span profile merged since the last `/debug/profile` scrape (the
    /// scrape takes it, so consecutive scrapes report disjoint windows).
    profile: Mutex<FlatProfile>,
}

/// Capacity of the recent-traces ring.
const TRACE_RING_CAPACITY: usize = 64;
/// Capacity of the recent-requests ring.
const REQUEST_RING_CAPACITY: usize = 512;

struct Shared {
    cache: PlanCache,
    metrics: ServerMetrics,
    admitted: AtomicUsize,
    shutdown: AtomicBool,
    /// Monotonic request sequence feeding [`trace_id`].
    trace_seq: AtomicU64,
    /// Per-route circuit breakers (disabled unless
    /// [`ServerConfig::breaker_threshold`] is set).
    breaker_plan: CircuitBreaker,
    breaker_simulate: CircuitBreaker,
    /// Server start; SLO buckets are stamped in seconds since here.
    epoch: Instant,
    /// Burn-rate tracker, present iff [`ServerConfig::slo`] is set.
    slo: Option<mule_obs::SloTracker>,
    /// Debug-endpoint stores, present iff
    /// [`ServerConfig::debug_endpoints`] is on.
    telemetry: Option<Telemetry>,
    config: ServerConfig,
}

impl Shared {
    fn breaker_rows(&self) -> Vec<(&'static str, BreakerSnapshot)> {
        vec![
            ("plan", self.breaker_plan.snapshot()),
            ("simulate", self.breaker_simulate.snapshot()),
        ]
    }

    fn slo_report(&self) -> Option<mule_obs::SloReport> {
        self.slo
            .as_ref()
            .map(|tracker| tracker.report(self.epoch.elapsed().as_secs()))
    }

    fn render_prometheus(&self) -> String {
        self.metrics.to_prometheus_with(
            &self.breaker_rows(),
            &mule_fault::injection_counts(),
            self.slo_report().as_ref(),
        )
    }

    fn render_json(&self) -> String {
        self.metrics
            .to_json_with(&self.breaker_rows(), &mule_fault::injection_counts())
    }
}

/// The 64-bit trace token for the `seq`-th request; rendered as 16 hex
/// digits it is the `X-Trace-Id` header value. The splitmix64 finaliser
/// turns sequential numbers into well-mixed tokens while staying a pure
/// function of admission order — which is also what the head-based
/// sampler draws on, so sampling decisions replay identically for a
/// given admission order.
fn trace_token(seq: u64) -> u64 {
    let mut z = seq.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A running server. Dropping the handle shuts the server down and joins
/// every thread it started.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Dropped before the accept thread is joined; its own drop joins the
    /// connection workers.
    pool: Option<TaskPool>,
    /// True while this handle holds one arm on the counting allocator
    /// (slow-request logging wants per-request allocation figures);
    /// released exactly once at shutdown.
    alloc_armed: bool,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current `/metrics.json` document (for embedding servers).
    pub fn metrics_json(&self) -> String {
        self.shared.render_json()
    }

    /// The current Prometheus text exposition (the `/metrics` document).
    pub fn metrics_prometheus(&self) -> String {
        self.shared.render_prometheus()
    }

    /// Stops accepting, drains the in-flight connections and joins every
    /// thread. Called automatically on drop.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if std::mem::take(&mut self.alloc_armed) {
            mule_obs::alloc::disarm();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway loopback connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        // Dropping the pool joins the connection workers after they
        // finish their queued connections.
        self.pool.take();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Binds the listener and starts the accept loop and worker pool.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let breaker_threshold = config.breaker_threshold.unwrap_or(0);
    // Slow-request logging and `/debug/alloc` report per-request
    // allocation figures, which only exist while the counting allocator
    // is armed. The arm is a counter, so holding one here composes with
    // scoped arms elsewhere.
    let alloc_armed = config.slow_request_ms.is_some() || config.debug_endpoints;
    if alloc_armed {
        mule_obs::alloc::arm();
    }
    let shared = Arc::new(Shared {
        cache: PlanCache::new(config.cache_capacity),
        metrics: ServerMetrics::default(),
        admitted: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        trace_seq: AtomicU64::new(0),
        breaker_plan: CircuitBreaker::named("plan", breaker_threshold, config.breaker_cooldown),
        breaker_simulate: CircuitBreaker::named(
            "simulate",
            breaker_threshold,
            config.breaker_cooldown,
        ),
        epoch: Instant::now(),
        slo: config.slo.clone().map(mule_obs::SloTracker::new),
        telemetry: config.debug_endpoints.then(|| Telemetry {
            traces: mule_obs::Ring::new(TRACE_RING_CAPACITY),
            requests: mule_obs::Ring::new(REQUEST_RING_CAPACITY),
            profile: Mutex::new(FlatProfile::default()),
        }),
        config: config.clone(),
    });
    let pool = TaskPool::new(config.workers);

    let accept_shared = Arc::clone(&shared);
    // Admitted connections travel from the accept thread to the pool
    // workers over a channel. When the accept thread exits it drops the
    // sender, the workers' `recv` fails, and their jobs finish — which is
    // what lets the pool's join-on-drop shutdown terminate.
    let (conn_tx, conn_rx) = std::sync::mpsc::channel::<TcpStream>();
    let accept_thread = std::thread::spawn(move || {
        accept_loop(&listener, &accept_shared, conn_tx);
    });

    // One long-lived job per worker, each pulling connections off the
    // shared queue; `queue_depth` (checked at accept time) bounds how
    // many connections wait here.
    let conn_rx = ConnReceiver {
        rx: Arc::new(Mutex::new(conn_rx)),
    };
    for _ in 0..config.workers {
        let shared = Arc::clone(&shared);
        let rx = ConnReceiver::clone_handle(&conn_rx);
        pool.spawn(move || {
            while let Some(stream) = rx.recv() {
                handle_connection(stream, &shared);
                shared.admitted.fetch_sub(1, Ordering::SeqCst);
            }
        });
    }

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        pool: Some(pool),
        alloc_armed,
    })
}

/// `mpsc::Receiver` is single-consumer; wrap it in a mutex so every pool
/// worker can pull connections from one queue.
struct ConnReceiver {
    rx: Arc<Mutex<std::sync::mpsc::Receiver<TcpStream>>>,
}

impl ConnReceiver {
    fn clone_handle(rx: &ConnReceiver) -> ConnReceiver {
        ConnReceiver {
            rx: Arc::clone(&rx.rx),
        }
    }

    fn recv(&self) -> Option<TcpStream> {
        // Recover from poisoning: one worker panicking while holding the
        // receiver must not strand the queued connections of the others.
        self.rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv()
            .ok()
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Shared,
    conn_tx: std::sync::mpsc::Sender<TcpStream>,
) {
    loop {
        let (mut stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Backpressure: admit up to `queue_depth` concurrent connections,
        // reject the rest immediately. The counter is incremented here —
        // in the single accept thread — so admission decisions are
        // sequential and deterministic for a given arrival order.
        let admitted = shared.admitted.load(Ordering::SeqCst);
        if admitted >= shared.config.queue_depth {
            shared.metrics.observe_rejected();
            let response = Response::error(503, "server at capacity, retry later")
                .with_header("Retry-After", RETRY_AFTER_S.to_string());
            let _ = response.write_to(&mut stream, false);
            continue;
        }
        shared.admitted.fetch_add(1, Ordering::SeqCst);
        if conn_tx.send(stream).is_err() {
            return; // workers are gone: shutting down
        }
    }
}

/// A [`TcpStream`] reader enforcing two timescales: the per-read idle
/// timeout (how long a keep-alive peer may stay silent between requests)
/// and, when a deadline is configured, a **total** budget for delivering
/// one request's header + body, armed at its first byte. The per-read
/// timeout alone leaves the classic slow-loris hole — a peer trickling
/// one byte per timeout holds a worker forever; the total budget closes
/// it.
struct TimedStream {
    stream: TcpStream,
    idle: Duration,
    read_deadline: Option<Duration>,
    /// Set at the first byte of a request, cleared between requests.
    request_started: Option<Instant>,
    /// Set when a read failed because the total budget ran out (vs. the
    /// peer merely idling), so the connection handler can answer 504.
    deadline_hit: bool,
    /// Last timeout passed to `set_read_timeout`, to skip the syscall
    /// when unchanged (the common case: no deadline configured).
    last_timeout: Option<Duration>,
}

impl TimedStream {
    fn new(stream: TcpStream, idle: Duration, read_deadline: Option<Duration>) -> Self {
        TimedStream {
            stream,
            idle,
            read_deadline,
            request_started: None,
            deadline_hit: false,
            last_timeout: None,
        }
    }

    /// Re-opens the timing window between requests: the next read waits
    /// under the idle timeout alone until a first byte arrives.
    fn begin_request_window(&mut self) {
        self.request_started = None;
        self.deadline_hit = false;
    }

    fn set_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        let timeout = timeout.max(Duration::from_millis(1));
        if self.last_timeout != Some(timeout) {
            self.stream.set_read_timeout(Some(timeout))?;
            self.last_timeout = Some(timeout);
        }
        Ok(())
    }
}

impl Read for TimedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let timeout = match (self.read_deadline, self.request_started) {
            (Some(total), Some(started)) => {
                let elapsed = started.elapsed();
                if elapsed >= total {
                    self.deadline_hit = true;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "request read deadline exceeded",
                    ));
                }
                (total - elapsed).min(self.idle)
            }
            _ => self.idle,
        };
        self.set_timeout(timeout)?;
        match self.stream.read(buf) {
            Ok(n) => {
                if n > 0 && self.read_deadline.is_some() && self.request_started.is_none() {
                    self.request_started = Some(Instant::now());
                }
                Ok(n)
            }
            Err(e) => {
                // A per-read timeout surfacing exactly as the total budget
                // runs out is a deadline hit too.
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) {
                    if let (Some(total), Some(started)) = (self.read_deadline, self.request_started)
                    {
                        if started.elapsed() >= total {
                            self.deadline_hit = true;
                        }
                    }
                }
                Err(e)
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(TimedStream::new(
        stream,
        shared.config.idle_timeout,
        shared.config.deadline,
    ));
    loop {
        reader.get_mut().begin_request_window();
        if mule_fault::io_error("serve.conn.read").is_some() {
            return; // injected transport failure: drop the connection
        }
        match read_request(&mut reader) {
            Ok(None) => return, // clean close between requests
            Ok(Some(request)) => {
                let keep_alive = request.keep_alive();
                let started = Instant::now();
                let seq = shared.trace_seq.fetch_add(1, Ordering::Relaxed);
                // Every request runs under its own captured trace with a
                // root `request` span, so the merged profile counts one
                // `request` span per handled request — the invariant the
                // CI smoke test checks against the route counters.
                let ((route, cache, response), trace) = mule_obs::capture(|| {
                    let _root = mule_obs::span("request");
                    route_request(&request, shared)
                });
                let elapsed = started.elapsed();
                let profile = FlatProfile::of(&trace);
                shared
                    .metrics
                    .observe(route, response.status, elapsed, cache, &profile);
                let id = observe_telemetry(
                    shared, seq, &request, &response, elapsed, cache, &profile, trace,
                );
                let response = response.with_header("X-Trace-Id", id);
                if mule_fault::io_error("serve.conn.write").is_some() {
                    return; // injected transport failure: drop before writing
                }
                if response.write_to(&mut writer, keep_alive).is_err() {
                    return;
                }
                if !keep_alive || shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(HttpError::Io(_)) if reader.get_ref().deadline_hit => {
                // The peer failed to deliver header+body within the
                // deadline (slow-loris or a stalled upload): answer 504
                // and close. No request was parsed, so — like
                // backpressure 503s — this is counted outside the
                // per-route counters.
                shared.metrics.observe_deadline_read();
                let _ = Response::error(504, "request read deadline exceeded")
                    .write_to(&mut writer, false);
                return;
            }
            Err(HttpError::Io(_)) | Err(HttpError::Closed) => return, // timeout / peer went away
            Err(e) => {
                let status = match e {
                    HttpError::TooLarge("request head") => 431,
                    HttpError::TooLarge(_) => 413,
                    HttpError::LengthRequired => 411,
                    _ => 400,
                };
                let _ = Response::error(status, &e.to_string()).write_to(&mut writer, false);
                return;
            }
        }
    }
}

/// Post-response telemetry for one handled request: SLO bucket, trace
/// sampling + tail promotion into the debug rings, the structured access
/// and slow-request log events. Returns the request's trace id.
///
/// The head-sampling decision is [`mule_obs::sample_keep`] on the trace
/// *token* — a pure function of admission order — so the set of sampled
/// traces replays identically for a given arrival order. Slow and 5xx
/// requests are promoted into the ring regardless of the draw.
#[allow(clippy::too_many_arguments)]
fn observe_telemetry(
    shared: &Arc<Shared>,
    seq: u64,
    request: &Request,
    response: &Response,
    elapsed: Duration,
    cache: Option<CacheOutcome>,
    profile: &FlatProfile,
    trace: mule_obs::Trace,
) -> String {
    use mule_obs::log::{self, LogEvent, Severity};
    let token = trace_token(seq);
    let id = format!("{token:016x}");
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    let is_error = response.status >= 500;
    let slow = shared
        .config
        .slow_request_ms
        .is_some_and(|threshold_ms| elapsed_ms >= threshold_ms);
    if let Some(slo) = &shared.slo {
        slo.record(shared.epoch.elapsed().as_secs(), elapsed_ms, is_error);
    }
    if let Some(telemetry) = &shared.telemetry {
        let sampled =
            slow || is_error || mule_obs::sample_keep(token, shared.config.trace_sample_rate);
        if sampled {
            telemetry.traces.push((id.clone(), trace));
        }
        let request_span = profile.get("request");
        telemetry.requests.push(RequestRecord {
            trace_id: id.clone(),
            method: request.method.clone(),
            path: request.path.clone(),
            status: response.status,
            duration_ms: elapsed_ms,
            cache: cache.map(|outcome| outcome.label()),
            allocs: request_span.map_or(0, |e| e.allocs),
            alloc_bytes: request_span.map_or(0, |e| e.alloc_bytes),
            sampled,
            slow,
        });
        telemetry
            .profile
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(profile);
    }
    if slow && log::enabled_at(Severity::Warn) {
        log::emit(
            LogEvent::new(Severity::Warn, "serve.slow_request")
                .trace(id.as_str())
                .field("method", request.method.as_str())
                .field("path", request.path.as_str())
                .field("status", u64::from(response.status))
                .field("duration_ms", elapsed_ms)
                .field("breakdown", slow_breakdown(profile)),
        );
    }
    if log::enabled_at(Severity::Debug) {
        let mut event = LogEvent::new(Severity::Debug, "serve.request")
            .trace(id.as_str())
            .field("method", request.method.as_str())
            .field("path", request.path.as_str())
            .field("status", u64::from(response.status))
            .field("duration_ms", elapsed_ms);
        if let Some(outcome) = cache {
            event = event.field("cache", outcome.label());
        }
        log::emit(event);
    }
    id
}

/// The top self-time spans of a slow request, for the slow-request log
/// event's `breakdown` field. When the counting allocator is armed (it
/// is whenever slow-request logging is on), the root `request` span's
/// allocation tally rides along as `allocs=N alloc_bytes=B`.
fn slow_breakdown(profile: &FlatProfile) -> String {
    let mut out = String::new();
    for entry in profile
        .entries
        .iter()
        .filter(|e| e.name != "request")
        .take(3)
    {
        out.push_str(&format!(
            " {}={:.1}ms",
            entry.name,
            entry.self_ns as f64 / 1e6
        ));
    }
    if let Some(request) = profile.entries.iter().find(|e| e.name == "request") {
        if request.allocs > 0 {
            out.push_str(&format!(
                " allocs={} alloc_bytes={}",
                request.allocs, request.alloc_bytes
            ));
        }
    }
    out
}

fn route_request(
    request: &Request,
    shared: &Arc<Shared>,
) -> (Route, Option<CacheOutcome>, Response) {
    // Split the query string off before matching, so `/debug/requests?limit=5`
    // routes like `/debug/requests`.
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (request.path.as_str(), None),
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let doc = crate::json::JsonValue::object(vec![
                ("status", "ok".into()),
                ("service", "mule-serve".into()),
            ]);
            (
                Route::Healthz,
                None,
                Response::json(200, doc.to_pretty_string()),
            )
        }
        ("GET", "/metrics") => (
            Route::Metrics,
            None,
            Response::text(
                200,
                mule_obs::prom::CONTENT_TYPE,
                shared.render_prometheus(),
            ),
        ),
        ("GET", "/metrics.json") => (
            Route::Metrics,
            None,
            Response::json(200, shared.render_json()),
        ),
        ("POST", "/v1/plan") => {
            let (cache, response) = handle_plan(&request.body, shared);
            (Route::Plan, cache, response)
        }
        ("POST", "/v1/simulate") => (
            Route::Simulate,
            None,
            handle_simulate(&request.body, shared),
        ),
        ("GET", p) if p.starts_with("/debug/") && shared.config.debug_endpoints => {
            (Route::Debug, None, handle_debug(p, query, shared))
        }
        (_, p) if p.starts_with("/debug/") && shared.config.debug_endpoints => (
            Route::Other,
            None,
            Response::error(405, "method not allowed for this path"),
        ),
        (_, "/healthz" | "/metrics" | "/metrics.json" | "/v1/plan" | "/v1/simulate") => (
            Route::Other,
            None,
            Response::error(405, "method not allowed for this path"),
        ),
        _ => (
            Route::Other,
            None,
            Response::error(404, &format!("no such endpoint: {}", request.path)),
        ),
    }
}

/// One `key=value` from a query string. No URL-decoding: the debug
/// parameters are plain identifiers and digits.
fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?
        .split('&')
        .find_map(|pair| match pair.split_once('=') {
            Some((k, v)) if k == key => Some(v),
            _ => None,
        })
}

/// Parses an optional `limit=N` query parameter, or answers 400.
fn parse_limit(query: Option<&str>, default: usize) -> Result<usize, Response> {
    match query_param(query, "limit") {
        None => Ok(default),
        Some(value) => value
            .parse::<usize>()
            .map_err(|_| Response::error(400, "limit must be a non-negative integer")),
    }
}

/// The read-only `GET /debug/*` introspection endpoints (behind
/// `--debug-endpoints`): recent sampled traces as one Chrome trace file,
/// the request-record ring, the since-last-scrape profile, an
/// allocator-and-RSS snapshot, and the recent structured-log events. All
/// render from the in-process rings — safe to curl on a live server.
fn handle_debug(path: &str, query: Option<&str>, shared: &Arc<Shared>) -> Response {
    use crate::json::JsonValue;
    let Some(telemetry) = &shared.telemetry else {
        return Response::error(404, "debug endpoints are disabled");
    };
    match path {
        "/debug/traces" => {
            let snapshot = telemetry.traces.snapshot();
            let labels: Vec<String> = snapshot
                .iter()
                .map(|(_, (id, _))| format!("trace {id}"))
                .collect();
            let json = mule_obs::chrome_traces_json(
                labels
                    .iter()
                    .map(String::as_str)
                    .zip(snapshot.iter().map(|(_, (_, trace))| trace)),
            );
            Response::json(200, json)
        }
        "/debug/requests" => {
            let limit = match parse_limit(query, 50) {
                Ok(limit) => limit,
                Err(response) => return response,
            };
            let snapshot = telemetry.requests.snapshot();
            let filtered: Vec<&RequestRecord> = match query_param(query, "class") {
                None => snapshot.iter().map(|(_, record)| record).collect(),
                Some("slow") => snapshot
                    .iter()
                    .map(|(_, record)| record)
                    .filter(|record| record.slow)
                    .collect(),
                Some("error") => snapshot
                    .iter()
                    .map(|(_, record)| record)
                    .filter(|record| record.status >= 500)
                    .collect(),
                Some(other) => {
                    return Response::error(
                        400,
                        &format!("unknown request class `{other}` (expected slow or error)"),
                    )
                }
            };
            let skip = filtered.len().saturating_sub(limit);
            let rows: Vec<JsonValue> = filtered[skip..]
                .iter()
                .map(|record| {
                    JsonValue::object(vec![
                        ("trace_id", record.trace_id.as_str().into()),
                        ("method", record.method.as_str().into()),
                        ("path", record.path.as_str().into()),
                        ("status", u64::from(record.status).into()),
                        ("duration_ms", record.duration_ms.into()),
                        (
                            "cache",
                            record.cache.map_or(JsonValue::Null, JsonValue::from),
                        ),
                        ("allocs", record.allocs.into()),
                        ("alloc_bytes", record.alloc_bytes.into()),
                        ("sampled", record.sampled.into()),
                        ("slow", record.slow.into()),
                    ])
                })
                .collect();
            let doc = JsonValue::object(vec![
                ("schema", "debug-requests/v1".into()),
                ("capacity", telemetry.requests.capacity().into()),
                ("recorded", telemetry.requests.pushed().into()),
                ("requests", JsonValue::Array(rows)),
            ]);
            Response::json(200, doc.to_pretty_string())
        }
        "/debug/profile" => {
            // The scrape *takes* the merged profile, so consecutive
            // scrapes report disjoint windows (Prometheus-style deltas).
            let profile = std::mem::take(
                &mut *telemetry
                    .profile
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            let entries: Vec<JsonValue> = profile
                .entries
                .iter()
                .map(|e| {
                    JsonValue::object(vec![
                        ("name", e.name.as_str().into()),
                        ("count", e.count.into()),
                        ("total_ns", e.total_ns.into()),
                        ("self_ns", e.self_ns.into()),
                        ("max_ns", e.max_ns.into()),
                        ("allocs", e.allocs.into()),
                        ("alloc_bytes", e.alloc_bytes.into()),
                        ("peak_live_bytes", e.peak_live.into()),
                    ])
                })
                .collect();
            let doc = JsonValue::object(vec![
                ("schema", "debug-profile/v1".into()),
                ("entries", JsonValue::Array(entries)),
                ("table", profile.to_table().into()),
            ]);
            Response::json(200, doc.to_pretty_string())
        }
        "/debug/alloc" => {
            let stats = mule_obs::alloc::stats();
            let doc = JsonValue::object(vec![
                ("schema", "debug-alloc/v1".into()),
                ("armed", mule_obs::alloc::armed().into()),
                (
                    "alloc",
                    JsonValue::object(vec![
                        ("alloc_count", stats.alloc_count.into()),
                        ("realloc_count", stats.realloc_count.into()),
                        ("dealloc_count", stats.dealloc_count.into()),
                        ("allocated_bytes", stats.allocated_bytes.into()),
                        ("freed_bytes", stats.freed_bytes.into()),
                        ("live_bytes", stats.live_bytes.into()),
                        ("peak_live_bytes", stats.peak_live_bytes.into()),
                    ]),
                ),
                (
                    "rss",
                    JsonValue::object(vec![
                        (
                            "now_kb",
                            mule_obs::alloc::rss_now_kb().map_or(JsonValue::Null, Into::into),
                        ),
                        (
                            "peak_kb",
                            mule_obs::alloc::rss_peak_kb().map_or(JsonValue::Null, Into::into),
                        ),
                    ]),
                ),
            ]);
            Response::json(200, doc.to_pretty_string())
        }
        "/debug/events" => {
            let limit = match parse_limit(query, 100) {
                Ok(limit) => limit,
                Err(response) => return response,
            };
            // The lines are already rendered JSON objects; splice them
            // into an array verbatim instead of re-parsing.
            let lines = mule_obs::log::recent(limit);
            let events = if lines.is_empty() {
                String::new()
            } else {
                format!("\n    {}\n  ", lines.join(",\n    "))
            };
            Response::json(
                200,
                format!("{{\n  \"schema\": \"debug-events/v1\",\n  \"events\": [{events}]\n}}\n"),
            )
        }
        _ => Response::error(404, &format!("no such debug endpoint: {path}")),
    }
}

fn api_error_response(e: &api::ApiError) -> Response {
    match e {
        api::ApiError::BadRequest(msg) => Response::error(400, msg),
        api::ApiError::Plan(plan_err) => Response::error(422, &plan_err.to_string()),
    }
}

/// Why a guarded compute produced no bytes.
enum ComputeFailure {
    /// The request itself is bad (4xx; never trips the breaker).
    Api(api::ApiError),
    /// The compute panicked (caught; 500 or stale).
    Panicked(String),
    /// The compute overran the configured deadline (504 or stale).
    DeadlineExceeded,
}

/// Renders a panic payload for error documents and logs.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs `f` under the optional deadline. With none, `f` runs inline on
/// the connection worker. With one, `f` runs on a helper thread and this
/// call waits at most `deadline`; on overrun the worker walks away with
/// `Err(())` (answering 504) while the helper finishes in the background
/// — its result still lands in the cache for the next request, and any
/// coalesced waiters are still woken.
fn with_deadline<T: Send + 'static>(
    deadline: Option<Duration>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, ()> {
    match deadline {
        None => Ok(f()),
        Some(limit) => {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(f());
            });
            rx.recv_timeout(limit).map_err(|_| ())
        }
    }
}

/// The fail-fast 503 an open breaker answers with.
fn breaker_response() -> Response {
    Response::error(503, "circuit breaker open, retry later")
        .with_header("Retry-After", RETRY_AFTER_S.to_string())
        .with_header("X-Breaker", "open")
}

/// The stale-on-error answer, if degraded mode is on and last-good bytes
/// exist for the fingerprint.
fn stale_response(shared: &Shared, key: u64) -> Option<Response> {
    if !shared.config.degraded {
        return None;
    }
    let bytes = shared.cache.stale_get(key)?;
    shared.metrics.observe_stale_served();
    Some(
        Response::json_shared(200, bytes)
            .with_header("X-Cache", "stale")
            .with_header("Warning", "110 mule-serve \"stale-on-error\"")
            .with_header("X-Fingerprint", format!("{key:016x}")),
    )
}

fn handle_plan(body: &[u8], shared: &Arc<Shared>) -> (Option<CacheOutcome>, Response) {
    let parsed = {
        let _s = mule_obs::span("request.parse");
        api::spec_from_body(body)
    };
    let spec = match parsed {
        Ok(spec) => spec,
        Err(e) => return (None, api_error_response(&e)),
    };
    let key = {
        let _s = mule_obs::span("request.fingerprint");
        spec.fingerprint()
    };
    if !shared.breaker_plan.admit() {
        return (None, breaker_response());
    }
    if mule_fault::point("serve.cache") == Some(mule_fault::Injected::Evict) {
        shared.cache.evict(key);
    }
    let looked_up = {
        let _s = mule_obs::span("request.cache_lookup");
        // The compute is panic-guarded so a planner bug (or injected
        // `serve.plan` panic) surfaces as a typed failure: the cache
        // wakes one coalesced waiter to retry, the breaker counts it,
        // and the client gets a well-formed response. Under a deadline
        // the whole lookup (including any coalesced wait) moves onto a
        // helper thread; the clones exist so that thread owns its data.
        let cache_shared = Arc::clone(shared);
        let compute_spec = spec.clone();
        with_deadline(shared.config.deadline, move || {
            cache_shared.cache.get_or_compute(key, move || {
                catch_unwind(AssertUnwindSafe(|| plan_bytes(&compute_spec)))
                    .map_err(|p| ComputeFailure::Panicked(panic_message(p)))?
                    .map_err(ComputeFailure::Api)
            })
        })
        .unwrap_or(Err(ComputeFailure::DeadlineExceeded))
    };
    match looked_up {
        Ok((bytes, outcome)) => {
            shared.breaker_plan.on_success();
            let response = Response::json_shared(200, bytes)
                .with_header("X-Cache", outcome.label())
                .with_header("X-Fingerprint", format!("{key:016x}"));
            (Some(outcome), response)
        }
        Err(ComputeFailure::Api(e)) => (None, api_error_response(&e)),
        Err(ComputeFailure::Panicked(msg)) => {
            shared.breaker_plan.on_failure();
            let response = stale_response(shared, key)
                .unwrap_or_else(|| Response::error(500, &format!("planner panicked: {msg}")));
            (None, response)
        }
        Err(ComputeFailure::DeadlineExceeded) => {
            shared.breaker_plan.on_failure();
            shared.metrics.observe_deadline_compute();
            let response = stale_response(shared, key)
                .unwrap_or_else(|| Response::error(504, "plan compute deadline exceeded"));
            (None, response)
        }
    }
}

fn plan_bytes(spec: &mule_workload::ScenarioSpec) -> Result<Vec<u8>, api::ApiError> {
    let _s = mule_obs::span("request.plan");
    let _ = mule_fault::point("serve.plan");
    api::plan_response_json(spec).map(String::into_bytes)
}

fn handle_simulate(body: &[u8], shared: &Arc<Shared>) -> Response {
    let parsed = {
        let _s = mule_obs::span("request.parse");
        api::simulate_request_from_body(body)
    };
    let request = match parsed {
        Ok(request) => request,
        Err(e) => return api_error_response(&e),
    };
    if !shared.breaker_simulate.admit() {
        return breaker_response();
    }
    let _s = mule_obs::span("request.simulate");
    let sim_workers = shared.config.sim_workers;
    let computed = with_deadline(shared.config.deadline, move || {
        catch_unwind(AssertUnwindSafe(|| {
            api::simulate_response_json(&request, sim_workers)
        }))
    });
    match computed {
        Ok(Ok(Ok(doc))) => {
            shared.breaker_simulate.on_success();
            Response::json(200, doc)
        }
        Ok(Ok(Err(e))) => api_error_response(&e),
        Ok(Err(panic_payload)) => {
            shared.breaker_simulate.on_failure();
            Response::error(
                500,
                &format!("simulation panicked: {}", panic_message(panic_payload)),
            )
        }
        Err(()) => {
            shared.breaker_simulate.on_failure();
            shared.metrics.observe_deadline_compute();
            Response::error(504, "simulate compute deadline exceeded")
        }
    }
}

//! The traced pass (`--trace 1`), run after the untraced one in the same
//! process. It
//!
//! 1. replays the workload against a fresh daemon with the counting
//!    allocator armed, recording one span per request;
//! 2. probes transport and the plan cache;
//! 3. for a spread of requests, times each layer's public function on
//!    the same input (parse, scenario generation, planning,
//!    serialisation, the simulator, CHB phases, road queries) and records
//!    the results as spans: the request's children are laid end to end
//!    inside it, sub-layer spans (graph, road) stand on their own;
//! 4. times one replication sweep with 1 and with every CPU, unpinned.
//!
//! Spans stay in memory and are written at the end, as a Chrome trace
//! and a self-time table. Spans inside the program are not used.

use crate::drive::{self, Client};
use crate::refkernel::REF_NOMINAL_MS;
use crate::stats::{local_factors, median, percentile, sorted};
use crate::verify::{digest, Seen};
use crate::workloads::{Endpoint, Request, Workload};
use crate::{metric, refkernel, sys, Metric, Phase, TimedRun, SCALE_WINDOW};
use mule_graph::{convex_hull_insertion_incremental, or_opt_candidates, two_opt_candidates};
use mule_graph::{CandidateLists, ChbConfig};
use mule_obs::alloc;
use mule_obs::{FlatProfile, SpanAlloc, SpanRecord, Trace};
use mule_road::{dijkstra_counted, RoadIndex, RoadNetKind};
use mule_serve::api::{build_planner, spec_to_json};
use mule_sim::{run_sweep, Simulation, SimulationConfig};
use mule_workload::{seed_fan, Scenario, ScenarioSpec, SweepSpec};
use patrol_core::PatrolPlan;
use std::hint::black_box;
use std::time::Instant;

/// Requests decomposed layer by layer per run.
const DECOMPOSED: usize = 24;
/// Timed specs planned twice at the end to time plan-cache hits.
const CACHE_PROBES: usize = 8;
/// Seeded shortest-path queries per decomposed request.
const ROAD_QUERIES: usize = 8;
/// Candidate-list size: `mule_graph`'s default k.
const CANDIDATES_K: usize = 10;

pub struct Layers {
    pub phase: Phase,
    pub metrics: Vec<Metric>,
}

/// Spans in memory, relative to one epoch.
struct Recorder {
    epoch: Instant,
    trace: Trace,
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn span(
        &mut self,
        name: &str,
        parent: Option<u32>,
        start_ns: u64,
        m: &Measured,
        req: usize,
    ) -> u32 {
        let id = self.trace.spans.len() as u32;
        self.trace.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            dur_ns: m.ns,
            counters: vec![("req".to_string(), req as u64)],
            alloc: m.allocs.map(|(allocs, bytes)| SpanAlloc {
                allocs,
                bytes,
                peak_live: 0,
            }),
        });
        id
    }

    /// Records `children` back to back from `start_ns` under `parent`.
    fn lay_out(&mut self, parent: u32, start_ns: u64, children: &[(&str, Measured)], req: usize) {
        let mut at = start_ns;
        for (name, m) in children {
            self.span(name, Some(parent), at, m, req);
            at += m.ns;
        }
    }
}

/// Wall time and, where counted, this thread's allocations (events,
/// bytes) of one timed call.
#[derive(Debug, Clone, Copy, Default)]
struct Measured {
    start: Option<Instant>,
    ns: u64,
    allocs: Option<(u64, u64)>,
}

impl Measured {
    fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }

    fn of_ns(ns: u64) -> Self {
        Measured {
            ns,
            ..Measured::default()
        }
    }
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Measured) {
    let a0 = alloc::thread_stats();
    let start = Instant::now();
    let out = black_box(f());
    let ns = start.elapsed().as_nanos() as u64;
    let a1 = alloc::thread_stats();
    let m = Measured {
        start: Some(start),
        ns,
        allocs: Some((
            a1.events() - a0.events(),
            a1.allocated_bytes - a0.allocated_bytes,
        )),
    };
    (out, m)
}

/// One replayed request.
struct Replayed {
    start_ns: u64,
    latency_ns: u64,
    allocs: u64,
    bytes: u64,
    cache: Option<String>,
    body_len: usize,
    /// A same-sized round trip without compute, ns: the same plan again
    /// (a cache hit), or `/healthz` after a simulation.
    transport_ns: Option<u64>,
}

/// Per-layer samples gathered over the decomposed requests.
#[derive(Default)]
struct Samples {
    parse: Vec<f64>,
    generate: Vec<f64>,
    generate_allocs: Vec<f64>,
    plan: Vec<f64>,
    plan_allocs: Vec<f64>,
    serialize: Vec<f64>,
    overhead: Vec<f64>,
    response_kb: Vec<f64>,
    coverage: Vec<f64>,
    hull: Vec<f64>,
    candidates: Vec<f64>,
    two_opt: Vec<f64>,
    or_opt: Vec<f64>,
    construct_allocs: Vec<f64>,
    pairwise: Vec<f64>,
    leg_path: Vec<f64>,
    settled: Vec<f64>,
    sim: Vec<f64>,
    visits: Vec<f64>,
    sim_allocs: Vec<f64>,
    aggregate: Vec<f64>,
}

fn allocs(m: &Measured) -> f64 {
    m.allocs.map_or(0.0, |(a, _)| a as f64)
}

pub fn run(
    w: &Workload,
    seed: u64,
    requests: &[Request],
    untraced: &TimedRun,
    cpus: &[usize],
    pinned_cpu: usize,
) -> Result<Layers, String> {
    alloc::arm();
    let result = traced(w, seed, requests, untraced, cpus, pinned_cpu);
    alloc::disarm();
    result
}

fn traced(
    w: &Workload,
    seed: u64,
    requests: &[Request],
    untraced: &TimedRun,
    cpus: &[usize],
    pinned_cpu: usize,
) -> Result<Layers, String> {
    let mut rec = Recorder {
        epoch: Instant::now(),
        trace: Trace::default(),
    };
    let mut replay_ref_ms = Vec::with_capacity(requests.len());
    let mut phase = Phase::default();
    let timed = w.warmup..requests.len();

    // 1–2. Replay, transport probes, cache probes.
    let (server, _) = drive::boot().map_err(|e| format!("starting the daemon: {e}"))?;
    let mut client = Client::new(server.addr());
    let step = (timed.len() / DECOMPOSED).max(1);
    let mut replayed = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        replay_ref_ms.push(refkernel::time_once());
        let g0 = alloc::stats();
        let t = Instant::now();
        let response = client.send("POST", r.endpoint.path(), &r.body);
        let latency_ns = t.elapsed().as_nanos() as u64;
        let g1 = alloc::stats();
        let seen: Seen = response
            .as_ref()
            .ok()
            .map(|resp| (resp.status, digest(&resp.body)));
        phase.sent += 1;
        if seen != untraced.seen[i] {
            phase.failed += 1;
        }
        let cache = response
            .as_ref()
            .ok()
            .and_then(|resp| resp.header("x-cache").map(str::to_string));
        let mut entry = Replayed {
            start_ns: rec.ns(t),
            latency_ns,
            allocs: g1.events() - g0.events(),
            bytes: g1.allocated_bytes - g0.allocated_bytes,
            cache,
            body_len: response.as_ref().map_or(0, |resp| resp.body.len()),
            transport_ns: None,
        };
        if i >= w.warmup
            && (i - w.warmup).is_multiple_of(step)
            && entry.cache.as_deref() != Some("hit")
        {
            let (method, path, body) = match r.endpoint {
                Endpoint::Plan => ("POST", "/v1/plan", r.body.as_slice()),
                Endpoint::Simulate => ("GET", "/healthz", &b""[..]),
            };
            let t = Instant::now();
            let probe = client.send(method, path, body);
            entry.transport_ns = Some(t.elapsed().as_nanos() as u64);
            phase.sent += 1;
            let ok = match (&probe, r.endpoint) {
                (Ok(p), Endpoint::Plan) => {
                    p.header("x-cache") == Some("hit") && Some((p.status, digest(&p.body))) == seen
                }
                (Ok(p), Endpoint::Simulate) => p.status == 200,
                (Err(_), _) => false,
            };
            if !ok {
                phase.failed += 1;
            }
        }
        replayed.push(entry);
    }
    let evictions =
        cache_misses(&mut client)?.saturating_sub(drive::server_config().cache_capacity as u64);
    // Replay timings in the reference machine's time.
    let replay_scale = local_factors(&replay_ref_ms, REF_NOMINAL_MS, SCALE_WINDOW);
    let scaled = |i: usize, ns: u64| ns as f64 / 1e6 * replay_scale[i];
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    for i in timed.clone() {
        match replayed[i].cache.as_deref() {
            Some("hit") => hit_ms.push(scaled(i, replayed[i].latency_ns)),
            Some("miss") => miss_ms.push(scaled(i, replayed[i].latency_ns)),
            _ => {}
        }
    }
    let replay_hits = hit_ms.len();
    let replay_misses = miss_ms.len();
    let probe_scale = replay_scale[replay_scale.len() - 1];
    for r in requests[timed.clone()].iter().rev().take(CACHE_PROBES) {
        let body = spec_to_json(&r.spec).to_json_string();
        let mut first: Seen = None;
        for attempt in 0..2 {
            let t = Instant::now();
            let response = client.send("POST", "/v1/plan", body.as_bytes());
            let ms = t.elapsed().as_secs_f64() * 1e3 * probe_scale;
            phase.sent += 1;
            let Ok(response) = response else {
                phase.failed += 1;
                continue;
            };
            let seen = Some((response.status, digest(&response.body)));
            match response.header("x-cache") {
                Some("miss") if attempt == 0 => miss_ms.push(ms),
                Some("hit") => hit_ms.push(ms),
                _ => phase.failed += 1,
            }
            if response.status != 200 || (attempt == 1 && seen != first) {
                phase.failed += 1;
            }
            first = seen;
        }
    }
    drop(client);
    server.shutdown();

    // 3. Layer by layer. The re-runs happen later than the request, at
    // another machine speed: each is scaled by the reference kernel timed
    // before it and the two re-runs before that (after other work, as in
    // the replay: back-to-back kernel runs find warm caches and run fast),
    // and rescaled to the request's speed to lay it out inside the
    // request span.
    let mut s = Samples::default();
    let mut first_spec = None;
    let mut decomposed_ref_ms = Vec::new();
    let mut f = 1.0;
    for (i, r) in requests.iter().enumerate().skip(w.warmup) {
        let Some(transport_ns) = replayed[i].transport_ns else {
            continue;
        };
        first_spec.get_or_insert_with(|| r.clone());
        let rep = &replayed[i];
        let root = rec.span(
            "request",
            None,
            rep.start_ns,
            &Measured::of_ns(rep.latency_ns),
            i,
        );
        decomposed_ref_ms.push(refkernel::time_once());
        f = REF_NOMINAL_MS
            / median(&decomposed_ref_ms[decomposed_ref_ms.len().saturating_sub(3)..]);
        let (parse_ns, direct_ns, mut children) = match r.endpoint {
            Endpoint::Plan => decompose_plan(r, f, &mut s, &mut rec, i)?,
            Endpoint::Simulate => decompose_simulate(r, f, &mut s, &mut rec, i)?,
        };
        let to_request_time = f / replay_scale[i];
        for (_, m) in children.iter_mut() {
            m.ns = (m.ns as f64 * to_request_time) as u64;
        }
        let parse_ns = (parse_ns as f64 * to_request_time) as u64;
        children.push((
            "transport",
            Measured::of_ns(transport_ns.saturating_sub(parse_ns)),
        ));
        let covered: u64 = children.iter().map(|(_, m)| m.ns).sum();
        s.coverage.push(covered as f64 / rep.latency_ns as f64);
        // Signed: below the noise of the compute it can come out negative.
        s.overhead
            .push(scaled(i, rep.latency_ns) - direct_ns as f64 / 1e6 * f);
        s.response_kb.push(rep.body_len as f64 / 1024.0);
        rec.lay_out(root, rep.start_ns, &children, i);
    }
    let first_spec = first_spec.ok_or("no request was decomposed")?;

    // 4. Parallel sweep, unpinned.
    let (speedup, busy, aggregate_ms) = parallel_probe(&first_spec, cpus, pinned_cpu)?;
    if s.aggregate.is_empty() {
        s.aggregate.push(aggregate_ms * f);
    }

    let traced_lat: Vec<f64> = timed
        .clone()
        .map(|i| scaled(i, replayed[i].latency_ns))
        .collect();
    let trace_overhead = median(&traced_lat) / median(&untraced.scaled_latency_ms());
    let replay_allocs: Vec<f64> = replayed[timed.clone()]
        .iter()
        .map(|r| r.allocs as f64)
        .collect();
    let replay_kb: Vec<f64> = replayed[timed.clone()]
        .iter()
        .map(|r| r.bytes as f64 / 1024.0)
        .collect();
    let raw = sorted(&untraced.latency_ms);
    let hit_ratio = if replay_hits + replay_misses == 0 {
        0.0
    } else {
        replay_hits as f64 / (replay_hits + replay_misses) as f64
    };
    let metrics = vec![
        metric("serve.parse_ms", median(&s.parse), "ms"),
        metric("serve.serialize_ms", median(&s.serialize), "ms"),
        metric("serve.response_kb", median(&s.response_kb), "KiB"),
        metric("serve.overhead_ms", median(&s.overhead), "ms"),
        metric("serve.hit_ms", median(&hit_ms), "ms"),
        metric("serve.miss_ms", median(&miss_ms), "ms"),
        metric("serve.cache_hit_ratio", hit_ratio, "ratio"),
        metric("serve.cache_evictions", evictions as f64, "count"),
        metric("workload.generate_ms", median(&s.generate), "ms"),
        metric(
            "workload.generate_allocs",
            median(&s.generate_allocs),
            "count",
        ),
        metric("core.plan_ms", median(&s.plan), "ms"),
        metric("core.plan_allocs", median(&s.plan_allocs), "count"),
        metric("graph.candidate_lists_ms", median(&s.candidates), "ms"),
        metric("graph.hull_insertion_ms", median(&s.hull), "ms"),
        metric("graph.two_opt_ms", median(&s.two_opt), "ms"),
        metric("graph.or_opt_ms", median(&s.or_opt), "ms"),
        metric(
            "graph.construct_allocs",
            median(&s.construct_allocs),
            "count",
        ),
        metric("road.pairwise_ms", median(&s.pairwise), "ms"),
        metric("road.leg_path_ms", median(&s.leg_path), "ms"),
        metric("road.settled_per_query", median(&s.settled), "count"),
        metric("sim.run_ms", median(&s.sim), "ms"),
        metric("sim.visits", median(&s.visits), "count"),
        metric("sim.run_allocs", median(&s.sim_allocs), "count"),
        metric("par.speedup", speedup, "ratio"),
        metric("par.busy_ratio", busy, "ratio"),
        metric("metrics.aggregate_ms", median(&s.aggregate), "ms"),
        metric("obs.trace_overhead", trace_overhead, "ratio"),
        metric("obs.span_coverage", median(&s.coverage), "ratio"),
        metric("alloc.per_req", median(&replay_allocs), "count"),
        metric("alloc.kb_per_req", median(&replay_kb), "KiB"),
        metric("alloc.faults_per_req", untraced.faults_per_req, "count"),
        metric("bench.ref_kernel_ms", untraced.ref_median_ms, "ms"),
        metric("bench.raw_latency_p50_ms", percentile(&raw, 0.5), "ms"),
        metric("bench.raw_latency_p90_ms", percentile(&raw, 0.9), "ms"),
    ];

    let profile = FlatProfile::of(&rec.trace);
    let table = profile.to_table();
    let coverage = sorted(&s.coverage);
    println!(
        "traced pass: {} requests decomposed; children over request span: min {:.3} median {:.3} max {:.3}, {} of {} at 0.9 or more; reference kernel median {:.4} ms",
        coverage.len(),
        coverage[0],
        median(&coverage),
        coverage[coverage.len() - 1],
        coverage.iter().filter(|&&c| c >= 0.9).count(),
        coverage.len(),
        median(&replay_ref_ms)
    );
    print!("{table}");
    for m in &metrics {
        println!("{:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = dir.join(format!("{}-seed{seed}", w.name));
    let trace_path = stem.with_extension("trace.json");
    let table_path = stem.with_extension("layers.txt");
    std::fs::write(&trace_path, mule_obs::chrome_trace_json(&rec.trace))
        .and_then(|()| std::fs::write(&table_path, &table))
        .map_err(|e| format!("writing the trace: {e}"))?;
    println!(
        "wrote {} and {}",
        trace_path.display(),
        table_path.display()
    );
    Ok(Layers { phase, metrics })
}

/// The daemon's plan-cache miss count from `/metrics.json`. Every miss
/// inserts one entry, so misses beyond the capacity are evictions.
fn cache_misses(client: &mut Client) -> Result<u64, String> {
    let response = client
        .send("GET", "/metrics.json", b"")
        .map_err(|e| format!("reading /metrics.json: {e}"))?;
    let doc = mule_serve::json::parse(&String::from_utf8_lossy(&response.body))
        .map_err(|e| format!("parsing /metrics.json: {e}"))?;
    doc.get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(|m| m.as_u64())
        .ok_or_else(|| "/metrics.json has no cache.misses".to_string())
}

type Decomposed = (u64, u64, Vec<(&'static str, Measured)>);

/// Times a plan request's layers. Returns the parse time, the direct
/// `plan_response_json` time, and the request's child spans.
fn decompose_plan(
    r: &Request,
    f: f64,
    s: &mut Samples,
    rec: &mut Recorder,
    req: usize,
) -> Result<Decomposed, String> {
    let (spec, parse) = measure(|| mule_serve::api::spec_from_body(&r.body));
    if spec.as_ref() != Ok(&r.spec) {
        return Err("the body does not parse back to its spec".to_string());
    }
    let (scenario, generate) = measure(|| r.spec.scenario_config().generate());
    let planner = build_planner(&r.spec.planner).ok_or("unknown planner")?;
    let (plan, planned) = measure(|| planner.plan(&scenario));
    let plan = plan.map_err(|e| format!("planning: {e}"))?;
    let (body, direct) = measure(|| mule_serve::api::plan_response_json(&r.spec));
    body.map_err(|e| format!("direct call: {e}"))?;
    let serialize = Measured::of_ns(direct.ns.saturating_sub(generate.ns + planned.ns));

    s.parse.push(parse.ms() * f);
    s.generate.push(generate.ms() * f);
    s.generate_allocs.push(allocs(&generate));
    s.plan.push(planned.ms() * f);
    s.plan_allocs.push(allocs(&planned));
    s.serialize.push(serialize.ms() * f);
    layer_probes(&r.spec, &scenario, &plan, f, s, rec, req);

    let (outcome, sim) = measure(|| {
        let config = SimulationConfig::timing_only().with_horizon(r.spec.horizon_s);
        Simulation::with_config(&scenario, &plan, config).run_for(r.spec.horizon_s)
    });
    s.sim.push(sim.ms() * f);
    s.visits.push(outcome.total_visits() as f64);
    s.sim_allocs.push(allocs(&sim));
    Ok((
        parse.ns,
        direct.ns,
        vec![
            ("serve.parse", parse),
            ("workload.generate", generate),
            ("core.plan", planned),
            ("serve.serialize", serialize),
        ],
    ))
}

/// Times a simulate request's layers, replica by replica, exactly as
/// `mule_sim::run_sweep` runs them (checked against its outcomes).
fn decompose_simulate(
    r: &Request,
    f: f64,
    s: &mut Samples,
    rec: &mut Recorder,
    req: usize,
) -> Result<Decomposed, String> {
    let (parsed, parse) = measure(|| mule_serve::api::simulate_request_from_body(&r.body));
    let parsed = parsed.map_err(|e| format!("parsing: {e}"))?;
    let spec = &parsed.spec;
    let sweep = SweepSpec::new(spec.scenario_config())
        .with_replicas(parsed.replicas)
        .with_horizon(spec.horizon_s);
    let cell = sweep.cells().into_iter().next().ok_or("empty sweep")?;
    let planner = build_planner(&spec.planner).ok_or("unknown planner")?;
    let mut children = vec![("serve.parse", parse)];
    let mut outcomes = Vec::new();
    let mut replica_ns = 0;
    for (k, replica_seed) in seed_fan(cell.seed, parsed.replicas).into_iter().enumerate() {
        let (scenario, generate) = measure(|| {
            sweep
                .scenario_config(&cell)
                .with_seed(replica_seed)
                .generate()
        });
        let (plan, planned) = measure(|| planner.plan(&scenario));
        let plan = plan.map_err(|e| format!("planning: {e}"))?;
        let mut config = SimulationConfig::timing_only().with_horizon(spec.horizon_s);
        config.energy.speed_m_per_s = cell.speed_m_per_s;
        let (outcome, sim) =
            measure(|| Simulation::with_config(&scenario, &plan, config).run_for(spec.horizon_s));
        s.generate.push(generate.ms() * f);
        s.generate_allocs.push(allocs(&generate));
        s.plan.push(planned.ms() * f);
        s.plan_allocs.push(allocs(&planned));
        s.sim.push(sim.ms() * f);
        s.sim_allocs.push(allocs(&sim));
        s.visits.push(outcome.total_visits() as f64);
        if k == 0 {
            layer_probes(spec, &scenario, &plan, f, s, rec, req);
        }
        replica_ns += generate.ns + planned.ns + sim.ns;
        children.extend([
            ("workload.generate", generate),
            ("core.plan", planned),
            ("sim.run", sim),
        ]);
        outcomes.push(outcome);
    }
    let factory = || build_planner(&spec.planner).expect("planner validated above");
    let cells = run_sweep(&factory, &sweep, &SimulationConfig::timing_only(), Some(1));
    if cells.first().map(|c| &c.outcomes) != Some(&outcomes) {
        return Err("replica replay differs from run_sweep".to_string());
    }
    let (_, aggregate) = measure(|| mule_metrics::SweepReport::from_cells(&cells));
    let (body, direct) = measure(|| mule_serve::api::simulate_response_json(&parsed, None));
    body.map_err(|e| format!("direct call: {e}"))?;
    let serialize = Measured::of_ns(direct.ns.saturating_sub(replica_ns + aggregate.ns));
    s.parse.push(parse.ms() * f);
    s.aggregate.push(aggregate.ms() * f);
    s.serialize.push(serialize.ms() * f);
    children.extend([
        ("metrics.aggregate", aggregate),
        ("serve.serialize", serialize),
    ]);
    Ok((parse.ns, direct.ns, children))
}

/// Times the CHB phases and road queries on a request's scenario, each
/// recorded as its own root span.
fn layer_probes(
    spec: &ScenarioSpec,
    scenario: &Scenario,
    plan: &PatrolPlan,
    f: f64,
    s: &mut Samples,
    rec: &mut Recorder,
    req: usize,
) {
    let points = scenario.patrolled_positions();
    let config = ChbConfig::default();
    let (mut tour, hull) = measure(|| convex_hull_insertion_incremental(&points));
    let (lists, candidates) = measure(|| CandidateLists::build(&points, CANDIDATES_K));
    let (_, two_opt) =
        measure(|| two_opt_candidates(&mut tour, &points, &lists, config.two_opt_passes));
    let (_, or_opt) =
        measure(|| or_opt_candidates(&mut tour, &points, &lists, config.or_opt_passes));
    s.hull.push(hull.ms() * f);
    s.candidates.push(candidates.ms() * f);
    s.two_opt.push(two_opt.ms() * f);
    s.or_opt.push(or_opt.ms() * f);
    s.construct_allocs
        .push(allocs(&hull) + allocs(&candidates) + allocs(&two_opt) + allocs(&or_opt));

    let metric = scenario.metric();
    let (_, pairwise) = measure(|| metric.pairwise(&points));
    let (_, legs) = measure(|| {
        for it in &plan.itineraries {
            let n = it.cycle.len();
            for k in 0..n {
                let (a, b) = (&it.cycle[k].position, &it.cycle[(k + 1) % n].position);
                black_box(metric.leg_path(a, b));
            }
        }
    });
    s.pairwise.push(pairwise.ms() * f);
    s.leg_path.push(legs.ms() * f);
    // Euclidean scenarios have no road network; query the one the same
    // spec would get under `road-grid`.
    let built;
    let index = match metric.road_index() {
        Some(index) => index,
        None => {
            built = RoadIndex::for_field(RoadNetKind::Grid, &scenario.field().bounds(), spec.seed);
            &built
        }
    };
    let mut state = spec.seed;
    let (settled, dijkstra) = measure(|| {
        (0..ROAD_QUERIES)
            .map(|_| {
                let p =
                    points[(crate::workloads::splitmix(&mut state) % points.len() as u64) as usize];
                dijkstra_counted(index.graph(), index.snap(&p)).1
            })
            .sum::<usize>()
    });
    s.settled.push(settled as f64 / ROAD_QUERIES as f64);

    for (name, m) in [
        ("graph.hull_insertion", hull),
        ("graph.candidate_lists", candidates),
        ("graph.two_opt", two_opt),
        ("graph.or_opt", or_opt),
        ("road.pairwise", pairwise),
        ("road.leg_path", legs),
        ("road.dijkstra", dijkstra),
    ] {
        let start = m.start.map_or(0, |t| rec.ns(t));
        rec.span(name, None, start, &m, req);
    }
}

/// Times one replication sweep of `request`'s spec with one worker and
/// with every allowed CPU, the calling thread unpinned for the duration.
/// Returns (speed-up, busy ratio of the parallel run, raw aggregation ms).
fn parallel_probe(
    request: &Request,
    cpus: &[usize],
    pinned: usize,
) -> Result<(f64, f64, f64), String> {
    let spec = &request.spec;
    let replicas = request.replicas.max(2 * cpus.len());
    let sweep = SweepSpec::new(spec.scenario_config())
        .with_replicas(replicas)
        .with_horizon(spec.horizon_s);
    let factory = || build_planner(&spec.planner).expect("workload planners exist");
    let config = SimulationConfig::timing_only();
    sys::pin_to(cpus).map_err(|e| format!("unpinning: {e}"))?;
    let t = Instant::now();
    let sequential = run_sweep(&factory, &sweep, &config, Some(1));
    let one = t.elapsed().as_secs_f64();
    let cpu0 = sys::process_cpu_ns();
    let t = Instant::now();
    let parallel = run_sweep(&factory, &sweep, &config, Some(cpus.len()));
    let all = t.elapsed().as_secs_f64();
    let busy = (sys::process_cpu_ns() - cpu0) as f64 / 1e9 / (all * cpus.len() as f64);
    sys::pin_to(&[pinned]).map_err(|e| format!("re-pinning: {e}"))?;
    if sequential != parallel {
        return Err("the parallel sweep differs from the sequential one".to_string());
    }
    let (_, aggregate) = measure(|| mule_metrics::SweepReport::from_cells(&parallel));
    Ok((one / all, busy, aggregate.ms()))
}

//! End-to-end tests of the daemon over real TCP sockets: routing, the
//! byte-identity contract between cold / cached / offline plans, error
//! mapping, metrics and backpressure.

use mule_serve::http::{read_response, write_request, ClientResponse};
use mule_serve::json::{parse, JsonValue};
use mule_serve::{plan_response_json, ServerConfig, ServerHandle};
use mule_workload::ScenarioSpec;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

/// A keep-alive client connection to the test server.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &ServerHandle) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> ClientResponse {
        write_request(&mut self.writer, method, path, body).expect("write request");
        read_response(&mut self.reader).expect("read response")
    }
}

fn test_server(config: ServerConfig) -> ServerHandle {
    mule_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // Tests shut servers down while keep-alive clients are still
        // connected; a short idle timeout keeps the join fast.
        idle_timeout: Duration::from_millis(300),
        ..config
    })
    .expect("server start")
}

fn small_spec_body() -> Vec<u8> {
    br#"{"targets": 8, "mules": 3, "seed": 4}"#.to_vec()
}

#[test]
fn healthz_answers_ok() {
    let server = test_server(ServerConfig::default());
    let mut client = Client::connect(&server);
    let response = client.request("GET", "/healthz", b"");
    assert_eq!(response.status, 200);
    let doc = parse(&response.body_text()).unwrap();
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));
    server.shutdown();
}

#[test]
fn cached_plan_is_byte_identical_to_cold_plan_and_to_offline_plan() {
    let server = test_server(ServerConfig::default());
    let mut client = Client::connect(&server);

    let cold = client.request("POST", "/v1/plan", &small_spec_body());
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));

    let cached = client.request("POST", "/v1/plan", &small_spec_body());
    assert_eq!(cached.status, 200);
    assert_eq!(cached.header("x-cache"), Some("hit"));

    // The pinned contract: cache hit bytes == cold compute bytes.
    assert_eq!(
        cold.body, cached.body,
        "cached response must be byte-identical"
    );

    // And both equal the offline computation for the same spec (what
    // `patrolctl plan` prints).
    let spec = ScenarioSpec {
        targets: 8,
        mules: 3,
        seed: 4,
        ..ScenarioSpec::default()
    };
    let offline = plan_response_json(&spec).unwrap();
    assert_eq!(cold.body, offline.as_bytes(), "served == offline");

    // Field order in the request body must not change the cache key:
    // a reordered but equal spec is a hit.
    let reordered = client.request(
        "POST",
        "/v1/plan",
        br#"{"seed": 4, "mules": 3, "targets": 8}"#,
    );
    assert_eq!(reordered.header("x-cache"), Some("hit"));
    assert_eq!(reordered.body, cold.body);
    server.shutdown();
}

#[test]
fn plan_responses_carry_the_fingerprint_header() {
    let server = test_server(ServerConfig::default());
    let mut client = Client::connect(&server);
    let response = client.request("POST", "/v1/plan", &small_spec_body());
    let spec = ScenarioSpec {
        targets: 8,
        mules: 3,
        seed: 4,
        ..ScenarioSpec::default()
    };
    assert_eq!(
        response.header("x-fingerprint"),
        Some(format!("{:016x}", spec.fingerprint()).as_str())
    );
    server.shutdown();
}

#[test]
fn error_paths_map_to_the_right_status_codes() {
    let server = test_server(ServerConfig::default());
    let mut client = Client::connect(&server);

    let not_found = client.request("GET", "/nope", b"");
    assert_eq!(not_found.status, 404);

    let wrong_method = client.request("GET", "/v1/plan", b"");
    assert_eq!(wrong_method.status, 405);

    let bad_json = client.request("POST", "/v1/plan", b"{{{");
    assert_eq!(bad_json.status, 400);
    assert!(bad_json.body_text().contains("invalid JSON"));

    let bad_type = client.request("POST", "/v1/plan", br#"{"targets": "many"}"#);
    assert_eq!(bad_type.status, 400);

    let unknown_planner = client.request("POST", "/v1/plan", br#"{"planner": "dijkstra"}"#);
    assert_eq!(unknown_planner.status, 400);
    assert!(unknown_planner.body_text().contains("unknown planner"));

    // A tiny body naming a huge scenario must be rejected before any
    // generation or planning work starts.
    let oversized = client.request("POST", "/v1/plan", br#"{"targets": 4000000000}"#);
    assert_eq!(oversized.status, 400);
    assert!(oversized.body_text().contains("service limit"));

    let unplannable = client.request("POST", "/v1/plan", br#"{"mules": 0}"#);
    assert_eq!(unplannable.status, 422);
    assert!(unplannable.body_text().contains("no data mules"));

    // Errors are not cached: the same bad request recomputes (and the
    // connection stays usable throughout).
    let again = client.request("POST", "/v1/plan", br#"{"mules": 0}"#);
    assert_eq!(again.status, 422);
    let fine = client.request("POST", "/v1/plan", &small_spec_body());
    assert_eq!(fine.status, 200);
    server.shutdown();
}

#[test]
fn simulate_runs_replicas_and_reports_statistics() {
    let server = test_server(ServerConfig {
        sim_workers: Some(1),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);
    let body = br#"{"spec": {"targets": 6, "horizon_s": 5000.0}, "replicas": 3}"#;
    let response = client.request("POST", "/v1/simulate", body);
    assert_eq!(response.status, 200);
    let doc = parse(&response.body_text()).unwrap();
    assert_eq!(doc.get("replicas").and_then(JsonValue::as_usize), Some(3));
    let max_interval = doc.get("max_interval_s").unwrap();
    assert!(
        max_interval
            .get("mean")
            .and_then(JsonValue::as_f64)
            .unwrap()
            > 0.0
    );

    let bad = client.request("POST", "/v1/simulate", br#"{"replicas": 0, "spec": {}}"#);
    assert_eq!(bad.status, 400);
    server.shutdown();
}

#[test]
fn backpressure_rejects_connections_beyond_queue_depth_with_retry_after() {
    let server = test_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });

    // First connection occupies the single admission slot (proved by a
    // completed round trip; it stays open via keep-alive).
    let mut first = Client::connect(&server);
    let ok = first.request("GET", "/healthz", b"");
    assert_eq!(ok.status, 200);

    // The second connection must be rejected at accept time.
    let mut second = Client::connect(&server);
    let rejected = second.request("GET", "/healthz", b"");
    assert_eq!(rejected.status, 503);
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert!(rejected.body_text().contains("capacity"));

    // Once the first connection closes, its slot frees up.
    drop(first);
    let mut third = loop {
        let mut candidate = Client::connect(&server);
        let response = candidate.request("GET", "/healthz", b"");
        if response.status == 200 {
            break candidate;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let response = third.request("POST", "/v1/plan", &small_spec_body());
    assert_eq!(response.status, 200);

    // The rejection shows up in /metrics.json.
    let metrics = third.request("GET", "/metrics.json", b"");
    let doc = parse(&metrics.body_text()).unwrap();
    let rejected_count = doc
        .get("responses")
        .and_then(|r| r.get("rejected_503"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert!(rejected_count >= 1, "rejections counted: {rejected_count}");
    server.shutdown();
}

#[test]
fn metrics_reflect_requests_latency_and_cache_state() {
    let server = test_server(ServerConfig::default());
    let mut client = Client::connect(&server);
    client.request("GET", "/healthz", b"");
    client.request("POST", "/v1/plan", &small_spec_body()); // miss
    client.request("POST", "/v1/plan", &small_spec_body()); // hit
    client.request("POST", "/v1/plan", br#"{"targets": 9}"#); // miss
    let metrics = client.request("GET", "/metrics.json", b"");
    assert_eq!(metrics.status, 200);
    let doc = parse(&metrics.body_text()).unwrap();

    let requests = doc.get("requests").unwrap();
    assert_eq!(requests.get("healthz").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(requests.get("plan").and_then(JsonValue::as_u64), Some(3));

    let cache = doc.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(JsonValue::as_u64), Some(2));
    let hit_rate = cache.get("hit_rate").and_then(JsonValue::as_f64).unwrap();
    assert!((hit_rate - 1.0 / 3.0).abs() < 1e-9, "hit rate {hit_rate}");

    let latency = doc.get("latency_ms").unwrap();
    assert_eq!(latency.get("count").and_then(JsonValue::as_u64), Some(4));
    assert!(latency.get("p99").and_then(JsonValue::as_f64).unwrap() >= 0.0);
    server.shutdown();
}

/// Pulls the integer value of a Prometheus sample line (exact match on
/// `name{labels}` including braces) out of an exposition document.
fn prom_value(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(series))
        .and_then(|rest| rest.trim().parse().ok())
}

#[test]
fn metrics_is_prometheus_text_and_span_counters_match_requests() {
    let server = test_server(ServerConfig::default());
    let mut client = Client::connect(&server);
    client.request("GET", "/healthz", b"");
    client.request("POST", "/v1/plan", &small_spec_body()); // miss
    client.request("POST", "/v1/plan", &small_spec_body()); // hit
    let metrics = client.request("GET", "/metrics", b"");
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    let text = metrics.body_text();

    assert!(text.contains("# TYPE mule_requests_total counter"));
    assert_eq!(
        prom_value(&text, "mule_requests_total{route=\"healthz\"}"),
        Some(1)
    );
    assert_eq!(
        prom_value(&text, "mule_requests_total{route=\"plan\"}"),
        Some(2)
    );
    assert_eq!(
        prom_value(&text, "mule_cache_events_total{event=\"hit\"}"),
        Some(1)
    );
    assert_eq!(
        prom_value(&text, "mule_cache_events_total{event=\"miss\"}"),
        Some(1)
    );

    // Histogram: +Inf bucket and _count agree, and 3 requests were timed
    // before this scrape.
    assert!(text.contains("# TYPE mule_request_duration_seconds histogram"));
    let inf = prom_value(&text, "mule_request_duration_seconds_bucket{le=\"+Inf\"}").unwrap();
    let count = prom_value(&text, "mule_request_duration_seconds_count").unwrap();
    assert_eq!(inf, count);
    assert_eq!(count, 3);

    // The invariant the CI smoke test scrapes for: exactly one `request`
    // span per handled request (the scrape itself is not yet counted).
    let spans = prom_value(&text, "mule_span_total{span=\"request\"}").unwrap();
    assert_eq!(spans, 3);
    // Plan handling produced child spans, including the planner work on
    // the cache miss.
    assert_eq!(
        prom_value(&text, "mule_span_total{span=\"request.parse\"}"),
        Some(2)
    );
    assert_eq!(
        prom_value(&text, "mule_span_total{span=\"request.plan\"}"),
        Some(1)
    );
    server.shutdown();
}

#[test]
fn every_response_carries_a_distinct_trace_id() {
    let server = test_server(ServerConfig::default());
    let mut client = Client::connect(&server);
    let a = client.request("GET", "/healthz", b"");
    let b = client.request("GET", "/healthz", b"");
    let id_a = a
        .header("x-trace-id")
        .expect("trace id on response")
        .to_string();
    let id_b = b
        .header("x-trace-id")
        .expect("trace id on response")
        .to_string();
    assert_eq!(id_a.len(), 16);
    assert!(id_a.chars().all(|c| c.is_ascii_hexdigit()));
    assert_ne!(id_a, id_b, "trace ids must be per-request");
    server.shutdown();
}

#[test]
fn connection_close_requests_are_honoured() {
    let server = test_server(ServerConfig::default());
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    use std::io::Write;
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    writer.flush().unwrap();
    let response = read_response(&mut reader).unwrap();
    assert_eq!(response.status, 200);
    // The server must close: the next read hits EOF.
    use std::io::Read;
    let mut buf = [0u8; 1];
    assert_eq!(
        reader.read(&mut buf).unwrap(),
        0,
        "server closed the stream"
    );
    server.shutdown();
}

#[test]
fn shutdown_joins_cleanly_with_open_connections() {
    let server = test_server(ServerConfig::default());
    let mut client = Client::connect(&server);
    let response = client.request("GET", "/healthz", b"");
    assert_eq!(response.status, 200);
    // Shut down while the keep-alive connection is still open; the idle
    // timeout bounds the join.
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must not hang on idle connections"
    );
}

#[test]
fn loadgen_reads_a_plan_larger_than_the_request_body_cap() {
    // A 2000-target, 8-mule plan is ≈ 1.75 MB: well past the 1 MiB cap on
    // request bodies, which must not bound what the client reads back.
    let base = ScenarioSpec {
        targets: 2000,
        mules: 8,
        seed: 3,
        ..ScenarioSpec::default()
    };
    let plan = plan_response_json(&base).unwrap();
    assert!(
        plan.len() > mule_serve::http::MAX_BODY_BYTES,
        "{}",
        plan.len()
    );

    let server = test_server(ServerConfig::default());
    let report = mule_serve::run_loadgen(&mule_serve::LoadgenParams {
        addr: server.addr().to_string(),
        requests: 2,
        connections: 1,
        spec_pool: 1,
        base,
        ..mule_serve::LoadgenParams::default()
    });
    assert_eq!((report.ok, report.errors), (2, 0), "{}", report.render());
    assert_eq!((report.misses, report.hits), (1, 1));
    server.shutdown();
}

//! The benchmark's workloads. A workload's request sequence is a pure
//! function of `(name, seed, count)`: the daemon receives only these
//! generated bodies.

use mule_serve::api::spec_to_json;
use mule_serve::JsonValue;
use mule_workload::{MetricSpec, ScenarioSpec};

/// Which daemon route a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Plan,
    Simulate,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Plan => "/v1/plan",
            Endpoint::Simulate => "/v1/simulate",
        }
    }
}

/// One request of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub endpoint: Endpoint,
    pub spec: ScenarioSpec,
    /// `/v1/simulate` replica count (unused by `/v1/plan`).
    pub replicas: usize,
    pub body: Vec<u8>,
}

/// A named traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub endpoint: Endpoint,
    /// Timed requests per second of `--seconds`: the run length is a
    /// request count derived from it, so every run at a given
    /// `--seconds` sends the same number of requests whatever the
    /// machine's speed.
    pub requests_per_s: usize,
    /// Leading requests that run before the timed window (counted,
    /// verified, excluded from every statistic).
    pub warmup: usize,
    /// Every this-many-th request repeats an earlier spec instead of
    /// drawing a fresh one (`0`: never). See [`Workload::requests`].
    pub repeat_every: usize,
    base: fn() -> ScenarioSpec,
    replicas: usize,
}

/// Repeats that should hit pick among this many newest distinct specs.
pub const RECENT: usize = 32;
/// Repeats that should miss pick among specs at least this many distinct
/// specs old: well past the daemon's default 128-entry plan cache.
pub const STALE: usize = 160;

/// Fewest timed requests in a run, so the 90th percentile has ten
/// samples beyond it.
pub const MIN_TIMED: usize = 100;

fn euclid_2k() -> ScenarioSpec {
    ScenarioSpec::default().with_targets(2000).with_mules(8)
}

fn road_800() -> ScenarioSpec {
    ScenarioSpec::default()
        .with_targets(800)
        .with_mules(4)
        .with_metric(MetricSpec::parse("road-grid").expect("road-grid is a metric"))
}

fn paper() -> ScenarioSpec {
    ScenarioSpec {
        horizon_s: 200_000.0,
        ..ScenarioSpec::default()
    }
}

// Why each workload exists is recorded in BENCHMARK.json; in short:
// plan-euclid-2k is CHB construction (matrix-free) plus a 1.8 MB response,
// plan-road-800 is road routing and the dense-matrix CHB path with a
// partly repeating stream that exercises the plan cache, and
// simulate-paper is the event loop, the control CHB and road work must
// not move.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "plan-euclid-2k",
        endpoint: Endpoint::Plan,
        requests_per_s: 10,
        warmup: 4,
        repeat_every: 0,
        base: euclid_2k,
        replicas: 0,
    },
    Workload {
        name: "plan-road-800",
        endpoint: Endpoint::Plan,
        requests_per_s: 60,
        warmup: 8,
        repeat_every: 4,
        base: road_800,
        replicas: 0,
    },
    Workload {
        name: "simulate-paper",
        endpoint: Endpoint::Simulate,
        requests_per_s: 60,
        warmup: 8,
        repeat_every: 0,
        base: paper,
        replicas: 8,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One SplitMix64 step: the benchmark's only random source.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Workload {
    /// Timed requests for a run of `seconds`.
    pub fn timed_count(&self, seconds: u64) -> usize {
        (seconds as usize * self.requests_per_s).max(MIN_TIMED)
    }

    /// The request sequence: `warmup + timed_count(seconds)` requests.
    ///
    /// Repeats alternate between a spec among the [`RECENT`] newest (a
    /// plan-cache hit) and, once there are enough, one at least [`STALE`]
    /// distinct specs old (evicted from the daemon's default 128-entry
    /// cache, so a miss). Which requests hit is thus fixed by position;
    /// the seed only picks the specs.
    pub fn requests(&self, seed: u64, seconds: u64) -> Vec<Request> {
        let count = self.warmup + self.timed_count(seconds);
        let mut rng = fnv1a(self.name.as_bytes()) ^ seed;
        let mut distinct: Vec<ScenarioSpec> = Vec::new();
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let repeat = self.repeat_every > 0 && i % self.repeat_every == self.repeat_every - 1;
            let spec = if repeat {
                let n = distinct.len();
                let stale = (i / self.repeat_every) % 2 == 1 && n > STALE;
                let (lo, hi) = if stale {
                    (0, n - STALE)
                } else {
                    (n.saturating_sub(RECENT), n)
                };
                let pick = lo + (splitmix(&mut rng) % (hi - lo) as u64) as usize;
                distinct[pick].clone()
            } else {
                // Seeds stay below 2^53 so they survive any JSON reader.
                let spec = (self.base)().with_seed(splitmix(&mut rng) >> 11);
                distinct.push(spec.clone());
                spec
            };
            out.push(self.request(spec));
        }
        out
    }

    fn request(&self, spec: ScenarioSpec) -> Request {
        let body = match self.endpoint {
            Endpoint::Plan => spec_to_json(&spec).to_json_string(),
            Endpoint::Simulate => JsonValue::object(vec![
                ("spec", spec_to_json(&spec)),
                ("replicas", self.replicas.into()),
            ])
            .to_json_string(),
        };
        Request {
            endpoint: self.endpoint,
            spec,
            replicas: self.replicas,
            body: body.into_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_sequence() {
        for w in &WORKLOADS {
            assert_eq!(w.requests(7, 1), w.requests(7, 1), "{}", w.name);
        }
    }

    #[test]
    fn a_different_seed_gives_a_different_sequence() {
        for w in &WORKLOADS {
            let a = w.requests(7, 1);
            let b = w.requests(8, 1);
            assert_eq!(a.len(), b.len());
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.body != y.body),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn runs_are_bounded_by_request_count() {
        let w = find("plan-road-800").unwrap();
        assert_eq!(w.requests(1, 10).len(), w.warmup + 600);
        assert_eq!(w.requests(1, 1).len(), w.warmup + MIN_TIMED);
    }

    #[test]
    fn only_the_road_stream_repeats_specs() {
        for w in &WORKLOADS {
            let reqs = w.requests(3, 10);
            let mut bodies: Vec<&[u8]> = reqs.iter().map(|r| r.body.as_slice()).collect();
            bodies.sort();
            bodies.dedup();
            let repeats = reqs.len() - bodies.len();
            let expected = reqs.len().checked_div(w.repeat_every).unwrap_or(0);
            assert_eq!(repeats, expected, "{}", w.name);
        }
    }

    #[test]
    fn road_repeats_alternate_between_cached_and_evicted_specs() {
        let w = find("plan-road-800").unwrap();
        let reqs = w.requests(3, 10);
        let (mut recent, mut stale) = (0, 0);
        let mut distinct: Vec<&[u8]> = Vec::new();
        for r in &reqs {
            match distinct.iter().rposition(|b| *b == r.body.as_slice()) {
                None => distinct.push(&r.body),
                Some(at) if distinct.len() - at <= RECENT => recent += 1,
                Some(at) => {
                    assert!(distinct.len() - at > STALE);
                    stale += 1;
                }
            }
        }
        assert!(recent > 0 && stale > 0, "recent {recent}, stale {stale}");
    }

    #[test]
    fn bodies_parse_back_to_their_specs() {
        for w in &WORKLOADS {
            for r in w.requests(5, 1).iter().take(5) {
                match r.endpoint {
                    Endpoint::Plan => {
                        assert_eq!(mule_serve::api::spec_from_body(&r.body).unwrap(), r.spec)
                    }
                    Endpoint::Simulate => {
                        let parsed = mule_serve::api::simulate_request_from_body(&r.body).unwrap();
                        assert_eq!(parsed.spec, r.spec);
                        assert_eq!(parsed.replicas, r.replicas);
                    }
                }
            }
        }
    }
}

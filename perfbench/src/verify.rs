//! Response verification. During the timed window only the status and a
//! digest of each body are kept; afterwards every distinct request is
//! recomputed through the direct API call and the served bytes are
//! compared with it — the determinism contract says they are identical —
//! and the direct document is parsed and checked.

use crate::drive::Sample;
use crate::workloads::{Endpoint, Request};
use mule_serve::api::{plan_response_json, simulate_response_json, SimulateRequest};
use mule_serve::api::{PLAN_SCHEMA, SIMULATE_SCHEMA};
use mule_serve::ApiError;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hasher};

/// Length plus two independent 64-bit hashes of a body: compares served
/// bytes with expected bytes without holding every multi-megabyte body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    fnv: u64,
    sip: u64,
}

pub fn digest(bytes: &[u8]) -> Digest {
    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut sip = DefaultHasher::new();
    sip.write(bytes);
    Digest {
        len: bytes.len(),
        fnv,
        sip: sip.finish(),
    }
}

/// What the client saw of one response: `None` for a transport error,
/// else the status and the body's digest.
pub type Seen = Option<(u16, Digest)>;

pub fn seen(sample: &Sample) -> Seen {
    sample
        .response
        .as_ref()
        .map(|r| (r.status, digest(&r.body)))
}

/// The document the daemon must serve for `request`, computed in-process.
pub fn direct_body(request: &Request) -> Result<String, ApiError> {
    match request.endpoint {
        Endpoint::Plan => plan_response_json(&request.spec),
        Endpoint::Simulate => simulate_response_json(
            &SimulateRequest {
                spec: request.spec.clone(),
                replicas: request.replicas,
            },
            None,
        ),
    }
}

/// Parses a response document, checks its schema and fingerprint, and
/// returns its quality figure: `max_cycle_length_m` of a plan, the mean
/// `max_interval_s` of a simulation.
pub fn check_document(request: &Request, body: &str) -> Result<f64, String> {
    let doc = mule_serve::json::parse(body).map_err(|e| format!("unparsable body: {e}"))?;
    let schema = match request.endpoint {
        Endpoint::Plan => PLAN_SCHEMA,
        Endpoint::Simulate => SIMULATE_SCHEMA,
    };
    if doc.get("schema").and_then(|v| v.as_str()) != Some(schema) {
        return Err(format!("schema is not {schema}"));
    }
    let fingerprint = format!("{:016x}", request.spec.fingerprint());
    if doc.get("fingerprint").and_then(|v| v.as_str()) != Some(fingerprint.as_str()) {
        return Err(format!("fingerprint is not {fingerprint}"));
    }
    let quality = match request.endpoint {
        Endpoint::Plan => doc.get("max_cycle_length_m"),
        Endpoint::Simulate => doc.get("max_interval_s").and_then(|s| s.get("mean")),
    };
    quality
        .and_then(|v| v.as_f64())
        .filter(|q| q.is_finite() && *q > 0.0)
        .ok_or_else(|| "quality figure missing or not positive".to_string())
}

/// The verdict on a run: per request, `Ok(quality)` or why it failed.
pub fn verify(requests: &[Request], seen: &[Seen]) -> Vec<Result<f64, String>> {
    let mut expected: HashMap<&[u8], Result<(Digest, f64), String>> = HashMap::new();
    requests
        .iter()
        .zip(seen)
        .map(|(request, seen)| {
            let want = expected
                .entry(request.body.as_slice())
                .or_insert_with(|| {
                    let body = direct_body(request).map_err(|e| format!("direct call: {e}"))?;
                    let quality = check_document(request, &body)?;
                    Ok((digest(body.as_bytes()), quality))
                })
                .clone()?;
            match seen {
                None => Err("transport error".to_string()),
                Some((status, _)) if *status != 200 => Err(format!("status {status}")),
                Some((_, got)) if *got != want.0 => {
                    Err("served bytes differ from the direct call".to_string())
                }
                Some(_) => Ok(want.1),
            }
        })
        .collect()
}

/// Timed specs of a plan workload that [`cross_quality`] simulates.
const SIMULATED_PLANS: usize = 32;

/// The quality figure a workload's responses do not carry, from direct
/// calls outside the timed window: for plan workloads the mean
/// `max_interval_s` of one simulated replica of each of the first
/// [`SIMULATED_PLANS`] timed specs; for the simulate workload the mean
/// `max_cycle_length_m` of the plans of all its timed specs.
pub fn cross_quality(timed: &[Request]) -> Result<f64, String> {
    let probes: Vec<Request> = match timed.first().map(|r| r.endpoint) {
        None => return Err("no timed requests".to_string()),
        Some(Endpoint::Plan) => timed
            .iter()
            .take(SIMULATED_PLANS)
            .map(|r| Request {
                endpoint: Endpoint::Simulate,
                replicas: 1,
                ..r.clone()
            })
            .collect(),
        Some(Endpoint::Simulate) => timed
            .iter()
            .map(|r| Request {
                endpoint: Endpoint::Plan,
                ..r.clone()
            })
            .collect(),
    };
    let mut sum = 0.0;
    for request in &probes {
        let body = direct_body(request).map_err(|e| e.to_string())?;
        sum += check_document(request, &body)?;
    }
    Ok(sum / probes.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    fn small_plans() -> Vec<Request> {
        let w = find("simulate-paper").unwrap();
        w.requests(11, 1)
            .into_iter()
            .take(3)
            .map(|r| Request {
                endpoint: Endpoint::Plan,
                ..r
            })
            .collect()
    }

    fn served(body: &[u8]) -> Seen {
        Some((200, digest(body)))
    }

    #[test]
    fn the_direct_bytes_pass() {
        let reqs = small_plans();
        let seen: Vec<Seen> = reqs
            .iter()
            .map(|r| served(direct_body(r).unwrap().as_bytes()))
            .collect();
        assert!(verify(&reqs, &seen).iter().all(Result::is_ok));
    }

    #[test]
    fn a_corrupted_body_is_rejected() {
        let reqs = small_plans();
        let mut body = direct_body(&reqs[0]).unwrap().into_bytes();
        let mid = body.len() / 2;
        body[mid] ^= 1;
        let verdict = verify(&reqs[..1], &[served(&body)]);
        assert!(verdict[0].is_err());
        let truncated = &direct_body(&reqs[0]).unwrap().into_bytes()[..mid];
        assert!(verify(&reqs[..1], &[served(truncated)])[0].is_err());
    }

    #[test]
    fn another_specs_body_is_rejected() {
        let reqs = small_plans();
        let other = direct_body(&reqs[1]).unwrap();
        assert!(verify(&reqs[..1], &[served(other.as_bytes())])[0].is_err());
        // The document itself is well-formed but names another spec.
        let err = check_document(&reqs[0], &other).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn errors_and_garbage_are_rejected() {
        let reqs = small_plans();
        let body = direct_body(&reqs[0]).unwrap();
        assert!(verify(&reqs[..1], &[Some((500, digest(body.as_bytes())))])[0].is_err());
        assert!(verify(&reqs[..1], &[None])[0].is_err());
        assert!(check_document(&reqs[0], "{not json").is_err());
        assert!(check_document(&reqs[0], r#"{"schema": "plan-response/v1"}"#).is_err());
    }
}

//! The planning-service request type: a [`ScenarioSpec`] names everything
//! a `/v1/plan` request needs — the scenario knobs plus the planner — as
//! pure data, with a **canonical form** and a stable fingerprint so a
//! plan cache can key on it.
//!
//! The spec deliberately mirrors `patrolctl`'s scenario flags (the CLI
//! builds its `ScenarioConfig` through this type, so the two front ends
//! cannot drift), but it lives here rather than in the CLI because the
//! server, the load generator and the CLI all speak it.
//!
//! ## Canonical form and fingerprint
//!
//! [`ScenarioSpec::canonical_string`] renders the spec as a fixed-order,
//! self-delimiting key string; [`ScenarioSpec::fingerprint`] is the
//! FNV-1a 64-bit hash of that string. Two specs that are `==` always
//! canonicalise — and therefore hash — identically, regardless of how
//! they were produced (JSON field order, CLI flags, defaults). The
//! planner name is length-prefixed in the canonical form so no crafted
//! name can collide with a different spec's rendering, and a negative
//! zero horizon normalises to positive zero (they compare equal, so they
//! must hash equal).

use crate::config::{MetricSpec, ScenarioConfig};
use crate::WeightSpec;
use serde::{Deserialize, Serialize};

/// Version tag of the canonical form (bump when the field set changes so
/// old cache keys cannot alias new specs).
pub const SPEC_VERSION: &str = "spec/v1";

/// Smallest weight that makes a target a real VIP (a weight of 1 is a
/// normal target).
const MIN_VIP_WEIGHT: u32 = 2;

/// A planning request: scenario knobs plus the planner to run, as pure
/// data. See the module docs for the canonical-form contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Number of targets.
    pub targets: usize,
    /// Number of data mules.
    pub mules: usize,
    /// Scenario RNG seed.
    pub seed: u64,
    /// Number of VIP targets (0 = all normal).
    pub vips: usize,
    /// Weight assigned to each VIP (floored to 2 when VIPs exist).
    pub vip_weight: u32,
    /// Whether the scenario includes a recharge station.
    pub recharge: bool,
    /// Planner name (`b-tctp`, `w-tctp-shortest`, `w-tctp-balancing`,
    /// `rw-tctp`, `chb`, `sweep`, `random`). Stored verbatim; validated
    /// by whoever instantiates the planner.
    pub planner: String,
    /// Simulation horizon, seconds (used by `/v1/simulate`; ignored by
    /// pure planning).
    pub horizon_s: f64,
    /// Travel metric of the scenario. **Fingerprint back-compat:** the
    /// default (`Euclidean`) contributes nothing to the canonical form, so
    /// every spec that predates road metrics hashes — and cache-keys —
    /// exactly as it always did; only road specs grow a `metric=` token.
    pub metric: MetricSpec,
}

impl Default for ScenarioSpec {
    /// These are also `patrolctl`'s scenario-flag defaults.
    fn default() -> Self {
        ScenarioSpec {
            targets: 10,
            mules: 4,
            seed: 1,
            vips: 0,
            vip_weight: 2,
            recharge: false,
            planner: "b-tctp".to_string(),
            horizon_s: 40_000.0,
            metric: MetricSpec::Euclidean,
        }
    }
}

impl ScenarioSpec {
    /// Whether `horizon_s` is a usable simulation horizon: a finite,
    /// non-negative number of seconds. `patrolctl --horizon` and the
    /// service's spec validation both apply this rule.
    pub fn valid_horizon(horizon_s: f64) -> bool {
        horizon_s.is_finite() && horizon_s >= 0.0
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the target count.
    pub fn with_targets(mut self, targets: usize) -> Self {
        self.targets = targets;
        self
    }

    /// Builder-style override of the mule count.
    pub fn with_mules(mut self, mules: usize) -> Self {
        self.mules = mules;
        self
    }

    /// Builder-style override of the planner name.
    pub fn with_planner(mut self, planner: impl Into<String>) -> Self {
        self.planner = planner.into();
        self
    }

    /// Builder-style override of the travel metric.
    pub fn with_metric(mut self, metric: MetricSpec) -> Self {
        self.metric = metric;
        self
    }

    /// The scenario configuration this spec describes (the same mapping
    /// `patrolctl` applies to its flags: VIPs become a `UniformVips`
    /// weight spec with the weight floored to a real VIP weight).
    pub fn scenario_config(&self) -> ScenarioConfig {
        let weights = if self.vips > 0 {
            WeightSpec::UniformVips {
                count: self.vips,
                weight: self.vip_weight.max(MIN_VIP_WEIGHT),
            }
        } else {
            WeightSpec::AllNormal
        };
        ScenarioConfig::paper_default()
            .with_targets(self.targets)
            .with_mules(self.mules)
            .with_seed(self.seed)
            .with_weights(weights)
            .with_recharge_station(self.recharge)
            .with_metric(self.metric)
    }

    /// The fixed-order, self-delimiting canonical rendering of the spec.
    /// Equal specs render identically; distinct specs render distinctly
    /// (the free-form planner name is length-prefixed, every other field
    /// has a fixed-width meaning).
    pub fn canonical_string(&self) -> String {
        // `==` treats -0.0 and 0.0 as equal, so the canonical form must
        // not distinguish them either.
        let horizon = if self.horizon_s == 0.0 {
            0.0
        } else {
            self.horizon_s
        };
        let mut canonical = format!(
            "{};targets={};mules={};seed={};vips={};vip_weight={};recharge={};horizon_s={:?};planner={}:{}",
            SPEC_VERSION,
            self.targets,
            self.mules,
            self.seed,
            self.vips,
            self.vip_weight,
            self.recharge,
            horizon,
            self.planner.len(),
            self.planner,
        );
        // Back-compat: the default metric renders nothing, so pre-road
        // specs keep their historical canonical form and fingerprint. The
        // token is appended *after* the length-prefixed planner name, so a
        // crafted planner string still cannot fake (or hide) a metric.
        if self.metric != MetricSpec::Euclidean {
            canonical.push_str(";metric=");
            canonical.push_str(self.metric.wire_name());
        }
        canonical
    }

    /// FNV-1a 64-bit hash of [`ScenarioSpec::canonical_string`] — the
    /// plan-cache key. Stable across platforms, compiler versions and
    /// processes (unlike `std::hash`, which is allowed to vary).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayoutKind;

    #[test]
    fn default_spec_matches_the_paper_scenario_defaults() {
        let cfg = ScenarioSpec::default().scenario_config();
        assert_eq!(cfg, ScenarioConfig::paper_default());
    }

    #[test]
    fn scenario_config_applies_every_knob() {
        let spec = ScenarioSpec {
            targets: 25,
            mules: 6,
            seed: 99,
            vips: 3,
            vip_weight: 4,
            recharge: true,
            planner: "chb".to_string(),
            horizon_s: 12_345.0,
            metric: MetricSpec::Euclidean,
        };
        let cfg = spec.scenario_config();
        assert_eq!(cfg.target_count, 25);
        assert_eq!(cfg.mule_count, 6);
        assert_eq!(cfg.seed, 99);
        assert_eq!(
            cfg.weights,
            WeightSpec::UniformVips {
                count: 3,
                weight: 4
            }
        );
        assert!(cfg.with_recharge_station);
        assert_eq!(cfg.layout, LayoutKind::Uniform);
    }

    #[test]
    fn vip_weight_is_floored_to_a_real_vip_weight() {
        let spec = ScenarioSpec {
            vips: 2,
            vip_weight: 1,
            ..ScenarioSpec::default()
        };
        assert_eq!(
            spec.scenario_config().weights,
            WeightSpec::UniformVips {
                count: 2,
                weight: 2
            }
        );
    }

    #[test]
    fn equal_specs_have_equal_canonical_forms_and_fingerprints() {
        let a = ScenarioSpec::default().with_seed(7).with_targets(20);
        let b = ScenarioSpec::default().with_seed(7).with_targets(20);
        assert_eq!(a, b);
        assert_eq!(a.canonical_string(), b.canonical_string());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_field_feeds_the_fingerprint() {
        let base = ScenarioSpec::default();
        let variants = [
            base.clone().with_targets(11),
            base.clone().with_mules(5),
            base.clone().with_seed(2),
            ScenarioSpec {
                vips: 1,
                ..base.clone()
            },
            ScenarioSpec {
                vip_weight: 3,
                ..base.clone()
            },
            ScenarioSpec {
                recharge: true,
                ..base.clone()
            },
            base.clone().with_planner("chb"),
            ScenarioSpec {
                horizon_s: 41_000.0,
                ..base.clone()
            },
            base.clone()
                .with_metric(MetricSpec::Road(mule_road::RoadNetKind::Grid)),
            base.clone()
                .with_metric(MetricSpec::Road(mule_road::RoadNetKind::Planar)),
        ];
        for v in &variants {
            assert_ne!(
                v.fingerprint(),
                base.fingerprint(),
                "variant {v:?} must change the fingerprint"
            );
        }
    }

    #[test]
    fn planner_name_cannot_inject_other_fields() {
        // Without length-prefixing, spec A with planner "x;recharge=true"
        // could canonicalise like a different spec. The prefix pins the
        // name's extent.
        let a = ScenarioSpec::default().with_planner("x;recharge=true");
        let b = ScenarioSpec {
            recharge: true,
            ..ScenarioSpec::default().with_planner("x")
        };
        assert_ne!(a.canonical_string(), b.canonical_string());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn negative_zero_horizon_hashes_like_positive_zero() {
        let pos = ScenarioSpec {
            horizon_s: 0.0,
            ..ScenarioSpec::default()
        };
        let neg = ScenarioSpec {
            horizon_s: -0.0,
            ..ScenarioSpec::default()
        };
        assert_eq!(pos, neg, "PartialEq treats the zeros as equal");
        assert_eq!(pos.fingerprint(), neg.fingerprint());
    }

    #[test]
    fn default_metric_is_absent_from_the_canonical_form() {
        // Fingerprint back-compat: a spec with the default metric must
        // canonicalise — and therefore cache-key — exactly like a spec
        // from before the metric field existed.
        let default = ScenarioSpec::default();
        assert!(!default.canonical_string().contains("metric"));
        let road = default
            .clone()
            .with_metric(MetricSpec::Road(mule_road::RoadNetKind::Grid));
        assert!(road.canonical_string().ends_with(";metric=road-grid"));
        assert_ne!(default.fingerprint(), road.fingerprint());
        let planar = default
            .clone()
            .with_metric(MetricSpec::Road(mule_road::RoadNetKind::Planar));
        assert_ne!(road.fingerprint(), planar.fingerprint());
    }

    #[test]
    fn planner_name_cannot_fake_a_metric_token() {
        // The planner's length prefix pins its extent, so a crafted name
        // ending in ";metric=road-grid" is not the same spec as a real
        // road request.
        let crafted = ScenarioSpec::default().with_planner("b-tctp;metric=road-grid");
        let real =
            ScenarioSpec::default().with_metric(MetricSpec::Road(mule_road::RoadNetKind::Grid));
        assert_ne!(crafted.canonical_string(), real.canonical_string());
        assert_ne!(crafted.fingerprint(), real.fingerprint());
    }

    #[test]
    fn road_spec_builds_a_road_scenario_config() {
        let spec =
            ScenarioSpec::default().with_metric(MetricSpec::Road(mule_road::RoadNetKind::Planar));
        assert_eq!(
            spec.scenario_config().metric,
            MetricSpec::Road(mule_road::RoadNetKind::Planar)
        );
        assert_eq!(
            ScenarioSpec::default().scenario_config().metric,
            MetricSpec::Euclidean
        );
    }

    #[test]
    fn fingerprint_is_pinned() {
        // The fingerprint is a cache key that may outlive a process (and
        // appears in responses); pin the default spec's value so an
        // accidental canonical-form change cannot slip through unnoticed.
        let canonical = ScenarioSpec::default().canonical_string();
        assert_eq!(
            canonical,
            "spec/v1;targets=10;mules=4;seed=1;vips=0;vip_weight=2;\
             recharge=false;horizon_s=40000.0;planner=6:b-tctp"
        );
    }
}

//! Command-line argument parsing for `patrolctl`.
//!
//! Every flag is declared once, in the `FLAGS` table: spelling, help, the
//! subcommands whose runner reads it, a setter writing straight into the
//! library's config types, and a reader of the default it documents. One
//! loop parses every subcommand and [`USAGE`] is rendered from the table; a
//! flag the subcommand never reads is an [`CliError::UnknownFlag`].

use mule_bench::routebench::RouteBenchParams;
use mule_bench::scalebench::ScaleBenchParams;
use mule_bench::tourbench::TourBenchParams;
use mule_obs::log::Severity;
use mule_obs::SloSpec;
use mule_serve::{LoadgenParams, ServerConfig};
use mule_workload::{DisruptionConfig, MetricSpec, ScenarioSpec};
use patrol_core::PlannerKind;
use std::fmt;
use std::str::FromStr;
use std::sync::LazyLock;
use std::time::Duration;

/// Which tour-search mode the planners' circuit construction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchChoice {
    /// Exact all-pairs construction and local search.
    Exact,
    /// Candidate-list (k-nearest-neighbour) search; `--knn` sets k.
    Candidates,
    /// Exact below the byte-stability threshold, candidate lists above
    /// (the default — see `docs/DETERMINISM.md`).
    #[default]
    Auto,
}

impl SearchChoice {
    /// Parses a search-mode name (case-insensitive).
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s.to_ascii_lowercase().as_str() {
            "exact" => Ok(SearchChoice::Exact),
            "candidates" | "cand" | "knn" => Ok(SearchChoice::Candidates),
            "auto" => Ok(SearchChoice::Auto),
            other => Err(CliError::InvalidValue {
                flag: "--search".into(),
                value: other.into(),
            }),
        }
    }

    /// The canonical name `--search` accepts.
    fn name(self) -> &'static str {
        match self {
            SearchChoice::Exact => "exact",
            SearchChoice::Candidates => "candidates",
            SearchChoice::Auto => "auto",
        }
    }

    /// Translates the choice (plus the optional `--knn` width) into the
    /// graph crate's search mode.
    pub fn to_mode(self, knn: Option<usize>) -> mule_graph::SearchMode {
        match self {
            SearchChoice::Exact => mule_graph::SearchMode::Exact,
            SearchChoice::Candidates => mule_graph::SearchMode::Candidates(
                knn.unwrap_or(mule_graph::chb::DEFAULT_CANDIDATES_K).max(1),
            ),
            SearchChoice::Auto => mule_graph::SearchMode::Auto,
        }
    }
}

/// Options of the scenario subcommands (and the base of `dynamics` and
/// `sweep`): the service-layer scenario spec plus the CLI-only knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// The scenario and planner, exactly as `POST /v1/plan` takes them, so
    /// the offline commands and the service cannot drift.
    pub spec: ScenarioSpec,
    /// Tour-search mode of the circuit construction.
    pub search: SearchChoice,
    /// Candidate-list width (k nearest neighbours) when `search` is
    /// `candidates`; `None` uses the engine default.
    pub knn: Option<usize>,
    /// Optional SVG output path (`simulate`).
    pub svg_path: Option<String>,
    /// CSV output: `simulate`'s trace prefix or `sweep`'s results file.
    pub csv_prefix: Option<String>,
    /// ASCII canvas width for `render`.
    pub canvas_width: usize,
    /// Optional path of a Chrome `trace_event` JSON file to write the
    /// run's span trace to (loadable in `about:tracing` / Perfetto).
    pub trace_out: Option<String>,
    /// Append a self-time profile table to the command's output.
    pub profile: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            spec: ScenarioSpec::default(),
            search: SearchChoice::Auto,
            knn: None,
            svg_path: None,
            csv_prefix: None,
            canvas_width: 72,
            trace_out: None,
            profile: false,
        }
    }
}

/// Options of the `bench-tours` subcommand (the tracked tour-engine
/// benchmark; see `docs/PERFORMANCE.md`). The gates fail the command
/// after the artefact is written.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchToursOptions {
    /// What to bench.
    pub params: TourBenchParams,
    /// `--json`: where to write `BENCH_tours.json`.
    pub json_path: Option<String>,
    /// `--max-ratio`: gate on the candidates/exact tour-length ratio.
    pub max_ratio: Option<f64>,
    /// `--overhead-gate`: gate on the traced/untraced wall-clock ratio.
    pub overhead_gate: Option<f64>,
    /// `--trace-out`: Chrome trace of one traced candidates run.
    pub trace_out: Option<String>,
    /// `--profile`: append that traced run's self-time profile.
    pub profile: bool,
}

/// Options of the `bench-routes` subcommand (the tracked road-routing
/// benchmark; see `docs/ROADS.md`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchRoutesOptions {
    /// What to bench.
    pub params: RouteBenchParams,
    /// `--json`: where to write `BENCH_routes.json`.
    pub json_path: Option<String>,
    /// `--min-speedup`: gate on ALT's speedup over Dijkstra.
    pub min_speedup: Option<f64>,
}

/// Options of the `bench-scale` subcommand (the tracked memory-scale
/// benchmark; see `docs/PERFORMANCE.md`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchScaleOptions {
    /// What to bench.
    pub params: ScaleBenchParams,
    /// `--json`: where to write `BENCH_scale.json`.
    pub json_path: Option<String>,
    /// `--max-bytes-per-target`: gate on the matrix-free peak footprint.
    pub max_bytes_per_target: Option<f64>,
    /// `--max-ratio`: gate on the matrix-free/matrix tour-length ratio.
    pub max_ratio: Option<f64>,
}

/// Disruption knobs of the `dynamics` subcommand, on top of the shared
/// scenario options.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DynamicsOptions {
    /// Scenario + execution options shared with the other subcommands.
    pub base: CliOptions,
    /// The disruption counts and knobs. Its `seed` and `horizon_s` are
    /// ignored: the run takes both from the scenario spec.
    pub disruptions: DisruptionConfig,
    /// Disable online replanning (disruptions still apply).
    pub no_replan: bool,
}

/// A named disruption preset of the `sweep` disruption axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisruptionPreset {
    /// Static run (no disruptions).
    None,
    /// Target failures with recovery (`DisruptionConfig::failures_only`).
    Failures,
    /// A single mule breakdown (`DisruptionConfig::breakdowns_only`).
    Breakdowns,
    /// One of everything (`DisruptionConfig::default_mixed`).
    Mixed,
}

impl DisruptionPreset {
    /// Parses a preset name (case-insensitive).
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "static" => Ok(DisruptionPreset::None),
            "failures" | "fail" => Ok(DisruptionPreset::Failures),
            "breakdowns" | "breakdown" => Ok(DisruptionPreset::Breakdowns),
            "mixed" => Ok(DisruptionPreset::Mixed),
            other => Err(CliError::InvalidValue {
                flag: "--disruptions".into(),
                value: other.into(),
            }),
        }
    }
}

impl std::str::FromStr for DisruptionPreset {
    type Err = CliError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DisruptionPreset::parse(s)
    }
}

impl fmt::Display for DisruptionPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DisruptionPreset::None => "none",
            DisruptionPreset::Failures => "failures",
            DisruptionPreset::Breakdowns => "breakdowns",
            DisruptionPreset::Mixed => "mixed",
        })
    }
}

/// Grid axes and execution knobs of the `sweep` subcommand, on top of the
/// shared scenario options.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Scenario + execution options shared with the other subcommands
    /// (the horizon is per replica; `csv_prefix` names the results CSV).
    pub base: CliOptions,
    /// Seed axis (defaults to the scenario seed).
    pub seeds: Vec<u64>,
    /// Fleet-size axis (defaults to the scenario's mule count).
    pub mule_counts: Vec<usize>,
    /// Speed axis in m/s.
    pub speeds: Vec<f64>,
    /// Disruption axis.
    pub disruptions: Vec<DisruptionPreset>,
    /// Replications per cell.
    pub replicas: usize,
    /// Worker-pool size (`None`: `MULE_PAR_WORKERS` or all cores).
    pub workers: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        let base = CliOptions::default();
        SweepOptions {
            seeds: vec![base.spec.seed],
            mule_counts: vec![base.spec.mules],
            speeds: vec![mule_workload::PAPER_SPEED_M_PER_S],
            disruptions: vec![DisruptionPreset::None],
            replicas: 8,
            workers: None,
            base,
        }
    }
}

/// Options of the `serve` subcommand (the `mule-serve` daemon).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// The daemon's configuration.
    pub config: ServerConfig,
    /// Fault plan to arm at startup (`point=kind[@prob][#limit],...`).
    pub fault_plan: Option<String>,
    /// Seed of the armed fault plan's firing decisions.
    pub fault_seed: u64,
    /// Minimum severity of the structured stderr log.
    pub log_level: Severity,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            config: ServerConfig::default(),
            fault_plan: None,
            fault_seed: 7,
            log_level: Severity::Info,
        }
    }
}

/// Options of the `loadgen` subcommand (the server load benchmark).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadgenOptions {
    /// The load to fire (request *i* uses `base.seed + (i mod spec_pool)`).
    pub params: LoadgenParams,
    /// `--json`: where to write `BENCH_server.json`.
    pub json_path: Option<String>,
    /// `--max-p99`: gate on the p99 latency, milliseconds.
    pub max_p99_ms: Option<f64>,
    /// `--min-rps`: gate on the throughput, requests per second.
    pub min_rps: Option<f64>,
}

/// Options of the `chaos` subcommand (the self-checking fault-injection
/// drill; see docs/RELIABILITY.md).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// Configuration of the drilled in-process server.
    pub server: ServerConfig,
    /// The serial load of each drill: `requests`, `spec_pool` and the
    /// `base` spec (spec *k* of the pool uses seed `1 + k`).
    pub load: LoadgenParams,
    /// Fault plan override; the default mixes panics, delays, evictions
    /// and connection faults.
    pub fault_plan: Option<String>,
    /// Seed of the fault plan's firing decisions (same seed, same faults).
    pub fault_seed: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            server: ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                deadline: Some(Duration::from_millis(800)),
                degraded: true,
                ..ServerConfig::default()
            },
            load: LoadgenParams {
                requests: 40,
                ..LoadgenParams::default()
            },
            fault_plan: None,
            fault_seed: 7,
        }
    }
}

/// A parsed `patrolctl` invocation: one variant per subcommand (see
/// `patrolctl help` for what each does).
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    /// Print usage information.
    Help,
    /// ASCII maps of the scenario and its planned route.
    Render(CliOptions),
    /// The plan-response JSON, byte-identical to serve's `POST /v1/plan`.
    Plan(CliOptions),
    /// Simulate one planner and print its metric reports.
    Simulate(CliOptions),
    /// Every planner on the same scenario, one comparison table.
    Compare(CliOptions),
    /// Seeded disruptions with online replanning, per-phase delays.
    Dynamics(DynamicsOptions),
    /// Parallel replication sweep over a parameter grid.
    Sweep(SweepOptions),
    /// The tracked tour-engine benchmark (`BENCH_tours.json`).
    BenchTours(BenchToursOptions),
    /// The tracked road-routing benchmark (`BENCH_routes.json`).
    BenchRoutes(BenchRoutesOptions),
    /// The tracked memory-scale benchmark (`BENCH_scale.json`).
    BenchScale(BenchScaleOptions),
    /// The planning-service daemon (blocks forever).
    Serve(ServeOptions),
    /// The tracked server load benchmark (`BENCH_server.json`).
    Loadgen(LoadgenOptions),
    /// The self-checking fault-injection drill: every degraded response
    /// well-formed, every success byte-identical, firings reproducible.
    Chaos(ChaosOptions),
}

/// Errors produced by the argument parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not recognised.
    UnknownCommand(String),
    /// A flag is not recognised, or the subcommand does not read it.
    UnknownFlag(String),
    /// A flag is missing its value.
    MissingValue(String),
    /// A flag's value could not be parsed.
    InvalidValue {
        /// The offending flag.
        flag: String,
        /// The value that failed to parse.
        value: String,
    },
    /// A flag was given that only has an effect alongside another flag
    /// (e.g. `--knn` without `--search candidates`). Erroring beats
    /// silently ignoring the user's knob.
    RequiresFlag {
        /// The offending flag.
        flag: String,
        /// The flag (and value) it requires.
        requires: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "missing subcommand (try `patrolctl help`)"),
            CliError::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` is missing a value"),
            CliError::InvalidValue { flag, value } => {
                write!(f, "invalid value `{value}` for flag `{flag}`")
            }
            CliError::RequiresFlag { flag, requires } => {
                write!(f, "flag `{flag}` requires `{requires}`")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Generates `fn name(&mut self) -> Option<&mut Options>` on
/// [`CliCommand`]: the options of one subcommand, `None` on any other.
macro_rules! options_of {
    ($($name:ident: $variant:ident($options:ty)),* $(,)?) => {
        impl CliCommand {
            $(fn $name(&mut self) -> Option<&mut $options> {
                match self {
                    CliCommand::$variant(o) => Some(o),
                    _ => None,
                }
            })*
        }
    };
}

options_of!(
    dynamics: Dynamics(DynamicsOptions),
    sweep: Sweep(SweepOptions),
    tours: BenchTours(BenchToursOptions),
    routes: BenchRoutes(BenchRoutesOptions),
    scale: BenchScale(BenchScaleOptions),
    serve: Serve(ServeOptions),
    loadgen: Loadgen(LoadgenOptions),
);

/// The fields the flag setters write that several subcommands hold
/// (`None` on a command without them).
impl CliCommand {
    fn scenario(&mut self) -> Option<&mut CliOptions> {
        match self {
            CliCommand::Render(o)
            | CliCommand::Plan(o)
            | CliCommand::Simulate(o)
            | CliCommand::Compare(o) => Some(o),
            CliCommand::Dynamics(o) => Some(&mut o.base),
            CliCommand::Sweep(o) => Some(&mut o.base),
            _ => None,
        }
    }

    fn spec(&mut self) -> Option<&mut ScenarioSpec> {
        match self {
            CliCommand::Loadgen(o) => Some(&mut o.params.base),
            CliCommand::Chaos(o) => Some(&mut o.load.base),
            c => c.scenario().map(|o| &mut o.spec),
        }
    }

    fn server(&mut self) -> Option<&mut ServerConfig> {
        match self {
            CliCommand::Serve(o) => Some(&mut o.config),
            CliCommand::Chaos(o) => Some(&mut o.server),
            _ => None,
        }
    }

    fn load(&mut self) -> Option<&mut LoadgenParams> {
        match self {
            CliCommand::Loadgen(o) => Some(&mut o.params),
            CliCommand::Chaos(o) => Some(&mut o.load),
            _ => None,
        }
    }

    fn seed(&mut self) -> Option<&mut u64> {
        match self {
            CliCommand::BenchTours(o) => Some(&mut o.params.seed),
            CliCommand::BenchRoutes(o) => Some(&mut o.params.seed),
            CliCommand::BenchScale(o) => Some(&mut o.params.seed),
            CliCommand::Chaos(o) => Some(&mut o.fault_seed),
            c => c.spec().map(|s| &mut s.seed),
        }
    }

    fn sizes(&mut self) -> Option<&mut Vec<usize>> {
        match self {
            CliCommand::BenchTours(o) => Some(&mut o.params.sizes),
            CliCommand::BenchRoutes(o) => Some(&mut o.params.sizes),
            CliCommand::BenchScale(o) => Some(&mut o.params.sizes),
            _ => None,
        }
    }

    fn samples(&mut self) -> Option<&mut usize> {
        match self {
            CliCommand::BenchTours(o) => Some(&mut o.params.samples),
            CliCommand::BenchScale(o) => Some(&mut o.params.samples),
            _ => None,
        }
    }

    /// Resolves what depends on more than one flag, once all are parsed.
    fn finish(mut self) -> Result<CliCommand, CliError> {
        if let CliCommand::Sweep(o) = &mut self {
            // Axes not given default to the scenario's seed and fleet size.
            if o.seeds.is_empty() {
                o.seeds = vec![o.base.spec.seed];
            }
            if o.mule_counts.is_empty() {
                o.mule_counts = vec![o.base.spec.mules];
            }
        }
        if let Some(o) = self.scenario() {
            // RW-TCTP needs a recharge station; turn it on implicitly so
            // the obvious invocation works.
            if o.spec.planner == PlannerKind::RwTctp.canonical_name() {
                o.spec.recharge = true;
            }
            // `--knn` tunes the candidate-list width, which only exists
            // under `--search candidates` (auto resolves its own default
            // width above the threshold). Silently discarding the user's
            // knob would be worse than rejecting it.
            if o.knn.is_some() && o.search != SearchChoice::Candidates {
                return Err(CliError::RequiresFlag {
                    flag: "--knn".into(),
                    requires: "--search candidates".into(),
                });
            }
        }
        Ok(self)
    }
}

const RENDER: u16 = 1;
const PLAN: u16 = 1 << 1;
const SIMULATE: u16 = 1 << 2;
const COMPARE: u16 = 1 << 3;
const DYNAMICS: u16 = 1 << 4;
const SWEEP: u16 = 1 << 5;
const BENCH_TOURS: u16 = 1 << 6;
const BENCH_ROUTES: u16 = 1 << 7;
const BENCH_SCALE: u16 = 1 << 8;
const SERVE: u16 = 1 << 9;
const LOADGEN: u16 = 1 << 10;
const CHAOS: u16 = 1 << 11;
/// The subcommands that generate a scenario and plan it offline.
const SCENARIO: u16 = RENDER | PLAN | SIMULATE | COMPARE | DYNAMICS | SWEEP;
/// The scenario subcommands that build their own planners (`plan` uses the
/// service's, with the default circuit construction).
const PLANNING: u16 = SCENARIO & !PLAN;
const BENCHES: u16 = BENCH_TOURS | BENCH_ROUTES | BENCH_SCALE;

/// A subcommand: its bit in `Flag::subs`, its name, a one-line summary
/// and a constructor of the command its flags fill in.
type Subcommand = (u16, &'static str, &'static str, fn() -> CliCommand);

/// Every subcommand, in usage order.
#[rustfmt::skip]
const SUBCOMMANDS: [Subcommand; 12] = [
    (RENDER, "render", "ASCII maps of the scenario and its planned route",
        || CliCommand::Render(CliOptions::default())),
    (PLAN, "plan", "the plan JSON, byte-identical to serve's POST /v1/plan",
        || CliCommand::Plan(CliOptions::default())),
    (SIMULATE, "simulate", "simulate one planner and print its metric reports",
        || CliCommand::Simulate(CliOptions::default())),
    (COMPARE, "compare", "every planner on the same scenario, one table",
        || CliCommand::Compare(CliOptions::default())),
    (DYNAMICS, "dynamics", "seeded disruptions with online replanning, per-phase delays",
        || CliCommand::Dynamics(DynamicsOptions::default())),
    // Empty axes mean "not given": `finish` fills them in.
    (SWEEP, "sweep", "parallel replication sweep over the product of the axes",
        || CliCommand::Sweep(SweepOptions { seeds: vec![], mule_counts: vec![],
                                            ..Default::default() })),
    (BENCH_TOURS, "bench-tours", "the tracked tour-engine benchmark (exact vs. candidate lists)",
        || CliCommand::BenchTours(BenchToursOptions::default())),
    (BENCH_ROUTES, "bench-routes", "the tracked road-routing benchmark (Dijkstra vs. A* vs. ALT)",
        || CliCommand::BenchRoutes(BenchRoutesOptions::default())),
    (BENCH_SCALE, "bench-scale", "the tracked memory-scale benchmark (matrix-free vs. matrix)",
        || CliCommand::BenchScale(BenchScaleOptions::default())),
    (SERVE, "serve", "the planning-service daemon (see docs/SERVER.md)",
        || CliCommand::Serve(ServeOptions::default())),
    (LOADGEN, "loadgen", "the tracked server load benchmark against a running server",
        || CliCommand::Loadgen(LoadgenOptions::default())),
    (CHAOS, "chaos", "self-checking fault-injection drill (docs/RELIABILITY.md)",
        || CliCommand::Chaos(ChaosOptions::default())),
];

/// One command-line flag, declared once: parsing and usage both read it.
struct Flag {
    /// The spelling plus value hint, as the usage shows it
    /// (`"--targets N"`); a bare name is a switch.
    usage: &'static str,
    /// Help text (the usage wraps it).
    help: &'static str,
    /// The subcommands whose runner reads the flag; it is unknown to the
    /// others.
    subs: u16,
    /// Writes a value into a command of one of `subs`; `None` rejects the
    /// value. Switches get an empty value.
    set: fn(&mut CliCommand, &str) -> Option<()>,
    /// Reads the default the flag documents from a fresh command.
    default: fn(&mut CliCommand) -> Option<String>,
}

impl Flag {
    fn name(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or(self.usage)
    }

    fn takes_value(&self) -> bool {
        self.usage.contains(' ')
    }
}

/// Parses one flag value.
fn num<T: FromStr>(value: &str) -> Option<T> {
    value.parse().ok()
}

/// Parses a non-empty comma-separated list ("1,2,3").
fn list<T: FromStr>(value: &str) -> Option<Vec<T>> {
    let items: Vec<T> = value
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(num)
        .collect::<Option<_>>()?;
    (!items.is_empty()).then_some(items)
}

/// Renders a list the way [`list`] parses it.
fn joined<T: ToString>(items: &[T]) -> String {
    items.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

/// Writes a parsed value into its field (the `Some` keeps setters one
/// expression long).
fn store<T>(slot: &mut T, value: T) -> Option<()> {
    *slot = value;
    Some(())
}

/// Parses a count floored at 1 (zero workers, samples or requests would
/// deadlock or measure nothing).
fn positive(value: &str) -> Option<usize> {
    Some(num::<usize>(value)?.max(1))
}

/// Parses a millisecond count into a duration of at least 1 ms.
fn millis(value: &str) -> Option<Duration> {
    Some(Duration::from_millis(num::<u64>(value)?.max(1)))
}

/// A documented default, as the usage shows it.
fn show(value: impl ToString) -> Option<String> {
    Some(value.to_string())
}

/// Every flag of every subcommand, in usage order.
#[rustfmt::skip]
static FLAGS: &[Flag] = &[
    Flag { usage: "--targets N", subs: SCENARIO | LOADGEN | CHAOS, help: "number of targets",
        set: |c, v| store(&mut c.spec()?.targets, num(v)?), default: |c| show(c.spec()?.targets) },
    Flag { usage: "--mules N", subs: SCENARIO | LOADGEN | CHAOS, help: "number of data mules",
        set: |c, v| store(&mut c.spec()?.mules, num(v)?), default: |c| show(c.spec()?.mules) },
    Flag { usage: "--seed S", subs: SCENARIO | BENCHES | LOADGEN | CHAOS,
        help: "seed of the scenario (loadgen: of its base spec), of the bench topology, or of \
               chaos's fault-plan firing decisions (same seed, same firing sequence)",
        set: |c, v| store(c.seed()?, num(v)?), default: |c| show(c.seed()?) },
    Flag { usage: "--vips N", subs: SCENARIO, help: "number of VIP targets",
        set: |c, v| store(&mut c.spec()?.vips, num(v)?), default: |c| show(c.spec()?.vips) },
    Flag { usage: "--vip-weight W", subs: SCENARIO, help: "weight of each VIP",
        set: |c, v| store(&mut c.spec()?.vip_weight, num(v)?),
        default: |c| show(c.spec()?.vip_weight) },
    Flag { usage: "--recharge", subs: SCENARIO,
        help: "add a recharge station (implied by --planner rw-tctp)",
        set: |c, _| store(&mut c.spec()?.recharge, true), default: |_| None },
    Flag { usage: "--planner P", subs: (SCENARIO & !COMPARE) | LOADGEN | CHAOS,
        help: "b-tctp | shortest | balancing | rw-tctp | chb | sweep | random",
        set: |c, v| store(&mut c.spec()?.planner, PlannerKind::parse(v)?.canonical_name().into()),
        default: |c| show(&c.spec()?.planner) },
    Flag { usage: "--search M", subs: PLANNING, help: "tour search: exact | candidates | auto",
        set: |c, v| store(&mut c.scenario()?.search, SearchChoice::parse(v).ok()?),
        default: |c| show(c.scenario()?.search.name()) },
    Flag { usage: "--knn K", subs: PLANNING | BENCH_TOURS | BENCH_SCALE,
        help: "candidate-list width (scenario subcommands: only with --search candidates)",
        set: |c, v| match c {
            CliCommand::BenchTours(o) => store(&mut o.params.k, positive(v)?),
            CliCommand::BenchScale(o) => store(&mut o.params.k, positive(v)?),
            c => store(&mut c.scenario()?.knn, Some(positive(v)?)),
        },
        default: |c| match c {
            CliCommand::BenchTours(o) => show(o.params.k),
            CliCommand::BenchScale(o) => show(o.params.k),
            _ => None,
        } },
    Flag { usage: "--metric M", subs: SCENARIO,
        help: "travel metric: euclidean | road | road-grid | road-planar (road scenarios snap \
               targets and sink to the network and plan and simulate over shortest road paths)",
        set: |c, v| store(&mut c.spec()?.metric, MetricSpec::parse(v)?),
        default: |c| show(c.spec()?.metric.wire_name()) },
    Flag { usage: "--horizon SECONDS", subs: SCENARIO & !RENDER,
        help: "simulation horizon, a finite number ≥ 0",
        set: |c, v| {
            let horizon = num(v).filter(|&h| ScenarioSpec::valid_horizon(h))?;
            store(&mut c.spec()?.horizon_s, horizon)
        },
        default: |c| show(c.spec()?.horizon_s) },
    Flag { usage: "--svg FILE", subs: SIMULATE, help: "write the plan as an SVG file",
        set: |c, v| store(&mut c.scenario()?.svg_path, Some(v.into())), default: |_| None },
    Flag { usage: "--csv PATH", subs: SIMULATE | SWEEP,
        help: "write CSV: simulate's traces (PATH is their prefix) or sweep's statistics",
        set: |c, v| store(&mut c.scenario()?.csv_prefix, Some(v.into())), default: |_| None },
    Flag { usage: "--width CHARS", subs: RENDER, help: "ASCII canvas width",
        set: |c, v| store(&mut c.scenario()?.canvas_width, num(v)?),
        default: |c| show(c.scenario()?.canvas_width) },
    Flag { usage: "--trace-out FILE", subs: SCENARIO | BENCH_TOURS,
        help: "write the run's span trace as Chrome trace_event JSON (open in about:tracing or \
               ui.perfetto.dev); bench-tours traces one candidates run at the largest size",
        set: |c, v| match c {
            CliCommand::BenchTours(o) => store(&mut o.trace_out, Some(v.into())),
            c => store(&mut c.scenario()?.trace_out, Some(v.into())),
        },
        default: |_| None },
    Flag { usage: "--profile", subs: SCENARIO | BENCH_TOURS,
        help: "append a per-span self-time profile table (bench-tours: of its traced run)",
        set: |c, _| match c {
            CliCommand::BenchTours(o) => store(&mut o.profile, true),
            c => store(&mut c.scenario()?.profile, true),
        },
        default: |_| None },
    Flag { usage: "--fail-targets N", subs: DYNAMICS,
        help: "targets failing mid-run (every disruption is seeded by the scenario seed)",
        set: |c, v| store(&mut c.dynamics()?.disruptions.target_failures, num(v)?),
        default: |c| show(c.dynamics()?.disruptions.target_failures) },
    Flag { usage: "--recover-after S", subs: DYNAMICS,
        help: "failed targets recover after S seconds",
        set: |c, v| store(&mut c.dynamics()?.disruptions.recover_after_s, Some(num(v)?)),
        default: |_| None },
    Flag { usage: "--late-targets N", subs: DYNAMICS, help: "targets arriving late",
        set: |c, v| store(&mut c.dynamics()?.disruptions.late_arrivals, num(v)?),
        default: |c| show(c.dynamics()?.disruptions.late_arrivals) },
    Flag { usage: "--breakdowns N", subs: DYNAMICS, help: "mules breaking down",
        set: |c, v| store(&mut c.dynamics()?.disruptions.mule_breakdowns, num(v)?),
        default: |c| show(c.dynamics()?.disruptions.mule_breakdowns) },
    Flag { usage: "--speed-windows N", subs: DYNAMICS, help: "reduced-speed windows",
        set: |c, v| store(&mut c.dynamics()?.disruptions.speed_windows, num(v)?),
        default: |c| show(c.dynamics()?.disruptions.speed_windows) },
    Flag { usage: "--speed-factor F", subs: DYNAMICS, help: "speed multiplier inside the windows",
        set: |c, v| store(&mut c.dynamics()?.disruptions.speed_factor, num(v)?),
        default: |c| show(c.dynamics()?.disruptions.speed_factor) },
    Flag { usage: "--no-replan", subs: DYNAMICS,
        help: "keep the initial plan through every disruption",
        set: |c, _| store(&mut c.dynamics()?.no_replan, true), default: |_| None },
    Flag { usage: "--seeds LIST", subs: SWEEP, help: "seed axis (default: the scenario seed)",
        set: |c, v| store(&mut c.sweep()?.seeds, list(v)?), default: |_| None },
    Flag { usage: "--mule-counts LIST", subs: SWEEP,
        help: "fleet-size axis (default: the --mules value)",
        set: |c, v| store(&mut c.sweep()?.mule_counts, list(v)?), default: |_| None },
    Flag { usage: "--speeds LIST", subs: SWEEP, help: "mule speed axis, m/s",
        set: |c, v| store(&mut c.sweep()?.speeds, list(v)?),
        default: |c| show(joined(&c.sweep()?.speeds)) },
    Flag { usage: "--disruptions LIST", subs: SWEEP,
        help: "disruption axis: none | failures | breakdowns | mixed",
        set: |c, v| store(&mut c.sweep()?.disruptions, list(v)?),
        default: |c| show(joined(&c.sweep()?.disruptions)) },
    Flag { usage: "--replicas N", subs: SWEEP, help: "replications per cell",
        set: |c, v| store(&mut c.sweep()?.replicas, num(v)?),
        default: |c| show(c.sweep()?.replicas) },
    Flag { usage: "--workers N", subs: SWEEP | SERVE,
        help: "threads: sweep's pool (0 = MULE_PAR_WORKERS or all cores), serve's handlers",
        set: |c, v| match c {
            CliCommand::Sweep(o) => store(&mut o.workers, Some(num(v)?).filter(|&n| n > 0)),
            c => store(&mut c.server()?.workers, positive(v)?),
        },
        default: |c| match c {
            CliCommand::Sweep(o) => show(o.workers.unwrap_or(0)),
            c => show(c.server()?.workers),
        } },
    Flag { usage: "--sizes LIST", subs: BENCHES,
        help: "instance sizes (bench-routes: network node counts)",
        set: |c, v| store(c.sizes()?, list(v)?), default: |c| show(joined(c.sizes()?)) },
    Flag { usage: "--exact-cap N", subs: BENCH_TOURS,
        help: "largest size timing the exact pipeline",
        set: |c, v| store(&mut c.tours()?.params.exact_cap, num(v)?),
        default: |c| show(c.tours()?.params.exact_cap) },
    Flag { usage: "--matrix-cap N", subs: BENCH_SCALE,
        help: "largest size running the O(n²) matrix-backed flavour (8·n² bytes)",
        set: |c, v| store(&mut c.scale()?.params.matrix_cap, num(v)?),
        default: |c| show(c.scale()?.params.matrix_cap) },
    Flag { usage: "--samples N", subs: BENCH_TOURS | BENCH_SCALE,
        help: "timed repetitions (the minimum is kept)",
        set: |c, v| store(c.samples()?, positive(v)?), default: |c| show(c.samples()?) },
    Flag { usage: "--queries N", subs: BENCH_ROUTES, help: "point-to-point queries per flavour",
        set: |c, v| store(&mut c.routes()?.params.queries, positive(v)?),
        default: |c| show(c.routes()?.params.queries) },
    Flag { usage: "--landmarks K", subs: BENCH_ROUTES, help: "ALT landmark count",
        set: |c, v| store(&mut c.routes()?.params.landmarks, positive(v)?),
        default: |c| show(c.routes()?.params.landmarks) },
    Flag { usage: "--json FILE", subs: BENCHES | LOADGEN,
        help: "write the report as JSON (tracked BENCH_*.json); gates fail after it is written",
        set: |c, v| match c {
            CliCommand::BenchTours(o) => store(&mut o.json_path, Some(v.into())),
            CliCommand::BenchRoutes(o) => store(&mut o.json_path, Some(v.into())),
            CliCommand::BenchScale(o) => store(&mut o.json_path, Some(v.into())),
            c => store(&mut c.loadgen()?.json_path, Some(v.into())),
        },
        default: |_| None },
    Flag { usage: "--max-ratio R", subs: BENCH_TOURS | BENCH_SCALE,
        help: "fail when a tour-length ratio exceeds R: candidates/exact (bench-tours) or \
               matrix-free/matrix-backed where both ran (bench-scale)",
        set: |c, v| match c {
            CliCommand::BenchTours(o) => store(&mut o.max_ratio, Some(num(v)?)),
            c => store(&mut c.scale()?.max_ratio, Some(num(v)?)),
        },
        default: |_| None },
    Flag { usage: "--overhead-gate R", subs: BENCH_TOURS,
        help: "fail when tracing overhead (traced/untraced time at the largest size) exceeds R \
               (CI pins 1.05)",
        set: |c, v| store(&mut c.tours()?.overhead_gate, Some(num(v)?)), default: |_| None },
    Flag { usage: "--min-speedup R", subs: BENCH_ROUTES,
        help: "fail when ALT speedup over Dijkstra falls below R at the largest network size",
        set: |c, v| store(&mut c.routes()?.min_speedup, Some(num(v)?)), default: |_| None },
    Flag { usage: "--max-bytes-per-target B", subs: BENCH_SCALE,
        help: "fail when matrix-free peak live bytes per target exceed B at any size",
        set: |c, v| store(&mut c.scale()?.max_bytes_per_target, Some(num(v)?)), default: |_| None },
    Flag { usage: "--addr HOST:PORT", subs: SERVE | LOADGEN,
        help: "bind address (serve) or server to fire at (loadgen)",
        set: |c, v| match c {
            CliCommand::Loadgen(o) => store(&mut o.params.addr, v.into()),
            c => store(&mut c.server()?.addr, v.into()),
        },
        default: |c| match c {
            CliCommand::Loadgen(o) => show(&o.params.addr),
            c => show(&c.server()?.addr),
        } },
    Flag { usage: "--cache-size N", subs: SERVE, help: "plan-cache entries (0 = off)",
        set: |c, v| store(&mut c.server()?.cache_capacity, num(v)?),
        default: |c| show(c.server()?.cache_capacity) },
    Flag { usage: "--queue-depth N", subs: SERVE, help: "concurrent connections before 503",
        set: |c, v| store(&mut c.server()?.queue_depth, positive(v)?),
        default: |c| show(c.server()?.queue_depth) },
    Flag { usage: "--slow-ms MS", subs: SERVE,
        help: "log a trace-correlated serve.slow_request event for requests slower than MS ms",
        set: |c, v| store(&mut c.server()?.slow_request_ms, Some(num(v)?)), default: |_| None },
    Flag { usage: "--deadline-ms MS", subs: SERVE | CHAOS,
        help: "per-request read/compute deadline, 504 beyond it (chaos: of the drilled server)",
        set: |c, v| store(&mut c.server()?.deadline, Some(millis(v)?)),
        default: |c| show(c.server()?.deadline?.as_millis()) },
    Flag { usage: "--breaker K", subs: SERVE,
        help: "open a route after K consecutive compute panics/timeouts (fast 503 until the \
               half-open probe closes it)",
        set: |c, v| store(&mut c.server()?.breaker_threshold, Some(positive(v)?)),
        default: |_| None },
    Flag { usage: "--breaker-cooldown-ms MS", subs: SERVE,
        help: "cooldown before the half-open probe",
        set: |c, v| store(&mut c.server()?.breaker_cooldown, millis(v)?),
        default: |c| show(c.server()?.breaker_cooldown.as_millis()) },
    Flag { usage: "--degraded", subs: SERVE,
        help: "serve last-good (stale) bytes instead of 5xx where possible (X-Cache: stale)",
        set: |c, _| store(&mut c.server()?.degraded, true), default: |_| None },
    Flag { usage: "--fault-plan SPEC", subs: SERVE | CHAOS,
        help: "arm a fault plan: point=kind[@prob][#limit],... (kinds: delay:MS | panic | io | \
               evict; see docs/RELIABILITY.md for the fault-point registry); chaos: replaces \
               its default mixed plan",
        set: |c, v| match c {
            CliCommand::Chaos(o) => store(&mut o.fault_plan, Some(v.into())),
            c => store(&mut c.serve()?.fault_plan, Some(v.into())),
        },
        default: |_| None },
    Flag { usage: "--fault-seed S", subs: SERVE, help: "seed of the fault plan's firing decisions",
        set: |c, v| store(&mut c.serve()?.fault_seed, num(v)?),
        default: |c| show(c.serve()?.fault_seed) },
    Flag { usage: "--debug-endpoints", subs: SERVE,
        help: "expose the read-only GET /debug/* introspection endpoints (traces, requests, \
               profile, alloc, events; see docs/SERVER.md)",
        set: |c, _| store(&mut c.server()?.debug_endpoints, true), default: |_| None },
    Flag { usage: "--trace-sample R", subs: SERVE,
        help: "keep this fraction of request traces in the debug ring (0..=1, deterministic \
               head sampling; slow and 5xx requests always kept)",
        set: |c, v| {
            let rate = num(v).filter(|r| (0.0..=1.0).contains(r))?;
            store(&mut c.server()?.trace_sample_rate, rate)
        },
        default: |c| show(c.server()?.trace_sample_rate) },
    Flag { usage: "--slo SPEC", subs: SERVE | LOADGEN,
        help: "SLO objectives p99_ms=MS,availability=PCT (either optional): serve tracks their \
               burn rates on /metrics; loadgen grades its report (informational, the hard gates \
               stay --max-p99/--min-rps)",
        set: |c, v| match c {
            CliCommand::Loadgen(o) => store(&mut o.params.slo, Some(SloSpec::parse(v).ok()?)),
            c => store(&mut c.server()?.slo, Some(SloSpec::parse(v).ok()?)),
        },
        default: |_| None },
    Flag { usage: "--log-level L", subs: SERVE,
        help: "structured-log stderr severity floor: debug | info | warn | error",
        set: |c, v| store(&mut c.serve()?.log_level, Severity::parse(v)?),
        default: |c| show(c.serve()?.log_level.label()) },
    Flag { usage: "--requests N", subs: LOADGEN | CHAOS,
        help: "total requests (chaos: serial requests per drill)",
        set: |c, v| store(&mut c.load()?.requests, positive(v)?),
        default: |c| show(c.load()?.requests) },
    Flag { usage: "--connections M", subs: LOADGEN, help: "concurrent connections",
        set: |c, v| store(&mut c.load()?.connections, positive(v)?),
        default: |c| show(c.load()?.connections) },
    Flag { usage: "--spec-pool K", subs: LOADGEN | CHAOS, help: "distinct specs rotated through",
        set: |c, v| store(&mut c.load()?.spec_pool, positive(v)?),
        default: |c| show(c.load()?.spec_pool) },
    Flag { usage: "--max-p99 MS", subs: LOADGEN,
        help: "fail when p99 latency exceeds MS milliseconds",
        set: |c, v| store(&mut c.loadgen()?.max_p99_ms, Some(num(v)?)), default: |_| None },
    Flag { usage: "--min-rps R", subs: LOADGEN, help: "fail when throughput falls below R req/s",
        set: |c, v| store(&mut c.loadgen()?.min_rps, Some(num(v)?)), default: |_| None },
    Flag { usage: "--retries N", subs: LOADGEN,
        help: "retry budget per request on 503 (seeded jittered backoff honouring Retry-After)",
        set: |c, v| store(&mut c.load()?.retry_budget, num(v)?),
        default: |c| show(c.load()?.retry_budget) },
    Flag { usage: "--duration-s S", subs: LOADGEN,
        help: "run for S seconds instead of a fixed request count (--requests is ignored)",
        set: |c, v| {
            let seconds = num(v).filter(|&s: &f64| s > 0.0)?;
            store(&mut c.load()?.duration, Some(Duration::try_from_secs_f64(seconds).ok()?))
        },
        default: |_| None },
    Flag { usage: "--warmup K", subs: LOADGEN,
        help: "discard the first K requests' latencies from the histogram (steady state)",
        set: |c, v| store(&mut c.load()?.warmup, num(v)?), default: |c| show(c.load()?.warmup) },
];

/// Parses the argument list (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<CliCommand, CliError> {
    let name = args.first().ok_or(CliError::MissingCommand)?;
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(CliCommand::Help);
    }
    let &(sub, _, _, fresh) = SUBCOMMANDS
        .iter()
        .find(|s| s.1 == name.as_str())
        .ok_or_else(|| CliError::UnknownCommand(name.clone()))?;
    let mut command = fresh();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        let flag = FLAGS
            .iter()
            .find(|f| f.subs & sub != 0 && f.name() == arg.as_str())
            .ok_or_else(|| CliError::UnknownFlag(arg.clone()))?;
        let value = match flag.takes_value() {
            true => rest
                .next()
                .ok_or_else(|| CliError::MissingValue(arg.clone()))?
                .as_str(),
            false => "",
        };
        (flag.set)(&mut command, value).ok_or_else(|| CliError::InvalidValue {
            flag: arg.clone(),
            value: value.to_string(),
        })?;
    }
    command.finish()
}

/// Appends `lead` padded to `indent` columns, then `text` word-wrapped to
/// 80 columns with continuation lines indented to the same column.
fn push_wrapped(out: &mut String, lead: &str, text: &str, indent: usize) {
    let mut line = format!("{lead:<indent$}");
    for word in text.split_whitespace() {
        let started = line.len() > indent;
        if started && line.chars().count() + 1 + word.chars().count() > 80 {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(indent);
        } else if started {
            line.push(' ');
        }
        line.push_str(word);
    }
    out.push_str(line.trim_end());
    out.push('\n');
}

/// The flag's documented default on each subcommand that reads it, read
/// from a fresh command: `[default: V]` when every such subcommand agrees,
/// `[default: V for a, b; W for c]` otherwise.
fn default_note(flag: &Flag) -> String {
    let mut groups: Vec<(String, Vec<&str>)> = Vec::new();
    let reading = SUBCOMMANDS.iter().filter(|s| flag.subs & s.0 != 0);
    for &(_, name, _, fresh) in reading.clone() {
        let Some(value) = (flag.default)(&mut fresh()) else {
            continue;
        };
        match groups.iter_mut().find(|(v, _)| *v == value) {
            Some((_, subs)) => subs.push(name),
            None => groups.push((value, vec![name])),
        }
    }
    match groups.as_slice() {
        [] => String::new(),
        [(value, subs)] if subs.len() == reading.count() => format!(" [default: {value}]"),
        _ => {
            let parts: Vec<String> = groups
                .iter()
                .map(|(value, subs)| format!("{value} for {}", subs.join(", ")))
                .collect();
            format!(" [default: {}]", parts.join("; "))
        }
    }
}

/// Renders the usage text from the subcommand and flag tables.
fn render_usage() -> String {
    let mut out = String::from(
        "patrolctl — data-mule patrolling toolkit (B-TCTP / W-TCTP / RW-TCTP)\n\n\
         USAGE:\n    patrolctl <subcommand> [flags]\n\n\
         SUBCOMMANDS (each reads only the flags listed under it):\n",
    );
    for &(sub, name, summary, _) in &SUBCOMMANDS {
        push_wrapped(&mut out, &format!("    {name}"), summary, 19);
        let flags: Vec<&str> = FLAGS
            .iter()
            .filter(|f| f.subs & sub != 0)
            .map(Flag::name)
            .collect();
        push_wrapped(&mut out, "", &flags.join(" "), 19);
    }
    out.push_str("    help           print this text\n\nFLAGS:\n");
    for flag in FLAGS {
        let text = format!("{}{}", flag.help, default_note(flag));
        push_wrapped(&mut out, &format!("    {}", flag.usage), &text, 29);
    }
    out.push_str(EXAMPLES);
    out
}

const EXAMPLES: &str = "
EXAMPLES:
    patrolctl dynamics --targets 12 --mules 4 --fail-targets 1 \\
        --breakdowns 1 --recover-after 8000
    patrolctl sweep --targets 12 --seeds 1,2,3,4 --mule-counts 2,4 \\
        --disruptions none,mixed --replicas 20 --csv sweep.csv
    patrolctl plan --targets 12 --mules 3 --metric road
    patrolctl bench-tours --sizes 50,200,1000 --json BENCH_tours.json --max-ratio 1.02
    patrolctl serve --deadline-ms 500 --breaker 3 --degraded --debug-endpoints
    patrolctl loadgen --duration-s 30 --warmup 100 --slo p99_ms=250 --json BENCH_server.json
    patrolctl chaos --requests 40 --spec-pool 4
";

/// The usage text printed by `patrolctl help` (and after a parse error),
/// rendered from the flag table.
pub static USAGE: LazyLock<String> = LazyLock::new(render_usage);
#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_missing_command() {
        assert_eq!(parse_args(&argv("help")).unwrap(), CliCommand::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), CliCommand::Help);
        assert_eq!(parse_args(&[]).unwrap_err(), CliError::MissingCommand);
        assert!(matches!(
            parse_args(&argv("frobnicate")).unwrap_err(),
            CliError::UnknownCommand(_)
        ));
    }

    #[test]
    fn defaults_apply_when_no_flags_given() {
        let CliCommand::Simulate(opts) = parse_args(&argv("simulate")).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(opts, CliOptions::default());
    }

    #[test]
    fn flags_override_defaults() {
        let cmd = parse_args(&argv(
            "simulate --targets 25 --mules 6 --seed 9 --vips 3 --vip-weight 4 \
             --planner balancing --horizon 12345 --recharge",
        ))
        .unwrap();
        let CliCommand::Simulate(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.spec.targets, 25);
        assert_eq!(opts.spec.mules, 6);
        assert_eq!(opts.spec.seed, 9);
        assert_eq!(opts.spec.vips, 3);
        assert_eq!(opts.spec.vip_weight, 4);
        assert_eq!(
            opts.spec.planner,
            PlannerKind::WTctpBalancing.canonical_name()
        );
        assert_eq!(opts.spec.horizon_s, 12345.0);
        assert!(opts.spec.recharge);
    }

    #[test]
    fn planner_names_parse_case_insensitively() {
        assert_eq!(PlannerKind::parse("B-TCTP").unwrap(), PlannerKind::BTctp);
        assert_eq!(PlannerKind::parse("ChB").unwrap(), PlannerKind::Chb);
        assert_eq!(PlannerKind::parse("rw-tctp").unwrap(), PlannerKind::RwTctp);
        assert!(PlannerKind::parse("nonsense").is_none());
    }

    #[test]
    fn rw_tctp_implies_a_recharge_station() {
        let CliCommand::Simulate(opts) = parse_args(&argv("simulate --planner rw-tctp")).unwrap()
        else {
            panic!()
        };
        assert!(opts.spec.recharge);
    }

    #[test]
    fn malformed_and_unknown_flags_are_reported() {
        assert!(matches!(
            parse_args(&argv("render --bogus 1")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse_args(&argv("render --targets")).unwrap_err(),
            CliError::MissingValue(_)
        ));
        assert!(matches!(
            parse_args(&argv("render --targets abc")).unwrap_err(),
            CliError::InvalidValue { .. }
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(CliError::MissingCommand.to_string().contains("subcommand"));
        assert!(CliError::UnknownFlag("--x".into())
            .to_string()
            .contains("--x"));
        assert!(CliError::InvalidValue {
            flag: "--targets".into(),
            value: "abc".into()
        }
        .to_string()
        .contains("abc"));
        assert!(USAGE.contains("patrolctl"));
    }

    #[test]
    fn dynamics_defaults_apply_when_no_flags_given() {
        let CliCommand::Dynamics(opts) = parse_args(&argv("dynamics")).unwrap() else {
            panic!("expected dynamics");
        };
        assert_eq!(opts, DynamicsOptions::default());
        assert_eq!(opts.disruptions.target_failures, 1);
        assert_eq!(opts.disruptions.mule_breakdowns, 1);
        assert_eq!(opts.disruptions.late_arrivals, 0);
        assert!(opts.disruptions.recover_after_s.is_none());
        assert!(!opts.no_replan);
    }

    #[test]
    fn dynamics_flags_parse_alongside_shared_flags() {
        let cmd = parse_args(&argv(
            "dynamics --targets 12 --mules 5 --seed 9 --fail-targets 2 \
             --recover-after 8000 --late-targets 1 --breakdowns 2 \
             --speed-windows 1 --speed-factor 0.25 --no-replan",
        ))
        .unwrap();
        let CliCommand::Dynamics(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.base.spec.targets, 12);
        assert_eq!(opts.base.spec.mules, 5);
        assert_eq!(opts.base.spec.seed, 9);
        assert_eq!(opts.disruptions.target_failures, 2);
        assert_eq!(opts.disruptions.recover_after_s, Some(8000.0));
        assert_eq!(opts.disruptions.late_arrivals, 1);
        assert_eq!(opts.disruptions.mule_breakdowns, 2);
        assert_eq!(opts.disruptions.speed_windows, 1);
        assert_eq!(opts.disruptions.speed_factor, 0.25);
        assert!(opts.no_replan);
    }

    #[test]
    fn dynamics_flags_are_rejected_on_other_subcommands() {
        assert!(matches!(
            parse_args(&argv("simulate --fail-targets 2")).unwrap_err(),
            CliError::UnknownFlag(f) if f == "--fail-targets"
        ));
        assert!(matches!(
            parse_args(&argv("render --no-replan")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
    }

    #[test]
    fn dynamics_usage_is_documented() {
        assert!(USAGE.contains("dynamics"));
        assert!(USAGE.contains("--fail-targets"));
        assert!(USAGE.contains("--no-replan"));
        assert!(
            USAGE.contains("patrolctl dynamics"),
            "usage shows an example"
        );
    }

    #[test]
    fn sweep_defaults_derive_axes_from_shared_flags() {
        let CliCommand::Sweep(opts) = parse_args(&argv("sweep")).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(opts, SweepOptions::default());
        assert_eq!(opts.seeds, vec![1]);
        assert_eq!(opts.mule_counts, vec![4]);
        assert_eq!(opts.disruptions, vec![DisruptionPreset::None]);
        assert_eq!(opts.replicas, 8);
        assert!(opts.workers.is_none());

        // `--seed` / `--mules` seed the axes when the axis flags are absent.
        let CliCommand::Sweep(opts) = parse_args(&argv("sweep --seed 9 --mules 6")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.seeds, vec![9]);
        assert_eq!(opts.mule_counts, vec![6]);
    }

    #[test]
    fn sweep_axis_flags_parse_comma_lists() {
        let cmd = parse_args(&argv(
            "sweep --targets 12 --seeds 1,2,3 --mule-counts 2,4 --speeds 1.5,3 \
             --disruptions none,failures,mixed --replicas 5 --workers 2 --csv out.csv",
        ))
        .unwrap();
        let CliCommand::Sweep(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.base.spec.targets, 12);
        assert_eq!(opts.seeds, vec![1, 2, 3]);
        assert_eq!(opts.mule_counts, vec![2, 4]);
        assert_eq!(opts.speeds, vec![1.5, 3.0]);
        assert_eq!(
            opts.disruptions,
            vec![
                DisruptionPreset::None,
                DisruptionPreset::Failures,
                DisruptionPreset::Mixed
            ]
        );
        assert_eq!(opts.replicas, 5);
        assert_eq!(opts.workers, Some(2));
        assert_eq!(opts.base.csv_prefix.as_deref(), Some("out.csv"));
    }

    #[test]
    fn sweep_rejects_malformed_lists_and_unknown_presets() {
        assert!(matches!(
            parse_args(&argv("sweep --seeds 1,x,3")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--seeds"
        ));
        assert!(matches!(
            parse_args(&argv("sweep --disruptions tornado")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--disruptions"
        ));
        assert!(matches!(
            parse_args(&argv("sweep --speeds ,")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--speeds"
        ));
        // Empty lists report the same error on every axis.
        assert!(matches!(
            parse_args(&argv("sweep --disruptions ,")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--disruptions"
        ));
        // `--workers 0` means "auto", not zero threads.
        let CliCommand::Sweep(opts) = parse_args(&argv("sweep --workers 0")).unwrap() else {
            panic!()
        };
        assert!(opts.workers.is_none());
    }

    #[test]
    fn sweep_flags_are_rejected_on_other_subcommands() {
        assert!(matches!(
            parse_args(&argv("simulate --seeds 1,2")).unwrap_err(),
            CliError::UnknownFlag(f) if f == "--seeds"
        ));
        assert!(matches!(
            parse_args(&argv("dynamics --replicas 3")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
    }

    #[test]
    fn disruption_preset_names_parse_case_insensitively() {
        assert_eq!(
            DisruptionPreset::parse("NONE").unwrap(),
            DisruptionPreset::None
        );
        assert_eq!(
            DisruptionPreset::parse("Failures").unwrap(),
            DisruptionPreset::Failures
        );
        assert_eq!(
            DisruptionPreset::parse("breakdown").unwrap(),
            DisruptionPreset::Breakdowns
        );
        assert!(DisruptionPreset::parse("everything").is_err());
    }

    #[test]
    fn sweep_usage_is_documented() {
        assert!(USAGE.contains("sweep"));
        assert!(USAGE.contains("--mule-counts"));
        assert!(USAGE.contains("--disruptions"));
        assert!(USAGE.contains("patrolctl sweep"), "usage shows an example");
    }

    #[test]
    fn search_flags_parse_on_scenario_subcommands() {
        let CliCommand::Simulate(opts) =
            parse_args(&argv("simulate --search candidates --knn 12")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.search, SearchChoice::Candidates);
        assert_eq!(opts.knn, Some(12));
        assert_eq!(
            opts.search.to_mode(opts.knn),
            mule_graph::SearchMode::Candidates(12)
        );

        let CliCommand::Render(opts) = parse_args(&argv("render --search exact")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.search, SearchChoice::Exact);
        assert_eq!(opts.search.to_mode(None), mule_graph::SearchMode::Exact);

        // Default is auto; --knn without --search candidates is rejected
        // (auto would silently ignore it).
        assert_eq!(CliOptions::default().search, SearchChoice::Auto);
        assert!(matches!(
            parse_args(&argv("simulate --knn 5")).unwrap_err(),
            CliError::RequiresFlag { flag, .. } if flag == "--knn"
        ));
        assert!(matches!(
            parse_args(&argv("simulate --search exact --knn 5")).unwrap_err(),
            CliError::RequiresFlag { .. }
        ));
        assert!(CliError::RequiresFlag {
            flag: "--knn".into(),
            requires: "--search candidates".into()
        }
        .to_string()
        .contains("requires"));
        // Flag order does not matter for the pairing.
        assert!(parse_args(&argv("simulate --knn 5 --search candidates")).is_ok());
        assert!(SearchChoice::parse("fuzzy").is_err());
        assert_eq!(
            SearchChoice::parse("CANDIDATES").unwrap(),
            SearchChoice::Candidates
        );
        // A candidates choice without --knn uses the engine default.
        assert_eq!(
            SearchChoice::Candidates.to_mode(None),
            mule_graph::SearchMode::Candidates(mule_graph::chb::DEFAULT_CANDIDATES_K)
        );
    }

    #[test]
    fn bench_tours_defaults_and_flags() {
        let CliCommand::BenchTours(opts) = parse_args(&argv("bench-tours")).unwrap() else {
            panic!("expected bench-tours");
        };
        assert_eq!(opts, BenchToursOptions::default());
        assert_eq!(opts.params.sizes, vec![50, 200, 1000, 5000]);
        assert_eq!(opts.params.seed, 42);
        assert_eq!(opts.params.exact_cap, 1000);
        assert!(opts.json_path.is_none());
        assert!(opts.max_ratio.is_none());

        let cmd = parse_args(&argv(
            "bench-tours --sizes 50,200 --seed 9 --knn 8 --exact-cap 300 \
             --samples 2 --json out.json --max-ratio 1.02",
        ))
        .unwrap();
        let CliCommand::BenchTours(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.params.sizes, vec![50, 200]);
        assert_eq!(opts.params.seed, 9);
        assert_eq!(opts.params.k, 8);
        assert_eq!(opts.params.exact_cap, 300);
        assert_eq!(opts.params.samples, 2);
        assert_eq!(opts.json_path.as_deref(), Some("out.json"));
        assert_eq!(opts.max_ratio, Some(1.02));
    }

    #[test]
    fn bench_tours_rejects_scenario_flags_and_bad_values() {
        assert!(matches!(
            parse_args(&argv("bench-tours --targets 10")).unwrap_err(),
            CliError::UnknownFlag(f) if f == "--targets"
        ));
        assert!(matches!(
            parse_args(&argv("bench-tours --sizes 50,x")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--sizes"
        ));
        assert!(matches!(
            parse_args(&argv("bench-tours --json")).unwrap_err(),
            CliError::MissingValue(_)
        ));
        // bench flags are rejected elsewhere.
        assert!(matches!(
            parse_args(&argv("simulate --sizes 50")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(USAGE.contains("bench-tours"));
        assert!(USAGE.contains("--max-ratio"));
    }

    #[test]
    fn bench_scale_defaults_and_flags() {
        let CliCommand::BenchScale(opts) = parse_args(&argv("bench-scale")).unwrap() else {
            panic!("expected bench-scale");
        };
        assert_eq!(opts, BenchScaleOptions::default());
        assert_eq!(opts.params.sizes, vec![10_000, 100_000]);
        assert_eq!(opts.params.seed, 42);
        assert_eq!(opts.params.matrix_cap, 10_000);
        assert!(opts.json_path.is_none());
        assert!(opts.max_bytes_per_target.is_none());
        assert!(opts.max_ratio.is_none());

        let cmd = parse_args(&argv(
            "bench-scale --sizes 2000,5000 --seed 9 --knn 8 --matrix-cap 3000 \
             --samples 2 --json BENCH_scale.json --max-bytes-per-target 4096 \
             --max-ratio 1.05",
        ))
        .unwrap();
        let CliCommand::BenchScale(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.params.sizes, vec![2000, 5000]);
        assert_eq!(opts.params.seed, 9);
        assert_eq!(opts.params.k, 8);
        assert_eq!(opts.params.matrix_cap, 3000);
        assert_eq!(opts.params.samples, 2);
        assert_eq!(opts.json_path.as_deref(), Some("BENCH_scale.json"));
        assert_eq!(opts.max_bytes_per_target, Some(4096.0));
        assert_eq!(opts.max_ratio, Some(1.05));
    }

    #[test]
    fn bench_scale_rejects_scenario_flags_and_bad_values() {
        assert!(matches!(
            parse_args(&argv("bench-scale --targets 10")).unwrap_err(),
            CliError::UnknownFlag(f) if f == "--targets"
        ));
        assert!(matches!(
            parse_args(&argv("bench-scale --sizes 50,x")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--sizes"
        ));
        assert!(matches!(
            parse_args(&argv("bench-scale --max-bytes-per-target")).unwrap_err(),
            CliError::MissingValue(_)
        ));
        assert!(USAGE.contains("bench-scale"));
        assert!(USAGE.contains("--max-bytes-per-target"));
        assert!(USAGE.contains("--matrix-cap"));
    }

    #[test]
    fn metric_flag_parses_on_scenario_subcommands() {
        use mule_workload::MetricSpec;
        assert_eq!(CliOptions::default().spec.metric, MetricSpec::Euclidean);
        let CliCommand::Simulate(opts) = parse_args(&argv("simulate --metric road")).unwrap()
        else {
            panic!()
        };
        assert_eq!(
            opts.spec.metric,
            MetricSpec::Road(mule_road::RoadNetKind::Grid)
        );
        let CliCommand::Plan(opts) = parse_args(&argv("plan --metric road-planar")).unwrap() else {
            panic!()
        };
        assert_eq!(
            opts.spec.metric,
            MetricSpec::Road(mule_road::RoadNetKind::Planar)
        );
        let CliCommand::Render(opts) = parse_args(&argv("render --metric EUCLIDEAN")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.spec.metric, MetricSpec::Euclidean);
        assert!(matches!(
            parse_args(&argv("simulate --metric warp")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--metric"
        ));
        assert!(USAGE.contains("--metric"));
    }

    #[test]
    fn bench_routes_defaults_and_flags() {
        let CliCommand::BenchRoutes(opts) = parse_args(&argv("bench-routes")).unwrap() else {
            panic!("expected bench-routes");
        };
        assert_eq!(opts, BenchRoutesOptions::default());
        assert_eq!(opts.params.sizes, vec![1000, 10000]);
        assert_eq!(opts.params.seed, 42);
        assert_eq!(opts.params.queries, 200);
        assert_eq!(opts.params.landmarks, 8);
        assert!(opts.json_path.is_none());
        assert!(opts.min_speedup.is_none());

        let cmd = parse_args(&argv(
            "bench-routes --sizes 500,2000 --seed 9 --queries 50 --landmarks 4 \
             --json BENCH_routes.json --min-speedup 3.0",
        ))
        .unwrap();
        let CliCommand::BenchRoutes(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.params.sizes, vec![500, 2000]);
        assert_eq!(opts.params.seed, 9);
        assert_eq!(opts.params.queries, 50);
        assert_eq!(opts.params.landmarks, 4);
        assert_eq!(opts.json_path.as_deref(), Some("BENCH_routes.json"));
        assert_eq!(opts.min_speedup, Some(3.0));

        assert!(matches!(
            parse_args(&argv("bench-routes --targets 5")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse_args(&argv("bench-routes --sizes abc")).unwrap_err(),
            CliError::InvalidValue { .. }
        ));
        assert!(USAGE.contains("bench-routes"));
        assert!(USAGE.contains("--min-speedup"));
    }

    #[test]
    fn plan_shares_the_scenario_flags() {
        let CliCommand::Plan(opts) =
            parse_args(&argv("plan --targets 12 --mules 3 --seed 7 --planner chb")).unwrap()
        else {
            panic!("expected plan");
        };
        assert_eq!(opts.spec.targets, 12);
        assert_eq!(opts.spec.mules, 3);
        assert_eq!(opts.spec.seed, 7);
        assert_eq!(opts.spec.planner, PlannerKind::Chb.canonical_name());
        assert!(USAGE.contains("plan"));
    }

    #[test]
    fn canonical_planner_names_parse_back_to_the_same_choice() {
        for choice in [
            PlannerKind::BTctp,
            PlannerKind::WTctpShortest,
            PlannerKind::WTctpBalancing,
            PlannerKind::RwTctp,
            PlannerKind::Chb,
            PlannerKind::Sweep,
            PlannerKind::Random,
        ] {
            assert_eq!(
                PlannerKind::parse(choice.canonical_name()).unwrap(),
                choice,
                "{}",
                choice.canonical_name()
            );
        }
    }

    #[test]
    fn serve_defaults_and_flags() {
        let CliCommand::Serve(opts) = parse_args(&argv("serve")).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(opts, ServeOptions::default());
        assert_eq!(opts.config.addr, "127.0.0.1:7878");

        let cmd = parse_args(&argv(
            "serve --addr 0.0.0.0:9000 --workers 8 --cache-size 256 --queue-depth 32",
        ))
        .unwrap();
        let CliCommand::Serve(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.config.addr, "0.0.0.0:9000");
        assert_eq!(opts.config.workers, 8);
        assert_eq!(opts.config.cache_capacity, 256);
        assert_eq!(opts.config.queue_depth, 32);

        // Worker/queue floors: zero would deadlock the daemon.
        let CliCommand::Serve(opts) =
            parse_args(&argv("serve --workers 0 --queue-depth 0")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.config.workers, 1);
        assert_eq!(opts.config.queue_depth, 1);
        // Cache size zero is a legal "caching off" configuration.
        let CliCommand::Serve(opts) = parse_args(&argv("serve --cache-size 0")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.config.cache_capacity, 0);

        assert!(matches!(
            parse_args(&argv("serve --targets 5")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(USAGE.contains("serve"));
        assert!(USAGE.contains("--queue-depth"));
    }

    #[test]
    fn serve_degradation_flags_parse_and_default_off() {
        // Everything off by default: the hardened paths must be opt-in so
        // the golden server bytes stay untouched.
        let defaults = ServeOptions::default();
        assert!(defaults.config.deadline.is_none());
        assert!(defaults.config.breaker_threshold.is_none());
        assert!(!defaults.config.degraded);
        assert!(defaults.fault_plan.is_none());

        let cmd = parse_args(&argv(
            "serve --deadline-ms 500 --breaker 3 --breaker-cooldown-ms 250 --degraded \
             --fault-plan serve.plan=panic@0.2 --fault-seed 99",
        ))
        .unwrap();
        let CliCommand::Serve(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.config.deadline, Some(Duration::from_millis(500)));
        assert_eq!(opts.config.breaker_threshold, Some(3));
        assert_eq!(opts.config.breaker_cooldown, Duration::from_millis(250));
        assert!(opts.config.degraded);
        assert_eq!(opts.fault_plan.as_deref(), Some("serve.plan=panic@0.2"));
        assert_eq!(opts.fault_seed, 99);

        // Floors: zero deadlines/thresholds/cooldowns make no sense.
        let CliCommand::Serve(opts) = parse_args(&argv(
            "serve --deadline-ms 0 --breaker 0 --breaker-cooldown-ms 0",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(opts.config.deadline, Some(Duration::from_millis(1)));
        assert_eq!(opts.config.breaker_threshold, Some(1));
        assert_eq!(opts.config.breaker_cooldown, Duration::from_millis(1));
        assert!(USAGE.contains("--fault-plan"));
        assert!(USAGE.contains("--breaker"));
        assert!(USAGE.contains("--degraded"));
    }

    #[test]
    fn serve_telemetry_flags_parse_and_default_off() {
        // Telemetry is opt-in: no debug surface, 1 % sampling, no SLO,
        // info-level logging by default.
        let defaults = ServeOptions::default();
        assert!(!defaults.config.debug_endpoints);
        assert_eq!(defaults.config.trace_sample_rate, 0.01);
        assert!(defaults.config.slo.is_none());
        assert_eq!(defaults.log_level, mule_obs::log::Severity::Info);

        let cmd = parse_args(&argv(
            "serve --debug-endpoints --trace-sample 0.5 \
             --slo p99_ms=250,availability=99.9 --log-level debug",
        ))
        .unwrap();
        let CliCommand::Serve(opts) = cmd else {
            panic!()
        };
        assert!(opts.config.debug_endpoints);
        assert_eq!(opts.config.trace_sample_rate, 0.5);
        let slo = opts.config.slo.unwrap();
        assert_eq!(slo.p99_ms, Some(250.0));
        assert_eq!(slo.availability_pct, Some(99.9));
        assert_eq!(opts.log_level, mule_obs::log::Severity::Debug);

        // Out-of-range sampling rates and malformed specs are rejected.
        assert!(matches!(
            parse_args(&argv("serve --trace-sample 1.5")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--trace-sample"
        ));
        assert!(matches!(
            parse_args(&argv("serve --slo p42=1")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--slo"
        ));
        assert!(matches!(
            parse_args(&argv("serve --log-level loud")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--log-level"
        ));
        assert!(USAGE.contains("--debug-endpoints"));
        assert!(USAGE.contains("--trace-sample"));
        assert!(USAGE.contains("--slo"));
        assert!(USAGE.contains("--log-level"));
    }

    #[test]
    fn loadgen_duration_warmup_and_slo_flags() {
        let defaults = LoadgenOptions::default();
        assert!(defaults.params.duration.is_none());
        assert_eq!(defaults.params.warmup, 0);
        assert!(defaults.params.slo.is_none());

        let cmd = parse_args(&argv(
            "loadgen --duration-s 30 --warmup 100 --slo p99_ms=250",
        ))
        .unwrap();
        let CliCommand::Loadgen(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.params.duration, Some(Duration::from_secs(30)));
        assert_eq!(opts.params.warmup, 100);
        assert_eq!(opts.params.slo.unwrap().p99_ms, Some(250.0));

        // A non-positive duration would spin forever or not at all, and
        // one no `Duration` can hold is rejected rather than panicking.
        for bad in ["0", "inf", "1e300"] {
            assert!(matches!(
                parse_args(&argv(&format!("loadgen --duration-s {bad}"))).unwrap_err(),
                CliError::InvalidValue { flag, .. } if flag == "--duration-s"
            ));
        }
        assert!(matches!(
            parse_args(&argv("loadgen --slo availability=250")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--slo"
        ));
        assert!(USAGE.contains("--duration-s"));
        assert!(USAGE.contains("--warmup"));
    }

    #[test]
    fn chaos_defaults_and_flags() {
        let CliCommand::Chaos(opts) = parse_args(&argv("chaos")).unwrap() else {
            panic!("expected chaos");
        };
        assert_eq!(opts, ChaosOptions::default());
        assert_eq!(opts.fault_seed, 7);
        assert_eq!(opts.load.requests, 40);

        let cmd = parse_args(&argv(
            "chaos --seed 11 --requests 80 --spec-pool 2 --targets 8 --mules 3 \
             --planner chb --fault-plan serve.plan=panic#2 --deadline-ms 300",
        ))
        .unwrap();
        let CliCommand::Chaos(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.fault_seed, 11);
        assert_eq!(opts.load.requests, 80);
        assert_eq!(opts.load.spec_pool, 2);
        assert_eq!(opts.load.base.targets, 8);
        assert_eq!(opts.load.base.mules, 3);
        assert_eq!(opts.load.base.planner, PlannerKind::Chb.canonical_name());
        assert_eq!(opts.fault_plan.as_deref(), Some("serve.plan=panic#2"));
        assert_eq!(opts.server.deadline, Some(Duration::from_millis(300)));

        assert!(matches!(
            parse_args(&argv("chaos --addr 127.0.0.1:1")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(USAGE.contains("chaos"));
    }

    #[test]
    fn loadgen_defaults_flags_and_gates() {
        let CliCommand::Loadgen(opts) = parse_args(&argv("loadgen")).unwrap() else {
            panic!("expected loadgen");
        };
        assert_eq!(opts, LoadgenOptions::default());
        assert_eq!(opts.params.requests, 1000);
        assert_eq!(opts.params.connections, 4);
        assert!(opts.max_p99_ms.is_none());

        let cmd = parse_args(&argv(
            "loadgen --addr 127.0.0.1:7979 --requests 2000 --connections 8 --spec-pool 16 \
             --targets 12 --mules 3 --seed 9 --planner chb --json BENCH_server.json \
             --max-p99 250 --min-rps 50",
        ))
        .unwrap();
        let CliCommand::Loadgen(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.params.addr, "127.0.0.1:7979");
        assert_eq!(opts.params.requests, 2000);
        assert_eq!(opts.params.connections, 8);
        assert_eq!(opts.params.spec_pool, 16);
        assert_eq!(opts.params.base.targets, 12);
        assert_eq!(opts.params.base.mules, 3);
        assert_eq!(opts.params.base.seed, 9);
        assert_eq!(opts.params.base.planner, PlannerKind::Chb.canonical_name());
        assert_eq!(opts.json_path.as_deref(), Some("BENCH_server.json"));
        assert_eq!(opts.max_p99_ms, Some(250.0));
        assert_eq!(opts.min_rps, Some(50.0));

        let CliCommand::Loadgen(opts) = parse_args(&argv("loadgen --retries 0")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.params.retry_budget, 0, "--retries 0 disables retrying");
        assert_eq!(LoadgenOptions::default().params.retry_budget, 3);

        assert!(matches!(
            parse_args(&argv("loadgen --svg x.svg")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse_args(&argv("loadgen --max-p99 fast")).unwrap_err(),
            CliError::InvalidValue { .. }
        ));
        assert!(USAGE.contains("loadgen"));
        assert!(USAGE.contains("--max-p99"));
        assert!(USAGE.contains("--min-rps"));
    }

    #[test]
    fn trace_and_profile_flags_parse_on_scenario_and_bench_subcommands() {
        // Off by default — the golden plan bytes depend on it.
        assert!(CliOptions::default().trace_out.is_none());
        assert!(!CliOptions::default().profile);

        let CliCommand::Plan(opts) =
            parse_args(&argv("plan --trace-out trace.json --profile")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.trace_out.as_deref(), Some("trace.json"));
        assert!(opts.profile);

        let CliCommand::Sweep(opts) = parse_args(&argv("sweep --trace-out s.json")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.base.trace_out.as_deref(), Some("s.json"));

        let CliCommand::BenchTours(opts) = parse_args(&argv(
            "bench-tours --overhead-gate 1.05 --trace-out t.json --profile",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(opts.overhead_gate, Some(1.05));
        assert_eq!(opts.trace_out.as_deref(), Some("t.json"));
        assert!(opts.profile);

        let CliCommand::Serve(opts) = parse_args(&argv("serve --slow-ms 250")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.config.slow_request_ms, Some(250.0));
        assert!(ServeOptions::default().config.slow_request_ms.is_none());

        assert!(matches!(
            parse_args(&argv("plan --trace-out")).unwrap_err(),
            CliError::MissingValue(_)
        ));
        assert!(USAGE.contains("--trace-out"));
        assert!(USAGE.contains("--profile"));
        assert!(USAGE.contains("--overhead-gate"));
        assert!(USAGE.contains("--slow-ms"));
    }

    #[test]
    fn svg_and_csv_paths_are_captured() {
        let CliCommand::Simulate(opts) =
            parse_args(&argv("simulate --svg plan.svg --csv run1")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.svg_path.as_deref(), Some("plan.svg"));
        assert_eq!(opts.csv_prefix.as_deref(), Some("run1"));
    }

    #[test]
    fn every_flag_takes_its_documented_default_on_each_subcommand_that_reads_it() {
        for flag in FLAGS {
            let mut reader_count = 0;
            for &(sub, name, _, fresh) in &SUBCOMMANDS {
                if flag.subs & sub == 0 {
                    continue;
                }
                reader_count += 1;
                // The documented default (or a plausible value when the flag
                // is off by default) must parse on every subcommand listed.
                let value = (flag.default)(&mut fresh()).unwrap_or_else(|| {
                    match flag.usage.split(' ').nth(1) {
                        Some("SPEC") => "p99_ms=250".to_string(),
                        Some("FILE" | "PATH") => "out.txt".to_string(),
                        _ => "3".to_string(),
                    }
                });
                let mut args = vec![name.to_string(), flag.name().to_string()];
                if flag.takes_value() {
                    args.push(value.clone());
                }
                if flag.name() == "--knn" && sub & PLANNING != 0 {
                    args.extend(["--search".to_string(), "candidates".to_string()]);
                }
                assert!(
                    parse_args(&args).is_ok(),
                    "`patrolctl {}` should parse",
                    args.join(" ")
                );
            }
            assert!(reader_count > 0, "{} is read by no subcommand", flag.usage);
            assert!(USAGE.contains(flag.usage), "{} undocumented", flag.usage);
        }
    }

    #[test]
    fn flags_a_subcommand_never_reads_are_rejected() {
        for cmdline in [
            "plan --search exact",
            "plan --knn 6",
            "plan --svg x.svg",
            "plan --csv x",
            "plan --width 40",
            "compare --planner chb",
            "compare --svg x.svg",
            "compare --csv x",
            "compare --width 40",
            "render --horizon 100",
            "render --svg x.svg",
            "render --csv x",
            "dynamics --svg x.svg",
            "dynamics --csv x",
            "dynamics --width 40",
            "sweep --svg x.svg",
            "sweep --width 40",
            "simulate --width 40",
        ] {
            let flag = cmdline.split(' ').nth(1).unwrap();
            assert_eq!(
                parse_args(&argv(cmdline)).unwrap_err(),
                CliError::UnknownFlag(flag.to_string()),
                "{cmdline}"
            );
        }
    }

    #[test]
    fn horizons_no_simulation_can_run_are_rejected() {
        for bad in ["inf", "-inf", "nan", "-5"] {
            assert!(matches!(
                parse_args(&argv(&format!("simulate --horizon {bad}"))).unwrap_err(),
                CliError::InvalidValue { flag, .. } if flag == "--horizon"
            ));
        }
        let CliCommand::Simulate(opts) = parse_args(&argv("simulate --horizon 0")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.spec.horizon_s, 0.0);
    }
}

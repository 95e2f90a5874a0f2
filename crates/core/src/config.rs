//! Pipeline configuration and the one loader of the `QO_*` run knobs.
//!
//! # Runtime knobs
//!
//! This table is the only full list of the environment knobs. Every binary
//! and example reads them through [`RunKnobs::from_env`]; none has a flag
//! spelling. The cache, delta and thread knobs are *throughput* switches
//! that never change steering outputs (see `tests/determinism.rs`);
//! `QO_LITERALS` changes the generated workload itself.
//!
//! | Env var         | Values                            | Effect |
//! |-----------------|-----------------------------------|--------|
//! | `QO_THREADS`    | integer (`0` = all cores)         | Worker threads for the pipeline's compile-bound fan-outs ([`ParallelismConfig`]); unset/`1` = serial |
//! | `QO_CACHE`      | `on`/`1`/`true`, `off`/`0`/`false`| Compile-result cache ([`scope_opt::CacheConfig`], on by default) shared across view building, span fixpoint, recommendation, flighting, and days |
//! | `QO_DELTA`      | `on`/`1`/`true`, `off`/`0`/`false`| Delta treatment compilation ([`scope_opt::DeltaConfig`], on by default): recommendation and flighting treatment slates are priced as incremental passes over a shared per-plan base memo instead of from-scratch compiles — byte-identical results, only throughput differs |
//! | `QO_LITERALS`   | `fresh`, `sticky`, `sticky:N`, `mixed:F` | Literal-redraw policy ([`scope_workload::LiteralPolicy`]) of recurring templates: fresh per run (default), pinned per N-day epoch (`sticky:0` = forever), or a sticky fraction `F` of templates |
//! | `QO_FEATURE_CACHE` | `on`/`1`/`true`, `off`/`0`/`false`| Span-feature cache ([`crate::features::FeatureCache`], on by default): the CB context's C(S,2)+C(S,3) span co-occurrence block is built once per template and memoized keyed on `(template, span fingerprint)` instead of rebuilt per job-day — byte-identical context vectors, only throughput differs |
//! | `QO_SNAPSHOT_EVERY` | integer N days (`0` = never, default) | `experiments` only. Durable-state snapshot cadence ([`crate::snapshot::SnapshotPolicy`]): write the full steering state (bandit, SIS, flighting salt, explored set, monitor, warm span cache) to `results/snapshots/<experiment>.qosnap` at every Nth day boundary. Purely operational — steering outputs are bit-identical with snapshots on or off (`tests/snapshot_recovery.rs`); the write cost lands in `DailyReport.timings.snapshot_ns` |
//! | `QO_SNAPSHOT` | file path | `probe` only. Installs an every-day [`crate::snapshot::SnapshotPolicy`] at this path, reports per-day write cost and a timed end-of-run restore in its JSON record; the `recovery` bin's `--snapshot`/`--resume` arguments drive the CI crash-recovery smoke leg against the same format |
//! | `QO_COMPILE_BUDGET` | integer N tasks (`0`/`unlimited`/`off` = unlimited, default) | Anytime compile budget ([`scope_opt::CompileBudget`]) for the loop's *measurement-path* compiles — the counterfactual default recompiles of hinted jobs. At N tasks the optimizer's task-queue cascade stops exploring after N tasks and extracts the best plan from the partial memo (`scope_opt::tasks`). Steering-path compiles (view build, span fixpoint, recommendation, flighting) always run to completion, so hint files and reports are budget-invariant; shed tallies land in `DailyReport.compile_budget`. Finite-budget compiles bypass the compile cache and delta compiler (truncated results are not cacheable under unbudgeted keys), so shed decisions are a pure function of `(plan, config, budget)` — deterministic at any thread count. It never sets the fleet's stream budget ([`crate::fleet::StreamConfig::compile_budget`]), which only the `fleet` bin's `--budget` argument sets |
//! | `QO_TENANTS` | integer ≥ 1 (fleet probe default 64) | `fleet` only. Tenant count for the multi-tenant fleet probe (`crates/bench/src/bin/fleet.rs`): N per-tenant steering loops ([`crate::fleet::Fleet`]) over one process-wide [`crate::pipeline::SharedCaches`]. A serving-scale knob, not a behavior knob — each tenant's outputs are byte-identical to running it alone (`tests/fleet_determinism.rs`) |
//! | `QO_FLEET_WORKERS` | integer (`0` = all cores, default) | `fleet` only. Worker threads of the fleet's streaming job pipeline ([`crate::fleet::StreamConfig`]): workers pull job arrivals off the bounded queue and build view rows; per-tenant reduces stay serial. Pure throughput knob |
//!
//! An unset variable keeps its default; a malformed one is a
//! [`KnobError`] naming the variable (binaries exit with code 2). The
//! `quickstart` example reads the cache, delta and budget knobs and applies
//! them to its single compile. Programmatic equivalents:
//! [`PipelineConfig::parallelism`], [`PipelineConfig::cache`],
//! [`PipelineConfig::delta`], [`PipelineConfig::feature_cache`],
//! [`PipelineConfig::compile_budget`],
//! [`scope_workload::WorkloadConfig::literals`], and
//! [`crate::simulation::ProductionSim::set_snapshot_policy`].

use crate::features::FeatureCacheConfig;
use crate::fleet::StreamConfig;
use flighting::FlightBudget;
use personalizer::CbConfig;
use scope_opt::{CacheConfig, CompileBudget, DeltaConfig};
use scope_workload::LiteralPolicy;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// How the Recommendation task chooses flips (Table 3 compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecommendStrategy {
    /// Contextual bandit (production QO-Advisor).
    ContextualBandit,
    /// Uniform-at-random flip from the span (the paper's baseline).
    UniformRandom,
}

/// Data-parallelism knob for the pipeline's compile-bound fan-outs (Feature
/// Generation span computation and Recommendation recompilation). The paper's
/// production pipeline runs these tasks over hundreds of thousands of jobs
/// per day; here they shard across threads.
///
/// Results are **bit-identical at any setting**: parallel stages only run
/// pure per-job compiles, and all bandit-state mutation happens in a
/// deterministic serial reduce afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ParallelismConfig {
    /// Worker threads for the parallel stages. `None` (default) keeps the
    /// original single-threaded execution; `Some(0)` uses every available
    /// core; `Some(n)` uses exactly `n` threads.
    pub threads: Option<usize>,
}

impl ParallelismConfig {
    /// The serial default.
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: None }
    }

    /// Run fan-outs on `n` worker threads (`0` = all available cores).
    #[must_use]
    pub fn with_threads(n: usize) -> Self {
        Self { threads: Some(n) }
    }
}

/// Knobs of the daily pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub strategy: RecommendStrategy,
    /// Thread-parallelism of the per-day fan-out stages.
    pub parallelism: ParallelismConfig,
    /// Compile-result cache over the span / recommendation / validation
    /// recompiles (compilation is deterministic, so cached runs are
    /// byte-identical to uncached ones — the cache is purely a throughput
    /// knob, like `parallelism`).
    pub cache: CacheConfig,
    /// Delta treatment compilation over the recommendation/flighting
    /// slates: each plan's default compilation is frozen as a shared
    /// `scope_opt::delta::BaseMemo` and rule-flip treatments are priced
    /// incrementally against it. Byte-identical to from-scratch compiles
    /// (asserted in `tests/delta_equivalence.rs` and
    /// `tests/determinism.rs`), so — like the result caches — a pure
    /// throughput knob.
    pub delta: DeltaConfig,
    /// Span-feature cache over the CB context's span co-occurrence block
    /// (built per template, memoized across jobs and days). Featurization
    /// is deterministic, so — like the other caches — a pure throughput
    /// knob that never changes steering outputs (`tests/determinism.rs`).
    pub feature_cache: FeatureCacheConfig,
    /// Anytime compile budget for the loop's measurement-path compiles (the
    /// counterfactual default recompiles of hinted jobs). Unlimited by
    /// default; at a finite task budget the optimizer's task-queue cascade
    /// sheds exploration past the budget and extracts the best plan found so
    /// far from the partial memo ([`scope_opt::tasks`]). Steering-path
    /// compiles always run unlimited, so hint files and reports never depend
    /// on this knob; shed tallies surface in
    /// [`crate::pipeline::DailyReport::compile_budget`].
    pub compile_budget: CompileBudget,
    /// Contextual bandit hyper-parameters.
    pub cb: CbConfig,
    /// Flighting budget per daily batch.
    pub flight_budget: FlightBudget,
    /// Validation threshold on predicted PNhours delta: only jobs whose
    /// predicted delta is below this pass (§4.3; paper uses −0.1).
    pub validation_threshold: f64,
    /// Reward clipping bound (§4.2; paper clips the cost ratio at 2.0).
    pub reward_clip: f64,
    /// Maximum span-fixpoint recompilation passes.
    pub span_max_iterations: usize,
    /// Prune recommendations whose recompiled estimated cost is not better
    /// than the default. Disabling this reproduces the §5.2 ablation where
    /// flighting drowns in orders-of-magnitude-worse plans.
    pub est_cost_gate: bool,
    /// Cap on flights per day (one representative job per template).
    pub max_flights_per_day: usize,
    /// Maximum span size used for third-order interaction features (keeps
    /// the feature count bounded on long-tail spans).
    pub max_span_for_triples: usize,
    /// §8 stateful mode: skip jobs whose template was already flighted on a
    /// previous day (it will be re-examined only if its plan changes, i.e.
    /// its template id changes). Off by default, as in the paper.
    pub skip_explored: bool,
    /// Include the job span (and its co-occurrence interactions) in the CB
    /// context. The paper found these features "critical to our success"
    /// (§6); disabling them is the span-features ablation.
    pub span_features: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            strategy: RecommendStrategy::ContextualBandit,
            parallelism: ParallelismConfig::serial(),
            cache: CacheConfig::default(),
            delta: DeltaConfig::default(),
            feature_cache: FeatureCacheConfig::default(),
            compile_budget: CompileBudget::unlimited(),
            cb: CbConfig::default(),
            flight_budget: FlightBudget::default(),
            validation_threshold: -0.1,
            reward_clip: 2.0,
            span_max_iterations: 6,
            est_cost_gate: true,
            max_flights_per_day: 48,
            max_span_for_triples: 12,
            skip_explored: false,
            span_features: true,
        }
    }
}

/// Every `QO_*` run knob of the [module table](self), loaded in one place.
/// Each entry point uses the knobs that apply to it and ignores the rest.
#[derive(Debug, Clone)]
pub struct RunKnobs {
    /// [`PipelineConfig::default`] with `QO_THREADS`, `QO_CACHE`,
    /// `QO_DELTA`, `QO_FEATURE_CACHE` and `QO_COMPILE_BUDGET` applied.
    pub pipeline: PipelineConfig,
    /// `QO_LITERALS` (default [`LiteralPolicy::FreshEachRun`]).
    pub literals: LiteralPolicy,
    /// `QO_SNAPSHOT_EVERY` in days (`0` = never, the default).
    pub snapshot_every: u32,
    /// `QO_SNAPSHOT` (unset by default).
    pub snapshot: Option<PathBuf>,
    /// `QO_TENANTS` (unset = the fleet probe's own default).
    pub tenants: Option<usize>,
    /// [`StreamConfig::default`] with `QO_FLEET_WORKERS` applied. Its
    /// compile budget stays unlimited: `QO_COMPILE_BUDGET` is a
    /// measurement-path budget and never reaches the stream.
    pub stream: StreamConfig,
}

/// A malformed `QO_*` value: which variable, what it held, and why it was
/// rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    pub var: &'static str,
    pub value: String,
    pub reason: String,
}

impl std::fmt::Display for KnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad {}=`{}`: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for KnobError {}

impl RunKnobs {
    /// Load every knob from the process environment.
    pub fn from_env() -> Result<Self, KnobError> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// [`RunKnobs::from_env`] for binaries: print the error and exit with
    /// code 2 on a malformed value.
    #[must_use]
    pub fn from_env_or_exit() -> Self {
        Self::from_env().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Load every knob through `lookup` (variable name → value, `None` =
    /// unset), so tests can inject a map instead of mutating the process
    /// environment.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, KnobError> {
        let read = |var: &'static str| lookup(var).map(|value| (var, value));
        let mut pipeline = PipelineConfig::default();
        if let Some(n) = knob(read("QO_THREADS"), count)? {
            pipeline.parallelism = ParallelismConfig::with_threads(n);
        }
        if knob(read("QO_CACHE"), switch)? == Some(false) {
            pipeline.cache = CacheConfig::disabled();
        }
        if knob(read("QO_DELTA"), switch)? == Some(false) {
            pipeline.delta = DeltaConfig::disabled();
        }
        if knob(read("QO_FEATURE_CACHE"), switch)? == Some(false) {
            pipeline.feature_cache = FeatureCacheConfig::disabled();
        }
        if let Some(budget) = knob(read("QO_COMPILE_BUDGET"), CompileBudget::parse)? {
            pipeline.compile_budget = budget;
        }
        let mut stream = StreamConfig::default();
        if let Some(workers) = knob(read("QO_FLEET_WORKERS"), count)? {
            stream.workers = workers;
        }
        Ok(Self {
            pipeline,
            literals: knob(read("QO_LITERALS"), str::parse)?.unwrap_or_default(),
            snapshot_every: knob(read("QO_SNAPSHOT_EVERY"), count)?.unwrap_or(0),
            snapshot: knob(read("QO_SNAPSHOT"), |v| Ok(PathBuf::from(v)))?,
            tenants: knob(read("QO_TENANTS"), |v| match count(v)? {
                0 => Err("expected an integer >= 1".to_string()),
                n => Ok(n),
            })?,
            stream,
        })
    }
}

/// Parse one looked-up `(variable, value)` pair, naming the variable on
/// failure.
fn knob<T>(
    entry: Option<(&'static str, String)>,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, KnobError> {
    entry
        .map(|(var, value)| parse(&value).map_err(|reason| KnobError { var, value, reason }))
        .transpose()
}

/// The on/off vocabulary shared by every switch knob.
fn switch(value: &str) -> Result<bool, String> {
    match value {
        "on" | "1" | "true" => Ok(true),
        "off" | "0" | "false" => Ok(false),
        _ => Err("expected on|off".to_string()),
    }
}

fn count<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| "expected a non-negative integer".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = PipelineConfig::default();
        assert_eq!(c.strategy, RecommendStrategy::ContextualBandit);
        assert!(
            (c.validation_threshold + 0.1).abs() < 1e-12,
            "paper threshold is -0.1"
        );
        assert!((c.reward_clip - 2.0).abs() < 1e-12, "paper clips at 2.0");
        assert!(c.est_cost_gate, "cost gate on by default (§5.2)");
    }

    fn load(pairs: &[(&str, &str)]) -> Result<RunKnobs, KnobError> {
        let map: std::collections::BTreeMap<String, String> = pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        RunKnobs::from_lookup(|var| map.get(var).cloned())
    }

    #[test]
    fn empty_environment_loads_the_defaults() {
        let k = load(&[]).unwrap();
        assert_eq!(
            format!("{:?}", k.pipeline),
            format!("{:?}", PipelineConfig::default())
        );
        assert_eq!(k.literals, LiteralPolicy::FreshEachRun);
        assert_eq!(k.snapshot_every, 0);
        assert_eq!(k.snapshot, None);
        assert_eq!(k.tenants, None);
        assert_eq!(k.stream, StreamConfig::default());
    }

    #[test]
    fn each_knob_sets_its_field() {
        let k = load(&[("QO_THREADS", "4")]).unwrap();
        assert_eq!(k.pipeline.parallelism, ParallelismConfig::with_threads(4));
        assert!(!load(&[("QO_CACHE", "off")]).unwrap().pipeline.cache.enabled);
        assert!(
            !load(&[("QO_DELTA", "false")])
                .unwrap()
                .pipeline
                .delta
                .enabled
        );
        assert!(
            !load(&[("QO_FEATURE_CACHE", "off")])
                .unwrap()
                .pipeline
                .feature_cache
                .enabled
        );
        for on in ["on", "1", "true"] {
            let k = load(&[("QO_CACHE", on), ("QO_DELTA", on), ("QO_FEATURE_CACHE", on)]).unwrap();
            assert_eq!(
                format!("{:?}", k.pipeline),
                format!("{:?}", PipelineConfig::default())
            );
        }
        let k = load(&[("QO_COMPILE_BUDGET", "64")]).unwrap();
        assert_eq!(k.pipeline.compile_budget, CompileBudget::tasks(64));
        let k = load(&[("QO_LITERALS", "sticky:3")]).unwrap();
        assert_eq!(
            k.literals,
            LiteralPolicy::Sticky {
                redraw_every_days: 3
            }
        );
        assert_eq!(
            load(&[("QO_SNAPSHOT_EVERY", "5")]).unwrap().snapshot_every,
            5
        );
        let k = load(&[("QO_SNAPSHOT", "results/s.qosnap")]).unwrap();
        assert_eq!(k.snapshot, Some(PathBuf::from("results/s.qosnap")));
        assert_eq!(load(&[("QO_TENANTS", "16")]).unwrap().tenants, Some(16));
        assert_eq!(
            load(&[("QO_FLEET_WORKERS", "3")]).unwrap().stream.workers,
            3
        );
    }

    #[test]
    fn malformed_values_name_their_variable() {
        for (var, bad) in [
            ("QO_THREADS", "many"),
            ("QO_CACHE", "bogus"),
            ("QO_DELTA", "bogus"),
            ("QO_FEATURE_CACHE", "bogus"),
            ("QO_COMPILE_BUDGET", "-3"),
            ("QO_LITERALS", "sometimes"),
            ("QO_SNAPSHOT_EVERY", "daily"),
            ("QO_TENANTS", "0"),
            ("QO_FLEET_WORKERS", "x"),
        ] {
            let err = load(&[(var, bad)]).unwrap_err();
            assert_eq!(err.var, var);
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains(var), "{err}");
        }
    }

    #[test]
    fn compile_budget_never_reaches_the_stream() {
        let k = load(&[("QO_COMPILE_BUDGET", "8"), ("QO_FLEET_WORKERS", "2")]).unwrap();
        assert_eq!(k.pipeline.compile_budget, CompileBudget::tasks(8));
        assert!(k.stream.compile_budget.is_unlimited());
        assert_eq!(
            k.stream,
            StreamConfig {
                workers: 2,
                ..StreamConfig::default()
            }
        );
    }
}

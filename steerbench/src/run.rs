//! One benchmark run: rounds of episodes until the time is up, the output
//! checks, and the metrics and run record they yield.

use crate::digest::combine;
use crate::episode::{
    fleet_day_digests, fleet_episode, restore_all, setup_fleet, setup_single, single_episode,
    Counters, Episode, RestoreItem,
};
use crate::reference::{self, Entry, Reference};
use crate::spec::{nproc, Kind, Spec};
use crate::trace::Tracer;
use qo_bench::stats::{mean, percentile};
use scope_ir::LatencyHistogram;
use serde::{Serialize, Value};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups measured per run, at least; a fleet set-up takes over a second.
const MIN_SETUPS: usize = 3;
/// Restores measured per run, at least.
const MIN_RESTORES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Samples the value summarises (1 for a single count).
    pub samples: usize,
    /// First and third quartile of those samples.
    pub q1: f64,
    pub q3: f64,
    /// The value must repeat exactly across runs of one seed.
    pub exact: bool,
}

impl Metric {
    fn of_samples(name: &'static str, unit: &'static str, better: Better, xs: &[f64]) -> Self {
        Self {
            name,
            unit,
            better,
            value: percentile(xs, 50.0),
            samples: xs.len(),
            q1: percentile(xs, 25.0),
            q3: percentile(xs, 75.0),
            exact: false,
        }
    }

    fn single(name: &'static str, unit: &'static str, better: Better, value: f64) -> Self {
        Self {
            name,
            unit,
            better,
            value,
            samples: 1,
            q1: value,
            q3: value,
            exact: false,
        }
    }

    fn count(
        name: &'static str,
        unit: &'static str,
        better: Better,
        value: f64,
        exact: bool,
    ) -> Self {
        Self {
            exact,
            ..Self::single(name, unit, better, value)
        }
    }
}

/// What a run measured and whether its outputs were right.
pub struct RunOutcome {
    pub spec: Spec,
    pub seed: u64,
    pub trace: bool,
    pub episodes: usize,
    pub traced_episodes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `matched`, `mismatched` or `none` (no recorded reference for this
    /// workload and seed).
    pub reference: &'static str,
    /// `repeated` when every episode's counters were equal, `differed`
    /// when not, `informational` for a fleet, whose shared-cache counters
    /// depend on how workers interleave.
    pub counters_repeat: &'static str,
    /// The end-to-end metrics, from the untraced rounds.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics, from the traced rounds; empty when untraced.
    pub per_layer: Vec<Metric>,
}

impl RunOutcome {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics of the result line: per-layer for a traced run,
    /// end-to-end otherwise.
    #[must_use]
    pub fn reported(&self) -> &[Metric] {
        if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and each reported
    /// metric's value and unit by name.
    ///
    /// # Errors
    ///
    /// When a value is not finite.
    pub fn result_line(&self) -> Result<String, String> {
        let metrics = self
            .reported()
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&Json(line)).map_err(|e| e.to_string())
    }
}

/// A JSON tree built by hand, rendered and parsed by `serde_json`.
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

/// Everything a run collects before it is summarised.
#[derive(Default)]
struct Collected {
    /// Episodes by round, then draw.
    untraced: Vec<Vec<Episode>>,
    traced: Vec<Vec<Episode>>,
    setup_s: Vec<f64>,
    restore_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Collected {
    fn fail(&mut self, days: u64, why: String) {
        self.failed += days;
        self.failures.push(why);
    }

    fn all(&self) -> impl Iterator<Item = &Episode> {
        self.untraced.iter().chain(&self.traced).flatten()
    }
}

/// One round: an episode of every draw. The first fleet of the first
/// untraced round and of every traced round is compared with solo runs.
fn run_round(
    spec: &Spec,
    seed: u64,
    tracer: Option<&Tracer>,
    dir: &Path,
    solo_check: bool,
) -> Vec<Episode> {
    (0..spec.draws)
        .map(|draw| match spec.kind {
            Kind::Single { .. } => single_episode(spec, seed, draw, tracer, dir),
            Kind::Fleet { .. } => {
                fleet_episode(spec, seed, draw, tracer, dir, solo_check && draw == 0)
            }
        })
        .collect()
}

/// Run `spec` for about `seconds` seconds: whole rounds, at least one,
/// untraced (alternating with traced ones when `tracer` is given).
/// Snapshot files go under `dir`.
#[must_use]
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    tracer: Option<&Tracer>,
    dir: &Path,
    reference: &Reference,
) -> RunOutcome {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut c = Collected::default();
    loop {
        let first = c.untraced.is_empty();
        c.untraced.push(run_round(spec, seed, None, dir, first));
        if let Some(tr) = tracer {
            c.traced.push(run_round(spec, seed, Some(tr), dir, true));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let (setups, restores): (Vec<f64>, Vec<f64>) =
        c.all().map(|ep| (ep.setup_s, ep.restore_ms)).unzip();
    c.setup_s = setups;
    c.restore_ms = restores;
    top_up_setups(spec, seed, &mut c);
    top_up_restores(&mut c);
    let _ = std::fs::remove_dir_all(dir);

    let reference_state = check_digests(spec, seed, reference, &mut c);
    let same = |rounds: &[Vec<Episode>]| {
        rounds.iter().all(|round| {
            round
                .iter()
                .zip(&rounds[0])
                .all(|(ep, first)| ep.counters == first.counters)
        })
    };
    let counters_repeat = if spec.tenants() > 1 {
        "informational"
    } else if same(&c.untraced) && (c.traced.is_empty() || same(&c.traced)) {
        "repeated"
    } else {
        "differed"
    };
    let end_to_end = end_to_end(&c);
    let per_layer = if tracer.is_some() {
        per_layer(spec, &c)
    } else {
        Vec::new()
    };
    let (attempted, failed, failures) = c.all().fold((0, 0, Vec::new()), |mut acc, ep| {
        acc.0 += ep.attempted;
        acc.1 += ep.failed;
        acc.2.extend(ep.failures.iter().cloned());
        acc
    });
    c.attempted += attempted;
    c.failed += failed;
    c.failures.extend(failures);
    RunOutcome {
        spec: spec.clone(),
        seed,
        trace: tracer.is_some(),
        episodes: c.untraced.len() * spec.draws as usize,
        traced_episodes: c.traced.len() * spec.draws as usize,
        attempted: c.attempted,
        failed: c.failed,
        failures: c.failures,
        reference: reference_state,
        counters_repeat,
        end_to_end,
        per_layer,
    }
}

/// The reference entry of one untraced round.
///
/// # Errors
///
/// When any episode of the round failed.
pub fn reference_entry(spec: &Spec, seed: u64, dir: &Path) -> Result<Entry, String> {
    let round = run_round(spec, seed, None, dir, false);
    if let Some(ep) = round.iter().find(|ep| ep.failed > 0) {
        return Err(format!("episode failed: {}", ep.failures.join("; ")));
    }
    let (days, history) = round_decisions(&round);
    Ok(Entry::new(spec.name, seed, &days, history))
}

/// A round's day digests, draw after draw, and the digest of its bandit
/// logs: what the reference records.
fn round_decisions(round: &[Episode]) -> (Vec<u64>, u64) {
    let days = round
        .iter()
        .flat_map(|ep| ep.digests.iter().copied())
        .collect();
    let history = combine(&round.iter().map(|ep| ep.history_digest).collect::<Vec<_>>());
    (days, history)
}

/// Set up again, without measuring days, until there are enough set-up
/// samples; each repeat's warm-up decisions must equal the first round's.
fn top_up_setups(spec: &Spec, seed: u64, c: &mut Collected) {
    let warmup = spec.warmup_days as usize;
    let tenants = u64::from(spec.tenants());
    let mut draw = 0;
    while c.setup_s.len() < MIN_SETUPS {
        c.attempted += tenants * u64::from(spec.warmup_days);
        let result = match spec.kind {
            Kind::Single { .. } => setup_single(spec, seed, draw).map(|(_, d, s)| (d, s)),
            Kind::Fleet { .. } => setup_fleet(spec, seed, draw)
                .map(|(_, per_tenant, s)| (fleet_day_digests(&per_tenant), s)),
        };
        match result {
            Ok((digests, s)) => {
                let first = &c.untraced[0][draw as usize].digests;
                if first.len() < warmup || digests[..] != first[..warmup] {
                    c.fail(
                        tenants,
                        format!("a repeated set-up of draw {draw} decided differently"),
                    );
                }
                c.setup_s.push(s);
            }
            Err(e) => {
                c.fail(tenants, e);
                return;
            }
        }
        draw = (draw + 1) % spec.draws;
    }
}

/// Restore the last round's snapshots again until there are enough restore
/// samples.
fn top_up_restores(c: &mut Collected) {
    let Some(last) = c.untraced.last() else {
        return;
    };
    let items: Vec<Vec<RestoreItem>> = last.iter().map(|ep| ep.restore_items.clone()).collect();
    for (i, items) in items.iter().cycle().enumerate() {
        if c.restore_ms.len() >= MIN_RESTORES || items.is_empty() || i >= 4 * MIN_RESTORES {
            return;
        }
        match restore_all(items, None) {
            Ok((ms, _)) => c.restore_ms.push(ms),
            Err(e) => {
                c.fail(1, e);
                return;
            }
        }
    }
}

/// Compare every episode's decisions with those of the same draw in the
/// first untraced round, and that round with the recorded reference.
/// Returns the reference state.
fn check_digests(spec: &Spec, seed: u64, reference: &Reference, c: &mut Collected) -> &'static str {
    let tenants = u64::from(spec.tenants());
    let first = &c.untraced[0];
    let mut mismatches = Vec::new();
    for (r, round) in c.untraced.iter().chain(&c.traced).enumerate().skip(1) {
        for (draw, (ep, expected)) in round.iter().zip(first).enumerate() {
            let days = differing_days(&expected.digests, &ep.digests);
            if days > 0 || ep.history_digest != expected.history_digest {
                mismatches.push((
                    days.max(1),
                    format!(
                        "round {r} draw {draw} decided differently from round 0 on {days} days"
                    ),
                ));
            }
        }
    }
    let (expected, history) = round_decisions(first);
    let state = match reference.lookup(spec.name, seed) {
        None => "none",
        Some(entry) => {
            let days = differing_days(&entry.days(), &reference::short_all(&expected));
            if days == 0 && entry.history == reference::short(history) {
                "matched"
            } else {
                mismatches.push((
                    days.max(1),
                    format!("decisions differ from the recorded reference on {days} days"),
                ));
                "mismatched"
            }
        }
    };
    for (days, why) in mismatches {
        c.fail(days * tenants, why);
    }
    state
}

fn differing_days<T: PartialEq>(a: &[T], b: &[T]) -> u64 {
    let pairs = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (pairs + a.len().abs_diff(b.len())) as u64
}

fn pooled(rounds: &[Vec<Episode>], f: impl Fn(&Episode) -> &[f64]) -> Vec<f64> {
    rounds
        .iter()
        .flatten()
        .flat_map(|ep| f(ep).iter().copied())
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    ratio_f(num as f64, den as f64)
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median measured day of each episode. `day_ms_p50` is their mean:
/// each episode's median shrugs off a few slow days, and the mean moves in
/// proportion to the share of a run a host spends in a faster or slower
/// state, where the median of all days pooled jumps between the two.
fn episode_medians(rounds: &[Vec<Episode>]) -> Vec<f64> {
    rounds
        .iter()
        .flatten()
        .map(|ep| percentile(&ep.day_ms, 50.0))
        .collect()
}

/// Mean size of the durable state one episode leaves: one tenant's, or a
/// whole fleet's.
fn snapshot_bytes(round: &[Episode]) -> f64 {
    let total: u64 = round.iter().map(|ep| ep.counters.snapshot_bytes).sum();
    total as f64 / round.len() as f64
}

/// The end-to-end metrics, from the untraced episodes.
fn end_to_end(c: &Collected) -> Vec<Metric> {
    use Better::{Higher, Lower};
    let days = pooled(&c.untraced, |ep| &ep.day_ms);
    let medians = episode_medians(&c.untraced);
    let jobs: u64 = c.untraced.iter().flatten().map(|ep| ep.counters.jobs).sum();
    let first = &c.untraced[0];
    let pn_steered: f64 = first.iter().map(|ep| ep.pn_steered).sum();
    let pn_default: f64 = first.iter().map(|ep| ep.pn_default).sum();
    let mut p90 = Metric::of_samples("day_ms_p90", "ms", Lower, &days);
    p90.value = percentile(&days, 90.0);
    vec![
        Metric::of_samples("setup_s", "s", Lower, &c.setup_s),
        Metric {
            value: mean(&medians),
            ..Metric::of_samples("day_ms_p50", "ms", Lower, &medians)
        },
        p90,
        Metric::single(
            "jobs_per_s",
            "1/s",
            Higher,
            jobs as f64 / (days.iter().sum::<f64>() / 1e3),
        ),
        Metric::single("peak_rss_mb", "MB", Lower, peak_rss_mb()),
        Metric::count(
            "pn_hours_steered_pct",
            "%",
            Lower,
            100.0 * ratio_f(pn_steered, pn_default),
            true,
        ),
        Metric::of_samples("restore_ms", "ms", Lower, &c.restore_ms),
        Metric::count(
            "snapshot_bytes",
            "bytes",
            Lower,
            snapshot_bytes(first),
            true,
        ),
    ]
}

/// The per-layer metrics, from the traced episodes (counters from the first
/// one), plus the tracing overhead.
fn per_layer(spec: &Spec, c: &Collected) -> Vec<Metric> {
    use Better::{Higher, Lower};
    let round = &c.traced[0];
    let k = &sum_counters(round);
    let mut latency = LatencyHistogram::default();
    for ep in round {
        latency.merge(&ep.latency);
    }
    // Fleet counters come from caches the tenants share, so they depend on
    // how workers interleave; single-tenant counters repeat exactly.
    let exact = spec.tenants() == 1;
    let layer = |name: &'static str| {
        let xs = pooled(&c.traced, |ep| {
            ep.layers.get(name).map_or(&[][..], Vec::as_slice)
        });
        if xs.is_empty() {
            Metric::single(name, unit_of(name), Lower, 0.0)
        } else {
            Metric::of_samples(name, unit_of(name), Lower, &xs)
        }
    };
    let count = |name, better, v: u64| Metric::count(name, "count", better, v as f64, exact);
    let rate = |name, hits: u64, lookups: u64| {
        Metric::count(name, "ratio", Higher, ratio(hits, lookups), exact)
    };
    let mut utilization = layer("fleet.utilization");
    utilization.better = Higher;
    let latency_us = |q: f64| interpolated_quantile(&latency, q) / 1e3;
    vec![
        layer("scope_workload.jobs_for_day.ms"),
        layer("scope_workload.build_view.ms"),
        count("scope_opt.compile.calls", Lower, k.compile_calls),
        layer("scope_opt.compile.ms"),
        count("scope_opt.delta.treatments", Lower, k.delta.treatments()),
        count("scope_opt.delta.full", Lower, k.delta.full),
        rate(
            "scope_opt.delta.base_hit_rate",
            k.delta.base_hits,
            k.delta.base_hits + k.delta.base_builds,
        ),
        count("scope_opt.budget.truncated", Lower, k.budget.truncated),
        rate(
            "scope_opt.cache.hit_rate",
            k.compile.hits,
            k.compile.lookups(),
        ),
        count("scope_opt.cache.inserts", Lower, k.compile.inserts),
        count("scope_opt.cache.evictions", Lower, k.compile.evictions),
        count("scope_runtime.execute.calls", Lower, k.execute_calls),
        layer("scope_runtime.execute.ms"),
        rate(
            "scope_runtime.graph_hit_rate",
            k.exec.graphs.hits,
            k.exec.graphs.lookups(),
        ),
        rate(
            "scope_runtime.result_hit_rate",
            k.exec.results.hits,
            k.exec.results.lookups(),
        ),
        layer("qo_advisor.finish_day.ms"),
        layer("pipeline.counterfactual.ms"),
        layer("pipeline.feature_gen.ms"),
        layer("pipeline.recommend.ms"),
        layer("pipeline.flight.ms"),
        layer("pipeline.validate.ms"),
        layer("pipeline.publish.ms"),
        rate(
            "pipeline.feature_cache.hit_rate",
            k.feature.hits,
            k.feature.lookups(),
        ),
        count("personalizer.events", Lower, k.personalizer_events),
        count("personalizer.history_len", Lower, k.history_len),
        Metric::count(
            "flighting.flighted",
            "count",
            Higher,
            k.flighted as f64,
            true,
        ),
        Metric::count(
            "flighting.success",
            "count",
            Higher,
            k.flight_success as f64,
            true,
        ),
        Metric::count(
            "sis.hints_published",
            "count",
            Higher,
            k.hints_published as f64,
            true,
        ),
        layer("scope_state.export.ms"),
        layer("scope_state.encode.ms"),
        layer("scope_state.write.ms"),
        layer("scope_state.read.ms"),
        layer("scope_state.import.ms"),
        Metric::count(
            "scope_state.bytes",
            "bytes",
            Lower,
            snapshot_bytes(round),
            true,
        ),
        layer("fleet.stream.busy_ms"),
        layer("fleet.reduce.busy_ms"),
        utilization,
        Metric::single("fleet.stream.job_us_p50", "us", Lower, latency_us(0.5)),
        Metric::single("fleet.stream.job_us_p99", "us", Lower, latency_us(0.99)),
        rate(
            "fleet.steer_hit_rate",
            k.compile.hits + k.feature.hits,
            k.compile.lookups() + k.feature.lookups(),
        ),
        Metric::single(
            "trace.overhead_ms",
            "ms",
            Lower,
            mean(&episode_medians(&c.traced)) - mean(&episode_medians(&c.untraced)),
        ),
    ]
}

/// Quantile `q` of a bucketed latency histogram, interpolated by rank
/// between the upper bound of the bucket holding it and that of the
/// nearest non-empty bucket below (`LatencyHistogram::quantile` reports
/// the bucket's upper bound alone). In ns.
fn interpolated_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // The value at rank `r` (1-based); the half step keeps `ceil` exact.
    let at = |r: u64| h.quantile((r as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let upper = at(rank);
    let (mut first, mut hi) = (1, rank);
    while first < hi {
        let mid = first + (hi - first) / 2;
        if at(mid) < upper {
            first = mid + 1;
        } else {
            hi = mid;
        }
    }
    let (mut last, mut hi) = (rank, n);
    while last < hi {
        let mid = last + (hi - last).div_ceil(2);
        if at(mid) > upper {
            hi = mid - 1;
        } else {
            last = mid;
        }
    }
    let lower = if first > 1 { at(first - 1) } else { 0 };
    let share = (rank - first + 1) as f64 / (last - first + 1) as f64;
    lower as f64 + (upper - lower) as f64 * share
}

/// Counters summed over a round's draws.
fn sum_counters(round: &[Episode]) -> Counters {
    let mut k = Counters::default();
    for ep in round {
        let e = &ep.counters;
        k.compile = k.compile + e.compile;
        k.exec = k.exec + e.exec;
        k.delta = k.delta + e.delta;
        k.feature = k.feature + e.feature;
        k.budget.complete += e.budget.complete;
        k.budget.truncated += e.budget.truncated;
        k.jobs += e.jobs;
        k.flighted += e.flighted;
        k.flight_success += e.flight_success;
        k.hints_published += e.hints_published;
        k.personalizer_events += e.personalizer_events;
        k.history_len += e.history_len;
        k.compile_calls += e.compile_calls;
        k.execute_calls += e.execute_calls;
    }
    k
}

fn unit_of(layer: &str) -> &'static str {
    if layer == "fleet.utilization" {
        "ratio"
    } else {
        "ms"
    }
}

/// The run record: what was run, on what, and every metric with its
/// direction and spread.
#[derive(Serialize)]
pub struct RunRecord {
    pub schema: u32,
    pub workload: String,
    pub why: String,
    /// Input size: tenants per draw, the tenant workload shape, and the
    /// days each draw runs.
    pub tenants: u32,
    pub templates: u64,
    pub instances_per_day: u32,
    pub adhoc_per_day: u64,
    pub draws: u32,
    pub warmup_days: u32,
    pub measured_days: u32,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub git_revision: String,
    pub nproc: u64,
    pub rustc: String,
    pub episodes: u64,
    pub traced_episodes: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub reference: String,
    pub counters_repeat: String,
    pub metrics: Vec<MetricRecord>,
}

#[derive(Serialize)]
pub struct MetricRecord {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub value: f64,
    pub samples: u64,
    pub q1: f64,
    pub q3: f64,
    pub exact: bool,
}

impl RunOutcome {
    #[must_use]
    pub fn record(&self, seconds: u64) -> RunRecord {
        RunRecord {
            schema: 1,
            workload: self.spec.name.to_string(),
            why: self.spec.why.to_string(),
            tenants: self.spec.tenants(),
            templates: self.spec.shape.templates as u64,
            instances_per_day: self.spec.shape.instances_per_day,
            adhoc_per_day: self.spec.shape.adhoc_per_day as u64,
            draws: self.spec.draws,
            warmup_days: self.spec.warmup_days,
            measured_days: self.spec.measured_days,
            seed: self.seed,
            seconds,
            trace: self.trace,
            git_revision: git_revision(),
            nproc: nproc() as u64,
            rustc: env!("STEERBENCH_RUSTC").to_string(),
            episodes: self.episodes as u64,
            traced_episodes: self.traced_episodes as u64,
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures.clone(),
            reference: self.reference.to_string(),
            counters_repeat: self.counters_repeat.to_string(),
            metrics: self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .map(|m| MetricRecord {
                    name: m.name.to_string(),
                    unit: m.unit.to_string(),
                    better: m.better.as_str().to_string(),
                    value: m.value,
                    samples: m.samples as u64,
                    q1: m.q1,
                    q3: m.q3,
                    exact: m.exact,
                })
                .collect(),
        }
    }
}

/// The checked-out revision, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_resolves_inside_a_bucket() {
        let mut h = LatencyHistogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = interpolated_quantile(&h, 0.5);
        assert!((p50 - 500_000.0).abs() < 0.05 * 500_000.0, "{p50}");
        assert_ne!(p50, h.quantile(0.5) as f64, "finer than the bucket bound");
        assert_eq!(
            interpolated_quantile(&LatencyHistogram::default(), 0.5),
            0.0
        );
    }
}

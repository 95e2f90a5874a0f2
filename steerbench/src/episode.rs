//! One episode of a workload: set-up (construction, validation-model
//! bootstrap, warm-up days), the measured days, and the durable-state
//! round trip at the end, with every decision digested for the output check.
//!
//! Untraced episodes call `advance_day` exactly as users do. Traced
//! single-tenant episodes drive the same days as
//! `jobs_for_day → build_view → finish_day`, handing `build_view` timing
//! wrappers around the compiler and executor, and split every snapshot into
//! export, encode and write. A traced fleet episode cannot reach inside the
//! fleet's worker pool, so it times whole fleet days and traces the solo runs
//! of the fleet-versus-solo check instead.

use crate::digest::{combine, day_digest, history_digest};
use crate::spec::{Kind, Spec, BOOTSTRAP};
use crate::trace::{job_latencies_ns, self_time, Timed, Tracer, Unit};
use qo_advisor::fleet::Fleet;
use qo_advisor::{
    BudgetStats, CacheStats, DayOutcome, DeltaStats, ExecStats, HintedComparison, PipelineConfig,
    ProductionSim, SnapshotPolicy, SteeringSnapshot,
};
use scope_ir::LatencyHistogram;
use scope_workload::{build_view, WorkloadConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Work counters over an episode's measured days, read from the existing
/// public stats and daily reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub compile: CacheStats,
    pub exec: ExecStats,
    pub delta: DeltaStats,
    pub feature: CacheStats,
    pub budget: BudgetStats,
    pub jobs: u64,
    pub flighted: u64,
    pub flight_success: u64,
    pub hints_published: u64,
    pub personalizer_events: u64,
    pub history_len: u64,
    pub snapshot_bytes: u64,
    /// Calls through the traced run's timing wrappers.
    pub compile_calls: u64,
    pub execute_calls: u64,
}

/// Lifetime stats of a set of tenants, to be differenced.
#[derive(Clone, Copy)]
struct Lifetime {
    compile: CacheStats,
    exec: ExecStats,
    delta: DeltaStats,
    feature: CacheStats,
    budget: BudgetStats,
}

impl Lifetime {
    fn of_sim(sim: &ProductionSim) -> Self {
        let a = &sim.advisor;
        Self {
            compile: a.cache_stats(),
            exec: a.exec_stats(),
            delta: a.delta_stats(),
            feature: a.feature_stats(),
            budget: a.budget_stats(),
        }
    }

    fn of_fleet(fleet: &Fleet) -> Self {
        let advisors = || fleet.tenants().iter().map(|t| &t.sim.advisor);
        Self {
            compile: fleet.compile_stats(),
            exec: fleet.exec_stats(),
            delta: advisors().map(|a| a.delta_stats()).sum(),
            feature: fleet.feature_stats(),
            budget: advisors().fold(BudgetStats::default(), |acc, a| {
                let b = a.budget_stats();
                BudgetStats {
                    complete: acc.complete + b.complete,
                    truncated: acc.truncated + b.truncated,
                }
            }),
        }
    }

    fn since(&self, earlier: &Self) -> Counters {
        Counters {
            compile: self.compile.since(&earlier.compile),
            exec: self.exec.since(&earlier.exec),
            delta: self.delta.since(&earlier.delta),
            feature: self.feature.since(&earlier.feature),
            budget: self.budget.since(&earlier.budget),
            ..Counters::default()
        }
    }
}

impl Counters {
    /// These stats-derived counters plus the report-derived ones of `days`.
    fn with_reports(self, days: &Counters) -> Counters {
        Counters {
            jobs: days.jobs,
            flighted: days.flighted,
            flight_success: days.flight_success,
            hints_published: days.hints_published,
            ..self
        }
    }
}

/// Everything one episode (one draw of a workload) measured and checked.
#[derive(Default)]
pub struct Episode {
    pub setup_s: f64,
    /// Wall time of each measured `advance_day` (a whole fleet day for a
    /// fleet), in ms.
    pub day_ms: Vec<f64>,
    /// Decision digest per day, warm-up days first, combined over tenants.
    pub digests: Vec<u64>,
    /// Digest of the bandits' logged outcomes after the measured days.
    pub history_digest: u64,
    /// PNhours of the measured days' hinted jobs, as run with their hints
    /// and as the default plan would have run (the Table-2 sums).
    pub pn_steered: f64,
    pub pn_default: f64,
    pub counters: Counters,
    /// Wall time to restore every tenant's snapshot into a fresh sim, ms.
    pub restore_ms: f64,
    /// The snapshots written at the end of the episode.
    pub restore_items: Vec<RestoreItem>,
    /// Per-layer samples by metric name (ms, or a ratio for utilization):
    /// one per measured day or tenant-day, or per traced `(tenant, day)` in
    /// which the layer ran.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Per-job steering latency (ns) over the measured days: the fleet's
    /// worker clocks, or a traced one-tenant day's compile and execute spans.
    pub latency: LatencyHistogram,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Episode {
    fn fail(&mut self, days: u64, why: String) {
        self.failed += days;
        self.failures.push(why);
    }

    fn add_comparisons(&mut self, comparisons: &[HintedComparison]) {
        for c in comparisons {
            self.pn_steered += c.steered.pn_hours;
            self.pn_default += c.default.pn_hours;
        }
    }

    fn layer(&mut self, name: &'static str, ms: f64) {
        self.layers.entry(name).or_default().push(ms);
    }

    /// Busy time of one measured day: view building (the fleet's stream
    /// phase) and `finish_day`'s stages (its reduce phase), and their share
    /// of `workers` threads over the day's wall time.
    fn busy(&mut self, stream_ns: u64, reduce_ns: u64, wall_ms: f64, workers: usize) {
        self.layer("fleet.stream.busy_ms", ns_to_ms(stream_ns));
        self.layer("fleet.reduce.busy_ms", ns_to_ms(reduce_ns));
        self.layer(
            "fleet.utilization",
            ns_to_ms(stream_ns + reduce_ns) / (wall_ms * workers as f64),
        );
    }

    fn stage_clocks(&mut self, out: &DayOutcome) {
        let t = &out.report.timings;
        for (name, ns) in [
            ("pipeline.counterfactual.ms", t.counterfactual_ns),
            ("pipeline.feature_gen.ms", t.feature_gen_ns),
            ("pipeline.recommend.ms", t.recommend_ns),
            ("pipeline.flight.ms", t.flight_ns),
            ("pipeline.validate.ms", t.validate_ns),
            ("pipeline.publish.ms", t.publish_ns),
        ] {
            self.layer(name, ns_to_ms(ns));
        }
    }
}

/// The per-stage clocks `finish_day` keeps, summed (ns).
fn finish_day_stages_ns(out: &DayOutcome) -> u64 {
    let t = &out.report.timings;
    t.counterfactual_ns
        + t.feature_gen_ns
        + t.recommend_ns
        + t.flight_ns
        + t.validate_ns
        + t.publish_ns
        + t.snapshot_ns
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn tenant_digest(sim: &ProductionSim, out: &DayOutcome) -> u64 {
    day_digest(out, &sim.advisor.sis().snapshot())
}

/// A snapshot file to restore and the configuration of the sim it belongs
/// to.
#[derive(Clone)]
pub struct RestoreItem {
    pub workload: WorkloadConfig,
    pub pipeline: PipelineConfig,
    pub path: PathBuf,
}

/// Restore every item into a fresh sim; returns the total restore wall time
/// (ms, sim construction excluded) and the restored sims. A tracer splits
/// each restore into its read and import spans.
///
/// # Errors
///
/// The first snapshot that fails to read or apply.
pub fn restore_all(
    items: &[RestoreItem],
    tracer: Option<&Tracer>,
) -> Result<(f64, Vec<ProductionSim>), String> {
    let mut total_ms = 0.0;
    let mut sims = Vec::with_capacity(items.len());
    for item in items {
        let mut sim = ProductionSim::new(item.workload.clone(), item.pipeline.clone());
        let t = Instant::now();
        let result = match tracer {
            None => sim.restore(&item.path),
            Some(tr) => tr
                .span("scope_state.read", || {
                    SteeringSnapshot::read_from(&item.path)
                })
                .and_then(|snap| tr.span("scope_state.import", || sim.import_state(&snap))),
        };
        total_ms += elapsed_ms(t);
        result.map_err(|e| format!("restore {}: {e}", item.path.display()))?;
        sims.push(sim);
    }
    Ok((total_ms, sims))
}

/// Construct a single-tenant sim, bootstrap it and run its warm-up days.
/// Returns the sim, the warm-up digests and the set-up time in seconds.
///
/// # Errors
///
/// The first bootstrap or warm-up failure.
pub fn setup_single(
    spec: &Spec,
    seed: u64,
    draw: u32,
) -> Result<(ProductionSim, Vec<u64>, f64), String> {
    let t0 = Instant::now();
    let mut sim = ProductionSim::new(spec.workload(seed, draw, 0), spec.pipeline());
    sim.bootstrap_validation_model(BOOTSTRAP.0, BOOTSTRAP.1)
        .map_err(|e| format!("bootstrap: {e}"))?;
    let mut digests = Vec::new();
    for _ in 0..spec.warmup_days {
        let out = sim
            .advance_day()
            .map_err(|e| format!("warm-up day {}: {e}", sim.day))?;
        digests.push(tenant_digest(&sim, &out));
    }
    Ok((sim, digests, t0.elapsed().as_secs_f64()))
}

/// Construct a fleet, bootstrap every tenant and run the warm-up days.
///
/// # Errors
///
/// The first bootstrap or warm-up failure.
pub fn setup_fleet(
    spec: &Spec,
    seed: u64,
    draw: u32,
) -> Result<(Fleet, Vec<Vec<u64>>, f64), String> {
    let t0 = Instant::now();
    let workloads = (0..spec.tenants())
        .map(|t| spec.workload(seed, draw, t))
        .collect();
    let mut fleet = Fleet::new(workloads, &spec.fleet_config());
    for tenant in fleet.tenants_mut() {
        tenant
            .sim
            .bootstrap_validation_model(BOOTSTRAP.0, BOOTSTRAP.1)
            .map_err(|e| format!("tenant {} bootstrap: {e}", tenant.id))?;
    }
    let mut digests = vec![Vec::new(); spec.tenants() as usize];
    for day in 0..spec.warmup_days {
        let out = fleet
            .advance_day()
            .map_err(|e| format!("fleet warm-up day {day}: {e}"))?;
        push_fleet_digests(&fleet, &out.outcomes, &mut digests);
    }
    Ok((fleet, digests, t0.elapsed().as_secs_f64()))
}

/// One digest per fleet day from each tenant's day digests.
#[must_use]
pub fn fleet_day_digests(per_tenant: &[Vec<u64>]) -> Vec<u64> {
    (0..per_tenant[0].len())
        .map(|d| combine(&per_tenant.iter().map(|t| t[d]).collect::<Vec<_>>()))
        .collect()
}

fn push_fleet_digests(fleet: &Fleet, outcomes: &[DayOutcome], digests: &mut [Vec<u64>]) {
    for ((tenant, out), d) in fleet.tenants().iter().zip(outcomes).zip(digests) {
        d.push(tenant_digest(&tenant.sim, out));
    }
}

/// One traced single-tenant day: the steps of `advance_day`, each in its
/// own span, plus the snapshot written at the day boundary when `snapshot`
/// names a file.
fn traced_day(
    sim: &mut ProductionSim,
    tenant: u32,
    tracer: &Tracer,
    snapshot: Option<&Path>,
) -> Result<DayOutcome, String> {
    tracer.at(Some(tenant), sim.day);
    tracer.span("day", || {
        let jobs = tracer.span("scope_workload.jobs_for_day", || {
            sim.workload.jobs_for_day(sim.day)
        });
        let t = Instant::now();
        let view = tracer
            .span("scope_workload.build_view", || {
                let hints = sim.advisor.sis().snapshot();
                build_view(
                    &jobs,
                    &Timed::new(sim.advisor.caching_optimizer(), tracer),
                    &hints,
                    &Timed::new(sim.prod_executor(), tracer),
                )
            })
            .map_err(|e| e.to_string())?;
        let view_build_ns = t.elapsed().as_nanos() as u64;
        let mut out = tracer
            .span("qo_advisor.finish_day", || sim.finish_day(view))
            .map_err(|e| e.to_string())?;
        // `advance_day` fills this clock; `finish_day` alone leaves it 0.
        out.report.timings.view_build_ns = view_build_ns;
        if let Some(path) = snapshot {
            traced_snapshot(sim, tracer, path)?;
        }
        Ok(out)
    })
}

/// `ProductionSim::snapshot` in three spans: export, encode, and the
/// atomic write (temp file, fsync, rename over the target) that
/// `SteeringSnapshot::write_to` does after encoding.
fn traced_snapshot(sim: &ProductionSim, tracer: &Tracer, path: &Path) -> Result<(), String> {
    use std::io::Write as _;
    let snap = tracer.span("scope_state.export", || sim.export_state());
    let bytes = tracer.span("scope_state.encode", || snap.to_bytes());
    tracer
        .span("scope_state.write", || {
            let tmp = path.with_extension("qosnap.tmp");
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        })
        .map_err(|e| format!("snapshot write: {e}"))
}

/// Write `sim`'s snapshot to `path`, in spans when traced.
fn write_snapshot(
    sim: &ProductionSim,
    tenant: u32,
    tracer: Option<&Tracer>,
    path: &Path,
) -> Result<(), String> {
    match tracer {
        None => sim.snapshot(path).map_err(|e| format!("snapshot: {e}")),
        Some(tr) => {
            tr.at(Some(tenant), sim.day);
            traced_snapshot(sim, tr, path)
        }
    }
}

/// The per-layer metric a span's self time feeds.
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "scope_workload.jobs_for_day" => "scope_workload.jobs_for_day.ms",
        "scope_workload.build_view" => "scope_workload.build_view.ms",
        "scope_opt.compile" => "scope_opt.compile.ms",
        "scope_runtime.execute" => "scope_runtime.execute.ms",
        "qo_advisor.finish_day" => "qo_advisor.finish_day.ms",
        "scope_state.export" => "scope_state.export.ms",
        "scope_state.encode" => "scope_state.encode.ms",
        "scope_state.write" => "scope_state.write.ms",
        "scope_state.read" => "scope_state.read.ms",
        "scope_state.import" => "scope_state.import.ms",
        _ => return None,
    })
}

/// Per-layer self time of every `(tenant, day)` traced since tracer index
/// `base`, one sample per unit in which the layer ran. `stages` holds the
/// stage clocks of each traced `finish_day`, whose stages have no spans of
/// their own and are subtracted from its self time.
fn span_layers(ep: &mut Episode, tracer: &Tracer, base: usize, stages: &BTreeMap<Unit, u64>) {
    let spans = tracer.spans_from(base);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    ep.counters.compile_calls = count("scope_opt.compile");
    ep.counters.execute_calls = count("scope_runtime.execute");
    for (unit, by_span) in self_time(&spans, base) {
        for (span, ns) in by_span {
            let ns = match span {
                "qo_advisor.finish_day" => {
                    ns.saturating_sub(stages.get(&unit).copied().unwrap_or(0))
                }
                _ => ns,
            };
            if let Some(layer) = layer_of(span) {
                ep.layer(layer, ns_to_ms(ns));
            }
        }
    }
}

/// Run one single-tenant episode. Snapshot files go under `dir`.
pub fn single_episode(
    spec: &Spec,
    seed: u64,
    draw: u32,
    tracer: Option<&Tracer>,
    dir: &Path,
) -> Episode {
    let Kind::Single { durable, .. } = spec.kind else {
        unreachable!("single_episode runs single-tenant workloads")
    };
    let mut ep = Episode::default();
    let (mut sim, digests, setup_s) = match setup_single(spec, seed, draw) {
        Ok(s) => s,
        Err(e) => {
            ep.attempted += 1;
            ep.fail(1, e);
            return ep;
        }
    };
    ep.attempted += u64::from(spec.warmup_days);
    ep.digests = digests;
    ep.setup_s = setup_s;
    let snap_path = dir.join(format!("draw{draw}-tenant-000.qosnap"));
    if durable && tracer.is_none() {
        sim.set_snapshot_policy(Some(SnapshotPolicy::every_day(&snap_path)));
    }
    let before = Lifetime::of_sim(&sim);
    let span_base = tracer.map_or(0, Tracer::len);
    let mut stages = BTreeMap::new();
    for _ in 0..spec.measured_days {
        ep.attempted += 1;
        let day = sim.day;
        let t = Instant::now();
        let result = match tracer {
            None => sim.advance_day().map_err(|e| e.to_string()),
            Some(tr) => traced_day(&mut sim, 0, tr, durable.then_some(snap_path.as_path())),
        };
        let wall_ms = elapsed_ms(t);
        ep.day_ms.push(wall_ms);
        match result {
            Ok(out) => {
                let r = &out.report;
                ep.digests.push(tenant_digest(&sim, &out));
                ep.stage_clocks(&out);
                ep.busy(
                    r.timings.view_build_ns,
                    finish_day_stages_ns(&out),
                    wall_ms,
                    1,
                );
                ep.counters.jobs += r.jobs_total as u64;
                ep.counters.flighted += r.flighted as u64;
                ep.counters.flight_success += r.flight_success as u64;
                ep.counters.hints_published += r.hints_published as u64;
                stages.insert((Some(0), day), finish_day_stages_ns(&out));
                ep.add_comparisons(&out.comparisons);
            }
            Err(e) => {
                ep.fail(1, format!("day {day}: {e}"));
                return ep;
            }
        }
    }
    ep.counters = Lifetime::of_sim(&sim)
        .since(&before)
        .with_reports(&ep.counters);
    // `history()` clones the whole log: read it once, after the timed days.
    let history = sim.advisor.personalizer().history();
    ep.history_digest = history_digest(&history);
    ep.counters.history_len = history.len() as u64;
    ep.counters.personalizer_events = sim.advisor.personalizer().events();

    if !durable {
        if let Err(e) = write_snapshot(&sim, 0, tracer, &snap_path) {
            ep.fail(1, e);
            return ep;
        }
    }
    ep.counters.snapshot_bytes = std::fs::metadata(&snap_path).map_or(0, |m| m.len());
    let item = RestoreItem {
        workload: spec.workload(seed, draw, 0),
        pipeline: spec.pipeline(),
        path: snap_path,
    };
    ep.restore_items.push(item.clone());
    if let Some(tr) = tracer {
        tr.at(Some(0), sim.day);
    }
    match restore_all(std::slice::from_ref(&item), tracer) {
        Ok((ms, mut restored)) => {
            ep.restore_ms = ms;
            // The day after the restore must equal the uninterrupted sim's
            // next day.
            ep.attempted += 1;
            let resumed = restored.remove(0);
            check_resume(&mut ep, sim, resumed);
        }
        Err(e) => ep.fail(1, e),
    }
    if let Some(tr) = tracer {
        span_layers(&mut ep, tr, span_base, &stages);
        for ns in job_latencies_ns(&tr.spans_from(span_base)) {
            ep.latency.record(ns);
        }
    }
    ep
}

fn check_resume(ep: &mut Episode, mut sim: ProductionSim, mut resumed: ProductionSim) {
    let day = sim.day;
    let a = sim.advance_day().map(|out| tenant_digest(&sim, &out));
    let b = resumed
        .advance_day()
        .map(|out| tenant_digest(&resumed, &out));
    match (a, b) {
        (Ok(a), Ok(b)) if a == b => {}
        (Ok(_), Ok(_)) => ep.fail(1, format!("day {day} after restore differs")),
        (Err(e), _) | (_, Err(e)) => ep.fail(1, format!("day {day} after restore: {e}")),
    }
}

/// Run one fleet episode. Snapshot files go under `dir`; `solo_check`
/// compares one tenant per group with a solo run of its configuration,
/// traced when `tracer` is given.
pub fn fleet_episode(
    spec: &Spec,
    seed: u64,
    draw: u32,
    tracer: Option<&Tracer>,
    dir: &Path,
    solo_check: bool,
) -> Episode {
    let Kind::Fleet { groups, group_size } = spec.kind else {
        unreachable!("fleet_episode runs fleet workloads")
    };
    let tenants = u64::from(spec.tenants());
    let mut ep = Episode::default();
    let (mut fleet, mut per_tenant, setup_s) = match setup_fleet(spec, seed, draw) {
        Ok(s) => s,
        Err(e) => {
            ep.attempted += tenants;
            ep.fail(tenants, e);
            return ep;
        }
    };
    ep.attempted += tenants * u64::from(spec.warmup_days);
    ep.setup_s = setup_s;
    let workers = spec.fleet_config().stream.workers;
    let before = Lifetime::of_fleet(&fleet);
    let span_base = tracer.map_or(0, Tracer::len);
    for day in 0..spec.measured_days {
        ep.attempted += tenants;
        let t = Instant::now();
        let result = match tracer {
            None => fleet.advance_day(),
            Some(tr) => {
                tr.at(None, spec.warmup_days + day);
                tr.span("fleet.advance_day", || fleet.advance_day())
            }
        };
        let wall_ms = elapsed_ms(t);
        ep.day_ms.push(wall_ms);
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                ep.fail(tenants, format!("fleet day {day}: {e}"));
                return ep;
            }
        };
        ep.latency.merge(&out.steering_latency);
        ep.counters.jobs += out.jobs;
        let (mut stream_ns, mut reduce_ns) = (0u64, 0u64);
        for o in &out.outcomes {
            let r = &o.report;
            stream_ns += r.timings.view_build_ns;
            reduce_ns += finish_day_stages_ns(o);
            ep.counters.flighted += r.flighted as u64;
            ep.counters.flight_success += r.flight_success as u64;
            ep.counters.hints_published += r.hints_published as u64;
            ep.stage_clocks(o);
            ep.add_comparisons(&o.comparisons);
        }
        ep.busy(stream_ns, reduce_ns, wall_ms, workers);
        push_fleet_digests(&fleet, &out.outcomes, &mut per_tenant);
    }
    ep.counters = Lifetime::of_fleet(&fleet)
        .since(&before)
        .with_reports(&ep.counters);
    ep.digests = fleet_day_digests(&per_tenant);
    let mut history_digests = Vec::new();
    let mut items = Vec::new();
    for tenant in fleet.tenants() {
        let advisor = &tenant.sim.advisor;
        let history = advisor.personalizer().history();
        history_digests.push(history_digest(&history));
        ep.counters.history_len += history.len() as u64;
        ep.counters.personalizer_events += advisor.personalizer().events();
        let path = dir.join(format!("draw{draw}-tenant-{:03}.qosnap", tenant.id));
        if let Err(e) = write_snapshot(&tenant.sim, tenant.id, tracer, &path) {
            ep.fail(1, format!("tenant {}: {e}", tenant.id));
            return ep;
        }
        ep.counters.snapshot_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        items.push(RestoreItem {
            workload: spec.workload(seed, draw, tenant.id),
            pipeline: spec.pipeline(),
            path,
        });
    }
    ep.history_digest = combine(&history_digests);
    drop(fleet);
    if let Some(tr) = tracer {
        tr.at(None, spec.warmup_days + spec.measured_days);
    }
    match restore_all(&items, tracer) {
        Ok((ms, _)) => ep.restore_ms = ms,
        Err(e) => ep.fail(1, e),
    }
    ep.restore_items = items;
    let mut stages = BTreeMap::new();
    if solo_check {
        let days = (spec.warmup_days + spec.solo_check_days).min(per_tenant[0].len() as u32);
        for group in 0..groups {
            let tenant = group * group_size;
            let expected = &per_tenant[tenant as usize][..days as usize];
            solo_compare(
                &mut ep,
                spec,
                seed,
                draw,
                tenant,
                expected,
                tracer,
                &mut stages,
            );
        }
    }
    if let Some(tr) = tracer {
        span_layers(&mut ep, tr, span_base, &stages);
    }
    ep
}

/// Check that `tenant`'s fleet decisions equal a solo run of the same
/// configuration: `advance_day`, or the traced day when `tracer` is given,
/// whose `finish_day` stage clocks go to `stages`.
#[allow(clippy::too_many_arguments)]
fn solo_compare(
    ep: &mut Episode,
    spec: &Spec,
    seed: u64,
    draw: u32,
    tenant: u32,
    fleet_digests: &[u64],
    tracer: Option<&Tracer>,
    stages: &mut BTreeMap<Unit, u64>,
) {
    let mut sim = ProductionSim::new(spec.workload(seed, draw, tenant), spec.pipeline());
    if let Err(e) = sim.bootstrap_validation_model(BOOTSTRAP.0, BOOTSTRAP.1) {
        ep.attempted += 1;
        ep.fail(1, format!("solo tenant {tenant} bootstrap: {e}"));
        return;
    }
    for &expected in fleet_digests {
        ep.attempted += 1;
        let day = sim.day;
        let result = match tracer {
            None => sim.advance_day().map_err(|e| e.to_string()),
            Some(tr) => traced_day(&mut sim, tenant, tr, None),
        };
        match result {
            Ok(out) => {
                stages.insert((Some(tenant), day), finish_day_stages_ns(&out));
                if tenant_digest(&sim, &out) != expected {
                    ep.fail(
                        1,
                        format!("tenant {tenant} day {day}: fleet differs from solo"),
                    );
                }
            }
            Err(e) => {
                ep.fail(1, format!("solo tenant {tenant} day {day}: {e}"));
                return;
            }
        }
    }
}

//! Development probe: a fast, verbose run of the closed steering loop used
//! to calibrate the simulator against the paper's shapes. The polished
//! per-figure experiments live in `experiments.rs`; this binary prints the
//! raw daily pipeline counters instead.
//!
//! With `--json [path]` the probe additionally writes a machine-readable
//! perf record (per-day stage timings + compile/span-feature-cache and
//! delta-compilation counters, plus lifetime totals) to
//! `results/BENCH_probe.json` by default — the cross-PR perf trajectory
//! artifact described in `PERFORMANCE.md`; CI uploads it on every run.
//!
//! The run knobs are the `QO_*` environment variables of the table in
//! [`qo_advisor::config`]: the pipeline knobs, `QO_LITERALS`, and
//! `QO_SNAPSHOT` (an every-day snapshot plus a timed restore).
use qo_advisor::{
    aggregate_impact, BudgetStats, CacheCounters, CacheStats, DayOutcome, DeltaStats,
    PipelineConfig, ProductionSim, RecommendStrategy, RunKnobs, StageTimings,
};
use scope_workload::WorkloadConfig;
use serde::Serialize;
use std::time::Instant;

/// The JSON perf record `--json` writes.
#[derive(Serialize)]
struct ProbeRecord {
    bench: &'static str,
    wall_ms: f64,
    config: RecordConfig,
    /// Totals over the main simulation's whole run.
    lifetime: Lifetime,
    days: Vec<DayRecord>,
}

#[derive(Serialize)]
struct RecordConfig {
    threads: usize,
    cache: bool,
    delta: bool,
    feature_cache: bool,
    literals: String,
}

#[derive(Serialize)]
struct Lifetime {
    compile_cache: CacheStats,
    delta: DeltaStats,
    feature_cache: CacheStats,
    budget: BudgetStats,
    snapshot: SnapshotCost,
}

#[derive(Serialize)]
struct SnapshotCost {
    enabled: bool,
    write_ns_total: u64,
    restore_ns: u64,
    bytes: u64,
}

/// One simulated day of the record.
#[derive(Serialize)]
struct DayRecord {
    day: u32,
    wall_ms: f64,
    timings_ns: StageTimings,
    compile_cache: CacheCounters,
    delta: DeltaStats,
    feature_cache: CacheStats,
    budget: BudgetStats,
    steering: Steering,
}

#[derive(Serialize)]
struct Steering {
    recurring: usize,
    spanned: usize,
    flighted: usize,
    validated: usize,
    hints_published: usize,
}

impl DayRecord {
    fn new(out: &DayOutcome, wall_ms: f64) -> Self {
        let r = &out.report;
        Self {
            day: r.day,
            wall_ms,
            timings_ns: r.timings,
            compile_cache: r.compile_cache,
            delta: r.delta_compile,
            feature_cache: r.feature_cache,
            budget: r.compile_budget,
            steering: Steering {
                recurring: r.recurring_jobs,
                spanned: r.jobs_with_span,
                flighted: r.flighted,
                validated: r.validated,
                hints_published: r.hints_published,
            },
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    // `--json [path]` writes the machine-readable perf record.
    let json_path: Option<String> = match args.next().as_deref() {
        Some("--json") => Some(
            args.next()
                .unwrap_or_else(|| "results/BENCH_probe.json".to_string()),
        ),
        Some(other) => {
            eprintln!("unknown argument `{other}` (expected `--json [path]`)");
            std::process::exit(2);
        }
        None => None,
    };
    // The `QO_*` run knobs (see the table in `qo_advisor::config`).
    let RunKnobs {
        pipeline: config,
        literals,
        snapshot: snapshot_path,
        ..
    } = RunKnobs::from_env_or_exit();
    let wl = WorkloadConfig {
        // qo-lint: allow(seed-salt) — top-level probe-workload seed, not a derivation salt
        seed: 2022,
        num_templates: 60,
        adhoc_per_day: 15,
        max_instances_per_day: 2,
        literals,
    };
    let probe_start = Instant::now();
    let mut sim = ProductionSim::new(wl.clone(), config.clone());
    if let Some(path) = &snapshot_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        sim.set_snapshot_policy(Some(qo_advisor::SnapshotPolicy::every_day(path)));
    }
    let samples = sim
        .bootstrap_validation_model(5, 24)
        .expect("generated workloads compile on the default path");
    eprintln!(
        "bootstrap samples: {} model: {:?}",
        samples.len(),
        sim.advisor.validation_model()
    );
    let mut all_cmp = Vec::new();
    let mut day_records: Vec<DayRecord> = Vec::new();
    let mut snapshot_write_ns: u64 = 0;
    let mut advance = |sim: &mut ProductionSim, records: &mut Vec<DayRecord>| -> DayOutcome {
        let t = Instant::now();
        let out = sim
            .advance_day()
            .expect("generated workloads compile on the default path");
        records.push(DayRecord::new(&out, t.elapsed().as_secs_f64() * 1e3));
        snapshot_write_ns += out.report.timings.snapshot_ns;
        out
    };
    for _ in 0..10 {
        let out = advance(&mut sim, &mut day_records);
        let r = &out.report;
        eprintln!(
            "day {}: span {}/{} lower {} eq {} hi {} fail {} noop {} flighted {} succ {} valid {} hints {} cmp {} cache {}/{} ({:.0}%, view {}/{}) delta p/d/f {}/{}/{} (base {}+{})",
            r.day, r.jobs_with_span, r.recurring_jobs, r.lower_cost, r.equal_cost, r.higher_cost,
            r.recompile_failures, r.noop_chosen, r.flighted, r.flight_success, r.validated,
            r.hints_published, out.comparisons.len(),
            r.compile_cache.hits(), r.compile_cache.lookups(), 100.0 * r.compile_cache.hit_rate(),
            r.compile_cache.view_build.hits, r.compile_cache.view_build.lookups(),
            r.delta_compile.pruned, r.delta_compile.delta, r.delta_compile.full,
            r.delta_compile.base_builds, r.delta_compile.base_hits
        );
        all_cmp.extend(out.comparisons);
    }
    let lifetime = sim.advisor.cache_stats();
    eprintln!(
        "compile cache lifetime: {} hits / {} lookups ({:.0}%), {} inserts, {} evictions",
        lifetime.hits,
        lifetime.lookups(),
        100.0 * lifetime.hit_rate(),
        lifetime.inserts,
        lifetime.evictions
    );
    let delta_lifetime = sim.advisor.delta_stats();
    eprintln!(
        "delta lifetime: {} treatments ({} pruned, {} delta, {} full), {} base builds, {} base hits",
        delta_lifetime.treatments(),
        delta_lifetime.pruned,
        delta_lifetime.delta,
        delta_lifetime.full,
        delta_lifetime.base_builds,
        delta_lifetime.base_hits
    );
    let agg = aggregate_impact(&all_cmp);
    eprintln!(
        "TABLE2: jobs {} pn {:+.1}% latency {:+.1}% vertices {:+.1}%",
        agg.jobs, agg.pn_hours_pct, agg.latency_pct, agg.vertices_pct
    );

    // Table 3 shape: CB vs random on one day after training.
    // CB convergence: train 25 more days, report last-day counters.
    for _ in 0..25 {
        let _ = advance(&mut sim, &mut day_records);
    }
    let out_cb = advance(&mut sim, &mut day_records);
    let r = &out_cb.report;
    eprintln!(
        "CB day {}: lower {} eq {} hi {} fail {} noop {} | total default {:.3e} chosen {:.3e}",
        r.day,
        r.lower_cost,
        r.equal_cost,
        r.higher_cost,
        r.recompile_failures,
        r.noop_chosen,
        r.total_default_cost,
        r.total_chosen_cost
    );
    // The ~40-day probe regime must never churn the compile cache: its
    // capacity is sized ~25x above the per-day insert volume, so a nonzero
    // eviction count here means either the sizing regressed or eviction
    // accounting broke (both worth failing loudly — this is the "assert 0
    // evictions in the 40-day probe" regression gate).
    let lifetime = sim.advisor.cache_stats();
    assert_eq!(
        lifetime.evictions,
        0,
        "40-day probe must not evict compile-cache entries \
         (inserts {} across {:?} per-shard evictions)",
        lifetime.inserts,
        sim.advisor
            .caching_optimizer()
            .cache()
            .map(|c| c.shard_evictions())
    );
    // Final snapshots covering the main simulation's WHOLE run (the eprintln
    // blocks above reported the first 10 pipeline days only) — this is what
    // the JSON record's `lifetime` block carries.
    let delta_lifetime = sim.advisor.delta_stats();
    let feature_lifetime = sim.advisor.feature_stats();
    let budget_lifetime = sim.advisor.budget_stats();
    eprintln!(
        "feature cache lifetime: {} hits / {} lookups ({:.0}%), {} inserts, {} evictions",
        feature_lifetime.hits,
        feature_lifetime.lookups(),
        100.0 * feature_lifetime.hit_rate(),
        feature_lifetime.inserts,
        feature_lifetime.evictions
    );
    let mut sim_rand = ProductionSim::new(
        wl.clone(),
        PipelineConfig {
            strategy: RecommendStrategy::UniformRandom,
            ..config.clone()
        },
    );
    sim_rand
        .bootstrap_validation_model(1, 4)
        .expect("generated workloads compile on the default path");
    // NOT recorded into `day_records`: the JSON record describes the main
    // simulation, and this day belongs to a separate random-strategy sim.
    let out = sim_rand
        .advance_day()
        .expect("generated workloads compile on the default path");
    let r = &out.report;
    eprintln!(
        "RANDOM day: lower {} eq {} hi {} fail {} | total default {:.3e} chosen {:.3e}",
        r.lower_cost,
        r.equal_cost,
        r.higher_cost,
        r.recompile_failures,
        r.total_default_cost,
        r.total_chosen_cost
    );

    // Snapshot cost: per-day write time accumulated above, plus one
    // measured restore into a fresh process image and the on-disk size.
    let (snapshot_restore_ns, snapshot_bytes) = snapshot_path.as_ref().map_or((0, 0), |path| {
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        let mut fresh = ProductionSim::new(wl.clone(), config.clone());
        let t = Instant::now();
        fresh
            .restore(path)
            .expect("restore the probe's own snapshot");
        let restore_ns = t.elapsed().as_nanos() as u64;
        assert_eq!(fresh.day, sim.day, "restored day counter matches");
        eprintln!(
            "snapshot: {} bytes, write total {:.2} ms over {} days, restore {:.2} ms",
            bytes,
            snapshot_write_ns as f64 / 1e6,
            day_records.len(),
            restore_ns as f64 / 1e6,
        );
        (restore_ns, bytes)
    });

    if let Some(path) = json_path {
        let record = ProbeRecord {
            bench: "probe",
            wall_ms: probe_start.elapsed().as_secs_f64() * 1e3,
            config: RecordConfig {
                threads: config.parallelism.threads.unwrap_or(1),
                cache: config.cache.enabled,
                delta: config.delta.enabled,
                feature_cache: config.feature_cache.enabled,
                literals: format!("{literals:?}"),
            },
            lifetime: Lifetime {
                compile_cache: lifetime,
                delta: delta_lifetime,
                feature_cache: feature_lifetime,
                budget: budget_lifetime,
                snapshot: SnapshotCost {
                    enabled: snapshot_path.is_some(),
                    write_ns_total: snapshot_write_ns,
                    restore_ns: snapshot_restore_ns,
                    bytes: snapshot_bytes,
                },
            },
            days: day_records,
        };
        let json = serde_json::to_string(&record).expect("serialize perf record");
        if let Some(parent) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(parent).expect("create results dir");
        }
        std::fs::write(&path, json).expect("write perf record");
        eprintln!("perf record written to {path}");
    }
}

//! Development probe: a fast, verbose run of the closed steering loop used
//! to calibrate the simulator against the paper's shapes. The polished
//! per-figure experiments live in `experiments.rs`; this binary prints the
//! raw daily pipeline counters instead.
//!
//! With `--json [path]` the probe additionally writes a machine-readable
//! perf record (per-day stage timings + compile/exec/span-feature-cache and
//! delta-compilation counters, plus lifetime totals) to
//! `results/BENCH_probe.json` by default — the cross-PR perf trajectory
//! artifact described in `PERFORMANCE.md`; CI uploads it on every run.
//!
//! The run knobs are the `QO_*` environment variables of the table in
//! [`qo_advisor::config`]: the pipeline knobs, `QO_LITERALS`, and
//! `QO_SNAPSHOT` (an every-day snapshot plus a timed restore).
use qo_advisor::{
    aggregate_impact, DayOutcome, PipelineConfig, ProductionSim, RecommendStrategy, RunKnobs,
};
use scope_workload::WorkloadConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// Minimal JSON record of one simulated day (hand-rendered: every field is
/// an integer or float, so no escaping is needed).
fn day_json(out: &DayOutcome, wall_ms: f64) -> String {
    let r = &out.report;
    let t = &r.timings;
    let cc = r.compile_cache.total();
    let ec = r.exec_cache.total();
    let d = &r.delta_compile;
    let fc = &r.feature_cache;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"day\":{},\"wall_ms\":{wall_ms:.3},\
         \"timings_ns\":{{\"view_build\":{},\"counterfactual\":{},\
         \"feature_gen\":{},\"recommend\":{},\"flight\":{},\
         \"validate\":{},\"publish\":{},\"snapshot\":{},\"restore\":{}}},\
         \"compile_cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{}}},\
         \"exec_cache\":{{\"result_hits\":{},\"result_misses\":{},\
         \"graph_hits\":{},\"graph_misses\":{}}},\
         \"delta\":{{\"pruned\":{},\"delta\":{},\"full\":{},\
         \"base_builds\":{},\"base_hits\":{}}},\
         \"feature_cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{}}},\
         \"budget\":{{\"complete\":{},\"truncated\":{}}},\
         \"steering\":{{\"recurring\":{},\"spanned\":{},\"flighted\":{},\
         \"validated\":{},\"hints_published\":{}}}}}",
        r.day,
        t.view_build_ns,
        t.counterfactual_ns,
        t.feature_gen_ns,
        t.recommend_ns,
        t.flight_ns,
        t.validate_ns,
        t.publish_ns,
        t.snapshot_ns,
        t.restore_ns,
        cc.hits,
        cc.misses,
        cc.inserts,
        cc.evictions,
        ec.results.hits,
        ec.results.misses,
        ec.graphs.hits,
        ec.graphs.misses,
        d.pruned,
        d.delta,
        d.full,
        d.base_builds,
        d.base_hits,
        fc.hits,
        fc.misses,
        fc.inserts,
        fc.evictions,
        r.compile_budget.complete,
        r.compile_budget.truncated,
        r.recurring_jobs,
        r.jobs_with_span,
        r.flighted,
        r.validated,
        r.hints_published,
    );
    s
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
    let mut day_records: Vec<String> = Vec::new();
    let mut snapshot_write_ns: u64 = 0;
    let mut advance = |sim: &mut ProductionSim, records: &mut Vec<String>| -> DayOutcome {
        let t = Instant::now();
        let out = sim
            .advance_day()
            .expect("generated workloads compile on the default path");
        records.push(day_json(&out, t.elapsed().as_secs_f64() * 1e3));
        snapshot_write_ns += out.report.timings.snapshot_ns;
        out
    };
    for _ in 0..10 {
        let out = advance(&mut sim, &mut day_records);
        let r = &out.report;
        eprintln!(
            "day {}: span {}/{} lower {} eq {} hi {} fail {} noop {} flighted {} succ {} valid {} hints {} cmp {} cache {}/{} ({:.0}%, view {}/{}) exec {}/{} ({:.0}% full, {:.0}% incl. graphs) delta p/d/f {}/{}/{} (base {}+{})",
            r.day, r.jobs_with_span, r.recurring_jobs, r.lower_cost, r.equal_cost, r.higher_cost,
            r.recompile_failures, r.noop_chosen, r.flighted, r.flight_success, r.validated,
            r.hints_published, out.comparisons.len(),
            r.compile_cache.hits(), r.compile_cache.lookups(), 100.0 * r.compile_cache.hit_rate(),
            r.compile_cache.view_build.hits, r.compile_cache.view_build.lookups(),
            r.exec_cache.hits(), r.exec_cache.lookups(),
            100.0 * r.exec_cache.hit_rate(), 100.0 * r.exec_cache.partial_hit_rate(),
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
    let exec_lifetime = sim.advisor.exec_stats();
    eprintln!(
        "exec cache lifetime: {} executions, {} full replays ({:.0}%), {} graph hits / {} graph lookups ({:.0}%), {} result evictions",
        exec_lifetime.lookups(),
        exec_lifetime.hits(),
        100.0 * exec_lifetime.hit_rate(),
        exec_lifetime.graphs.hits,
        exec_lifetime.graphs.lookups(),
        100.0 * exec_lifetime.graphs.hit_rate(),
        exec_lifetime.results.evictions
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
    let exec_lifetime = sim.advisor.exec_stats();
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
        let delta_cfg_on = config.delta.enabled;
        let record = format!(
            "{{\"bench\":\"probe\",\"wall_ms\":{:.3},\
             \"config\":{{\"threads\":{},\"cache\":{},\"exec_cache\":{},\
             \"delta\":{delta_cfg_on},\"feature_cache\":{},\"literals\":\"{:?}\"}},\
             \"lifetime\":{{\
             \"compile_cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{}}},\
             \"exec_cache\":{{\"result_hits\":{},\"graph_hits\":{},\"graph_lookups\":{}}},\
             \"delta\":{{\"pruned\":{},\"delta\":{},\"full\":{},\
             \"base_builds\":{},\"base_hits\":{}}},\
             \"feature_cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{}}},\
             \"budget\":{{\"complete\":{},\"truncated\":{}}},\
             \"snapshot\":{{\"enabled\":{},\"write_ns_total\":{},\
             \"restore_ns\":{},\"bytes\":{}}}}},\
             \"days\":[{}]}}",
            probe_start.elapsed().as_secs_f64() * 1e3,
            config.parallelism.threads.unwrap_or(1),
            config.cache.enabled,
            config.exec_cache.enabled,
            config.feature_cache.enabled,
            literals,
            lifetime.hits,
            lifetime.misses,
            lifetime.inserts,
            lifetime.evictions,
            exec_lifetime.results.hits,
            exec_lifetime.graphs.hits,
            exec_lifetime.graphs.lookups(),
            delta_lifetime.pruned,
            delta_lifetime.delta,
            delta_lifetime.full,
            delta_lifetime.base_builds,
            delta_lifetime.base_hits,
            feature_lifetime.hits,
            feature_lifetime.misses,
            feature_lifetime.inserts,
            feature_lifetime.evictions,
            budget_lifetime.complete,
            budget_lifetime.truncated,
            snapshot_path.is_some(),
            snapshot_write_ns,
            snapshot_restore_ns,
            snapshot_bytes,
            day_records.join(",")
        );
        if let Some(parent) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(parent).expect("create results dir");
        }
        std::fs::write(&path, record).expect("write perf record");
        eprintln!("perf record written to {path}");
    }
}

//! Fleet serving probe: N tenants' steering loops over one process-wide
//! shared-cache layer, streamed through the bounded-queue worker pool
//! (`qo_advisor::fleet`).
//!
//! Reports the serving numbers the fleet story is about — jobs/sec and the
//! per-job steering-latency distribution (p50/p95/p99) — and then reruns the
//! same fleet with **isolated per-tenant caches** to measure the
//! cross-tenant cache-hit uplift: how much better the compile + span-feature
//! hit rate gets when overlapping tenants share entries instead of each
//! warming a private cache. Writes the machine-readable record to
//! `results/BENCH_fleet.json` by default (`--json [path]` overrides) — the
//! cross-PR perf trajectory artifact described in `PERFORMANCE.md`; CI
//! uploads it on every run.
//!
//! The run knobs are the `QO_*` environment variables of the table in
//! [`qo_advisor::config`]: `QO_TENANTS` (default 64), `QO_FLEET_WORKERS`
//! (default 0 = all cores), `QO_LITERALS`, and the pipeline knobs, which
//! every tenant's loop applies (`QO_COMPILE_BUDGET` budgets only the
//! measurement-path recompiles, as everywhere else). The bin's own
//! arguments are `--days N` (default 4), `--json PATH`, and `--budget N`
//! (default unlimited) — the per-job stream compile budget
//! ([`qo_advisor::fleet::StreamConfig::compile_budget`]): under load, a
//! finite budget sheds view-build compile work deterministically and the
//! probe reports the shed totals.
use qo_advisor::fleet::{overlapping_workloads, Fleet, FleetConfig};
use qo_advisor::{CacheStats, CompileBudget, RunKnobs};
use scope_workload::WorkloadConfig;
use std::fmt::Write as _;

fn parse_or_exit<T: std::str::FromStr>(value: &str, what: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{what} must be an integer, got `{value}`");
        std::process::exit(2);
    })
}

fn cache_json(label: &str, s: &CacheStats) -> String {
    format!(
        "\"{label}\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{}}}",
        s.hits, s.misses, s.inserts, s.evictions
    )
}

struct FleetRun {
    jobs: u64,
    wall_ms: f64,
    jobs_per_sec: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    max_us: f64,
    compile: CacheStats,
    feature: CacheStats,
    hints_published: usize,
    shed: u64,
    day_lines: Vec<String>,
}

impl FleetRun {
    /// Lifetime compile + span-feature hit rate — the steering layer's two
    /// compile-bound caches, where cross-tenant sharing pays.
    fn steer_hit_rate(&self) -> f64 {
        let hits = self.compile.hits + self.feature.hits;
        let lookups = self.compile.lookups() + self.feature.lookups();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"jobs\":{},\"wall_ms\":{:.3},\"jobs_per_sec\":{:.1},\
             \"steering_latency_us\":{{\"p50\":{:.1},\"p95\":{:.1},\
             \"p99\":{:.1},\"max\":{:.1}}},\
             {},{},\
             \"steer_hit_rate\":{:.4},\"hints_published\":{},\"shed\":{},\
             \"days\":[{}]}}",
            self.jobs,
            self.wall_ms,
            self.jobs_per_sec,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
            cache_json("compile_cache", &self.compile),
            cache_json("feature_cache", &self.feature),
            self.steer_hit_rate(),
            self.hints_published,
            self.shed,
            self.day_lines.join(","),
        );
        s
    }
}

fn run_fleet(workloads: &[WorkloadConfig], config: &FleetConfig, days: u32) -> FleetRun {
    let mut fleet = Fleet::new(workloads.to_vec(), config);
    let mut day_lines = Vec::new();
    let mut hints_published = 0usize;
    for _ in 0..days {
        let day = fleet
            .advance_day()
            .expect("generated workloads compile on the default path");
        hints_published += day
            .outcomes
            .iter()
            .map(|o| o.report.hints_published)
            .sum::<usize>();
        day_lines.push(format!(
            "{{\"jobs\":{},\"wall_ms\":{:.3},\"p50_us\":{:.1},\"p99_us\":{:.1},\"shed\":{}}}",
            day.jobs,
            day.wall_ns as f64 / 1e6,
            day.steering_latency.p50() as f64 / 1e3,
            day.steering_latency.p99() as f64 / 1e3,
            day.shed,
        ));
    }
    let m = fleet.metrics();
    FleetRun {
        jobs: m.jobs,
        wall_ms: m.wall_ns as f64 / 1e6,
        jobs_per_sec: m.jobs_per_sec(),
        p50_us: m.steering_latency.p50() as f64 / 1e3,
        p95_us: m.steering_latency.p95() as f64 / 1e3,
        p99_us: m.steering_latency.p99() as f64 / 1e3,
        max_us: m.steering_latency.max() as f64 / 1e3,
        compile: fleet.compile_stats(),
        feature: fleet.feature_stats(),
        hints_published,
        shed: m.shed,
        day_lines,
    }
}

fn main() {
    let knobs = RunKnobs::from_env_or_exit();
    let tenants = knobs.tenants.unwrap_or(64);
    let mut stream = knobs.stream;
    let mut days: u32 = 4;
    let mut json_path = "results/BENCH_fleet.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--days" => days = parse_or_exit(&value("--days"), "--days"),
            "--budget" => {
                stream.compile_budget =
                    CompileBudget::parse(&value("--budget")).unwrap_or_else(|e| {
                        eprintln!("--budget: {e}");
                        std::process::exit(2);
                    });
            }
            "--json" => json_path = value("--json"),
            other => {
                eprintln!(
                    "unknown argument `{other}` (expected --days N, --budget N, --json PATH)"
                );
                std::process::exit(2);
            }
        }
    }
    let budget = stream.compile_budget;
    let workers = stream.workers;

    // The probe workload: probe-shaped templates under the `QO_LITERALS`
    // policy. Its fresh default (every instance a new exact plan) is the
    // hardest case for within-tenant caching, which makes the
    // *cross-tenant* sharing signal cleanest: isolated tenants mostly miss,
    // shared tenants hit each other's entries. Overlapping tenants model the
    // paper's fleet economics — the same recurring templates run across
    // many customers.
    let wl = WorkloadConfig {
        // qo-lint: allow(seed-salt) — top-level probe-workload seed, not a derivation salt
        seed: 2022,
        num_templates: 60,
        adhoc_per_day: 15,
        max_instances_per_day: 2,
        literals: knobs.literals,
    };
    let mut pipeline = knobs.pipeline;
    // 2^16 hashed CB weights per tenant keeps a 64-tenant fleet's bandit
    // state ~32 MB (the default 2^20 would be ~0.5 GB).
    pipeline.cb.dim_bits = 16;
    let workloads = overlapping_workloads(tenants, &wl);

    eprintln!(
        "fleet probe: {tenants} tenants x {days} days, workers={workers} (0=auto), \
         budget={:?}",
        budget.max_tasks
    );
    let shared = run_fleet(
        &workloads,
        &FleetConfig {
            pipeline: pipeline.clone(),
            stream,
            isolated_caches: false,
        },
        days,
    );
    eprintln!(
        "shared-cache fleet: {} jobs in {:.0} ms = {:.0} jobs/sec; steering \
         latency p50 {:.0} us, p95 {:.0} us, p99 {:.0} us; steer hit rate {:.3}",
        shared.jobs,
        shared.wall_ms,
        shared.jobs_per_sec,
        shared.p50_us,
        shared.p95_us,
        shared.p99_us,
        shared.steer_hit_rate(),
    );
    let isolated = run_fleet(
        &workloads,
        &FleetConfig {
            pipeline,
            stream,
            isolated_caches: true,
        },
        days,
    );
    eprintln!(
        "isolated-cache fleet: {} jobs in {:.0} ms = {:.0} jobs/sec; steer hit rate {:.3}",
        isolated.jobs,
        isolated.wall_ms,
        isolated.jobs_per_sec,
        isolated.steer_hit_rate(),
    );
    let uplift = if isolated.steer_hit_rate() > 0.0 {
        shared.steer_hit_rate() / isolated.steer_hit_rate()
    } else {
        f64::INFINITY
    };
    eprintln!("cross-tenant cache-hit uplift: {uplift:.2}x (shared / isolated hit rate)");
    if uplift < 1.2 && tenants > 1 {
        eprintln!("WARNING: uplift below the 1.2x fleet-serving bar");
    }

    if !budget.is_unlimited() {
        eprintln!(
            "stream budget shed {} of {} view-build compiles (shared fleet)",
            shared.shed, shared.jobs
        );
    }
    let record = format!(
        "{{\"bench\":\"fleet\",\"tenants\":{tenants},\"days\":{days},\
         \"workers\":{workers},\"compile_budget\":{},\
         \"shared\":{},\"isolated\":{},\"cross_tenant_hit_uplift\":{uplift:.4}}}\n",
        budget.max_tasks.map_or(0, |n| n),
        shared.json(),
        isolated.json(),
    );
    if let Some(parent) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&json_path, &record) {
        Ok(()) => eprintln!("perf record -> {json_path}"),
        Err(e) => {
            eprintln!("failed to write {json_path}: {e}");
            std::process::exit(1);
        }
    }
}

//! Criterion macrobench: one full QO-Advisor pipeline day (feature
//! generation + recommendation + flighting + validation + hint generation)
//! over a small workload.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use flighting::{FlightBudget, FlightingService};
use qo_advisor::{CacheConfig, ParallelismConfig, PipelineConfig, ProductionSim, QoAdvisor};
use scope_opt::Optimizer;
use scope_runtime::Cluster;
use scope_workload::{build_view, LiteralPolicy, Workload, WorkloadConfig};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let optimizer = Optimizer::default();
    let workload = Workload::new(WorkloadConfig {
        seed: 99,
        num_templates: 10,
        adhoc_per_day: 2,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    });
    let cluster = Cluster::default();
    let jobs = workload.jobs_for_day(0);

    c.bench_function("build_daily_view_12_jobs", |b| {
        b.iter(|| {
            black_box(
                build_view(&jobs, &optimizer, &Default::default(), &cluster)
                    .unwrap()
                    .len(),
            )
        })
    });

    let view = build_view(&jobs, &optimizer, &Default::default(), &cluster).unwrap();
    c.bench_function("pipeline_run_day_12_jobs", |b| {
        b.iter_batched(
            || {
                QoAdvisor::new(
                    optimizer.clone(),
                    FlightingService::new(Cluster::preproduction(), FlightBudget::default()),
                    PipelineConfig::default(),
                )
            },
            |mut qa| {
                black_box(
                    qa.run_day(&view, 0)
                        .expect("pipeline day runs")
                        .hints_published,
                )
            },
            BatchSize::PerIteration,
        )
    });
}

/// Serial vs parallel `run_day` on a compile-heavy day (cold span cache), so
/// the bench trajectory tracks the fan-out speedup of Feature Generation +
/// Recompilation. Outputs are bit-identical; only throughput may differ.
fn bench_pipeline_parallelism(c: &mut Criterion) {
    let optimizer = Optimizer::default();
    let workload = Workload::new(WorkloadConfig {
        seed: 2022,
        num_templates: 48,
        adhoc_per_day: 4,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    });
    let cluster = Cluster::default();
    let jobs = workload.jobs_for_day(0);
    let view = build_view(&jobs, &optimizer, &Default::default(), &cluster).unwrap();

    let advisor_with = |parallelism: ParallelismConfig| {
        QoAdvisor::new(
            optimizer.clone(),
            FlightingService::new(Cluster::preproduction(), FlightBudget::default()),
            PipelineConfig {
                parallelism,
                ..PipelineConfig::default()
            },
        )
    };

    let cases = [
        (
            "pipeline_run_day_48_templates_serial",
            ParallelismConfig::serial(),
        ),
        (
            "pipeline_run_day_48_templates_parallel",
            ParallelismConfig::with_threads(0),
        ),
    ];
    for (name, parallelism) in cases {
        c.bench_function(name, |b| {
            b.iter_batched(
                || advisor_with(parallelism),
                |mut qa| {
                    black_box(
                        qa.run_day(&view, 0)
                            .expect("pipeline day runs")
                            .hints_published,
                    )
                },
                BatchSize::PerIteration,
            )
        });
    }
}

/// Cached vs uncached `run_day` on the same compile-heavy day (serial, so
/// the comparison isolates the compile-result cache from the thread-pool
/// speedup), plus a 3-day sequence where cross-day reuse compounds.
/// Outputs are byte-identical cache-on vs cache-off; only throughput may
/// differ — the ratio between these pairs is the cache's report card.
fn bench_pipeline_compile_cache(c: &mut Criterion) {
    let optimizer = Optimizer::default();
    let workload = Workload::new(WorkloadConfig {
        seed: 2022,
        num_templates: 48,
        adhoc_per_day: 4,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    });
    let cluster = Cluster::default();
    let views: Vec<_> = (0..3u32)
        .map(|day| {
            build_view(
                &workload.jobs_for_day(day),
                &optimizer,
                &Default::default(),
                &cluster,
            )
            .unwrap()
        })
        .collect();

    let advisor_with = |cache: CacheConfig| {
        QoAdvisor::new(
            optimizer.clone(),
            FlightingService::new(Cluster::preproduction(), FlightBudget::default()),
            PipelineConfig {
                cache,
                // Pinned off so this pair keeps its PR 2 meaning (compile
                // cache alone); `bench_sim_delta_compile` measures delta.
                delta: qo_advisor::DeltaConfig::disabled(),
                ..PipelineConfig::default()
            },
        )
    };

    let cases = [
        ("uncached", CacheConfig::disabled()),
        ("cached", CacheConfig::default()),
    ];
    for (name, cache) in cases {
        c.bench_function(&format!("pipeline_run_day_48_templates_{name}"), |b| {
            b.iter_batched(
                || advisor_with(cache),
                |mut qa| {
                    black_box(
                        qa.run_day(&views[0], 0)
                            .expect("pipeline day runs")
                            .hints_published,
                    )
                },
                BatchSize::PerIteration,
            )
        });
    }
    for (name, cache) in cases {
        c.bench_function(&format!("pipeline_3_days_48_templates_{name}"), |b| {
            b.iter_batched(
                || advisor_with(cache),
                |mut qa| {
                    let mut published = 0;
                    for (day, view) in views.iter().enumerate() {
                        published += qa
                            .run_day(view, day as u32)
                            .expect("pipeline day runs")
                            .hints_published;
                    }
                    black_box(published)
                },
                BatchSize::PerIteration,
            )
        });
    }
}

/// The whole closed loop (`ProductionSim::advance_day`, which `build_view`'s
/// production compiles dominate) over 3 days, compile cache on vs off, under
/// fresh vs sticky literals. Sticky literals are the recurring-script regime
/// the paper assumes: every warm day's production compile repeats a day-0
/// plan, so the shared sim-wide cache turns `build_view` into lookups and
/// this pair shows the cache's headline win. Fresh literals bound the same
/// comparison from below (only within-day repeats can hit).
fn bench_sim_advance_day(c: &mut Criterion) {
    let policies = [
        ("fresh", LiteralPolicy::FreshEachRun),
        (
            "sticky",
            LiteralPolicy::Sticky {
                redraw_every_days: 0,
            },
        ),
    ];
    let caches = [
        ("uncached", CacheConfig::disabled()),
        ("cached", CacheConfig::default()),
    ];
    for (policy_name, literals) in policies {
        for (cache_name, cache) in caches {
            let workload = WorkloadConfig {
                seed: 2022,
                num_templates: 48,
                adhoc_per_day: 4,
                max_instances_per_day: 1,
                literals,
            };
            c.bench_function(
                &format!("sim_advance_3_days_48_templates_{policy_name}_{cache_name}"),
                |b| {
                    b.iter_batched(
                        || {
                            ProductionSim::new(
                                workload.clone(),
                                PipelineConfig {
                                    cache,
                                    // Pinned off so this pair keeps its
                                    // PR 3 meaning (compile cache alone).
                                    delta: qo_advisor::DeltaConfig::disabled(),
                                    ..PipelineConfig::default()
                                },
                            )
                        },
                        |mut sim| {
                            let mut published = 0;
                            for _ in 0..3 {
                                published += sim
                                    .advance_day()
                                    .expect("generated workloads compile")
                                    .report
                                    .hints_published;
                            }
                            black_box(published)
                        },
                        BatchSize::PerIteration,
                    )
                },
            );
        }
    }
}

/// Delta compilation's report card: the same sticky 3-day closed loop with
/// the compile cache ON in both arms, delta slate compilation off vs on.
/// The remaining cost of the compile-cached baseline is compile-miss-bound
/// — the ~40-60
/// fresh flip treatments recommendation and flighting price per day are
/// genuinely new `(plan, config)` pairs the caches can never serve — and
/// pricing them against the shared base memo is the lever that attacks it.
/// Outputs are byte-identical in both arms (`tests/determinism.rs`).
fn bench_sim_delta_compile(c: &mut Criterion) {
    let workload = WorkloadConfig {
        seed: 2022,
        num_templates: 48,
        adhoc_per_day: 4,
        max_instances_per_day: 1,
        literals: LiteralPolicy::Sticky {
            redraw_every_days: 0,
        },
    };
    let cases = [
        ("delta_off", qo_advisor::DeltaConfig::disabled()),
        ("delta_on", qo_advisor::DeltaConfig::default()),
    ];
    for (name, delta) in cases {
        c.bench_function(
            &format!("sim_advance_3_days_48_templates_sticky_{name}"),
            |b| {
                b.iter_batched(
                    || {
                        ProductionSim::new(
                            workload.clone(),
                            PipelineConfig {
                                cache: CacheConfig::default(),
                                delta,
                                ..PipelineConfig::default()
                            },
                        )
                    },
                    |mut sim| {
                        let mut published = 0;
                        for _ in 0..3 {
                            published += sim
                                .advance_day()
                                .expect("generated workloads compile")
                                .report
                                .hints_published;
                        }
                        black_box(published)
                    },
                    BatchSize::PerIteration,
                )
            },
        );
    }
}

/// The recommend/featurize fast path's report card: one *warm* sticky day
/// (the steady-state regime — every compile already cached, delta on;
/// setup advances 3 days first) with the span-feature cache and batched
/// sparse rank scoring off vs on. With compiles amortized by PRs 2–5, the
/// warm day is featurization/scoring-bound, and these two knobs attack
/// exactly that remainder. Outputs are byte-identical in both arms
/// (`tests/determinism.rs`).
fn bench_sim_recommend_fastpath(c: &mut Criterion) {
    let workload = WorkloadConfig {
        seed: 2022,
        num_templates: 48,
        adhoc_per_day: 4,
        max_instances_per_day: 1,
        literals: LiteralPolicy::Sticky {
            redraw_every_days: 0,
        },
    };
    let cases = [("fastpath_off", false), ("fastpath_on", true)];
    for (name, enabled) in cases {
        c.bench_function(&format!("sim_warm_day_48_templates_sticky_{name}"), |b| {
            b.iter_batched(
                || {
                    let mut config = PipelineConfig {
                        feature_cache: if enabled {
                            qo_advisor::FeatureCacheConfig::default()
                        } else {
                            qo_advisor::FeatureCacheConfig::disabled()
                        },
                        ..PipelineConfig::default()
                    };
                    config.cb.batch_rank = enabled;
                    let mut sim = ProductionSim::new(workload.clone(), config);
                    for _ in 0..3 {
                        sim.advance_day().expect("generated workloads compile");
                    }
                    sim
                },
                |mut sim| {
                    black_box(
                        sim.advance_day()
                            .expect("generated workloads compile")
                            .report
                            .hints_published,
                    )
                },
                BatchSize::PerIteration,
            )
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline, bench_pipeline_parallelism, bench_pipeline_compile_cache,
        bench_sim_advance_day, bench_sim_delta_compile,
        bench_sim_recommend_fastpath
}
criterion_main!(benches);

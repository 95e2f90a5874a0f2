//! Criterion microbenches for the execution simulator: stage-graph
//! extraction and noisy execution.

use criterion::{criterion_group, criterion_main, Criterion};
use scope_ir::stats::DualStats;
use scope_lang::{bind_script, Catalog, TableInfo};
use scope_opt::Optimizer;
use scope_runtime::{execute, Cluster, StageGraph};
use std::hint::black_box;

fn physical() -> scope_ir::PhysicalPlan {
    let mut catalog = Catalog::default();
    catalog.register(
        "store/fact",
        TableInfo {
            rows: DualStats::exact(5e8),
        },
    );
    let plan = bind_script(
        r#"
        fact = EXTRACT k:int, m:int, v:float FROM "store/fact";
        dim  = EXTRACT k:int, g:int FROM "store/dim";
        flt  = SELECT k, v FROM fact WHERE v > 100;
        j    = SELECT * FROM flt AS f JOIN dim AS d ON f.k == d.k;
        rpt  = SELECT g, SUM(v) AS total FROM j GROUP BY g;
        OUTPUT rpt TO "out/r";
    "#,
        &catalog,
    )
    .unwrap();
    let opt = Optimizer::default();
    opt.compile(&plan, &opt.default_config()).unwrap().physical
}

fn bench_runtime(c: &mut Criterion) {
    let plan = physical();
    let cluster = Cluster::default();

    c.bench_function("stage_graph_build", |b| {
        b.iter(|| black_box(StageGraph::build(black_box(&plan), &cluster.config).vertices()))
    });

    c.bench_function("execute_with_variance", |b| {
        let mut run = 0u64;
        b.iter(|| {
            run += 1;
            black_box(execute(black_box(&plan), &cluster, 7, run).pn_hours)
        })
    });

    let quiet = Cluster::deterministic();
    c.bench_function("execute_deterministic", |b| {
        b.iter(|| black_box(execute(black_box(&plan), &quiet, 7, 0).pn_hours))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_runtime
}
criterion_main!(benches);

//! The benchmark's own guarantees, on a small workload shape: tracing does
//! not change decisions, single-tenant counters repeat exactly, fleet
//! tenants decide as they would alone, and the result line keeps its keys.

use std::path::PathBuf;
use steerbench::episode::{fleet_episode, single_episode, Episode};
use steerbench::reference::{Entry, Reference};
use steerbench::run::{reference_entry, run, Json};
use steerbench::spec::{spec, Kind, Shape, Spec};
use steerbench::trace::Tracer;

const SMALL: Shape = Shape {
    templates: 20,
    instances_per_day: 2,
    adhoc_per_day: 4,
};

fn small(name: &str) -> Spec {
    Spec {
        shape: SMALL,
        draws: 1,
        warmup_days: 3,
        measured_days: 5,
        solo_check_days: 4,
        ..spec(name).expect("known workload")
    }
}

fn dir(test: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&d).expect("create test dir");
    d
}

fn episode(spec: &Spec, seed: u64, tracer: Option<&Tracer>, test: &str) -> Episode {
    let ep = match spec.kind {
        Kind::Single { .. } => single_episode(spec, seed, 0, tracer, &dir(test)),
        Kind::Fleet { .. } => fleet_episode(spec, seed, 0, tracer, &dir(test), true),
    };
    assert_eq!(ep.failed, 0, "{}: {:?}", spec.name, ep.failures);
    ep
}

#[test]
fn traced_run_decides_like_untraced() {
    for name in ["sticky-warm", "fresh-cold", "durable-sticky"] {
        let spec = small(name);
        let test = format!("trace-{name}");
        let plain = episode(&spec, 7, None, &test);
        let tracer = Tracer::default();
        let traced = episode(&spec, 7, Some(&tracer), &test);
        assert_eq!(plain.digests, traced.digests, "{name}: per-day decisions");
        assert_eq!(
            plain.history_digest, traced.history_digest,
            "{name}: bandit log"
        );
        assert_eq!(
            plain.digests.len(),
            (spec.warmup_days + spec.measured_days) as usize
        );
        assert!(
            plain.pn_default > 0.0,
            "{name}: hinted jobs run in the measured days, so hints reach the compiler"
        );
        assert!(!tracer.is_empty(), "{name}: the traced run records spans");
        let compiles = traced
            .layers
            .get("scope_opt.compile.ms")
            .map_or(0, Vec::len);
        assert_eq!(
            compiles, spec.measured_days as usize,
            "{name}: a compile time per day"
        );
        assert_eq!(traced.counters.compile_calls, traced.counters.jobs);
        assert_eq!(traced.counters.execute_calls, traced.counters.jobs);
    }
}

#[test]
fn single_tenant_counters_repeat_exactly() {
    for name in ["sticky-warm", "durable-sticky"] {
        let spec = small(name);
        let test = format!("repeat-{name}");
        let a = episode(&spec, 3, None, &test);
        let b = episode(&spec, 3, None, &test);
        assert_eq!(a.counters, b.counters, "{name}: untraced counters");
        assert!(a.counters.compile.lookups() > 0 && a.counters.snapshot_bytes > 0);
        let (ta, tb) = (Tracer::default(), Tracer::default());
        let a = episode(&spec, 3, Some(&ta), &test);
        let b = episode(&spec, 3, Some(&tb), &test);
        assert_eq!(a.counters, b.counters, "{name}: traced counters");
    }
}

#[test]
fn decisions_depend_on_the_seed() {
    let spec = small("sticky-warm");
    let a = episode(&spec, 1, None, "seed-a");
    let b = episode(&spec, 2, None, "seed-b");
    assert_ne!(a.digests, b.digests);
}

#[test]
fn fleet_tenants_decide_as_they_would_alone() {
    let spec = Spec {
        kind: Kind::Fleet {
            groups: 2,
            group_size: 2,
        },
        ..small("fleet-mixed")
    };
    // `fleet_episode` compares one tenant per group with a solo run and
    // counts every differing day as failed; `episode` asserts none did.
    let ep = episode(&spec, 5, None, "fleet");
    assert_eq!(ep.day_ms.len(), spec.measured_days as usize);
    assert!(ep.counters.jobs > 0);
}

#[test]
fn a_run_checks_itself_and_prints_the_contract_line() {
    let spec = Spec {
        draws: 2,
        ..small("sticky-warm")
    };
    let outcome = run(&spec, 9, 1, None, &dir("run"), &Reference::default());
    assert!(outcome.correct(), "{:?}", outcome.failures);
    assert_eq!(outcome.reference, "none");
    assert_eq!(outcome.counters_repeat, "repeated");
    let Json(line) = serde_json::from_str(&outcome.result_line().expect("finite metrics"))
        .expect("result line parses");
    let serde::Value::Object(fields) = &line else {
        panic!("result line is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = line.get_field("metrics").expect("metrics");
    for name in [
        "setup_s",
        "day_ms_p50",
        "day_ms_p90",
        "jobs_per_s",
        "restore_ms",
    ] {
        let m = metrics.get_field(name).expect(name);
        assert!(m.get_field("value").is_ok() && m.get_field("unit").is_ok());
    }
}

#[test]
fn a_recorded_reference_is_enforced() {
    let spec = small("sticky-warm");
    let entry = reference_entry(&spec, 4, &dir("ref-entry")).expect("round runs");
    let stale_days = {
        let mut days = entry.days.clone();
        days.replace_range(32..40, "00000000");
        days
    };
    let stale_entry = Entry {
        days: stale_days,
        history: entry.history.clone(),
        ..Entry::new(spec.name, 4, &[], 0)
    };
    let matching = Reference {
        entries: vec![entry],
    };
    let outcome = run(&spec, 4, 1, None, &dir("ref-match"), &matching);
    assert_eq!(outcome.reference, "matched");
    assert!(outcome.correct());
    let stale = Reference {
        entries: vec![stale_entry],
    };
    let outcome = run(&spec, 4, 1, None, &dir("ref-stale"), &stale);
    assert_eq!(outcome.reference, "mismatched");
    assert_eq!(outcome.failed, 1);
}

#[test]
fn embedded_reference_parses() {
    let reference = Reference::embedded().expect("reference.json parses");
    for e in &reference.entries {
        assert!(
            spec(&e.workload).is_some(),
            "unknown workload {}",
            e.workload
        );
        assert_eq!(e.days.len() % 8, 0);
    }
}

#[test]
fn traced_runs_measure_every_per_layer_time() {
    let fleet = Spec {
        kind: Kind::Fleet {
            groups: 2,
            group_size: 2,
        },
        ..small("fleet-mixed")
    };
    for spec in [small("sticky-warm"), small("durable-sticky"), fleet] {
        let tracer = Tracer::default();
        let test = format!("layers-{}", spec.name);
        let outcome = run(
            &spec,
            6,
            1,
            Some(&tracer),
            &dir(&test),
            &Reference::default(),
        );
        assert!(outcome.correct(), "{}: {:?}", spec.name, outcome.failures);
        assert_eq!(outcome.reported().len(), outcome.per_layer.len());
        for m in &outcome.per_layer {
            if matches!(m.unit, "ms" | "us") && m.name != "trace.overhead_ms" {
                assert!(m.value > 0.0, "{}: {} reads {}", spec.name, m.name, m.value);
            }
        }
    }
}

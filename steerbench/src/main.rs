//! Steering-loop benchmark.
//!
//! ```text
//! cargo run --release --manifest-path steerbench/Cargo.toml -- \
//!     --workload <sticky-warm|fresh-cold|fleet-mixed|durable-sticky|all> \
//!     --seed N --seconds S --trace 0|1 [--emit-reference]
//! ```
//!
//! Run from the repository root. Prints every metric by name with its unit
//! and direction (the end-to-end ones, plus the per-layer ones with
//! `--trace 1`), then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or the
//! per-layer ones with `--trace 1`). The run record goes to
//! `steerbench/out/run-<workload>-seed<N>-trace<T>.json` and a traced run's
//! spans to `steerbench/out/trace-<workload>-seed<N>.jsonl`.
//! `--emit-reference` runs one untraced episode and prints its reference
//! entry instead (see `record_reference.sh`).

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use steerbench::reference::Reference;
use steerbench::run::{reference_entry, run, Json, RunOutcome};
use steerbench::spec::{spec, Spec, NAMES};
use steerbench::trace::Tracer;

const OUT_DIR: &str = "steerbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    emit_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
        emit_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-reference" {
            args.emit_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload != "all" && spec(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {} or all, not `{}`",
            NAMES.join(", "),
            args.workload
        ));
    }
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("steerbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("steerbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(args: &Args) -> Result<(), String> {
    let spec = spec(&args.workload).ok_or("unknown workload")?;
    let reference = Reference::embedded()?;
    let out = Path::new(OUT_DIR);
    let dir = out.join(format!("state-{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    if args.emit_reference {
        return emit_reference(&spec, args.seed, &dir);
    }
    let tracer = args.trace.then(Tracer::default);
    let outcome = run(
        &spec,
        args.seed,
        args.seconds,
        tracer.as_ref(),
        &dir,
        &reference,
    );
    let stem = format!("{}-seed{}", spec.name, args.seed);
    if let Some(tr) = &tracer {
        let path = out.join(format!("trace-{stem}.jsonl"));
        tr.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let record = outcome.record(args.seconds);
    let path = out.join(format!("run-{stem}-trace{}.json", u8::from(args.trace)));
    let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    print_table(&outcome, &record.git_revision, &path);
    println!("{}", outcome.result_line()?);
    Ok(())
}

fn emit_reference(spec: &Spec, seed: u64, dir: &Path) -> Result<(), String> {
    let entry = reference_entry(spec, seed, dir);
    let _ = std::fs::remove_dir_all(dir);
    println!(
        "{}",
        serde_json::to_string(&entry?).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn print_table(outcome: &RunOutcome, revision: &str, record: &Path) {
    println!(
        "steerbench {} seed={} trace={} episodes={}+{} nproc={} rev={}",
        outcome.spec.name,
        outcome.seed,
        u8::from(outcome.trace),
        outcome.episodes,
        outcome.traced_episodes,
        steerbench::spec::nproc(),
        revision
    );
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!(
            "  {:<34} {:>14.4} {:<6} {:<6} n={} q1={:.4} q3={:.4}{}",
            m.name,
            m.value,
            m.unit,
            m.better.as_str(),
            m.samples,
            m.q1,
            m.q3,
            if m.exact { " exact" } else { "" }
        );
    }
    println!(
        "  correct={} attempted={} failed={} reference={} counters={} record={}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        outcome.reference,
        outcome.counters_repeat,
        record.display()
    );
    for f in &outcome.failures {
        println!("  failure: {f}");
    }
}

/// Run every workload in its own process, so each reports its own peak
/// memory, and print one combined result line.
fn run_all(args: &Args) -> Result<(), String> {
    let exe: PathBuf = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for name in NAMES {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        if !output.status.success() {
            return Err(format!("{name} exited with {}", output.status));
        }
        let Json(v) = serde_json::from_str(last).map_err(|e| format!("{name}: {e}"))?;
        correct &= v.get_field("correct").ok() == Some(&Value::Bool(true));
        let count = |k: &str| match v.get_field(k) {
            Ok(Value::U64(n)) => *n,
            _ => 0,
        };
        attempted += count("attempted");
        failed += count("failed");
        if let Ok(Value::Object(fields)) = v.get_field("metrics") {
            for (k, m) in fields {
                metrics.push((format!("{name}.{k}"), m.clone()));
            }
        }
    }
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&Json(line)).map_err(|e| e.to_string())?
    );
    Ok(())
}

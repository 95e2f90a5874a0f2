//! Spans recorded by the benchmark around its calls into each layer, plus
//! the timing wrappers it hands to `build_view`.
//!
//! Spans stay in memory and are written out when the run ends. A layer's
//! self time is its span's duration minus the durations of its child spans.

use scope_ir::logical::LogicalPlan;
use scope_ir::physical::PhysicalPlan;
use scope_opt::{CompileError, Compiled, Compiler, RuleConfig, RuleSet};
use scope_runtime::{Cluster, ExecutionMetrics, Executor};
use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// `None` for a span that covers every tenant (a fleet day).
    pub tenant: Option<u32>,
    pub day: u32,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One span as written to the trace file.
#[derive(Serialize)]
struct SpanLine {
    id: u64,
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<u64>,
    tenant: Option<u32>,
    day: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    tenant: Cell<Option<u32>>,
    day: Cell<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::default(),
            open: RefCell::default(),
            tenant: Cell::new(None),
            day: Cell::new(0),
        }
    }
}

impl Tracer {
    /// Tag the spans that follow with a tenant and day.
    pub fn at(&self, tenant: Option<u32>, day: u32) {
        self.tenant.set(tenant);
        self.day.set(day);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested in the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                tenant: self.tenant.get(),
                day: self.day.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        result
    }

    /// The spans recorded since `from`, by index.
    #[must_use]
    pub fn spans_from(&self, from: usize) -> Vec<Span> {
        self.spans.borrow()[from..].to_vec()
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let line = SpanLine {
                id: id as u64,
                name: s.name.to_string(),
                start_us: s.start_ns as f64 / 1e3,
                end_us: s.end_ns as f64 / 1e3,
                parent: s.parent.map(|p| p as u64),
                tenant: s.tenant,
                day: s.day,
            };
            let text = serde_json::to_string(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            writeln!(out, "{text}")?;
        }
        out.flush()
    }
}

/// The `(tenant, day)` a span was recorded for.
pub type Unit = (Option<u32>, u32);

/// Self time in nanoseconds per unit and span name over `spans`, whose
/// `parent` indices are relative to `base`, the tracer index of `spans[0]`.
#[must_use]
pub fn self_time(spans: &[Span], base: usize) -> BTreeMap<Unit, BTreeMap<&'static str, u64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<Unit, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry((s.tenant, s.day))
            .or_default()
            .entry(s.name)
            .or_insert(0) += s.duration_ns().saturating_sub(children);
    }
    out
}

/// The steering latency of every job `build_view` handled in `spans`: its
/// compile spans (two when a hint fails to apply) plus its execute span.
#[must_use]
pub fn job_latencies_ns(spans: &[Span]) -> Vec<u64> {
    let mut jobs = Vec::new();
    let mut compile_ns = 0;
    for s in spans {
        match s.name {
            "scope_opt.compile" => compile_ns += s.duration_ns(),
            "scope_runtime.execute" => {
                jobs.push(compile_ns + s.duration_ns());
                compile_ns = 0;
            }
            _ => {}
        }
    }
    jobs
}

/// A compiler or executor that records a span around every compile or
/// execution and forwards everything else unchanged, so the delta path and
/// the default configuration are those of the wrapped value.
pub struct Timed<'a, T> {
    inner: &'a T,
    tracer: &'a Tracer,
}

impl<'a, T> Timed<'a, T> {
    pub fn new(inner: &'a T, tracer: &'a Tracer) -> Self {
        Self { inner, tracer }
    }
}

impl<C: Compiler> Compiler for Timed<'_, C> {
    fn rules(&self) -> &RuleSet {
        self.inner.rules()
    }

    fn default_config(&self) -> RuleConfig {
        self.inner.default_config()
    }

    fn compile(&self, plan: &LogicalPlan, config: &RuleConfig) -> Result<Compiled, CompileError> {
        self.tracer
            .span("scope_opt.compile", || self.inner.compile(plan, config))
    }

    fn compile_slate(
        &self,
        plan: &LogicalPlan,
        base: &RuleConfig,
        treatments: &[RuleConfig],
    ) -> Vec<Result<Compiled, CompileError>> {
        self.tracer.span("scope_opt.compile", || {
            self.inner.compile_slate(plan, base, treatments)
        })
    }
}

impl<E: Executor> Executor for Timed<'_, E> {
    fn cluster(&self) -> &Cluster {
        self.inner.cluster()
    }

    fn execute(&self, plan: &PhysicalPlan, job_seed: u64, run_seed: u64) -> ExecutionMetrics {
        self.tracer.span("scope_runtime.execute", || {
            self.inner.execute(plan, job_seed, run_seed)
        })
    }
}

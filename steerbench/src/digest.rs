//! Decision digests: a stable hash of what the steering loop decided.
//!
//! A day's digest covers the chosen flips (through the Table-3 counters and
//! the chosen-cost total), the flight and validation verdicts, the hints
//! published, the SIS hint set after the day and every counterfactual
//! comparison. It leaves out wall clocks and the cache, delta and budget
//! counters: optimisations change those legitimately, and in a fleet they
//! depend on how workers interleave.

use personalizer::LoggedOutcome;
use qo_advisor::DayOutcome;
use scope_ir::ids::stable_hash64;
use scope_opt::HintSet;
use scope_runtime::ExecutionMetrics;

#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn metrics(&mut self, m: &ExecutionMetrics) {
        for v in [
            m.latency_sec,
            m.pn_hours,
            m.data_read,
            m.data_written,
            m.max_memory,
            m.avg_memory,
            m.cpu_sec,
            m.io_sec,
        ] {
            self.f64(v);
        }
        self.u64(m.vertices);
        self.u64(m.tokens);
    }
}

/// Digest of one tenant-day: its outcome plus the tenant's SIS hint set
/// after the day.
#[must_use]
pub fn day_digest(outcome: &DayOutcome, hints: &HintSet) -> u64 {
    let r = &outcome.report;
    let mut b = Bytes::default();
    b.u64(u64::from(r.day));
    for v in [
        r.jobs_total,
        r.recurring_jobs,
        r.jobs_with_span,
        r.lower_cost,
        r.equal_cost,
        r.higher_cost,
        r.recompile_failures,
        r.noop_chosen,
        r.skipped_explored,
        r.flighted,
        r.flight_success,
        r.flight_timeout,
        r.flight_failure,
        r.flight_filtered,
        r.validated,
        r.hints_published,
    ] {
        b.usize(v);
    }
    b.f64(r.total_default_cost);
    b.f64(r.total_chosen_cost);
    b.f64(r.flight_seconds_used);
    b.u64(u64::from(r.sis_version));
    let hints = hints.hints();
    b.usize(hints.len());
    for h in hints {
        b.u64(h.template.0);
        b.u64(u64::from(h.flip.rule.0));
        b.u64(u64::from(h.flip.enable));
    }
    b.usize(outcome.comparisons.len());
    for c in &outcome.comparisons {
        b.u64(c.template.0);
        b.u64(c.job_id.0);
        b.metrics(&c.default);
        b.metrics(&c.steered);
    }
    b.usize(outcome.reverted.len());
    for t in &outcome.reverted {
        b.u64(t.0);
    }
    stable_hash64(&b.0)
}

/// Digest of the bandit's logged outcomes (read once, after the timed days).
#[must_use]
pub fn history_digest(history: &[LoggedOutcome]) -> u64 {
    let mut b = Bytes::default();
    b.usize(history.len());
    for o in history {
        b.u64(u64::from(o.target_agrees));
        b.f64(o.logged_probability);
        b.f64(o.reward);
    }
    stable_hash64(&b.0)
}

/// Fold several digests into one, order-sensitively.
#[must_use]
pub fn combine(digests: &[u64]) -> u64 {
    let mut b = Bytes::default();
    for &d in digests {
        b.u64(d);
    }
    stable_hash64(&b.0)
}

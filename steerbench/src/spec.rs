//! The benchmark's workloads: what each one runs, why it was chosen, and the
//! layer it loads.

use qo_advisor::fleet::{FleetConfig, StreamConfig};
use qo_advisor::PipelineConfig;
use scope_ir::ids::tenant_workload_seed;
use scope_workload::{LiteralPolicy, WorkloadConfig};

/// Validation-model bootstrap of every tenant: `(days, flights per day)`,
/// the probe's setting.
pub const BOOTSTRAP: (u32, usize) = (5, 24);

/// Workload shape of one tenant: templates, instances per day, ad-hoc jobs
/// per day. The probe's shape; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub templates: usize,
    pub instances_per_day: u32,
    pub adhoc_per_day: usize,
}

pub const PROBE_SHAPE: Shape = Shape {
    templates: 60,
    instances_per_day: 2,
    adhoc_per_day: 15,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One tenant, driven through `ProductionSim::advance_day`.
    Single {
        literals: Literals,
        /// Snapshot the steering state at every measured day boundary.
        durable: bool,
    },
    /// `groups × group_size` tenants in one `Fleet`; tenants of a group share
    /// one workload configuration.
    Fleet { groups: u32, group_size: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Literals {
    /// Recurring scripts keep their literals forever.
    Sticky,
    /// Literals are redrawn on every run.
    Fresh,
}

impl Literals {
    fn policy(self) -> LiteralPolicy {
        match self {
            Literals::Sticky => LiteralPolicy::Sticky {
                redraw_every_days: 0,
            },
            Literals::Fresh => LiteralPolicy::FreshEachRun,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload is in the benchmark and which layer it loads.
    pub why: &'static str,
    pub kind: Kind,
    pub shape: Shape,
    /// Independent workload draws per round, each with its own seed derived
    /// from the benchmark seed. Pooling several draws keeps one unusually
    /// cheap or costly draw from setting a run's figures.
    pub draws: u32,
    /// Untimed days after the bootstrap; part of set-up.
    pub warmup_days: u32,
    /// Timed days per draw.
    pub measured_days: u32,
    /// Fleet only: measured days on which one tenant per group is compared
    /// with a solo run of its configuration.
    pub solo_check_days: u32,
}

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["sticky-warm", "fresh-cold", "fleet-mixed", "durable-sticky"];

/// The named workload, or `None` for an unknown name.
#[must_use]
pub fn spec(name: &str) -> Option<Spec> {
    let sticky = Kind::Single {
        literals: Literals::Sticky,
        durable: false,
    };
    // Every round measures 100 days over its draws, which puts ten samples
    // beyond the p90 day.
    let base = Spec {
        name: "sticky-warm",
        why: "recurring scripts with sticky literals after warm-up: compile-cache reads \
              dominate, the day splits between executing plans, recommend and ad-hoc compiles",
        kind: sticky,
        shape: PROBE_SHAPE,
        draws: 4,
        warmup_days: 10,
        measured_days: 25,
        solo_check_days: 0,
    };
    Some(match name {
        "sticky-warm" => base,
        "fresh-cold" => Spec {
            name: "fresh-cold",
            why: "literals redrawn on every run: each instance is a new plan, so the day is \
                  compile-bound (scope_opt search, delta slates) and the compile cache mostly \
                  takes inserts",
            kind: Kind::Single {
                literals: Literals::Fresh,
                durable: false,
            },
            warmup_days: 2,
            ..base
        },
        "fleet-mixed" => Spec {
            name: "fleet-mixed",
            why: "16 tenants in 4 groups with fresh literals: loads the streaming worker \
                  pool, the parallel reduce and the shared caches under concurrency",
            kind: Kind::Fleet {
                groups: 4,
                group_size: 4,
            },
            draws: 2,
            warmup_days: 2,
            measured_days: 50,
            solo_check_days: 8,
            ..base
        },
        "durable-sticky" => Spec {
            name: "durable-sticky",
            why: "sticky-warm plus a snapshot at every day boundary and a restore: the only \
                  workload where scope_state does most of the work",
            kind: Kind::Single {
                literals: Literals::Sticky,
                durable: true,
            },
            ..base
        },
        _ => return None,
    })
}

impl Spec {
    /// Workload configuration of `tenant` in `draw`; every tenant seed is
    /// derived from the benchmark seed, and tenants of one fleet group share
    /// theirs.
    #[must_use]
    pub fn workload(&self, seed: u64, draw: u32, tenant: u32) -> WorkloadConfig {
        let (literals, stream) = match self.kind {
            Kind::Single { literals, .. } => (literals, draw),
            Kind::Fleet { groups, group_size } => {
                (Literals::Fresh, draw * groups + tenant / group_size)
            }
        };
        WorkloadConfig {
            seed: tenant_workload_seed(seed, stream),
            num_templates: self.shape.templates,
            adhoc_per_day: self.shape.adhoc_per_day,
            max_instances_per_day: self.shape.instances_per_day,
            literals: literals.policy(),
        }
    }

    #[must_use]
    pub fn tenants(&self) -> u32 {
        match self.kind {
            Kind::Single { .. } => 1,
            Kind::Fleet { groups, group_size } => groups * group_size,
        }
    }

    /// The pipeline every tenant runs: the defaults, except that a fleet
    /// hashes its bandit weights into 2^16 slots (as the fleet bin does) to
    /// keep 16 tenants' state small.
    #[must_use]
    pub fn pipeline(&self) -> PipelineConfig {
        match self.kind {
            Kind::Single { .. } => PipelineConfig::default(),
            Kind::Fleet { .. } => PipelineConfig {
                cb: personalizer::CbConfig {
                    dim_bits: 16,
                    ..personalizer::CbConfig::default()
                },
                ..PipelineConfig::default()
            },
        }
    }

    #[must_use]
    pub fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            pipeline: self.pipeline(),
            stream: StreamConfig {
                workers: nproc(),
                ..StreamConfig::default()
            },
            isolated_caches: false,
        }
    }
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

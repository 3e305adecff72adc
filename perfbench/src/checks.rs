//! Output checks. Each check compares what the program reported against a
//! value computed here, apart from the program, or against a property the
//! method must have. None compares against a stored copy of an earlier run.
//!
//! A check returns the list of violations it found; an empty list passes.

/// What a `heartbeat` round reported.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatFacts {
    /// Desktops in the cluster.
    pub nodes: u64,
    /// Simulated horizon, seconds.
    pub horizon_s: u64,
    /// Information Update period, seconds.
    pub update_period_s: u64,
    /// Status updates the GRM accepted.
    pub updates_accepted: u64,
    /// Network messages delivered.
    pub net_messages: u64,
    /// Trader offers matching an unconstrained request at the horizon.
    pub offers: u64,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs completed by the horizon.
    pub completed: u64,
}

/// Every node sends one update per period and each is accepted; every
/// update travels with its acknowledgement; the trader holds one offer
/// per node; every job completes.
pub fn check_heartbeat(f: &HeartbeatFacts) -> Vec<String> {
    let mut bad = Vec::new();
    let expected = f.nodes * (f.horizon_s / f.update_period_s);
    if f.updates_accepted != expected {
        bad.push(format!(
            "heartbeat: {} updates accepted, expected nodes x floor(horizon / period) = {expected}",
            f.updates_accepted
        ));
    }
    if f.net_messages < 2 * expected {
        bad.push(format!(
            "heartbeat: {} messages, fewer than update + ack per update ({})",
            f.net_messages,
            2 * expected
        ));
    }
    if f.offers != f.nodes {
        bad.push(format!(
            "heartbeat: trader holds {} offers for {} nodes",
            f.offers, f.nodes
        ));
    }
    if f.completed != f.jobs {
        bad.push(format!(
            "heartbeat: {} of {} jobs completed",
            f.completed, f.jobs
        ));
    }
    bad
}

/// One finished job of a `harvest` round.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedJob {
    /// Job name.
    pub name: String,
    /// Submission to completion, simulated seconds.
    pub makespan_s: f64,
    /// Work of the job's largest part, MIPS-s.
    pub largest_part_mips_s: u64,
    /// Times the job's parts were evicted.
    pub evictions: u64,
}

/// What a `harvest` round reported.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestFacts {
    /// Seeded jobs submitted.
    pub jobs: u64,
    /// Seeded jobs completed.
    pub completed: u64,
    /// Every completed job, seeded and probe.
    pub finished: Vec<FinishedJob>,
    /// Fastest node in the cluster, MIPS.
    pub fastest_mips: u64,
    /// The execution slot, seconds.
    pub tick_s: f64,
}

/// The least time `job` can take: its largest part's work at the fastest
/// node's full rate.
fn strict_floor_s(job: &FinishedJob, fastest_mips: u64) -> f64 {
    job.largest_part_mips_s as f64 / fastest_mips as f64
}

/// Jobs that beat the strict floor. The LRM credits a whole execution slot
/// of work at the first slot tick after a launch, however late in the slot
/// the part launched, so a job can finish up to one slot per launch sooner
/// than its work allows. The benchmark prints this count on every run.
pub fn overcredited_jobs(f: &HarvestFacts) -> usize {
    f.finished
        .iter()
        .filter(|j| j.makespan_s < strict_floor_s(j, f.fastest_mips))
        .count()
}

/// Every seeded job completes, and no job finishes sooner than its largest
/// part's work at the fastest node's full rate, less the one slot of work
/// each launch can be over-credited (see [`overcredited_jobs`]).
pub fn check_harvest(f: &HarvestFacts) -> Vec<String> {
    let mut bad = Vec::new();
    if f.completed != f.jobs {
        bad.push(format!(
            "harvest: {} of {} seeded jobs completed",
            f.completed, f.jobs
        ));
    }
    for job in &f.finished {
        let launches = 1 + job.evictions;
        let floor = strict_floor_s(job, f.fastest_mips) - f.tick_s * launches as f64;
        if job.makespan_s < floor {
            bad.push(format!(
                "harvest: {} finished in {:.1} s, below its {floor:.1} s lower bound",
                job.name, job.makespan_s
            ));
        }
    }
    bad
}

/// The class of a federation job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FedClass {
    /// A bag that fits its origin leaf.
    LeafLocal,
    /// A job that needs a CPU only hubs have.
    FastCpu,
    /// A bag that needs more RAM than a leaf node has.
    BigRam,
}

/// Where the federation ran one job.
#[derive(Debug, Clone, PartialEq)]
pub struct FedPlacementFacts {
    /// The job's class.
    pub class: FedClass,
    /// Origin cluster.
    pub origin: u32,
    /// Executing cluster.
    pub executed_at: u32,
    /// Inter-cluster hops.
    pub hops: u32,
    /// Completed at the executing cluster.
    pub completed: bool,
    /// The origin knows the job completed.
    pub origin_acked: bool,
}

/// What a `federation` round reported.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationFacts {
    /// Jobs submitted.
    pub jobs: u64,
    /// One entry per placed job.
    pub placements: Vec<FedPlacementFacts>,
    /// Hub cluster ids.
    pub hubs: Vec<u32>,
    /// Leaf cluster ids (256 MB nodes).
    pub leaves: Vec<u32>,
}

/// Every job is placed, completes and is acknowledged at its origin;
/// fast-CPU jobs run only on hubs; big-RAM jobs never run on a leaf;
/// leaf-local bags run at their origin with no hops.
pub fn check_federation(f: &FederationFacts) -> Vec<String> {
    let mut bad = Vec::new();
    if f.placements.len() as u64 != f.jobs {
        bad.push(format!(
            "federation: {} of {} jobs placed",
            f.placements.len(),
            f.jobs
        ));
    }
    for (i, p) in f.placements.iter().enumerate() {
        if !p.completed || !p.origin_acked {
            bad.push(format!(
                "federation: job {i} from cluster {} completed={} origin_acked={}",
                p.origin, p.completed, p.origin_acked
            ));
        }
        match p.class {
            FedClass::FastCpu if !f.hubs.contains(&p.executed_at) => bad.push(format!(
                "federation: fast-CPU job {i} ran on non-hub cluster {}",
                p.executed_at
            )),
            FedClass::BigRam if f.leaves.contains(&p.executed_at) => bad.push(format!(
                "federation: big-RAM job {i} ran on 256 MB leaf {}",
                p.executed_at
            )),
            FedClass::LeafLocal if p.executed_at != p.origin || p.hops != 0 => bad.push(format!(
                "federation: leaf-local job {i} ran at {} with {} hops (origin {})",
                p.executed_at, p.hops, p.origin
            )),
            _ => {}
        }
    }
    bad
}

/// What an `idle-day` round reported.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleDayFacts {
    /// Nodes carrying an owner trace.
    pub traced_nodes: u64,
    /// Trained GUPA models after midnight.
    pub gupa_models: u64,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs completed.
    pub completed: u64,
}

/// After midnight every traced node has a trained model (its seventh day
/// of history arrived); every job completes.
pub fn check_idle_day(f: &IdleDayFacts) -> Vec<String> {
    let mut bad = Vec::new();
    if f.gupa_models != f.traced_nodes {
        bad.push(format!(
            "idle-day: {} GUPA models for {} traced nodes",
            f.gupa_models, f.traced_nodes
        ));
    }
    if f.completed != f.jobs {
        bad.push(format!(
            "idle-day: {} of {} jobs completed",
            f.completed, f.jobs
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat() -> HeartbeatFacts {
        HeartbeatFacts {
            nodes: 100,
            horizon_s: 600,
            update_period_s: 30,
            updates_accepted: 2_000,
            net_messages: 4_100,
            offers: 100,
            jobs: 10,
            completed: 10,
        }
    }

    #[test]
    fn heartbeat_check_passes_and_fails() {
        assert!(check_heartbeat(&heartbeat()).is_empty());
        for wrong in [
            HeartbeatFacts {
                updates_accepted: 1_999,
                ..heartbeat()
            },
            HeartbeatFacts {
                net_messages: 3_999,
                ..heartbeat()
            },
            HeartbeatFacts {
                offers: 99,
                ..heartbeat()
            },
            HeartbeatFacts {
                completed: 9,
                ..heartbeat()
            },
        ] {
            assert_eq!(check_heartbeat(&wrong).len(), 1, "{wrong:?}");
        }
    }

    fn harvest() -> HarvestFacts {
        HarvestFacts {
            jobs: 2,
            completed: 2,
            finished: vec![FinishedJob {
                name: "seq-0".into(),
                makespan_s: 100.0,
                largest_part_mips_s: 50_000,
                evictions: 0,
            }],
            fastest_mips: 1_000,
            tick_s: 10.0,
        }
    }

    #[test]
    fn harvest_check_passes_and_fails() {
        assert!(check_harvest(&harvest()).is_empty());
        let unfinished = HarvestFacts {
            completed: 1,
            ..harvest()
        };
        assert_eq!(check_harvest(&unfinished).len(), 1);
        let too_fast = HarvestFacts {
            fastest_mips: 100,
            ..harvest()
        };
        assert_eq!(check_harvest(&too_fast).len(), 1);
        // Within one slot of the strict floor per launch: over-credited,
        // counted, but not a check failure.
        let one_slot = HarvestFacts {
            fastest_mips: 480,
            ..harvest()
        };
        assert!(check_harvest(&one_slot).is_empty());
        assert_eq!(overcredited_jobs(&one_slot), 1);
        assert_eq!(overcredited_jobs(&harvest()), 0);
    }

    fn federation() -> FederationFacts {
        let p = |class, origin, executed_at, hops| FedPlacementFacts {
            class,
            origin,
            executed_at,
            hops,
            completed: true,
            origin_acked: true,
        };
        FederationFacts {
            jobs: 3,
            placements: vec![
                p(FedClass::LeafLocal, 5, 5, 0),
                p(FedClass::FastCpu, 5, 1, 1),
                p(FedClass::BigRam, 5, 0, 2),
            ],
            hubs: vec![1],
            leaves: vec![5, 6],
        }
    }

    #[test]
    fn federation_check_passes_and_fails() {
        assert!(check_federation(&federation()).is_empty());
        let mutate = |f: &dyn Fn(&mut FederationFacts)| {
            let mut facts = federation();
            f(&mut facts);
            check_federation(&facts).len()
        };
        assert_eq!(mutate(&|f| f.jobs = 4), 1);
        assert_eq!(mutate(&|f| f.placements[0].origin_acked = false), 1);
        assert_eq!(mutate(&|f| f.placements[0].hops = 1), 1);
        assert_eq!(mutate(&|f| f.placements[0].executed_at = 6), 1);
        assert_eq!(mutate(&|f| f.placements[1].executed_at = 0), 1);
        assert_eq!(mutate(&|f| f.placements[2].executed_at = 6), 1);
        assert_eq!(mutate(&|f| f.placements[2].completed = false), 1);
    }

    #[test]
    fn idle_day_check_passes_and_fails() {
        let ok = IdleDayFacts {
            traced_nodes: 50,
            gupa_models: 50,
            jobs: 100,
            completed: 100,
        };
        assert!(check_idle_day(&ok).is_empty());
        let untrained = IdleDayFacts {
            gupa_models: 49,
            ..ok.clone()
        };
        assert_eq!(check_idle_day(&untrained).len(), 1);
        let unfinished = IdleDayFacts {
            completed: 99,
            ..ok
        };
        assert_eq!(check_idle_day(&unfinished).len(), 1);
    }
}

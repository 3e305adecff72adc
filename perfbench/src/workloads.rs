//! The four workloads. Each generates its inputs once from the workload
//! seed, then runs whole rounds on them: assemble the grid or federation
//! (`setup_s`), simulate the horizon and produce the final report
//! (`run_s`), and check the outcome. Every round of one process sees the
//! same inputs, so every round must reach the same simulated outcome.
//!
//! All four are open loop: submission times are drawn from the seed before
//! the run and do not depend on what the program does.

use crate::checks::{
    check_federation, check_harvest, check_heartbeat, check_idle_day, overcredited_jobs, FedClass,
    FedPlacementFacts, FederationFacts, FinishedJob, HarvestFacts, HeartbeatFacts, IdleDayFacts,
};
use crate::stats::censored_turnaround;
use integrade_core::asct::{
    JobKind, JobRecord, JobRequirements, JobSpec, JobState, SchedulingPreference,
};
use integrade_core::federation::{Federation, RoutingPolicy};
use integrade_core::grid::{Grid, GridBuilder, GridConfig, GridReport, NodeSetup};
use integrade_core::ncc::SharingPolicy;
use integrade_core::protocol::StatusUpdate;
use integrade_core::types::{ClusterId, NodeId, NodeRoles, Platform, ResourceVector};
use integrade_simnet::rng::DetRng;
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_simnet::topology::LinkSpec;
use integrade_usage::sample::UsageSample;
use integrade_workload::apps::WorkloadConfig;
use integrade_workload::desktop::{generate_trace, Archetype, TraceConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["heartbeat", "harvest", "federation", "idle-day"];

/// Layer readings of one traced round.
#[derive(Debug, Default, Clone)]
pub struct RoundTrace {
    /// Host seconds inside `GridBuilder::build` (summed over members).
    pub build_s: f64,
    /// Host seconds per simulated hour of `run_until`, one per hour step.
    pub hour_s: Vec<f64>,
    /// Host seconds inside the final report (`Grid::report` or
    /// `Federation::refresh`).
    pub report_s: f64,
    /// Events the simulators dispatched.
    pub events: u64,
    /// Host microseconds of each `Federation::submit` call.
    pub submit_us: Vec<f64>,
    /// Program counters read after the run, by per-layer metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Phase timers from `Grid::profile_report`, seconds, by phase name.
    pub phases: BTreeMap<&'static str, f64>,
    /// A status update as one of the workload's nodes would send it.
    pub status: Option<StatusUpdate>,
}

/// The outcome of one round.
#[derive(Debug, Clone)]
pub struct Round {
    /// Host seconds from generated inputs to an assembled, warmed grid or
    /// federation with its submissions queued.
    pub setup_s: f64,
    /// Host seconds to simulate the horizon and produce the final report.
    pub run_s: f64,
    /// Censored turnaround of every submitted job, simulated seconds.
    pub turnaround_s: Vec<f64>,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that failed (hit a known program fault).
    pub failed: u64,
    /// Digest of the simulated outcome.
    pub digest: u64,
    /// Output-check violations (empty when the round is correct).
    pub problems: Vec<String>,
    /// Extra `key=value` facts for the summary line.
    pub notes: Vec<String>,
    /// Layer readings, in traced runs only.
    pub trace: Option<RoundTrace>,
}

/// Sizes the per-layer probes take from the workload.
#[derive(Debug, Clone)]
pub struct ProbeSizes {
    /// Offers in the trader a status update lands in.
    pub offers: usize,
    /// Marshalled checkpoint state, bytes.
    pub checkpoint_bytes: u64,
    /// Requirements the workload's jobs put to the trader.
    pub requirements: JobRequirements,
    /// Pending events per simulator: one update timer per node.
    pub queue_occupancy: usize,
    /// An owner trace the GUPA digests.
    pub trace: Vec<UsageSample>,
}

/// A generated workload, ready to run rounds.
pub trait Workload {
    /// Runs one round; `traced` also gathers layer readings.
    fn round(&self, traced: bool) -> Round;
    /// Sizes for the per-layer probes.
    fn probe_sizes(&self) -> ProbeSizes;
}

/// Generates the named workload's inputs from `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "heartbeat" => Box::new(Heartbeat::generate(seed)),
        "harvest" => Box::new(Harvest::generate(seed)),
        "federation" => Box::new(FederationLoad::generate(seed)),
        "idle-day" => Box::new(IdleDay::generate(seed)),
        _ => return None,
    })
}

// ----------------------------------------------------------------------
// Shared helpers
// ----------------------------------------------------------------------

/// FNV-1a over 64-bit words: the outcome digest.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self.word(s.len() as u64);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn state_code(state: JobState) -> u64 {
    match state {
        JobState::Queued => 0,
        JobState::Negotiating => 1,
        JobState::Running => 2,
        JobState::Rescheduling => 3,
        JobState::Completed => 4,
        JobState::Failed => 5,
    }
}

fn digest_record(d: &mut Digest, r: &JobRecord) {
    d.text(&r.name);
    d.word(state_code(r.state));
    d.word(r.submitted_at.as_micros());
    d.word(r.completed_at.map_or(u64::MAX, SimTime::as_micros));
    d.word(r.evictions);
    d.word(r.wasted_work_mips_s);
}

fn digest_report(d: &mut Digest, report: &GridReport) {
    for r in &report.records {
        digest_record(d, r);
    }
    d.word(report.net.messages);
    d.word(report.net.bytes);
    d.word(report.updates.accepted);
    d.word(report.trader_queries);
    d.word(report.gupa_models as u64);
}

/// `count` values in `[0, 1)`, one in each of `count` equal strata: one
/// column of a Latin hypercube. The seed (`rng`) moves each value by up to
/// [`JITTER`] of its stratum around the stratum's centre; `layout`, a
/// stream that does not depend on the seed, orders them. Every seed thus
/// gets the same size distribution in the same job order, perturbed inside
/// each stratum, which keeps the seed-to-seed spread of the simulated
/// metrics small.
fn strata(rng: &mut DetRng, layout: &mut DetRng, count: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..count)
        .map(|i| (i as f64 + 0.5 + JITTER * (rng.uniform_f64() - 0.5)) / count as f64)
        .collect();
    layout.shuffle(&mut v);
    v
}

/// Share of its stratum a value may move with the seed (see [`strata`]).
const JITTER: f64 = 0.1;

/// The stream owner traces are drawn from. It does not depend on the
/// workload seed: with 160-240 jobs, re-drawing the owners on every seed
/// moved the median turnaround by 15-40% between seeds, far beyond any
/// usable bound, so the campus is fixed and the seed moves the job stream
/// and the grid's own random streams.
fn owner_traces(stream: u64) -> DetRng {
    DetRng::with_stream(0x000a_11ce, stream)
}

/// The seed-independent stream that orders job sizes (see [`strata`]).
fn layout() -> DetRng {
    DetRng::new(0x1a70)
}

/// Open-loop submission times, in simulated microseconds: `[start_s,
/// end_s)` cut into `count` equal slots with one arrival in each, in time
/// order. The offset inside each slot comes from [`strata`], so the offsets
/// are spread evenly over the slot width across jobs and only their place
/// inside each stratum depends on the seed. The count is fixed, so every
/// round attempts the same number of jobs on every seed.
fn arrival_times(rng: &mut DetRng, count: usize, start_s: u64, end_s: u64) -> Vec<u64> {
    let width = (end_s - start_s) as f64 / count as f64;
    strata(rng, &mut layout(), count)
        .into_iter()
        .enumerate()
        .map(|(i, offset)| ((start_s as f64 + (i as f64 + offset) * width) * 1e6) as u64)
        .collect()
}

/// The `u` quantile of an exponential distribution with `mean`.
fn exponential_quantile(mean: f64, u: f64) -> f64 {
    -mean * (1.0 - u).ln()
}

/// `lo + floor(u * (hi - lo + 1))`: the `u` quantile of a uniform integer
/// range `lo..=hi`.
fn uniform_quantile(lo: u64, hi: u64, u: f64) -> u64 {
    (lo + (u * (hi - lo + 1) as f64) as u64).min(hi)
}

fn completed_s(r: &JobRecord) -> Option<f64> {
    (r.state == JobState::Completed)
        .then_some(r.completed_at)
        .flatten()
        .map(SimTime::as_secs_f64)
}

/// Simulates a grid to `horizon_s` and produces its final report. Untraced
/// rounds make one `run_until` call; traced rounds step hour by hour and
/// time each step and the report.
fn drive_grid(
    grid: &mut Grid,
    horizon_s: u64,
    trace: Option<&mut RoundTrace>,
) -> (GridReport, f64) {
    let start = Instant::now();
    let Some(trace) = trace else {
        grid.run_until(SimTime::from_secs(horizon_s));
        let report = grid.report();
        return (report, start.elapsed().as_secs_f64());
    };
    let mut at = 0;
    while at < horizon_s {
        let next = (at + 3_600).min(horizon_s);
        let step = Instant::now();
        let (_, events) = grid.run_until_counting(SimTime::from_secs(next));
        trace
            .hour_s
            .push(step.elapsed().as_secs_f64() * 3_600.0 / (next - at) as f64);
        trace.events += events;
        at = next;
    }
    let flush = Instant::now();
    let report = grid.report();
    trace.report_s += flush.elapsed().as_secs_f64();
    (report, start.elapsed().as_secs_f64())
}

/// Reads the grid's counters and phase timers into `trace`, adding to what
/// is there (a federation sums its members).
fn read_grid_layers(grid: &Grid, report: &GridReport, trace: &mut RoundTrace) {
    let snap = grid.metrics_snapshot();
    let add = |trace: &mut RoundTrace, name: &'static str, v: f64| {
        *trace.counters.entry(name).or_insert(0.0) += v;
    };
    add(trace, "simnet.net_messages", report.net.messages as f64);
    add(trace, "simnet.net_bytes", report.net.bytes as f64);
    let peak = grid.queue_stats().peak_heap_depth as f64;
    let depth = trace
        .counters
        .entry("simnet.queue_peak_depth")
        .or_insert(0.0);
    *depth = depth.max(peak);
    add(
        trace,
        "orb.requests_dispatched",
        snap.counter("orb_requests_dispatched").unwrap_or(0) as f64,
    );
    add(
        trace,
        "orb.oneways_sent",
        snap.counter("orb_oneways_sent").unwrap_or(0) as f64,
    );
    add(
        trace,
        "grm.updates_accepted",
        report.updates.accepted as f64,
    );
    add(trace, "grm.trader_queries", report.trader_queries as f64);
    add(trace, "lrm.evictions", report.total_evictions() as f64);
    add(
        trace,
        "lrm.negotiation_refusals",
        report
            .records
            .iter()
            .map(|r| r.negotiation_refusals)
            .sum::<u64>() as f64,
    );
    add(
        trace,
        "lrm.wasted_work_mips_s",
        report.total_wasted_work() as f64,
    );
    add(
        trace,
        "repo.checkpoint_stores",
        grid.log().count("repo.store") as f64,
    );
    add(trace, "gupa.models", report.gupa_models as f64);
    for phase in grid.profile_report().phases {
        let name = match phase.phase.name() {
            "queue_pop" => "profile.queue_pop_s",
            "dispatch" => "profile.dispatch_s",
            "giop_decode" => "profile.giop_decode_s",
            "giop_encode" => "profile.giop_encode_s",
            "slot_walk" => "profile.slot_walk_s",
            "catch_up_replay" => "profile.catch_up_replay_s",
            "gupa_digest" => "profile.gupa_digest_s",
            _ => continue,
        };
        *trace.phases.entry(name).or_insert(0.0) += phase.total_ns as f64 * 1e-9;
    }
    if trace.status.is_none() {
        if let Some(lrm) = grid.lrm(NodeId(0)) {
            trace.status = Some(StatusUpdate {
                node: NodeId(0),
                seq: 1,
                status: lrm.current_status(),
                replicas: lrm.replica_reports(),
                pending_done: Vec::new(),
                pending_evicted: Vec::new(),
                progress: lrm.progress_reports(),
            });
        }
    }
}

fn timed_build(builder: &mut GridBuilder, trace: &mut Option<RoundTrace>) -> Grid {
    let start = Instant::now();
    let grid = builder.build();
    if let Some(t) = trace {
        t.build_s += start.elapsed().as_secs_f64();
    }
    grid
}

fn node(resources: ResourceVector, policy: SharingPolicy, trace: Vec<UsageSample>) -> NodeSetup {
    NodeSetup {
        resources,
        platform: Platform::linux_x86(),
        policy,
        roles: NodeRoles::provider(),
        trace,
    }
}

// ----------------------------------------------------------------------
// heartbeat
// ----------------------------------------------------------------------

/// Always-idle desktops in the `heartbeat` cluster.
const HEARTBEAT_NODES: usize = 10_000;
/// Simulated horizon of a `heartbeat` round, seconds.
const HEARTBEAT_HORIZON_S: u64 = 1_200;
/// Small sequential jobs trickled into the `heartbeat` cluster.
const HEARTBEAT_JOBS: usize = 120;
/// The default Information Update period, seconds.
const DEFAULT_UPDATE_PERIOD_S: u64 = 30;

struct Heartbeat {
    seed: u64,
    /// (submit time in simulated microseconds, spec), in time order.
    jobs: Vec<(u64, JobSpec)>,
}

impl Heartbeat {
    fn generate(seed: u64) -> Self {
        let mut rng = DetRng::with_stream(seed, 0x6862);
        let times = arrival_times(&mut rng, HEARTBEAT_JOBS, 0, HEARTBEAT_HORIZON_S / 2);
        let sizes = strata(&mut rng, &mut layout(), HEARTBEAT_JOBS);
        let jobs = times
            .into_iter()
            .zip(sizes)
            .enumerate()
            .map(|(i, (t, u))| {
                let work = uniform_quantile(1_000, 4_000, u);
                (t, JobSpec::sequential(&format!("hb-{i}"), work))
            })
            .collect();
        Heartbeat { seed, jobs }
    }
}

impl Workload for Heartbeat {
    fn round(&self, traced: bool) -> Round {
        let mut trace = traced.then(RoundTrace::default);
        let config = GridConfig::builder()
            .seed(self.seed)
            .gupa_warmup_days(0)
            .build();
        assert_eq!(
            config.lrm.update_period,
            SimDuration::from_secs(DEFAULT_UPDATE_PERIOD_S)
        );
        let nodes = vec![NodeSetup::idle_desktop(); HEARTBEAT_NODES];
        let jobs = self.jobs.clone();

        let start = Instant::now();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster(nodes);
        let mut grid = timed_build(&mut builder, &mut trace);
        for (t, spec) in jobs {
            grid.submit_at(spec, SimTime::from_micros(t));
        }
        let setup_s = start.elapsed().as_secs_f64();

        let (report, run_s) = drive_grid(&mut grid, HEARTBEAT_HORIZON_S, trace.as_mut());
        let submit: BTreeMap<String, u64> = self
            .jobs
            .iter()
            .map(|(t, s)| (s.name.clone(), *t))
            .collect();
        let turnaround_s = report
            .records
            .iter()
            .map(|r| {
                censored_turnaround(
                    submit[&r.name] as f64 * 1e-6,
                    completed_s(r),
                    HEARTBEAT_HORIZON_S as f64,
                )
            })
            .collect();
        let mut digest = Digest::new();
        digest_report(&mut digest, &report);
        if let Some(t) = trace.as_mut() {
            read_grid_layers(&grid, &report, t);
        }
        let facts = HeartbeatFacts {
            nodes: HEARTBEAT_NODES as u64,
            horizon_s: HEARTBEAT_HORIZON_S,
            update_period_s: DEFAULT_UPDATE_PERIOD_S,
            updates_accepted: report.updates.accepted,
            net_messages: report.net.messages,
            offers: grid.trader_matches(&JobRequirements::default()) as u64,
            jobs: self.jobs.len() as u64,
            completed: report.completed() as u64,
        };
        Round {
            setup_s,
            run_s,
            turnaround_s,
            attempted: self.jobs.len() as u64,
            failed: 0,
            digest: digest.finish(),
            problems: check_heartbeat(&facts),
            notes: Vec::new(),
            trace,
        }
    }

    fn probe_sizes(&self) -> ProbeSizes {
        ProbeSizes {
            offers: HEARTBEAT_NODES,
            checkpoint_bytes: GridConfig::default().checkpoint_state_bytes,
            requirements: JobRequirements::default(),
            queue_occupancy: HEARTBEAT_NODES,
            trace: office_trace(self.seed),
        }
    }
}

/// One week of an office worker's owner trace, for the GUPA probe of the
/// workloads that carry no traces of their own.
fn office_trace(seed: u64) -> Vec<UsageSample> {
    let cfg = TraceConfig {
        weeks: 1,
        ..TraceConfig::default()
    };
    generate_trace(
        Archetype::OfficeWorker,
        &cfg,
        &mut DetRng::with_stream(seed, 0x6f66),
    )
}

// ----------------------------------------------------------------------
// harvest
// ----------------------------------------------------------------------

/// Desktops in the `harvest` campus cluster.
const HARVEST_NODES: usize = 300;
/// Jobs in the `harvest` day.
const HARVEST_JOBS: usize = 160;
/// Window in which `harvest` jobs arrive, seconds.
const HARVEST_ARRIVALS_S: u64 = 20 * 3_600;
/// Simulated horizon of a `harvest` round, seconds.
const HARVEST_HORIZON_S: u64 = 28 * 3_600;
/// Information Update period of the campus cluster, seconds.
const HARVEST_UPDATE_PERIOD_S: u64 = 300;
/// Checkpoint interval of sequential and bag parts, MIPS-s.
const HARVEST_CHECKPOINT_MIPS_S: f64 = 30_000.0;
/// Marshalled state of a sequential or bag part, bytes.
const HARVEST_STATE_BYTES: u64 = 64 * 1024;
/// Marshalled state of a BSP process, bytes.
const BSP_STATE_BYTES: u64 = 256 * 1024;
/// RAM of the spare machines, MB. Their generous policy lends half of it
/// to the grid.
const SPARE_RAM_MB: u64 = 1_024;
/// Free grid RAM a BSP gang asks of every node, MB: more than a lab
/// machine or an office desktop lends, so gangs run only on the spares,
/// one part per spare.
const BSP_MIN_FREE_RAM_MB: u64 = 400;
/// Simulated horizon of the partial-gang probe, seconds.
const PROBE_HORIZON_S: u64 = 6 * 3_600;

struct Harvest {
    seed: u64,
    nodes: Vec<NodeSetup>,
    /// (submit time in simulated microseconds, spec), in time order.
    jobs: Vec<(u64, JobSpec)>,
}

/// Owner archetype of the `i`-th campus node: 40% office, 25% lab, 20%
/// night-owl, 15% spare.
fn campus_archetype(i: usize) -> Archetype {
    match i % 20 {
        0..=7 => Archetype::OfficeWorker,
        8..=12 => Archetype::LabMachine,
        13..=16 => Archetype::NightOwl,
        _ => Archetype::Spare,
    }
}

impl Harvest {
    fn generate(seed: u64) -> Self {
        let mut rng = owner_traces(0x6876);
        let trace_cfg = TraceConfig {
            weeks: 3,
            ..TraceConfig::default()
        };
        let nodes = (0..HARVEST_NODES)
            .map(|i| match campus_archetype(i) {
                Archetype::Spare => node(
                    ResourceVector {
                        cpu_mips: 1_000,
                        ram_mb: SPARE_RAM_MB,
                        disk_mb: 20_000,
                    },
                    SharingPolicy::generous(),
                    Vec::new(),
                ),
                archetype => {
                    let trace = generate_trace(archetype, &trace_cfg, &mut rng.fork(i as u64));
                    let resources = if archetype == Archetype::LabMachine {
                        ResourceVector::lab_machine()
                    } else {
                        ResourceVector::desktop()
                    };
                    node(resources, SharingPolicy::default(), trace)
                }
            })
            .collect();
        let mut job_rng = DetRng::with_stream(seed, 0x6877);
        let times = arrival_times(&mut job_rng, HARVEST_JOBS, 0, HARVEST_ARRIVALS_S);
        let jobs = times
            .into_iter()
            .zip(campus_mix(&mut job_rng, HARVEST_JOBS))
            .collect();
        Harvest { seed, nodes, jobs }
    }
}

/// `count` jobs of the default sequential/bag/BSP mix (the workload
/// crate's default kind weights, size ranges and means), with exact kind
/// counts in a fixed order and Latin-hypercube sizes ([`strata`]). BSP
/// gangs ask for the spares' RAM and checkpoint [`BSP_STATE_BYTES`] every
/// ten steps.
fn campus_mix(rng: &mut DetRng, count: usize) -> Vec<JobSpec> {
    let cfg = WorkloadConfig::default();
    let total = cfg.mix.sequential + cfg.mix.bag_of_tasks + cfg.mix.bsp;
    let n_seq = (count as f64 * cfg.mix.sequential / total).round() as usize;
    let n_bag = (count as f64 * cfg.mix.bag_of_tasks / total).round() as usize;
    let n_bsp = count - n_seq - n_bag;
    let mut kinds: Vec<u8> = [(0, n_seq), (1, n_bag), (2, n_bsp)]
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    let mut order = layout();
    order.shuffle(&mut kinds);
    let seq_work = strata(rng, &mut order, n_seq);
    let bag_tasks = strata(rng, &mut order, n_bag);
    let bag_work = strata(rng, &mut order, n_bag);
    let bsp_procs = strata(rng, &mut order, n_bsp);
    let bsp_steps = strata(rng, &mut order, n_bsp);
    let bsp_work = strata(rng, &mut order, n_bsp);
    let (mut seq, mut bag, mut bsp) = (0, 0, 0);
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let mut spec = match kind {
                0 => {
                    let work = exponential_quantile(cfg.mean_seq_work, seq_work[seq]).max(1_000.0);
                    seq += 1;
                    JobSpec::sequential(&format!("seq-{i}"), work as u64)
                }
                1 => {
                    let (lo, hi) = cfg.bag_tasks;
                    let tasks = uniform_quantile(lo, hi, bag_tasks[bag]) as usize;
                    let work =
                        exponential_quantile(cfg.mean_seq_work / 2.0, bag_work[bag]).max(1_000.0);
                    bag += 1;
                    JobSpec::bag_of_tasks(&format!("bag-{i}"), tasks, work as u64)
                }
                _ => {
                    let (plo, phi) = cfg.bsp_procs;
                    let (slo, shi) = cfg.bsp_supersteps;
                    let procs = uniform_quantile(plo, phi, bsp_procs[bsp]) as usize;
                    let steps = uniform_quantile(slo, shi, bsp_steps[bsp]);
                    let work =
                        exponential_quantile(cfg.mean_seq_work / 50.0, bsp_work[bsp]).max(500.0);
                    bsp += 1;
                    let mut gang =
                        JobSpec::bsp(&format!("bsp-{i}"), procs, steps, work as u64, 8 * 1024)
                            .with_checkpointing(10, BSP_STATE_BYTES);
                    gang.requirements.min_ram_mb = BSP_MIN_FREE_RAM_MB;
                    gang
                }
            };
            spec.preference = SchedulingPreference::FastestCpu;
            spec
        })
        .collect()
}

/// Work of a job's largest part, MIPS-s.
fn largest_part(kind: &JobKind) -> u64 {
    match kind {
        JobKind::Sequential { work_mips_s } => *work_mips_s,
        JobKind::BagOfTasks { task_work_mips_s } => {
            task_work_mips_s.iter().copied().max().unwrap_or(0)
        }
        JobKind::Bsp {
            supersteps,
            work_per_superstep_mips_s,
            ..
        } => supersteps * work_per_superstep_mips_s,
    }
}

/// The fixed partial-gang probe: a BSP pair starts on a dedicated node and
/// on a desktop whose owner comes back after an hour, while a third
/// desktop's owner leaves at that hour. The dedicated half finishes first;
/// the desktop half is evicted, and the gang must be re-placed with one
/// part already done. Its inputs do not depend on the workload seed.
fn probe_grid() -> (GridBuilder, JobSpec) {
    let config = GridConfig::builder()
        .seed(0x6761_6e67)
        .gupa_warmup_days(0)
        .build();
    let idle = UsageSample::new(0.0, 0.05, 0.0, 0.0);
    let busy = UsageSample::new(0.9, 0.6, 0.1, 0.05);
    let hour = 12;
    let week = 288 * 7;
    let mut returning = vec![idle; hour];
    returning.resize(week, busy);
    let mut leaving = vec![busy; hour];
    leaving.resize(week, idle);
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(vec![
        NodeSetup::dedicated(),
        node(
            ResourceVector::desktop(),
            SharingPolicy::default(),
            returning,
        ),
        node(ResourceVector::desktop(), SharingPolicy::default(), leaving),
    ]);
    let gang = JobSpec::bsp("probe-gang", 2, 20, 30_000, 8 * 1024);
    (builder, gang)
}

impl Workload for Harvest {
    fn round(&self, traced: bool) -> Round {
        let mut trace = traced.then(RoundTrace::default);
        let config = GridConfig::builder()
            .seed(self.seed)
            .gupa_warmup_days(14)
            .update_period(SimDuration::from_secs(HARVEST_UPDATE_PERIOD_S))
            .crash_silence(SimDuration::from_secs(4 * HARVEST_UPDATE_PERIOD_S))
            .sequential_checkpoint_mips_s(HARVEST_CHECKPOINT_MIPS_S)
            .checkpoint_state_bytes(HARVEST_STATE_BYTES)
            .build();
        let nodes = self.nodes.clone();
        let jobs = self.jobs.clone();
        let (mut probe_builder, gang) = probe_grid();
        let gang_part_mips_s = largest_part(&gang.kind);

        let start = Instant::now();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster(nodes);
        let mut grid = timed_build(&mut builder, &mut trace);
        for (t, spec) in jobs {
            grid.submit_at(spec, SimTime::from_micros(t));
        }
        let mut probe = timed_build(&mut probe_builder, &mut trace);
        probe.submit_at(gang, SimTime::ZERO);
        let setup_s = start.elapsed().as_secs_f64();

        let (report, run_s) = drive_grid(&mut grid, HARVEST_HORIZON_S, trace.as_mut());
        let probe_start = Instant::now();
        probe.run_until(SimTime::from_secs(PROBE_HORIZON_S));
        let probe_report = probe.report();
        let run_s = run_s + probe_start.elapsed().as_secs_f64();

        let specs: BTreeMap<&str, (u64, &JobSpec)> = self
            .jobs
            .iter()
            .map(|(t, s)| (s.name.as_str(), (*t, s)))
            .collect();
        let mut turnaround_s: Vec<f64> = report
            .records
            .iter()
            .map(|r| {
                censored_turnaround(
                    specs[r.name.as_str()].0 as f64 * 1e-6,
                    completed_s(r),
                    HARVEST_HORIZON_S as f64,
                )
            })
            .collect();
        turnaround_s.extend(
            probe_report
                .records
                .iter()
                .map(|r| censored_turnaround(0.0, completed_s(r), PROBE_HORIZON_S as f64)),
        );
        let failed = probe_report
            .records
            .iter()
            .filter(|r| r.state != JobState::Completed)
            .count() as u64;

        let mut digest = Digest::new();
        digest_report(&mut digest, &report);
        digest_report(&mut digest, &probe_report);
        if let Some(t) = trace.as_mut() {
            read_grid_layers(&grid, &report, t);
        }
        let fastest_mips = self
            .nodes
            .iter()
            .map(|n| n.resources.cpu_mips)
            .chain([NodeSetup::dedicated().resources.cpu_mips])
            .max()
            .unwrap_or(1);
        let mut finished: Vec<FinishedJob> = report
            .records
            .iter()
            .filter_map(|r| {
                Some(FinishedJob {
                    name: r.name.clone(),
                    makespan_s: r.makespan()?.as_secs_f64(),
                    largest_part_mips_s: largest_part(&specs[r.name.as_str()].1.kind),
                    evictions: r.evictions,
                })
            })
            .collect();
        finished.extend(probe_report.records.iter().filter_map(|r| {
            Some(FinishedJob {
                name: r.name.clone(),
                makespan_s: r.makespan()?.as_secs_f64(),
                largest_part_mips_s: gang_part_mips_s,
                evictions: r.evictions,
            })
        }));
        let facts = HarvestFacts {
            jobs: self.jobs.len() as u64,
            completed: report.completed() as u64,
            finished,
            fastest_mips,
            tick_s: GridConfig::default().tick.as_secs_f64(),
        };
        Round {
            setup_s,
            run_s,
            turnaround_s,
            attempted: (self.jobs.len() + probe_report.records.len()) as u64,
            failed,
            digest: digest.finish(),
            problems: check_harvest(&facts),
            notes: vec![format!("overcredited_jobs={}", overcredited_jobs(&facts))],
            trace,
        }
    }

    fn probe_sizes(&self) -> ProbeSizes {
        ProbeSizes {
            offers: HARVEST_NODES,
            checkpoint_bytes: HARVEST_STATE_BYTES,
            requirements: JobRequirements::default(),
            queue_occupancy: HARVEST_NODES,
            trace: self.nodes[0].trace.clone(),
        }
    }
}

/// Reproduces the suppression-silence fault on the `harvest` campus and
/// day: default 30 s update period, delta suppression on, once with a
/// crash-silence window longer than the horizon and once with the default
/// 120 s window. Returns one line per arm.
pub fn suppression_silence(seed: u64) -> Vec<String> {
    let campus = Harvest::generate(seed);
    let arms = [
        ("long", SimDuration::from_secs(4 * HARVEST_HORIZON_S)),
        ("default", GridConfig::default().crash_silence),
    ];
    arms.into_iter()
        .map(|(label, silence)| {
            let config = GridConfig::builder()
                .seed(seed)
                .gupa_warmup_days(14)
                .delta_suppression(true)
                .crash_silence(silence)
                .sequential_checkpoint_mips_s(HARVEST_CHECKPOINT_MIPS_S)
                .checkpoint_state_bytes(HARVEST_STATE_BYTES)
                .build();
            let mut builder = GridBuilder::new(config);
            builder.add_cluster(campus.nodes.clone());
            let mut grid = builder.build();
            for (t, spec) in &campus.jobs {
                grid.submit_at(spec.clone(), SimTime::from_micros(*t));
            }
            let start = Instant::now();
            grid.run_until(SimTime::from_secs(HARVEST_HORIZON_S));
            let report = grid.report();
            format!(
                "crash_silence={label} ({} s): nodes_declared_dead={} evictions={} \
                 trader_queries={} completed={}/{} run_s={:.2}",
                silence.as_secs_f64(),
                grid.log().count("grm.node_dead"),
                report.total_evictions(),
                report.trader_queries,
                report.completed(),
                campus.jobs.len(),
                start.elapsed().as_secs_f64(),
            )
        })
        .collect()
}

// ----------------------------------------------------------------------
// federation
// ----------------------------------------------------------------------

/// Hubs under the root.
const HUBS: u32 = 4;
/// Leaves under each hub.
const LEAVES_PER_HUB: u32 = 4;
/// Nodes in every member cluster.
const FED_NODES_PER_CLUSTER: usize = 100;
/// Federation summary/status cadence, seconds.
const FED_UPDATE_PERIOD_S: u64 = 60;
/// Quiet start before the first submission: three summary periods.
const FED_WARMUP_S: u64 = 3 * FED_UPDATE_PERIOD_S;
/// Jobs of each class every leaf submits.
const FED_JOBS_PER_CLASS: usize = 3;
/// Window over which the leaves submit, seconds after the warm-up.
const FED_STREAM_S: u64 = 1_800;
/// Simulated horizon of a `federation` round, seconds.
const FED_HORIZON_S: u64 = FED_WARMUP_S + FED_STREAM_S + 1_800;

struct FederationLoad {
    seed: u64,
    /// (submit time in simulated microseconds, origin leaf, class, spec),
    /// in time order.
    jobs: Vec<(u64, u32, FedClass, JobSpec)>,
}

fn hubs() -> Vec<u32> {
    (1..=HUBS).collect()
}

fn leaves() -> Vec<u32> {
    (1 + HUBS..1 + HUBS + HUBS * LEAVES_PER_HUB).collect()
}

/// The E20 job classes, at the E20 sizes.
fn fed_spec(class: FedClass) -> JobSpec {
    match class {
        FedClass::LeafLocal => JobSpec::bag_of_tasks("local", 4, 20_000),
        FedClass::FastCpu => {
            let mut fast = JobSpec::sequential("fast", 30_000);
            fast.requirements.min_cpu_mips = 1_200;
            fast
        }
        FedClass::BigRam => {
            let mut wide = JobSpec::bag_of_tasks("big-ram", 8, 15_000);
            wide.requirements.min_ram_mb = 512;
            wide
        }
    }
}

impl FederationLoad {
    fn generate(seed: u64) -> Self {
        let mut rng = DetRng::with_stream(seed, 0x6665);
        let mut streams = Vec::new();
        for leaf in leaves() {
            for class in [FedClass::LeafLocal, FedClass::FastCpu, FedClass::BigRam] {
                streams.extend(std::iter::repeat_n((leaf, class), FED_JOBS_PER_CLASS));
            }
        }
        // One arrival schedule for the whole federation; which leaf sends
        // which class at each arrival is fixed, not seeded.
        layout().shuffle(&mut streams);
        let times = arrival_times(
            &mut rng,
            streams.len(),
            FED_WARMUP_S,
            FED_WARMUP_S + FED_STREAM_S,
        );
        let jobs = times
            .into_iter()
            .zip(streams)
            .map(|(t, (leaf, class))| (t, leaf, class, fed_spec(class)))
            .collect();
        FederationLoad { seed, jobs }
    }

    fn member(&self, id: u32, mips: u64, ram_mb: u64, trace: &mut Option<RoundTrace>) -> Grid {
        let config = GridConfig::builder()
            .seed(self.seed ^ u64::from(id))
            .gupa_warmup_days(0)
            .build();
        let resources = ResourceVector {
            cpu_mips: mips,
            ram_mb,
            disk_mb: 10_000,
        };
        let mut builder = GridBuilder::new(config);
        builder.add_cluster(vec![
            NodeSetup {
                resources,
                ..NodeSetup::idle_desktop()
            };
            FED_NODES_PER_CLUSTER
        ]);
        timed_build(&mut builder, trace)
    }
}

impl Workload for FederationLoad {
    fn round(&self, traced: bool) -> Round {
        let mut trace = traced.then(RoundTrace::default);
        let jobs = self.jobs.clone();

        let start = Instant::now();
        let mut b = Federation::builder()
            .seed(self.seed)
            .routing(RoutingPolicy::LinkedTraders)
            .update_period(SimDuration::from_secs(FED_UPDATE_PERIOD_S))
            .hop_budget(4)
            .root(ClusterId(0), self.member(0, 1_000, 512, &mut trace));
        for h in hubs() {
            b = b.child_linked(
                ClusterId(h),
                ClusterId(0),
                self.member(h, 1_500, 2_048, &mut trace),
                LinkSpec::wan_regional(),
            );
        }
        for (i, l) in leaves().into_iter().enumerate() {
            let hub = 1 + i as u32 / LEAVES_PER_HUB;
            b = b.child_linked(
                ClusterId(l),
                ClusterId(hub),
                self.member(l, 500, 256, &mut trace),
                LinkSpec::wan_metro(),
            );
        }
        let mut fed = b.build().expect("the federation topology is valid");
        let setup_s = start.elapsed().as_secs_f64();

        let run_start = Instant::now();
        let mut placed = Vec::new();
        let hour_us = 3_600_000_000;
        let mut hour_end = hour_us;
        let mut hour_busy = 0.0;
        let mut step = |fed: &mut Federation, to: u64, trace: &mut Option<RoundTrace>| {
            // Hour-stepped timing of `run_until` in traced rounds.
            let Some(t) = trace.as_mut() else {
                fed.run_until(SimTime::from_micros(to));
                return;
            };
            while hour_end <= to {
                let s = Instant::now();
                fed.run_until(SimTime::from_micros(hour_end));
                hour_busy += s.elapsed().as_secs_f64();
                t.hour_s.push(hour_busy);
                hour_busy = 0.0;
                hour_end += hour_us;
            }
            let s = Instant::now();
            fed.run_until(SimTime::from_micros(to));
            hour_busy += s.elapsed().as_secs_f64();
        };
        for (t, origin, class, spec) in jobs {
            step(&mut fed, t, &mut trace);
            let s = Instant::now();
            let result = fed.submit(ClusterId(origin), spec);
            if let Some(tr) = trace.as_mut() {
                tr.submit_us.push(s.elapsed().as_secs_f64() * 1e6);
            }
            if let Ok(p) = result {
                placed.push((t, origin, class, p));
            }
        }
        step(&mut fed, FED_HORIZON_S * 1_000_000, &mut trace);
        if let Some(t) = trace.as_mut() {
            if hour_busy > 0.0 {
                let partial = (FED_HORIZON_S % 3_600).max(1) as f64;
                t.hour_s.push(hour_busy * 3_600.0 / partial);
            }
        }
        let flush = Instant::now();
        fed.refresh();
        if let Some(t) = trace.as_mut() {
            t.report_s += flush.elapsed().as_secs_f64();
        }
        let run_s = run_start.elapsed().as_secs_f64();

        let mut digest = Digest::new();
        let mut placements = Vec::new();
        let mut turnaround_s = Vec::new();
        for (t, origin, class, p) in &placed {
            let record = fed
                .member(p.id.cluster)
                .and_then(|g| g.job_record(p.id.job));
            let done = record.and_then(completed_s);
            turnaround_s.push(censored_turnaround(
                *t as f64 * 1e-6,
                done,
                FED_HORIZON_S as f64,
            ));
            d_placement(&mut digest, p.id.cluster.0, p.id.job.0, p.hops, done);
            placements.push(FedPlacementFacts {
                class: *class,
                origin: *origin,
                executed_at: p.id.cluster.0,
                hops: p.hops,
                completed: fed.job_state(p.id) == Some(JobState::Completed),
                origin_acked: fed.origin_knows_complete(p.id),
            });
        }
        // Unplaced jobs count as never completed.
        for _ in placed.len()..self.jobs.len() {
            turnaround_s.push(FED_HORIZON_S as f64 - FED_WARMUP_S as f64);
        }
        let wan = fed.wan_stats();
        for w in [wan.messages, wan.bytes, wan.forwards, wan.spillover_queries] {
            digest.word(w);
        }
        for report in fed.reports().values() {
            digest_report(&mut digest, report);
        }
        if let Some(tr) = trace.as_mut() {
            for id in fed.clusters().collect::<Vec<_>>() {
                let grid = fed.member(id).expect("member");
                read_grid_layers(grid, &fed.reports()[&id], tr);
            }
            for (name, v) in [
                ("federation.wan_messages", wan.messages),
                ("federation.wan_bytes", wan.bytes),
                ("federation.forwards", wan.forwards),
                ("federation.spillover_queries", wan.spillover_queries),
                ("federation.summary_updates", wan.summary_updates),
            ] {
                tr.counters.insert(name, v as f64);
            }
        }
        let facts = FederationFacts {
            jobs: self.jobs.len() as u64,
            placements,
            hubs: hubs(),
            leaves: leaves(),
        };
        Round {
            setup_s,
            run_s,
            turnaround_s,
            attempted: self.jobs.len() as u64,
            failed: 0,
            digest: digest.finish(),
            problems: check_federation(&facts),
            notes: Vec::new(),
            trace,
        }
    }

    fn probe_sizes(&self) -> ProbeSizes {
        ProbeSizes {
            offers: FED_NODES_PER_CLUSTER,
            checkpoint_bytes: GridConfig::default().checkpoint_state_bytes,
            requirements: fed_spec(FedClass::FastCpu).requirements,
            queue_occupancy: FED_NODES_PER_CLUSTER,
            trace: office_trace(self.seed),
        }
    }
}

fn d_placement(d: &mut Digest, cluster: u32, job: u64, hops: u32, done: Option<f64>) {
    d.word(u64::from(cluster));
    d.word(job);
    d.word(u64::from(hops));
    d.word(done.map_or(u64::MAX, |s| (s * 1e6) as u64));
}

// ----------------------------------------------------------------------
// idle-day
// ----------------------------------------------------------------------

/// Desktops in the `idle-day` cluster.
const IDLE_DAY_NODES: usize = 20_000;
/// One in this many `idle-day` desktops carries an owner trace.
const IDLE_DAY_TRACED_EVERY: usize = 20;
/// GUPA warm-up days: one short of the training threshold, so the first
/// midnight of the run trains every traced node's model.
const IDLE_DAY_WARMUP_DAYS: usize = 6;
/// Simulated horizon of an `idle-day` round: one day, past midnight.
const IDLE_DAY_HORIZON_S: u64 = 26 * 3_600;
/// Small sequential jobs over the `idle-day` day.
const IDLE_DAY_JOBS: usize = 240;

struct IdleDay {
    seed: u64,
    nodes: Vec<NodeSetup>,
    /// (submit time in simulated microseconds, spec), in time order.
    jobs: Vec<(u64, JobSpec)>,
}

impl IdleDay {
    fn generate(seed: u64) -> Self {
        let mut rng = owner_traces(0x6964);
        let trace_cfg = TraceConfig {
            weeks: 1,
            ..TraceConfig::default()
        };
        let owners = [
            Archetype::OfficeWorker,
            Archetype::LabMachine,
            Archetype::NightOwl,
        ];
        let nodes = (0..IDLE_DAY_NODES)
            .map(|i| {
                if i % IDLE_DAY_TRACED_EVERY == 0 {
                    let archetype = owners[(i / IDLE_DAY_TRACED_EVERY) % owners.len()];
                    NodeSetup {
                        trace: generate_trace(archetype, &trace_cfg, &mut rng.fork(i as u64)),
                        ..NodeSetup::idle_desktop()
                    }
                } else {
                    NodeSetup::idle_desktop()
                }
            })
            .collect();
        let mut job_rng = DetRng::with_stream(seed, 0x6965);
        let times = arrival_times(&mut job_rng, IDLE_DAY_JOBS, 0, 23 * 3_600);
        let sizes = strata(&mut job_rng, &mut layout(), IDLE_DAY_JOBS);
        let jobs = times
            .into_iter()
            .zip(sizes)
            .enumerate()
            .map(|(i, (t, u))| {
                let work = uniform_quantile(20_000, 120_000, u);
                (t, JobSpec::sequential(&format!("day-{i}"), work))
            })
            .collect();
        IdleDay { seed, nodes, jobs }
    }

    fn traced(&self) -> usize {
        self.nodes.iter().filter(|n| !n.trace.is_empty()).count()
    }
}

impl Workload for IdleDay {
    fn round(&self, traced: bool) -> Round {
        let mut trace = traced.then(RoundTrace::default);
        let config = GridConfig::builder()
            .seed(self.seed)
            .gupa_warmup_days(IDLE_DAY_WARMUP_DAYS)
            .delta_suppression(true)
            .crash_silence(SimDuration::from_secs(4 * IDLE_DAY_HORIZON_S))
            .build();
        let nodes = self.nodes.clone();
        let jobs = self.jobs.clone();

        let start = Instant::now();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster(nodes);
        let mut grid = timed_build(&mut builder, &mut trace);
        for (t, spec) in jobs {
            grid.submit_at(spec, SimTime::from_micros(t));
        }
        let setup_s = start.elapsed().as_secs_f64();

        let (report, run_s) = drive_grid(&mut grid, IDLE_DAY_HORIZON_S, trace.as_mut());
        let submit: BTreeMap<&str, u64> = self
            .jobs
            .iter()
            .map(|(t, s)| (s.name.as_str(), *t))
            .collect();
        let turnaround_s = report
            .records
            .iter()
            .map(|r| {
                censored_turnaround(
                    submit[r.name.as_str()] as f64 * 1e-6,
                    completed_s(r),
                    IDLE_DAY_HORIZON_S as f64,
                )
            })
            .collect();
        let mut digest = Digest::new();
        digest_report(&mut digest, &report);
        if let Some(t) = trace.as_mut() {
            read_grid_layers(&grid, &report, t);
        }
        let facts = IdleDayFacts {
            traced_nodes: self.traced() as u64,
            gupa_models: report.gupa_models as u64,
            jobs: self.jobs.len() as u64,
            completed: report.completed() as u64,
        };
        Round {
            setup_s,
            run_s,
            turnaround_s,
            attempted: self.jobs.len() as u64,
            failed: 0,
            digest: digest.finish(),
            problems: check_idle_day(&facts),
            notes: Vec::new(),
            trace,
        }
    }

    fn probe_sizes(&self) -> ProbeSizes {
        ProbeSizes {
            offers: IDLE_DAY_NODES,
            checkpoint_bytes: GridConfig::default().checkpoint_state_bytes,
            requirements: JobRequirements::default(),
            queue_occupancy: IDLE_DAY_NODES,
            trace: self.nodes[0].trace.clone(),
        }
    }
}

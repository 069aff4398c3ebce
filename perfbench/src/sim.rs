//! The `sim-sweep` workload: the full-size E6, E17, E18 and E19 grids on
//! one sweep thread, plus the simulator's layer measurements.
//!
//! The grids are the `mdr sweep --preset` axes at full size. Each run is
//! executed and timed on its own, in exactly the order and with exactly
//! the per-run seeds `SweepGrid::run_serial` uses; after the timed passes
//! every grid is run once more through `SweepGrid` itself and each run's
//! report must match bit for bit.

use crate::trace::Tracer;
use crate::util::{median, percentile, slow_decile, steal_share, steal_ticks, thread_cpu_ns, Rng};
use crate::{alloc, Ctx, Report};
use mdr_core::{CostModel, PolicySpec, Request};
use mdr_sim::calendar::CalendarQueue;
use mdr_sim::sweep::{derive_seed, streams, SweepGrid, SweepOptions};
use mdr_sim::{
    ArqConfig, Arrival, ArrivalProcess, ConfigError, FaultPlan, PoissonWorkload, ProtocolState,
    RunLimit, SimConfig, SimReport, Simulation, StepOutcome, TopologyConfig,
};
use std::hint::black_box;
use std::time::Instant;

/// The seed at which every grid runs under its `mdr sweep --preset`
/// seed, so the ledger digests below can be reproduced with
/// `mdr sweep --preset eN --requests R --threads 1 --format ledger`.
pub const DEFAULT_SEED: u64 = 1994;

/// Grid constructions timed for `setup_s` before each timed pass; the
/// median over the run is reported.
const SETUP_PER_PASS: usize = 3;

pub struct GridDef {
    pub name: &'static str,
    seed: u64,
    /// The ledger digest of the full-size grid at [`DEFAULT_SEED`].
    digest: u64,
    policies: Vec<PolicySpec>,
    thetas: Vec<f64>,
    models: Vec<CostModel>,
    faults: Vec<Option<FaultPlan>>,
    arqs: Vec<Option<ArqConfig>>,
    topologies: Vec<Option<TopologyConfig>>,
    replications: usize,
    requests: usize,
    latency: f64,
}

fn e17_fault_plan(rate: f64) -> Result<FaultPlan, ConfigError> {
    let ghosts = if rate > 0.0 { 0.05 } else { 0.0 };
    FaultPlan::new(rate, 2.0, 0)?
        .with_crashes(0.3, 0.5)?
        .with_sc_outages(0.2)?
        .with_duplication(ghosts, ghosts)
}

fn e18_arq(loss: f64, budget: u32, backoff: f64) -> Result<ArqConfig, ConfigError> {
    ArqConfig::new(loss, 0.2, 0)?
        .with_backoff(backoff, 0.25)?
        .with_retry_budget(budget)
}

fn e19_topology(rate: f64, loss: f64, broadcast: bool) -> Result<TopologyConfig, ConfigError> {
    let topology = TopologyConfig::new(5, rate, 1.0, 0)?.with_loss(loss)?;
    Ok(if broadcast {
        topology.with_broadcast_invalidation()
    } else {
        topology
    })
}

/// The four grids at `seed`. Full size matches `mdr bench --full`;
/// smoke size shrinks only the request and replication counts.
pub fn grids(seed: u64, smoke: bool) -> Result<Vec<GridDef>, ConfigError> {
    let shift = seed.wrapping_sub(DEFAULT_SEED);
    let size = |full: usize| if smoke { full / 20 } else { full };
    let sw = |k| PolicySpec::SlidingWindow { k };
    Ok(vec![
        GridDef {
            name: "e6",
            digest: 0x1a6c_0af2_80bf_0ae9,
            seed: 0xE6u64.wrapping_add(shift),
            policies: vec![sw(1), sw(5), sw(7), sw(9)],
            thetas: vec![0.1, 0.3, 0.5, 0.7, 0.9],
            models: vec![CostModel::message(0.8)],
            faults: vec![None],
            arqs: vec![None],
            topologies: vec![None],
            replications: if smoke { 1 } else { 4 },
            requests: size(10_000),
            latency: 0.01,
        },
        GridDef {
            name: "e17",
            digest: 0x29bc_2da5_2ea6_1114,
            seed: 0xE17u64.wrapping_add(shift),
            policies: vec![
                PolicySpec::St1,
                PolicySpec::St2,
                sw(1),
                sw(5),
                PolicySpec::T2 { m: 5 },
            ],
            thetas: vec![0.4],
            models: vec![CostModel::message(0.4)],
            faults: vec![
                None,
                Some(e17_fault_plan(0.0)?),
                Some(e17_fault_plan(0.02)?),
                Some(e17_fault_plan(0.1)?),
            ],
            arqs: vec![None],
            topologies: vec![None],
            replications: 1,
            requests: size(20_000),
            latency: 0.05,
        },
        GridDef {
            name: "e18",
            digest: 0x608c_6fc1_ab7d_d9eb,
            seed: 0xE18u64.wrapping_add(shift),
            policies: vec![PolicySpec::St2, sw(1), sw(5)],
            thetas: vec![0.4],
            models: vec![CostModel::message(0.5)],
            faults: vec![None],
            arqs: vec![
                None,
                Some(e18_arq(0.05, 8, 2.0)?),
                Some(e18_arq(0.2, 8, 2.0)?),
                Some(e18_arq(0.2, 3, 1.5)?),
                Some(e18_arq(0.4, 4, 2.0)?),
            ],
            topologies: vec![None],
            replications: 1,
            requests: size(10_000),
            latency: 0.05,
        },
        GridDef {
            name: "e19",
            digest: 0x3a75_ea5d_3788_ac1d,
            seed: 0xE19u64.wrapping_add(shift),
            policies: vec![PolicySpec::St2, sw(1), sw(5)],
            thetas: vec![0.4],
            models: vec![CostModel::message(0.5)],
            faults: vec![None],
            arqs: vec![None],
            topologies: vec![
                None,
                Some(e19_topology(0.0, 0.0, false)?),
                Some(e19_topology(0.2, 0.0, false)?),
                Some(e19_topology(0.8, 0.0, false)?),
                Some(e19_topology(0.8, 0.2, false)?),
                Some(e19_topology(0.8, 0.0, true)?),
                Some(e19_topology(0.8, 0.2, true)?),
            ],
            replications: 1,
            requests: size(10_000),
            latency: 0.05,
        },
    ])
}

impl GridDef {
    pub fn sweep_grid(&self) -> Result<SweepGrid, ConfigError> {
        SweepGrid::new(self.seed)
            .policies(self.policies.clone())?
            .thetas(self.thetas.clone())?
            .models(self.models.clone())?
            .fault_plans(self.faults.clone())?
            .arq_configs(self.arqs.clone())?
            .topology_configs(self.topologies.clone())?
            .replications(self.replications)?
            .requests(self.requests)?
            .latency(self.latency)
    }

    fn run_count(&self) -> usize {
        self.policies.len()
            * self.thetas.len()
            * self.faults.len()
            * self.arqs.len()
            * self.topologies.len()
            * self.replications
    }

    /// Every run of the grid, in `SweepGrid`'s run-index order (policy →
    /// θ → fault plan → ARQ → topology → replication) with its seeds
    /// derived the way `SweepGrid` derives them.
    pub fn runs(&self) -> Vec<RunSpec> {
        let (reps, topos, arqs, faults) = (
            self.replications,
            self.topologies.len(),
            self.arqs.len(),
            self.faults.len(),
        );
        let slots = (self.thetas.len() * reps) as u64;
        (0..self.run_count())
            .map(|i| {
                let topology_index = (i / reps) % topos;
                let arq_index = (i / (reps * topos)) % arqs;
                let fault_index = (i / (reps * topos * arqs)) % faults;
                let theta_index = (i / (reps * topos * arqs * faults)) % self.thetas.len();
                let policy_index = i / (reps * topos * arqs * faults * self.thetas.len());
                // (θ, replication) slot: shared by every policy, plan,
                // transport and topology, so cells are paired.
                let workload_index = (theta_index * reps + i % reps) as u64;
                let stream_seed = |stream, axis_index: usize| {
                    derive_seed(
                        self.seed,
                        stream,
                        axis_index as u64 * slots + workload_index,
                    )
                };
                let faults = self.faults[fault_index].clone().map(|mut plan| {
                    plan.seed = stream_seed(streams::FAULT, fault_index);
                    plan
                });
                let arq = self.arqs[arq_index].map(|mut arq| {
                    arq.seed = stream_seed(streams::ARQ, arq_index);
                    arq
                });
                let topology = self.topologies[topology_index].map(|mut topology| {
                    topology.seed = stream_seed(streams::TOPOLOGY, topology_index);
                    topology
                });
                RunSpec {
                    config: SimConfig {
                        policy: self.policies[policy_index],
                        latency: self.latency,
                        oracle_check: false,
                        loss: None,
                        arq,
                        mobility: None,
                        faults,
                        topology,
                    },
                    theta: self.thetas[theta_index],
                    workload_seed: derive_seed(self.seed, streams::WORKLOAD, workload_index),
                    requests: self.requests,
                }
            })
            .collect()
    }
}

pub struct RunSpec {
    config: SimConfig,
    theta: f64,
    workload_seed: u64,
    requests: usize,
}

/// The grid's arrival process, recording every arrival the simulator
/// draws (used by the untimed check pass only).
struct Recorded {
    inner: PoissonWorkload,
    drawn: Vec<Request>,
}

impl ArrivalProcess for Recorded {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let arrival = self.inner.next_arrival();
        if let Some(a) = arrival {
            self.drawn.push(a.request);
        }
        arrival
    }
}

impl RunSpec {
    fn workload(&self) -> PoissonWorkload {
        PoissonWorkload::from_theta(1.0, self.theta, self.workload_seed)
    }

    fn execute(&self) -> SimReport {
        let mut sim = Simulation::new(self.config.clone());
        sim.run(&mut self.workload(), RunLimit::Requests(self.requests))
    }

    fn execute_recorded(&self) -> (SimReport, Vec<Request>) {
        let mut sim = Simulation::new(self.config.clone());
        let mut workload = Recorded {
            inner: self.workload(),
            drawn: Vec::new(),
        };
        let report = sim.run(&mut workload, RunLimit::Requests(self.requests));
        (report, workload.drawn)
    }
}

/// The identities every run must satisfy at any seed. Returns a
/// description of the first one broken.
///
/// Arrived requests are completed, shed, or outstanding when the run hit
/// its request limit: the simulator always holds the next arrival staged
/// (and may hold requests queued behind the last exchange). Served
/// requests are the arrived ones in arrival order, minus the shed ones.
fn check_identities(run: &RunSpec, r: &SimReport, arrived: &[Request]) -> Option<String> {
    let completed = r.schedule.len();
    let shed = r.shed.len();
    if completed != run.requests || r.counts.total() != completed as u64 {
        return Some(format!(
            "completed {completed} / ledger {} of {} requests",
            r.counts.total(),
            run.requests
        ));
    }
    let mut next = 0;
    for served in r.schedule.iter() {
        while next < arrived.len() && arrived[next] != served {
            next += 1;
        }
        next += 1;
    }
    let skipped = next.saturating_sub(completed);
    if next > arrived.len() || skipped > shed || (shed == 0 && skipped != 0) {
        return Some(format!(
            "served order is not the arrival order minus {shed} shed (skipped {skipped})"
        ));
    }
    if arrived.len() < completed + shed + 1 {
        return Some(format!(
            "arrived {} < completed {completed} + shed {shed} + the staged arrival",
            arrived.len()
        ));
    }
    // Billing identity: every billed wireless message is ledger traffic,
    // a settled retransmission, aborted or reconciliation traffic, or an ack.
    let billed = r.data_messages + r.control_messages;
    let ledger = r.counts.data_messages() + r.counts.control_messages();
    let accounted = ledger
        + r.settled_retransmissions
        + r.aborted_messages
        + r.reconciliation_messages
        + r.arq_acks;
    if billed != accounted {
        return Some(format!("billed {billed} messages, accounted {accounted}"));
    }
    None
}

/// Timed passes over every run, in this thread's CPU time: each pass's
/// time, each run's time in every pass (run-major), and how many runs
/// differed from the reference reports.
struct Passes {
    count: usize,
    requests_per_pass: u64,
    pass_ns: Vec<u64>,
    run_ns: Vec<Vec<u64>>,
    runs: u64,
    mismatched: u64,
}

fn run_passes(
    plans: &[Vec<RunSpec>],
    reference: &[SimReport],
    ctx: &Ctx,
    mut tracer: Option<&mut Tracer>,
    before_pass: &mut dyn FnMut(),
) -> Passes {
    let mut passes = Passes {
        count: 0,
        requests_per_pass: plans.iter().flatten().map(|r| r.requests as u64).sum(),
        pass_ns: Vec::new(),
        run_ns: vec![Vec::new(); reference.len()],
        runs: 0,
        mismatched: 0,
    };
    let start = Instant::now();
    while passes.count < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        before_pass();
        // The pass time leaves out the comparisons with the reference.
        let mut pass_ns = 0;
        let pass_span = tracer.as_mut().map(|t| t.begin("sweep.pass", None));
        for ((run, want), times) in plans
            .iter()
            .flatten()
            .zip(reference)
            .zip(&mut passes.run_ns)
        {
            let outer = thread_cpu_ns();
            let span = tracer.as_mut().map(|t| t.begin("sim.run", pass_span));
            let t = thread_cpu_ns();
            let report = run.execute();
            let done = thread_cpu_ns();
            if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                t.end(span);
            }
            pass_ns += thread_cpu_ns() - outer;
            times.push(done - t);
            passes.runs += 1;
            passes.mismatched += u64::from(&report != want);
        }
        if let (Some(t), Some(span)) = (tracer.as_mut(), pass_span) {
            t.end(span);
        }
        passes.pass_ns.push(pass_ns);
        passes.count += 1;
    }
    passes
}

impl Passes {
    /// Simulated requests per CPU second at the slow decile of the passes.
    fn rate(&self) -> f64 {
        let pass_ns: Vec<f64> = self.pass_ns.iter().map(|&ns| ns as f64).collect();
        self.requests_per_pass as f64 * 1e9 / slow_decile(&pass_ns)
    }

    /// Each run's slow-decile time over the passes, in ascending order.
    fn run_times_ns(&self) -> Vec<u64> {
        let mut times: Vec<u64> = self
            .run_ns
            .iter()
            .map(|times| {
                let times: Vec<f64> = times.iter().map(|&ns| ns as f64).collect();
                slow_decile(&times) as u64
            })
            .collect();
        times.sort_unstable();
        times
    }
}

/// The untimed reference pass: every run, recording its arrivals, must
/// satisfy the identities; `SweepGrid` itself must produce the same
/// report for every run; and at the default seed the grid digests must
/// be the recorded ones. Returns the reports the timed passes must
/// reproduce.
fn reference_pass(
    defs: &[GridDef],
    plans: &[Vec<RunSpec>],
    ctx: &Ctx,
    report: &mut Report,
) -> Vec<SimReport> {
    let mut reference = Vec::new();
    for (def, plan) in defs.iter().zip(plans) {
        let offset = reference.len();
        for (i, run) in plan.iter().enumerate() {
            let (outcome, arrived) = run.execute_recorded();
            if let Some(problem) = check_identities(run, &outcome, &arrived) {
                report.fail(1, format!("{} run {i}: {problem}", def.name));
            }
            reference.push(outcome);
        }
        let grid = match def.sweep_grid() {
            Ok(grid) => grid,
            Err(e) => {
                report.fail(plan.len() as u64, format!("{}: {e}", def.name));
                continue;
            }
        };
        let swept = grid.run(SweepOptions {
            threads: 1,
            chunk: 0,
        });
        let models = def.models.len();
        for (i, outcome) in reference[offset..].iter().enumerate() {
            if &swept.cells[i * models].report != outcome {
                report.fail(
                    1,
                    format!("{} run {i}: report differs from SweepGrid's", def.name),
                );
            }
        }
        check_digest(def, swept.ledger_digest(), ctx, report);
    }
    reference
}

/// At the default seed and full size, a grid's ledger digest must be the
/// recorded one.
fn check_digest(def: &GridDef, digest: u64, ctx: &Ctx, report: &mut Report) {
    if ctx.seed == DEFAULT_SEED && !ctx.smoke && digest != def.digest {
        report.fail(
            1,
            format!(
                "{} ledger digest {digest:#018x}, recorded {:#018x}",
                def.name, def.digest
            ),
        );
    }
}

/// Builds every grid and run plan: the work `setup_s` times.
fn build(ctx: &Ctx) -> Result<(Vec<GridDef>, Vec<Vec<RunSpec>>), ConfigError> {
    let defs = grids(ctx.seed, ctx.smoke)?;
    for def in &defs {
        black_box(def.sweep_grid()?);
    }
    let plans = defs.iter().map(GridDef::runs).collect();
    Ok((defs, plans))
}

pub fn end_to_end(ctx: &Ctx) -> Result<Report, String> {
    let time_build = || {
        let t = thread_cpu_ns();
        let built = build(ctx);
        (built, (thread_cpu_ns() - t) as f64 / 1e9)
    };
    let (built, first) = time_build();
    let (defs, plans) = built.map_err(|e| e.to_string())?;
    // Set-up is timed again before every pass, so its median spans the
    // whole run rather than one moment of it.
    let mut setup = vec![first];
    let mut failed_build = None;
    let mut before_pass = || {
        for _ in 0..SETUP_PER_PASS {
            let (built, secs) = time_build();
            match built {
                Ok(built) => drop(black_box(built)),
                Err(e) => failed_build = Some(e.to_string()),
            }
            setup.push(secs);
        }
    };
    let mut report = Report::new(0);
    let reference = reference_pass(&defs, &plans, ctx, &mut report);
    let steal_before = steal_ticks();
    let passes = run_passes(&plans, &reference, ctx, None, &mut before_pass);
    if let Some(e) = failed_build {
        return Err(e);
    }
    report.attempted = passes.runs;
    if passes.mismatched > 0 {
        report.fail(
            passes.mismatched,
            "a timed run differs from its reference report".to_owned(),
        );
    }

    let run_ns = passes.run_times_ns();
    report.metric("decisions_per_s", passes.rate(), "1/s");
    report.metric("line_p50_us", percentile(&run_ns, 0.50) as f64 / 1e3, "us");
    report.metric("line_p99_us", percentile(&run_ns, 0.99) as f64 / 1e3, "us");
    report.metric("setup_s", median(&setup), "s");
    let rss = crate::util::peak_rss_kib(None).unwrap_or(0);
    report.metric("peak_rss_mb", rss as f64 / 1024.0, "MB");
    report.note(format!(
        "{} passes of {} runs; {:.1}% of the machine's CPU time stolen meanwhile",
        passes.count,
        run_ns.len(),
        steal_share(steal_before, steal_ticks())
    ));
    let pass_ns: Vec<f64> = passes.pass_ns.iter().map(|&ns| ns as f64).collect();
    report.note(format!("pass CPU ns: {}", crate::util::summary(&pass_ns)));
    Ok(report)
}

/// Traced-run overhead on this workload: traced pass time over untraced.
pub fn overhead_pct(ctx: &Ctx) -> Result<f64, String> {
    let (_, plans) = build(ctx).map_err(|e| e.to_string())?;
    let reference: Vec<SimReport> = plans.iter().flatten().map(RunSpec::execute).collect();
    let runs = reference.len();
    let quick = Ctx {
        seconds: 0.0,
        ..ctx.clone()
    };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..3 {
        plain.push(run_passes(&plans, &reference, &quick, None, &mut || ()).rate());
        let mut tracer = Tracer::with_capacity(2 * (runs + 1));
        alloc::set_counting(true);
        traced.push(run_passes(&plans, &reference, &quick, Some(&mut tracer), &mut || ()).rate());
        alloc::set_counting(false);
    }
    Ok((median(&plain) / median(&traced) - 1.0) * 100.0)
}

/// Times the simulator's layers: the arrival process, the calendar
/// queue and the lossless protocol exchange in isolation, and each grid
/// through `SweepGrid::run_timed` on one thread.
pub fn layers(ctx: &Ctx, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let scale = if ctx.smoke { 100 } else { 1 };

    // Arrival process: the per-request workload draw.
    let arrivals = 2_000_000 / scale;
    let mut workload = PoissonWorkload::from_theta(1.0, 0.4, ctx.seed);
    let span = tracer.begin("workload.next_arrival", None);
    for _ in 0..arrivals {
        black_box(workload.next_arrival());
    }
    tracer.end(span);
    report.metric(
        "workload.ns_per_arrival",
        tracer.duration_ns(span) as f64 / arrivals as f64,
        "ns",
    );

    // Calendar queue in steady state at the handful of resident events a
    // faulty cell keeps (arrival, delivery, ARQ and fault timers): every
    // op pops the minimum and pushes a successor a random gap later.
    const RESIDENT: u64 = 8;
    let ops = 2_000_000 / scale;
    let mut rng = Rng::new(ctx.seed);
    let gaps: Vec<f64> = (0..ops).map(|_| -f64::ln(1.0 - rng.unit()) * 8.0).collect();
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    for i in 0..RESIDENT {
        queue.push(gaps[i as usize], (i % 3) as u8, i, i);
    }
    let span = tracer.begin("calendar.push_pop", None);
    for (seq, gap) in (RESIDENT..).zip(&gaps) {
        let Some((at, item)) = queue.pop() else {
            return Err("calendar queue ran empty".to_owned());
        };
        queue.push(at + gap, (item % 3) as u8, seq, item);
    }
    tracer.end(span);
    if queue.len() != RESIDENT as usize {
        report.fail(1, "calendar queue lost or gained entries".to_owned());
    }
    report.metric(
        "calendar.ns_per_op",
        tracer.duration_ns(span) as f64 / (2 * ops) as f64,
        "ns",
    );

    // Lossless protocol exchange: submit, then deliver until complete.
    let requests = 500_000 / scale;
    let mut draw = PoissonWorkload::from_theta(1.0, 0.4, ctx.seed ^ 0x9e37);
    let letters: Vec<Request> = (0..requests)
        .filter_map(|_| draw.next_arrival().map(|a| a.request))
        .collect();
    let mut protocol = ProtocolState::new(PolicySpec::SlidingWindow { k: 5 });
    let span = tracer.begin("protocol.exchange", None);
    for &request in &letters {
        let mut step = protocol.submit(request);
        while let StepOutcome::Sent(_) = step {
            step = protocol.deliver(0);
        }
    }
    tracer.end(span);
    if protocol.counts().total() != letters.len() as u64 {
        report.fail(1, "protocol exchange lost requests".to_owned());
    }
    report.metric(
        "protocol.ns_per_request",
        tracer.duration_ns(span) as f64 / letters.len() as f64,
        "ns",
    );

    // Each grid on its own through SweepGrid::run_timed.
    let defs = grids(ctx.seed, ctx.smoke).map_err(|e| e.to_string())?;
    let (mut events, mut checks, mut allocs, mut runs, mut requests) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for def in &defs {
        let grid = def.sweep_grid().map_err(|e| e.to_string())?;
        alloc::set_counting(true);
        let span = tracer.begin("sweep.run_timed", None);
        let (swept, perf) = grid.run_timed(SweepOptions {
            threads: 1,
            chunk: 0,
        });
        tracer.end(span);
        alloc::set_counting(false);
        allocs += tracer.allocations(span);
        let grid_requests = (grid.runs() * grid.requests_per_run()) as u64;
        report.metric(
            &format!("sweep.{}.ns_per_request", def.name),
            perf.wall_nanos as f64 / grid_requests as f64,
            "ns",
        );
        events += swept.events_processed;
        checks += swept
            .cells
            .iter()
            .step_by(def.models.len())
            .map(|c| c.report.invariant_checks)
            .sum::<u64>();
        runs += grid.runs() as u64;
        requests += grid_requests;
        check_digest(def, swept.ledger_digest(), ctx, report);
    }
    report.metric(
        "sweep.events_per_request",
        events as f64 / requests as f64,
        "count",
    );
    report.metric(
        "sweep.invariant_checks_per_request",
        checks as f64 / requests as f64,
        "count",
    );
    report.metric("sweep.allocs_per_run", allocs as f64 / runs as f64, "count");
    Ok(())
}

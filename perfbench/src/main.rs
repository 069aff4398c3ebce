//! The repository benchmark: three workloads against the release build,
//! every output checked against an independent reference.
//!
//! ```text
//! bash perfbench/run.sh --workload serve-mem|serve-durable|sim-sweep \
//!     --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics from spans recorded
//! around each call into a layer (see README.md). The last line of
//! standard output is one JSON object; a readable table goes to standard
//! error. The exit code is 0 only when every check passed.

mod alloc;
mod serve;
mod sim;
mod trace;
mod util;

use serve::Kind;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 5] = [
    ("decisions_per_s", "1/s"),
    ("line_p50_us", "us"),
    ("line_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run. Every `count`
/// and `bytes` metric is an exact counter: it must repeat bit for bit
/// between rounds.
const PER_LAYER: [(&str, &str); 32] = [
    ("serve_loop.ns_per_line", "ns"),
    ("parse.ns_per_line", "ns"),
    ("parse.allocs_per_line", "count"),
    ("apply.ns_per_line", "ns"),
    ("apply.allocs_per_line", "count"),
    ("encode.ns_per_line", "ns"),
    ("encode.allocs_per_line", "count"),
    ("encode.bytes_per_line", "bytes"),
    ("decide.ns_per_call", "ns"),
    ("journal.ns_per_line", "ns"),
    ("journal.records_per_decision", "count"),
    ("journal.bytes_written_per_decision", "bytes"),
    ("journal.write_syscalls_per_decision", "count"),
    ("fsync.per_decision", "count"),
    ("fsync.line_us_mean", "us"),
    ("checkpoint.per_decision", "count"),
    ("checkpoint.line_us_mean", "us"),
    ("recovery.records_replayed", "count"),
    ("recovery.scan_ns_per_record", "ns"),
    ("recovery.ns_per_record", "ns"),
    ("recovery_s", "s"),
    ("workload.ns_per_arrival", "ns"),
    ("calendar.ns_per_op", "ns"),
    ("protocol.ns_per_request", "ns"),
    ("sweep.e6.ns_per_request", "ns"),
    ("sweep.e17.ns_per_request", "ns"),
    ("sweep.e18.ns_per_request", "ns"),
    ("sweep.e19.ns_per_request", "ns"),
    ("sweep.events_per_request", "count"),
    ("sweep.invariant_checks_per_request", "count"),
    ("sweep.allocs_per_run", "count"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeMem,
    ServeDurable,
    SimSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-mem" => Some(Workload::ServeMem),
            "serve-durable" => Some(Workload::ServeDurable),
            "sim-sweep" => Some(Workload::SimSweep),
            _ => None,
        }
    }
}

/// What every measurement needs to know about the run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `mdr` binary under test.
    pub mdr: PathBuf,
    /// Scratch directory of this run (removed at the end).
    pub work: PathBuf,
    pub seed: u64,
    /// Measuring time; a run measures at least two passes regardless.
    pub seconds: f64,
    /// Small inputs, for the benchmark's own tests.
    pub smoke: bool,
}

/// What a run found: operations attempted and failed, and its metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(attempted: u64) -> Report {
        Report {
            attempted,
            ..Report::default()
        }
    }

    /// Records `ops` failed operations, keeping the first few reasons.
    pub fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mdr: PathBuf,
    work: PathBuf,
    smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload serve-mem|serve-durable|sim-sweep --seed N \
--seconds S --trace 0|1 --mdr PATH --work DIR [--smoke]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut mdr, mut work, mut smoke) =
        (None, None, None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                });
            }
            "--mdr" => mdr = Some(PathBuf::from(&value)),
            "--work" => work = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |what: &str| format!("missing --{what}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds.ok_or_else(|| missing("seconds"))?,
        trace: trace.ok_or_else(|| missing("trace"))?,
        mdr: mdr.ok_or_else(|| missing("mdr"))?,
        work: work.ok_or_else(|| missing("work"))?,
        smoke,
    })
}

/// One round of per-layer measurements: the serve layers on the
/// workload's own session (serve-mem's for sim-sweep), the durability
/// layers on a serve-durable session, and the simulator layers. Every
/// round measures every layer, so every traced run reports the full set.
fn layer_round(
    workload: Workload,
    ctx: &Ctx,
    sessions: &(serve::Session, serve::Session),
) -> Result<(Report, f64, trace::Tracer), String> {
    let (mem, durable) = sessions;
    let own = if workload == Workload::ServeDurable {
        durable
    } else {
        mem
    };
    let mut tracer = trace::Tracer::with_capacity(4 * own.lines.len() + durable.lines.len() + 64);
    let mut report = Report::new(0);
    let serve_overhead = serve::serve_layers(own, ctx, &mut tracer, &mut report)?;
    serve::journal_layers(durable, ctx, &mut tracer, &mut report)?;
    sim::layers(ctx, &mut tracer, &mut report)?;
    let overhead = match workload {
        Workload::SimSweep => sim::overhead_pct(ctx)?,
        _ => serve_overhead,
    };
    report.attempted = (own.lines.len() + durable.lines.len()) as u64;
    Ok((report, overhead, tracer))
}

/// The traced run: rounds of layer measurements until the time is up
/// (at least two), reporting each metric's median over rounds. Exact
/// counters must agree bit for bit between rounds.
fn traced(workload: Workload, ctx: &Ctx) -> Result<Report, String> {
    let sessions = (
        serve::generate(Kind::Memory, ctx.seed, ctx.smoke)?,
        serve::generate(Kind::Durable, ctx.seed, ctx.smoke)?,
    );
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut overheads = Vec::new();
    let mut last_tracer = None;
    while rounds.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let (report, overhead, tracer) = layer_round(workload, ctx, &sessions)?;
        rounds.push(report);
        overheads.push(overhead);
        last_tracer = Some(tracer);
    }
    let mut report = Report::new(0);
    for round in &rounds {
        report.attempted += round.attempted;
        report.failed += round.failed;
        report.problems.extend(round.problems.iter().cloned());
        report.notes.extend(round.notes.iter().cloned());
    }
    for &(name, unit) in &PER_LAYER {
        let exact = unit == "count" || unit == "bytes";
        if name == "trace.overhead_pct" {
            report.metric(name, util::median(&overheads), unit);
            continue;
        }
        let values: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.metrics.iter().find(|m| m.0 == name).map(|m| m.1))
            .collect();
        if values.len() != rounds.len() {
            return Err(format!("layer metric {name} was not measured"));
        }
        if exact && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            report.fail(
                1,
                format!("exact counter {name} differs between rounds: {values:?}"),
            );
        }
        report.metric(name, util::median(&values), unit);
    }
    if let Some(tracer) = last_tracer {
        let path = ctx.work.parent().unwrap_or(&ctx.work).join(format!(
            "trace-{}-{}.tsv",
            workload_name(workload),
            ctx.seed
        ));
        tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.note(format!(
            "spans of the last round written to {}",
            path.display()
        ));
        for (layer, t) in tracer.totals() {
            report.note(format!(
                "  {layer:<22} {:>8} spans  self {:>12.0} ns  total {:>12.0} ns  self allocs {}",
                t.spans, t.self_ns as f64, t.total_ns as f64, t.self_allocs
            ));
        }
    }
    Ok(report)
}

fn workload_name(workload: Workload) -> &'static str {
    match workload {
        Workload::ServeMem => "serve-mem",
        Workload::ServeDurable => "serve-durable",
        Workload::SimSweep => "sim-sweep",
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let work = args.work.join(format!(
        "{}-{}",
        workload_name(args.workload),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        mdr: args.mdr.clone(),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let result = match (args.trace, args.workload) {
        (true, workload) => traced(workload, &ctx),
        (false, Workload::ServeMem) => serve::end_to_end(Kind::Memory, &ctx),
        (false, Workload::ServeDurable) => serve::end_to_end(Kind::Durable, &ctx),
        (false, Workload::SimSweep) => sim::end_to_end(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.0.as_str(), m.2)).collect();
    if got.len() != expected.len() || expected.iter().any(|e| !got.contains(e)) {
        eprintln!("perfbench: metric set {got:?} does not match the declared set {expected:?}");
        return ExitCode::from(2);
    }
    if let Some((name, value, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite ({value})");
        return ExitCode::from(2);
    }
    for note in &report.notes {
        eprintln!("{note}");
    }
    for problem in &report.problems {
        eprintln!("FAILED: {problem}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:<38} {value:>16.4} {unit}");
    }
    eprintln!(
        "error_rate {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", json_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The `serve-mem` and `serve-durable` workloads: session generation, the
//! independent reference check, the spawned `mdr serve` sessions, the
//! in-process `handle_line` passes, and the serve and journal layers.

use crate::trace::Tracer;
use crate::util::{
    fnv1a, median, peak_rss_kib, percentile, slow_decile, steal_share, steal_ticks, wait_with_cpu,
    write_counters, Rng,
};
use crate::{alloc, Ctx, Report};
use mdr_core::{
    run_spec, trace_policy, Action, ActionCounts, CostModel, PolicySpec, Request, Schedule,
};
use mdr_sim::journal::scan_journal;
use mdr_sim::{
    DecisionCore, DurableServe, JournalConfig, ServeConfig, ServeEngine, ServeRequest,
    ServeResponse,
};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Memory,
    Durable,
}

impl Kind {
    fn max_tenants(self) -> usize {
        match self {
            Kind::Memory => 1024,
            Kind::Durable => 64,
        }
    }

    /// Body lines after the opens (before the closing stats).
    fn body_lines(self, smoke: bool) -> usize {
        match (self, smoke) {
            (_, true) => 3_000,
            (Kind::Memory, false) => 100_000,
            (Kind::Durable, false) => 60_000,
        }
    }

    fn tenants(self, smoke: bool) -> usize {
        if smoke {
            self.max_tenants() / 8
        } else {
            self.max_tenants()
        }
    }

    fn config(self) -> ServeConfig {
        ServeConfig {
            max_tenants: self.max_tenants(),
            ..ServeConfig::default()
        }
    }
}

/// The durability settings under test: the production defaults, which
/// the spawned daemon is given explicitly as `--fsync interval:64
/// --checkpoint-every 1024`.
fn journal_config(dir: &Path) -> JournalConfig {
    JournalConfig::new(dir)
}

const POLICIES: [&str; 8] = ["ST1", "ST2", "SW1", "SW3", "SW5", "SW9", "T1(2)", "T2(3)"];
const MODELS: [&str; 4] = ["connection", "message:0.25", "message:0.5", "message:0.8"];
const ID_PREFIXES: [&str; 6] = ["mc", "pda", "car", "van", "tab", "nav"];
const ID_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

/// One tenant id's life: its policy, cost model and decide stream.
pub struct Instance {
    id: String,
    spec: PolicySpec,
    model: CostModel,
    requests: Vec<Request>,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Open(usize),
    Decide(usize),
    Stats(usize),
    Snapshot(usize),
    Restore(usize),
    Close(usize),
    ServerStats,
}

pub struct Session {
    pub kind: Kind,
    pub lines: Vec<String>,
    ops: Vec<Op>,
    instances: Vec<Instance>,
    /// Instances open when the session ends.
    live: Vec<usize>,
    pub decides: u64,
}

/// Builds a session from the seed alone. `snapshot` lines are followed
/// by a `restore` of the very snapshot the daemon returns, as a client
/// would echo it; [`complete`] fills those lines in.
pub fn generate(kind: Kind, seed: u64, smoke: bool) -> Result<Session, String> {
    let tag = match kind {
        Kind::Memory => 0x6d65_6d00,
        Kind::Durable => 0x6475_7200,
    };
    let mut rng = Rng::new(seed ^ tag);
    let tenants = kind.tenants(smoke);
    let mut used = BTreeSet::new();
    let mut new_id = |rng: &mut Rng| loop {
        let prefix = ID_PREFIXES[rng.below(ID_PREFIXES.len())];
        let len = 10 + rng.below(11);
        let mut id = format!("{prefix}-");
        while id.len() < len {
            id.push(char::from(ID_CHARS[rng.below(ID_CHARS.len())]));
        }
        if used.insert(id.clone()) {
            return id;
        }
    };
    // Slot i is the i-th most popular tenant (Zipf(1)). Its policy, cost
    // model and write fraction are fixed functions of the slot: the
    // roster cycles through the hot set, and θ is fanned across (0, 1)
    // by the golden-ratio sequence, independently of popularity. Only
    // ids, request letters and the op mix depend on the seed, so the
    // per-line cost does not swing with which policy a seed makes hot.
    let thetas: Vec<f64> = (0..tenants)
        .map(|i| ((i as f64 + 0.5) * 0.618_033_988_749_894_9).fract())
        .collect();
    let mut cdf = Vec::with_capacity(tenants);
    let mut total = 0.0;
    for rank in 0..tenants {
        total += 1.0 / (rank + 1) as f64;
        cdf.push(total);
    }
    let pick = |rng: &mut Rng| {
        let x = rng.unit() * total;
        cdf.partition_point(|&c| c <= x).min(tenants - 1)
    };

    let mut session = Session {
        kind,
        lines: Vec::new(),
        ops: Vec::new(),
        instances: Vec::new(),
        live: Vec::new(),
        decides: 0,
    };
    let open = |session: &mut Session, slot: usize, id: String| -> Result<usize, String> {
        let policy = POLICIES[slot % POLICIES.len()];
        let model = MODELS[(slot / POLICIES.len()) % MODELS.len()];
        session.lines.push(format!(
            r#"{{"op":"open","tenant":"{id}","policy":"{policy}","model":"{model}"}}"#
        ));
        session.instances.push(Instance {
            id,
            spec: policy.parse().map_err(|e| format!("{e:?}"))?,
            model: model.parse().map_err(|e| format!("{e:?}"))?,
            requests: Vec::new(),
        });
        let index = session.instances.len() - 1;
        session.ops.push(Op::Open(index));
        Ok(index)
    };
    for slot in 0..tenants {
        let id = new_id(&mut rng);
        let index = open(&mut session, slot, id)?;
        session.live.push(index);
    }
    let end = session.lines.len() + kind.body_lines(smoke);
    // About 97% of lines decide; the rest are stats, snapshot + restore
    // pairs and, when durable, close + reopen under a new id. Churn picks
    // its slot uniformly, so popular tenants live long enough to reach
    // their checkpoint interval.
    let (stats_below, pair_below) = match kind {
        Kind::Memory => (0.985, 1.0),
        Kind::Durable => (0.9825, 0.9975),
    };
    while session.lines.len() < end {
        let u = rng.unit();
        let slot = if u < pair_below {
            pick(&mut rng)
        } else {
            rng.below(tenants)
        };
        let index = session.live[slot];
        let id = session.instances[index].id.clone();
        if u < 0.97 {
            let write = rng.unit() < thetas[slot];
            let (request, letter) = if write {
                (Request::Write, 'w')
            } else {
                (Request::Read, 'r')
            };
            session.instances[index].requests.push(request);
            session.lines.push(format!(
                r#"{{"op":"decide","tenant":"{id}","request":"{letter}"}}"#
            ));
            session.ops.push(Op::Decide(index));
            session.decides += 1;
        } else if u < stats_below {
            session
                .lines
                .push(format!(r#"{{"op":"stats","tenant":"{id}"}}"#));
            session.ops.push(Op::Stats(index));
        } else if u < pair_below {
            session
                .lines
                .push(format!(r#"{{"op":"snapshot","tenant":"{id}"}}"#));
            session.ops.push(Op::Snapshot(index));
            session.lines.push(String::new());
            session.ops.push(Op::Restore(index));
        } else {
            session
                .lines
                .push(format!(r#"{{"op":"close","tenant":"{id}"}}"#));
            session.ops.push(Op::Close(index));
            let fresh = new_id(&mut rng);
            session.live[slot] = open(&mut session, slot, fresh)?;
        }
    }
    for &index in &session.live {
        let id = &session.instances[index].id;
        session
            .lines
            .push(format!(r#"{{"op":"stats","tenant":"{id}"}}"#));
        session.ops.push(Op::Stats(index));
    }
    session.lines.push(r#"{"op":"stats"}"#.to_owned());
    session.ops.push(Op::ServerStats);
    complete(&mut session)?;
    Ok(session)
}

/// Fills each `restore` line with the snapshot the line before it
/// returned, by playing the session through an in-memory engine.
fn complete(session: &mut Session) -> Result<(), String> {
    let mut engine = ServeEngine::new(session.kind.config()).map_err(|e| e.to_string())?;
    let mut last = String::new();
    for i in 0..session.lines.len() {
        if let Op::Restore(index) = session.ops[i] {
            let response: Json = serde_json::from_str(&last).map_err(|e| e.to_string())?;
            let snapshot = response
                .get("snapshot")
                .ok_or_else(|| format!("no snapshot in {last}"))?;
            let text = serde_json::to_string(&Json(snapshot.clone())).map_err(|e| e.to_string())?;
            let id = &session.instances[index].id;
            session.lines[i] = format!(r#"{{"op":"restore","tenant":"{id}","snapshot":{text}}}"#);
        }
        last = engine.handle_line(&session.lines[i]);
    }
    Ok(())
}

/// Any JSON value, for reading responses field by field.
#[derive(Debug, Clone)]
struct Json(Value);

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Json {
    fn get(&self, key: &str) -> Option<&Value> {
        match &self.0 {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::String(s)) => Some(s),
            _ => None,
        }
    }

    fn uint(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::UInt(n)) => Some(*n),
            _ => None,
        }
    }

    fn float(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Float(x)) => Some(*x),
            Some(Value::UInt(n)) => Some(*n as f64),
            _ => None,
        }
    }

    fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

/// The wire verdict an action implies, written out independently of the
/// engine's own mapping.
fn verdict_label(action: Action) -> &'static str {
    match action {
        Action::LocalRead => "serve-local",
        Action::RemoteRead { allocates: false } => "serve-remote",
        Action::RemoteRead { allocates: true } => "allocate",
        Action::SilentWrite => "silent",
        Action::PropagatedWrite { deallocates: false } => "propagate",
        Action::PropagatedWrite { deallocates: true } | Action::DeleteRequestWrite => "deallocate",
    }
}

/// Checks every response of one pass against `mdr_core`'s reference
/// policies, run over each tenant's own request stream.
pub fn check_responses(session: &Session, responses: &[String], report: &mut Report) {
    if responses.len() != session.lines.len() {
        let missing = session.lines.len().abs_diff(responses.len()) as u64;
        report.fail(
            missing,
            format!(
                "{} responses for {} lines",
                responses.len(),
                session.lines.len()
            ),
        );
    }
    let steps: Vec<_> = session
        .instances
        .iter()
        .map(|inst| {
            let schedule: Schedule = inst.requests.iter().copied().collect();
            trace_policy(inst.spec.build().as_mut(), &schedule, inst.model)
        })
        .collect();
    let mut decided = vec![0usize; session.instances.len()];
    let mut counts = vec![ActionCounts::default(); session.instances.len()];
    let mut open = 0usize;
    for (line, (op, response)) in session.ops.iter().zip(responses).enumerate() {
        let Ok(r) = serde_json::from_str::<Json>(response) else {
            report.fail(1, format!("line {line}: response is not JSON: {response}"));
            continue;
        };
        let ok = |want: &str| r.str("ok") == Some(want);
        let good = match *op {
            Op::Open(i) => {
                let inst = &session.instances[i];
                open += 1;
                ok("open")
                    && r.str("tenant") == Some(&inst.id)
                    && r.str("policy") == Some(&inst.spec.to_string())
                    && r.str("model") == Some(&inst.model.to_string())
            }
            Op::Decide(i) => {
                let k = decided[i];
                decided[i] += 1;
                let Some(step) = steps[i].get(k) else {
                    report.fail(
                        1,
                        format!("line {line}: decide beyond the reference stream"),
                    );
                    continue;
                };
                counts[i].record(step.action);
                let a = step.action;
                let letter = if step.request == Request::Write {
                    "w"
                } else {
                    "r"
                };
                ok("decision")
                    && r.str("tenant") == Some(&session.instances[i].id)
                    && r.uint("seq") == Some(k as u64 + 1)
                    && r.str("request") == Some(letter)
                    && r.str("action") == Some(&a.to_string())
                    && r.str("verdict") == Some(verdict_label(a))
                    && r.float("cost").map(f64::to_bits) == Some(step.cost.to_bits())
                    && r.uint("data") == Some(a.data_messages())
                    && r.uint("control") == Some(a.control_messages())
                    && r.uint("connections") == Some(a.connections())
                    && r.bool("has_copy") == Some(step.copy_after)
            }
            Op::Stats(i) => {
                let inst = &session.instances[i];
                let k = decided[i];
                let cost = inst.model.price_counts(&counts[i]);
                let mut good = ok("stats")
                    && r.str("tenant") == Some(&inst.id)
                    && r.str("policy") == Some(&inst.spec.to_string())
                    && r.uint("decided") == Some(k as u64)
                    && r.float("cost").map(f64::to_bits) == Some(cost.to_bits())
                    && r.uint("data_version") == Some(counts[i].writes());
                if k > 0 {
                    good &= r.bool("has_copy") == Some(steps[i][k - 1].copy_after);
                }
                if k == inst.requests.len() && k > 0 {
                    // The tenant's whole stream, through the plain §3 runner.
                    let outcome = run_spec(
                        inst.spec,
                        &inst.requests.iter().copied().collect(),
                        inst.model,
                    );
                    // run_spec accumulates prices in floating point; the
                    // engine prices its integer ledger.
                    good &= outcome.counts == counts[i]
                        && (outcome.total_cost - cost).abs() <= 1e-9 * cost.max(1.0);
                }
                good
            }
            Op::Snapshot(i) => {
                let snapshot = r.get("snapshot").map(|s| Json(s.clone()));
                ok("snapshot")
                    && r.str("tenant") == Some(&session.instances[i].id)
                    && snapshot.and_then(|s| s.uint("decided")) == Some(decided[i] as u64)
            }
            Op::Restore(i) => {
                ok("restore")
                    && r.str("tenant") == Some(&session.instances[i].id)
                    && r.uint("decided") == Some(decided[i] as u64)
            }
            Op::Close(i) => {
                let inst = &session.instances[i];
                open -= 1;
                let cost = inst.model.price_counts(&counts[i]);
                ok("close")
                    && r.str("tenant") == Some(&inst.id)
                    && r.uint("decided") == Some(decided[i] as u64)
                    && r.float("cost").map(f64::to_bits) == Some(cost.to_bits())
            }
            Op::ServerStats => {
                ok("server-stats")
                    && r.uint("decisions") == Some(session.decides)
                    && r.uint("tenants") == Some(open as u64)
            }
        };
        if !good {
            report.fail(1, format!("line {line}: {:?} got {response}", op));
        }
    }
}

/// An in-process serving engine of either kind.
pub enum Server {
    Memory(ServeEngine),
    Durable(DurableServe),
}

impl Server {
    /// A fresh engine; the durable one on an emptied `dir`.
    pub fn fresh(kind: Kind, dir: &Path) -> Result<Server, String> {
        Ok(match kind {
            Kind::Memory => {
                Server::Memory(ServeEngine::new(kind.config()).map_err(|e| e.to_string())?)
            }
            Kind::Durable => {
                if dir.exists() {
                    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
                }
                let (serve, _) = DurableServe::open(kind.config(), journal_config(dir))
                    .map_err(|e| e.to_string())?;
                Server::Durable(serve)
            }
        })
    }

    pub fn handle_line(&mut self, line: &str) -> String {
        match self {
            Server::Memory(engine) => engine.handle_line(line),
            Server::Durable(serve) => serve.handle_line(line),
        }
    }

    fn apply(&mut self, request: &ServeRequest) -> ServeResponse {
        match self {
            Server::Memory(engine) => engine.apply(request),
            Server::Durable(serve) => serve.apply(request),
        }
    }
}

/// The untimed reference pass: every response of a fresh engine, checked
/// against `mdr_core`, with the per-line fingerprints timed passes are
/// compared by.
fn reference_pass(
    session: &Session,
    dir: &Path,
    report: &mut Report,
) -> Result<(Vec<String>, Vec<u64>), String> {
    let mut server = Server::fresh(session.kind, dir)?;
    let responses: Vec<String> = session
        .lines
        .iter()
        .map(|l| server.handle_line(l))
        .collect();
    drop(server);
    let _ = std::fs::remove_dir_all(dir);
    check_responses(session, &responses, report);
    let hashes = responses.iter().map(|r| fnv1a(r.as_bytes())).collect();
    Ok((responses, hashes))
}

/// One timed in-process pass: per-line `handle_line` times, and the
/// number of lines whose response differs from the reference.
fn in_process_pass(server: &mut Server, lines: &[String], hashes: &[u64]) -> (Vec<u64>, u64) {
    let mut times = Vec::with_capacity(lines.len());
    let mut mismatched = 0;
    for (line, &want) in lines.iter().zip(hashes) {
        let t = Instant::now();
        let response = server.handle_line(line);
        times.push(t.elapsed().as_nanos() as u64);
        mismatched += u64::from(fnv1a(response.as_bytes()) != want);
    }
    (times, mismatched)
}

/// Kills and reaps the child if a session ends early.
struct ChildGuard(Option<Child>);

impl ChildGuard {
    /// Waits for the child to exit and reaps it with `wait4`, for its CPU
    /// time; the guard then has nothing left to reap. If the wait fails,
    /// the guard kills and reaps the child as it drops.
    fn wait(mut self) -> std::io::Result<(i32, f64)> {
        let pid = self
            .0
            .as_ref()
            .expect("the guard holds the child until waited for")
            .id();
        let waited = wait_with_cpu(pid);
        if waited.is_ok() {
            self.0 = None;
        }
        waited
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Set-up probes per session of an end-to-end run.
const SETUP_PROBES: usize = 3;

pub struct BinaryRun {
    /// CPU time (user + system) the daemon used for the whole session.
    pub cpu_s: f64,
    /// Wall time from spawn until the daemon exited.
    pub wall_s: f64,
}

/// `mdr serve` as the workload runs it; the durable kind on an emptied
/// data directory `dir`.
fn serve_command(ctx: &Ctx, kind: Kind, dir: &Path) -> Result<Command, String> {
    let mut command = Command::new(&ctx.mdr);
    command.args(["serve", "--max-tenants", &kind.max_tenants().to_string()]);
    if kind == Kind::Durable {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
        }
        command.arg("--data-dir").arg(dir).args([
            "--fsync",
            "interval:64",
            "--checkpoint-every",
            "1024",
        ]);
    }
    command.stderr(Stdio::null());
    Ok(command)
}

/// Runs a whole session through a spawned `mdr serve` that reads the
/// file `input` and writes the file `out`; its responses are then read
/// into `output`. While the daemon works, no thread of the benchmark
/// runs: nothing competes with it for a CPU, and no pipe hands each
/// response to another CPU.
pub fn run_binary(
    ctx: &Ctx,
    kind: Kind,
    dir: &Path,
    input: &Path,
    out: &Path,
    output: &mut Vec<u8>,
) -> Result<BinaryRun, String> {
    let io = |e: std::io::Error| format!("mdr serve: {e}");
    let stdin = std::fs::File::open(input).map_err(|e| format!("{}: {e}", input.display()))?;
    let stdout = std::fs::File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut command = serve_command(ctx, kind, dir)?;
    let start = Instant::now();
    let child = command
        .stdin(stdin)
        .stdout(stdout)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", ctx.mdr.display()))?;
    let (status, cpu_s) = ChildGuard(Some(child)).wait().map_err(io)?;
    let wall_s = start.elapsed().as_secs_f64();
    if status != 0 {
        return Err(format!("mdr serve exited with wait status {status:#x}"));
    }
    output.clear();
    std::fs::File::open(out)
        .and_then(|mut f| f.read_to_end(output))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(BinaryRun { cpu_s, wall_s })
}

/// Set-up of one daemon: spawns it, sends the session's first line and
/// reads the answer, then ends its input. Returns the daemon's CPU time
/// for all of it (exec, start-up, one request, exit) and the wall time
/// from spawn until the answer arrived. The answer must be `want`.
fn setup_probe(
    ctx: &Ctx,
    kind: Kind,
    dir: &Path,
    first: &str,
    want: &str,
    report: &mut Report,
) -> Result<(f64, f64), String> {
    let io = |e: std::io::Error| format!("mdr serve: {e}");
    let mut command = serve_command(ctx, kind, dir)?;
    let start = Instant::now();
    let mut child = command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", ctx.mdr.display()))?;
    let (stdin, stdout) = (child.stdin.take(), child.stdout.take());
    let guard = ChildGuard(Some(child));
    let (Some(mut stdin), Some(stdout)) = (stdin, stdout) else {
        return Err("mdr serve: pipes missing".to_owned());
    };
    stdin
        .write_all(format!("{first}\n").as_bytes())
        .map_err(io)?;
    let mut reader = BufReader::new(stdout);
    let mut answer = String::new();
    reader.read_line(&mut answer).map_err(io)?;
    let wall_s = start.elapsed().as_secs_f64();
    drop(stdin);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).map_err(io)?;
    let (status, cpu_s) = guard.wait().map_err(io)?;
    if status != 0 {
        return Err(format!("mdr serve exited with wait status {status:#x}"));
    }
    if answer.trim_end() != want || !rest.is_empty() {
        report.fail(
            1,
            format!("set-up probe answered {answer:?}, want {want:?}"),
        );
    }
    Ok((cpu_s, wall_s))
}

/// The daemon's peak RSS over a whole session, in KiB. The session is
/// written to the daemon's standard input, which stays open until every
/// response is in the file `out`, so the daemon is still alive when its
/// high-water mark is read.
fn peak_rss_session(
    ctx: &Ctx,
    kind: Kind,
    dir: &Path,
    input: &Path,
    out: &Path,
    out_len: u64,
) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("mdr serve: {e}");
    let session = std::fs::read(input).map_err(|e| format!("{}: {e}", input.display()))?;
    let stdout = std::fs::File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut child = serve_command(ctx, kind, dir)?
        .stdin(Stdio::piped())
        .stdout(stdout)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", ctx.mdr.display()))?;
    let stdin = child.stdin.take();
    let guard = ChildGuard(Some(child));
    let mut stdin = stdin.ok_or("mdr serve: stdin pipe missing")?;
    stdin.write_all(&session).map_err(io)?;
    let start = Instant::now();
    while std::fs::metadata(out).map_err(io)?.len() < out_len {
        if start.elapsed().as_secs() > 60 {
            return Err("mdr serve did not answer the whole session".to_owned());
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let pid = guard.0.as_ref().map(Child::id);
    let rss = pid.and_then(|pid| peak_rss_kib(Some(pid))).unwrap_or(0);
    drop(stdin);
    let (status, _) = guard.wait().map_err(io)?;
    if status != 0 {
        return Err(format!("mdr serve exited with wait status {status:#x}"));
    }
    let _ = std::fs::remove_file(out);
    Ok(rss)
}

/// Lines of `output` that differ from the reference lines.
fn count_mismatches(output: &[u8], reference: &[String]) -> u64 {
    let mut got = output.split(|&b| b == b'\n');
    let mut bad = 0;
    for want in reference {
        bad += u64::from(got.next() != Some(want.as_bytes()));
    }
    bad + got.filter(|l| !l.is_empty()).count() as u64
}

/// `stats` and `snapshot` probes for every tenant open at the end.
fn probes(session: &Session) -> Vec<String> {
    session
        .live
        .iter()
        .flat_map(|&i| {
            let id = &session.instances[i].id;
            [
                format!(r#"{{"op":"stats","tenant":"{id}"}}"#),
                format!(r#"{{"op":"snapshot","tenant":"{id}"}}"#),
            ]
        })
        .collect()
}

/// Crashes a durable engine: records its answers to the probes (reads,
/// which journal nothing), then drops it without `finalize`.
fn crash(mut serve: DurableServe, session: &Session) -> Vec<String> {
    probes(session)
        .iter()
        .map(|p| serve.handle_line(p))
        .collect()
}

/// Recovers a crashed data directory and checks every open tenant's
/// `stats` and `snapshot` against the pre-crash answers. Returns the
/// recovery time in seconds and the records replayed.
fn recover(
    session: &Session,
    dir: &Path,
    before: &[String],
    report: &mut Report,
) -> Result<(f64, u64), String> {
    let start = Instant::now();
    let (mut recovered, recovery) = DurableServe::open(session.kind.config(), journal_config(dir))
        .map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    if !recovery.quarantined().is_empty() || recovered.engine().tenant_count() != session.live.len()
    {
        report.fail(1, format!("recovery: {:?}", recovery.tenants));
    }
    for (probe, want) in probes(session).iter().zip(before) {
        let got = recovered.handle_line(probe);
        if &got != want {
            report.fail(1, format!("recovered {got} differs from pre-crash {want}"));
        }
    }
    Ok((secs, recovered.stats().replayed_records))
}

/// After the daemon's end-of-input finalize, a restart must find every
/// open tenant and replay nothing.
fn check_clean_restart(session: &Session, dir: &Path, report: &mut Report) -> Result<(), String> {
    let (restarted, _) = DurableServe::open(session.kind.config(), journal_config(dir))
        .map_err(|e| e.to_string())?;
    let stats = restarted.stats();
    if stats.replayed_records != 0 || stats.recovered_tenants != session.live.len() as u64 {
        report.fail(1, format!("restart after finalize: {stats:?}"));
    }
    Ok(())
}

/// Writes the session's lines to `path`, the daemon's standard input.
fn write_input(session: &Session, path: &Path) -> Result<(), String> {
    let mut text = session.lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The end-to-end run: sessions alternate between an in-process pass,
/// which gives the per-line times, and a spawned daemon, which gives the
/// throughput, while set-up probes give the set-up time. Times are taken
/// at the slow decile of the sessions (see [`slow_decile`]) and set-up at
/// the median of the probes; one more session gives the peak RSS.
pub fn end_to_end(kind: Kind, ctx: &Ctx) -> Result<Report, String> {
    let session = generate(kind, ctx.seed, ctx.smoke)?;
    let input = ctx.work.join("session.jsonl");
    write_input(&session, &input)?;
    let out = ctx.work.join("daemon.out");
    let lines = session.lines.len();
    let mut report = Report::new(0);
    let (reference, hashes) = reference_pass(&session, &ctx.work.join("reference"), &mut report)?;
    let mut output = Vec::new();
    let (mut p50, mut p99, mut setups, mut setup_walls, mut cpu, mut wall, mut recoveries) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let steal_before = steal_ticks();
    let start = Instant::now();
    let mut iteration = 0;
    while iteration < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let dir = ctx.work.join(format!("in-process-{iteration}"));
        let mut server = Server::fresh(kind, &dir)?;
        let (mut times, mismatched) = in_process_pass(&mut server, &session.lines, &hashes);
        times.sort_unstable();
        p50.push(percentile(&times, 0.50) as f64 / 1e3);
        p99.push(percentile(&times, 0.99) as f64 / 1e3);
        report.attempted += lines as u64;
        if mismatched > 0 {
            report.fail(
                mismatched,
                format!("in-process pass {iteration} differs from the reference pass"),
            );
        }
        if let Server::Durable(serve) = server {
            let before = crash(serve, &session);
            recoveries.push(recover(&session, &dir, &before, &mut report)?.0);
        }

        let dir = ctx.work.join(format!("binary-{iteration}"));
        for _ in 0..SETUP_PROBES {
            let (cpu_s, wall_s) = setup_probe(
                ctx,
                kind,
                &dir,
                &session.lines[0],
                &reference[0],
                &mut report,
            )?;
            setups.push(cpu_s);
            setup_walls.push(wall_s);
        }
        let run = run_binary(ctx, kind, &dir, &input, &out, &mut output)?;
        report.attempted += lines as u64;
        let mismatched = count_mismatches(&output, &reference);
        if mismatched > 0 {
            report.fail(
                mismatched,
                format!("mdr serve session {iteration} differs from handle_line"),
            );
        }
        if kind == Kind::Durable {
            check_clean_restart(&session, &dir, &mut report)?;
        }
        cpu.push(run.cpu_s);
        wall.push(run.wall_s);
        for dir in ["in-process", "binary"] {
            let _ = std::fs::remove_dir_all(ctx.work.join(format!("{dir}-{iteration}")));
        }
        iteration += 1;
    }
    let steal_after = steal_ticks();
    let out_len = reference.iter().map(|r| r.len() as u64 + 1).sum();
    let rss_kib = peak_rss_session(
        ctx,
        kind,
        &ctx.work.join("rss"),
        &input,
        &ctx.work.join("rss.out"),
        out_len,
    )?;
    let _ = std::fs::remove_dir_all(ctx.work.join("rss"));
    let decides = session.decides as f64;
    // A durable daemon's fsync waits are part of its cost but not of its
    // CPU time, so serve-durable sessions are timed by the wall clock.
    let session_s = match kind {
        Kind::Memory => &cpu,
        Kind::Durable => &wall,
    };
    report.metric("decisions_per_s", decides / slow_decile(session_s), "1/s");
    report.metric("line_p50_us", slow_decile(&p50), "us");
    report.metric("line_p99_us", slow_decile(&p99), "us");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MB");
    report.note(format!(
        "{iteration} sessions of {lines} lines ({} decides); daemon {:.0} decisions per wall second; \
         {:.1}% of the machine's CPU time stolen meanwhile",
        session.decides,
        decides / median(&wall),
        steal_share(steal_before, steal_after)
    ));
    report.note(format!(
        "set-up: median {:.3} ms from spawn to the first answer",
        median(&setup_walls) * 1e3
    ));
    report.note(format!("session CPU s: {}", crate::util::summary(&cpu)));
    report.note(format!("pass p50 us: {}", crate::util::summary(&p50)));
    report.note(format!("pass p99 us: {}", crate::util::summary(&p99)));
    if !recoveries.is_empty() {
        report.note(format!(
            "crash recovery (DurableServe::open): median {:.1} ms",
            median(&recoveries) * 1e3
        ));
    }
    Ok(report)
}

/// Times the serve layers on `session`: `handle_line` untraced, then a
/// traced pass with one span per call into parse, apply and encode,
/// `DecisionCore::decide` in isolation, and a spawned daemon for the
/// serve loop's own cost. Returns the tracing overhead: the traced
/// median line time over the untraced one, in percent.
pub fn serve_layers(
    session: &Session,
    ctx: &Ctx,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<f64, String> {
    let kind = session.kind;
    let n = session.lines.len() as f64;
    let dir = ctx.work.join("layers-serve");

    let (reference, hashes) = reference_pass(session, &dir, report)?;
    let mut server = Server::fresh(kind, &dir)?;
    let (times, mismatched) = in_process_pass(&mut server, &session.lines, &hashes);
    drop(server);
    let untraced_ns = times.iter().sum::<u64>() as f64 / n;

    let mut server = Server::fresh(kind, &dir)?;
    let mut bytes = 0u64;
    let mut traced = Vec::with_capacity(session.lines.len());
    let mut mismatched = mismatched;
    alloc::set_counting(true);
    for (line, &want) in session.lines.iter().zip(&hashes) {
        let root = tracer.begin("serve.line", None);
        let span = tracer.begin("parse", Some(root));
        let parsed = serde_json::from_str::<ServeRequest>(line);
        tracer.end(span);
        let Ok(request) = parsed else {
            mismatched += 1;
            tracer.end(root);
            continue;
        };
        let span = tracer.begin("apply", Some(root));
        let response = server.apply(&request);
        tracer.end(span);
        let span = tracer.begin("encode", Some(root));
        let wire = serde_json::to_string(&response);
        tracer.end(span);
        tracer.end(root);
        traced.push(tracer.duration_ns(root));
        let wire = wire.map_err(|e| e.to_string())?;
        bytes += wire.len() as u64;
        mismatched += u64::from(fnv1a(wire.as_bytes()) != want);
    }
    alloc::set_counting(false);
    drop(server);
    if mismatched > 0 {
        report.fail(
            mismatched,
            "timed or traced pass differs from the reference pass".to_owned(),
        );
    }
    let totals = tracer.totals();
    for layer in ["parse", "apply", "encode"] {
        let t = totals.get(layer).copied().unwrap_or_default();
        report.metric(&format!("{layer}.ns_per_line"), t.self_ns as f64 / n, "ns");
        report.metric(
            &format!("{layer}.allocs_per_line"),
            t.self_allocs as f64 / n,
            "count",
        );
    }
    report.metric("encode.bytes_per_line", bytes as f64 / n, "bytes");

    // DecisionCore::decide alone over each tenant's stream.
    let (mut decide_ns, mut calls) = (0u64, 0u64);
    for inst in &session.instances {
        let mut core = DecisionCore::new(inst.spec, inst.model).map_err(|e| e.to_string())?;
        let t = Instant::now();
        for &request in &inst.requests {
            black_box(core.decide(black_box(request)));
        }
        decide_ns += t.elapsed().as_nanos() as u64;
        calls += inst.requests.len() as u64;
    }
    report.metric(
        "decide.ns_per_call",
        decide_ns as f64 / calls.max(1) as f64,
        "ns",
    );

    // The daemon's per-line CPU time beyond handle_line itself: framing,
    // and the per-response write and flush.
    let input = ctx.work.join("layers-session.jsonl");
    let out = ctx.work.join("layers-daemon.out");
    write_input(session, &input)?;
    let mut output = Vec::new();
    let run = run_binary(
        ctx,
        kind,
        &ctx.work.join("layers-binary"),
        &input,
        &out,
        &mut output,
    )?;
    let _ = std::fs::remove_dir_all(ctx.work.join("layers-binary"));
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&out);
    let mismatched = count_mismatches(&output, &reference);
    if mismatched > 0 {
        report.fail(
            mismatched,
            "mdr serve session differs from handle_line".to_owned(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let binary_ns = run.cpu_s * 1e9 / n;
    report.metric("serve_loop.ns_per_line", binary_ns - untraced_ns, "ns");

    let line_self = totals.get("serve.line").map_or(0, |t| t.self_ns) as f64 / n;
    let accounted: f64 = ["parse", "apply", "encode"]
        .iter()
        .filter_map(|l| totals.get(l))
        .map(|t| t.self_ns as f64 / n)
        .sum::<f64>()
        + line_self
        + (binary_ns - untraced_ns);
    report.note(format!(
        "{:?} serve path: binary {binary_ns:.0} ns/line; self times + serve_loop account for {accounted:.0} ns/line ({:+.1}%)",
        kind,
        (accounted / binary_ns - 1.0) * 100.0
    ));
    let mut times = times;
    times.sort_unstable();
    traced.sort_unstable();
    Ok((percentile(&traced, 0.5) as f64 / percentile(&times, 0.5) as f64 - 1.0) * 100.0)
}

/// Times the durability layers on a durable session: the journal's cost
/// per line, its write counters, fsync and checkpoint cadence and
/// latency, and crash recovery.
pub fn journal_layers(
    session: &Session,
    ctx: &Ctx,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let requests: Vec<ServeRequest> = session
        .lines
        .iter()
        .map(|l| serde_json::from_str(l).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let n = requests.len() as f64;
    let decides = session.decides as f64;

    let mut engine = ServeEngine::new(session.kind.config()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for request in &requests {
        black_box(engine.apply(request));
    }
    let engine_ns = t.elapsed().as_nanos() as f64;
    drop(engine);

    let dir = ctx.work.join("layers-journal");
    let Server::Durable(mut serve) = Server::fresh(Kind::Durable, &dir)? else {
        unreachable!("a durable kind opens a durable server");
    };
    let (mut durable_ns, mut fsync_ns, mut fsync_lines, mut ckpt_ns, mut ckpt_lines) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut responses = Vec::with_capacity(requests.len());
    let (wchar, syscw) = write_counters();
    for request in &requests {
        let (fsyncs, checkpoints) = (serve.stats().fsyncs, serve.stats().checkpoints);
        let span = tracer.begin("journal.apply", None);
        let response = serve.apply(request);
        tracer.end(span);
        responses.push(response);
        let ns = tracer.duration_ns(span);
        durable_ns += ns;
        if serve.stats().fsyncs != fsyncs {
            fsync_ns += ns;
            fsync_lines += 1;
        }
        if serve.stats().checkpoints != checkpoints {
            ckpt_ns += ns;
            ckpt_lines += 1;
        }
    }
    let (wchar_after, syscw_after) = write_counters();
    let stats = serve.stats().clone();
    let responses: Vec<String> = responses
        .iter()
        .map(|r| serde_json::to_string(r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    check_responses(session, &responses, report);
    report.metric(
        "journal.ns_per_line",
        (durable_ns as f64 - engine_ns) / n,
        "ns",
    );
    report.metric(
        "journal.records_per_decision",
        stats.journal_appends as f64 / decides,
        "count",
    );
    report.metric(
        "journal.bytes_written_per_decision",
        (wchar_after - wchar) as f64 / decides,
        "bytes",
    );
    report.metric(
        "journal.write_syscalls_per_decision",
        (syscw_after - syscw) as f64 / decides,
        "count",
    );
    report.metric("fsync.per_decision", stats.fsyncs as f64 / decides, "count");
    report.metric(
        "fsync.line_us_mean",
        fsync_ns as f64 / fsync_lines.max(1) as f64 / 1e3,
        "us",
    );
    report.metric(
        "checkpoint.per_decision",
        stats.checkpoints as f64 / decides,
        "count",
    );
    report.metric(
        "checkpoint.line_us_mean",
        ckpt_ns as f64 / ckpt_lines.max(1) as f64 / 1e3,
        "us",
    );

    // Crash, then time the journal scan alone and the whole recovery.
    let before = crash(serve, session);
    let (mut scan_ns, mut scanned) = (0u64, 0u64);
    for bytes in read_journals(&dir)? {
        let t = Instant::now();
        let scan = scan_journal(black_box(&bytes));
        scan_ns += t.elapsed().as_nanos() as u64;
        scanned += scan.records.len() as u64;
    }
    let (recovery_s, replayed) = recover(session, &dir, &before, report)?;

    // The daemon must answer byte for byte as in process, and its
    // end-of-input finalize must leave nothing to replay.
    let input = ctx.work.join("layers-journal-session.jsonl");
    write_input(session, &input)?;
    let binary_dir = ctx.work.join("layers-journal-binary");
    let out = ctx.work.join("layers-journal-daemon.out");
    let mut output = Vec::new();
    run_binary(ctx, Kind::Durable, &binary_dir, &input, &out, &mut output)?;
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&out);
    let mismatched = count_mismatches(&output, &responses);
    if mismatched > 0 {
        report.fail(
            mismatched,
            "durable mdr serve session differs from DurableServe".to_owned(),
        );
    }
    check_clean_restart(session, &binary_dir, report)?;
    let _ = std::fs::remove_dir_all(&binary_dir);
    let _ = std::fs::remove_dir_all(&dir);
    report.metric("recovery.records_replayed", replayed as f64, "count");
    report.metric(
        "recovery.scan_ns_per_record",
        scan_ns as f64 / scanned.max(1) as f64,
        "ns",
    );
    report.metric(
        "recovery.ns_per_record",
        recovery_s * 1e9 / replayed.max(1) as f64,
        "ns",
    );
    report.metric("recovery_s", recovery_s, "s");
    Ok(())
}

/// Every tenant journal under a data directory, read into memory.
fn read_journals(dir: &Path) -> Result<Vec<Vec<u8>>, String> {
    let tenants = dir.join("tenants");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&tenants)
        .map_err(|e| format!("{}: {e}", tenants.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path().join("journal.wal"))
        .filter(|p| p.exists())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

//! Bounded model checking of the multi-cell handoff.
//!
//! The mobility layer (see `docs/topology.md`) migrates SWk window
//! ownership between stationary cells with a three-leg flight —
//! HandoffRequest → StateTransfer → HandoffCommit — fenced by a
//! monotonically increasing epoch and aborted on its deadline. The state
//! machine that runs it is the simulator's own
//! [`HandoffMachine`](mdr_sim::HandoffMachine); this module drives that
//! machine through every interleaving of cell migrations, leg deliveries,
//! backbone losses with retransmission, duplicated commit legs and
//! deadline firings, deduplicating by full state hash.
//!
//! Besides the machine, a checker state holds only what the network and
//! the observer own: the leg in the air, at most one commit ghost, the
//! per-path budgets, the last deadline armed, and where the current
//! flight's StateTransfer landed. The network drops the leg of a fenced
//! flight; the commit ghost, which may land after any number of later
//! transitions, is what tests the fence against late copies. Each
//! reached state is judged against two invariants:
//!
//! * **no lost window** — whenever no handoff is in flight, the MC's cell
//!   owns the window, holds the state the last committed transfer
//!   shipped, and the handoff is not stuck;
//! * **billing identity** — the machine's
//!   [`HandoffLedger`](mdr_sim::HandoffLedger) holds: every billed leg is
//!   settled, aborted or in flight, and the invalidation bill matches its
//!   pricing rule.
//!
//! A single owner needs no check: the machine keeps exactly one owner
//! cell. The checker's teeth are source mutants of the machine itself
//! (`cargo xtask mutate` targets `crates/sim/src/handoff.rs`).

use mdr_sim::{HandoffLeg, HandoffMachine, HandoffOutput, HandoffOutputs};
use std::collections::HashSet;
use std::fmt;

/// The invariant classes the handoff checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandoffInvariant {
    /// At quiescence the MC's cell owns and holds the window, unstuck.
    NoLostWindow,
    /// Billed legs = settled + aborted + in flight, and the invalidation
    /// bill matches its pricing rule.
    BillingIdentity,
}

impl fmt::Display for HandoffInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            HandoffInvariant::NoLostWindow => "no-lost-window",
            HandoffInvariant::BillingIdentity => "billing-identity",
        };
        write!(f, "{name}")
    }
}

/// A counterexample: which invariant failed, why, and the transition
/// path that reached the bad state.
#[derive(Debug, Clone)]
pub struct HandoffViolation {
    /// The violated invariant.
    pub invariant: HandoffInvariant,
    /// Human-readable description of the bad state.
    pub detail: String,
    /// The transition names along the failing path.
    pub trace: Vec<String>,
}

impl fmt::Display for HandoffViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated after [{}]: {}",
            self.invariant,
            self.trace.join(" "),
            self.detail
        )
    }
}

/// One bounded handoff exploration: cell count, depth and per-path
/// budgets.
#[derive(Debug, Clone)]
pub struct HandoffConfig {
    /// Number of stationary cells (≥ 2 for any migration to exist).
    pub cells: u8,
    /// Exploration depth: number of transitions along any path.
    pub depth: usize,
    /// Maximum cell migrations explored along one path.
    pub max_migrations: u8,
    /// Maximum backbone leg losses (each retransmitted and re-billed)
    /// along one path.
    pub max_losses: u8,
    /// Maximum deadline firings along one path.
    pub max_deadlines: u8,
    /// Maximum duplicated (ghost) commit legs along one path.
    pub max_dups: u8,
}

impl HandoffConfig {
    /// A lossless, deadline-free exploration of migrations over `cells`
    /// cells to `depth`.
    pub fn new(cells: u8, depth: usize) -> Self {
        HandoffConfig {
            cells: cells.max(2),
            depth,
            max_migrations: 3,
            max_losses: 0,
            max_deadlines: 0,
            max_dups: 0,
        }
    }

    /// Enables backbone loss + retransmission transitions.
    #[must_use]
    pub fn lossy(mut self) -> Self {
        self.max_losses = 2;
        self
    }

    /// Enables deadline firings.
    #[must_use]
    pub fn faulty(mut self) -> Self {
        self.max_deadlines = 2;
        self
    }

    /// Enables duplicated/reordered commit-ghost transitions.
    #[must_use]
    pub fn ghosts(mut self) -> Self {
        self.max_dups = 1;
        self
    }
}

/// What one bounded handoff exploration found.
#[derive(Debug, Clone)]
pub struct HandoffReport {
    /// The cell count explored.
    pub cells: u8,
    /// The depth bound used.
    pub depth: usize,
    /// Whether backbone-loss transitions were explored.
    pub lossy: bool,
    /// Whether deadline transitions were explored.
    pub faulty: bool,
    /// Whether commit-ghost transitions were explored.
    pub ghosts: bool,
    /// Deduplicated states reached (including the initial state).
    pub states: usize,
    /// Transitions applied (including ones into already-seen states).
    pub transitions: usize,
    /// Counterexamples found; empty means the run verified.
    pub violations: Vec<HandoffViolation>,
}

impl HandoffReport {
    /// Whether the exploration finished without a counterexample.
    pub fn verified(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One leg attempt on the backbone, as the machine asked for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Leg {
    epoch: u64,
    leg: HandoffLeg,
    attempt: u32,
}

/// The machine plus what the network and the observer own. Equality and
/// hashing over all of it drive deduplication.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    machine: HandoffMachine,
    /// The leg attempt on the backbone.
    air: Option<Leg>,
    /// The epoch of a duplicated commit still wandering the backbone.
    ghost: Option<u64>,
    /// The epoch of the last deadline armed and not yet fired.
    deadline: Option<u64>,
    /// Where the current flight's StateTransfer landed, if it has.
    landed: Option<usize>,
    /// The cell holding the window state the last commit installed.
    window_at: usize,
    migrations_left: u8,
    losses_left: u8,
    deadlines_left: u8,
    dups_left: u8,
}

impl State {
    fn initial(config: &HandoffConfig) -> Self {
        State {
            machine: HandoffMachine::new(usize::from(config.cells), 0, false),
            air: None,
            ghost: None,
            deadline: None,
            landed: None,
            window_at: 0,
            migrations_left: config.max_migrations,
            losses_left: config.max_losses,
            deadlines_left: config.max_deadlines,
            dups_left: config.max_dups,
        }
    }

    /// Acts on the machine's outputs the way the network would: a leg
    /// goes in the air, the deadline is armed, an abort drops the fenced
    /// flight's leg, and a commit installs the transferred window where
    /// the transfer landed.
    fn observe(&mut self, outputs: HandoffOutputs) {
        for output in outputs {
            match output {
                HandoffOutput::SendLeg {
                    epoch,
                    leg,
                    attempt,
                } => {
                    self.air = Some(Leg {
                        epoch,
                        leg,
                        attempt,
                    });
                }
                HandoffOutput::ArmDeadline { epoch } => {
                    self.deadline = Some(epoch);
                    self.landed = None;
                }
                HandoffOutput::Committed => {
                    if let Some(cell) = self.landed.take() {
                        self.window_at = cell;
                    }
                }
                HandoffOutput::Aborted => self.air = None,
                HandoffOutput::Discarded => {}
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transition {
    /// The MC moves to another cell.
    Migrate(usize),
    /// The leg on the backbone lands.
    Deliver(Leg),
    /// The leg on the backbone is lost; its retransmission timer fires.
    Lose(Leg),
    /// The last armed deadline fires.
    Deadline(u64),
    /// The backbone duplicates the commit leg in the air.
    Duplicate(Leg),
    /// The duplicated commit lands (possibly long after later handoffs).
    Ghost(u64),
}

impl Transition {
    fn name(self) -> String {
        match self {
            Transition::Migrate(cell) => format!("migrate({cell})"),
            Transition::Deliver(l) => format!("deliver({:?}@{})", l.leg, l.epoch),
            Transition::Lose(l) => format!("lose({:?}@{})", l.leg, l.epoch),
            Transition::Deadline(epoch) => format!("deadline({epoch})"),
            Transition::Duplicate(l) => format!("dup({:?}@{})", l.leg, l.epoch),
            Transition::Ghost(epoch) => format!("ghost({epoch})"),
        }
    }
}

fn enabled(config: &HandoffConfig, state: &State) -> Vec<Transition> {
    let mut transitions = Vec::with_capacity(8);
    if let Some(leg) = state.air {
        transitions.push(Transition::Deliver(leg));
        if state.losses_left > 0 {
            transitions.push(Transition::Lose(leg));
        }
        if state.dups_left > 0 && state.ghost.is_none() && leg.leg == HandoffLeg::Commit {
            transitions.push(Transition::Duplicate(leg));
        }
    }
    if state.migrations_left > 0 {
        let here = state.machine.mc_cell();
        for cell in (0..usize::from(config.cells)).filter(|&c| c != here) {
            transitions.push(Transition::Migrate(cell));
        }
    }
    if let (Some(epoch), true) = (state.deadline, state.deadlines_left > 0) {
        transitions.push(Transition::Deadline(epoch));
    }
    if let Some(epoch) = state.ghost {
        transitions.push(Transition::Ghost(epoch));
    }
    transitions
}

fn apply(state: &mut State, transition: Transition) {
    let outputs = match transition {
        Transition::Migrate(cell) => {
            state.migrations_left -= 1;
            state.machine.migrate(cell)
        }
        Transition::Deliver(leg) => {
            state.air = None;
            let outputs = state.machine.leg_arrived(leg.epoch, leg.leg);
            let discarded = outputs.into_iter().any(|o| o == HandoffOutput::Discarded);
            if leg.leg == HandoffLeg::Transfer && !discarded {
                state.landed = Some(state.machine.mc_cell());
            }
            outputs
        }
        Transition::Lose(leg) => {
            state.losses_left -= 1;
            state.air = None;
            state.machine.retry_due(leg.epoch, leg.leg, leg.attempt)
        }
        Transition::Deadline(epoch) => {
            state.deadlines_left -= 1;
            state.deadline = None;
            state.machine.deadline(epoch)
        }
        Transition::Duplicate(leg) => {
            state.dups_left -= 1;
            state.ghost = Some(leg.epoch);
            HandoffOutputs::default()
        }
        Transition::Ghost(epoch) => {
            state.ghost = None;
            state.machine.leg_arrived(epoch, HandoffLeg::Commit)
        }
    };
    state.observe(outputs);
}

/// Judges one reached state against the handoff invariants.
fn verify_state(state: &State, trace: &[Transition]) -> Result<(), HandoffViolation> {
    let violation = |invariant: HandoffInvariant, detail: String| HandoffViolation {
        invariant,
        detail,
        trace: trace.iter().map(|t| t.name()).collect(),
    };
    let machine = &state.machine;
    if !machine.in_flight() {
        let (mc, owner) = (machine.mc_cell(), machine.owner_cell());
        if mc != owner || owner != state.window_at || machine.stuck() {
            return Err(violation(
                HandoffInvariant::NoLostWindow,
                format!(
                    "quiescent with the MC at cell {mc}, the owner at cell {owner}, the \
                     window state at cell {} (stuck: {})",
                    state.window_at,
                    machine.stuck()
                ),
            ));
        }
    }
    machine
        .ledger()
        .check()
        .map_err(|broken| violation(HandoffInvariant::BillingIdentity, broken))
}

/// Runs one bounded handoff exploration.
pub fn check_handoff(config: &HandoffConfig) -> HandoffReport {
    let mut report = HandoffReport {
        cells: config.cells,
        depth: config.depth,
        lossy: config.max_losses > 0,
        faulty: config.max_deadlines > 0,
        ghosts: config.max_dups > 0,
        states: 1,
        transitions: 0,
        violations: Vec::new(),
    };
    let initial = State::initial(config);
    let mut trace = Vec::new();
    if let Err(v) = verify_state(&initial, &trace) {
        report.violations.push(v);
        return report;
    }
    let mut seen = HashSet::new();
    seen.insert(initial.clone());
    dfs(config, &initial, 0, &mut seen, &mut trace, &mut report);
    report
}

fn dfs(
    config: &HandoffConfig,
    state: &State,
    depth: usize,
    seen: &mut HashSet<State>,
    trace: &mut Vec<Transition>,
    report: &mut HandoffReport,
) {
    if depth == config.depth || !report.violations.is_empty() {
        return;
    }
    for transition in enabled(config, state) {
        let mut child = state.clone();
        trace.push(transition);
        apply(&mut child, transition);
        report.transitions += 1;
        if let Err(v) = verify_state(&child, trace) {
            report.violations.push(v);
        }
        if report.violations.is_empty() && seen.insert(child.clone()) {
            report.states += 1;
            dfs(config, &child, depth + 1, seen, trace, report);
        }
        trace.pop();
        if !report.violations.is_empty() {
            return;
        }
    }
}

/// Explores the handoff in all five modes — bare migrations, lossy
/// backbone, deadline aborts, deadlines with commit ghosts, and the full
/// composition — over 2 and 3 cells; returns one report per run.
pub fn handoff_sweep(depth: usize) -> Vec<HandoffReport> {
    let mut reports = Vec::new();
    for cells in [2u8, 3] {
        reports.push(check_handoff(&HandoffConfig::new(cells, depth)));
        reports.push(check_handoff(&HandoffConfig::new(cells, depth).lossy()));
        reports.push(check_handoff(&HandoffConfig::new(cells, depth).faulty()));
        reports.push(check_handoff(
            &HandoffConfig::new(cells, depth).faulty().ghosts(),
        ));
        reports.push(check_handoff(
            &HandoffConfig::new(cells, depth).lossy().faulty().ghosts(),
        ));
    }
    reports
}

//! The window-ownership handoff across cells as a sans-io state machine
//! (mobility extension; see `docs/topology.md`).
//!
//! [`HandoffMachine`] owns every fact the three-way handoff keeps: the
//! MC's cell, the cell that owns the window, the stale-replica set, the
//! epoch fence, the one flight in the air and the stuck flag, plus the
//! counters the handoff and invalidation bills are made of. It reads no
//! clock and draws no randomness. Each typed input —
//! [`migrate`](HandoffMachine::migrate),
//! [`leg_arrived`](HandoffMachine::leg_arrived),
//! [`retry_due`](HandoffMachine::retry_due) and
//! [`deadline`](HandoffMachine::deadline) — returns the typed
//! [`HandoffOutput`]s its driver must act on, in order. The simulator
//! drives it from its event calendar (drawing leg loss and jitter,
//! scheduling arrivals, retries and deadlines); `mdr-verify --handoff`
//! drives the same machine through every interleaving of its inputs.

/// The three legs of the handoff protocol, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandoffLeg {
    /// Origin → target: announce the migration, carrying the new epoch.
    Request,
    /// Origin → target: the replica snapshot (version, SWk window, T1/T2
    /// streaks) — the one data-class leg.
    Transfer,
    /// Target → origin: acknowledge the snapshot; ownership moves when
    /// this lands at the origin.
    Commit,
}

/// One action the driver of a [`HandoffMachine`] must take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffOutput {
    /// Put one attempt of `leg` on the backbone under `epoch`. The machine
    /// has already billed it; `attempt` is 1 for the leg's first send.
    SendLeg {
        /// The flight epoch stamped on the leg (the fence).
        epoch: u64,
        /// Which leg to send.
        leg: HandoffLeg,
        /// Transmission attempts of this leg so far, this one included.
        attempt: u32,
    },
    /// A flight opened under `epoch`: arm its deadline.
    ArmDeadline {
        /// The new flight's epoch.
        epoch: u64,
    },
    /// The flight committed: the MC's cell now owns the window.
    Committed,
    /// The flight aborted: ownership stays at the origin cell and the
    /// handoff is stuck until a commit or a move back to the owner cell.
    Aborted,
    /// A stale leg (older epoch, or a copy of a leg already processed)
    /// was discarded by the fence.
    Discarded,
}

/// The outputs of one input, in the order the driver must act on them:
/// at most an abort, a deadline to arm and a leg to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffOutputs {
    /// The first `len` are the outputs; the rest are filler.
    items: [HandoffOutput; 3],
    len: usize,
}

impl Default for HandoffOutputs {
    fn default() -> Self {
        HandoffOutputs {
            items: [HandoffOutput::Discarded; 3],
            len: 0,
        }
    }
}

impl HandoffOutputs {
    fn push(&mut self, output: HandoffOutput) {
        self.items[self.len] = output;
        self.len += 1;
    }
}

impl IntoIterator for HandoffOutputs {
    type Item = HandoffOutput;
    type IntoIter = std::iter::Take<std::array::IntoIter<HandoffOutput, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

/// The terms of the handoff billing identity at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffLedger {
    /// Backbone leg attempts billed.
    pub billed: u64,
    /// Attempts of flights that committed.
    pub settled: u64,
    /// Attempts of flights that aborted.
    pub aborted: u64,
    /// Attempts of the flight still in the air.
    pub in_flight: u64,
    /// Invalidation messages billed.
    pub invalidation_billed: u64,
    /// What the invalidation class's pricing rule owes: one broadcast per
    /// round, or one unicast per dropped replica.
    pub invalidation_expected: u64,
}

impl HandoffLedger {
    /// Checks that every billed leg attempt is settled, aborted or in the
    /// air exactly once, and that the invalidation bill matches its
    /// pricing rule.
    ///
    /// # Errors
    ///
    /// A description of the first identity that does not hold.
    pub fn check(&self) -> Result<(), String> {
        if self.billed != self.settled + self.aborted + self.in_flight {
            return Err(format!(
                "handoff billing identity broken: {} billed vs {} settled + {} aborted + {} in flight",
                self.billed, self.settled, self.aborted, self.in_flight
            ));
        }
        if self.invalidation_billed != self.invalidation_expected {
            return Err(format!(
                "invalidation billing identity broken: {} billed vs {} owed by the \
                 invalidation class's pricing rule",
                self.invalidation_billed, self.invalidation_expected
            ));
        }
        Ok(())
    }
}

/// The flight in the air. At most one exists; a migration mid-flight
/// fences its epoch and starts over.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Flight {
    /// The cell ownership departs from (and stays at on abort).
    origin: usize,
    /// The MC's cell at initiation, where ownership is moving.
    target: usize,
    /// The fence: legs stamped with another epoch are discarded.
    epoch: u64,
    /// The leg currently in the air.
    awaiting: HandoffLeg,
    /// Transmission attempts of the awaiting leg (1 = the first send).
    attempts: u32,
    /// Billed attempts of this flight, settled on commit or written off
    /// on abort.
    messages: u64,
    /// Whether the transfer landed at the target (an abort then leaves a
    /// stale replica there to invalidate later).
    transfer_landed: bool,
}

/// The handoff state machine: ownership, fence, flight and bills.
///
/// ```
/// use mdr_sim::{HandoffLeg, HandoffMachine, HandoffOutput};
///
/// let mut machine = HandoffMachine::new(2, 0, false);
/// let out: Vec<_> = machine.migrate(1).into_iter().collect();
/// assert_eq!(out[0], HandoffOutput::ArmDeadline { epoch: 1 });
/// machine.leg_arrived(1, HandoffLeg::Request);
/// machine.leg_arrived(1, HandoffLeg::Transfer);
/// let out: Vec<_> = machine.leg_arrived(1, HandoffLeg::Commit).into_iter().collect();
/// assert_eq!(out, [HandoffOutput::Committed]);
/// assert_eq!(machine.owner_cell(), 1);
/// assert!(machine.ledger().check().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HandoffMachine {
    /// Invalidation pricing: one broadcast per round, or one unicast per
    /// stale replica.
    broadcast_invalidation: bool,
    /// The cell the MC sits in.
    mc_cell: usize,
    /// The cell whose SC owns the window and replica state.
    owner_cell: usize,
    /// Cells holding a stale replica copy; cleared by invalidation on
    /// commit.
    stale_replica: Vec<bool>,
    flight: Option<Flight>,
    /// Monotone epoch source: every flight gets a fresh epoch.
    epoch: u64,
    /// Whether the last flight aborted with the MC still away from the
    /// owner cell.
    stuck: bool,
    pub(crate) migrations: u64,
    pub(crate) handoffs_committed: u64,
    pub(crate) handoffs_aborted: u64,
    pub(crate) handoff_messages: u64,
    pub(crate) settled_handoff_messages: u64,
    pub(crate) aborted_handoff_messages: u64,
    pub(crate) invalidation_messages: u64,
    pub(crate) invalidation_rounds: u64,
    pub(crate) replicas_invalidated: u64,
    pub(crate) stale_reads: u64,
    pub(crate) handoff_discards: u64,
}

impl HandoffMachine {
    /// A quiescent machine over `cells` cells with the MC and the window
    /// at `home_cell`.
    pub fn new(cells: usize, home_cell: usize, broadcast_invalidation: bool) -> Self {
        HandoffMachine {
            broadcast_invalidation,
            mc_cell: home_cell,
            owner_cell: home_cell,
            stale_replica: vec![false; cells],
            flight: None,
            epoch: 0,
            stuck: false,
            migrations: 0,
            handoffs_committed: 0,
            handoffs_aborted: 0,
            handoff_messages: 0,
            settled_handoff_messages: 0,
            aborted_handoff_messages: 0,
            invalidation_messages: 0,
            invalidation_rounds: 0,
            replicas_invalidated: 0,
            stale_reads: 0,
            handoff_discards: 0,
        }
    }

    /// The cell the MC sits in.
    pub fn mc_cell(&self) -> usize {
        self.mc_cell
    }

    /// The cell that owns the window.
    pub fn owner_cell(&self) -> usize {
        self.owner_cell
    }

    /// Whether a flight is in the air.
    pub fn in_flight(&self) -> bool {
        self.flight.is_some()
    }

    /// Whether the handoff is stuck: reads are served stale from the
    /// origin cell and wire-needing requests are shed.
    pub fn stuck(&self) -> bool {
        self.stuck
    }

    /// The billing identity's terms now.
    pub fn ledger(&self) -> HandoffLedger {
        HandoffLedger {
            billed: self.handoff_messages,
            settled: self.settled_handoff_messages,
            aborted: self.aborted_handoff_messages,
            in_flight: self.flight.as_ref().map_or(0, |f| f.messages),
            invalidation_billed: self.invalidation_messages,
            invalidation_expected: if self.broadcast_invalidation {
                self.invalidation_rounds
            } else {
                self.replicas_invalidated
            },
        }
    }

    /// Records a read the MC served from its own replica: it was served
    /// stale if the window is owned away from the MC's cell.
    pub fn local_read(&mut self) {
        if self.mc_cell != self.owner_cell {
            self.stale_reads += 1;
        }
    }

    /// The MC moved to `cell`. A flight in the air is fenced (aborted);
    /// if the MC is now away from the owner cell a new flight starts
    /// toward it, otherwise the handoff is no longer stuck.
    pub fn migrate(&mut self, cell: usize) -> HandoffOutputs {
        let mut out = HandoffOutputs::default();
        self.mc_cell = cell;
        self.migrations += 1;
        self.abort(&mut out);
        if self.mc_cell != self.owner_cell {
            self.initiate(&mut out);
        } else {
            self.stuck = false;
        }
        out
    }

    /// A leg stamped with `epoch` landed. A copy that is not the leg the
    /// flight awaits under that epoch is discarded; the request and the
    /// transfer each send the next leg, and the commit moves ownership.
    pub fn leg_arrived(&mut self, epoch: u64, leg: HandoffLeg) -> HandoffOutputs {
        let mut out = HandoffOutputs::default();
        let Some(flight) = self
            .flight
            .as_mut()
            .filter(|f| f.epoch == epoch && f.awaiting == leg)
        else {
            self.handoff_discards += 1;
            out.push(HandoffOutput::Discarded);
            return out;
        };
        match leg {
            HandoffLeg::Request => flight.awaiting = HandoffLeg::Transfer,
            HandoffLeg::Transfer => {
                flight.transfer_landed = true;
                flight.awaiting = HandoffLeg::Commit;
            }
            HandoffLeg::Commit => {
                self.commit(&mut out);
                return out;
            }
        }
        flight.attempts = 0;
        self.send(&mut out);
        out
    }

    /// The retransmission timer armed after attempt `attempt` of `leg`
    /// fired. If that leg is still awaited under `epoch` with no later
    /// attempt, it is sent again; otherwise the timer is stale.
    pub fn retry_due(&mut self, epoch: u64, leg: HandoffLeg, attempt: u32) -> HandoffOutputs {
        let mut out = HandoffOutputs::default();
        let current = self
            .flight
            .as_ref()
            .is_some_and(|f| f.epoch == epoch && f.awaiting == leg && f.attempts == attempt);
        if current {
            self.send(&mut out);
        }
        out
    }

    /// The deadline armed for `epoch` expired. If that flight is still in
    /// the air it aborts and, the MC being away from the owner cell, a new
    /// flight starts under a fresh epoch.
    pub fn deadline(&mut self, epoch: u64) -> HandoffOutputs {
        let mut out = HandoffOutputs::default();
        if self.flight.as_ref().is_some_and(|f| f.epoch == epoch) {
            self.abort(&mut out);
            if self.mc_cell != self.owner_cell {
                self.initiate(&mut out);
            }
        }
        out
    }

    /// Opens a flight from the owner cell toward the MC's cell under a
    /// fresh epoch and sends its request leg.
    fn initiate(&mut self, out: &mut HandoffOutputs) {
        debug_assert!(self.flight.is_none(), "at most one flight in the air");
        debug_assert_ne!(self.owner_cell, self.mc_cell);
        self.epoch += 1;
        self.flight = Some(Flight {
            origin: self.owner_cell,
            target: self.mc_cell,
            epoch: self.epoch,
            awaiting: HandoffLeg::Request,
            attempts: 0,
            messages: 0,
            transfer_landed: false,
        });
        out.push(HandoffOutput::ArmDeadline { epoch: self.epoch });
        self.send(out);
    }

    /// Bills one attempt of the awaited leg and asks for it to be sent.
    fn send(&mut self, out: &mut HandoffOutputs) {
        let Some(flight) = self.flight.as_mut() else {
            unreachable!("sending a leg requires a flight in the air")
        };
        flight.attempts += 1;
        flight.messages += 1;
        self.handoff_messages += 1;
        out.push(HandoffOutput::SendLeg {
            epoch: flight.epoch,
            leg: flight.awaiting,
            attempt: flight.attempts,
        });
    }

    /// Fences the flight in the air, if any: ownership stays at the
    /// origin, its billed legs move to the aborted tally, an orphaned
    /// transfer leaves a stale replica at the target, and the handoff is
    /// stuck.
    fn abort(&mut self, out: &mut HandoffOutputs) {
        let Some(flight) = self.flight.take() else {
            return;
        };
        self.handoffs_aborted += 1;
        self.aborted_handoff_messages += flight.messages;
        if flight.transfer_landed {
            self.stale_replica[flight.target] = true;
        }
        self.stuck = true;
        out.push(HandoffOutput::Aborted);
    }

    /// The commit landed: ownership moves to the target, the origin's
    /// replica goes stale, and invalidation (the third message class)
    /// makes every non-owner cell drop its stale copy — one broadcast per
    /// commit round, or one unicast per stale replica.
    fn commit(&mut self, out: &mut HandoffOutputs) {
        let Some(flight) = self.flight.take() else {
            unreachable!("committing requires a flight in the air")
        };
        debug_assert_eq!(
            flight.target, self.mc_cell,
            "a migration mid-flight re-fences the handoff"
        );
        self.settled_handoff_messages += flight.messages;
        self.handoffs_committed += 1;
        self.stale_replica[flight.origin] = true;
        self.owner_cell = flight.target;
        self.stale_replica[flight.target] = false;
        self.stuck = false;
        // At least the origin is stale: a flight never targets its origin.
        let stale = self.stale_replica.iter().filter(|s| **s).count() as u64;
        if self.broadcast_invalidation {
            self.invalidation_messages += 1;
            self.invalidation_rounds += 1;
        } else {
            self.invalidation_messages += stale;
        }
        self.replicas_invalidated += stale;
        self.stale_replica.fill(false);
        out.push(HandoffOutput::Committed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_check_rejects_each_broken_identity() {
        let balanced = HandoffLedger {
            billed: 7,
            settled: 3,
            aborted: 3,
            in_flight: 1,
            invalidation_billed: 2,
            invalidation_expected: 2,
        };
        assert_eq!(balanced.check(), Ok(()));
        let unbilled = HandoffLedger {
            billed: 6,
            ..balanced
        };
        let err = unbilled.check().unwrap_err();
        assert!(err.starts_with("handoff billing identity broken"), "{err}");
        let unpriced = HandoffLedger {
            invalidation_billed: 1,
            ..balanced
        };
        let err = unpriced.check().unwrap_err();
        assert!(
            err.starts_with("invalidation billing identity broken"),
            "{err}"
        );
    }

    /// Epochs number the flights from 1, as counterexample traces print
    /// them.
    #[test]
    fn each_flight_stale_read_and_abort_counts_once() {
        let armed = |outputs: HandoffOutputs| {
            outputs.into_iter().find_map(|o| match o {
                HandoffOutput::ArmDeadline { epoch } => Some(epoch),
                _ => None,
            })
        };
        let mut machine = HandoffMachine::new(3, 0, false);
        machine.local_read();
        assert_eq!(machine.stale_reads, 0, "the MC sits in the owner cell");
        assert_eq!(armed(machine.migrate(1)), Some(1));
        machine.local_read();
        assert_eq!(machine.stale_reads, 1);
        assert_eq!(armed(machine.migrate(2)), Some(2));
        assert_eq!(machine.handoffs_aborted, 1);
        assert_eq!(machine.aborted_handoff_messages, 1);
        assert!(machine.stuck() && machine.in_flight());
    }
}

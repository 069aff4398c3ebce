//! The sliding-window family SWk (§4), including the optimized SW1.
//!
//! The policy examines the window of the latest `k` relevant requests. If
//! reads outnumber writes and the MC holds no replica, the replica is
//! allocated (piggybacked on the pending read's response); if writes
//! outnumber reads and the MC holds a replica, the replica is deallocated
//! (the MC sends a delete-request back after the propagated write). Because
//! `k` is odd, the majority is always strict, and the allocation state is a
//! pure function of the window: **replica present ⟺ reads are the window
//! majority**.
//!
//! For `k = 1` the window after a write consists of just that write, so the
//! copy would always be deallocated; the paper therefore optimizes SW1 to
//! send a short delete-request instead of propagating the data (§4, final
//! remarks). This implementation applies that optimization automatically
//! when `k == 1`.

use crate::action::Action;
use crate::policy::{AllocationPolicy, PolicySpec};
use crate::request::Request;
use crate::window::RequestWindow;

/// The SWk dynamic allocation policy (§4).
///
/// ```
/// use mdr_core::{AllocationPolicy, Request, SlidingWindow};
///
/// let mut sw = SlidingWindow::new(3); // cold start: no replica
/// sw.on_request(Request::Read);       // window [wwr]: remote read
/// sw.on_request(Request::Read);       // window [wrr]: majority reads → allocate
/// assert!(sw.has_copy());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlidingWindow {
    window: RequestWindow,
    /// Invariant (checked in debug builds): `has_copy ==
    /// window.majority_reads()` after every request.
    has_copy: bool,
    initial: RequestWindow,
}

impl SlidingWindow {
    /// Creates SWk with a cold-start window (all writes ⇒ no replica at the
    /// MC, matching a mobile computer that has just subscribed).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, even (§4 assumes odd `k`) or too large.
    pub fn new(k: usize) -> Self {
        Self::with_window(RequestWindow::filled(k, Request::Write))
    }

    /// Creates SWk starting from an explicit window, e.g. one received from
    /// the other computer during a §4 ownership handoff. The replica state
    /// is derived from the window majority.
    pub fn with_window(window: RequestWindow) -> Self {
        let has_copy = window.majority_reads();
        SlidingWindow {
            initial: window.clone(),
            window,
            has_copy,
        }
    }

    /// Creates SWk that starts *with* a replica (window filled with reads —
    /// the §4 allocation condition holds vacuously).
    pub fn with_initial_copy(k: usize) -> Self {
        Self::with_window(RequestWindow::filled(k, Request::Read))
    }

    /// The window size `k` (§4, odd).
    pub fn k(&self) -> usize {
        self.window.k()
    }

    /// A view of the current §4 request window.
    pub fn window(&self) -> &RequestWindow {
        &self.window
    }
}

impl AllocationPolicy for SlidingWindow {
    fn spec(&self) -> Option<PolicySpec> {
        Some(PolicySpec::SlidingWindow { k: self.window.k() })
    }

    fn has_copy(&self) -> bool {
        self.has_copy
    }

    fn on_request(&mut self, req: Request) -> Action {
        self.window.push(req);
        let majority_reads = self.window.majority_reads();
        let action = match req {
            Request::Read => {
                if self.has_copy {
                    // A read cannot decrease the read majority, so the
                    // replica is kept.
                    Action::LocalRead
                } else if majority_reads {
                    // The flip to a read majority always happens on a read
                    // (§4: "the last request must have been a read"); the SC
                    // piggybacks the save-indication and the window on the
                    // data response.
                    self.has_copy = true;
                    Action::RemoteRead { allocates: true }
                } else {
                    Action::RemoteRead { allocates: false }
                }
            }
            Request::Write => {
                if !self.has_copy {
                    Action::SilentWrite
                } else if majority_reads {
                    Action::PropagatedWrite { deallocates: false }
                } else {
                    // Writes now outnumber reads: deallocate. For k = 1 the
                    // SC knows this in advance and sends only the
                    // delete-request (§4).
                    self.has_copy = false;
                    if self.window.k() == 1 {
                        Action::DeleteRequestWrite
                    } else {
                        Action::PropagatedWrite { deallocates: true }
                    }
                }
            }
        };
        debug_assert_eq!(
            self.has_copy,
            self.window.majority_reads(),
            "SWk invariant violated: replica state must equal window majority"
        );
        action
    }

    fn on_replica_lost(&mut self) {
        // A volatile MC crash returns SWk to the §4 cold-start state: the
        // reconstructed window is conservatively all-writes, so the replica
        // is re-allocated only once reads again take the majority. When the
        // MC holds no replica, the window lives at the SC (§4 division of
        // labour) and survives the crash, so nothing is lost.
        if self.has_copy {
            self.window = RequestWindow::filled(self.window.k(), Request::Write);
            self.has_copy = false;
        }
    }

    fn reset(&mut self) {
        self.window = self.initial.clone();
        self.has_copy = self.initial.majority_reads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::schedule::Schedule;

    fn run(policy: &mut SlidingWindow, s: &str) -> Vec<Action> {
        let sched: Schedule = s.parse().unwrap();
        sched.iter().map(|r| policy.on_request(r)).collect()
    }

    #[test]
    fn cold_start_has_no_copy() {
        let sw = SlidingWindow::new(5);
        assert!(!sw.has_copy());
        assert_eq!(sw.spec(), Some(PolicySpec::SlidingWindow { k: 5 }));
    }

    #[test]
    fn allocation_happens_when_reads_take_majority() {
        let mut sw = SlidingWindow::new(3);
        let actions = run(&mut sw, "rr");
        assert_eq!(
            actions,
            vec![
                Action::RemoteRead { allocates: false }, // window [w w r]
                Action::RemoteRead { allocates: true },  // window [w r r] → allocate
            ]
        );
        assert!(sw.has_copy());
    }

    #[test]
    fn deallocation_happens_when_writes_take_majority() {
        let mut sw = SlidingWindow::with_initial_copy(3);
        let actions = run(&mut sw, "ww");
        assert_eq!(
            actions,
            vec![
                Action::PropagatedWrite { deallocates: false }, // [r r w]
                Action::PropagatedWrite { deallocates: true },  // [r w w] → deallocate
            ]
        );
        assert!(!sw.has_copy());
    }

    #[test]
    fn copy_state_always_equals_window_majority() {
        let mut sw = SlidingWindow::new(5);
        let sched: Schedule = "rrrwwwrwrwwrrrrwwwwrrr".parse().unwrap();
        for r in &sched {
            sw.on_request(r);
            assert_eq!(sw.has_copy(), sw.window().majority_reads());
        }
    }

    #[test]
    fn sw1_uses_delete_request_on_write() {
        // §4: "instead of sending to the MC a copy of x, the SC simply sends
        // the delete-request".
        let mut sw = SlidingWindow::new(1);
        let actions = run(&mut sw, "rw");
        assert_eq!(
            actions,
            vec![
                Action::RemoteRead { allocates: true },
                Action::DeleteRequestWrite
            ]
        );
    }

    #[test]
    fn sw1_alternating_cost_in_message_model() {
        // On r,w,r,w… each pair costs (1 + ω) + ω = 1 + 2ω — the worst case
        // behind Theorem 11.
        let omega = 0.5;
        let model = CostModel::message(omega);
        let mut sw = SlidingWindow::new(1);
        let sched = Schedule::alternating(Request::Read, 20);
        let cost: f64 = sched.iter().map(|r| model.price(sw.on_request(r))).sum();
        assert!((cost - 10.0 * (1.0 + 2.0 * omega)).abs() < 1e-12);
    }

    #[test]
    fn sw3_never_uses_delete_request_write() {
        let mut sw = SlidingWindow::new(3);
        let sched: Schedule = "rrwwrrwwrwrwrrrwww".parse().unwrap();
        for r in &sched {
            assert_ne!(sw.on_request(r), Action::DeleteRequestWrite);
        }
    }

    #[test]
    fn wk_cycle_costs_k_plus_one_connections() {
        // The canonical adversarial cycle behind Theorem 4: starting from a
        // full-read window, (k+1)/2 writes each cost 1, then (k+1)/2 reads
        // each cost 1 — k + 1 connections per cycle, while OPT pays 1.
        for k in [3usize, 5, 7, 9] {
            let mut sw = SlidingWindow::with_initial_copy(k);
            let half = k.div_ceil(2);
            let cycle = Schedule::write_read_cycles(half, half, 1);
            let cost: f64 = cycle
                .iter()
                .map(|r| CostModel::Connection.price(sw.on_request(r)))
                .sum();
            assert_eq!(cost, (k + 1) as f64, "k = {k}");
            // After the cycle the window is back to majority-reads.
            assert!(sw.has_copy());
        }
    }

    #[test]
    fn allocations_only_on_reads_deallocations_only_on_writes() {
        let mut sw = SlidingWindow::new(7);
        let sched: Schedule = "rrrrwwwwwrrrrrrwwwwwwwrrrwrwrwrw".parse().unwrap();
        for r in &sched {
            let a = sw.on_request(r);
            if a.allocates() {
                assert!(r.is_read());
            }
            if a.deallocates() {
                assert!(r.is_write());
            }
        }
    }

    #[test]
    fn with_window_derives_copy_state() {
        let w = RequestWindow::from_requests(&[Request::Read, Request::Read, Request::Write]);
        let sw = SlidingWindow::with_window(w);
        assert!(sw.has_copy());
    }

    #[test]
    fn reset_restores_initial_window() {
        let mut sw = SlidingWindow::new(3);
        run(&mut sw, "rrrr");
        assert!(sw.has_copy());
        sw.reset();
        assert!(!sw.has_copy());
        assert_eq!(sw.window().writes(), 3);
    }

    #[test]
    fn replica_loss_restores_the_cold_start_window() {
        let mut sw = SlidingWindow::with_initial_copy(3);
        sw.on_replica_lost();
        assert!(!sw.has_copy());
        assert_eq!(sw.window().writes(), 3);
        // Re-allocation follows the ordinary §4 majority rule from cold.
        assert_eq!(
            sw.on_request(Request::Read),
            Action::RemoteRead { allocates: false }
        );
        assert_eq!(
            sw.on_request(Request::Read),
            Action::RemoteRead { allocates: true }
        );
    }

    #[test]
    fn reads_while_copy_held_are_free_even_with_writes_in_window() {
        let mut sw = SlidingWindow::with_initial_copy(5);
        // One write (propagated), then reads stay local.
        assert_eq!(
            sw.on_request(Request::Write),
            Action::PropagatedWrite { deallocates: false }
        );
        assert_eq!(sw.on_request(Request::Read), Action::LocalRead);
    }
}

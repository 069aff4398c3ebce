//! The competitive-ized static methods T1m and T2m (§7.1).
//!
//! The pure static methods have unbounded worst case. The paper fixes this
//! with a minimal amount of dynamism:
//!
//! * **T1m** normally uses the one-copy scheme; after `m` *consecutive*
//!   reads it switches to two-copies, and reverts at the next write. It is
//!   `(m+1)`-competitive with expected cost
//!   `(1−θ) + (1−θ)^m (2θ−1)` in the connection model — only slightly above
//!   ST1's `1−θ`.
//! * **T2m** is the mirror image: two-copies until `m` consecutive writes,
//!   then one-copy until the next read.
//!
//! Division of labour (who counts what) follows the same observability rule
//! as SWk: in T1m's one-copy phase the SC sees every relevant request (reads
//! arrive remotely, writes are its own), so the SC counts the consecutive
//! reads and piggybacks the allocation on the m-th read's response; at the
//! next write it knows the copy must drop and sends only a delete-request.
//! In T2m's two-copies phase the MC sees every relevant request (writes are
//! propagated to it, reads are its own), so the MC counts consecutive writes
//! and answers the m-th with a delete-request (hence that write costs
//! `1 + ω` in the message model).

use crate::action::Action;
use crate::policy::{AllocationPolicy, PolicySpec};
use crate::request::Request;

/// T1m: one-copy until `m` consecutive reads, two-copies until the next
/// write (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct T1 {
    m: usize,
    state: T1State,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum T1State {
    /// One-copy phase, counting consecutive reads seen so far.
    OneCopy { consecutive_reads: usize },
    /// Two-copies phase (entered after `m` consecutive reads).
    TwoCopies,
}

impl T1 {
    /// Creates T1m (§7.1) with consecutive-read threshold `m ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` (the phase change would be triggered vacuously)
    /// or `m` exceeds [`MAX_POLICY_PARAM`](crate::MAX_POLICY_PARAM).
    pub fn new(m: usize) -> Self {
        let valid = PolicySpec::T1 { m }.validate();
        assert!(valid.is_ok(), "T1m: {valid:?}");
        T1 {
            m,
            state: T1State::OneCopy {
                consecutive_reads: 0,
            },
        }
    }

    /// The consecutive-read threshold `m` (§7.1).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The consecutive-read streak counted so far in the one-copy phase
    /// (0 in the two-copies phase) — the state the SC carries per §7.1's
    /// division of labour, exposed for snapshot/restore.
    pub fn streak(&self) -> usize {
        match self.state {
            T1State::OneCopy { consecutive_reads } => consecutive_reads,
            T1State::TwoCopies => 0,
        }
    }

    /// Reconstructs the §7.1 T1m automaton mid-stream (snapshot/restore
    /// support): in the
    /// two-copies phase when `has_copy`, else in the one-copy phase with
    /// `streak` consecutive reads already counted (clamped below `m` so
    /// the phase change still triggers on a request, never on restore).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, like [`T1::new`].
    pub fn with_state(m: usize, has_copy: bool, streak: usize) -> Self {
        let mut p = T1::new(m);
        p.state = if has_copy {
            T1State::TwoCopies
        } else {
            T1State::OneCopy {
                consecutive_reads: streak.min(m - 1),
            }
        };
        p
    }
}

impl AllocationPolicy for T1 {
    fn spec(&self) -> Option<PolicySpec> {
        Some(PolicySpec::T1 { m: self.m })
    }

    fn has_copy(&self) -> bool {
        matches!(self.state, T1State::TwoCopies)
    }

    fn on_request(&mut self, req: Request) -> Action {
        match (self.state, req) {
            (T1State::OneCopy { consecutive_reads }, Request::Read) => {
                let streak = consecutive_reads + 1;
                if streak >= self.m {
                    // The SC saw the m-th consecutive read and piggybacks
                    // the copy on the response.
                    self.state = T1State::TwoCopies;
                    Action::RemoteRead { allocates: true }
                } else {
                    self.state = T1State::OneCopy {
                        consecutive_reads: streak,
                    };
                    Action::RemoteRead { allocates: false }
                }
            }
            (T1State::OneCopy { .. }, Request::Write) => {
                self.state = T1State::OneCopy {
                    consecutive_reads: 0,
                };
                Action::SilentWrite
            }
            (T1State::TwoCopies, Request::Read) => Action::LocalRead,
            (T1State::TwoCopies, Request::Write) => {
                // Revert to one-copy: the SC knows the rule, so it sends
                // only the delete-request rather than propagating data.
                self.state = T1State::OneCopy {
                    consecutive_reads: 0,
                };
                Action::DeleteRequestWrite
            }
        }
    }

    fn on_replica_lost(&mut self) {
        // A volatile MC crash drops the replica: restart the §7.1 one-copy
        // phase with a fresh read streak. In the one-copy phase the SC holds
        // the streak (division of labour) and survives the crash, so the
        // hook is a no-op there.
        if matches!(self.state, T1State::TwoCopies) {
            self.state = T1State::OneCopy {
                consecutive_reads: 0,
            };
        }
    }

    fn reset(&mut self) {
        self.state = T1State::OneCopy {
            consecutive_reads: 0,
        };
    }
}

/// T2m: two-copies until `m` consecutive writes, one-copy until the next
/// read (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct T2 {
    m: usize,
    state: T2State,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum T2State {
    /// Two-copies phase, counting consecutive propagated writes.
    TwoCopies { consecutive_writes: usize },
    /// One-copy phase (entered after `m` consecutive writes).
    OneCopy,
}

impl T2 {
    /// Creates T2m (§7.1) with consecutive-write threshold `m ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is invalid, like [`T1::new`].
    pub fn new(m: usize) -> Self {
        let valid = PolicySpec::T2 { m }.validate();
        assert!(valid.is_ok(), "T2m: {valid:?}");
        T2 {
            m,
            state: T2State::TwoCopies {
                consecutive_writes: 0,
            },
        }
    }

    /// The consecutive-write threshold `m` (§7.1).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The consecutive-write streak counted so far in the two-copies phase
    /// (0 in the one-copy phase) — the state the MC carries per §7.1's
    /// division of labour, exposed for snapshot/restore.
    pub fn streak(&self) -> usize {
        match self.state {
            T2State::TwoCopies { consecutive_writes } => consecutive_writes,
            T2State::OneCopy => 0,
        }
    }

    /// Reconstructs the §7.1 T2m automaton mid-stream (snapshot/restore
    /// support): in the
    /// two-copies phase with `streak` consecutive writes counted when
    /// `has_copy` (clamped below `m`), else in the one-copy phase.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, like [`T2::new`].
    pub fn with_state(m: usize, has_copy: bool, streak: usize) -> Self {
        let mut p = T2::new(m);
        p.state = if has_copy {
            T2State::TwoCopies {
                consecutive_writes: streak.min(m - 1),
            }
        } else {
            T2State::OneCopy
        };
        p
    }
}

impl AllocationPolicy for T2 {
    fn spec(&self) -> Option<PolicySpec> {
        Some(PolicySpec::T2 { m: self.m })
    }

    fn has_copy(&self) -> bool {
        matches!(self.state, T2State::TwoCopies { .. })
    }

    fn on_request(&mut self, req: Request) -> Action {
        match (self.state, req) {
            (T2State::TwoCopies { .. }, Request::Read) => {
                self.state = T2State::TwoCopies {
                    consecutive_writes: 0,
                };
                Action::LocalRead
            }
            (T2State::TwoCopies { consecutive_writes }, Request::Write) => {
                let streak = consecutive_writes + 1;
                if streak >= self.m {
                    // The MC counted the m-th consecutive write and answers
                    // with a delete-request.
                    self.state = T2State::OneCopy;
                    Action::PropagatedWrite { deallocates: true }
                } else {
                    self.state = T2State::TwoCopies {
                        consecutive_writes: streak,
                    };
                    Action::PropagatedWrite { deallocates: false }
                }
            }
            (T2State::OneCopy, Request::Read) => {
                // Next read re-establishes the replica (piggybacked).
                self.state = T2State::TwoCopies {
                    consecutive_writes: 0,
                };
                Action::RemoteRead { allocates: true }
            }
            (T2State::OneCopy, Request::Write) => Action::SilentWrite,
        }
    }

    fn on_replica_lost(&mut self) {
        // A volatile MC crash drops the replica: T2m behaves as if its §7.1
        // one-copy phase had been entered; the next read re-allocates. An
        // already one-copy T2m loses nothing.
        self.state = T2State::OneCopy;
    }

    fn reset(&mut self) {
        self.state = T2State::TwoCopies {
            consecutive_writes: 0,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::schedule::Schedule;

    fn actions_of(policy: &mut dyn AllocationPolicy, s: &str) -> Vec<Action> {
        let sched: Schedule = s.parse().unwrap();
        sched.iter().map(|r| policy.on_request(r)).collect()
    }

    #[test]
    fn t1_allocates_after_m_consecutive_reads() {
        let mut p = T1::new(3);
        let actions = actions_of(&mut p, "rrr");
        assert_eq!(
            actions,
            vec![
                Action::RemoteRead { allocates: false },
                Action::RemoteRead { allocates: false },
                Action::RemoteRead { allocates: true },
            ]
        );
        assert!(p.has_copy());
    }

    #[test]
    fn t1_write_resets_the_streak() {
        let mut p = T1::new(2);
        actions_of(&mut p, "rwr");
        assert!(
            !p.has_copy(),
            "streak was interrupted: r w r is not 2 consecutive reads"
        );
        p.on_request(Request::Read);
        assert!(p.has_copy(), "r after r completes the streak");
    }

    #[test]
    fn t1_reverts_on_next_write_with_delete_request() {
        let mut p = T1::new(2);
        actions_of(&mut p, "rr");
        assert!(p.has_copy());
        assert_eq!(p.on_request(Request::Read), Action::LocalRead);
        assert_eq!(p.on_request(Request::Write), Action::DeleteRequestWrite);
        assert!(!p.has_copy());
    }

    #[test]
    fn t1_worst_cycle_costs_m_plus_one_connections() {
        // Adversarial cycle behind the (m+1)-competitiveness: m reads (each
        // remote) then one write (delete-request) = m + 1 connections, while
        // the offline optimum pays 1.
        for m in [1usize, 2, 5, 8] {
            let mut p = T1::new(m);
            let cycle = Schedule::read_write_cycles(m, 1, 1);
            let cost: f64 = cycle
                .iter()
                .map(|r| CostModel::Connection.price(p.on_request(r)))
                .sum();
            assert_eq!(cost, (m + 1) as f64, "m = {m}");
        }
    }

    #[test]
    fn t2_deallocates_after_m_consecutive_writes() {
        let mut p = T2::new(3);
        let actions = actions_of(&mut p, "www");
        assert_eq!(
            actions,
            vec![
                Action::PropagatedWrite { deallocates: false },
                Action::PropagatedWrite { deallocates: false },
                Action::PropagatedWrite { deallocates: true },
            ]
        );
        assert!(!p.has_copy());
    }

    #[test]
    fn t2_read_resets_the_streak() {
        let mut p = T2::new(2);
        actions_of(&mut p, "wrw");
        assert!(
            p.has_copy(),
            "streak was interrupted: w r w is not 2 consecutive writes"
        );
        p.on_request(Request::Write);
        assert!(!p.has_copy());
    }

    #[test]
    fn t2_reacquires_on_next_read() {
        let mut p = T2::new(1);
        assert_eq!(
            p.on_request(Request::Write),
            Action::PropagatedWrite { deallocates: true }
        );
        assert_eq!(p.on_request(Request::Write), Action::SilentWrite);
        assert_eq!(
            p.on_request(Request::Read),
            Action::RemoteRead { allocates: true }
        );
        assert!(p.has_copy());
    }

    #[test]
    fn t2_worst_cycle_costs_m_plus_one_connections() {
        for m in [1usize, 2, 5] {
            let mut p = T2::new(m);
            let cycle = Schedule::write_read_cycles(m, 1, 1);
            let cost: f64 = cycle
                .iter()
                .map(|r| CostModel::Connection.price(p.on_request(r)))
                .sum();
            assert_eq!(cost, (m + 1) as f64, "m = {m}");
        }
    }

    #[test]
    fn zero_threshold_is_rejected() {
        assert!(std::panic::catch_unwind(|| T1::new(0)).is_err());
        assert!(std::panic::catch_unwind(|| T2::new(0)).is_err());
    }

    #[test]
    fn reset_restores_initial_phase() {
        let mut p = T1::new(2);
        actions_of(&mut p, "rr");
        assert!(p.has_copy());
        p.reset();
        assert!(!p.has_copy());

        let mut p = T2::new(2);
        actions_of(&mut p, "ww");
        assert!(!p.has_copy());
        p.reset();
        assert!(p.has_copy());
    }

    #[test]
    fn specs_include_threshold() {
        assert_eq!(T1::new(15).spec(), Some(PolicySpec::T1 { m: 15 }));
        assert_eq!(T2::new(7).spec(), Some(PolicySpec::T2 { m: 7 }));
    }

    #[test]
    fn with_state_roundtrips_mid_stream_state() {
        // Drive T1 one read short of its threshold, clone the observable
        // state through `with_state`, and check both continue identically.
        let mut a = T1::new(3);
        actions_of(&mut a, "rr");
        let mut b = T1::with_state(a.m(), a.has_copy(), a.streak());
        assert_eq!(a.on_request(Request::Read), b.on_request(Request::Read));
        assert!(a.has_copy() && b.has_copy());

        let mut a = T2::new(3);
        actions_of(&mut a, "ww");
        let mut b = T2::with_state(a.m(), a.has_copy(), a.streak());
        assert_eq!(a.on_request(Request::Write), b.on_request(Request::Write));
        assert!(!a.has_copy() && !b.has_copy());

        // The streak is clamped so a restore can never fire the phase
        // change by itself.
        let p = T1::with_state(2, false, 99);
        assert_eq!(p.streak(), 1);
        assert_eq!(T2::with_state(2, true, 99).streak(), 1);
    }

    #[test]
    fn t1_message_model_costs() {
        // m reads at (1+ω) each, then a write at ω.
        let omega = 0.25;
        let model = CostModel::message(omega);
        let mut p = T1::new(2);
        let cost: f64 = "rrw"
            .parse::<Schedule>()
            .unwrap()
            .iter()
            .map(|r| model.price(p.on_request(r)))
            .sum();
        assert!((cost - (2.0 * (1.0 + omega) + omega)).abs() < 1e-12);
    }
}

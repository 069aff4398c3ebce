//! Multi-cell topology and the fault-hardened handoff protocol
//! (mobility-layer extension; see `docs/topology.md`).
//!
//! The paper pins each MC to a single SC, but its motivation (§2, §8) is a
//! cellular architecture in which the MC roams between cells. This module
//! defines [`TopologyConfig`]: a set of SCs/cells plus a deterministic,
//! seed-driven mobility plan that migrates the MC between cells mid-run.
//! Whenever the MC's current cell differs from the cell that owns its
//! replica state, the simulator runs a three-way handoff over the wired
//! inter-SC backbone, driving the state machine in `handoff.rs`:
//!
//! ```text
//! owner cell                      target cell
//!     | -------- HandoffRequest ------> |   (control)
//!     | -------- StateTransfer -------> |   (data: version, window, streaks)
//!     | <------- HandoffCommit -------- |   (control)
//! ```
//!
//! Every leg is epoch-fenced: a leg carrying a stale handoff epoch — a
//! duplicate, a reordered copy, or the tail of an aborted attempt — is
//! discarded on arrival, so the protocol is idempotent under network
//! misbehaviour. A handoff that has not committed by its deadline aborts
//! and *rolls back* to the origin cell: ownership never moves until the
//! commit lands at the origin, so there is exactly one owner at every
//! instant. While a handoff is stuck (aborted at least once and not yet
//! re-committed), the MC degrades gracefully — reads are served stale from
//! the origin cell's replica and wire-bound requests are shed with a typed
//! outcome — instead of blocking the event loop.
//!
//! On commit the origin cell's replica goes stale (and so does any orphan
//! a previously aborted `StateTransfer` parked at a target cell); the
//! commit triggers invalidation so non-owner cells drop those stale
//! replicas — either one message per stale cell, or a single broadcast
//! (the third message class), whichever the configuration selects. The
//! choice is pure pricing: replica placement after invalidation is
//! identical either way, which is what experiment E19 measures.
//!
//! Everything here is deterministic: the same `(TopologyConfig, workload)`
//! pair reproduces the same migrations, leg losses and therefore a
//! byte-identical cost ledger. A plan with `migration_rate == 0` is
//! *inert*: it schedules no events, draws nothing from any RNG stream and
//! reproduces the single-cell ledger digest bit for bit.

use crate::faults::{bitwise_eq, ConfigError};

/// A multi-cell topology with a deterministic, seed-driven mobility plan.
///
/// Migrations arrive as a Poisson process at `migration_rate`; each one
/// moves the MC to a uniformly drawn *different* cell and (if the MC left
/// the owner cell) starts the three-way handoff described in the module
/// docs. All randomness — dwell times, destination cells, backbone leg
/// losses, commit ghosts — comes from dedicated RNG streams derived from
/// `seed`, so the plan never perturbs the workload, fault or ARQ streams.
///
/// ```
/// use mdr_sim::TopologyConfig;
///
/// let topology = TopologyConfig::new(3, 0.5, 2.0, 7)
///     .and_then(|t| t.with_home_cell(1))
///     .and_then(|t| t.with_loss(0.1));
/// assert!(topology.is_ok());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TopologyConfig {
    /// Number of cells (≥ 1). One cell makes every migration a no-op.
    pub cells: usize,
    /// The cell the MC starts in; its SC owns the replica state initially.
    pub home_cell: usize,
    /// Poisson rate of MC migrations (per time unit). Zero makes the plan
    /// inert: no events, no draws, the single-cell ledger exactly.
    pub migration_rate: f64,
    /// How long a handoff may stay uncommitted before it aborts and rolls
    /// back to the origin cell (epoch fence + re-initiation).
    pub handoff_deadline: f64,
    /// Invalidation mode on commit: `true` sends one broadcast to all
    /// cells, `false` sends one message per stale replica.
    pub broadcast_invalidation: bool,
    /// Per-attempt probability that a backbone handoff leg is lost.
    pub loss_probability: f64,
    /// Per-delivery probability that the network duplicates a
    /// `HandoffCommit` (the copy arrives right behind the original).
    pub commit_duplication: f64,
    /// Per-delivery probability that a stale `HandoffCommit` copy is
    /// reordered past later traffic (arrives much later).
    pub commit_reorder: f64,
    /// RNG seed for the mobility and backbone streams.
    pub seed: u64,
}

impl TopologyConfig {
    /// A topology of `cells` cells with the MC homed to cell 0, migrating
    /// at `migration_rate`, handoffs abandoned after `handoff_deadline`,
    /// per-cell invalidation and a lossless backbone. Refine with the
    /// `with_*` builders.
    ///
    /// # Errors
    ///
    /// [`ConfigError::NoCells`] for an empty topology,
    /// [`ConfigError::HandoffRate`] for a negative or non-finite migration
    /// rate, and [`ConfigError::HandoffDeadline`] for a non-positive or
    /// non-finite deadline.
    pub fn new(
        cells: usize,
        migration_rate: f64,
        handoff_deadline: f64,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if cells == 0 {
            return Err(ConfigError::NoCells);
        }
        if !(migration_rate >= 0.0 && migration_rate.is_finite()) {
            return Err(ConfigError::HandoffRate {
                value: migration_rate,
            });
        }
        if !(handoff_deadline > 0.0 && handoff_deadline.is_finite()) {
            return Err(ConfigError::HandoffDeadline {
                deadline: handoff_deadline,
                rto: 0.0,
            });
        }
        Ok(TopologyConfig {
            cells,
            home_cell: 0,
            migration_rate,
            handoff_deadline,
            broadcast_invalidation: false,
            loss_probability: 0.0,
            commit_duplication: 0.0,
            commit_reorder: 0.0,
            seed,
        })
    }

    /// Homes the MC (and the initial replica ownership) to `home_cell`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownHomeCell`] if the index is out of range.
    pub fn with_home_cell(mut self, home_cell: usize) -> Result<Self, ConfigError> {
        if home_cell >= self.cells {
            return Err(ConfigError::UnknownHomeCell {
                home: home_cell,
                cells: self.cells,
            });
        }
        self.home_cell = home_cell;
        Ok(self)
    }

    /// Selects broadcast invalidation (one message per commit) instead of
    /// the per-cell default (one message per stale replica).
    #[must_use]
    pub fn with_broadcast_invalidation(mut self) -> Self {
        self.broadcast_invalidation = true;
        self
    }

    /// Sets the per-attempt loss probability of backbone handoff legs.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Probability`] for a value outside `[0, 1]`.
    pub fn with_loss(mut self, loss_probability: f64) -> Result<Self, ConfigError> {
        if !(0.0..=1.0).contains(&loss_probability) {
            return Err(ConfigError::Probability {
                what: "handoff loss probability",
                value: loss_probability,
            });
        }
        self.loss_probability = loss_probability;
        Ok(self)
    }

    /// Enables `HandoffCommit` duplication and stale reordering — network
    /// misbehaviour the epoch fence must absorb without observable effect.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Probability`] for a value outside `[0, 1]`.
    pub fn with_commit_ghosts(
        mut self,
        duplication: f64,
        reorder: f64,
    ) -> Result<Self, ConfigError> {
        if !(0.0..=1.0).contains(&duplication) {
            return Err(ConfigError::Probability {
                what: "commit duplication probability",
                value: duplication,
            });
        }
        if !(0.0..=1.0).contains(&reorder) {
            return Err(ConfigError::Probability {
                what: "commit reorder probability",
                value: reorder,
            });
        }
        self.commit_duplication = duplication;
        self.commit_reorder = reorder;
        Ok(self)
    }

    /// Whether this plan can migrate the MC at all. An inert plan
    /// schedules no events and draws nothing, reproducing the single-cell
    /// execution exactly.
    pub fn is_inert(&self) -> bool {
        // Validation pins the rate to [0, ∞), so ≤ 0 means exactly zero.
        self.migration_rate <= 0.0
    }

    /// Whether commit ghosts (duplication or reordering) are enabled.
    pub fn has_ghosts(&self) -> bool {
        self.commit_duplication > 0.0 || self.commit_reorder > 0.0
    }
}

bitwise_eq!(TopologyConfig; floats: migration_rate, handoff_deadline, loss_probability,
    commit_duplication, commit_reorder; exact: cells, home_cell, broadcast_invalidation, seed);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_topologies_build() {
        let topology = TopologyConfig::new(4, 0.5, 2.0, 7)
            .and_then(|t| t.with_home_cell(2))
            .and_then(|t| t.with_loss(0.2))
            .and_then(|t| t.with_commit_ghosts(0.1, 0.05))
            .unwrap()
            .with_broadcast_invalidation();
        assert_eq!(topology.cells, 4);
        assert_eq!(topology.home_cell, 2);
        assert!(topology.broadcast_invalidation);
        assert!(!topology.is_inert());
        assert!(topology.has_ghosts());
    }

    #[test]
    fn ghost_flags_reflect_each_channel_independently() {
        // `has_ghosts` gates the ghost RNG stream: it must stay off when
        // both probabilities are exactly zero and arm for either channel
        // alone.
        let base = TopologyConfig::new(3, 0.5, 2.0, 7).unwrap();
        assert!(!base.has_ghosts());
        let dup_only = base.with_commit_ghosts(0.3, 0.0).unwrap();
        assert!(dup_only.has_ghosts());
        let reorder_only = base.with_commit_ghosts(0.0, 0.3).unwrap();
        assert!(reorder_only.has_ghosts());
    }

    /// Satellite: zero cells is rejected with exactly `NoCells`.
    #[test]
    fn zero_cells_are_rejected() {
        let err = TopologyConfig::new(0, 0.5, 2.0, 0).unwrap_err();
        assert_eq!(err, ConfigError::NoCells);
        assert!(err.to_string().contains("at least one cell"), "{err}");
    }

    /// Satellite: homing the MC to a cell the topology does not contain is
    /// rejected with exactly `UnknownHomeCell`.
    #[test]
    fn unknown_home_cell_is_rejected() {
        for bad in [3, 4, usize::MAX] {
            let err = TopologyConfig::new(3, 0.5, 2.0, 0)
                .unwrap()
                .with_home_cell(bad)
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::UnknownHomeCell { home, cells } if home == bad && cells == 3),
                "{err}"
            );
            assert!(err.to_string().contains("home cell"), "{err}");
        }
        assert!(TopologyConfig::new(3, 0.5, 2.0, 0)
            .unwrap()
            .with_home_cell(2)
            .is_ok());
    }

    /// Satellite: a non-positive or non-finite deadline is rejected with
    /// exactly `HandoffDeadline` (the deadline-vs-RTO cross-check lives in
    /// the builder, where the ARQ configuration is visible).
    #[test]
    fn handoff_deadline_is_validated() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = TopologyConfig::new(2, 0.5, bad, 0).unwrap_err();
            assert!(
                matches!(err, ConfigError::HandoffDeadline { deadline, .. } if deadline.total_cmp(&bad).is_eq()),
                "{err}"
            );
            assert!(err.to_string().contains("handoff deadline"), "{err}");
        }
    }

    #[test]
    fn migration_rate_is_validated() {
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let err = TopologyConfig::new(2, bad, 2.0, 0).unwrap_err();
            assert!(
                matches!(err, ConfigError::HandoffRate { value } if value.total_cmp(&bad).is_eq()),
                "{err}"
            );
        }
        // Zero is legal: the inert plan.
        assert!(TopologyConfig::new(2, 0.0, 2.0, 0).unwrap().is_inert());
    }

    #[test]
    fn backbone_probabilities_are_validated() {
        let base = TopologyConfig::new(2, 0.5, 2.0, 0).unwrap();
        for bad in [-0.1, 1.1, f64::NAN] {
            assert!(base.with_loss(bad).is_err());
            assert!(base.with_commit_ghosts(bad, 0.0).is_err());
            assert!(base.with_commit_ghosts(0.0, bad).is_err());
        }
    }

    #[test]
    fn equality_is_total_order_on_floats() {
        let a = TopologyConfig::new(3, 0.5, 2.0, 9).unwrap();
        let b = TopologyConfig::new(3, 0.5, 2.0, 9).unwrap();
        assert_eq!(a, b);
        let c = TopologyConfig::new(3, 0.5, 2.0, 10).unwrap();
        assert_ne!(a, c);
    }
}

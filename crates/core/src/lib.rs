//! # mdr-core — data-allocation policies for mobile computers
//!
//! Core types and algorithms from **Huang, Sistla, Wolfson, "Data
//! Replication for Mobile Computers" (ACM SIGMOD 1994)**.
//!
//! The setting: a mobile computer (MC) accesses a data item whose primary
//! copy lives on a stationary computer (SC) across an expensive wireless
//! link. The only decision is whether the MC should additionally hold a
//! replica — *one-copy* vs *two-copies* — and the only objective is
//! communication cost, measured either per cellular **connection** or per
//! **message** (data messages cost 1, control messages cost ω ≤ 1).
//!
//! This crate provides:
//!
//! * [`Request`] / [`Schedule`] — the relevant-request model (§3);
//! * [`Action`] / [`CostModel`] — communication events and their prices in
//!   both cost models (§3);
//! * [`AllocationPolicy`] implementations: the statics [`St1`] / [`St2`],
//!   the sliding-window family [`SlidingWindow`] (§4, including the
//!   optimized SW1), and the competitive statics [`T1`] / [`T2`] (§7.1);
//! * [`RequestWindow`] — the k-bit window the SWk protocol ships between
//!   the MC and the SC;
//! * [`run_policy`] / [`trace_policy`] — reference execution with exact
//!   cost accounting;
//! * [`hash`] — the workspace's only FNV-1a and SplitMix64.
//!
//! The closed-form analysis lives in `mdr-analysis`, the distributed
//! protocol simulation in `mdr-sim`, the offline adversary in
//! `mdr-adversary`, and the §7.2 multi-object extension in `mdr-multi`.
//!
//! ## Quick example
//!
//! ```
//! use mdr_core::{CostModel, PolicySpec, Schedule, run_spec};
//!
//! // A bursty schedule: mostly reads, then a write burst.
//! let schedule: Schedule = "rrrrrwwwwwrrrrr".parse().unwrap();
//!
//! let st1 = run_spec(PolicySpec::St1, &schedule, CostModel::Connection);
//! let sw3 = run_spec(PolicySpec::SlidingWindow { k: 3 }, &schedule, CostModel::Connection);
//!
//! // The adaptive policy beats the static one on this mixed workload.
//! assert!(sw3.total_cost < st1.total_cost);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod action;
mod cost;
/// FNV-1a and SplitMix64 behind every pinned §3 ledger digest and seed.
pub mod hash;
mod policy;
mod request;
mod run;
mod schedule;
mod window;

pub use action::{Action, ActionCounts};
pub use cost::{approx_eq, CostModel, ParseModelError, COST_EPSILON};
pub use policy::{
    AdaptivePolicy, AllocationPolicy, InvalidPolicy, ParsePolicyError, PolicySpec, SlidingWindow,
    St1, St2, MAX_POLICY_PARAM, T1, T2,
};
pub use request::{ParseRequestError, Request};
pub use run::{run_policy, run_spec, trace_policy, RunOutcome, TraceStep};
pub use schedule::Schedule;
pub use window::RequestWindow;

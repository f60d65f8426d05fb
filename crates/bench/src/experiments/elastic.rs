//! Elastic fleet: online join and online retire under continuous load.
//!
//! The paper fixes the replica fleet at construction time — every backup
//! exists before the first log record ships, and a backup that dies is
//! replaced by promoting or re-seeding offline (Section 6 recovers a
//! *primary*, not fleet membership). This scenario measures the membership
//! layer we add on top: a [`c5_core::FleetController`] seeds a 1→N fan-out
//! through the same join protocol a live joiner uses, then — while
//! closed-loop writers drive the primary and tokened reader sessions issue
//! `strong`/`causal`/`bounded` reads — a brand-new replica **joins online**
//! a third of the way through (live checkpoint export, install, archived-gap
//! replay, with the live stream subscribed *before* the replay so no sequence
//! number can fall between archive and stream) and the first seed **retires
//! online** two thirds through (drained of pinned reads, then detached).
//!
//! Correctness is hard-asserted inside the run: the joiner is exposed at or
//! beyond its install cut the moment it is `Serving`; no session violates
//! read-your-writes or monotonicity across the churn; a closing strong read
//! covers the whole log; and every survivor's final state equals the
//! primary's, row for row (monotonic prefix consistency despite membership
//! churn). The tables report join/retire timings, per-class reads, and
//! per-survivor lag — the joiner's lag row only has post-join samples, so
//! it *is* the lag-during-churn measurement.

use crate::harness::{run_scenario, Event, Scenario};
use crate::scale::Scale;

/// The [`reads`](super::reads) scenario on a controller-managed fleet, with
/// a join at T/3 and a retire at 2T/3.
pub fn scenario(scale: &Scale) -> Scenario {
    Scenario {
        events: vec![
            (scale.duration / 3, Event::Join),
            (scale.duration * 2 / 3, Event::Retire),
        ],
        ..super::reads::scenario(scale)
    }
}

/// Runs the elastic-fleet scenario and prints the churn, per-class, and
/// per-survivor tables.
pub fn run(scale: &Scale) {
    let outcome = run_scenario(&scenario(scale));
    let (join, retire) = (&outcome.joins[0], &outcome.retires[0]);
    println!(
        "join: replica {} installed checkpoint cut {}, stream from {}, replayed {} archived \
         records, Serving after {:.1} ms; retire: replica {} drained in {:.1} ms at exposed \
         cut {}",
        join.replica,
        join.checkpoint_cut,
        join.stream_start,
        join.replayed_records,
        join.join_to_serving.as_secs_f64() * 1e3,
        retire.replica,
        retire.drain.as_secs_f64() * 1e3,
        retire.retired_exposed,
    );
    super::reads::report_sessions(
        &format!(
            "Elastic fleet (measured on this host): {} sessions over {} seeds, join at T/3, \
             retire at 2T/3",
            scale.read_sessions, scale.fanout_replicas
        ),
        &outcome,
    );
    println!(
        "note: the joiner's install-cut coverage, read-your-writes, session monotonicity, \
         and survivor state equality with the primary are hard assertions inside the run — \
         reaching this line means membership churn never cost a guarantee."
    );
}

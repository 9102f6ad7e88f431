//! Property tests for the admission state machine (vendored
//! `proptest`), per the overload-resilience contract:
//!
//! 1. Queue depth never exceeds `max_queue` (and the shed lane never
//!    exceeds its depth) under any interleaving of enqueues and drops.
//! 2. The shed counters equal the rejects the simulated acceptor
//!    observed — every 503-with-Retry-After is accounted, none twice.
//! 3. The in-flight gauge returns exactly to zero after drain.

use proptest::prelude::*;
use std::time::Duration;
use sya_obs::Obs;
use sya_serve::{Admission, AdmissionConfig, Shed};

fn admission(max_queue: usize, max_inflight: usize, shed_lane: usize) -> (Admission, Obs) {
    let obs = Obs::enabled();
    let adm = Admission::new(
        AdmissionConfig {
            max_queue,
            max_inflight,
            shed_lane_depth: shed_lane,
            request_timeout: Duration::from_millis(1_000),
        },
        obs.clone(),
    );
    (adm, obs)
}

fn gauge(obs: &Obs, name: &str) -> f64 {
    obs.metrics_snapshot().gauges.get(name).copied().unwrap_or(f64::NAN)
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.metrics_snapshot().counters.get(name).copied().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Ops: even = try_enqueue, odd = drop the oldest held ticket.
    #[test]
    fn queue_depth_never_exceeds_max_queue(
        max_queue in 1usize..8,
        ops in prop::collection::vec(0u8..2, 1..200),
    ) {
        let (adm, obs) = admission(max_queue, 1, 2);
        let mut held = std::collections::VecDeque::new();
        for op in ops {
            if op == 0 {
                if let Ok(ticket) = adm.try_enqueue() {
                    held.push_back(ticket);
                }
            } else {
                held.pop_front();
            }
            prop_assert!(adm.queued() <= max_queue, "depth {} > {max_queue}", adm.queued());
            prop_assert_eq!(adm.queued(), held.len());
            prop_assert_eq!(gauge(&obs, "serve.admission.queued"), held.len() as f64);
        }
        // Full drain returns the gauge exactly to zero.
        held.clear();
        prop_assert_eq!(adm.queued(), 0);
        prop_assert_eq!(gauge(&obs, "serve.admission.queued"), 0.0);
    }

    /// Simulates the acceptor under a burst: every arrival either
    /// queues (main or shed lane) or is rejected-and-counted. The
    /// `shed_queue_full_total` counter must equal the rejects the wire
    /// would have seen.
    #[test]
    fn shed_counter_equals_observed_rejects(
        max_queue in 1usize..6,
        shed_lane in 1usize..4,
        ops in prop::collection::vec(0u8..3, 1..300),
    ) {
        let (adm, obs) = admission(max_queue, 1, shed_lane);
        let mut main = Vec::new();
        let mut lane = Vec::new();
        let mut observed_rejects = 0u64;
        for op in ops {
            match op {
                // An arrival, routed exactly like the acceptor routes.
                0 => match adm.try_enqueue() {
                    Ok(t) => main.push(t),
                    Err(_) => match adm.try_enqueue_shed() {
                        Ok(t) => lane.push(t),
                        Err(shed) => {
                            prop_assert_eq!(shed, Shed::QueueFull);
                            adm.count_shed(shed);
                            observed_rejects += 1; // the 503 + Retry-After write
                        }
                    },
                },
                // A worker dequeues.
                1 => { main.pop(); }
                // The shed thread triages one connection; a non-cheap
                // request is shed and counted there too.
                _ => {
                    if lane.pop().is_some() {
                        adm.count_shed(Shed::QueueFull);
                        observed_rejects += 1;
                    }
                }
            }
            prop_assert!(adm.queued() <= max_queue);
            prop_assert!(adm.shed_queued() <= shed_lane);
        }
        prop_assert_eq!(counter(&obs, "serve.admission.shed_queue_full_total"), observed_rejects);
    }

    /// Deadline budget: a ticket sheds iff its wait exhausted the
    /// timeout, and an admitted ticket's remaining budget plus its wait
    /// reconstructs the timeout exactly.
    #[test]
    fn deadline_shed_iff_budget_spent(waited_ms in 0u64..3_000) {
        let (adm, obs) = admission(4, 1, 2);
        let timeout = adm.config().request_timeout;
        let waited = Duration::from_millis(waited_ms);
        match adm.admit_waited(waited) {
            Ok(remaining) => {
                prop_assert!(waited < timeout);
                prop_assert_eq!(waited + remaining, timeout);
            }
            Err(shed) => {
                prop_assert_eq!(shed, Shed::DeadlineSpent);
                prop_assert!(waited >= timeout);
                adm.count_shed(shed);
            }
        }
        let shed = counter(&obs, "serve.admission.shed_deadline_total");
        prop_assert_eq!(shed, u64::from(waited >= timeout));
    }

    /// Ops: even = try_begin, odd = release the oldest guard. The gate
    /// never exceeds its limit and drains exactly to zero.
    #[test]
    fn inflight_gauge_returns_to_zero_after_drain(
        max_inflight in 1usize..6,
        ops in prop::collection::vec(0u8..2, 1..200),
    ) {
        let (adm, obs) = admission(4, max_inflight, 2);
        let mut guards = std::collections::VecDeque::new();
        let mut rejected = 0u64;
        for op in ops {
            if op == 0 {
                match adm.try_begin() {
                    Ok(g) => guards.push_back(g),
                    Err(shed) => {
                        prop_assert_eq!(shed, Shed::InflightFull);
                        prop_assert_eq!(guards.len(), max_inflight);
                        adm.count_shed(shed);
                        rejected += 1;
                    }
                }
            } else {
                guards.pop_front();
            }
            prop_assert!(adm.inflight() <= max_inflight);
            prop_assert_eq!(adm.inflight(), guards.len());
        }
        guards.clear();
        prop_assert_eq!(adm.inflight(), 0);
        prop_assert_eq!(gauge(&obs, "serve.admission.inflight"), 0.0);
        prop_assert_eq!(counter(&obs, "serve.admission.shed_inflight_total"), rejected);
    }
}

//! Admission-controlled batching of predict traffic.
//!
//! A [`BatchQueue`] sits in front of an engine and coalesces individual
//! `predict` requests into batches, bounded two ways:
//!
//! * **size** — a batch is released as soon as `max_batch` queries are
//!   waiting (amortizing per-batch overhead), and
//! * **deadline** — a non-full batch is released once its *oldest*
//!   waiting query has aged `max_delay` (bounding tail latency), and
//!
//! with **admission control** on top: once `capacity` queries are
//! queued, new arrivals are rejected immediately instead of growing the
//! queue without bound — under sustained overload, shedding load early
//! keeps the latency of admitted queries bounded.
//!
//! The queue is deliberately clock-free: every operation takes the
//! current time as an explicit `now` parameter (any monotone `f64`
//! timebase — the tests drive it with virtual Poisson arrival times, a
//! server would pass monotonic seconds). That keeps the policy
//! logic deterministic and testable to exact equality, and keeps this
//! module off the workspace's nondeterminism lint.

use crate::error::{Error, Result};
use crate::types::QueryPoint;
use std::collections::VecDeque;

/// Size, deadline and admission bounds for a [`BatchQueue`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPolicy {
    /// Release a batch as soon as this many queries are waiting
    /// (`>= 1`).
    pub max_batch: usize,
    /// Release a non-full batch once its oldest query has waited this
    /// long, in the caller's timebase units (finite, `>= 0`; `0` makes
    /// every query its own immediate batch).
    pub max_delay: f64,
    /// Admission bound: reject arrivals while this many queries are
    /// already queued (`>= max_batch`).
    pub capacity: usize,
}

impl BatchPolicy {
    /// A policy releasing at `max_batch` or after `max_delay`, with the
    /// given queue capacity.
    pub fn new(max_batch: usize, max_delay: f64, capacity: usize) -> Self {
        BatchPolicy {
            max_batch,
            max_delay,
            capacity,
        }
    }

    /// Checks the policy's domains.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for `max_batch == 0`, a
    /// non-finite or negative `max_delay`, or `capacity < max_batch`.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(Error::InvalidConfig {
                message: "max_batch must be at least 1".to_owned(),
            });
        }
        if !self.max_delay.is_finite() || self.max_delay < 0.0 {
            return Err(Error::InvalidConfig {
                message: format!(
                    "max_delay must be finite and non-negative, got {}",
                    self.max_delay
                ),
            });
        }
        if self.capacity < self.max_batch {
            return Err(Error::InvalidConfig {
                message: format!(
                    "capacity {} must be at least max_batch {}",
                    self.capacity, self.max_batch
                ),
            });
        }
        Ok(())
    }
}

/// The admission decision for one offered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The query was queued; the ticket identifies it in the released
    /// [`CoalescedBatch`] (tickets are assigned in arrival order).
    Admitted {
        /// Monotone per-queue sequence number of this query.
        ticket: u64,
    },
    /// The queue was at capacity; the query was shed.
    Rejected {
        /// Queue depth observed at rejection time.
        queue_depth: usize,
    },
}

/// A batch released by the queue: the coalesced queries, their tickets,
/// and the arrival time of the oldest member (for latency accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct CoalescedBatch {
    /// Tickets of the member queries, in arrival order.
    pub tickets: Vec<u64>,
    /// The member queries, in arrival order.
    pub queries: Vec<QueryPoint>,
    /// Arrival times of the member queries, in arrival order.
    pub arrivals: Vec<f64>,
    /// Time at which the queue released this batch.
    pub released_at: f64,
}

/// One waiting query.
#[derive(Debug, Clone)]
struct Pending {
    ticket: u64,
    query: QueryPoint,
    arrived_at: f64,
}

/// Deterministic, clock-free admission-controlled batch coalescer.
///
/// ```
/// use gssl_serve::{Admission, BatchPolicy, BatchQueue, QueryPoint};
/// # fn main() -> Result<(), gssl_serve::Error> {
/// let mut queue = BatchQueue::new(BatchPolicy::new(2, 0.5, 4))?;
/// assert!(matches!(
///     queue.offer(QueryPoint::new(vec![0.1]), 0.0),
///     Admission::Admitted { ticket: 0 }
/// ));
/// // Not full and not stale: nothing to release yet.
/// assert!(queue.pop_ready(0.1).is_none());
/// queue.offer(QueryPoint::new(vec![0.2]), 0.2);
/// // Size bound reached: the batch releases immediately.
/// let batch = queue.pop_ready(0.2).expect("full batch");
/// assert_eq!(batch.tickets, vec![0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchQueue {
    policy: BatchPolicy,
    pending: VecDeque<Pending>,
    next_ticket: u64,
    admitted: u64,
    rejected: u64,
}

impl BatchQueue {
    /// Creates an empty queue under the given policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the policy fails
    /// [`BatchPolicy::validate`].
    pub fn new(policy: BatchPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(BatchQueue {
            policy,
            pending: VecDeque::new(),
            next_ticket: 0,
            admitted: 0,
            rejected: 0,
        })
    }

    /// The queue's policy.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Offers a query arriving at time `now`. Admission is immediate:
    /// either the query joins the queue (ticket returned) or it is shed
    /// because `capacity` queries are already waiting.
    pub fn offer(&mut self, query: QueryPoint, now: f64) -> Admission {
        if self.pending.len() >= self.policy.capacity {
            self.rejected += 1;
            return Admission::Rejected {
                queue_depth: self.pending.len(),
            };
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.admitted += 1;
        self.pending.push_back(Pending {
            ticket,
            query,
            arrived_at: now,
        });
        Admission::Admitted { ticket }
    }

    /// Whether a batch would be released at time `now`: the size bound is
    /// met, or `now` has reached [`BatchQueue::next_deadline`].
    pub fn ready(&self, now: f64) -> bool {
        if self.pending.len() >= self.policy.max_batch {
            return true;
        }
        // Compared against the deadline itself, not the age
        // `now - arrived_at`, whose rounding can fall short of `max_delay`
        // at the deadline instant.
        self.next_deadline().is_some_and(|deadline| now >= deadline)
    }

    /// The earliest future time at which the deadline bound alone would
    /// release the currently queued work (`None` when the queue is
    /// empty). Lets an event loop sleep exactly until the next flush.
    pub fn next_deadline(&self) -> Option<f64> {
        self.pending
            .front()
            .map(|oldest| oldest.arrived_at + self.policy.max_delay)
    }

    /// Releases the next batch if one is [`BatchQueue::ready`] at `now`:
    /// up to `max_batch` queries in arrival order.
    pub fn pop_ready(&mut self, now: f64) -> Option<CoalescedBatch> {
        if !self.ready(now) {
            return None;
        }
        self.release(now)
    }

    /// Unconditionally releases up to `max_batch` queued queries (used to
    /// drain the queue at end of stream). `None` when empty.
    pub fn flush(&mut self, now: f64) -> Option<CoalescedBatch> {
        self.release(now)
    }

    fn release(&mut self, now: f64) -> Option<CoalescedBatch> {
        if self.pending.is_empty() {
            return None;
        }
        let take = self.pending.len().min(self.policy.max_batch);
        let mut tickets = Vec::with_capacity(take);
        let mut queries = Vec::with_capacity(take);
        let mut arrivals = Vec::with_capacity(take);
        for _ in 0..take {
            // `take <= len`, so the queue cannot run dry mid-loop.
            let Some(p) = self.pending.pop_front() else {
                break;
            };
            tickets.push(p.ticket);
            queries.push(p.query);
            arrivals.push(p.arrived_at);
        }
        Some(CoalescedBatch {
            tickets,
            queries,
            arrivals,
            released_at: now,
        })
    }

    /// Number of queries currently waiting.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no queries are waiting.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total queries admitted since construction.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total queries shed by admission control since construction.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(x: f64) -> QueryPoint {
        QueryPoint::new(vec![x])
    }

    #[test]
    fn policy_validation() {
        assert!(BatchPolicy::new(0, 1.0, 4).validate().is_err());
        assert!(BatchPolicy::new(2, f64::NAN, 4).validate().is_err());
        assert!(BatchPolicy::new(2, -1.0, 4).validate().is_err());
        assert!(BatchPolicy::new(4, 1.0, 2).validate().is_err());
        assert!(BatchPolicy::new(4, 0.0, 4).validate().is_ok());
        assert!(BatchQueue::new(BatchPolicy::new(0, 1.0, 4)).is_err());
    }

    #[test]
    fn size_bound_releases_full_batches() {
        let mut queue = BatchQueue::new(BatchPolicy::new(3, 10.0, 9)).unwrap();
        for i in 0..5 {
            assert!(matches!(
                queue.offer(q(i as f64), 0.1 * i as f64),
                Admission::Admitted { .. }
            ));
        }
        let batch = queue.pop_ready(0.4).expect("size bound met");
        assert_eq!(batch.tickets, vec![0, 1, 2]);
        assert_eq!(batch.arrivals, vec![0.0, 0.1, 0.2]);
        assert_eq!(batch.released_at, 0.4);
        // Two remain: below the size bound and not yet stale.
        assert_eq!(queue.len(), 2);
        assert!(queue.pop_ready(0.4).is_none());
    }

    #[test]
    fn deadline_bound_releases_stale_batches() {
        let mut queue = BatchQueue::new(BatchPolicy::new(8, 0.5, 16)).unwrap();
        queue.offer(q(1.0), 1.0);
        queue.offer(q(2.0), 1.2);
        assert!(!queue.ready(1.4));
        assert_eq!(queue.next_deadline(), Some(1.5));
        assert!(queue.ready(1.5));
        let batch = queue.pop_ready(1.5).expect("oldest aged out");
        assert_eq!(batch.tickets, vec![0, 1]);
        assert!(queue.is_empty());
        assert_eq!(queue.next_deadline(), None);

        // 0.7 + 0.1 rounds down to 0.7999999999999999, where the age
        // `now - 0.7` is still short of 0.1: ready at the deadline anyway.
        let mut queue = BatchQueue::new(BatchPolicy::new(8, 0.1, 16)).unwrap();
        queue.offer(q(3.0), 0.7);
        let deadline = queue.next_deadline().expect("one query queued");
        assert!(!queue.ready(f64::from_bits(deadline.to_bits() - 1)));
        let batch = queue.pop_ready(deadline).expect("ready at its deadline");
        assert_eq!(batch.tickets, vec![0]);
    }

    #[test]
    fn admission_control_sheds_overload() {
        let mut queue = BatchQueue::new(BatchPolicy::new(2, 10.0, 3)).unwrap();
        for i in 0..3 {
            assert!(matches!(
                queue.offer(q(i as f64), 0.0),
                Admission::Admitted { .. }
            ));
        }
        assert_eq!(
            queue.offer(q(9.0), 0.0),
            Admission::Rejected { queue_depth: 3 }
        );
        assert_eq!(queue.admitted(), 3);
        assert_eq!(queue.rejected(), 1);
        // Draining a batch frees capacity again.
        let batch = queue.pop_ready(0.0).unwrap();
        assert_eq!(batch.tickets.len(), 2);
        assert!(matches!(
            queue.offer(q(4.0), 0.1),
            Admission::Admitted { .. }
        ));
    }

    #[test]
    fn flush_drains_remainders_in_order() {
        let mut queue = BatchQueue::new(BatchPolicy::new(4, 100.0, 8)).unwrap();
        for i in 0..6 {
            queue.offer(q(i as f64), i as f64);
        }
        let full = queue.pop_ready(6.0).unwrap();
        assert_eq!(full.tickets, vec![0, 1, 2, 3]);
        // The remainder is neither full nor stale, but flush takes it.
        assert!(queue.pop_ready(6.0).is_none());
        let rest = queue.flush(6.0).unwrap();
        assert_eq!(rest.tickets, vec![4, 5]);
        assert!(queue.flush(6.0).is_none());
    }

    #[test]
    fn zero_delay_makes_every_query_immediate() {
        let mut queue = BatchQueue::new(BatchPolicy::new(8, 0.0, 8)).unwrap();
        queue.offer(q(1.0), 2.0);
        assert!(queue.ready(2.0));
        assert_eq!(queue.pop_ready(2.0).unwrap().tickets, vec![0]);
    }

    /// One server in virtual time: each batch takes it `service` time
    /// units, and it takes no batch while busy.
    struct Server {
        service: f64,
        free_at: f64,
        batches: Vec<CoalescedBatch>,
    }

    impl Server {
        /// Takes every batch the queue releases from `now` until `until`
        /// (`until` itself only when `inclusive`): as soon as the server
        /// is free if the queue is ready then, else at the deadline.
        fn take_until(&mut self, queue: &mut BatchQueue, now: f64, until: f64, inclusive: bool) {
            loop {
                let free = self.free_at.max(now);
                let at = if queue.ready(free) {
                    free
                } else if let Some(deadline) = queue.next_deadline() {
                    deadline
                } else {
                    return;
                };
                if at > until || (!inclusive && at >= until) {
                    return;
                }
                let batch = queue.pop_ready(at).expect("ready at its release time");
                self.free_at = at + self.service;
                self.batches.push(batch);
            }
        }

        /// Flushes what is still queued once arrivals stop at `end`.
        fn drain(&mut self, queue: &mut BatchQueue, end: f64) {
            let mut now = self.free_at.max(end);
            while let Some(batch) = queue.flush(now) {
                self.batches.push(batch);
                now += self.service;
            }
            self.free_at = now;
        }
    }

    #[test]
    fn seeded_poisson_traffic_is_conserved_while_shedding() {
        use rand::dist::PoissonProcess;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // 1 000 arrivals per time unit. Each server below handles fewer,
        // so the queue fills and sheds, except in the last case.
        let rate = 1_000.0;
        let horizon = 0.5;
        let cases = [
            (BatchPolicy::new(8, 0.004, 16), 0.012, true),
            (BatchPolicy::new(4, 0.002, 6), 0.006, true),
            (BatchPolicy::new(1, 0.0, 1), 0.002, true),
            (BatchPolicy::new(16, 0.01, 64), 0.03, true),
            (BatchPolicy::new(8, 0.004, 16), 0.001, false),
        ];
        for (policy, service, sheds) in cases {
            for seed in [1, 7, 42, 7919] {
                let context = format!("{policy:?}, service {service}, seed {seed}");
                let mut rng = StdRng::seed_from_u64(seed);
                let arrivals = PoissonProcess::new(rate).arrivals_until(&mut rng, horizon);
                let mut queue = BatchQueue::new(policy.clone()).unwrap();
                let mut server = Server {
                    service,
                    free_at: 0.0,
                    batches: Vec::new(),
                };
                // The arrival index behind each ticket, in ticket order.
                let mut admitted: Vec<usize> = Vec::new();
                let mut rejected = 0u64;
                let mut previous = 0.0;
                for (k, &t) in arrivals.iter().enumerate() {
                    // Deadline releases before the arrival, then the
                    // arrival, then size releases at its instant.
                    server.take_until(&mut queue, previous, t, false);
                    match queue.offer(q(k as f64), t) {
                        Admission::Admitted { ticket } => {
                            assert_eq!(ticket, admitted.len() as u64, "{context}");
                            admitted.push(k);
                        }
                        Admission::Rejected { queue_depth } => {
                            assert_eq!(queue_depth, policy.capacity, "{context}");
                            rejected += 1;
                        }
                    }
                    server.take_until(&mut queue, t, t, true);
                    previous = t;
                }
                server.drain(&mut queue, horizon);

                assert_eq!(
                    admitted.len() as u64 + rejected,
                    arrivals.len() as u64,
                    "{context}"
                );
                assert_eq!(queue.admitted(), admitted.len() as u64, "{context}");
                assert_eq!(queue.rejected(), rejected, "{context}");
                assert_eq!(rejected > 0, sheds, "{context}: {rejected} rejected");
                assert!(queue.is_empty(), "{context}");
                // Every admitted ticket is released once, in ticket order.
                let released: Vec<u64> = server
                    .batches
                    .iter()
                    .flat_map(|batch| batch.tickets.iter().copied())
                    .collect();
                assert_eq!(released, (0..admitted.len() as u64).collect::<Vec<_>>());
                for batch in &server.batches {
                    assert!(!batch.tickets.is_empty(), "{context}");
                    assert!(batch.tickets.len() <= policy.max_batch, "{context}");
                    let members = batch.queries.iter().zip(&batch.arrivals);
                    for (&ticket, (query, &arrival)) in batch.tickets.iter().zip(members) {
                        let k = admitted[ticket as usize];
                        assert_eq!(query.coords()[0].to_bits(), (k as f64).to_bits());
                        assert_eq!(arrival.to_bits(), arrivals[k].to_bits());
                        assert!(batch.released_at >= arrival, "{context}");
                    }
                }
            }
        }
    }
}

//! The session's completion queue: running jobs by finish time.

use std::cmp::Reverse;

use lumos_core::Timestamp;

/// Buckets of a [`FinishQueue`]: one for the base itself, one per bit in
/// which a finish can first differ from it.
const BUCKETS: usize = 1 + 64;

/// The bucket of a finish `t` at or after `base`: 0 at the base itself,
/// otherwise one past the highest bit in which the two differ.
fn bucket(base: Timestamp, t: Timestamp) -> usize {
    (u64::BITS - ((t ^ base) as u64).leading_zeros()) as usize
}

/// Running jobs as `(finish, row)`, popped in that order: equal finishes
/// leave in row order, which the order of events, of the saved mark and
/// of tenant and metrics accounting depends on.
///
/// A monotone radix heap. No finish is earlier than the clock, and the
/// clock never earlier than the last finish popped, so every push lies at
/// or after `base`, the finish the queue last settled on. Bucket `b > 0`
/// holds the finishes that first differ from `base` in bit `b − 1`, all
/// of them earlier than any in a later bucket; bucket 0 holds those at
/// `base`, in descending row order so that the smallest row pops off its
/// end. A push files a job in O(1). A pop that finds bucket 0 empty
/// settles the first non-empty bucket onto its smallest finish, which
/// moves each job there into a lower bucket: a job moves at most 64 times
/// in its life, and in practice two or three.
///
/// The base never passes the clock. A peek reads the smallest finish,
/// kept as it changes, and [`Self::pop_due`] settles only onto a finish
/// due at its `now`. A base past `now` would file a later push of a
/// finish before it in the wrong bucket.
#[derive(Debug, Clone)]
pub(crate) struct FinishQueue {
    /// The finish the queue last settled on; no queued finish is earlier.
    base: Timestamp,
    /// The smallest queued finish; meaningless while the queue is empty.
    min: Timestamp,
    /// Jobs queued, over all buckets.
    len: usize,
    buckets: [Vec<(Timestamp, usize)>; BUCKETS],
}

impl FinishQueue {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        Self {
            base: Timestamp::MIN,
            min: Timestamp::MIN,
            len: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Jobs queued.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The rows queued, in no particular order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.buckets.iter().flatten().map(|&(_, row)| row)
    }

    /// Queues the job at `row`, finishing at `t` — no earlier than the
    /// clock.
    pub(crate) fn push(&mut self, t: Timestamp, row: usize) {
        debug_assert!(
            t >= self.base,
            "finish {t} before the queue's base {}",
            self.base
        );
        if self.len == 0 || t < self.min {
            self.min = t;
        }
        self.len += 1;
        match bucket(self.base, t) {
            0 => {
                let at_base = &mut self.buckets[0];
                let at = at_base.partition_point(|&(_, r)| r > row);
                at_base.insert(at, (t, row));
            }
            b => self.buckets[b].push((t, row)),
        }
    }

    /// The earliest finish queued.
    pub(crate) fn peek(&self) -> Option<Timestamp> {
        (self.len > 0).then_some(self.min)
    }

    /// Pops the job with the smallest `(finish, row)` if it finishes at
    /// or before `now`.
    pub(crate) fn pop_due(&mut self, now: Timestamp) -> Option<(Timestamp, usize)> {
        if self.len == 0 || self.min > now {
            return None;
        }
        if self.buckets[0].is_empty() {
            self.settle();
        }
        let popped = self.buckets[0].pop();
        self.len -= 1;
        if self.buckets[0].is_empty() && self.len > 0 {
            self.min = self.buckets[1..]
                .iter()
                .find(|b| !b.is_empty())
                .and_then(|b| b.iter().map(|&(t, _)| t).min())
                .expect("a non-empty queue has a non-empty bucket");
        }
        popped
    }

    /// Moves the base to the smallest finish (due: the caller checked)
    /// and refiles the first non-empty bucket, which holds it, below.
    fn settle(&mut self) {
        let from = (1..BUCKETS)
            .find(|&b| !self.buckets[b].is_empty())
            .expect("a non-empty queue has a non-empty bucket");
        self.base = self.min;
        let mut moving = std::mem::take(&mut self.buckets[from]);
        for (t, row) in moving.drain(..) {
            self.buckets[bucket(self.base, t)].push((t, row));
        }
        self.buckets[from] = moving;
        self.buckets[0].sort_unstable_by_key(|&(_, row)| Reverse(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// The queue and the heap it replaced, driven in lockstep: every peek
    /// and every pop must agree.
    struct Lockstep {
        radix: FinishQueue,
        heap: BinaryHeap<Reverse<(Timestamp, usize)>>,
    }

    impl Lockstep {
        fn new() -> Self {
            Self {
                radix: FinishQueue::new(),
                heap: BinaryHeap::new(),
            }
        }

        fn push(&mut self, t: Timestamp, row: usize) {
            self.radix.push(t, row);
            self.heap.push(Reverse((t, row)));
            self.check_peek();
        }

        fn check_peek(&self) {
            let expect = self.heap.peek().map(|&Reverse((t, _))| t);
            assert_eq!(self.radix.peek(), expect);
            assert_eq!(self.radix.len(), self.heap.len());
        }

        /// Every job due at `now`, as the session's completion loop pops
        /// them.
        fn pop_all_due(&mut self, now: Timestamp) -> Vec<(Timestamp, usize)> {
            let mut popped = Vec::new();
            loop {
                let expect = match self.heap.peek() {
                    Some(&Reverse(due)) if due.0 <= now => {
                        self.heap.pop();
                        Some(due)
                    }
                    _ => None,
                };
                assert_eq!(self.radix.pop_due(now), expect, "pop_due({now})");
                self.check_peek();
                match expect {
                    Some(due) => popped.push(due),
                    None => return popped,
                }
            }
        }
    }

    #[test]
    fn equal_finishes_pop_in_row_order_whichever_way_they_arrived() {
        let mut q = Lockstep::new();
        for row in [7, 3, 9, 1] {
            q.push(100, row);
        }
        q.push(50, 8);
        assert_eq!(q.pop_all_due(50), [(50, 8)]);
        // Zero-length jobs started at the base join those already there.
        q.push(50, 4);
        q.push(50, 2);
        assert_eq!(q.pop_all_due(50), [(50, 2), (50, 4)]);
        assert_eq!(q.pop_all_due(99), []);
        // Pushes at the base while it still holds jobs go between them.
        assert_eq!(q.radix.pop_due(100), Some((100, 1)));
        q.heap.pop();
        q.push(100, 5);
        q.push(100, 2);
        q.push(100, 11);
        assert_eq!(
            q.pop_all_due(100),
            [(100, 2), (100, 3), (100, 5), (100, 7), (100, 9), (100, 11)]
        );
        assert_eq!(q.radix.peek(), None);
    }

    #[test]
    fn a_pop_before_the_smallest_finish_leaves_the_base_at_the_clock() {
        let mut q = Lockstep::new();
        q.push(0, 0);
        assert_eq!(q.pop_all_due(0), [(0, 0)]);
        q.push(1_000, 1);
        // Nothing is due at 10: the base stays at 0, and a finish pushed
        // between the clock and the smallest one still pops first.
        assert_eq!(q.pop_all_due(10), []);
        assert_eq!(q.radix.base, 0);
        q.push(20, 2);
        q.push(999, 3);
        assert_eq!(q.pop_all_due(2_000), [(20, 2), (999, 3), (1_000, 1)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Monotone pushes from an advancing clock — ties, zero-length
        /// jobs finishing at the clock itself, pops at instants before
        /// the smallest finish — after a restore's pushes in table
        /// order: the queue pops what the heap pops.
        #[test]
        fn the_radix_queue_pops_what_a_binary_heap_pops(
            restored in prop::collection::vec(0i64..5_000, 0..80),
            ops in prop::collection::vec(
                (0u8..5, prop_oneof![Just(0i64), 0i64..8, 0i64..100_000]),
                1..400,
            ),
        ) {
            let mut q = Lockstep::new();
            let mut rows = 0..;
            // A restore pushes the running jobs in table order.
            for t in restored {
                q.push(t, rows.next().unwrap());
            }
            let mut now = 0;
            for (kind, d) in ops {
                match kind {
                    // A start: a finish at or after the clock.
                    0 | 1 => q.push(now + d, rows.next().unwrap()),
                    // The clock moves on, to the next finish at most, as
                    // the event loop moves it.
                    2 => {
                        let next = q.radix.peek().unwrap_or(Timestamp::MAX);
                        now = (now + d).min(next);
                        q.pop_all_due(now);
                    }
                    // The clock jumps, past finishes too: all of them
                    // leave before the next start.
                    3 => {
                        now += d;
                        q.pop_all_due(now);
                    }
                    // Every job due at the clock leaves, twice over.
                    _ => {
                        q.pop_all_due(now);
                        prop_assert!(q.pop_all_due(now).is_empty());
                    }
                }
            }
            q.pop_all_due(Timestamp::MAX);
            prop_assert_eq!(q.radix.len(), 0);
        }
    }
}

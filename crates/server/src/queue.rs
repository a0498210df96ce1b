//! The bounded request queue: the admission-control point.
//!
//! The producer (the reactor thread) *never blocks*: `try_push` either
//! enqueues or returns the item back immediately — as
//! [`PushError::Full`] when the lane holds `capacity` items (the caller
//! answers a retryable `Busy`), or as [`PushError::Closed`] during
//! shutdown (the caller answers a *terminal* error, so clients don't
//! retry-storm a dying server). Consumers (dispatchers) block in
//! `pop_batch` and drain up to `max` items per wakeup, which is what
//! turns queued singles into micro-batches.
//!
//! [`FairQueue`] keeps one bounded lane per [`Domain`] with
//! weighted-round-robin batch formation. A burst of slow-domain
//! queries (graph GED) fills *its own* lane and draws per-lane `Busy`
//! while the other domains' lanes keep admitting. The lane shares are
//! fixed at construction and only decide anything when more than `max`
//! items are queued: then every popped micro-batch contains each
//! backlogged domain in proportion to its share — no head-of-line
//! blocking behind a global FIFO. With at most `max` queued, a pop
//! takes everything.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use pigeonring_telemetry::Gauge;

use crate::wire::Domain;

/// Locks `m`, recovering the data on poison. Every mutex in this crate
/// guards state no mid-panic unwind can half-apply (one `VecDeque` or
/// `Vec` op, a flag write, a ring of owned entries), so serving on the
/// recovered state is always sound — and the reactor, a dispatcher or
/// the Stats snapshot must never abort because another thread died
/// while holding the lock.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Why `try_push` refused an item; the item rides back in either case.
///
/// `Full` is *retryable* (the queue is at capacity right now); `Closed`
/// is *terminal* (the queue is shutting down and will never admit
/// again). Conflating the two turns shutdown into a retry storm, which
/// is exactly the bug this distinction fixes.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The lane is at capacity; the caller may retry later.
    Full(T),
    /// The queue is closed; no future push will ever succeed.
    Closed(T),
}

impl<T> PushError<T> {
    /// The rejected item, regardless of the reason.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

/// Number of lanes in a [`FairQueue`] — one per [`Domain`], in
/// [`Domain::ALL`] order.
pub const NUM_LANES: usize = Domain::ALL.len();

struct FairState<T> {
    lanes: [VecDeque<T>; NUM_LANES],
    closed: bool,
    /// Next lane the weighted-round-robin sweep starts from, so no lane
    /// is systematically favored across batches.
    cursor: usize,
}

impl<T> FairState<T> {
    fn total(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// A bounded multi-lane queue: one FIFO lane per [`Domain`], weighted
/// round-robin batch formation, per-lane admission control.
///
/// Supports multiple concurrent consumers (the server runs several
/// dispatcher threads); each [`FairQueue::pop_batch`] call atomically
/// assembles one mixed-domain batch.
pub struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    not_empty: Condvar,
    lane_capacity: usize,
    /// Per-sweep lane shares, each ≥ 1.
    weights: [usize; NUM_LANES],
    /// Optional per-lane depth gauges, maintained at push/pop so depth
    /// can be read without taking the queue mutex.
    depth_gauges: OnceLock<[Arc<Gauge>; NUM_LANES]>,
}

impl<T> FairQueue<T> {
    /// A queue admitting at most `lane_capacity.max(1)` buffered items
    /// *per lane*. `weights[i]` (clamped to ≥ 1) is how many items lane
    /// `i` — indexed in [`Domain::ALL`] order — contributes per
    /// round-robin sweep of [`FairQueue::pop_batch`], for the queue's
    /// whole life.
    pub fn new(lane_capacity: usize, weights: [usize; NUM_LANES]) -> Self {
        FairQueue {
            state: Mutex::new(FairState {
                lanes: Default::default(),
                closed: false,
                cursor: 0,
            }),
            not_empty: Condvar::new(),
            lane_capacity: lane_capacity.max(1),
            weights: weights.map(|w| w.max(1)),
            depth_gauges: OnceLock::new(),
        }
    }

    /// Attaches one depth gauge per lane ([`Domain::ALL`] order);
    /// thereafter every successful push increments and every pop
    /// decrements the owning lane's gauge. First attach wins.
    pub fn attach_depth_gauges(&self, gauges: [Arc<Gauge>; NUM_LANES]) {
        let _ = self.depth_gauges.set(gauges);
    }

    /// The per-lane admission-control depth.
    pub fn lane_capacity(&self) -> usize {
        self.lane_capacity
    }

    /// Items currently buffered across all lanes (racy outside tests).
    pub fn len(&self) -> usize {
        lock_recover(&self.state).total()
    }

    /// Whether every lane is currently empty (racy outside tests).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items currently buffered in `domain`'s lane (racy outside tests).
    #[expect(
        clippy::indexing_slicing,
        reason = "lane_of is always < NUM_LANES, the array length"
    )]
    pub fn lane_len(&self, domain: Domain) -> usize {
        lock_recover(&self.state).lanes[lane_of(domain)].len()
    }

    /// Attempts to enqueue into `domain`'s lane. Returns immediately —
    /// never blocking — with [`PushError::Full`] when *that lane* is at
    /// capacity (the other lanes are unaffected: a graph burst cannot
    /// consume Hamming's admission budget) or [`PushError::Closed`]
    /// after [`FairQueue::close`].
    pub fn try_push(&self, domain: Domain, item: T) -> Result<(), PushError<T>> {
        let mut state = lock_recover(&self.state);
        if state.closed {
            return Err(PushError::Closed(item));
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "lane_of is always < NUM_LANES, the array length"
        )]
        let lane = &mut state.lanes[lane_of(domain)];
        if lane.len() >= self.lane_capacity {
            return Err(PushError::Full(item));
        }
        lane.push_back(item);
        drop(state);
        if let Some(gauges) = self.depth_gauges.get() {
            #[expect(
                clippy::indexing_slicing,
                reason = "lane_of is always < NUM_LANES, the array length"
            )]
            gauges[lane_of(domain)].inc();
        }
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until any lane has an item (or the queue is closed), then
    /// assembles one batch of up to `max` items by weighted round-robin:
    /// sweeping lanes from the rotating cursor, each non-empty lane
    /// contributes up to its weight per sweep, until `max` is reached or
    /// every lane is drained. Within a lane order stays FIFO; across
    /// lanes no backlog can starve another lane. Returns `false` when
    /// the queue is closed *and* fully drained.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        out.clear();
        let max = max.max(1);
        let mut state = lock_recover(&self.state);
        loop {
            if state.total() > 0 {
                let mut taken = [0usize; NUM_LANES];
                #[expect(
                    clippy::indexing_slicing,
                    reason = "li is cursor % NUM_LANES, in bounds"
                )]
                while out.len() < max && state.total() > 0 {
                    let li = state.cursor % NUM_LANES;
                    state.cursor = state.cursor.wrapping_add(1);
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "li is cursor % NUM_LANES, in bounds for all three arrays"
                    )]
                    let quota = self.weights[li].min(max - out.len());
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "li is cursor % NUM_LANES, in bounds"
                    )]
                    let lane = &mut state.lanes[li];
                    let take = quota.min(lane.len());
                    out.extend(lane.drain(..take));
                    taken[li] += take;
                }
                drop(state);
                if let Some(gauges) = self.depth_gauges.get() {
                    for (li, &n) in taken.iter().enumerate() {
                        if n > 0 {
                            #[expect(
                                clippy::indexing_slicing,
                                reason = "li enumerates a NUM_LANES array"
                            )]
                            gauges[li].sub(n as i64);
                        }
                    }
                }
                return true;
            }
            if state.closed {
                return false;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes every lane: future pushes fail with [`PushError::Closed`],
    /// and consumers unblock once the remaining items are drained.
    pub fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.not_empty.notify_all();
    }
}

/// Lane index for a domain ([`Domain::ALL`] order, which is the
/// enum's declaration order).
pub fn lane_of(domain: Domain) -> usize {
    domain as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_error_returns_the_item() {
        assert_eq!(PushError::Full(7).into_inner(), 7);
        assert_eq!(PushError::Closed(9).into_inner(), 9);
    }

    // ------------------------------------------------------- FairQueue

    /// `(domain, tag)` items for lane tests.
    fn fq(lane_capacity: usize) -> FairQueue<(Domain, u32)> {
        FairQueue::new(lane_capacity, [1, 1, 1, 1])
    }

    #[test]
    fn capacity_clamps_to_one() {
        let q = fq(0);
        assert_eq!(q.lane_capacity(), 1);
        q.try_push(Domain::Set, (Domain::Set, 1)).expect("room");
        assert!(matches!(
            q.try_push(Domain::Set, (Domain::Set, 2)),
            Err(PushError::Full(_))
        ));
        assert!(!q.is_empty());
    }

    #[test]
    fn fair_admission_is_per_lane() {
        let q = fq(2);
        // Fill the graph lane.
        q.try_push(Domain::Graph, (Domain::Graph, 0)).expect("room");
        q.try_push(Domain::Graph, (Domain::Graph, 1)).expect("room");
        assert!(
            matches!(
                q.try_push(Domain::Graph, (Domain::Graph, 2)),
                Err(PushError::Full(_))
            ),
            "graph lane at capacity"
        );
        // Every other lane still admits: the burst is contained.
        for d in [Domain::Hamming, Domain::Edit, Domain::Set] {
            q.try_push(d, (d, 0))
                .expect("other lanes unaffected by the graph burst");
        }
        assert_eq!(q.lane_len(Domain::Graph), 2);
        assert_eq!(q.lane_len(Domain::Hamming), 1);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn fair_pop_interleaves_a_backlogged_lane() {
        let q = fq(16);
        // 8 graph items queued first, then 2 hamming items.
        for i in 0..8 {
            q.try_push(Domain::Graph, (Domain::Graph, i)).expect("room");
        }
        for i in 0..2 {
            q.try_push(Domain::Hamming, (Domain::Hamming, i))
                .expect("room");
        }
        // A batch of 4 with unit weights must contain hamming items even
        // though graph queued strictly earlier — no FIFO head-of-line.
        let mut out = Vec::new();
        assert!(q.pop_batch(4, &mut out));
        assert_eq!(out.len(), 4);
        let hamming = out.iter().filter(|(d, _)| *d == Domain::Hamming).count();
        assert!(
            hamming >= 1,
            "WRR batch must include the backlogged hamming lane: {out:?}"
        );
        // Lane order stays FIFO: graph items appear in insertion order.
        let graph_tags: Vec<u32> = out
            .iter()
            .filter(|(d, _)| *d == Domain::Graph)
            .map(|&(_, t)| t)
            .collect();
        assert!(graph_tags.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fair_weights_set_the_mix() {
        // Weights [3, 1, 1, 1]: a sweep takes 3 hamming per 1 of each
        // other lane.
        let q: FairQueue<(Domain, u32)> = FairQueue::new(16, [3, 1, 1, 1]);
        for i in 0..6 {
            q.try_push(Domain::Hamming, (Domain::Hamming, i))
                .expect("room");
            q.try_push(Domain::Graph, (Domain::Graph, i)).expect("room");
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(4, &mut out));
        let hamming = out.iter().filter(|(d, _)| *d == Domain::Hamming).count();
        let graph = out.iter().filter(|(d, _)| *d == Domain::Graph).count();
        assert_eq!((hamming, graph), (3, 1), "weighted shares: {out:?}");

        // With at most `max` items queued the shares decide nothing: a
        // pop takes everything, whatever the weights (zero clamps to 1).
        for weights in [[1, 1, 1, 1], [8, 4, 8, 2], [0, 1, 0, 9]] {
            for max in [10, 16] {
                let q: FairQueue<(Domain, u32)> = FairQueue::new(16, weights);
                for (i, d) in Domain::ALL.into_iter().cycle().take(10).enumerate() {
                    q.try_push(d, (d, i as u32)).expect("room");
                }
                let mut out = Vec::new();
                assert!(q.pop_batch(max, &mut out));
                assert_eq!(out.len(), 10, "weights {weights:?}, max {max}: {out:?}");
                assert!(q.is_empty());
            }
        }
    }

    #[test]
    fn fair_pop_drains_everything_across_batches() {
        let q = fq(64);
        let mut pushed = 0u32;
        for d in Domain::ALL {
            for _ in 0..5 {
                q.try_push(d, (d, pushed)).expect("room");
                pushed += 1;
            }
        }
        q.close();
        let mut seen = Vec::new();
        let mut out = Vec::new();
        while q.pop_batch(3, &mut out) {
            seen.extend(out.iter().map(|&(_, t)| t));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..pushed).collect::<Vec<_>>());
    }

    #[test]
    fn fair_close_is_terminal_and_unblocks_consumers() {
        let q = Arc::new(fq(4));
        q.try_push(Domain::Set, (Domain::Set, 1)).expect("room");
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut seen = 0;
                while q.pop_batch(4, &mut out) {
                    seen += out.len();
                }
                seen
            })
        };
        q.close();
        assert_eq!(consumer.join().expect("consumer exits"), 1);
        assert!(matches!(
            q.try_push(Domain::Set, (Domain::Set, 2)),
            Err(PushError::Closed(_))
        ));
    }

    #[test]
    fn fair_depth_gauges_track_push_and_pop() {
        let q = fq(8);
        let gauges: [Arc<Gauge>; NUM_LANES] = std::array::from_fn(|_| Arc::new(Gauge::new()));
        q.attach_depth_gauges(gauges.clone());
        for i in 0..3 {
            q.try_push(Domain::Graph, (Domain::Graph, i)).expect("room");
        }
        q.try_push(Domain::Edit, (Domain::Edit, 0)).expect("room");
        let read = |d: Domain| gauges[lane_of(d)].get();
        assert_eq!(read(Domain::Graph), 3);
        assert_eq!(read(Domain::Edit), 1);
        assert_eq!(read(Domain::Hamming), 0);
        let mut out = Vec::new();
        assert!(q.pop_batch(16, &mut out));
        assert_eq!(out.len(), 4);
        for d in Domain::ALL {
            assert_eq!(read(d), 0, "{d} lane drained");
        }
    }

    #[test]
    fn fair_cursor_rotates_between_batches() {
        // With every lane loaded and batch = 1, consecutive pops must
        // visit different lanes (the cursor advances), not hammer lane 0.
        let q = fq(8);
        for d in Domain::ALL {
            for i in 0..4 {
                q.try_push(d, (d, i)).expect("room");
            }
        }
        let mut out = Vec::new();
        let mut first_domains = Vec::new();
        for _ in 0..4 {
            assert!(q.pop_batch(1, &mut out));
            first_domains.push(out[0].0);
        }
        first_domains.sort_by_key(|d| lane_of(*d));
        assert_eq!(
            first_domains,
            Domain::ALL.to_vec(),
            "four unit batches visit all four lanes"
        );
    }
}

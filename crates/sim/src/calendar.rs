//! An exact calendar (bucket) priority queue for the event loop.
//!
//! The simulator's future-event set is small (a handful of pending
//! arrivals, deliveries and timers) but churns at every event, and the
//! entries carry their full key ordering `(time, actor-rank, seq)`. A
//! binary heap pays `O(log n)` sift-downs with a large element memcpy per
//! operation; the calendar queue below pays an `O(1)` bucket append per
//! push and a short bucket scan per pop, sized so the average bucket
//! holds about one entry (Brown's calendar queue, CACM 1988).
//!
//! Unlike textbook calendar queues used for *approximate* event ordering,
//! this one is exact: `pop` always returns the minimum of the full
//! lexicographic key `(time, rank, seq)`, reproducing bit for bit the
//! order the previous `BinaryHeap<Scheduled>` implementation produced
//! (ties broken by actor rank, then FIFO sequence). The sweep ledger
//! digests pinned in `tests/perf_digests.rs` hold across the swap.
//!
//! The queue is tuned to the simulator's timer distribution: bucket
//! width tracks the mean spacing of resident events (arrivals about one
//! mean inter-arrival apart, deliveries a latency ahead, ARQ/handoff
//! timers a few widths out), and far-future outliers (degradation
//! deadlines, reordered ghosts) are caught by the direct-search fallback
//! after one empty lap instead of growing the bucket array.

/// Strict "earlier than" on a bare `(time, rank, seq)` key triple — the
/// same total order the queue applies to resident entries. Public
/// so the simulator can rank staged (not-yet-queued) events against the
/// queue's [`peek_key`](CalendarQueue::peek_key) under the identical order.
pub fn key_lt(a: (f64, u8, u64), b: (f64, u8, u64)) -> bool {
    a.0.total_cmp(&b.0)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
        .is_lt()
}

/// One scheduled entry: the key triple plus the payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: f64,
    rank: u8,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    /// Strict "earlier than" on the `(time, rank, seq)` key. Times are
    /// finite by construction (the simulator asserts its configs), so
    /// `total_cmp` agrees with the IEEE partial order the heap used.
    fn before(&self, other: &Self) -> bool {
        self.at
            .total_cmp(&other.at)
            .then_with(|| self.rank.cmp(&other.rank))
            .then_with(|| self.seq.cmp(&other.seq))
            .is_lt()
    }
}

/// An exact min-priority queue over `(time, actor-rank, seq)` keys,
/// implemented as a calendar of time buckets.
///
/// `push` appends to the bucket covering the entry's time; `pop` scans
/// forward from the cursor bucket, one bucket-width "day" at a time, and
/// falls back to a direct minimum search after one full empty lap (the
/// far-future-outlier case). The queue resizes itself to keep about one
/// resident entry per bucket and re-derives the bucket width from the
/// observed event-time span at each resize.
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// Power-of-two bucket ring.
    buckets: Vec<Vec<Entry<T>>>,
    /// `buckets.len() - 1`, for masking bucket indices.
    mask: usize,
    /// Bucket width in simulation-time units (always positive, finite).
    width: f64,
    /// `1.0 / width`, cached so the per-push bucket index pays a multiply
    /// instead of a divide.
    inv_width: f64,
    /// The bucket the next pop starts scanning from.
    cursor: usize,
    /// Start time of the cursor bucket's current lap window.
    cursor_start: f64,
    /// Resident entries.
    len: usize,
    /// Cached key of the minimal resident entry, maintained by
    /// [`peek_key`](Self::peek_key) and kept current across pushes so a
    /// peek/pop pair pays for one scan, not two.
    min_cache: Option<(f64, u8, u64)>,
}

/// Initial and minimum bucket count (power of two). Sized so the
/// simulator's steady-state future-event set (a handful of arrivals,
/// deliveries and timers) never triggers a resize at all: growth starts
/// only past `2 × MIN_BUCKETS` residents, and the shrink threshold sits
/// 8× below the growth threshold so an oscillating population cannot
/// thrash rebuilds.
const MIN_BUCKETS: usize = 16;

/// Fallback bucket width when the resident events give no usable spacing
/// estimate (empty queue, or all entries at one instant).
const DEFAULT_WIDTH: f64 = 1.0;

impl<T> CalendarQueue<T> {
    /// An empty queue with the default geometry.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: MIN_BUCKETS - 1,
            width: DEFAULT_WIDTH,
            inv_width: 1.0 / DEFAULT_WIDTH,
            cursor: 0,
            cursor_start: 0.0,
            len: 0,
            min_cache: None,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ring bucket covering time `at` under the current geometry.
    fn bucket_of(&self, at: f64) -> usize {
        // Saturating float→int cast; `at` is non-negative and finite,
        // `width` positive, so the day index is well defined.
        let day = (at * self.inv_width) as u64;
        (day as usize) & self.mask
    }

    /// Schedules `item` at `at` with tie-break rank `rank` and FIFO
    /// sequence `seq`. Keys must be unique in `(at, rank, seq)` — the
    /// caller's monotone `seq` guarantees it.
    pub fn push(&mut self, at: f64, rank: u8, seq: u64, item: T) {
        debug_assert!(at.is_finite(), "scheduled time must be finite");
        if self.len == self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
        let bucket = self.bucket_of(at);
        self.buckets[bucket].push(Entry {
            at,
            rank,
            seq,
            item,
        });
        self.len += 1;
        if let Some(min) = self.min_cache {
            let key = (at, rank, seq);
            if key_lt(key, min) {
                self.min_cache = Some(key);
            }
        }
        if self.len == 1 {
            // Re-anchor the cursor on the sole resident entry so the next
            // pop needs no lap to find it.
            self.anchor(at);
        } else if at < self.cursor_start {
            // An entry landed before the scan window (possible after a
            // direct-search pop jumped the cursor past a same-instant
            // sibling's bucket). Rewind the window so the lap scan sees it.
            self.anchor(at);
        }
    }

    /// The key of the entry the next [`pop`](Self::pop) will return,
    /// without removing it. The scan it costs is cached: a subsequent
    /// `pop` (and any number of repeat peeks, or pushes of later keys)
    /// reuses it, so the peek/pop pair pays for one scan overall.
    pub fn peek_key(&mut self) -> Option<(f64, u8, u64)> {
        if self.len == 0 {
            return None;
        }
        if let Some(min) = self.min_cache {
            return Some(min);
        }
        // Lap scan, as in `pop`, but leaving the entry resident.
        let mut cursor = self.cursor;
        let mut start = self.cursor_start;
        let mut found: Option<(usize, usize)> = None;
        for _ in 0..=self.mask {
            let deadline = start + self.width;
            let bucket = &self.buckets[cursor];
            let mut best: Option<usize> = None;
            for (i, entry) in bucket.iter().enumerate() {
                if entry.at < deadline {
                    let better = match best {
                        None => true,
                        Some(b) => entry.before(&bucket[b]),
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            if let Some(i) = best {
                self.cursor = cursor;
                self.cursor_start = start;
                found = Some((cursor, i));
                break;
            }
            cursor = (cursor + 1) & self.mask;
            start += self.width;
        }
        let (bucket, index) = match found {
            Some(hit) => hit,
            None => {
                // One full empty lap: find the far-future minimum directly
                // and re-anchor on it, as `pop` would.
                let hit = self.find_min();
                self.anchor(self.buckets[hit.0][hit.1].at);
                hit
            }
        };
        let entry = &self.buckets[bucket][index];
        let key = (entry.at, entry.rank, entry.seq);
        self.min_cache = Some(key);
        Some(key)
    }

    /// Removes and returns the entry with the minimal `(time, rank, seq)`
    /// key, with its time.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.len * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        if let Some((at, rank, seq)) = self.min_cache.take() {
            // A peek already paid for the scan: jump straight to the
            // cached minimum's bucket (recomputed under the current
            // geometry, so an interleaved resize is harmless).
            let bucket = self.bucket_of(at);
            let index = self.buckets[bucket]
                .iter()
                .position(|e| e.seq == seq && e.rank == rank && e.at == at);
            let Some(index) = index else {
                unreachable!("cached minimum missing from its bucket")
            };
            // Rewind the scan window to the removed entry's day: the next
            // minimum is no earlier, so the lap scan stays ahead of it.
            self.anchor(at);
            return Some(self.take(bucket, index));
        }
        // Lap scan: visit each bucket's current "day" window in time
        // order; the first window holding an entry holds the minimum.
        let mut cursor = self.cursor;
        let mut start = self.cursor_start;
        for _ in 0..=self.mask {
            let deadline = start + self.width;
            let bucket = &self.buckets[cursor];
            let mut best: Option<usize> = None;
            for (i, entry) in bucket.iter().enumerate() {
                if entry.at < deadline {
                    let better = match best {
                        None => true,
                        Some(b) => entry.before(&bucket[b]),
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            if let Some(i) = best {
                self.cursor = cursor;
                self.cursor_start = start;
                return Some(self.take(cursor, i));
            }
            cursor = (cursor + 1) & self.mask;
            start += self.width;
        }
        // One full empty lap: the next entry is more than a year ahead.
        // Find it directly and re-anchor the calendar on it.
        let (bucket, index) = self.find_min();
        self.anchor(self.buckets[bucket][index].at);
        Some(self.take(bucket, index))
    }

    /// Removes entry `index` from `bucket` (swap-remove; order within a
    /// bucket is irrelevant, the scan always picks the key minimum).
    fn take(&mut self, bucket: usize, index: usize) -> (f64, T) {
        let entry = self.buckets[bucket].swap_remove(index);
        self.len -= 1;
        (entry.at, entry.item)
    }

    /// Locates the globally minimal entry by direct search. Only called
    /// with at least one resident entry.
    fn find_min(&self) -> (usize, usize) {
        let mut found: Option<(usize, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, entry) in bucket.iter().enumerate() {
                let better = match found {
                    None => true,
                    Some((fb, fi)) => entry.before(&self.buckets[fb][fi]),
                };
                if better {
                    found = Some((b, i));
                }
            }
        }
        let Some(min) = found else {
            unreachable!("find_min on an empty calendar")
        };
        min
    }

    /// Points the scan cursor at the bucket window covering time `at`.
    fn anchor(&mut self, at: f64) {
        let day = (at * self.inv_width) as u64;
        self.cursor = (day as usize) & self.mask;
        self.cursor_start = day as f64 * self.width;
    }

    /// Rebuilds the ring with `buckets` buckets and a width derived from
    /// the resident events' spacing (span divided by population, clamped
    /// to a sane positive range).
    fn resize(&mut self, buckets: usize) {
        let entries: Vec<Entry<T>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in &entries {
            lo = lo.min(e.at);
            hi = hi.max(e.at);
        }
        let span = hi - lo;
        let width = if entries.len() > 1 && span > 0.0 && span.is_finite() {
            // Aim for ~one entry per width so the lap scan touches ~one
            // occupied bucket per pop.
            (span / entries.len() as f64).max(f64::MIN_POSITIVE)
        } else {
            DEFAULT_WIDTH
        };
        self.buckets = (0..buckets).map(|_| Vec::new()).collect();
        self.mask = buckets - 1;
        self.width = width;
        self.inv_width = 1.0 / width;
        self.len = 0;
        let anchor_at = if lo.is_finite() { lo } else { 0.0 };
        self.anchor(anchor_at);
        for e in entries {
            let bucket = self.bucket_of(e.at);
            self.buckets[bucket].push(e);
            self.len += 1;
        }
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// The reference ordering: the exact `Ord` the simulator's previous
    /// `BinaryHeap<Scheduled>` reversed for its min-heap.
    #[derive(Debug, PartialEq)]
    struct RefEntry {
        at: f64,
        rank: u8,
        seq: u64,
    }
    impl Eq for RefEntry {}
    impl PartialOrd for RefEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .partial_cmp(&self.at)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.rank.cmp(&self.rank))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    fn drain_both(ops: &[(f64, u8)]) {
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        for (seq, &(at, rank)) in ops.iter().enumerate() {
            cal.push(at, rank, seq as u64, seq);
            heap.push(RefEntry {
                at,
                rank,
                seq: seq as u64,
            });
        }
        let mut got = Vec::new();
        loop {
            let peek = cal.peek_key();
            let Some((at, seq)) = cal.pop() else {
                assert_eq!(peek, None, "peek saw an entry pop could not find");
                break;
            };
            assert_eq!(
                peek.map(|(t, _, s)| (t, s)),
                Some((at, seq as u64)),
                "peek disagreed with the following pop"
            );
            let expect = heap.pop().expect("heap shorter than calendar");
            assert_eq!(seq as u64, expect.seq, "pop order diverged at {at}");
            got.push(seq);
        }
        assert!(heap.pop().is_none(), "calendar shorter than heap");
        assert_eq!(got.len(), ops.len());
    }

    #[test]
    fn empty_pops_none() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn orders_by_time_then_rank_then_seq() {
        let mut q = CalendarQueue::new();
        q.push(2.0, 1, 1, "late");
        q.push(1.0, 2, 2, "timer");
        q.push(1.0, 0, 3, "outage");
        q.push(1.0, 1, 4, "deliver-a");
        q.push(1.0, 1, 5, "deliver-b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, s)| s)).collect();
        assert_eq!(
            order,
            vec!["outage", "deliver-a", "deliver-b", "timer", "late"]
        );
    }

    #[test]
    fn far_future_entries_survive_the_lap_fallback() {
        let mut q = CalendarQueue::new();
        // One entry hundreds of default widths out: the pop must take the
        // direct-search path and still find it.
        q.push(4000.0, 1, 1, "deadline");
        q.push(0.5, 1, 2, "near");
        assert_eq!(q.pop().map(|(_, s)| s), Some("near"));
        assert_eq!(q.pop().map(|(_, s)| s), Some("deadline"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_matches_reference() {
        // Simulator-shaped interleaving: pops re-anchor the cursor, then
        // pushes land both near (deliveries) and far (timers).
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push =
            |cal: &mut CalendarQueue<u64>, heap: &mut BinaryHeap<RefEntry>, at: f64, rank: u8| {
                seq += 1;
                cal.push(at, rank, seq, seq);
                heap.push(RefEntry { at, rank, seq });
            };
        let mut now = 0.0f64;
        for step in 0..2000u64 {
            let jitter = (step % 7) as f64 * 0.013;
            push(&mut cal, &mut heap, now + 1.0 + jitter, 1);
            push(&mut cal, &mut heap, now + 0.05, 1);
            if step % 5 == 0 {
                push(&mut cal, &mut heap, now + 8.0 + jitter, 2);
            }
            if step % 11 == 0 {
                push(&mut cal, &mut heap, now, 0);
            }
            for round in 0..2 {
                // Peek on alternating rounds so both the cached and the
                // cold pop path stay exercised.
                let peek = if round == 0 { cal.peek_key() } else { None };
                let got = cal.pop();
                let expect = heap.pop();
                match (got, expect) {
                    (Some((at, s)), Some(e)) => {
                        assert_eq!(s, e.seq, "diverged at t={at}");
                        if round == 0 {
                            assert_eq!(peek.map(|(_, _, ps)| ps), Some(s), "peek diverged");
                        }
                        now = at;
                    }
                    (None, None) => {}
                    (got, expect) => panic!("length diverged: {got:?} vs {expect:?}"),
                }
            }
        }
        while let Some(e) = heap.pop() {
            let Some((_, s)) = cal.pop() else {
                panic!("calendar ran out before the reference heap")
            };
            assert_eq!(s, e.seq);
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn same_instant_burst_is_fifo_within_rank() {
        let mut q = CalendarQueue::new();
        for seq in 0..100u64 {
            q.push(3.25, 1, seq, seq);
        }
        for expect in 0..100u64 {
            assert_eq!(q.pop().map(|(_, s)| s), Some(expect));
        }
    }

    #[test]
    fn grows_and_shrinks_without_losing_entries() {
        let mut q = CalendarQueue::new();
        for seq in 0..500u64 {
            q.push((seq % 97) as f64 * 0.31, 1, seq, seq);
        }
        assert_eq!(q.len(), 500);
        let mut drained = Vec::new();
        while let Some((_, s)) = q.pop() {
            drained.push(s);
        }
        assert_eq!(drained.len(), 500);
        // Exhaustive key order: sort the inputs by (time, rank, seq) and
        // compare.
        let mut expect: Vec<u64> = (0..500).collect();
        expect.sort_by(|&a, &b| {
            ((a % 97) as f64 * 0.31)
                .total_cmp(&((b % 97) as f64 * 0.31))
                .then(a.cmp(&b))
        });
        assert_eq!(drained, expect);
    }

    #[test]
    fn randomized_against_reference_heap() {
        // Deterministic pseudo-random workload (SplitMix64 steps) across
        // several shapes; the proptest in `tests/properties.rs` widens
        // this further.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || mdr_core::hash::splitmix64_next(&mut state);
        for case in 0..30 {
            let n = 5 + (case * 17) % 200;
            let ops: Vec<(f64, u8)> = (0..n)
                .map(|_| {
                    let t = (next() % 10_000) as f64 * 0.001;
                    let rank = (next() % 3) as u8;
                    (t, rank)
                })
                .collect();
            drain_both(&ops);
        }
    }
}

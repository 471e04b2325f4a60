//! Discrete-event scheduling primitives: the global simulated-time
//! event wheel.
//!
//! The round-robin core loop the simulator started with polls every
//! vCPU on every iteration, so a core sitting in WFI costs host work
//! proportional to how long everyone else runs. The event wheel
//! inverts that: a parked core posts *when* it next needs attention
//! (its timer deadline, or "only when an interrupt epoch moves"), the
//! run loop steps only runnable cores, and when nothing is runnable
//! the clock jumps straight to the earliest pending event. An idle
//! core therefore costs zero host work until an event targets it.
//!
//! Everything here is deterministic. Events are totally ordered by
//! `(time, cpu index, insertion sequence)` — see [`EventKey`] — so two
//! runs that post the same events drain them in the same order
//! regardless of insertion order, heap internals, or host thread
//! scheduling.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled event (a parked core's timer deadline): totally ordered
/// by `(time, cpu, seq)`.
///
/// `seq` is the wheel-assigned insertion sequence number; it makes the
/// order total (and therefore deterministic) even when several events
/// are posted for one cpu at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Absolute simulated time (cycle count) the event is due.
    pub time: u64,
    /// Target cpu index (tie-break).
    pub cpu: usize,
    /// Insertion sequence (final tie-break; assigned by the wheel).
    pub seq: u64,
}

/// Why a parked core may wake: the conditions its owner re-checks
/// before letting it run again.
///
/// A core parks in WFI with a conservative contract: it cannot make
/// progress before `wake_at` (its earliest armed timer deadline, from
/// `Timers::next_fire_at`) *unless* interrupt-relevant state changes —
/// which the timer and GIC components advertise by bumping their
/// epochs. Epoch inequality is therefore a sufficient (conservative)
/// wake condition: a woken core re-polls, and re-parks if the change
/// was not for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waker {
    /// Earliest simulated time an armed timer can target this core
    /// (`u64::MAX` when nothing is armed).
    pub wake_at: u64,
    /// `Timers::epoch()` observed when the core parked.
    pub timers_epoch: u64,
    /// `Distributor::epoch()` observed when the core parked.
    pub gic_epoch: u64,
}

/// The global simulated-time event wheel: a min-heap of [`EventKey`]s.
///
/// Pop order is the deterministic total order `(time, cpu, seq)`
/// regardless of push order. The wheel itself is pure bookkeeping — it
/// never touches machine state — so snapshotting it is a plain clone.
#[derive(Debug, Clone, Default)]
pub struct Wheel {
    heap: BinaryHeap<Reverse<EventKey>>,
    seq: u64,
}

impl Wheel {
    /// An empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts an event and returns its key (with the assigned `seq`).
    pub fn post(&mut self, time: u64, cpu: usize) -> EventKey {
        let key = EventKey {
            time,
            cpu,
            seq: self.seq,
        };
        self.seq += 1;
        self.heap.push(Reverse(key));
        key
    }

    /// The due time of the earliest pending event.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(k)| k.time)
    }

    /// Pops the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<EventKey> {
        if self.peek_time()? > now {
            return None;
        }
        self.heap.pop().map(|Reverse(k)| k)
    }

    /// Pops the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<EventKey> {
        self.heap.pop().map(|Reverse(k)| k)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event (the sequence counter keeps running so
    /// later posts still order after earlier ones).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The pending events in drain order (snapshot serialization and
    /// debugging; does not disturb the wheel).
    pub fn pending_sorted(&self) -> Vec<EventKey> {
        let mut v: Vec<EventKey> = self.heap.iter().map(|Reverse(k)| *k).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pop_order_is_time_then_cpu_then_seq() {
        let mut w = Wheel::new();
        // Deliberately posted out of order.
        w.post(20, 0); // seq 0
        w.post(10, 3); // seq 1
        w.post(10, 7); // seq 2
        w.post(10, 1); // seq 3
        w.post(10, 1); // seq 4: same (time, cpu)
        let order: Vec<(u64, usize, u64)> = std::iter::from_fn(|| w.pop())
            .map(|k| (k.time, k.cpu, k.seq))
            .collect();
        assert_eq!(
            order,
            vec![(10, 1, 3), (10, 1, 4), (10, 3, 1), (10, 7, 2), (20, 0, 0)]
        );
    }

    #[test]
    fn pop_due_respects_now() {
        let mut w = Wheel::new();
        w.post(100, 0);
        w.post(50, 1);
        assert_eq!(w.pop_due(49), None);
        assert_eq!(w.pop_due(50).map(|k| k.cpu), Some(1));
        assert_eq!(w.pop_due(99), None);
        assert_eq!(w.pop_due(u64::MAX).map(|k| k.cpu), Some(0));
        assert!(w.is_empty());
    }

    #[test]
    fn clone_preserves_pending_events_and_seq() {
        let mut w = Wheel::new();
        w.post(5, 0);
        w.post(9, 2);
        let mut c = w.clone();
        assert_eq!(c.pending_sorted(), w.pending_sorted());
        // New posts in the clone order after the copied ones.
        let k = c.post(5, 0);
        assert_eq!(k.seq, 2);
    }

    proptest! {
        /// The drain order of a set of events is invariant under the
        /// order they were posted in: shuffle the insertion order any
        /// way, the `(time, cpu, seq)` total order wins. (`seq` is
        /// position-dependent, so the property is stated over keys that
        /// differ in `(time, cpu)` — duplicates collapse.)
        #[test]
        fn drain_order_invariant_under_insertion_shuffle(
            times in proptest::collection::vec(0u64..16, 1..24),
            cpus in proptest::collection::vec(0usize..8, 1..24),
            swaps in proptest::collection::vec((0usize..24, 0usize..24), 0..32),
        ) {
            let n = times.len().min(cpus.len());
            let mut keys: Vec<(u64, usize)> = (0..n).map(|i| (times[i], cpus[i])).collect();
            keys.sort();
            keys.dedup();

            let mut a = Wheel::new();
            for &(t, c) in &keys {
                a.post(t, c);
            }
            let mut shuffled = keys.clone();
            for &(i, j) in &swaps {
                let (i, j) = (i % shuffled.len(), j % shuffled.len());
                shuffled.swap(i, j);
            }
            let mut b = Wheel::new();
            for &(t, c) in &shuffled {
                b.post(t, c);
            }
            let da: Vec<(u64, usize)> =
                std::iter::from_fn(|| a.pop()).map(|k| (k.time, k.cpu)).collect();
            let db: Vec<(u64, usize)> =
                std::iter::from_fn(|| b.pop()).map(|k| (k.time, k.cpu)).collect();
            prop_assert_eq!(&da, &db, "drain order depends on insertion order");
            prop_assert_eq!(da, keys, "drain order is the sorted key order");
        }
    }
}

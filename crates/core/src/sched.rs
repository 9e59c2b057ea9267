//! Active-set scheduling for the cycle engine.
//!
//! [`ActiveSet`] is a dense bitset over PE ids tracking which PEs can
//! possibly do work this cycle. The fabric's per-phase sweeps iterate only
//! the set bits instead of the whole array, so fully-drained regions of the
//! fabric cost nothing per cycle.
//!
//! Membership discipline (maintained by [`crate::fabric::Fabric::step`]):
//!
//! * a PE **enters** the set when an instruction is injected towards it
//!   (orchestrator issue at column 0, eastward forwarding of a retiring
//!   instruction) or when a NoC push lands on one of its input links
//!   (south push from the row above, east push from the column to the
//!   west, north-edge feeder token);
//! * a PE **leaves** the set at end of cycle once its pipeline holds no
//!   [`InFlight`](crate::pe) state, no injection is pending, and both its
//!   input links are empty.
//!
//! The removal condition is exact (checked against the same state the
//! quiescence predicate used to sweep), which lets the fabric's per-cycle
//! quiescence check collapse to `active.is_empty()` plus O(rows) of
//! orchestrator state.

/// A dense bitset of PE ids with O(1) insert/remove and word-wise iteration.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    words: Vec<u64>,
    len: usize,
    count: usize,
}

impl ActiveSet {
    /// An empty set over ids `0..n`.
    pub fn new(n: usize) -> ActiveSet {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
            len: n,
            count: 0,
        }
    }

    /// Number of ids the set ranges over.
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Deactivates every id, keeping the backing words (fabric reuse).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Number of active ids.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when no id is active.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Marks `idx` active. Returns `true` when the id was newly inserted
    /// (callers counting wake events use this to ignore redundant wakes).
    #[inline]
    pub fn insert(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let word = &mut self.words[idx >> 6];
        let bit = 1u64 << (idx & 63);
        if *word & bit == 0 {
            *word |= bit;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Marks `idx` inactive.
    #[inline]
    pub fn remove(&mut self, idx: usize) {
        debug_assert!(idx < self.len);
        let word = &mut self.words[idx >> 6];
        let bit = 1u64 << (idx & 63);
        if *word & bit != 0 {
            *word &= !bit;
            self.count -= 1;
        }
    }

    /// True when `idx` is active.
    pub fn contains(&self, idx: usize) -> bool {
        self.words[idx >> 6] & (1u64 << (idx & 63)) != 0
    }

    /// Number of backing words (for manual word-wise iteration).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The `w`-th backing word. Iterating a *copy* of each word while
    /// mutating the set is the fabric's idiom: ids woken mid-sweep are
    /// picked up next phase (waking is monotone — it only adds candidates,
    /// and a freshly woken PE has no same-cycle work by construction).
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Active ids in ascending order (diagnostics / tests; allocates).
    pub fn iter_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some((w << 6) | tz)
            })
        })
    }
}

/// Event scheduler for the per-row orchestrator phase.
///
/// The reference engine ([`crate::Engine::Reference`]) rebuilds every live
/// row's [`OrchIo`](crate::orchestrator::OrchIo) each cycle. Under
/// event-driven wakeups the fast engine instead visits only rows whose
/// observable inputs may have changed since their last decision:
///
/// * the **wake bitset** holds rows that must be stepped next cycle — a row
///   stays in it while it makes progress, is inserted by link events (a
///   south push landing on its column-0 North FIFO, a feeder token, an
///   inter-orchestrator message consume freeing the neighbour's slot), and
///   is removed when the row *parks* (its action was a pure wait, see
///   [`OrchAction::park`](crate::orchestrator::OrchAction)) or drains;
/// * the **timer wheel-of-one** arms, per row, the earliest future cycle at
///   which a queued event (an in-flight credit return or orchestrator
///   message with a delivery latency) becomes observable; `fire_due` moves
///   due rows back into the wake bitset.
///
/// A parked row costs zero work per cycle: no `OrchIo` is built, no FSM is
/// stepped, and its skipped polls are accounted lazily when it wakes (see
/// `fabric.rs`).
#[derive(Debug, Clone)]
pub struct RowSched {
    /// Rows to visit in the next orchestrator phase.
    wake: ActiveSet,
    /// Earliest scheduled timed wake per row (`u64::MAX` = none).
    timer: Vec<u64>,
    /// Minimum over `timer` — the phase checks one word before scanning.
    next_due: u64,
}

impl RowSched {
    /// A scheduler over `rows` orchestrator rows, all asleep.
    pub fn new(rows: usize) -> RowSched {
        RowSched {
            wake: ActiveSet::new(rows),
            timer: vec![u64::MAX; rows],
            next_due: u64::MAX,
        }
    }

    /// Returns the scheduler to its post-construction state (all rows
    /// asleep, no timers armed), keeping allocations (fabric reuse).
    pub fn reset(&mut self) {
        self.wake.clear();
        self.timer.fill(u64::MAX);
        self.next_due = u64::MAX;
    }

    /// Wakes row `r` immediately. Returns `true` when the row was newly
    /// woken (i.e. this call is a distinct wake event).
    #[inline]
    pub fn wake(&mut self, r: usize) -> bool {
        self.wake.insert(r)
    }

    /// Removes row `r` from the wake set (the row parked or drained).
    #[inline]
    pub fn sleep(&mut self, r: usize) {
        self.wake.remove(r);
    }

    /// True when row `r` is due this cycle.
    #[inline]
    pub fn is_awake(&self, r: usize) -> bool {
        self.wake.contains(r)
    }

    /// True when no row is awake (lets the fabric skip the phase wholesale;
    /// timed wakes are checked separately via [`RowSched::fire_due`]).
    #[inline]
    pub fn all_asleep(&self) -> bool {
        self.wake.is_empty()
    }

    /// Arms a timed wake for row `r` at cycle `at` (keeps the earliest if
    /// one is already armed). `u64::MAX` is a no-op.
    #[inline]
    pub fn arm(&mut self, r: usize, at: u64) {
        if at < self.timer[r] {
            self.timer[r] = at;
        }
        if at < self.next_due {
            self.next_due = at;
        }
    }

    /// Moves every row whose timer is due (`<= now`) into the wake set,
    /// returning the number of rows newly woken. Cost is one comparison on
    /// cycles with nothing due.
    #[inline]
    pub fn fire_due(&mut self, now: u64) -> u64 {
        self.fire_due_with(now, |_| {})
    }

    /// [`RowSched::fire_due`] with an observer invoked for each row newly
    /// woken by a timer (the trace layer's timer-wake hook).
    #[inline]
    pub fn fire_due_with(&mut self, now: u64, mut on_wake: impl FnMut(usize)) -> u64 {
        if self.next_due > now {
            return 0;
        }
        let mut fired = 0;
        let mut next = u64::MAX;
        for r in 0..self.timer.len() {
            let t = self.timer[r];
            if t <= now {
                self.timer[r] = u64::MAX;
                if self.wake.insert(r) {
                    fired += 1;
                    on_wake(r);
                }
            } else {
                next = next.min(t);
            }
        }
        self.next_due = next;
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_count() {
        let mut s = ActiveSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129)); // idempotent, not a new wake
        assert_eq!(s.count(), 4);
        assert!(s.contains(64));
        assert!(!s.contains(1));
        s.remove(64);
        s.remove(64); // idempotent
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter_ids().collect::<Vec<_>>(), vec![0, 63, 129]);
        assert_eq!(s.universe(), 130);
    }

    #[test]
    fn word_iteration_matches_iter_ids() {
        let mut s = ActiveSet::new(200);
        for idx in [3, 64, 65, 127, 128, 199] {
            s.insert(idx);
        }
        let mut via_words = Vec::new();
        for w in 0..s.word_count() {
            let mut bits = s.word(w);
            while bits != 0 {
                via_words.push((w << 6) | bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        assert_eq!(via_words, s.iter_ids().collect::<Vec<_>>());
    }

    #[test]
    fn row_sched_wake_and_sleep() {
        let mut s = RowSched::new(8);
        assert!(s.all_asleep());
        assert!(s.wake(3));
        assert!(!s.wake(3)); // redundant wake is not a new event
        assert!(s.is_awake(3));
        assert!(!s.all_asleep());
        s.sleep(3);
        assert!(s.all_asleep());
    }

    #[test]
    fn row_sched_timers_fire_once_at_due_cycle() {
        let mut s = RowSched::new(4);
        s.arm(1, 10);
        s.arm(2, 12);
        s.arm(2, 11); // earliest wins
        assert_eq!(s.fire_due(9), 0);
        assert!(s.all_asleep());
        assert_eq!(s.fire_due(10), 1);
        assert!(s.is_awake(1));
        assert!(!s.is_awake(2));
        s.sleep(1);
        assert_eq!(s.fire_due(11), 1);
        assert!(s.is_awake(2));
        s.sleep(2);
        // Nothing left armed.
        assert_eq!(s.fire_due(u64::MAX - 1), 0);
    }

    #[test]
    fn row_sched_timer_on_already_awake_row_is_not_a_new_wake() {
        let mut s = RowSched::new(2);
        s.wake(0);
        s.arm(0, 5);
        assert_eq!(s.fire_due(5), 0);
        assert!(s.is_awake(0));
    }
}

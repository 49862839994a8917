//! Rate-aware shard selection.
//!
//! A known batch would be divided proportionally to the shards' rates.
//! A service cannot do that — work arrives one micro-batch at a time —
//! so it picks, per batch, the shard whose *completion horizon*
//! `(backlog + batch) / rate` is smallest. Over a steady stream this
//! converges to the rate-proportional division.

use std::sync::Mutex;

/// Online scheduler over a pool of shards with calibrated rates.
///
/// Shards can be **quarantined** (see [`ShardScheduler::quarantine`]):
/// a quarantined shard is skipped by [`ShardScheduler::pick`] and by
/// redispatch, unless every shard is quarantined — then the pool
/// degrades to scheduling over all shards rather than stalling.
/// Quarantine is monotone: once out, a shard stays out, which keeps
/// redispatch chains finite.
pub struct ShardScheduler {
    rates: Vec<f64>,
    state: Mutex<SchedState>,
}

struct SchedState {
    pending: Vec<u64>,
    quarantined: Vec<bool>,
}

impl SchedState {
    /// Argmin of completion horizon over `candidates`; records the batch
    /// against the winner's backlog.
    fn pick_among(
        &mut self,
        rates: &[f64],
        n_options: usize,
        candidates: impl Iterator<Item = usize>,
    ) -> Option<usize> {
        let best = candidates.min_by(|&a, &b| {
            let ha = (self.pending[a] + n_options as u64) as f64 / rates[a];
            let hb = (self.pending[b] + n_options as u64) as f64 / rates[b];
            ha.partial_cmp(&hb).expect("finite horizons").then(a.cmp(&b))
        })?;
        self.pending[best] += n_options as u64;
        Some(best)
    }
}

impl ShardScheduler {
    /// Build a scheduler from per-shard rates (options/s). Non-finite or
    /// non-positive rates are tolerated: if every rate is degenerate, the
    /// shards are treated as equally fast.
    pub fn new(rates: Vec<f64>) -> ShardScheduler {
        let sane: Vec<f64> =
            rates.iter().map(|&r| if r.is_finite() && r > 0.0 { r } else { 0.0 }).collect();
        let total: f64 = sane.iter().sum();
        let rates = if total > 0.0 {
            // A degenerate shard in an otherwise sane pool gets a tiny
            // but non-zero rate so it is last-resort rather than dead.
            let floor = sane.iter().cloned().filter(|&r| r > 0.0).fold(f64::MAX, f64::min) * 1e-6;
            sane.iter().map(|&r| if r > 0.0 { r } else { floor }).collect()
        } else {
            vec![1.0; sane.len()]
        };
        let state = Mutex::new(SchedState {
            pending: vec![0; rates.len()],
            quarantined: vec![false; rates.len()],
        });
        ShardScheduler { rates, state }
    }

    /// Calibrated rates, options/s, in shard order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Current backlog per shard, in options.
    pub fn backlog(&self) -> Vec<u64> {
        self.state.lock().expect("scheduler lock").pending.clone()
    }

    /// Choose the healthy shard with the smallest completion horizon for
    /// a batch of `n_options`, and record the batch against its backlog.
    /// If every shard is quarantined, all of them are candidates again.
    ///
    /// # Panics
    /// Panics on an empty pool (the service constructor forbids it).
    pub fn pick(&self, n_options: usize) -> usize {
        let mut st = self.state.lock().expect("scheduler lock");
        let healthy: Vec<usize> = (0..self.rates.len()).filter(|&i| !st.quarantined[i]).collect();
        let candidates: Vec<usize> =
            if healthy.is_empty() { (0..self.rates.len()).collect() } else { healthy };
        st.pick_among(&self.rates, n_options, candidates.into_iter()).expect("non-empty pool")
    }

    /// Choose a healthy shard other than `exclude` for a redispatched
    /// batch, recording the batch against its backlog. Returns `None`
    /// when no healthy peer exists — the caller must then fail (or
    /// price) the batch itself rather than bounce it forever.
    pub fn pick_for_redispatch(&self, n_options: usize, exclude: usize) -> Option<usize> {
        let mut st = self.state.lock().expect("scheduler lock");
        let healthy: Vec<usize> =
            (0..self.rates.len()).filter(|&i| i != exclude && !st.quarantined[i]).collect();
        st.pick_among(&self.rates, n_options, healthy.into_iter())
    }

    /// Whether no schedulable shard has a batch queued or running: every
    /// healthy shard's backlog is 0. Quarantined shards do not count as
    /// busy unless every shard is quarantined — the same fallback
    /// [`ShardScheduler::pick`] uses. The batcher closes a partial batch
    /// at once on an idle pool, since lingering cannot fill it.
    pub fn pool_idle(&self) -> bool {
        let st = self.state.lock().expect("scheduler lock");
        let all_out = st.quarantined.iter().all(|&q| q);
        st.pending.iter().zip(&st.quarantined).all(|(&p, &q)| p == 0 || (q && !all_out))
    }

    /// Mark `n_options` completed on `shard`, freeing its backlog.
    pub fn complete(&self, shard: usize, n_options: usize) {
        let mut st = self.state.lock().expect("scheduler lock");
        st.pending[shard] = st.pending[shard].saturating_sub(n_options as u64);
    }

    /// Quarantine `shard`, removing it from scheduling. Returns `true`
    /// if the shard was healthy until now (`false` on a repeat call, so
    /// callers can count quarantine events exactly once).
    pub fn quarantine(&self, shard: usize) -> bool {
        let mut st = self.state.lock().expect("scheduler lock");
        !std::mem::replace(&mut st.quarantined[shard], true)
    }

    /// Whether `shard` is currently quarantined.
    pub fn is_quarantined(&self, shard: usize) -> bool {
        self.state.lock().expect("scheduler lock").quarantined[shard]
    }

    /// Per-shard quarantine flags, in shard order.
    pub fn quarantined(&self) -> Vec<bool> {
        self.state.lock().expect("scheduler lock").quarantined.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_pick_goes_to_the_fastest_shard() {
        let s = ShardScheduler::new(vec![100.0, 2500.0, 700.0]);
        assert_eq!(s.pick(8), 1);
    }

    #[test]
    fn backlog_steers_work_away_from_a_busy_shard() {
        let s = ShardScheduler::new(vec![1000.0, 1000.0]);
        assert_eq!(s.pick(10), 0, "ties break to the lowest index");
        assert_eq!(s.pick(10), 1, "the loaded shard is passed over");
        s.complete(0, 10);
        assert_eq!(s.pick(10), 0, "completion frees the shard");
        assert_eq!(s.backlog(), vec![10, 10]);
    }

    #[test]
    fn saturated_stream_converges_to_the_offline_split() {
        // 3:1 rates; dispatch 400 options in batches of 4 while every
        // shard keeps its backlog (a saturated pool). Equalizing the
        // completion horizons divides the work 300/100 like a
        // rate-proportional split, within one batch.
        let s = ShardScheduler::new(vec![300.0, 100.0]);
        let mut totals = [0usize; 2];
        for _ in 0..100 {
            totals[s.pick(4)] += 4;
        }
        assert!(
            (totals[0] as i64 - 300).unsigned_abs() <= 4,
            "online {totals:?} vs offline [300, 100]"
        );
    }

    #[test]
    fn quarantine_steers_work_to_healthy_shards() {
        let s = ShardScheduler::new(vec![100.0, 2500.0, 700.0]);
        assert!(s.quarantine(1), "first quarantine reports a state change");
        assert!(!s.quarantine(1), "repeat quarantine does not");
        assert!(s.is_quarantined(1));
        assert_eq!(s.quarantined(), vec![false, true, false]);
        // The fastest shard is out; work lands on the next-fastest.
        assert_eq!(s.pick(8), 2);
        // Redispatch away from shard 2 can only use shard 0.
        assert_eq!(s.pick_for_redispatch(8, 2), Some(0));
        // No healthy peer for shard 0 once 2 is out too.
        s.quarantine(2);
        assert_eq!(s.pick_for_redispatch(8, 0), None);
        // With the whole pool quarantined, pick degrades to all shards
        // instead of stalling the batcher.
        s.quarantine(0);
        assert_eq!(s.pick(8), 1, "fully-quarantined pool still schedules");
    }

    #[test]
    fn pool_idle_ignores_quarantined_backlog_unless_all_are_out() {
        let s = ShardScheduler::new(vec![100.0, 100.0]);
        assert!(s.pool_idle(), "a fresh pool is idle");
        assert_eq!(s.pick(4), 0);
        assert!(!s.pool_idle(), "one busy shard makes the pool busy");
        s.complete(0, 4);
        assert!(s.pool_idle(), "completion drains the pool");
        // A quarantined shard's leftover backlog does not count...
        assert_eq!(s.pick(4), 0);
        s.quarantine(0);
        assert!(s.pool_idle(), "quarantined backlog is not schedulable work");
        assert_eq!(s.pick(4), 1);
        assert!(!s.pool_idle(), "the healthy shard is busy");
        s.complete(1, 4);
        assert!(s.pool_idle());
        // ...until every shard is out: then the whole pool schedules
        // again, and every backlog counts.
        s.quarantine(1);
        assert!(!s.pool_idle(), "fully-quarantined pool counts shard 0's backlog");
        s.complete(0, 4);
        assert!(s.pool_idle());
    }

    #[test]
    fn degenerate_rates_do_not_divide_by_zero() {
        let s = ShardScheduler::new(vec![0.0, f64::NAN]);
        assert_eq!(s.rates(), &[1.0, 1.0]);
        let shard = s.pick(1);
        assert!(shard < 2);
        // A single dead shard in a sane pool stays schedulable, but only
        // as a last resort.
        let s = ShardScheduler::new(vec![0.0, 500.0]);
        assert!(s.rates()[0] > 0.0 && s.rates()[0] < s.rates()[1]);
        assert_eq!(s.pick(4), 1);
    }
}

//! Service knobs: queue bound, batching policy, failure policy.

use std::time::Duration;

/// Configuration of a [`crate::PricingService`].
///
/// | knob | meaning | default |
/// |------|---------|---------|
/// | `queue_capacity` | max queued requests before typed rejection | 64 |
/// | `max_batch` | micro-batch target, in options | 32 |
/// | `max_linger` | max wait of the oldest queued request while a batch is in flight | 2 ms |
/// | `probe_batch` | deprecated and ignored | 256 |
/// | `max_retries` | local re-prices of a batch after a retryable fault | 2 |
/// | `retry_backoff_s` | simulated-time backoff base per retry, seconds | 1 ms |
/// | `quarantine_after` | consecutive exhausted batches before quarantine | 3 |
///
/// A free shard worker closes a partial batch as soon as no shard is
/// running a batch, so `max_linger` only costs time while work is in
/// flight — the only time waiting can still fill a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Maximum number of requests held in the submission queue. A submit
    /// beyond this bound returns [`bop_core::Error::Rejected`].
    pub queue_capacity: usize,
    /// Micro-batch target size in options. A free worker takes a batch
    /// as soon as this many options are queued (requests are split at batch
    /// boundaries and reassembled transparently).
    pub max_batch: usize,
    /// Maximum wait of the oldest queued request while a batch is in
    /// flight, before a free worker takes a partial batch. On an idle
    /// pool (no healthy shard running a batch) a partial batch
    /// dispatches at once, and a worker that finishes a batch wakes its
    /// peers, so a lingering request leaves as soon as the pool drains.
    pub max_linger: Duration,
    /// Ignored: shard workers pull batches from the shared queue, so
    /// there are no shard rates to calibrate.
    #[deprecated(
        note = "ignored; shard workers pull from the shared queue, nothing is calibrated"
    )]
    pub probe_batch: usize,
    /// How many times a shard worker re-prices a micro-batch locally
    /// after a retryable fault ([`bop_core::Error::is_retryable`])
    /// before handing the batch back to the shared queue for a peer. `0` disables local
    /// retries.
    pub max_retries: usize,
    /// Base backoff between local retries, in *simulated* seconds. The
    /// device clock is simulated, so the backoff is accounted in the
    /// `serve.retry_backoff_s` metric (doubling per retry) rather than
    /// slept on the wall clock.
    pub retry_backoff_s: f64,
    /// Consecutive micro-batches that must exhaust their local retries
    /// on one shard before the shard is quarantined. Must be at least
    /// 1.
    pub quarantine_after: usize,
}

impl Default for ServeConfig {
    // `probe_batch` keeps its old default until the field is deleted.
    #[allow(deprecated)]
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 32,
            max_linger: Duration::from_millis(2),
            probe_batch: 256,
            max_retries: 2,
            retry_backoff_s: 1e-3,
            quarantine_after: 3,
        }
    }
}

impl ServeConfig {
    /// Validate the knobs.
    ///
    /// # Errors
    /// [`bop_core::Error::Invalid`] on a zero capacity, batch size or
    /// quarantine threshold, or a negative or non-finite backoff.
    pub fn validate(&self) -> Result<(), bop_core::Error> {
        if self.queue_capacity == 0 {
            return Err(bop_core::Error::Invalid("queue_capacity must be at least 1".into()));
        }
        if self.max_batch == 0 {
            return Err(bop_core::Error::Invalid("max_batch must be at least 1".into()));
        }
        if !self.retry_backoff_s.is_finite() || self.retry_backoff_s < 0.0 {
            return Err(bop_core::Error::Invalid(
                "retry_backoff_s must be finite and non-negative".into(),
            ));
        }
        if self.quarantine_after == 0 {
            return Err(bop_core::Error::Invalid("quarantine_after must be at least 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.queue_capacity, 64);
        assert_eq!(c.max_batch, 32);
        assert_eq!(c.max_retries, 2);
        assert_eq!(c.retry_backoff_s, 1e-3);
        assert_eq!(c.quarantine_after, 3);
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for cfg in [
            ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
            ServeConfig { max_batch: 0, ..ServeConfig::default() },
            ServeConfig { quarantine_after: 0, ..ServeConfig::default() },
            ServeConfig { retry_backoff_s: f64::NAN, ..ServeConfig::default() },
            ServeConfig { retry_backoff_s: -1e-3, ..ServeConfig::default() },
        ] {
            assert!(matches!(cfg.validate(), Err(bop_core::Error::Invalid(_))));
        }
    }
}

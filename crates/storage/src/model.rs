//! Timing model for simulated object-store requests.

use astra_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// How long a simulated GET or PUT takes.
///
/// The paper's Eq. 4 charges `(d + e)/B` for a lambda's S3 traffic — pure
/// bandwidth. Real S3 adds a per-request latency floor, which matters for
/// the many-small-objects configurations in Fig. 1; the simulator includes
/// it (and the analytical model exposes the same knob so both sides agree).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferModel {
    /// Lambda↔S3 bandwidth in MB/s (`B` in the paper).
    pub bandwidth_mbps: f64,
    /// First-byte latency of a GET request, seconds.
    pub get_latency_s: f64,
    /// First-byte latency of a PUT request, seconds.
    pub put_latency_s: f64,
}

impl TransferModel {
    /// Calibration roughly matching measured Lambda↔S3 behaviour around the
    /// paper's evaluation era: ~40 MB/s per function, ~25 ms GET and ~40 ms
    /// PUT first-byte latency.
    pub fn aws_like() -> Self {
        TransferModel {
            bandwidth_mbps: 40.0,
            get_latency_s: 0.025,
            put_latency_s: 0.040,
        }
    }

    /// A pure-bandwidth model (zero request latency) — exactly the paper's
    /// `(d + e)/B` formulation.
    pub fn paper_literal(bandwidth_mbps: f64) -> Self {
        TransferModel {
            bandwidth_mbps,
            get_latency_s: 0.0,
            put_latency_s: 0.0,
        }
    }

    /// Duration of one GET of `size_mb` megabytes.
    pub fn get_time(&self, size_mb: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.get_latency_s + size_mb / self.bandwidth_mbps)
    }

    /// Duration of one PUT of `size_mb` megabytes.
    pub fn put_time(&self, size_mb: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.put_latency_s + size_mb / self.bandwidth_mbps)
    }

    /// Seconds for one GET (for the analytical model, which works in f64).
    pub fn get_secs(&self, size_mb: f64) -> f64 {
        self.get_latency_s + size_mb / self.bandwidth_mbps
    }

    /// Seconds for one PUT.
    pub fn put_secs(&self, size_mb: f64) -> f64 {
        self.put_latency_s + size_mb / self.bandwidth_mbps
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        Self::aws_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_literal_is_pure_bandwidth() {
        let m = TransferModel::paper_literal(40.0);
        assert_eq!(m.get_time(80.0), SimDuration::from_secs(2));
        assert_eq!(m.put_time(40.0), SimDuration::from_secs(1));
    }

    #[test]
    fn latency_adds_to_transfer() {
        let m = TransferModel {
            bandwidth_mbps: 10.0,
            get_latency_s: 0.5,
            put_latency_s: 1.0,
        };
        assert_eq!(m.get_time(10.0), SimDuration::from_secs_f64(1.5));
        assert_eq!(m.put_time(10.0), SimDuration::from_secs(2));
    }

    #[test]
    fn zero_size_costs_only_latency() {
        let m = TransferModel::aws_like();
        assert_eq!(m.get_time(0.0), SimDuration::from_secs_f64(0.025));
    }

    #[test]
    fn secs_and_time_agree() {
        let m = TransferModel::aws_like();
        assert!((m.get_secs(12.0) - m.get_time(12.0).as_secs_f64()).abs() < 1e-6);
    }
}

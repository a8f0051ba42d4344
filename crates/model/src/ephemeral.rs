//! Alternative intermediate (ephemeral) storage — the paper's Discussion
//! extension.
//!
//! The paper: "Astra relies on S3 for the exchange of intermediate data.
//! When other types of data storage are considered … such as serverless
//! in-memory data storage (AWS ElastiCache), our modeling needs to be
//! adjusted by analyzing the characteristics and cost of the particular
//! storage." This module is that adjustment, in the style of
//! Locus [Pu et al., NSDI'19]: a provisioned in-memory tier with
//! microsecond-scale request latency and *rental* (per-hour) pricing
//! instead of per-request/per-byte-month pricing.
//!
//! Job input objects always live in S3 (they are persistent); only the
//! *ephemeral* objects — shuffle output, state objects, reduce
//! intermediates and the final result — move to the configured store.
//!
//! Rental pricing preserves the planner DAG's exactness: the rent is
//! `rate × JCT`, and since every second of the modelled JCT lies on
//! exactly one DAG edge, each edge simply carries `rate × its time
//! metric` of extra cost.

use astra_pricing::Money;
use serde::{Deserialize, Serialize};

/// An intermediate-data store's performance and billing characteristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntermediateStorage {
    /// Display name ("elasticache", …).
    pub name: String,
    /// First-byte latency of a read, seconds.
    pub get_latency_s: f64,
    /// First-byte latency of a write, seconds.
    pub put_latency_s: f64,
    /// Store-side aggregate bandwidth cap per client, MB/s. The effective
    /// rate of a transfer is the minimum of this and the function's own
    /// NIC bandwidth.
    pub bandwidth_mbps: f64,
    /// Charge per read request (0 for rented stores).
    pub per_get: Money,
    /// Charge per write request.
    pub per_put: Money,
    /// Storage charge per GB-month (0 for rented stores — capacity is
    /// what the rent buys).
    pub storage_gb_month_dollars: f64,
    /// Rental rate for the provisioned cluster, per hour (0 for
    /// pay-per-use stores like S3).
    pub rental_per_hour: Money,
}

impl IntermediateStorage {
    /// A Redis-like in-memory tier: two `cache.r5.large`-class nodes
    /// (~$0.216/h each), ~1 ms request latency, no per-request or
    /// per-byte charges.
    pub fn elasticache() -> Self {
        IntermediateStorage {
            name: "elasticache".to_string(),
            get_latency_s: 0.001,
            put_latency_s: 0.001,
            bandwidth_mbps: 250.0,
            per_get: Money::ZERO,
            per_put: Money::ZERO,
            storage_gb_month_dollars: 0.0,
            rental_per_hour: Money::from_micros(432_000), // 2 x $0.216
        }
    }

    /// Rental charge for keeping the store up for `secs` seconds.
    pub fn rental_cost(&self, secs: f64) -> Money {
        self.rental_per_hour.scale(secs / 3600.0)
    }

    /// Rental charged per modelled second (the per-edge rate).
    pub fn rental_per_second(&self) -> Money {
        self.rental_per_hour.scale(1.0 / 3600.0)
    }

    /// Storage charge for `size_mb` held `secs` seconds.
    pub fn storage_cost(&self, size_mb: f64, secs: f64) -> Money {
        if self.storage_gb_month_dollars == 0.0 {
            return Money::ZERO;
        }
        let gb_months = (size_mb / 1024.0) * secs / (30.0 * 24.0 * 3600.0);
        Money::from_dollars_f64(self.storage_gb_month_dollars).scale(gb_months)
    }

    /// [`IntermediateStorage::storage_cost`] of one second, in
    /// nanodollars, before rounding (0 for rented stores).
    pub fn storage_nanos_per_s(&self, size_mb: f64) -> f64 {
        Money::from_dollars_f64(self.storage_gb_month_dollars).nanos() as f64 * (size_mb / 1024.0)
            / (30.0 * 24.0 * 3600.0)
    }

    /// [`IntermediateStorage::rental_cost`] of one second, in
    /// nanodollars, before rounding.
    pub fn rental_nanos_per_s(&self) -> f64 {
        self.rental_per_hour.nanos() as f64 / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elasticache_bills_rent_not_requests() {
        let c = IntermediateStorage::elasticache();
        assert_eq!(c.per_get, Money::ZERO);
        assert_eq!(c.per_put, Money::ZERO);
        assert_eq!(c.storage_cost(1000.0, 3600.0), Money::ZERO);
        // One hour of 2 nodes = $0.432.
        assert_eq!(c.rental_cost(3600.0), Money::from_dollars_f64(0.432));
    }

    #[test]
    fn rental_per_second_sums_to_hourly() {
        let c = IntermediateStorage::elasticache();
        let per_s = c.rental_per_second();
        let hour = per_s * 3600u64;
        let err = (hour - c.rental_per_hour).nanos().abs();
        assert!(err < 3600, "rounding drift {err}");
    }

    #[test]
    fn cache_latency_is_millisecond_scale() {
        let c = IntermediateStorage::elasticache();
        assert!(c.get_latency_s < 0.01);
        assert!(c.bandwidth_mbps > 100.0);
    }
}

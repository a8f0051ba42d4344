//! Amazon S3 pricing (standard tier, 2020 price sheet as quoted in the paper).

use serde::{Deserialize, Serialize};

use crate::money::Money;

/// S3 request and storage pricing.
///
/// The paper (Eq. 10) quotes $0.005 per 1 000 PUT requests and $0.004 per
/// 10 000 GET requests. Storage is the standard-tier $0.023 per GB-month;
/// the paper's storage terms (Eq. 11) charge size × duration × unit price,
/// so we expose the per-MB-second rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct S3Pricing {
    /// Charge per PUT/COPY/POST/LIST request (`F` in the paper).
    pub per_put: Money,
    /// Charge per GET/SELECT request (`G` in the paper).
    pub per_get: Money,
    /// Storage sticker price per GB-month (`H` in the paper derives from
    /// this).
    pub gb_month_dollars: f64,
}

/// Seconds in the 30-day month AWS uses for storage billing.
pub const SECONDS_PER_MONTH: f64 = 30.0 * 24.0 * 3600.0;

impl S3Pricing {
    /// The 2020 standard-tier price sheet used by the paper.
    pub fn aws_2020() -> Self {
        // $0.023 per GB-month -> per MB-second:
        // 0.023 / 1024 / (30*24*3600) dollars = 8.665 nano-dollars per
        // MB-month ... in nano-dollars per MB-second:
        // 0.023e9 / 1024 / 2_592_000 ≈ 0.008666 nano$, below integer
        // resolution per second; we therefore store a per-(MB * 1000s)
        // figure via scale() at charge time instead. Keep the exact
        // per-MB-second value in femto-dollars? Simpler: store nano-dollars
        // per MB-second as computed at charge time from the sticker price.
        S3Pricing {
            per_put: Money::from_nanos(5_000),
            per_get: Money::from_nanos(400),
            gb_month_dollars: 0.023,
        }
    }

    /// Google Cloud Storage (standard, 2020): class-A ops (writes)
    /// $0.05/10k, class-B ops (reads) $0.004/10k, storage $0.020/GB-month.
    pub fn gcs_2020() -> Self {
        S3Pricing {
            per_put: Money::from_nanos(5_000),
            per_get: Money::from_nanos(400),
            gb_month_dollars: 0.020,
        }
    }

    /// Azure Blob Storage (hot, 2020): writes $0.055/10k, reads
    /// $0.0044/10k, storage $0.0184/GB-month.
    pub fn azure_blob_2020() -> Self {
        S3Pricing {
            per_put: Money::from_nanos(5_500),
            per_get: Money::from_nanos(440),
            gb_month_dollars: 0.0184,
        }
    }

    /// Cost of `n` PUT requests.
    pub fn put_cost(&self, n: u64) -> Money {
        self.per_put * n
    }

    /// Cost of `n` GET requests.
    pub fn get_cost(&self, n: u64) -> Money {
        self.per_get * n
    }

    /// Cost of storing `size_mb` megabytes for `duration_us` microseconds.
    ///
    /// Computed from the exact sticker price rather than the rounded
    /// per-MB-second field so that long-lived multi-GB objects are billed
    /// accurately.
    pub fn storage_cost(&self, size_mb: f64, duration_us: u64) -> Money {
        let gb_months = (size_mb / 1024.0) * (duration_us as f64 / 1e6) / SECONDS_PER_MONTH;
        Money::from_dollars_f64(self.gb_month_dollars).scale(gb_months)
    }

    /// The storage price of `size_mb` megabytes in nanodollars per
    /// second: [`S3Pricing::storage_cost`] of `d` microseconds is this
    /// rate times `d / 1e6`, up to a few ulps of float arithmetic and
    /// the rounding of its result to the nearest nanodollar.
    pub fn storage_nanos_per_s(&self, size_mb: f64) -> f64 {
        Money::from_dollars_f64(self.gb_month_dollars).nanos() as f64 * (size_mb / 1024.0)
            / SECONDS_PER_MONTH
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_prices_match_paper() {
        let p = S3Pricing::aws_2020();
        // 1000 PUTs = $0.005
        assert_eq!(p.put_cost(1_000), Money::from_dollars_f64(0.005));
        // 10000 GETs = $0.004
        assert_eq!(p.get_cost(10_000), Money::from_dollars_f64(0.004));
    }

    #[test]
    fn storing_one_gb_for_a_month_costs_sticker_price() {
        let p = S3Pricing::aws_2020();
        let us_per_month = (SECONDS_PER_MONTH * 1e6) as u64;
        let cost = p.storage_cost(1024.0, us_per_month);
        let expected = Money::from_dollars_f64(0.023);
        let err = (cost - expected).nanos().abs();
        assert!(err < 10, "cost {cost} expected {expected}");
    }

    #[test]
    fn storage_cost_is_monotone_in_duration() {
        let p = S3Pricing::aws_2020();
        let short = p.storage_cost(100.0, 1_000_000);
        let long = p.storage_cost(100.0, 100_000_000);
        assert!(long > short);
    }

    #[test]
    fn zero_requests_cost_nothing() {
        let p = S3Pricing::aws_2020();
        assert_eq!(p.put_cost(0), Money::ZERO);
        assert_eq!(p.get_cost(0), Money::ZERO);
        assert_eq!(p.storage_cost(0.0, 1_000_000), Money::ZERO);
    }
}

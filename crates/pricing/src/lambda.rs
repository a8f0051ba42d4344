//! AWS Lambda pricing as of the paper's evaluation (2020 price sheet).

use serde::{Deserialize, Serialize};

use crate::money::Money;

/// Lambda pricing: invocation charge plus a GB-second runtime charge with a
/// billing-duration rounding granularity.
///
/// The paper quotes "$0.20 per 1 million requests" for invocations (Sec.
/// III-B3). The runtime charge in the 2020 price sheet was
/// $0.0000166667 per GB-second, billed in 100 ms increments (AWS moved to
/// 1 ms rounding in Dec 2020; the paper's experiments predate that, so the
/// default here is 100 ms and it is configurable).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LambdaPricing {
    /// Charge per single invocation.
    pub per_invocation: Money,
    /// Charge per GB-second of billed duration.
    pub per_gb_second: Money,
    /// Billing rounds duration *up* to a multiple of this many microseconds.
    pub billing_granularity_us: u64,
}

impl LambdaPricing {
    /// The 2020 AWS price sheet used by the paper.
    pub fn aws_2020() -> Self {
        LambdaPricing {
            // $0.20 per 1e6 requests = 200 nano-dollars per request.
            per_invocation: Money::from_nanos(200),
            // $0.0000166667 per GB-s = 16 666.7 nano-dollars; store the
            // common exact figure of $16.6667e-6.
            per_gb_second: Money::from_nanos(16_667),
            billing_granularity_us: 100_000,
        }
    }

    /// Google Cloud Functions (gen-1, 2020): $0.40 per million
    /// invocations; compute billed as memory (GB-s) plus CPU (GHz-s)
    /// where CPU is coupled to the memory tier — folded here into an
    /// effective $16.5e-6 per GB-s. Billed in 100 ms increments.
    pub fn gcp_2020() -> Self {
        LambdaPricing {
            per_invocation: Money::from_nanos(400),
            per_gb_second: Money::from_nanos(16_500),
            billing_granularity_us: 100_000,
        }
    }

    /// Azure Functions consumption plan (2020): $0.20 per million
    /// executions, $16e-6 per GB-s, billed per 1 ms with a 100 ms
    /// minimum (approximated here as 1 ms rounding).
    pub fn azure_2020() -> Self {
        LambdaPricing {
            per_invocation: Money::from_nanos(200),
            per_gb_second: Money::from_nanos(16_000),
            billing_granularity_us: 1_000,
        }
    }

    /// Round a raw duration up to the billing granularity.
    pub fn billed_duration_us(&self, duration_us: u64) -> u64 {
        if self.billing_granularity_us <= 1 {
            return duration_us;
        }
        duration_us.div_ceil(self.billing_granularity_us) * self.billing_granularity_us
    }

    /// Runtime charge for one invocation of a lambda with `memory_mb` of
    /// memory running for `duration_us` (pre-rounding) microseconds.
    pub fn runtime_cost(&self, memory_mb: u32, duration_us: u64) -> Money {
        self.billed_cost(memory_mb, self.billed_duration_us(duration_us))
    }

    /// Runtime charge for an already-rounded billed duration.
    fn billed_cost(&self, memory_mb: u32, billed_us: u64) -> Money {
        let gb_seconds = (memory_mb as f64 / 1024.0) * (billed_us as f64 / 1e6);
        self.per_gb_second.scale(gb_seconds)
    }

    /// A [`BillingCursor`] pricing a nondecreasing run of durations at
    /// one memory tier.
    pub fn billing_cursor(&self, memory_mb: u32) -> BillingCursor<'_> {
        BillingCursor {
            pricing: self,
            memory_mb,
            bound_us: f64::NEG_INFINITY,
            cost: Money::ZERO,
        }
    }

    /// Total charge (invocation + runtime) for one invocation.
    pub fn invocation_cost(&self, memory_mb: u32, duration_us: u64) -> Money {
        self.per_invocation + self.runtime_cost(memory_mb, duration_us)
    }
}

/// Prices durations fed in nondecreasing order at one memory tier,
/// re-running the billing model only when a duration leaves the current
/// billing bucket.
///
/// [`BillingCursor::runtime_cost_us`] equals
/// `runtime_cost(memory_mb, duration_us.round() as u64)` exactly. After
/// pricing a duration billed as `b` microseconds, the cursor keeps the
/// bound `b + 0.5` and that cost. A later duration `x` (no smaller than
/// the earlier one) with `x < b + 0.5` bills the same:
///
/// * `round` rounds half away from zero, so `x < b + 0.5` means `x`
///   rounds to at most `b`, and since the earlier duration was no larger,
///   to at least what it rounded to;
/// * rounding up to the granularity is monotone, and both ends of that
///   range bill as `b`, so `x` does too.
///
/// `b + 0.5` is exact in `f64` for every `b` below 2^52 µs (143 years),
/// so the comparison is exact too; above that the cursor always reprices.
#[derive(Debug, Clone)]
pub struct BillingCursor<'a> {
    pricing: &'a LambdaPricing,
    memory_mb: u32,
    /// Durations strictly below this bill as the current bucket.
    bound_us: f64,
    cost: Money,
}

impl BillingCursor<'_> {
    /// Runtime charge for a duration of `duration_us` microseconds
    /// (before rounding to whole microseconds). Durations must arrive in
    /// nondecreasing order.
    pub fn runtime_cost_us(&mut self, duration_us: f64) -> Money {
        if duration_us < self.bound_us {
            return self.cost;
        }
        let p = self.pricing;
        let billed_us = p.billed_duration_us(duration_us.round() as u64);
        self.bound_us = if billed_us < 1 << 52 {
            billed_us as f64 + 0.5
        } else {
            f64::NEG_INFINITY
        };
        self.cost = p.billed_cost(self.memory_mb, billed_us);
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn billed_duration_rounds_up_to_100ms() {
        let p = LambdaPricing::aws_2020();
        assert_eq!(p.billed_duration_us(1), 100_000);
        assert_eq!(p.billed_duration_us(100_000), 100_000);
        assert_eq!(p.billed_duration_us(100_001), 200_000);
        assert_eq!(p.billed_duration_us(0), 0);
    }

    #[test]
    fn one_second_of_one_gb_costs_the_listed_rate() {
        let p = LambdaPricing::aws_2020();
        let cost = p.runtime_cost(1024, 1_000_000);
        assert_eq!(cost, Money::from_nanos(16_667));
    }

    #[test]
    fn runtime_cost_scales_with_memory() {
        let p = LambdaPricing::aws_2020();
        let small = p.runtime_cost(128, 1_000_000);
        let big = p.runtime_cost(3008, 1_000_000);
        // 3008/128 = 23.5x
        let ratio = big.nanos() as f64 / small.nanos() as f64;
        assert!((ratio - 23.5).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn invocation_charge_is_200_nanos() {
        let p = LambdaPricing::aws_2020();
        assert_eq!(p.invocation_cost(128, 0), Money::from_nanos(200));
    }

    #[test]
    fn billing_cursor_matches_runtime_cost() {
        for granularity_us in [1, 1_000, 100_000] {
            let p = LambdaPricing {
                billing_granularity_us: granularity_us,
                ..LambdaPricing::aws_2020()
            };
            // Bucket edges, ±0.5 µs and one ulp either side of those,
            // and points between edges — in nondecreasing order.
            let mut durations = vec![0.0, 0.2, 0.5];
            for k in 1..=40u64 {
                let edge = (k * granularity_us) as f64;
                for x in [edge - 0.5, edge, edge + 0.5] {
                    durations.extend([x.next_down(), x, x.next_up()]);
                }
                durations.push(edge + 0.3 * granularity_us as f64);
            }
            durations.sort_by(f64::total_cmp);
            for mem in [128, 1792, 3008] {
                let mut cursor = p.billing_cursor(mem);
                for &x in &durations {
                    // Twice: a repeated duration reuses the bucket.
                    for _ in 0..2 {
                        assert_eq!(
                            cursor.runtime_cost_us(x),
                            p.runtime_cost(mem, x.round() as u64),
                            "granularity {granularity_us} µs, {mem} MB, {x} µs"
                        );
                    }
                }
                // Seconds scaled by 1e6, as the cost model feeds it.
                let mut cursor = p.billing_cursor(mem);
                for secs in (0..5_000).map(|i| i as f64 * 0.000_731) {
                    let us = secs * 1e6;
                    assert_eq!(
                        cursor.runtime_cost_us(us),
                        p.runtime_cost(mem, us.round() as u64)
                    );
                }
            }
        }
    }

    #[test]
    fn millisecond_granularity_bills_exactly() {
        let p = LambdaPricing {
            billing_granularity_us: 1,
            ..LambdaPricing::aws_2020()
        };
        assert_eq!(p.billed_duration_us(123_456), 123_456);
    }
}

//! HyperLogLog distinct counting (Flajolet, Fusy, Gandouet, Meunier 2007)
//! with the standard small-range (linear counting) correction.

use crate::hash::hash64;

/// Hash seed fixed so that independently-built sketches merge correctly.
const HLL_SEED: u64 = 0x48_4c_4c; // "HLL"

/// A HyperLogLog sketch with `2^precision` registers.
///
/// Standard error ≈ 1.04 / √(2^precision): precision 12 (4096 registers,
/// 4 KB) gives ~1.6 %. Merging is a per-register `max` — associative,
/// commutative and idempotent, so any reduce-tree shape the coordinator
/// schedules yields the same estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// A sketch with `2^precision` registers; `precision` in 4..=16.
    pub fn new(precision: u8) -> Self {
        assert!((4..=16).contains(&precision), "precision must be 4..=16");
        HyperLogLog {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// The precision parameter.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Observe one item.
    pub fn insert(&mut self, item: &[u8]) {
        let h = hash64(item, HLL_SEED);
        let idx = (h >> (64 - self.precision)) as usize;
        // Rank = position of the first 1-bit in the remaining bits.
        let rest = h << self.precision;
        let rank = (rest.leading_zeros() as u8 + 1).min(64 - self.precision + 1);
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Merge another sketch of the same precision into this one.
    ///
    /// Panics on precision mismatch — merging differently-sized sketches
    /// silently would corrupt the estimate.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge sketches of different precision"
        );
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// Estimated number of distinct items observed.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        // Small-range correction: linear counting while registers are
        // sparsely populated.
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Serialize to a single ASCII line: `precision:hex-registers`.
    pub fn to_line(&self) -> String {
        let mut out = format!("{}:", self.precision);
        for &r in &self.registers {
            out.push_str(&format!("{r:02x}"));
        }
        out
    }

    /// Parse the [`to_line`](Self::to_line) format.
    pub fn from_line(line: &str) -> Option<HyperLogLog> {
        let (p, regs) = line.split_once(':')?;
        let precision: u8 = p.parse().ok()?;
        if !(4..=16).contains(&precision) {
            return None;
        }
        let expected = 1usize << precision;
        if regs.len() != expected * 2 {
            return None;
        }
        let mut registers = Vec::with_capacity(expected);
        for i in 0..expected {
            registers.push(u8::from_str_radix(&regs[i * 2..i * 2 + 2], 16).ok()?);
        }
        Some(HyperLogLog {
            precision,
            registers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn filled(range: std::ops::Range<u64>, precision: u8) -> HyperLogLog {
        let mut h = HyperLogLog::new(precision);
        for i in range {
            h.insert(&i.to_le_bytes());
        }
        h
    }

    #[test]
    fn estimates_within_expected_error() {
        for &n in &[100u64, 1_000, 10_000, 100_000] {
            let h = filled(0..n, 12);
            let est = h.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            // 1.04/sqrt(4096) ≈ 1.6%; allow 5 sigma.
            assert!(rel < 0.08, "n={n}: estimate {est} (rel {rel})");
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::new(10);
        for _ in 0..100 {
            for i in 0..50u64 {
                h.insert(&i.to_le_bytes());
            }
        }
        let est = h.estimate();
        assert!((est - 50.0).abs() < 10.0, "estimate {est}");
    }

    #[test]
    fn merge_equals_union() {
        // Overlapping ranges: 0..6000 and 4000..10000 → 10000 distinct.
        let mut a = filled(0..6_000, 12);
        let b = filled(4_000..10_000, 12);
        a.merge(&b);
        let est = a.estimate();
        let rel = (est - 10_000.0).abs() / 10_000.0;
        assert!(rel < 0.08, "estimate {est}");
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = filled(0..1_000, 12);
        let snapshot = a.clone();
        let b = snapshot.clone();
        a.merge(&b);
        assert_eq!(a, snapshot);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn precision_mismatch_panics() {
        let mut a = HyperLogLog::new(10);
        let b = HyperLogLog::new(12);
        a.merge(&b);
    }

    #[test]
    fn line_roundtrip() {
        let h = filled(0..5_000, 12);
        let line = h.to_line();
        let parsed = HyperLogLog::from_line(&line).unwrap();
        assert_eq!(parsed, h);
        assert!(HyperLogLog::from_line("garbage").is_none());
        assert!(HyperLogLog::from_line("12:zz").is_none());
    }

    proptest! {
        /// The merge law the MapReduce coordinator relies on: any tree
        /// shape gives the same sketch.
        #[test]
        fn merge_is_associative_and_commutative(
            xs in proptest::collection::vec(0u64..5_000, 1..300),
            ys in proptest::collection::vec(0u64..5_000, 1..300),
            zs in proptest::collection::vec(0u64..5_000, 1..300),
        ) {
            let sk = |v: &Vec<u64>| {
                let mut h = HyperLogLog::new(8);
                for x in v {
                    h.insert(&x.to_le_bytes());
                }
                h
            };
            let (a, b, c) = (sk(&xs), sk(&ys), sk(&zs));
            // (a ∪ b) ∪ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ∪ (c ∪ b)
            let mut right = c.clone();
            right.merge(&b);
            right.merge(&a);
            prop_assert_eq!(left, right);
        }

        #[test]
        fn estimate_is_monotone_under_merge(
            xs in proptest::collection::vec(0u64..10_000, 1..500),
            ys in proptest::collection::vec(10_000u64..20_000, 1..500),
        ) {
            let mut a = HyperLogLog::new(10);
            for x in &xs {
                a.insert(&x.to_le_bytes());
            }
            let before = a.estimate();
            let mut b = HyperLogLog::new(10);
            for y in &ys {
                b.insert(&y.to_le_bytes());
            }
            a.merge(&b);
            prop_assert!(a.estimate() >= before - 1e-9);
        }
    }
}

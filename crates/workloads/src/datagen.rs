//! Seeded synthetic data generators for the byte-level runs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generate roughly `target_bytes` of whitespace-separated text with a
/// Zipf-distributed vocabulary — the natural-language shape Wordcount
/// cares about (a few very frequent words, a long tail).
pub fn zipf_text(seed: u64, target_bytes: usize, vocabulary: usize) -> Vec<u8> {
    assert!(vocabulary > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    // Zipf(s = 1.1) cumulative weights over "w0".."w{V-1}".
    let s = 1.1;
    let mut cumulative = Vec::with_capacity(vocabulary);
    let mut total = 0.0;
    for rank in 1..=vocabulary {
        total += 1.0 / (rank as f64).powf(s);
        cumulative.push(total);
    }
    let mut out = Vec::with_capacity(target_bytes + 16);
    while out.len() < target_bytes {
        let u: f64 = rng.random::<f64>() * total;
        let idx = cumulative.partition_point(|&c| c < u);
        out.extend_from_slice(format!("w{idx}").as_bytes());
        out.push(b' ');
    }
    out
}

/// Length of one sort record: 10-byte key + 90-byte payload, newline-free
/// (the gensort convention the sort benchmark uses).
pub const SORT_RECORD_LEN: usize = 100;

/// Generate `n` fixed-width sort records with random alphanumeric keys.
pub fn sort_records(seed: u64, n: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * SORT_RECORD_LEN);
    for i in 0..n {
        for _ in 0..10 {
            out.push(ALPHABET[rng.random_range(0..ALPHABET.len())]);
        }
        // Deterministic payload tagging the record's origin, padded to 90.
        let payload = format!("payload-{i:016}");
        let mut body = payload.into_bytes();
        body.resize(SORT_RECORD_LEN - 10, b'.');
        out.extend_from_slice(&body);
    }
    out
}

/// One synthetic `uservisits` row in the AMPLab big-data-benchmark schema:
/// `sourceIP,destURL,visitDate,adRevenue,userAgent,countryCode,
/// languageCode,searchWord,duration`.
fn uservisits_row(rng: &mut StdRng, out: &mut Vec<u8>) {
    let ip = format!(
        "{}.{}.{}.{}",
        rng.random_range(1..224u16),
        rng.random_range(0..256u16),
        rng.random_range(0..256u16),
        rng.random_range(1..255u16)
    );
    let url = format!(
        "url{}.example.com/page{}",
        rng.random_range(0..1000u32),
        rng.random_range(0..100u32)
    );
    let date = format!(
        "20{:02}-{:02}-{:02}",
        rng.random_range(0..20u8),
        rng.random_range(1..13u8),
        rng.random_range(1..29u8)
    );
    // Ad revenue in whole cents so aggregation is exact.
    let revenue_cents: u32 = rng.random_range(1..100_000);
    let row = format!(
        "{ip},{url},{date},{}.{:02},agent{},{},{},word{},{}\n",
        revenue_cents / 100,
        revenue_cents % 100,
        rng.random_range(0..50u8),
        ["US", "DE", "CN", "IN", "BR"][rng.random_range(0..5usize)],
        ["en", "de", "zh", "hi", "pt"][rng.random_range(0..5usize)],
        rng.random_range(0..1000u32),
        rng.random_range(1..600u32),
    );
    out.extend_from_slice(row.as_bytes());
}

/// Generate roughly `target_bytes` of uservisits CSV.
pub fn uservisits(seed: u64, target_bytes: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(target_bytes + 128);
    while out.len() < target_bytes {
        uservisits_row(&mut rng, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn zipf_text_is_seeded_and_skewed() {
        let a = zipf_text(1, 20_000, 1000);
        let b = zipf_text(1, 20_000, 1000);
        assert_eq!(a, b, "same seed, same text");
        let c = zipf_text(2, 20_000, 1000);
        assert_ne!(a, c);

        let text = String::from_utf8(a).unwrap();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for w in text.split_whitespace() {
            *counts.entry(w).or_default() += 1;
        }
        // Zipf: the most frequent word dominates the median one.
        let max = counts.values().max().unwrap();
        let w0 = counts.get("w0").copied().unwrap_or(0);
        assert!(w0 * 2 >= *max, "w0 should be (near-)modal");
        assert!(*max > 20 * counts.values().sum::<usize>() / counts.len() / 2);
    }

    #[test]
    fn sort_records_have_fixed_width() {
        let data = sort_records(7, 50);
        assert_eq!(data.len(), 50 * SORT_RECORD_LEN);
        // Keys are alphanumeric.
        for rec in data.chunks(SORT_RECORD_LEN) {
            assert!(rec[..10].iter().all(|b| b.is_ascii_alphanumeric()));
        }
        assert_eq!(sort_records(7, 50), data);
    }

    #[test]
    fn uservisits_rows_have_nine_columns() {
        let data = uservisits(3, 10_000);
        let text = String::from_utf8(data).unwrap();
        let mut rows = 0;
        for line in text.lines() {
            assert_eq!(line.split(',').count(), 9, "bad row: {line}");
            rows += 1;
        }
        assert!(rows > 50);
    }

    #[test]
    fn uservisits_revenue_parses_as_cents() {
        let data = uservisits(4, 5_000);
        let text = String::from_utf8(data).unwrap();
        for line in text.lines() {
            let revenue = line.split(',').nth(3).unwrap();
            let (dollars, cents) = revenue.split_once('.').unwrap();
            dollars.parse::<u64>().unwrap();
            assert_eq!(cents.len(), 2);
            cents.parse::<u64>().unwrap();
        }
    }
}

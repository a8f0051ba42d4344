//! Byte-level implementations of the three benchmark applications.

use std::collections::BTreeMap;

use astra_mapreduce::MapReduceApp;
use bytes::Bytes;

use crate::datagen::SORT_RECORD_LEN;

/// Wordcount: map tokenises text into a `word\tcount` table; reduce merges
/// tables by summing counts. Exactly associative and commutative.
#[derive(Debug, Default)]
pub struct WordCountApp;

impl WordCountApp {
    fn parse_table(bytes: &[u8]) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let text = std::str::from_utf8(line).expect("wordcount tables are UTF-8");
            let (word, count) = text.rsplit_once('\t').expect("word\\tcount");
            *out.entry(word.to_string()).or_default() +=
                count.parse::<u64>().expect("numeric count");
        }
        out
    }

    fn serialize_table(table: &BTreeMap<String, u64>) -> Vec<u8> {
        let mut out = Vec::new();
        for (word, count) in table {
            out.extend_from_slice(word.as_bytes());
            out.push(b'\t');
            out.extend_from_slice(count.to_string().as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Reference single-pass count, for validating distributed runs.
    pub fn reference_count(text: &[u8]) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for word in text
            .split(|b| b.is_ascii_whitespace())
            .filter(|w| !w.is_empty())
        {
            let word = String::from_utf8(word.to_vec()).expect("UTF-8 text");
            *out.entry(word).or_default() += 1;
        }
        out
    }
}

impl MapReduceApp for WordCountApp {
    fn name(&self) -> &str {
        "wordcount"
    }

    fn map(&self, input: &[u8]) -> Vec<u8> {
        Self::serialize_table(&Self::reference_count(input))
    }

    fn reduce(&self, inputs: &[Bytes]) -> Vec<u8> {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for input in inputs {
            for (word, count) in Self::parse_table(input) {
                *merged.entry(word).or_default() += count;
            }
        }
        Self::serialize_table(&merged)
    }
}

/// Sort: map sorts its fixed-width records; reduce k-way-merges sorted
/// runs. With the single-pass schedule each final reducer emits one
/// sorted run (range partitioning is what would make the concatenation
/// globally sorted; per-run sortedness and record conservation are what
/// the tests check, matching what the timing model measures).
#[derive(Debug)]
pub struct SortApp {
    record_len: usize,
}

impl Default for SortApp {
    fn default() -> Self {
        SortApp {
            record_len: SORT_RECORD_LEN,
        }
    }
}

impl SortApp {
    /// A sorter for records of `record_len` bytes (key = first 10).
    pub fn with_record_len(record_len: usize) -> Self {
        assert!(record_len > 0);
        SortApp { record_len }
    }

    fn records<'a>(&self, data: &'a [u8]) -> Vec<&'a [u8]> {
        assert_eq!(
            data.len() % self.record_len,
            0,
            "input is not whole records"
        );
        data.chunks(self.record_len).collect()
    }

    /// Check that `data` consists of whole records in non-decreasing order.
    pub fn is_sorted(&self, data: &[u8]) -> bool {
        let recs = self.records(data);
        recs.windows(2).all(|w| w[0] <= w[1])
    }
}

impl MapReduceApp for SortApp {
    fn name(&self) -> &str {
        "sort"
    }

    fn map(&self, input: &[u8]) -> Vec<u8> {
        let mut recs = self.records(input);
        recs.sort_unstable();
        recs.concat()
    }

    fn reduce(&self, inputs: &[Bytes]) -> Vec<u8> {
        // K-way merge of sorted runs via a cursor per run.
        let runs: Vec<Vec<&[u8]>> = inputs.iter().map(|i| self.records(i)).collect();
        let total: usize = runs.iter().map(Vec::len).sum();
        let mut cursors = vec![0usize; runs.len()];
        let mut out = Vec::with_capacity(total * self.record_len);
        for _ in 0..total {
            let next = (0..runs.len())
                .filter(|&r| cursors[r] < runs[r].len())
                .min_by_key(|&r| runs[r][cursors[r]])
                .expect("total accounts for every record");
            out.extend_from_slice(runs[next][cursors[next]]);
            cursors[next] += 1;
        }
        out
    }
}

/// The aggregation query (AMPLab benchmark query 2 shape):
/// `SELECT SUBSTR(sourceIP, 1, 8), SUM(adRevenue) FROM uservisits
/// GROUP BY SUBSTR(sourceIP, 1, 8)`. Revenue is carried in integer cents
/// so merging is exact and associative.
#[derive(Debug, Default)]
pub struct QueryApp;

impl QueryApp {
    /// IP-prefix length of the GROUP BY key.
    pub const PREFIX_LEN: usize = 8;

    fn parse_aggregates(bytes: &[u8]) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let text = std::str::from_utf8(line).expect("aggregates are UTF-8");
            let (key, cents) = text.rsplit_once('\t').expect("key\\tcents");
            *out.entry(key.to_string()).or_default() +=
                cents.parse::<u64>().expect("numeric cents");
        }
        out
    }

    fn serialize_aggregates(table: &BTreeMap<String, u64>) -> Vec<u8> {
        let mut out = Vec::new();
        for (key, cents) in table {
            out.extend_from_slice(key.as_bytes());
            out.push(b'\t');
            out.extend_from_slice(cents.to_string().as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Reference single-pass aggregation over raw uservisits CSV.
    pub fn reference_aggregate(csv: &[u8]) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let text = std::str::from_utf8(csv).expect("UTF-8 CSV");
        for line in text.lines() {
            let mut cols = line.split(',');
            let ip = cols.next().expect("sourceIP");
            let revenue = cols.nth(2).expect("adRevenue");
            let (dollars, cents) = revenue.split_once('.').expect("d.cc");
            let total_cents = dollars.parse::<u64>().unwrap() * 100 + cents.parse::<u64>().unwrap();
            let key: String = ip.chars().take(Self::PREFIX_LEN).collect();
            *out.entry(key).or_default() += total_cents;
        }
        out
    }
}

impl MapReduceApp for QueryApp {
    fn name(&self) -> &str {
        "query"
    }

    fn map(&self, input: &[u8]) -> Vec<u8> {
        Self::serialize_aggregates(&Self::reference_aggregate(input))
    }

    fn reduce(&self, inputs: &[Bytes]) -> Vec<u8> {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for input in inputs {
            for (key, cents) in Self::parse_aggregates(input) {
                *merged.entry(key).or_default() += cents;
            }
        }
        Self::serialize_aggregates(&merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use proptest::prelude::*;

    #[test]
    fn wordcount_map_counts() {
        let app = WordCountApp;
        let out = app.map(b"a b a c a b");
        assert_eq!(out, b"a\t3\nb\t2\nc\t1\n");
    }

    #[test]
    fn wordcount_reduce_merges() {
        let app = WordCountApp;
        let merged = app.reduce(&[
            Bytes::from_static(b"a\t3\nb\t1\n"),
            Bytes::from_static(b"a\t2\nc\t5\n"),
        ]);
        assert_eq!(merged, b"a\t5\nb\t1\nc\t5\n");
    }

    #[test]
    fn sort_map_sorts_and_preserves_records() {
        let app = SortApp::with_record_len(4);
        let out = app.map(b"zzz1aaa2mmm3");
        assert_eq!(out, b"aaa2mmm3zzz1");
        assert!(app.is_sorted(&out));
    }

    #[test]
    fn sort_reduce_merges_runs() {
        let app = SortApp::with_record_len(2);
        let merged = app.reduce(&[Bytes::from_static(b"acex"), Bytes::from_static(b"bdfy")]);
        // Records: "ac","ex" merged with "bd","fy" -> ac, bd, ex, fy.
        assert_eq!(merged, b"acbdexfy");
        assert!(app.is_sorted(&merged));
    }

    #[test]
    fn query_reference_matches_map_reduce_single() {
        let csv = datagen::uservisits(11, 4_000);
        let app = QueryApp;
        let mapped = app.map(&csv);
        let reduced = app.reduce(&[Bytes::from(mapped)]);
        let reference = QueryApp::reference_aggregate(&csv);
        assert_eq!(QueryApp::parse_aggregates(&reduced), reference);
    }

    proptest! {
        /// Associativity: reducing in two different tree shapes gives the
        /// same result (the coordinator may pick any step schedule).
        #[test]
        fn wordcount_reduce_is_associative(seed in 0u64..50) {
            let app = WordCountApp;
            let parts: Vec<Bytes> = (0..4)
                .map(|i| Bytes::from(app.map(&datagen::zipf_text(seed + i, 2_000, 50))))
                .collect();
            let flat = app.reduce(&parts);
            let left = app.reduce(&[
                Bytes::from(app.reduce(&parts[..2])),
                Bytes::from(app.reduce(&parts[2..])),
            ]);
            prop_assert_eq!(flat, left);
        }

        #[test]
        fn sort_reduce_is_associative(seed in 0u64..50) {
            let app = SortApp::default();
            let parts: Vec<Bytes> = (0..3)
                .map(|i| Bytes::from(app.map(&datagen::sort_records(seed + i, 30))))
                .collect();
            let flat = app.reduce(&parts);
            let nested = app.reduce(&[
                Bytes::from(app.reduce(&parts[..2])),
                parts[2].clone(),
            ]);
            prop_assert_eq!(&flat, &nested);
            prop_assert!(app.is_sorted(&flat));
        }

        #[test]
        fn query_reduce_is_associative(seed in 0u64..50) {
            let app = QueryApp;
            let parts: Vec<Bytes> = (0..4)
                .map(|i| Bytes::from(app.map(&datagen::uservisits(seed + i, 3_000))))
                .collect();
            let flat = app.reduce(&parts);
            let nested = app.reduce(&[
                Bytes::from(app.reduce(&parts[..1])),
                Bytes::from(app.reduce(&parts[1..])),
            ]);
            prop_assert_eq!(flat, nested);
        }

        #[test]
        fn sort_conserves_records(n in 1usize..100, seed in 0u64..20) {
            let app = SortApp::default();
            let data = datagen::sort_records(seed, n);
            let sorted = app.map(&data);
            prop_assert_eq!(sorted.len(), data.len());
            // Same multiset of records.
            let mut orig: Vec<&[u8]> = data.chunks(SORT_RECORD_LEN).collect();
            let mut got: Vec<&[u8]> = sorted.chunks(SORT_RECORD_LEN).collect();
            orig.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(orig, got);
        }
    }
}

//! Request and byte-time accounting for the simulated object store.

use astra_pricing::{Money, S3Pricing};
use astra_simcore::SimTime;

/// One live object tracked by the ledger.
#[derive(Debug, Clone)]
struct LiveObject {
    size_mb: f64,
    created: SimTime,
}

/// Accounts for every billable S3 action in a simulated run.
///
/// Mirrors the paper's cost decomposition: GET/PUT request counts (Eq. 10)
/// and the storage byte-time integral (Eq. 11 charges size × residence
/// duration × unit price). Objects still alive at finalization are charged
/// until the finalization instant — matching the paper's convention that
/// input objects "will be stored in S3 until the completion of the job".
#[derive(Debug, Default)]
pub struct StorageLedger {
    gets: u64,
    puts: u64,
    live: Vec<(String, LiveObject)>,
    /// Accumulated MB-microseconds of already-deleted objects.
    closed_mb_us: f64,
    bytes_read_mb: f64,
    bytes_written_mb: f64,
}

/// Immutable summary of a ledger, used in experiment reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerSnapshot {
    /// Total GET requests.
    pub gets: u64,
    /// Total PUT requests.
    pub puts: u64,
    /// Total MB read.
    pub read_mb: f64,
    /// Total MB written.
    pub written_mb: f64,
    /// Storage integral in MB-seconds.
    pub mb_seconds: f64,
}

impl StorageLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset every counter and drop all tracked objects, keeping the
    /// live-object vector's allocated capacity. After `reset()` the
    /// ledger is observationally identical to [`StorageLedger::new`],
    /// which is what lets a sim arena reuse one allocation across runs.
    pub fn reset(&mut self) {
        self.gets = 0;
        self.puts = 0;
        self.live.clear();
        self.closed_mb_us = 0.0;
        self.bytes_read_mb = 0.0;
        self.bytes_written_mb = 0.0;
    }

    /// Record a PUT creating (or overwriting) `key` with `size_mb` at `now`.
    pub fn record_put(&mut self, key: impl Into<String>, size_mb: f64, now: SimTime) {
        assert!(size_mb >= 0.0, "negative object size");
        let key = key.into();
        self.puts += 1;
        self.bytes_written_mb += size_mb;
        // Overwrite closes the old object's storage interval.
        if let Some(pos) = self.live.iter().position(|(k, _)| *k == key) {
            let (_, old) = self.live.swap_remove(pos);
            self.closed_mb_us += old.size_mb * now.since(old.created).as_micros() as f64;
        }
        self.live.push((
            key,
            LiveObject {
                size_mb,
                created: now,
            },
        ));
    }

    /// Record a GET of `size_mb` (the key need not be tracked — input
    /// objects can pre-exist the simulation, registered via
    /// [`register_preexisting`](Self::register_preexisting)).
    pub fn record_get(&mut self, size_mb: f64) {
        self.gets += 1;
        self.bytes_read_mb += size_mb;
    }

    /// Register an object that already exists at simulation start (job
    /// input data) so its storage time is billed without counting a PUT.
    pub fn register_preexisting(&mut self, key: impl Into<String>, size_mb: f64) {
        self.live.push((
            key.into(),
            LiveObject {
                size_mb,
                created: SimTime::ZERO,
            },
        ));
    }

    /// True if `key` currently exists (was PUT or registered and not
    /// deleted). The FaaS simulator uses this to catch orchestration bugs:
    /// a GET of a key that was never written means a function ran before
    /// its input producer finished.
    pub fn exists(&self, key: &str) -> bool {
        self.live.iter().any(|(k, _)| k == key)
    }

    /// Size in MB of a live object.
    pub fn size_of(&self, key: &str) -> Option<f64> {
        self.live
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, o)| o.size_mb)
    }

    /// Record deletion of `key` at `now`, closing its storage interval.
    pub fn record_delete(&mut self, key: &str, now: SimTime) {
        if let Some(pos) = self.live.iter().position(|(k, _)| k == key) {
            let (_, obj) = self.live.swap_remove(pos);
            self.closed_mb_us += obj.size_mb * now.since(obj.created).as_micros() as f64;
        }
    }

    /// Snapshot the ledger as of `now` (live objects billed up to `now`).
    pub fn snapshot(&self, now: SimTime) -> LedgerSnapshot {
        let live_mb_us: f64 = self
            .live
            .iter()
            .map(|(_, o)| o.size_mb * now.since(o.created).as_micros() as f64)
            .sum();
        LedgerSnapshot {
            gets: self.gets,
            puts: self.puts,
            read_mb: self.bytes_read_mb,
            written_mb: self.bytes_written_mb,
            mb_seconds: (self.closed_mb_us + live_mb_us) / 1e6,
        }
    }

    /// Total S3 bill as of `now` under `pricing`.
    pub fn bill(&self, now: SimTime, pricing: &S3Pricing) -> Money {
        let snap = self.snapshot(now);
        pricing.get_cost(snap.gets)
            + pricing.put_cost(snap.puts)
            + pricing.storage_cost(snap.mb_seconds, 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_micros(secs * 1_000_000)
    }

    #[test]
    fn counts_requests() {
        let mut l = StorageLedger::new();
        l.record_put("a", 1.0, t(0));
        l.record_put("b", 2.0, t(1));
        l.record_get(1.0);
        let snap = l.snapshot(t(2));
        assert_eq!(snap.puts, 2);
        assert_eq!(snap.gets, 1);
        assert_eq!(snap.read_mb, 1.0);
        assert_eq!(snap.written_mb, 3.0);
    }

    #[test]
    fn storage_integral_for_live_objects() {
        let mut l = StorageLedger::new();
        l.record_put("a", 10.0, t(0));
        // 10 MB alive for 5 s = 50 MB-s
        assert_eq!(l.snapshot(t(5)).mb_seconds, 50.0);
    }

    #[test]
    fn delete_closes_interval() {
        let mut l = StorageLedger::new();
        l.record_put("a", 10.0, t(0));
        l.record_delete("a", t(2));
        // Frozen at 20 MB-s regardless of later snapshots.
        assert_eq!(l.snapshot(t(100)).mb_seconds, 20.0);
    }

    #[test]
    fn overwrite_closes_old_interval() {
        let mut l = StorageLedger::new();
        l.record_put("a", 10.0, t(0));
        l.record_put("a", 4.0, t(2)); // closes 20 MB-s, starts 4 MB
        assert_eq!(l.snapshot(t(3)).mb_seconds, 20.0 + 4.0);
        assert_eq!(l.snapshot(t(3)).puts, 2);
    }

    #[test]
    fn preexisting_objects_bill_storage_without_put() {
        let mut l = StorageLedger::new();
        l.register_preexisting("input", 100.0);
        let snap = l.snapshot(t(10));
        assert_eq!(snap.puts, 0);
        assert_eq!(snap.mb_seconds, 1000.0);
    }

    #[test]
    fn bill_combines_requests_and_storage() {
        let pricing = S3Pricing::aws_2020();
        let mut l = StorageLedger::new();
        for i in 0..1000 {
            l.record_put(format!("k{i}"), 0.0, t(0));
        }
        for _ in 0..10_000 {
            l.record_get(0.0);
        }
        // 1000 PUTs ($0.005) + 10000 GETs ($0.004), no storage (0 MB).
        assert_eq!(l.bill(t(0), &pricing), Money::from_dollars_f64(0.009));
    }

    #[test]
    fn exists_tracks_lifecycle() {
        let mut l = StorageLedger::new();
        assert!(!l.exists("a"));
        l.record_put("a", 3.0, t(0));
        assert!(l.exists("a"));
        assert_eq!(l.size_of("a"), Some(3.0));
        l.record_delete("a", t(1));
        assert!(!l.exists("a"));
        assert_eq!(l.size_of("a"), None);
    }

    #[test]
    fn reset_matches_a_fresh_ledger() {
        let mut l = StorageLedger::new();
        l.record_put("a", 10.0, t(0));
        l.record_get(5.0);
        l.record_delete("a", t(2));
        l.reset();
        assert!(!l.exists("a"));
        let snap = l.snapshot(t(100));
        let fresh = StorageLedger::new().snapshot(t(100));
        assert_eq!(snap, fresh);
    }

    #[test]
    fn delete_of_unknown_key_is_ignored() {
        let mut l = StorageLedger::new();
        l.record_delete("ghost", t(1));
        assert_eq!(l.snapshot(t(2)).mb_seconds, 0.0);
    }
}

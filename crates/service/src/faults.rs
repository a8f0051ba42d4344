//! Deterministic fault injection for chaos testing the service.
//!
//! A [`FaultPlan`] is a seeded set of rules saying "at this injection
//! site, roughly one key in `one_in` suffers this fault". The verdict
//! for a given `(site, key)` pair is a pure function of the plan — it
//! is derived with the same SplitMix64 mixing as
//! [`astra_faas::derive_seed`], so it does not depend on thread
//! interleaving, worker count, or how many times it is asked. That is
//! what lets `tests/service_chaos.rs` *predict* exactly which jobs a
//! plan will fault and assert that everything else stays bit-identical
//! to a fault-free run.
//!
//! Sites cover the worker lifecycle (panic or simulated process crash
//! before planning, before simulating, before completion), the session
//! cache (synthetic build failures), and the TCP transport (connection
//! resets and short writes mid-frame, plus a client-side stall knob the
//! chaos suite uses to play a slow-loris peer). The daemon, scheduler
//! and net layers each consult the shared plan at their own sites; a
//! production daemon runs with [`FaultPlan::disabled`], which never
//! fires and costs one branch per site.

use astra_faas::derive_seed;

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// In the worker, before the job transitions to `Planned`.
    WorkerPlan,
    /// In the worker, before the job transitions to `Simulating`.
    WorkerSim,
    /// In the worker, before the terminal `Done` transition.
    WorkerFinish,
    /// In [`crate::daemon`]'s admission plan through the session
    /// cache, keyed by job id.
    CacheBuild,
    /// In the TCP server: drop the connection instead of answering,
    /// keyed by connection sequence number.
    ConnReset,
    /// In the TCP server: write only half the response frame, then
    /// close — the client observes a short read mid-frame.
    ShortWrite,
    /// Client-side: the chaos suite stalls mid-request-line to act as a
    /// slow-loris peer (the server never consults this site).
    ClientStall,
}

impl FaultSite {
    /// A fixed per-site salt folded into the seed so the same key gets
    /// independent verdicts at different sites.
    fn tag(self) -> u64 {
        match self {
            FaultSite::WorkerPlan => 0x5149_7c6a_9e01_a101,
            FaultSite::WorkerSim => 0x5149_7c6a_9e01_a202,
            FaultSite::WorkerFinish => 0x5149_7c6a_9e01_a303,
            FaultSite::CacheBuild => 0x5149_7c6a_9e01_a404,
            FaultSite::ConnReset => 0x5149_7c6a_9e01_a505,
            FaultSite::ShortWrite => 0x5149_7c6a_9e01_a606,
            FaultSite::ClientStall => 0x5149_7c6a_9e01_a707,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultSite::WorkerPlan => "worker-plan",
            FaultSite::WorkerSim => "worker-sim",
            FaultSite::WorkerFinish => "worker-finish",
            FaultSite::CacheBuild => "cache-build",
            FaultSite::ConnReset => "conn-reset",
            FaultSite::ShortWrite => "short-write",
            FaultSite::ClientStall => "client-stall",
        };
        f.write_str(name)
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic in place. The worker loop catches it and records the job
    /// `Failed` with the captured payload; the claim is released.
    Panic,
    /// Simulate a process crash: the scheduler halts, the panicking
    /// worker leaves its job non-terminal and its claim unreleased, and
    /// only a journal replay can recover the abandoned work.
    Crash,
    /// Return a synthetic error from the site instead of panicking
    /// (used by [`FaultSite::CacheBuild`]); transport sites treat any
    /// firing rule as "do the disruptive thing" regardless of action.
    Error,
}

/// One injection rule: at `site`, one key in `one_in` gets `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// The injection site.
    pub site: FaultSite,
    /// Average firing rate — `derive`-hashed keys hitting `0 mod
    /// one_in` fire, so `1` fires for every key.
    pub one_in: u64,
    /// What the site does when the rule fires.
    pub action: FaultAction,
}

/// A seeded, deterministic set of fault-injection rules (see module
/// docs). `Default` is [`FaultPlan::disabled`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan that never fires — the production configuration.
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// An empty plan under `seed`; add rules with
    /// [`FaultPlan::with_fault`].
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add one rule.
    ///
    /// # Panics
    /// If `one_in` is 0 (a rule that can never be evaluated).
    pub fn with_fault(mut self, site: FaultSite, one_in: u64, action: FaultAction) -> Self {
        assert!(one_in > 0, "fault rate must be at least one-in-one");
        self.rules.push(FaultRule {
            site,
            one_in,
            action,
        });
        self
    }

    /// True when no rule can ever fire.
    pub fn is_disabled(&self) -> bool {
        self.rules.is_empty()
    }

    /// The deterministic verdict for `(site, key)`: the first matching
    /// rule whose hash fires, or `None`. Pure — safe to call from tests
    /// to predict exactly what a daemon under this plan will do.
    pub fn decide(&self, site: FaultSite, key: u64) -> Option<FaultAction> {
        self.rules
            .iter()
            .find(|rule| {
                rule.site == site
                    && derive_seed(self.seed ^ site.tag(), key).is_multiple_of(rule.one_in)
            })
            .map(|rule| rule.action)
    }

    /// Whether any rule fires at `(site, key)`.
    pub fn fires(&self, site: FaultSite, key: u64) -> bool {
        self.decide(site, key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        for key in 0..100 {
            assert_eq!(plan.decide(FaultSite::WorkerPlan, key), None);
            assert_eq!(plan.decide(FaultSite::ConnReset, key), None);
        }
        assert!(plan.is_disabled());
    }

    #[test]
    fn verdicts_are_deterministic_and_site_independent() {
        let plan = FaultPlan::seeded(7)
            .with_fault(FaultSite::WorkerPlan, 3, FaultAction::Panic)
            .with_fault(FaultSite::WorkerSim, 3, FaultAction::Crash);
        let first: Vec<_> = (0..64)
            .map(|k| {
                (
                    plan.decide(FaultSite::WorkerPlan, k),
                    plan.decide(FaultSite::WorkerSim, k),
                )
            })
            .collect();
        let second: Vec<_> = (0..64)
            .map(|k| {
                (
                    plan.decide(FaultSite::WorkerPlan, k),
                    plan.decide(FaultSite::WorkerSim, k),
                )
            })
            .collect();
        assert_eq!(first, second);
        // The two sites must not fire on the same key set (independent
        // hashes); with 64 keys at 1-in-3 a perfect overlap is a bug.
        assert_ne!(
            first.iter().map(|v| v.0.is_some()).collect::<Vec<_>>(),
            first.iter().map(|v| v.1.is_some()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn one_in_one_always_fires_and_rate_is_roughly_right() {
        let always = FaultPlan::seeded(1).with_fault(FaultSite::ConnReset, 1, FaultAction::Error);
        assert!((0..32).all(|k| always.fires(FaultSite::ConnReset, k)));

        let sometimes =
            FaultPlan::seeded(1).with_fault(FaultSite::WorkerPlan, 4, FaultAction::Panic);
        let hits = (0..400)
            .filter(|&k| sometimes.fires(FaultSite::WorkerPlan, k))
            .count();
        assert!((50..200).contains(&hits), "1-in-4 fired {hits}/400");
    }

    #[test]
    fn seeds_select_different_victims() {
        let a = FaultPlan::seeded(1).with_fault(FaultSite::WorkerPlan, 2, FaultAction::Panic);
        let b = FaultPlan::seeded(2).with_fault(FaultSite::WorkerPlan, 2, FaultAction::Panic);
        let va: Vec<bool> = (0..64).map(|k| a.fires(FaultSite::WorkerPlan, k)).collect();
        let vb: Vec<bool> = (0..64).map(|k| b.fires(FaultSite::WorkerPlan, k)).collect();
        assert_ne!(va, vb);
    }
}

//! Deterministic fault injection for robustness tests.
//!
//! Production fault tolerance is only trustworthy if it is exercised, so the
//! supervised worker pool (`xrlflow-rollout`) and the serving layer
//! (`xrlflow-serve`) trip the [`FaultPlan`] carried by their
//! [`XrlflowConfig::faults`](crate::XrlflowConfig::faults) at the top of
//! every work item. The hook is compiled in unconditionally — the code under
//! test is the code that ships — but with no plan configured (the default)
//! it is a single `None` check.
//!
//! A plan is a deterministic schedule of one-shot panics ("panic on item `k`
//! at attempt `a` of phase `p`"). Determinism matters: the differential
//! suites assert that a run with injected faults produces **bit-identical**
//! parameters to a fault-free run, which only makes sense when the faults
//! themselves are reproducible. A plan belongs to the configuration that
//! carries it, so runs in the same process never trip each other's faults.
//!
//! ```
//! use xrlflow_core::fault::{FaultPhase, FaultPlan};
//!
//! let plan = FaultPlan::new().panic_on(FaultPhase::Collect, 3, 0);
//! let caught = std::panic::catch_unwind(|| plan.trip(FaultPhase::Collect, 3, 0));
//! assert!(caught.is_err(), "a scheduled fault must panic");
//! // One-shot: the same (phase, item, attempt) does not fire twice.
//! plan.trip(FaultPhase::Collect, 3, 0);
//! assert_eq!(plan.pending(), 0);
//! ```

use std::sync::{Mutex, PoisonError};

/// The phase of the system a scheduled fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// Episode collection; `item` is the rollout engine's
    /// `curriculum_fault_item(spec, episode)` (the episode index for a
    /// single-model run).
    Collect,
    /// Data-parallel minibatch gradient shards (`item` is the minibatch
    /// position).
    Update,
    /// The greedy optimisation episode run by the serving layer's
    /// single-flight leader (`item` is the request graph's canonical hash).
    Serve,
}

impl std::fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultPhase::Collect => "collect",
            FaultPhase::Update => "update",
            FaultPhase::Serve => "serve",
        })
    }
}

/// One scheduled injected panic: phase, work-item index and the attempt
/// (0 = first execution, 1 = first retry, …) at which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Phase the fault targets.
    pub phase: FaultPhase,
    /// Work-item index within the phase (curriculum item, minibatch
    /// position or request hash).
    pub item: u64,
    /// Attempt number at which to fire.
    pub attempt: u32,
}

/// A deterministic schedule of injected panics.
///
/// Each entry fires **once**: the first [`FaultPlan::trip`] call matching
/// its `(phase, item, attempt)` panics and consumes the entry. To make an
/// item exhaust a retry budget of `n`, schedule entries for attempts
/// `0..=n`. Share a plan between the run under test and the assertions with
/// an `Arc`, and put it in `XrlflowConfig::faults`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    pending: Mutex<Vec<FaultSpec>>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a one-shot panic on `item` at `attempt` of `phase`.
    #[must_use]
    pub fn panic_on(self, phase: FaultPhase, item: u64, attempt: u32) -> Self {
        self.schedule(phase, item, attempt..=attempt)
    }

    /// Schedules panics on every attempt `0..=budget` of `item`, so the
    /// supervised pool's retry budget of `budget` is exhausted and the
    /// caller observes the typed worker-fault error.
    #[must_use]
    pub fn exhaust_budget_on(self, phase: FaultPhase, item: u64, budget: u32) -> Self {
        self.schedule(phase, item, 0..=budget)
    }

    fn schedule(mut self, phase: FaultPhase, item: u64, attempts: std::ops::RangeInclusive<u32>) -> Self {
        let pending = self.pending.get_mut().unwrap_or_else(PoisonError::into_inner);
        pending.extend(attempts.map(|attempt| FaultSpec { phase, item, attempt }));
        self
    }

    /// Fault-injection hook: panics iff this plan schedules a (not yet
    /// fired) panic for this `(phase, item, attempt)`, consuming the entry.
    ///
    /// The panic payload is a `String` naming the phase, item and attempt,
    /// which the supervised pool surfaces verbatim in a [`WorkerFault`].
    ///
    /// # Panics
    ///
    /// By design, when a scheduled entry matches.
    pub fn trip(&self, phase: FaultPhase, item: u64, attempt: u32) {
        let target = FaultSpec { phase, item, attempt };
        let fired = {
            let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
            pending.iter().position(|spec| *spec == target).map(|i| pending.remove(i))
        };
        if fired.is_some() {
            panic!("injected fault: phase {phase} item {item} attempt {attempt}");
        }
    }

    /// Number of scheduled faults that have not fired yet.
    ///
    /// Tests assert this drops to zero to prove every scheduled fault was
    /// actually exercised by the run under test.
    pub fn pending(&self) -> usize {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// A work item that kept panicking until the supervised pool's retry budget
/// was exhausted.
///
/// `item` uses the same numbering as [`FaultSpec::item`] (and therefore
/// [`FaultPlan`]), so the id in an error message can be pasted straight into
/// a reproduction plan. `attempts` counts every execution, including the
/// first (`budget + 1` when the budget is exhausted), and `payload` carries
/// the text of the last panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Phase in which the item kept failing.
    pub phase: FaultPhase,
    /// Work-item id, numbered as in [`FaultSpec::item`].
    pub item: u64,
    /// Total executions before giving up (first attempt + retries).
    pub attempts: u32,
    /// Text of the final panic payload.
    pub payload: String,
}

impl std::fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} item {} still failing after {} attempts: {}",
            self.phase, self.item, self.attempts, self.payload
        )
    }
}

impl std::error::Error for WorkerFault {}

/// Renders a caught panic payload as text for [`WorkerFault::payload`].
///
/// `&str` and `String` payloads (everything `panic!` produces) are shown
/// verbatim; anything else degrades to a placeholder rather than being lost.
pub fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn an_empty_plan_is_inert() {
        let plan = FaultPlan::new();
        plan.trip(FaultPhase::Collect, 0, 0);
        plan.trip(FaultPhase::Update, u64::MAX, u32::MAX);
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn scheduled_faults_fire_once_with_a_descriptive_payload() {
        let plan = FaultPlan::new().panic_on(FaultPhase::Collect, 7, 1);
        assert_eq!(plan.pending(), 1);
        // Wrong item / attempt / phase: no fire.
        plan.trip(FaultPhase::Collect, 7, 0);
        plan.trip(FaultPhase::Collect, 6, 1);
        plan.trip(FaultPhase::Update, 7, 1);
        assert_eq!(plan.pending(), 1);

        let payload = catch_unwind(AssertUnwindSafe(|| plan.trip(FaultPhase::Collect, 7, 1)))
            .expect_err("scheduled fault must panic");
        let text = payload.downcast_ref::<String>().expect("payload is a String");
        assert_eq!(text, "injected fault: phase collect item 7 attempt 1");

        // One-shot: consumed.
        assert_eq!(plan.pending(), 0);
        plan.trip(FaultPhase::Collect, 7, 1);
    }

    #[test]
    fn exhaust_budget_schedules_every_attempt() {
        let plan = FaultPlan::new().exhaust_budget_on(FaultPhase::Update, 2, 2);
        assert_eq!(plan.pending(), 3);
        for attempt in 0..=2 {
            assert!(catch_unwind(AssertUnwindSafe(|| plan.trip(FaultPhase::Update, 2, attempt))).is_err());
        }
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn plans_are_independent_values() {
        // Two plans scheduling the same fault never consume each other's
        // entries: the fault belongs to the configuration that carries it.
        let a = FaultPlan::new().panic_on(FaultPhase::Serve, 1, 0);
        let b = FaultPlan::new().panic_on(FaultPhase::Serve, 1, 0);
        assert!(catch_unwind(AssertUnwindSafe(|| a.trip(FaultPhase::Serve, 1, 0))).is_err());
        assert_eq!((a.pending(), b.pending()), (0, 1));
    }
}

//! The one supervised worker pool under every parallel phase of the PPO
//! loop: episode collection and the update's per-transition re-evaluations
//! are both item closures over [`supervised_map`].
//!
//! The pool owns the whole determinism and fault-tolerance contract, so the
//! phases cannot drift apart:
//!
//! * **Claiming, largest first.** Items are ordered by a cheap caller-given
//!   cost estimate, largest first (ties by item index), and each worker
//!   claims the next item of that order from a shared counter when it is
//!   free. Which thread runs which item therefore depends on timing, but no
//!   result does: every item keys its randomness to itself. The worker
//!   count is the number of caller-owned state slots, clamped to the item
//!   count; one worker runs the same loop in the calling thread, without
//!   spawning.
//! * **Warm worker state.** Worker `w` keeps its state (replica,
//!   environments, tape arena) in the caller's slot `w`. `init_worker`
//!   fills empty slots only, so a caller that passes the same slots to
//!   several runs keeps that state warm across them.
//! * **Supervision.** Every item trips the configured
//!   [`FaultPlan`] and runs under `catch_unwind`. A panic is counted
//!   (`rollout/worker_panics`), clears the worker's own slot (its contents
//!   are unspecified after an unwind; the next item rebuilds it) and queues
//!   the item. The supervisor thread then retries queued items **in item
//!   order**, on state of its own, up to `XRLFLOW_ROLLOUT_RETRIES` extra
//!   attempts (default 2), counting each in `rollout/item_retries`; budget
//!   exhaustion is the typed [`RolloutError::WorkerFault`]. Item closures
//!   key all randomness to the item, so a retry is bit-identical to a
//!   first-attempt success.
//! * **Ordered merge.** Results come back in item order, never completion
//!   order.
//! * **Metering.** Each worker's run sits inside a `rollout/worker_busy`
//!   span, and the pool turns busy time and wall-clock into the
//!   `rollout/worker_busy_ns` / `rollout/worker_wall_ns` counters and the
//!   `rollout/worker_utilization` gauge, at every worker count.

use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use xrlflow_core::fault::{panic_payload_text, FaultPhase, FaultPlan, WorkerFault};

use crate::RolloutError;

/// How many times a failed work item is re-executed (beyond its first
/// attempt) before the pool gives up with [`RolloutError::WorkerFault`].
/// `XRLFLOW_ROLLOUT_RETRIES` overrides the default of 2; unparseable values
/// fall back to the default, matching the leniency of `XRLFLOW_WORKERS`.
fn retry_budget() -> u32 {
    std::env::var("XRLFLOW_ROLLOUT_RETRIES").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(2)
}

/// Busy/idle accounting for one pool run: the busy-histogram delta plus the
/// pool's wall-clock become the `rollout/worker_busy_ns` /
/// `rollout/worker_wall_ns` counters and the `rollout/worker_utilization`
/// gauge (busy ÷ wall × workers; 1.0 = no worker ever idled waiting for
/// stragglers). Inert while telemetry is disabled — the clock is never read.
struct PoolMeter {
    busy_before_ns: u64,
    start: Option<Instant>,
    workers: usize,
}

impl PoolMeter {
    fn start(workers: usize) -> Self {
        Self {
            busy_before_ns: xrlflow_obs::histogram!("rollout/worker_busy").sum(),
            start: xrlflow_obs::enabled().then(Instant::now),
            workers,
        }
    }

    fn finish(self) {
        let Some(start) = self.start else { return };
        let wall_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let busy_ns =
            xrlflow_obs::histogram!("rollout/worker_busy").sum().saturating_sub(self.busy_before_ns);
        let pool_ns = wall_ns.saturating_mul(self.workers as u64);
        xrlflow_obs::counter!("rollout/worker_busy_ns").add(busy_ns);
        xrlflow_obs::counter!("rollout/worker_wall_ns").add(pool_ns);
        if pool_ns > 0 {
            xrlflow_obs::gauge!("rollout/worker_utilization").set(busy_ns as f64 / pool_ns as f64);
        }
    }
}

/// One worker's run: finished items and failed items (with the panic
/// payload text), each keyed by item index.
type WorkerRun<T> = (Vec<(usize, T)>, Vec<(usize, String)>);

/// A set of `workers` empty worker-state slots (at least one) for
/// [`supervised_map`].
pub(crate) fn worker_slots<W>(workers: usize) -> Vec<Option<W>> {
    (0..workers.max(1)).map(|_| None).collect()
}

/// Maps `run_item` over `items` on a supervised pool with one thread per
/// slot of `slots` and returns the results in item order.
///
/// Each item is `(fault_id, item)`: `fault_id` is what `faults` is tripped
/// with (`phase`, `fault_id`, attempt) and what a [`WorkerFault`] reports.
/// Workers claim items largest `cost` first (ties by item index). Worker `w`
/// runs on the state in `slots[w]`, building it with `init_worker` before
/// its first item if the slot is empty (and again after a panic); the
/// supervisor retries on a state of its own. Replicas, environments and tape
/// arenas thus never run on two threads at once, and a caller that keeps
/// `slots` keeps them warm across runs.
///
/// # Errors
///
/// * Whatever `init_worker` returns.
/// * [`RolloutError::WorkerFault`] when an item kept panicking past the retry
///   budget.
///
/// # Panics
///
/// Panics if `slots` is empty.
pub(crate) fn supervised_map<I, W, T>(
    items: &[(u64, I)],
    slots: &mut [Option<W>],
    phase: FaultPhase,
    faults: Option<&FaultPlan>,
    cost: impl Fn(&I) -> usize,
    init_worker: impl Fn() -> Result<W, RolloutError> + Sync,
    run_item: impl Fn(&mut W, &I) -> T + Sync,
) -> Result<Vec<T>, RolloutError>
where
    I: Sync,
    W: Send,
    T: Send,
{
    assert!(!slots.is_empty(), "supervised_map needs at least one worker slot");
    let workers = slots.len().min(items.len()).max(1);
    let run =
        |state: &mut Option<W>, index: usize, attempt: u32| -> Result<Result<T, String>, RolloutError> {
            let worker = match state {
                Some(worker) => worker,
                None => state.insert(init_worker()?),
            };
            let (fault_id, item) = &items[index];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = faults {
                    plan.trip(phase, *fault_id, attempt);
                }
                run_item(worker, item)
            }));
            Ok(outcome.map_err(|payload| {
                xrlflow_obs::counter!("rollout/worker_panics").inc();
                *state = None;
                panic_payload_text(payload.as_ref())
            }))
        };
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_cached_key(|&index| (Reverse(cost(&items[index].1)), index));
    // Relaxed suffices: the counter only hands out positions in `order`;
    // results travel back through the scoped threads' joins.
    let next = AtomicUsize::new(0);
    let work = |state: &mut Option<W>| -> Result<WorkerRun<T>, RolloutError> {
        let _busy = xrlflow_obs::span!("rollout/worker_busy");
        let (mut done, mut failed) = (Vec::new(), Vec::new());
        while let Some(&index) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            match run(state, index, 0)? {
                Ok(out) => done.push((index, out)),
                Err(payload) => failed.push((index, payload)),
            }
        }
        Ok((done, failed))
    };

    let meter = PoolMeter::start(workers);
    let runs = if workers == 1 {
        vec![work(&mut slots[0])]
    } else {
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                slots[..workers].iter_mut().map(|state| scope.spawn(move || work(state))).collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("rollout worker panicked outside a work item"))
                .collect::<Vec<_>>()
        })
    };
    meter.finish();

    let mut done = Vec::with_capacity(items.len());
    let mut failed = Vec::new();
    for run in runs {
        let (run_done, run_failed) = run?;
        done.extend(run_done);
        failed.extend(run_failed);
    }

    if !failed.is_empty() {
        failed.sort_unstable_by_key(|&(index, _)| index);
        let budget = retry_budget();
        let mut state = None;
        'items: for (index, mut payload) in failed {
            for attempt in 1..=budget {
                xrlflow_obs::counter!("rollout/item_retries").inc();
                match run(&mut state, index, attempt)? {
                    Ok(out) => {
                        done.push((index, out));
                        continue 'items;
                    }
                    Err(last) => payload = last,
                }
            }
            let item = items[index].0;
            return Err(WorkerFault { phase, item, attempts: budget + 1, payload }.into());
        }
    }

    done.sort_unstable_by_key(|&(index, _)| index);
    Ok(done.into_iter().map(|(_, out)| out).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use xrlflow_tensor::splitmix64;

    const ITEMS: usize = 23;

    /// Deliberately skewed costs: every fifth item is 40× the rest.
    fn cost(&item: &usize) -> usize {
        if item % 5 == 0 {
            40
        } else {
            1 + item % 3
        }
    }

    /// Work proportional to the item's cost whose result depends on the
    /// item alone.
    fn work(item: usize) -> u64 {
        (0..cost(&item) * 2000).fold(item as u64, |h, _| splitmix64(h))
    }

    fn items() -> Vec<(u64, usize)> {
        (0..ITEMS).map(|item| (item as u64, item)).collect()
    }

    /// A worker state with a unique identity, so a test can tell a kept
    /// slot from a rebuilt one.
    struct Worker {
        id: usize,
    }

    /// Runs the pool over [`items`] on `slots`, counting `init_worker`
    /// calls and per-item executions.
    fn run_pool(
        slots: &mut [Option<Worker>],
        faults: Option<&FaultPlan>,
        inits: &AtomicUsize,
        runs: &[AtomicUsize],
    ) -> Result<Vec<u64>, RolloutError> {
        supervised_map(
            &items(),
            slots,
            FaultPhase::Update,
            faults,
            cost,
            || Ok(Worker { id: inits.fetch_add(1, Ordering::Relaxed) }),
            |_, &item| {
                runs[item].fetch_add(1, Ordering::Relaxed);
                work(item)
            },
        )
    }

    fn counters() -> (AtomicUsize, Vec<AtomicUsize>) {
        (AtomicUsize::new(0), (0..ITEMS).map(|_| AtomicUsize::new(0)).collect())
    }

    fn expected() -> Vec<u64> {
        (0..ITEMS).map(work).collect()
    }

    #[test]
    fn every_item_runs_once_and_results_come_back_in_item_order() {
        for workers in [1usize, 2, 4] {
            let (inits, runs) = counters();
            let out = run_pool(&mut worker_slots(workers), None, &inits, &runs).unwrap();
            assert_eq!(out, expected(), "{workers} workers");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{workers} workers");
        }
    }

    #[test]
    fn one_worker_claims_the_largest_items_first() {
        let order = Mutex::new(Vec::new());
        supervised_map(
            &items(),
            &mut worker_slots(1),
            FaultPhase::Update,
            None,
            cost,
            || Ok(()),
            |_, &item| order.lock().unwrap().push(item),
        )
        .unwrap();
        let mut expected: Vec<usize> = (0..ITEMS).collect();
        expected.sort_by_key(|&item| (Reverse(cost(&item)), item));
        assert_eq!(order.into_inner().unwrap(), expected);
    }

    #[test]
    fn shared_slots_stay_warm_across_runs() {
        for workers in [1usize, 2, 4] {
            let (inits, runs) = counters();
            let mut slots = worker_slots(workers);
            for _ in 0..2 {
                assert_eq!(run_pool(&mut slots, None, &inits, &runs).unwrap(), expected());
            }
            let inits = inits.load(Ordering::Relaxed);
            assert!((1..=workers).contains(&inits), "{workers} workers: {inits} init_worker calls");
            assert_eq!(slots.iter().flatten().count(), inits, "{workers} workers");
        }
    }

    #[test]
    fn a_panicking_item_clears_only_its_own_slot_and_retries_identically() {
        for workers in [1usize, 2, 4] {
            let (inits, runs) = counters();
            let mut slots = worker_slots(workers);
            run_pool(&mut slots, None, &inits, &runs).unwrap();
            let warm: Vec<Option<usize>> = slots.iter().map(|s| s.as_ref().map(|w| w.id)).collect();

            let plan = FaultPlan::new().panic_on(FaultPhase::Update, 7, 0);
            let out = run_pool(&mut slots, Some(&plan), &inits, &runs).unwrap();
            assert_eq!(out, expected(), "{workers} workers: retried output differs");
            assert_eq!(plan.pending(), 0);
            // The fault fires before the item body, so item 7's body ran in the
            // fault-free run and in the retry only.
            assert_eq!(runs[7].load(Ordering::Relaxed), 2);

            // Only the slot of the worker that panicked may have lost (and
            // possibly rebuilt) its state; every other warm slot is kept.
            let changed = warm
                .iter()
                .zip(&slots)
                .filter(|(before, after)| before.is_some() && **before != after.as_ref().map(|w| w.id))
                .count();
            assert!(changed <= 1, "{workers} workers: {changed} warm slots lost");
            if workers == 1 {
                assert_eq!(changed, 1, "the single worker's slot must be rebuilt after its panic");
            }
        }
    }
}

//! The one supervised worker pool under every parallel phase of the PPO
//! loop: episode collection and the update's per-transition re-evaluations
//! are both item closures over [`supervised_map`].
//!
//! The pool owns the whole determinism and fault-tolerance contract, so the
//! phases cannot drift apart:
//!
//! * **Sharding.** The worker count is clamped to the item count; worker `w`
//!   runs items `w, w + W, w + 2W, …` (`item % W`). One worker runs the same
//!   loop in the calling thread, without spawning.
//! * **Supervision.** Every item trips the configured
//!   [`FaultPlan`] and runs under `catch_unwind`. A panic is counted
//!   (`rollout/worker_panics`), drops the worker's state (its contents are
//!   unspecified after an unwind; the next item rebuilds it) and queues the
//!   item. The supervisor thread then retries queued items **in item order**
//!   up to `XRLFLOW_ROLLOUT_RETRIES` extra attempts (default 2), counting
//!   each in `rollout/item_retries`; budget exhaustion is the typed
//!   [`RolloutError::WorkerFault`]. Item closures key all randomness to the
//!   item, so a retry is bit-identical to a first-attempt success.
//! * **Ordered merge.** Results come back in item order, never completion
//!   order.
//! * **Metering.** Each worker's shard runs inside a `rollout/worker_busy`
//!   span, and the pool turns busy time and wall-clock into the
//!   `rollout/worker_busy_ns` / `rollout/worker_wall_ns` counters and the
//!   `rollout/worker_utilization` gauge, at every worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// One worker's shard: finished items and failed items (with the panic
/// payload text), each keyed by item index.
type Shard<T> = (Vec<(usize, T)>, Vec<(usize, String)>);

/// Maps `run_item` over `items` on a supervised pool of `workers` threads
/// and returns the results in item order.
///
/// Each item is `(fault_id, item)`: `fault_id` is what `faults` is tripped
/// with (`phase`, `fault_id`, attempt) and what a [`WorkerFault`] reports.
/// Every thread — the workers, and the supervisor when it retries — builds
/// its own state with `init_worker` before its first item (and again after a
/// panic), so replicas, environments and tape arenas never cross threads.
///
/// # Errors
///
/// * Whatever `init_worker` returns.
/// * [`RolloutError::WorkerFault`] when an item kept panicking past the retry
///   budget.
pub(crate) fn supervised_map<I, W, T>(
    items: &[(u64, I)],
    workers: usize,
    phase: FaultPhase,
    faults: Option<&FaultPlan>,
    init_worker: impl Fn() -> Result<W, RolloutError> + Sync,
    run_item: impl Fn(&mut W, &I) -> T + Sync,
) -> Result<Vec<T>, RolloutError>
where
    I: Sync,
    T: Send,
{
    let workers = workers.clamp(1, items.len().max(1));
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
    let shard = |worker: usize| -> Result<Shard<T>, RolloutError> {
        let _busy = xrlflow_obs::span!("rollout/worker_busy");
        let mut state = None;
        let (mut done, mut failed) = (Vec::new(), Vec::new());
        for index in (worker..items.len()).step_by(workers) {
            match run(&mut state, index, 0)? {
                Ok(out) => done.push((index, out)),
                Err(payload) => failed.push((index, payload)),
            }
        }
        Ok((done, failed))
    };

    let meter = PoolMeter::start(workers);
    let shards = if workers == 1 {
        vec![shard(0)]
    } else {
        let shard = &shard;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|worker| scope.spawn(move || shard(worker))).collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("rollout worker panicked outside a work item"))
                .collect::<Vec<_>>()
        })
    };
    meter.finish();

    let mut done = Vec::with_capacity(items.len());
    let mut failed = Vec::new();
    for shard in shards {
        let (shard_done, shard_failed) = shard?;
        done.extend(shard_done);
        failed.extend(shard_failed);
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

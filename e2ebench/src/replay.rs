//! Single-thread replay of seeded episodes, timing each call on the
//! per-step path: `Environment::reset`, `XrlflowAgent::act`,
//! `Environment::step`, and — in a second, identical pass — the
//! featurisation and batched GNN encode that `act` performs internally.

use std::time::Instant;

use xrlflow_core::XrlflowAgent;
use xrlflow_env::Environment;
use xrlflow_gnn::{CandidateDelta, GraphFeatures};
use xrlflow_tensor::{Tape, XorShiftRng};

use crate::stats::{ms_since, timed, Samples};

/// One episode to replay: a fresh environment, the reset seed and the
/// action-RNG seed the workload used for it.
pub struct Episode<'a> {
    pub make_env: Box<dyn Fn() -> Environment + 'a>,
    pub reset_seed: u64,
    pub rng_seed: u64,
}

/// Per-call wall-clock samples (ms) of one replay.
#[derive(Debug, Default)]
pub struct ReplayTimes {
    pub reset: Samples,
    pub act: Samples,
    pub step: Samples,
    pub episode: Samples,
    pub featurize: Samples,
    pub encode: Samples,
}

/// Replays `episodes` with `agent`. Sampled episodes (`greedy == false`)
/// follow the training collection loop; greedy ones follow
/// `greedy_optimize`, which stops without stepping on a No-Op.
pub fn replay(agent: &XrlflowAgent, episodes: &[Episode<'_>], greedy: bool) -> ReplayTimes {
    let mut times = ReplayTimes::default();
    for ep in episodes {
        let mut env = (ep.make_env)();
        let mut rng = XorShiftRng::new(ep.rng_seed);
        let mut tape = Tape::new();
        let start = Instant::now();
        let (mut obs, reset_ms) = timed(|| env.reset(ep.reset_seed));
        times.reset.push(reset_ms);
        loop {
            if greedy && obs.num_candidates() == 0 {
                break;
            }
            let (decision, act_ms) = timed(|| agent.act_with_tape(&mut tape, &obs, &mut rng, greedy));
            times.act.push(act_ms);
            if greedy && decision.action == obs.noop_action() {
                break;
            }
            let (result, step_ms) = timed(|| env.step(&obs, decision.action));
            times.step.push(step_ms);
            if result.done {
                break;
            }
            obs = result.observation;
        }
        times.episode.push(ms_since(start));
    }

    // Second pass over the same episodes: time the featurisation and the
    // encode of every observation on their own, outside the first pass's
    // ledger.
    let mut encode_tape = Tape::new();
    for ep in episodes {
        let mut env = (ep.make_env)();
        let mut rng = XorShiftRng::new(ep.rng_seed);
        let mut tape = Tape::new();
        let mut obs = env.reset(ep.reset_seed);
        loop {
            if greedy && obs.num_candidates() == 0 {
                break;
            }
            let ((current, deltas), featurize_ms) = timed(|| {
                let current = GraphFeatures::from_graph(&obs.graph);
                let deltas: Vec<CandidateDelta> = obs
                    .candidates
                    .iter()
                    .map(|c| GraphFeatures::delta_from_base_and_patch(&obs.graph, &current, c.patch()))
                    .collect();
                (current, deltas)
            });
            times.featurize.push(featurize_ms);
            let (_, encode_ms) = timed(|| {
                encode_tape.recycle();
                std::hint::black_box(agent.encoder().encode_candidates(
                    &mut encode_tape,
                    &agent.store,
                    &current,
                    &deltas,
                ))
            });
            times.encode.push(encode_ms);
            let decision = agent.act_with_tape(&mut tape, &obs, &mut rng, greedy);
            if greedy && decision.action == obs.noop_action() {
                break;
            }
            let result = env.step(&obs, decision.action);
            if result.done {
                break;
            }
            obs = result.observation;
        }
    }
    times
}

/// Adds the replay's per-call means as per-layer rows, and the ledger check:
/// reset + act + step must account for the replayed episodes' wall-clock
/// within 5%, with the remainder reported as its own row.
pub fn push_replay_layers(out: &mut crate::report::Outcome, times: &ReplayTimes) {
    out.metric("core.act_ms", "ms", times.act.mean(), times.act.len());
    out.metric("gnn.featurize_ms", "ms", times.featurize.mean(), times.featurize.len());
    out.metric("gnn.encode_candidates_ms", "ms", times.encode.mean(), times.encode.len());
    out.metric("env.reset_ms", "ms", times.reset.mean(), times.reset.len());
    out.metric("env.step_ms", "ms", times.step.mean(), times.step.len());
    let parts = times.reset.sum() + times.act.sum() + times.step.sum();
    let whole = times.episode.sum();
    let episodes = times.episode.len();
    out.metric(
        "replay.unattributed_ms",
        "ms",
        crate::report::ratio(whole - parts, episodes as f64),
        episodes,
    );
    out.notes.push(crate::report::ledger_line("replay episode", "reset + act + step", parts, whole));
}

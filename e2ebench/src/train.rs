//! `train_zoo`: a closed batch job. Curriculum PPO over the seven evaluated
//! models at `XrlflowConfig::bench()`, with a durable `TrainState` written
//! after every round (collect → update → checkpoint), then one greedy
//! evaluation of the trained policy on every model.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xrlflow_core::fault::{FaultPhase, WorkerFault};
use xrlflow_core::{prune_train_states, train_state_path, TrainState, Trainer, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_graph::models::{ModelKind, ModelScale};
use xrlflow_rollout::{
    collect_curriculum_parallel, curriculum_rng_seed, evaluate_curriculum, minibatch_grads_parallel,
    CheckpointConfig, Curriculum, ParallelTrainer, RolloutError,
};

use crate::replay::{push_replay_layers, replay, Episode};
use crate::report::{ledger_line, push_obs_layers, ratio, ObsReading, Outcome};
use crate::stats::{geomean_reduction_pct, ms_since, peak_rss_mb, timed, Samples, Stopwatch};
use crate::Args;

/// Base seed of the training job's episode schedule, and the reset seed of
/// the greedy evaluation. The job is fixed, so `--seed` does not change it:
/// across training seeds the learned policy, and with it the episode
/// lengths, round time and greedy reduction, vary far more than any
/// regression bound (2–24% reduction over five seeds), and the evaluation's
/// measurement noise alone moves a 3-round policy's reduction by a third.
const TRAIN_SEED: u64 = 0;
/// PPO rounds per job. Fixed, so every run learns the same policy.
const ROUNDS: usize = 3;
/// Set-ups timed per job; `setup_s` is the median over all of them.
const SETUPS_PER_JOB: usize = 3;
/// Greedy evaluation episodes per model per job.
const EVAL_REPEATS: usize = 5;
/// Planned wall-clock of one PPO round on a 2-core host, which sizes the
/// number of jobs to `--seconds`.
const PLANNED_ROUND_S: f64 = 1.5;

/// Number of identical jobs a run trains: as many as fit `--seconds`, at
/// least two. Every metric is the median over jobs, so a burst of slowdown
/// from other tenants of a shared host that spans less than half the run
/// does not move the result.
fn jobs_for(seconds: u64) -> usize {
    ((seconds as f64 / (ROUNDS as f64 * PLANNED_ROUND_S)).round() as usize).max(2)
}

fn curriculum(config: &XrlflowConfig) -> Curriculum {
    Curriculum::from_model_zoo(
        ModelKind::EVALUATED,
        ModelScale::Bench,
        DeviceProfile::gtx1080(),
        config.env.clone(),
    )
    .expect("the evaluated zoo models build at Bench scale")
}

fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    dir.to_path_buf()
}

/// `(steps, initial latency, final latency)` of one greedy episode.
type Greedy = (usize, f64, f64);

/// What one training job produced.
struct Job {
    agent: XrlflowAgent,
    curriculum: Curriculum,
    setup_s: Samples,
    /// Per-round wall-clock in ms: the round's collect + update, plus an
    /// even share of the job's remaining time (checkpoint writes), scaled
    /// by the share of the job the vCPUs were not stolen.
    rounds: Samples,
    wall_ms: f64,
    unstolen: f64,
    /// The greedy evaluation of every model after training, and the
    /// wall-clock of every evaluation episode in ms.
    greedy: Vec<Greedy>,
    greedy_ms: Samples,
}

/// One job: builds the curriculum, agent and trainer (timing
/// `SETUPS_PER_JOB` builds and keeping the last), trains `ROUNDS` rounds
/// with a `TrainState` checkpoint per round, checks that every checkpoint
/// loads back, then evaluates the trained policy greedily on each model.
fn run_job(config: &XrlflowConfig, workers: usize, dir: &Path, out: &mut Outcome) -> Option<Job> {
    let per_spec = ROUNDS * config.ppo.update_frequency;
    let mut setup_s = Samples::default();
    let mut built = None;
    for _ in 0..SETUPS_PER_JOB {
        let start = Instant::now();
        let curriculum = curriculum(config);
        let agent = XrlflowAgent::new(config, crate::POLICY_SEED);
        let mut trainer = ParallelTrainer::new(config.clone(), TRAIN_SEED);
        trainer.set_num_workers(workers);
        trainer.set_checkpointing(Some(CheckpointConfig::new(fresh_dir(dir)).keep_last(ROUNDS)));
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((curriculum, agent, trainer));
    }
    let (curriculum, mut agent, mut trainer) = built.expect("SETUPS_PER_JOB > 0");

    let before = ObsReading::now();
    let watch = Stopwatch::start();
    let report = trainer.train_curriculum(&mut agent, &curriculum, per_spec);
    let wall_ms = watch.elapsed_ms();
    let unstolen = watch.unstolen_share();
    let faults = ObsReading::now().since(&before);
    out.attempted += (curriculum.len() * per_spec) as u64;
    for _ in 0..faults.item_retries + faults.worker_panics {
        out.fail("a rollout work item was retried after a panic");
    }
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            out.fail(format!("train_curriculum failed: {e}"));
            return None;
        }
    };
    out.check(report.timings.len() == ROUNDS, || {
        format!("{} rounds ran, {ROUNDS} planned", report.timings.len())
    });

    // Every round's durable state loads back, at the right schedule position.
    for round in 1..=ROUNDS {
        let next = (round * config.ppo.update_frequency) as u64;
        let loaded = TrainState::load(train_state_path(dir, next));
        let ok = matches!(&loaded, Ok(s) if s.next_episode == next && s.base_seed == TRAIN_SEED);
        out.check(ok, || format!("round {round} checkpoint does not load back: {:?}", loaded.err()));
        if round == ROUNDS {
            let live = trainer.trainer().train_state(&agent, next, TRAIN_SEED).to_bytes();
            let same = TrainState::load(train_state_path(dir, next)).map(|s| s.to_bytes() == live);
            out.check(same.unwrap_or(false), || "the last checkpoint differs from the live trainer".into());
        }
    }

    let timed_sum: f64 = report.timings.iter().map(|t| t.collect_ms + t.update_ms).sum();
    let share = (wall_ms - timed_sum) / ROUNDS as f64;
    let mut rounds = Samples::default();
    for t in &report.timings {
        rounds.push((t.collect_ms + t.update_ms + share) * unstolen);
    }

    // Greedy evaluation, one model at a time so each episode is timed; the
    // repeats must agree exactly.
    let mut greedy = Vec::new();
    let mut greedy_ms = Samples::default();
    for entry in curriculum.entries() {
        let single = Curriculum::new().with_entry(entry.name.clone(), entry.spec.clone());
        let mut first = None;
        for _ in 0..EVAL_REPEATS {
            let (evals, ms) = timed(|| evaluate_curriculum(&agent, &single, TRAIN_SEED));
            greedy_ms.push(ms);
            let stats = &evals[0].stats;
            let facts = (stats.steps, stats.initial_latency_ms, stats.final_latency_ms);
            match first {
                None => {
                    out.check(
                        facts.1 > 0.0 && facts.2 > 0.0 && facts.1.is_finite() && facts.2.is_finite(),
                        || format!("{}: bad greedy latencies {facts:?}", entry.name),
                    );
                    first = Some(facts);
                }
                Some(first) => {
                    out.check(first == facts, || format!("{}: greedy evaluation repeats differ", entry.name))
                }
            }
        }
        greedy.extend(first);
    }
    Some(Job { agent, curriculum, setup_s, rounds, wall_ms, unstolen, greedy, greedy_ms })
}

/// The median over jobs of `f`.
fn across(jobs: &[Job], f: impl Fn(&Job) -> f64) -> f64 {
    let mut values = Samples::default();
    for job in jobs {
        values.push(f(job));
    }
    values.median()
}

pub fn run(args: &Args, config: &XrlflowConfig, workers: usize, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut jobs = Vec::new();
    for j in 0..jobs_for(args.seconds) {
        match run_job(config, workers, &scratch.join(format!("job{j}")), &mut out) {
            Some(job) => jobs.push(job),
            None => return out,
        }
    }
    // The jobs are identical, so they must learn and evaluate identically.
    for job in &jobs[1..] {
        out.check(job.agent.snapshot() == jobs[0].agent.snapshot(), || {
            "jobs learned different parameters".into()
        });
        out.check(job.greedy == jobs[0].greedy, || "greedy evaluation differs between jobs".into());
    }
    let mut setup_s = Samples::default();
    for job in &jobs {
        setup_s.extend(&job.setup_s);
    }
    let ratios: Vec<f64> = jobs[0].greedy.iter().map(|g| g.2 / g.1).collect();
    let rounds = ROUNDS * jobs.len();
    let episodes = jobs[0].greedy_ms.len() * jobs.len();
    let raw_round_ms = across(&jobs, |j| j.wall_ms / ROUNDS as f64);
    out.metric("setup_s", "s", setup_s.median(), setup_s.len());
    out.metric("reduction_pct", "%", geomean_reduction_pct(&ratios), ratios.len());
    out.metric("op_per_s", "1/s", across(&jobs, |j| ROUNDS as f64 / (j.wall_ms * j.unstolen / 1e3)), rounds);
    out.metric("op_p50_ms", "ms", across(&jobs, |j| j.rounds.median()), rounds);
    out.extra("peak_rss_mb", "MB", peak_rss_mb(), 1);
    out.extra("miss_p50_ms", "ms", across(&jobs, |j| j.greedy_ms.median()), episodes);
    out.extra("miss_p90_ms", "ms", across(&jobs, |j| j.greedy_ms.quantile(0.9)), episodes);
    out.extra("round_s", "s", raw_round_ms / 1e3, jobs.len());
    out.extra("unstolen_share", "ratio", across(&jobs, |j| j.unstolen), jobs.len());
    out.extra("fail_frac", "ratio", ratio(out.failed as f64, out.attempted as f64), out.attempted as usize);
    out.notes.push(format!(
        "{} identical jobs of {ROUNDS} rounds x {} models x {} episodes on {workers} workers, a TrainState \
         checkpoint per round; every metric is the median over jobs, rounds counted on unstolen vCPU time \
         (round_s is the raw wall-clock)",
        jobs.len(),
        jobs[0].curriculum.len(),
        config.ppo.update_frequency
    ));
    if args.trace {
        let traced = traced_rounds(config, workers, &scratch.join("traced"), &jobs[0], &mut out);
        let mut layers = Outcome::default();
        if let Some(traced) = traced {
            traced.push_layers(&mut layers, raw_round_ms);
        }
        layers.metric("core.greedy_episode_ms", "ms", across(&jobs, |j| j.greedy_ms.median()), episodes);
        let episodes: Vec<Episode> = jobs[0]
            .curriculum
            .entries()
            .iter()
            .enumerate()
            .flat_map(|(spec, entry)| {
                (0..config.ppo.update_frequency as u64).map(move |e| Episode {
                    make_env: Box::new(move || entry.spec.build_env()),
                    reset_seed: e,
                    rng_seed: curriculum_rng_seed(TRAIN_SEED, spec, e),
                })
            })
            .collect();
        let initial = XrlflowAgent::new(config, crate::POLICY_SEED);
        push_replay_layers(&mut layers, &replay(&initial, &episodes, false));
        out.adopt_layers(layers);
    }
    out
}

/// Per-round timings of the traced training loop.
#[derive(Default)]
struct Traced {
    round: Samples,
    collect: Samples,
    update: Samples,
    minibatch: Samples,
    checkpoint: Samples,
    transitions: Samples,
    obs: ObsReading,
}

impl Traced {
    fn push_layers(&self, out: &mut Outcome, untraced_round_ms: f64) {
        let n = self.round.len();
        out.metric("rollout.collect_ms", "ms", self.collect.mean(), n);
        out.metric("rollout.update_ms", "ms", self.update.mean(), n);
        out.metric(
            "rollout.worker_utilization",
            "ratio",
            ratio(self.obs.worker_busy_ns as f64, self.obs.worker_wall_ns as f64),
            n,
        );
        out.metric("rl.transitions_per_round", "count", self.transitions.mean(), n);
        out.metric("rollout.minibatch_grads_ms", "ms", self.minibatch.mean(), n);
        out.metric("core.optimizer_ms", "ms", self.update.mean() - self.minibatch.mean(), n);
        out.metric("core.checkpoint_ms", "ms", self.checkpoint.mean(), n);
        let parts = self.collect.sum() + self.update.sum() + self.checkpoint.sum();
        out.metric("rollout.unattributed_ms", "ms", ratio(self.round.sum() - parts, n as f64), n);
        out.metric("bench.trace_overhead_pct", "%", (self.round.mean() / untraced_round_ms - 1.0) * 100.0, n);
        push_obs_layers(out, &self.obs);
        out.notes.push(ledger_line("PPO round", "collect + update + checkpoint", parts, self.round.sum()));
    }
}

fn as_worker_fault(error: RolloutError) -> WorkerFault {
    match error {
        RolloutError::WorkerFault(fault) => fault,
        other => WorkerFault { phase: FaultPhase::Update, item: 0, attempts: 0, payload: other.to_string() },
    }
}

/// The same job driven round by round through the rollout engine's public
/// pieces — `collect_curriculum_parallel`, the update seam with a timing
/// wrapper around `minibatch_grads_parallel`, and a `TrainState` save — so
/// each phase is timed on its own. The result must be bit-identical to the
/// untraced job's.
fn traced_rounds(
    config: &XrlflowConfig,
    workers: usize,
    dir: &Path,
    job: &Job,
    out: &mut Outcome,
) -> Option<Traced> {
    let rounds = ROUNDS;
    let frequency = config.ppo.update_frequency;
    let curriculum = curriculum(config);
    let mut agent = XrlflowAgent::new(config, crate::POLICY_SEED);
    let mut trainer = Trainer::new(config.clone(), TRAIN_SEED);
    let dir = fresh_dir(dir);
    let mut traced = Traced::default();
    let before = ObsReading::now();
    for round in 0..rounds {
        let round_start = Instant::now();
        let first = (round * frequency) as u64;
        let (collected, collect_ms) = timed(|| {
            collect_curriculum_parallel(
                config,
                &agent.snapshot(),
                &curriculum,
                first,
                frequency,
                TRAIN_SEED,
                workers,
            )
        });
        let mut rollouts = match collected {
            Ok(rollouts) => rollouts,
            Err(e) => {
                out.fail(format!("traced collect failed: {e}"));
                return None;
            }
        };
        traced.transitions.push(rollouts.buffer.len() as f64);

        let update_start = Instant::now();
        let mut minibatch_ms = 0.0;
        if workers > 1 {
            // As the engine's own update does: vet the replica build once
            // before the optimiser starts stepping.
            if let Err(e) = XrlflowAgent::from_snapshot(config, &agent.snapshot()) {
                out.fail(format!("agent does not rebuild from its snapshot: {e}"));
                return None;
            }
        }
        let updated = trainer.update_with_segments_via(
            &mut agent,
            &mut rollouts.buffer,
            &rollouts.spec_ranges,
            &mut |agent, ctx| {
                let (grads, ms) = timed(|| minibatch_grads_parallel(config, agent, ctx, workers));
                minibatch_ms += ms;
                grads.map_err(as_worker_fault)
            },
        );
        let update_ms = ms_since(update_start);
        if let Err(fault) = updated {
            out.fail(format!("traced update failed: {fault}"));
            return None;
        }

        let next = first + frequency as u64;
        let (saved, checkpoint_ms) = timed(|| {
            trainer.train_state(&agent, next, TRAIN_SEED).save(train_state_path(&dir, next))?;
            prune_train_states(&dir, rounds)
        });
        if let Err(e) = saved {
            out.fail(format!("traced checkpoint failed: {e}"));
            return None;
        }
        traced.round.push(ms_since(round_start));
        traced.collect.push(collect_ms);
        traced.update.push(update_ms);
        traced.minibatch.push(minibatch_ms);
        traced.checkpoint.push(checkpoint_ms);
    }
    traced.obs = ObsReading::now().since(&before);
    out.check(agent.snapshot() == job.agent.snapshot(), || {
        "the traced loop's parameters differ from train_curriculum's".into()
    });
    Some(traced)
}

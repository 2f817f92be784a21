//! # xrlflow-rollout
//!
//! Parallel execution engine for the X-RLflow PPO loop: one supervised,
//! thread-based worker pool that turns multi-core hardware into rollout
//! **and update** throughput without changing a single learned number —
//! episode collection ([`collect_curriculum_parallel`]) and the PPO update's
//! per-transition re-evaluations ([`update_parallel`]) are both item
//! closures over it, under the same snapshot-broadcast + ordered-merge
//! determinism contract.
//!
//! After the per-step hot paths were delta-ified (patch-based candidates,
//! batched delta-aware GNN evaluation), wall-clock training time is
//! dominated by strictly serial episode collection — one environment, one
//! thread, `update_frequency` episodes in a row. This crate parallelises
//! that phase the way large-scale graph-rewrite RL systems do (cf. Amazon's
//! RL-based XLA optimiser), under a strict determinism contract:
//!
//! * **Snapshot-based parameter broadcast.** The trainer captures one
//!   [`ParamSnapshot`](xrlflow_tensor::ParamSnapshot) of the live agent per
//!   PPO update; every worker builds its own read-only replica from it
//!   ([`XrlflowAgent::from_snapshot`]). Workers never share a live
//!   `ParamStore` or a `Tape`.
//! * **Shared immutable world.** Workers build their environments from a
//!   [`Curriculum`] of [`EnvSpec`]s — shared `Arc<Graph>` model-zoo entries,
//!   `Arc<RuleSet>`s and `Arc<InferenceSimulator>`s (whose memoised
//!   measurement cache is internally synchronised and seed-deterministic
//!   regardless of cache state). A single model is a one-entry curriculum.
//! * **Item-keyed seed schedule.** Episode `e` of spec `s` always resets its
//!   environment with seed `e` and samples actions from a fresh
//!   `XorShiftRng` seeded by [`curriculum_rng_seed`], no matter which worker
//!   runs it or in what order episodes finish.
//! * **Ordered merge.** Workers hand back per-item results; the pool merges
//!   them **by item index**, not completion order.
//!
//! Together these make [`collect_curriculum_parallel`] with any worker count
//! transition-for-transition bit-identical to the retained serial path
//! [`collect_curriculum_serial`] — asserted by differential tests in the
//! same spirit as `policy_logits_serial`.
//!
//! The pool is **supervised**: every work item trips the configuration's
//! fault plan (`XrlflowConfig::faults`) and any panic it raises is caught;
//! a panicking item is queued and deterministically retried on the calling
//! thread (up to `XRLFLOW_ROLLOUT_RETRIES` extra attempts, default 2), and
//! only budget exhaustion surfaces — as the typed
//! [`RolloutError::WorkerFault`], never a process abort. Because every seed
//! is a pure function of the item id, a retried item is bit-identical to a
//! first-attempt success, so the differential suites hold even under
//! injected faults. [`ParallelTrainer`] additionally writes durable
//! exact-resume [`TrainState`] checkpoints ([`CheckpointConfig`]) so a
//! killed run continues bit-identically.
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_core::{XrlflowAgent, XrlflowConfig};
//! use xrlflow_cost::DeviceProfile;
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//! use xrlflow_rewrite::RuleSet;
//! use xrlflow_rollout::{collect_curriculum_parallel, Curriculum, EnvSpec};
//!
//! let config = XrlflowConfig::smoke_test();
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let spec = EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone());
//! let curriculum = Curriculum::new().with_entry("SqueezeNet", spec);
//! let agent = XrlflowAgent::new(&config, 0);
//! let rollouts = collect_curriculum_parallel(&config, &agent.snapshot(), &curriculum, 0, 2, 7, 2).unwrap();
//! assert_eq!(rollouts.episodes.len(), 2);
//! assert!(!rollouts.buffer.is_empty());
//! ```

#![warn(missing_docs)]

mod curriculum;
mod error;
mod supervised;
mod update;

pub use curriculum::{
    collect_curriculum_parallel, collect_curriculum_serial, curriculum_fault_item, curriculum_rng_seed,
    evaluate_curriculum, Curriculum, CurriculumEntry, CurriculumEpisode, CurriculumRollouts, ModelEvaluation,
};
pub use error::RolloutError;
pub use update::{minibatch_grads_parallel, update_parallel};

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use xrlflow_core::{
    collect_phase_breakdown_ns, latest_train_state, prune_train_states, train_state_path, ModelBreakdown,
    TrainReport, TrainState, Trainer, UpdateTiming, XrlflowAgent, XrlflowConfig,
};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::{EnvConfig, Environment, EpisodeStats};
use xrlflow_graph::Graph;
use xrlflow_rewrite::RuleSet;
use xrlflow_tensor::SnapshotError;

/// Everything a worker needs to build its own [`Environment`]: the initial
/// graph (one shared model-zoo entry), the rule library, the latency
/// simulator and the environment configuration.
///
/// All three heavyweight components sit behind [`Arc`]s, so building one
/// environment per worker duplicates nothing graph- or rule-sized, and
/// latency measurements memoised by one worker are reused by all.
#[derive(Debug, Clone)]
pub struct EnvSpec {
    /// The graph to optimise (shared, never mutated).
    pub graph: Arc<Graph>,
    /// The rewrite-rule library (stateless, shared).
    pub rules: Arc<RuleSet>,
    /// The end-to-end latency simulator (shared; its measurement memo is
    /// internally synchronised and deterministic per seed).
    pub simulator: Arc<InferenceSimulator>,
    /// Reward-shaping and termination configuration.
    pub env: EnvConfig,
}

impl EnvSpec {
    /// Creates a spec from owned components.
    pub fn new(graph: Graph, rules: RuleSet, profile: DeviceProfile, env: EnvConfig) -> Self {
        Self {
            graph: Arc::new(graph),
            rules: Arc::new(rules),
            simulator: Arc::new(InferenceSimulator::new(profile)),
            env,
        }
    }

    /// Builds a fresh environment over the shared components.
    pub fn build_env(&self) -> Environment {
        Environment::from_shared(
            Arc::clone(&self.graph),
            Arc::clone(&self.rules),
            Arc::clone(&self.simulator),
            self.env.clone(),
        )
    }
}

/// Durable-checkpoint policy for [`ParallelTrainer`]: where to write
/// versioned [`TrainState`]s, how often (in update rounds), and how many to
/// retain.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory the `state-<episode>.xrlftrst` files are written into
    /// (created on first write).
    pub dir: PathBuf,
    /// Write a checkpoint every this many update rounds; the final round of
    /// a run always checkpoints. Clamp to ≥ 1 via [`CheckpointConfig::every`].
    pub every: usize,
    /// Keep the newest `keep_last` states, pruning older ones after each
    /// write. Clamp to ≥ 1 via [`CheckpointConfig::keep_last`].
    pub keep_last: usize,
}

impl CheckpointConfig {
    /// A policy checkpointing after every update round into `dir`, retaining
    /// the newest 3 states.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), every: 1, keep_last: 3 }
    }

    /// Builder: checkpoint every `every` update rounds (clamped to ≥ 1).
    #[must_use]
    pub fn every(mut self, every: usize) -> Self {
        self.every = every.max(1);
        self
    }

    /// Builder: retain the newest `keep_last` states (clamped to ≥ 1).
    #[must_use]
    pub fn keep_last(mut self, keep_last: usize) -> Self {
        self.keep_last = keep_last.max(1);
        self
    }

    /// Reads the policy from the environment: enabled iff
    /// `XRLFLOW_CHECKPOINT_DIR` is set and non-empty, with
    /// `XRLFLOW_CHECKPOINT_EVERY` (default 1) and `XRLFLOW_CHECKPOINT_KEEP`
    /// (default 3) tuning cadence and retention. Zero or unparseable values
    /// fall back to the defaults, matching the leniency of `XRLFLOW_WORKERS`.
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var("XRLFLOW_CHECKPOINT_DIR").ok()?;
        if dir.trim().is_empty() {
            return None;
        }
        let knob = |var: &str| -> Option<usize> {
            std::env::var(var).ok().and_then(|v| v.trim().parse().ok()).filter(|&n| n > 0)
        };
        let mut config = Self::new(dir);
        if let Some(every) = knob("XRLFLOW_CHECKPOINT_EVERY") {
            config.every = every;
        }
        if let Some(keep_last) = knob("XRLFLOW_CHECKPOINT_KEEP") {
            config.keep_last = keep_last;
        }
        Some(config)
    }
}

/// A PPO trainer whose collection **and update** phases run on the worker
/// pool.
///
/// Wraps the serial [`Trainer`]: episodes are collected by the pool and
/// merged in episode order, and each PPO minibatch's transition
/// re-evaluations are sharded across the same worker count with an
/// index-ordered gradient merge ([`minibatch_grads_parallel`]). Both phases
/// are bit-identical to their serial oracles, so the worker count changes
/// wall-clock time only, never a learned number.
///
/// With a [`CheckpointConfig`] installed (explicitly or via
/// `XRLFLOW_CHECKPOINT_DIR`), the trainer writes a durable [`TrainState`]
/// after every `every`-th update round — parameters, Adam moments, step and
/// update counters, base seed and the episode schedule position, written
/// atomically — and [`ParallelTrainer::resume_from`] continues a killed run
/// bit-identically to one that never stopped.
#[derive(Debug)]
pub struct ParallelTrainer {
    trainer: Trainer,
    num_workers: usize,
    base_seed: u64,
    checkpointing: Option<CheckpointConfig>,
    resume_episode: u64,
}

impl ParallelTrainer {
    /// Creates a parallel trainer; the worker count comes from
    /// [`XrlflowConfig::effective_num_workers`] (the `num_workers` field,
    /// overridable via `XRLFLOW_WORKERS`), and checkpointing is enabled when
    /// `XRLFLOW_CHECKPOINT_DIR` is set ([`CheckpointConfig::from_env`]).
    pub fn new(config: XrlflowConfig, seed: u64) -> Self {
        let num_workers = config.effective_num_workers();
        Self {
            trainer: Trainer::new(config, seed),
            num_workers,
            base_seed: seed,
            checkpointing: CheckpointConfig::from_env(),
            resume_episode: 0,
        }
    }

    /// Installs (or, with `None`, disables) the durable-checkpoint policy.
    pub fn set_checkpointing(&mut self, checkpointing: Option<CheckpointConfig>) {
        self.checkpointing = checkpointing;
    }

    /// The active durable-checkpoint policy, if any.
    pub fn checkpointing(&self) -> Option<&CheckpointConfig> {
        self.checkpointing.as_ref()
    }

    /// Restores trainer and agent to a durable [`TrainState`]: parameters,
    /// Adam moments and step count, the update counter (which drives the
    /// minibatch shuffle schedule), the run's base seed and the episode
    /// schedule position. The next [`ParallelTrainer::train`] or
    /// [`ParallelTrainer::train_curriculum`] call continues collecting at
    /// `state.next_episode` — bit-identical to a run that never stopped.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the state does not match the agent's
    /// architecture; neither trainer nor agent is modified on error.
    pub fn resume_from(&mut self, agent: &mut XrlflowAgent, state: &TrainState) -> Result<(), SnapshotError> {
        self.trainer.restore_train_state(agent, state)?;
        self.base_seed = state.base_seed;
        self.resume_episode = state.next_episode;
        Ok(())
    }

    /// [`ParallelTrainer::resume_from`] the newest [`TrainState`] in `dir`.
    /// Returns the resumed schedule position, or `None` when the directory
    /// holds no state (including when it does not exist) — the caller then
    /// starts fresh.
    ///
    /// # Errors
    ///
    /// * [`RolloutError::Checkpoint`] when the directory cannot be scanned.
    /// * [`RolloutError::Snapshot`] when the newest state is corrupt or does
    ///   not match the agent's architecture.
    pub fn resume_from_latest(
        &mut self,
        agent: &mut XrlflowAgent,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<Option<u64>, RolloutError> {
        let Some(path) = latest_train_state(dir.as_ref()).map_err(RolloutError::Checkpoint)? else {
            return Ok(None);
        };
        let state = TrainState::load(&path)?;
        self.resume_from(agent, &state)?;
        Ok(Some(state.next_episode))
    }

    /// The episode-schedule position the next training run starts from
    /// (non-zero only after [`ParallelTrainer::resume_from`]).
    pub fn resume_episode(&self) -> u64 {
        self.resume_episode
    }

    /// The number of rollout workers in use.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Overrides the worker count (normally sized by
    /// [`XrlflowConfig::effective_num_workers`] at construction). Any value
    /// collects bit-identical episodes; only wall-clock time changes.
    pub fn set_num_workers(&mut self, num_workers: usize) {
        self.num_workers = num_workers.max(1);
    }

    /// The wrapped serial trainer (PPO update path, checkpointing).
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Persists the agent's parameters (see [`Trainer::save_checkpoint`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn save_checkpoint(
        &self,
        agent: &XrlflowAgent,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<()> {
        self.trainer.save_checkpoint(agent, path)
    }

    /// Checks that `agent` matches the trainer's architecture configuration
    /// by round-tripping a snapshot into a config-built replica — the same
    /// check every worker performs, applied up front so a mismatch is
    /// reported before any episode is collected or any optimiser state
    /// advances, independent of the worker count.
    fn validate_agent(&self, agent: &XrlflowAgent) -> Result<(), SnapshotError> {
        XrlflowAgent::from_snapshot(self.trainer.config(), &agent.snapshot()).map(|_| ())
    }

    /// Restores the agent's parameters (see [`Trainer::load_checkpoint`]).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on read failure or architecture mismatch.
    pub fn load_checkpoint(
        &self,
        agent: &mut XrlflowAgent,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), SnapshotError> {
        self.trainer.load_checkpoint(agent, path)
    }

    /// Single-model training: [`ParallelTrainer::train_curriculum`] over a
    /// one-entry curriculum holding `spec`, so `episodes` names the run's
    /// total and the report carries one [`TrainReport::per_model`] entry.
    ///
    /// # Errors
    ///
    /// As [`ParallelTrainer::train_curriculum`].
    pub fn train(
        &mut self,
        agent: &mut XrlflowAgent,
        spec: &EnvSpec,
        episodes: usize,
    ) -> Result<TrainReport, RolloutError> {
        self.train_curriculum(agent, &Curriculum::new().with_entry("model", spec.clone()), episodes)
    }

    /// Runs the multi-model curriculum training loop: per PPO round,
    /// broadcast a parameter snapshot and collect
    /// `min(update_frequency, remaining)` episodes **for every curriculum
    /// model** across the worker pool (work items sharded spec-then-episode,
    /// merged in item order), then drive one shared update over the merged
    /// multi-model buffer with advantages normalised per spec — so a large
    /// graph's episodes don't dominate the gradient of the small models
    /// sharing the agent. Repeats until every model has contributed
    /// `episodes_per_spec` episodes.
    ///
    /// With the same seed this produces bit-identical episodes, updates and
    /// final parameters for any worker count. The returned report carries
    /// the episode/update series, the wall-clock collect/update split per
    /// round ([`TrainReport::timings`]) and [`TrainReport::per_model`]
    /// breakdowns, one per curriculum entry in curriculum order. With a
    /// checkpoint policy installed, a durable [`TrainState`] is written every
    /// `every`-th round and after the final one. After a
    /// [`ParallelTrainer::resume_from`], rounds continue at the restored
    /// per-spec schedule position.
    ///
    /// # Errors
    ///
    /// * [`RolloutError::Snapshot`] when the agent does not match the
    ///   trainer's architecture configuration.
    /// * [`RolloutError::WorkerFault`] when a work item kept panicking past
    ///   the retry budget.
    /// * [`RolloutError::Checkpoint`] when a durable checkpoint write fails.
    pub fn train_curriculum(
        &mut self,
        agent: &mut XrlflowAgent,
        curriculum: &Curriculum,
        episodes_per_spec: usize,
    ) -> Result<TrainReport, RolloutError> {
        self.validate_agent(agent)?;
        if curriculum.is_empty() || episodes_per_spec == 0 {
            return Ok(TrainReport::default());
        }
        let num_workers = self.num_workers;
        let config = self.trainer.config().clone();
        let frequency = config.ppo.update_frequency.max(1);
        let mut next_episode = (std::mem::take(&mut self.resume_episode) as usize).min(episodes_per_spec);
        let mut report = TrainReport::default();
        let mut per_spec_stats: Vec<Vec<EpisodeStats>> = vec![Vec::new(); curriculum.len()];
        let mut rounds = 0usize;
        while next_episode < episodes_per_spec {
            let batch = frequency.min(episodes_per_spec - next_episode);
            let (sim_before_ns, candgen_before_ns) = collect_phase_breakdown_ns();
            let collect_start = Instant::now();
            let mut rollouts = {
                let _span = xrlflow_obs::span!("rollout/collect");
                collect_curriculum_parallel(
                    &config,
                    &agent.snapshot(),
                    curriculum,
                    next_episode as u64,
                    batch,
                    self.base_seed,
                    num_workers,
                )?
            };
            let collect_ms = collect_start.elapsed().as_secs_f64() * 1e3;
            let (sim_after_ns, candgen_after_ns) = collect_phase_breakdown_ns();
            xrlflow_obs::counter!("rollout/episodes").add(rollouts.episodes.len() as u64);
            for episode in rollouts.episodes {
                per_spec_stats[episode.spec].push(episode.stats.clone());
                report.episodes.push(episode.stats);
            }
            let update_start = Instant::now();
            let stats = {
                let _span = xrlflow_obs::span!("rollout/update");
                update_parallel(
                    &mut self.trainer,
                    agent,
                    &mut rollouts.buffer,
                    &rollouts.spec_ranges,
                    num_workers,
                )?
            };
            report.updates.push(stats);
            report.timings.push(UpdateTiming {
                collect_ms,
                sim_ms: sim_after_ns.saturating_sub(sim_before_ns) as f64 / 1e6,
                candidate_gen_ms: candgen_after_ns.saturating_sub(candgen_before_ns) as f64 / 1e6,
                update_ms: update_start.elapsed().as_secs_f64() * 1e3,
                update_workers: num_workers,
            });
            next_episode += batch;
            rounds += 1;
            if let Some(checkpoint) = &self.checkpointing {
                if rounds.is_multiple_of(checkpoint.every.max(1)) || next_episode >= episodes_per_spec {
                    write_train_state(&self.trainer, agent, next_episode as u64, self.base_seed, checkpoint)?;
                }
            }
        }
        report.per_model = curriculum
            .entries()
            .iter()
            .zip(&per_spec_stats)
            .map(|(entry, stats)| ModelBreakdown::from_episodes(entry.name.clone(), stats))
            .collect();
        Ok(report)
    }
}

/// Writes one durable [`TrainState`] checkpoint (atomically — crash-safe by
/// construction) and applies the retention policy.
fn write_train_state(
    trainer: &Trainer,
    agent: &XrlflowAgent,
    next_episode: u64,
    base_seed: u64,
    checkpoint: &CheckpointConfig,
) -> Result<(), RolloutError> {
    let _span = xrlflow_obs::span!("rollout/checkpoint");
    let state = trainer.train_state(agent, next_episode, base_seed);
    state.save(train_state_path(&checkpoint.dir, next_episode)).map_err(RolloutError::Checkpoint)?;
    prune_train_states(&checkpoint.dir, checkpoint.keep_last).map_err(RolloutError::Checkpoint)?;
    xrlflow_obs::counter!("train/checkpoints_written").inc();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_env::Observation;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
    use xrlflow_rl::RolloutBuffer;

    fn smoke_spec(config: &XrlflowConfig) -> EnvSpec {
        let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone())
    }

    fn single(spec: &EnvSpec) -> Curriculum {
        Curriculum::new().with_entry("SqueezeNet", spec.clone())
    }

    fn assert_transitions_identical(
        a: &RolloutBuffer<Observation>,
        b: &RolloutBuffer<Observation>,
        label: &str,
    ) {
        assert_eq!(a.len(), b.len(), "{label}: transition counts differ");
        for (i, (ta, tb)) in a.transitions().iter().zip(b.transitions()).enumerate() {
            assert_eq!(ta.action, tb.action, "{label}: action differs at transition {i}");
            assert_eq!(
                ta.log_prob.to_bits(),
                tb.log_prob.to_bits(),
                "{label}: log-prob differs at transition {i}"
            );
            assert_eq!(ta.value.to_bits(), tb.value.to_bits(), "{label}: value differs at transition {i}");
            assert_eq!(ta.reward.to_bits(), tb.reward.to_bits(), "{label}: reward differs at transition {i}");
            assert_eq!(ta.done, tb.done, "{label}: done flag differs at transition {i}");
            assert_eq!(ta.action_mask, tb.action_mask, "{label}: action mask differs at transition {i}");
            assert_eq!(
                ta.observation.graph.canonical_hash(),
                tb.observation.graph.canonical_hash(),
                "{label}: observation graph differs at transition {i}"
            );
        }
    }

    #[test]
    fn parallel_collection_is_bit_identical_to_serial_for_1_2_4_workers() {
        // The tentpole determinism contract: W workers with the same
        // episode-seed schedule produce transition-for-transition the same
        // rollouts as the serial path, merged in episode order.
        let config = XrlflowConfig::smoke_test();
        let spec = smoke_spec(&config);
        let agent = XrlflowAgent::new(&config, 5);
        let snapshot = agent.snapshot();
        let episodes = 4;
        let base_seed = 99;

        let serial = collect_curriculum_serial(&agent, &single(&spec), 0, episodes, base_seed);
        assert_eq!(serial.episodes.len(), episodes);

        for workers in [1usize, 2, 4] {
            let parallel = collect_curriculum_parallel(
                &config,
                &snapshot,
                &single(&spec),
                0,
                episodes,
                base_seed,
                workers,
            )
            .unwrap();
            let label = format!("{workers} workers");
            assert_transitions_identical(&serial.buffer, &parallel.buffer, &label);
            assert_eq!(serial.episodes.len(), parallel.episodes.len(), "{label}: episode counts differ");
            for (ea, eb) in serial.episodes.iter().zip(&parallel.episodes) {
                let (ea, eb) = (&ea.stats, &eb.stats);
                assert_eq!(ea.total_reward.to_bits(), eb.total_reward.to_bits(), "{label}: reward differs");
                assert_eq!(ea.steps, eb.steps, "{label}: step counts differ");
                assert_eq!(ea.applied_rules, eb.applied_rules, "{label}: applied rules differ");
                assert_eq!(
                    ea.final_latency_ms.to_bits(),
                    eb.final_latency_ms.to_bits(),
                    "{label}: final latency differs"
                );
            }
        }
    }

    #[test]
    fn parallel_collection_feeds_bit_identical_ppo_updates() {
        // Running the identical update path over serially- and
        // parallel-collected buffers must produce the same TrainingStats —
        // the "no learned number changes" half of the contract.
        let config = XrlflowConfig::smoke_test();
        let spec = smoke_spec(&config);
        let agent = XrlflowAgent::new(&config, 5);
        let episodes = 3;

        let serial = collect_curriculum_serial(&agent, &single(&spec), 0, episodes, 42);
        let parallel =
            collect_curriculum_parallel(&config, &agent.snapshot(), &single(&spec), 0, episodes, 42, 2)
                .unwrap();

        let mut stats = Vec::new();
        for rollouts in [serial, parallel] {
            let mut trainer = Trainer::new(config.clone(), 7);
            let mut update_agent = XrlflowAgent::new(&config, 5);
            let mut buffer = rollouts.buffer;
            stats.push(trainer.update(&mut update_agent, &mut buffer));
        }
        assert_eq!(stats[0], stats[1], "TrainingStats diverge between serial and parallel collection");
    }

    #[test]
    fn parallel_trainer_matches_serial_trainer_bit_for_bit() {
        // End to end: same seed, same episode schedule, 1-worker vs
        // 2-worker ParallelTrainer runs land on identical parameters.
        let config = XrlflowConfig::smoke_test();
        let spec = smoke_spec(&config);
        let probe = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let mut embeddings = Vec::new();
        for workers in [1usize, 2] {
            let mut cfg = config.clone();
            cfg.num_workers = workers;
            // Guard against an ambient XRLFLOW_WORKERS override skewing the
            // comparison.
            let mut trainer = ParallelTrainer::new(cfg.clone(), 11);
            trainer.num_workers = workers;
            let mut agent = XrlflowAgent::new(&cfg, 3);
            let report = trainer.train(&mut agent, &spec, cfg.training_episodes).unwrap();
            assert_eq!(report.episodes.len(), cfg.training_episodes);
            assert!(!report.updates.is_empty());
            assert_eq!(report.timings.len(), report.updates.len());
            assert!(
                report.timings.iter().all(|t| t.update_workers == workers),
                "timings must record the update phase's worker count"
            );
            embeddings.push(agent.embed_graph(&probe));
        }
        assert_eq!(
            embeddings[0].data(),
            embeddings[1].data(),
            "trained parameters diverge between worker counts"
        );
    }

    #[test]
    fn worker_count_is_clamped_to_episode_count() {
        let config = XrlflowConfig::smoke_test();
        let spec = smoke_spec(&config);
        let agent = XrlflowAgent::new(&config, 1);
        // More workers than episodes must not spawn idle threads or panic.
        let rollouts =
            collect_curriculum_parallel(&config, &agent.snapshot(), &single(&spec), 0, 2, 0, 16).unwrap();
        assert_eq!(rollouts.episodes.len(), 2);
    }

    #[test]
    fn snapshot_architecture_mismatch_is_reported() {
        let config = XrlflowConfig::smoke_test();
        let spec = smoke_spec(&config);
        let mut wider = config.clone();
        wider.encoder.hidden_dim *= 2;
        let snapshot = XrlflowAgent::new(&wider, 0).snapshot();
        assert!(collect_curriculum_parallel(&config, &snapshot, &single(&spec), 0, 2, 0, 2).is_err());
    }

    #[test]
    fn episode_rng_seeds_are_stable_and_distinct() {
        assert_eq!(curriculum_rng_seed(7, 0, 3), curriculum_rng_seed(7, 0, 3));
        let seeds: std::collections::HashSet<u64> = (0..64).map(|e| curriculum_rng_seed(123, 0, e)).collect();
        assert_eq!(seeds.len(), 64, "adjacent episodes must get decorrelated RNG seeds");
    }
}

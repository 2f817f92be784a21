//! Data-parallel PPO update benchmark: wall-clock per update round (one full
//! pass of clip-objective re-evaluation, gradient merge and optimiser steps
//! over a fixed rollout buffer), serial oracle vs 1/2/4 update workers, on
//! SqueezeNet and BERT.
//!
//! Every worker count re-evaluates the identical transitions from
//! snapshot-built replicas and merges per-transition gradient buffers in
//! minibatch-position order, so all configurations land on bit-identical
//! parameters — the only thing that varies is wall-clock time. The speedup
//! is hardware-bound like the rollout engine's: expect ~1x on a single-core
//! container and ~min(W, cores) on real multi-core machines.
//! `update/speedup_2w_vs_1w/<model>` is the 2-worker scaling ratio on its
//! own.
//!
//! Knobs: `XRLFLOW_ITERS` (timed repetitions), `XRLFLOW_MAX_CANDIDATES`
//! (action-space bound), `XRLFLOW_UPDATE_EPISODES` (episodes collected into
//! the timed buffer), `XRLFLOW_BENCH_JSON` (result artifact path).

use xrlflow_bench::{env_usize, finish, iters_from_env, report, report_ratio, time_ns};
use xrlflow_core::{Trainer, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_rollout::{collect_curriculum_serial, update_parallel, Curriculum, EnvSpec};

fn main() {
    let iters = iters_from_env(3);
    let episodes = env_usize("XRLFLOW_UPDATE_EPISODES", 4);
    let worker_counts = [1usize, 2, 4];

    let mut config = XrlflowConfig::bench();
    config.env.max_candidates = env_usize("XRLFLOW_MAX_CANDIDATES", config.env.max_candidates);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("== PPO update wall-clock per round ({episodes}-episode buffer, {cores} cores available) ==\n");

    for kind in [ModelKind::SqueezeNet, ModelKind::Bert] {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let spec = EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone());
        let agent = XrlflowAgent::new(&config, 0);
        let snapshot = agent.snapshot();
        let single = Curriculum::new().with_entry(kind.name(), spec);
        let rollouts = collect_curriculum_serial(&agent, &single, 0, episodes, 7);
        println!("-- {} ({} transitions/round)", kind.name(), rollouts.buffer.len());

        // The update consumes the buffer and advances agent + optimiser, so
        // every timed round rebuilds all three from the shared template; the
        // rebuild cost is identical across variants.
        let serial_ns = time_ns(1, iters, || {
            let mut trainer = Trainer::new(config.clone(), 7);
            let mut agent = XrlflowAgent::from_snapshot(&config, &snapshot).unwrap();
            let mut buffer = rollouts.buffer.clone();
            trainer.update(&mut agent, &mut buffer).transitions
        });
        report(&format!("update/ms_per_round/serial/{}", kind.name()), serial_ns);

        let mut parallel_ns = Vec::new();
        for &workers in &worker_counts {
            let ns = time_ns(1, iters, || {
                let mut trainer = Trainer::new(config.clone(), 7);
                let mut agent = XrlflowAgent::from_snapshot(&config, &snapshot).unwrap();
                let mut buffer = rollouts.buffer.clone();
                update_parallel(&mut trainer, &mut agent, &mut buffer, &[], workers)
                    .expect("snapshot matches the agent architecture")
                    .transitions
            });
            report(&format!("update/ms_per_round/{}w/{}", workers, kind.name()), ns);
            parallel_ns.push(ns);
        }
        report_ratio(
            &format!("update/speedup_4w_vs_serial/{}", kind.name()),
            serial_ns / parallel_ns[parallel_ns.len() - 1],
        );
        report_ratio(&format!("update/speedup_2w_vs_1w/{}", kind.name()), parallel_ns[0] / parallel_ns[1]);
        println!();
    }

    finish("bench_update");
}

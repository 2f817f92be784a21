//! End-to-end benchmark of the X-RLflow stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <train_zoo|serve_hot|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit and sample count, the host
//! and configuration, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). See `README.md` beside this file.

mod check;
mod gen;
mod replay;
mod report;
mod serve;
mod stats;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use xrlflow_core::XrlflowConfig;

use crate::report::Outcome;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["train_zoo", "serve_hot", "serve_mixed"];

/// The end-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("reduction_pct", "%"), ("op_per_s", "1/s"), ("op_p50_ms", "ms")];

/// The per-layer metrics every traced run reports, with their units.
const PER_LAYER: [(&str, &str); 30] = [
    ("rollout.collect_ms", "ms"),
    ("rollout.update_ms", "ms"),
    ("rollout.worker_utilization", "ratio"),
    ("rl.transitions_per_round", "count"),
    ("rollout.minibatch_grads_ms", "ms"),
    ("core.optimizer_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("rollout.unattributed_ms", "ms"),
    ("core.act_ms", "ms"),
    ("gnn.featurize_ms", "ms"),
    ("gnn.encode_candidates_ms", "ms"),
    ("env.reset_ms", "ms"),
    ("env.step_ms", "ms"),
    ("replay.unattributed_ms", "ms"),
    ("rewrite.generate_candidates_us", "us"),
    ("rewrite.candidates_per_step", "count"),
    ("cost.measure_us", "us"),
    ("cost.memo_hit_ratio", "ratio"),
    ("core.greedy_episode_ms", "ms"),
    ("serve.cache_insert_us", "us"),
    ("graph.from_json_us", "us"),
    ("graph.canonical_hash_us", "us"),
    ("graph.to_json_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.optimize_hit_us", "us"),
    ("serve.http_overhead_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.http_non2xx", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// Initialisation seed of the policy every workload starts from. The policy
/// is part of the system under test, not an input: `--seed` varies the
/// inputs (training episode seeds, request sequences, fresh graphs) only.
pub const POLICY_SEED: u64 = 0;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 15, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The commit the benchmark was built from, when the source tree is a git
/// checkout.
fn git_commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        commit.to_string()
    }
}

fn print_config(args: &Args, config: &XrlflowConfig, nproc: usize, workers: usize, clients: usize) {
    println!(
        "== e2ebench {} (seed {}, {} s, trace {}) ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host: nproc {nproc}; git commit {}", git_commit());
    println!(
        "config: XrlflowConfig::bench() — encoder hidden {} x {} GAT layers, heads {:?}, max_steps {}, \
         max_candidates {}, update_frequency {}, epochs_per_update {}, batch_size {}, lr {}",
        config.encoder.hidden_dim,
        config.encoder.num_gat_layers,
        config.head_dims,
        config.env.max_steps,
        config.env.max_candidates,
        config.ppo.update_frequency,
        config.ppo.epochs_per_update,
        config.ppo.batch_size,
        config.ppo.learning_rate,
    );
    println!("workers: {workers} rollout/update workers (train_zoo), {clients} load clients (serving)");
}

/// Checks that the result metrics are exactly the declared list, names and
/// units, filling per-layer rows a workload does not exercise with 0 (and
/// 0 samples).
fn finalise(out: &mut Outcome, trace: bool) -> Result<(), String> {
    let declared_list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if trace {
        for &(name, unit) in declared_list {
            if !out.metrics.iter().any(|m| m.name == name) {
                out.metric(name, unit, 0.0, 0);
            }
        }
    }
    let mut declared = declared_list.to_vec();
    let mut emitted: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    declared.sort_unstable();
    emitted.sort_unstable();
    if declared == emitted || !out.correct() {
        Ok(())
    } else {
        Err(format!("emitted metrics {emitted:?} differ from the declared {declared:?}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = XrlflowConfig::bench();
    let workers = nproc;
    let clients = nproc.clamp(1, 2);
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("e2ebench: unknown workload {:?} (train_zoo, serve_hot, serve_mixed)", args.workload);
        return ExitCode::from(2);
    }
    print_config(&args, &config, nproc, workers, clients);

    let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target").join(format!(
        "run-{}-{}",
        args.workload,
        std::process::id()
    ));
    let mut out = match args.workload.as_str() {
        "train_zoo" => train::run(&args, &config, workers, &scratch),
        "serve_hot" => serve::run(&args, &config, clients, false),
        _ => serve::run(&args, &config, clients, true),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = finalise(&mut out, args.trace) {
        eprintln!("e2ebench: {e}");
        return ExitCode::from(3);
    }
    out.print_table();
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::JsonValue;

    /// The metric lists here and in `BENCHMARK.json` must agree, names and
    /// units, or the declaration drifts from what runs print.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(JsonValue::as_str).expect("name and unit").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("workload name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}

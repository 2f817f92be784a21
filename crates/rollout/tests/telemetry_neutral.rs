//! Telemetry neutrality: the observability layer observes, it never steers.
//!
//! Two contracts from ROADMAP.md's "Telemetry dataflow" section:
//!
//! 1. With the registry **active** (the default), the worker count still
//!    changes wall-clock time only — 1/2/4-worker training produces
//!    f32 bit-identical parameters, and the run demonstrably recorded
//!    metrics while doing so.
//! 2. Enabling vs disabling telemetry changes no learned number: the same
//!    seeded run lands on bit-identical parameters either way (recording is
//!    pure reads + atomic bumps, never an RNG draw or an f32 operation on
//!    the training path).
//!
//! Tests that read counters or flip the global enabled flag serialise on a
//! shared lock so neither can observe the other's flag state.

use std::sync::Mutex;

use xrlflow_core::{XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_rollout::{Curriculum, EnvSpec, ParallelTrainer};

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn smoke_spec(config: &XrlflowConfig) -> EnvSpec {
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone())
}

/// Trains a fresh, identically seeded agent for 3 episodes on `workers`
/// workers and returns a probe embedding of the final parameters.
fn train_probe(workers: usize) -> Vec<f32> {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let mut agent = XrlflowAgent::new(&config, 5);
    let mut trainer = ParallelTrainer::new(config, 7);
    trainer.set_num_workers(workers);
    trainer.train(&mut agent, &spec, 3).unwrap();
    let probe = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    agent.embed_graph(&probe).data().to_vec()
}

#[test]
fn differential_1_2_4_workers_stay_bit_identical_with_the_registry_active() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    assert!(xrlflow_obs::enabled(), "the registry must be active for this differential run");

    let episodes_before = xrlflow_obs::counter!("rollout/episodes").get();
    let collects_before = xrlflow_obs::histogram!("rollout/collect").count();

    let reference = train_probe(1);
    for workers in [2usize, 4] {
        let params = train_probe(workers);
        let bits_equal = reference.iter().zip(&params).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(bits_equal, "{workers}-worker training with active telemetry diverged from the 1-worker run");
    }

    // The runs above must actually have recorded — an accidentally inert
    // registry would make this differential test vacuous.
    assert!(
        xrlflow_obs::counter!("rollout/episodes").get() >= episodes_before + 9,
        "training with the registry active must count its episodes"
    );
    assert!(
        xrlflow_obs::histogram!("rollout/collect").count() > collects_before,
        "training with the registry active must record collect-phase spans"
    );
}

#[test]
fn enabling_or_disabling_telemetry_changes_no_learned_bit() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();

    let enabled_params = train_probe(2);

    xrlflow_obs::set_enabled(false);
    let disabled_params = train_probe(2);
    xrlflow_obs::set_enabled(true);

    assert_eq!(enabled_params.len(), disabled_params.len());
    let bits_equal = enabled_params.iter().zip(&disabled_params).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        bits_equal,
        "disabling telemetry changed the learned parameters — instrumentation is not bit-transparent"
    );
}

#[test]
fn worker_utilization_is_metered_at_one_worker() {
    // The 1-worker pool runs in the calling thread without spawning, but it
    // is still a pool: its busy time and wall-clock must be metered, so the
    // gauge reads a real fraction rather than 0%.
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    assert!(xrlflow_obs::enabled(), "the registry must be active for this run");
    let config = XrlflowConfig::smoke_test();
    let curriculum = Curriculum::new().with_entry("SqueezeNet", smoke_spec(&config));
    let mut agent = XrlflowAgent::new(&config, 5);
    let mut trainer = ParallelTrainer::new(config, 7);
    trainer.set_num_workers(1);

    let wall_before = xrlflow_obs::counter!("rollout/worker_wall_ns").get();
    trainer.train_curriculum(&mut agent, &curriculum, 2).unwrap();
    let wall = xrlflow_obs::counter!("rollout/worker_wall_ns").get() - wall_before;

    assert!(wall > 0, "a 1-worker round must meter its pool wall-clock");
    let utilization = xrlflow_obs::gauge!("rollout/worker_utilization").get();
    assert!(
        utilization > 0.0 && utilization <= 1.0,
        "1-worker utilization must lie in (0, 1], got {utilization}"
    );
}

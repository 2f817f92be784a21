//! Seeded request generation for the serving workloads.
//!
//! Everything here is a pure function of the seed: the same seed gives the
//! same request sequences and byte-identical request bodies, so the program
//! under test only ever sees generated inputs.

use std::collections::HashSet;

use xrlflow_graph::models::{ModelConfig, ModelKind, ModelScale};
use xrlflow_graph::Graph;
use xrlflow_tensor::{splitmix64, XorShiftRng};

/// Every model-zoo architecture: the seven evaluated models plus ResNet-18.
pub const ZOO: [ModelKind; 8] = [
    ModelKind::InceptionV3,
    ModelKind::SqueezeNet,
    ModelKind::ResNext50,
    ModelKind::ResNet18,
    ModelKind::Bert,
    ModelKind::DallE,
    ModelKind::TransformerTransducer,
    ModelKind::Vit,
];

/// One in every `MISS_EVERY` serve_mixed requests (on average) carries a
/// never-seen graph.
pub const MISS_EVERY: usize = 20;

/// A request graph together with its wire body and cache key.
#[derive(Debug, Clone)]
pub struct RequestGraph {
    pub label: String,
    pub graph: Graph,
    pub body: String,
    pub key: u64,
}

impl RequestGraph {
    fn new(label: String, graph: Graph) -> Self {
        let body = graph.to_json();
        let key = graph.canonical_hash();
        Self { label, graph, body, key }
    }
}

/// The hot set: the eight zoo graphs at Bench scale and default input sizes.
pub fn hot_set() -> Vec<RequestGraph> {
    ZOO.iter()
        .map(|&kind| {
            let graph =
                ModelConfig::new(kind, ModelScale::Bench).build().expect("zoo graphs build at default size");
            RequestGraph::new(format!("{}@{}", kind.name(), kind.default_input_size()), graph)
        })
        .collect()
}

fn rng_for(seed: u64, stream: u64) -> XorShiftRng {
    XorShiftRng::new(splitmix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The serve_hot schedule: `n` indices into the hot set, drawn uniformly.
pub fn hot_schedule(seed: u64, n: usize, hot_len: usize) -> Vec<usize> {
    let mut rng = rng_for(seed, 1);
    (0..n).map(|_| rng.gen_range(hot_len)).collect()
}

/// One request of a serve_mixed client sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// A repeat of hot-set graph `i` (a cache hit).
    Hot(usize),
    /// Fresh graph `j` (a miss: never requested before in the run).
    Fresh(usize),
}

/// The serve_mixed plan: one fixed request sequence per client and the
/// fresh graphs they reference.
#[derive(Debug, Clone)]
pub struct MixedPlan {
    pub clients: Vec<Vec<Request>>,
    pub fresh: Vec<RequestGraph>,
}

/// Input sizes a fresh graph of `kind` is drawn from: half to one and a half
/// times the default size.
fn size_range(kind: ModelKind) -> (usize, usize) {
    let d = kind.default_input_size();
    (d / 2, d + d / 2)
}

/// Draws a fresh graph of `kind` whose cache key is not in `seen`, and
/// records it.
fn draw_fresh(kind: ModelKind, rng: &mut XorShiftRng, seen: &mut HashSet<u64>) -> RequestGraph {
    loop {
        let (lo, hi) = size_range(kind);
        let size = lo + rng.gen_range(hi - lo + 1);
        let Ok(graph) = ModelConfig::new(kind, ModelScale::Bench).with_input_size(size).build() else {
            continue;
        };
        let candidate = RequestGraph::new(format!("{}@{}", kind.name(), size), graph);
        if seen.insert(candidate.key) {
            return candidate;
        }
    }
}

/// Builds `clients` sequences of `per_client` requests each. About one
/// request in [`MISS_EVERY`] is a fresh graph, deduplicated by canonical hash
/// against the hot set and every earlier fresh graph, so it misses exactly
/// once; the rest repeat the hot set uniformly. Fresh graphs take the zoo
/// kinds in shuffled rounds of all eight, so every seed gets the same mix
/// of cheap and expensive misses (one costs 4 ms, another 120 ms) and only
/// the input sizes, the order and the miss positions vary.
pub fn mixed_plan(seed: u64, clients: usize, per_client: usize, hot: &[RequestGraph]) -> MixedPlan {
    let mut seen: HashSet<u64> = hot.iter().map(|g| g.key).collect();
    let mut fresh = Vec::new();
    let mut deck: Vec<ModelKind> = Vec::new();
    let mut deck_rng = rng_for(seed, 2);
    let sequences = (0..clients)
        .map(|client| {
            let mut rng = rng_for(seed, 100 + client as u64);
            (0..per_client)
                .map(|_| {
                    if rng.gen_range(MISS_EVERY) == 0 {
                        if deck.is_empty() {
                            deck = ZOO.to_vec();
                            for i in (1..deck.len()).rev() {
                                deck.swap(i, deck_rng.gen_range(i + 1));
                            }
                        }
                        let kind = deck.pop().expect("the deck was just refilled");
                        fresh.push(draw_fresh(kind, &mut rng, &mut seen));
                        Request::Fresh(fresh.len() - 1)
                    } else {
                        Request::Hot(rng.gen_range(hot.len()))
                    }
                })
                .collect()
        })
        .collect();
    MixedPlan { clients: sequences, fresh }
}

/// A seeded sample of up to `n` distinct indices below `len`, in ascending
/// order (used to pick the misses checked against an in-process reference).
pub fn sample_indices(seed: u64, len: usize, n: usize) -> Vec<usize> {
    let mut rng = rng_for(seed, 7);
    let mut picked = HashSet::new();
    while picked.len() < n.min(len) {
        picked.insert(rng.gen_range(len));
    }
    let mut out: Vec<usize> = picked.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(plan: &MixedPlan, hot: &[RequestGraph]) -> Vec<String> {
        plan.clients
            .iter()
            .flatten()
            .map(|r| match *r {
                Request::Hot(i) => hot[i].body.clone(),
                Request::Fresh(j) => plan.fresh[j].body.clone(),
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_request_bytes() {
        let hot = hot_set();
        let a = mixed_plan(11, 2, 120, &hot);
        let b = mixed_plan(11, 2, 120, &hot);
        assert_eq!(a.clients, b.clients);
        assert_eq!(bodies(&a, &hot), bodies(&b, &hot));
        assert_eq!(hot_schedule(11, 500, hot.len()), hot_schedule(11, 500, hot.len()));
        assert_eq!(sample_indices(11, 40, 8), sample_indices(11, 40, 8));
        let c = mixed_plan(12, 2, 120, &hot);
        assert_ne!(bodies(&a, &hot), bodies(&c, &hot), "another seed gives other requests");
    }

    #[test]
    fn fresh_graphs_are_distinct_valid_and_never_hot() {
        let hot = hot_set();
        let plan = mixed_plan(3, 2, 400, &hot);
        assert!(plan.fresh.len() >= 20, "about one request in {MISS_EVERY} is fresh");
        let mut keys: HashSet<u64> = hot.iter().map(|g| g.key).collect();
        assert_eq!(keys.len(), hot.len(), "hot graphs have distinct keys");
        for fresh in &plan.fresh {
            assert!(keys.insert(fresh.key), "{} repeats an earlier key", fresh.label);
            let reparsed = Graph::from_json(&fresh.body).expect("fresh body re-imports");
            assert!(reparsed.validate().is_ok());
            assert_eq!(reparsed.canonical_hash(), fresh.key);
        }
        let mut per_kind = std::collections::HashMap::new();
        for fresh in &plan.fresh {
            *per_kind.entry(fresh.label.split('@').next().unwrap_or("")).or_insert(0usize) += 1;
        }
        let (lo, hi) = (per_kind.values().min().unwrap(), per_kind.values().max().unwrap());
        assert!(per_kind.len() == ZOO.len() && hi - lo <= 1, "kinds come in balanced rounds: {per_kind:?}");
        let referenced: usize =
            plan.clients.iter().flatten().filter(|r| matches!(r, Request::Fresh(_))).count();
        assert_eq!(referenced, plan.fresh.len(), "each fresh graph is requested exactly once");
    }
}

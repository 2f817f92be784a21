//! Output checks on `POST /optimize` replies.

use xrlflow_graph::{Graph, JsonValue, OpKind, TensorShape};

/// The input and output tensor shapes a reply must preserve. Input shapes
/// are compared as a sorted multiset (rewrites may renumber input nodes);
/// output shapes in graph-output order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoShapes {
    inputs: Vec<Vec<usize>>,
    outputs: Vec<Vec<usize>>,
}

impl IoShapes {
    pub fn of(graph: &Graph) -> Self {
        let mut inputs: Vec<Vec<usize>> = graph
            .iter()
            .filter(|(_, node)| node.op == OpKind::Input)
            .flat_map(|(_, node)| node.outputs.iter().map(|s| s.dims().to_vec()))
            .collect();
        inputs.sort();
        let outputs = graph
            .outputs()
            .iter()
            .map(|&r| graph.tensor_shape(r).map(TensorShape::dims).unwrap_or(&[]).to_vec())
            .collect();
        Self { inputs, outputs }
    }
}

/// What a checked reply said.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplyFacts {
    /// `canonical_hash` of the returned graph.
    pub graph_hash: u64,
    pub initial_latency_ms: f64,
    pub final_latency_ms: f64,
    pub steps: usize,
}

/// Checks one reply: status 200, a body whose `graph` re-imports through
/// the `Graph::from_json` validator with the request's input and output
/// shapes, a `cache_hit` flag equal to `expect_hit`, and finite positive
/// latencies.
pub fn check_reply(
    status: u16,
    body: &str,
    expect: &IoShapes,
    expect_hit: bool,
) -> Result<ReplyFacts, String> {
    if status != 200 {
        return Err(format!("status {status}: {}", body.chars().take(120).collect::<String>()));
    }
    let doc = JsonValue::parse(body).map_err(|e| format!("reply is not JSON: {e}"))?;
    let graph = doc.get("graph").ok_or("reply has no graph")?;
    let graph = Graph::from_json_value(graph).map_err(|e| format!("reply graph does not re-import: {e}"))?;
    let shapes = IoShapes::of(&graph);
    if &shapes != expect {
        return Err(format!("reply changed the io shapes: {shapes:?} != {expect:?}"));
    }
    let hit = doc.get("cache_hit").and_then(JsonValue::as_bool).ok_or("reply has no cache_hit flag")?;
    if hit != expect_hit {
        return Err(format!("cache_hit is {hit}, expected {expect_hit}"));
    }
    let number = |key: &str| doc.get(key).and_then(JsonValue::as_f64).ok_or(format!("reply has no {key}"));
    let initial_latency_ms = number("initial_latency_ms")?;
    let final_latency_ms = number("final_latency_ms")?;
    if !(initial_latency_ms > 0.0
        && final_latency_ms > 0.0
        && initial_latency_ms.is_finite()
        && final_latency_ms.is_finite())
    {
        return Err(format!("bad latencies {initial_latency_ms} -> {final_latency_ms}"));
    }
    let steps = doc.get("steps").and_then(JsonValue::as_usize).ok_or("reply has no steps")?;
    Ok(ReplyFacts { graph_hash: graph.canonical_hash(), initial_latency_ms, final_latency_ms, steps })
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use xrlflow_graph::models::{ModelConfig, ModelKind, ModelScale};

    /// A reply body in the server's `POST /optimize` format.
    pub fn reply_body(graph: &Graph, cache_hit: bool, initial_ms: f64, final_ms: f64) -> String {
        JsonValue::Object(vec![
            ("graph".to_string(), graph.to_json_value()),
            ("initial_latency_ms".to_string(), JsonValue::Number(initial_ms)),
            ("final_latency_ms".to_string(), JsonValue::Number(final_ms)),
            ("steps".to_string(), JsonValue::Number(3.0)),
            ("cache_hit".to_string(), JsonValue::Bool(cache_hit)),
            ("speedup_percent".to_string(), JsonValue::Number((initial_ms / final_ms - 1.0) * 100.0)),
        ])
        .to_json()
    }

    fn reply(graph: &Graph, cache_hit: bool) -> String {
        reply_body(graph, cache_hit, 2.0, 1.5)
    }

    fn bert(seq: usize) -> Graph {
        ModelConfig::new(ModelKind::Bert, ModelScale::Bench).with_input_size(seq).build().unwrap()
    }

    #[test]
    fn accepts_a_faithful_reply() {
        let graph = bert(128);
        let facts = check_reply(200, &reply(&graph, true), &IoShapes::of(&graph), true).unwrap();
        assert_eq!(facts.graph_hash, graph.canonical_hash());
        assert_eq!(facts.steps, 3);
    }

    #[test]
    fn rejects_tampered_replies() {
        let graph = bert(128);
        let expect = IoShapes::of(&graph);
        // Another sequence length changes the input and output shapes.
        assert!(check_reply(200, &reply(&bert(64), true), &expect, true).is_err());
        // A flipped cache_hit flag, either way.
        assert!(check_reply(200, &reply(&graph, false), &expect, true).is_err());
        assert!(check_reply(200, &reply(&graph, true), &expect, false).is_err());
        // A non-200 status, a truncated body, a body whose graph is broken.
        assert!(check_reply(503, &reply(&graph, true), &expect, true).is_err());
        let body = reply(&graph, true);
        assert!(check_reply(200, &body[..body.len() / 2], &expect, true).is_err());
        let broken = body.replacen("\"MatMul\"", "\"NoSuchOp\"", 1);
        assert_ne!(broken, body);
        assert!(check_reply(200, &broken, &expect, true).is_err());
    }
}

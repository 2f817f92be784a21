//! Conversion of dataflow graphs into GNN inputs.
//!
//! Following the paper (Section 3.3.2): node attributes are a one-hot
//! encoding of the operator kind (~40 operators); edge attributes are the
//! tensor shape padded to rank 4 and normalised by the constant `M = 4096`
//! (Table 4); the global attribute is initialised to zero and updated by a
//! learnable layer.
//!
//! Two inference-path optimisations live here:
//!
//! * [`GraphFeatures::delta_from_base_and_patch`] derives a rewrite
//!   candidate's [`CandidateDelta`] from the base graph's features plus the
//!   candidate's [`GraphPatch`] — no candidate graph is ever materialised,
//!   and no dense per-candidate feature tensor is built: the delta holds the
//!   candidate's edge structure, its row map onto the base graph and the
//!   node-update inputs of the patch's own rows only, which is all
//!   [`crate::GnnEncoder::encode_candidates`] reads.
//! * [`GraphFeaturesBatch`] stacks many featurised graphs into one
//!   block-diagonal batch so the encoder can embed the current graph and all
//!   of its candidates in a single forward pass.

use xrlflow_graph::{Graph, GraphPatch, NodeId, OpKind, PatchRef, TensorRef, TensorShape};
use xrlflow_tensor::Tensor;

/// The edge-attribute normalisation constant `M` from Table 4.
pub const EDGE_NORMALISER: f32 = 4096.0;

/// A dataflow graph converted to dense GNN inputs.
#[derive(Debug, Clone)]
pub struct GraphFeatures {
    /// `[num_nodes, OpKind::count()]` one-hot operator encoding.
    pub node_features: Tensor,
    /// `[num_edges, 4]` normalised tensor-shape attributes.
    pub edge_features: Tensor,
    /// Source node index of each edge (producer).
    pub edge_src: Vec<usize>,
    /// Destination node index of each edge (consumer).
    pub edge_dst: Vec<usize>,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Start of each node row's contiguous edge block (its incoming dataflow
    /// edges in input order, then its self-loop); length `num_nodes + 1`.
    /// Lets a row's node-update input be summed in block order and lets the
    /// delta-aware encoder re-plan one row's edges on its own.
    pub edge_offsets: Vec<usize>,
    /// Row of each node id, indexed by `NodeId::index()` (`None` for ids with
    /// no live node). [`GraphFeatures::delta_from_base_and_patch`] maps
    /// surviving base nodes through it.
    pub node_rows: Vec<Option<usize>>,
}

/// A node of a patched graph before materialisation: either a surviving base
/// node or the `i`-th node added by the patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PatchedNode {
    Base(NodeId),
    New(usize),
}

/// A tensor of a patched graph before materialisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PatchedTensor {
    Base(TensorRef),
    New { node: usize, port: usize },
}

impl PatchedTensor {
    fn from_patch_ref(r: PatchRef) -> Self {
        match r {
            PatchRef::Base(t) => PatchedTensor::Base(t),
            PatchRef::New { node, port } => PatchedTensor::New { node, port },
        }
    }

    fn node(self) -> PatchedNode {
        match self {
            PatchedTensor::Base(t) => PatchedNode::Base(t.node),
            PatchedTensor::New { node, .. } => PatchedNode::New(node),
        }
    }
}

/// Applies the patch's consumer rewires, in recorded order, to a tensor
/// reference — exactly what `Graph::apply_patch` does to every input slot and
/// graph output when the candidate is materialised. Rewire sources are always
/// base tensors, so references to added nodes are never rewired further.
fn resolve_through_rewires(patch: &GraphPatch, mut r: PatchedTensor) -> PatchedTensor {
    for (from, to) in patch.rewires() {
        if r == PatchedTensor::Base(*from) {
            r = PatchedTensor::from_patch_ref(*to);
        }
    }
    r
}

/// A tensor shape as a normalised edge attribute: padded to rank 4, divided
/// by `M`.
fn edge_attributes(shape: &TensorShape) -> [f32; 4] {
    shape.padded4().map(|v| v / EDGE_NORMALISER)
}

impl GraphFeatures {
    /// Number of edges (including self-loops).
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Width of the node-feature vectors.
    pub fn node_feature_dim() -> usize {
        OpKind::count()
    }

    /// Extracts features from a graph.
    ///
    /// Self-loop edges (carrying the node's own output shape) are added so
    /// that every node participates in message passing even when it has no
    /// incoming dataflow edge.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut node_rows: Vec<Option<usize>> = Vec::new();
        let mut num_nodes = 0usize;
        for (id, _) in graph.iter() {
            node_rows.resize(id.index(), None);
            node_rows.push(Some(num_nodes));
            num_nodes += 1;
        }
        let feat_dim = OpKind::count();
        let mut node_features = Tensor::zeros(&[num_nodes, feat_dim]);
        let mut edge_src = Vec::new();
        let mut edge_dst = Vec::new();
        let mut edge_rows: Vec<[f32; 4]> = Vec::new();
        let mut edge_offsets = Vec::with_capacity(num_nodes + 1);

        for (row, (_, node)) in graph.iter().enumerate() {
            edge_offsets.push(edge_rows.len());
            node_features.set(&[row, node.op.index()], 1.0);
            // Dataflow edges: producer -> this node, attributed with the
            // producer tensor's shape.
            for input in &node.inputs {
                if let Ok(shape) = graph.tensor_shape(*input) {
                    edge_src.push(node_rows[input.node.index()].expect("input node is live"));
                    edge_dst.push(row);
                    edge_rows.push(edge_attributes(shape));
                }
            }
            // Self-loop with the node's own (first) output shape.
            if let Some(shape) = node.outputs.first() {
                edge_src.push(row);
                edge_dst.push(row);
                edge_rows.push(edge_attributes(shape));
            }
        }
        edge_offsets.push(edge_rows.len());

        let edge_features = Tensor::from_vec(edge_rows.concat(), &[edge_rows.len(), 4]);
        Self { node_features, edge_features, edge_src, edge_dst, num_nodes, edge_offsets, node_rows }
    }

    /// Derives what the delta-aware encoder needs of the graph a
    /// [`GraphPatch`] produces, from the *base* graph's features — without
    /// materialising the patched graph or building its dense features.
    ///
    /// Every rewrite candidate differs from the current graph by a handful of
    /// added nodes and rewires: surviving base rows keep their one-hot and
    /// edge attributes (rewires preserve tensor shapes by construction), so
    /// only the patch's own rows get node-update inputs, and the rest of the
    /// delta is structure. Dead-node elimination and rewire resolution are
    /// replayed symbolically to reproduce the exact row/edge ordering of
    /// [`GraphFeatures::from_graph`] on the materialised graph, which the
    /// per-rule differential tests assert bit for bit.
    ///
    /// `base_features` must be `GraphFeatures::from_graph(base)`, and `patch`
    /// must have been built against `base`.
    pub fn delta_from_base_and_patch(
        base: &Graph,
        base_features: &GraphFeatures,
        patch: &GraphPatch,
    ) -> CandidateDelta {
        let base_row_of = &base_features.node_rows;
        debug_assert_eq!(
            base_row_of.iter().flatten().count(),
            base.iter().count(),
            "base_features must match the base graph"
        );
        let added = patch.added_nodes();
        // Patched nodes index dense tables: base ids first, added nodes after.
        let id_bound = base_row_of.len();
        let slot = |n: PatchedNode| -> usize {
            match n {
                PatchedNode::Base(id) => id.index(),
                PatchedNode::New(i) => id_bound + i,
            }
        };

        // Replay dead-node elimination symbolically: the patched graph's
        // outputs are the base outputs with rewires applied, and a node is
        // live iff it is backwards-reachable from one of them.
        let mut live = vec![false; id_bound + added.len()];
        let mut stack: Vec<PatchedNode> = base
            .outputs()
            .iter()
            .map(|&r| resolve_through_rewires(patch, PatchedTensor::Base(r)).node())
            .collect();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut live[slot(n)], true) {
                continue;
            }
            match n {
                PatchedNode::Base(id) => {
                    let node = base.node(id).expect("live base node");
                    for &r in &node.inputs {
                        stack.push(resolve_through_rewires(patch, PatchedTensor::Base(r)).node());
                    }
                }
                PatchedNode::New(i) => {
                    for &r in &added[i].inputs {
                        stack.push(resolve_through_rewires(patch, PatchedTensor::from_patch_ref(r)).node());
                    }
                }
            }
        }

        // Row order of the materialised graph: surviving base nodes keep
        // their ids (ascending), added nodes splice after all of them in
        // patch order. Every resolved input of a live node is live, so edge
        // sources below always find their row.
        let mut row_of = vec![usize::MAX; live.len()];
        let mut num_nodes = 0usize;
        for (s, _) in live.iter().enumerate().filter(|(_, &l)| l) {
            row_of[s] = num_nodes;
            num_nodes += 1;
        }

        let mut edge_src = Vec::with_capacity(base_features.num_edges());
        let mut edge_dst = Vec::with_capacity(base_features.num_edges());
        let mut edge_offsets = Vec::with_capacity(num_nodes + 1);
        let mut base_rows: Vec<Option<usize>> = Vec::with_capacity(num_nodes);
        let mut changed_rows: Vec<usize> = Vec::new();
        let mut added_inputs: Vec<f32> = Vec::new();

        for (id, node) in base.iter().filter(|(id, _)| live[id.index()]) {
            let row = base_rows.len();
            edge_offsets.push(edge_src.len());
            let base_row = base_row_of[id.index()].expect("live base node has a base row");
            base_rows.push(Some(base_row));
            // The node's edge block mirrors its base block (same attributes,
            // same layout); only the source rows are re-resolved.
            let mut rewired = false;
            for input in &node.inputs {
                if base.tensor_shape(*input).is_ok() {
                    let resolved = resolve_through_rewires(patch, PatchedTensor::Base(*input));
                    rewired |= resolved != PatchedTensor::Base(*input);
                    edge_src.push(row_of[slot(resolved.node())]);
                    edge_dst.push(row);
                }
            }
            if !node.outputs.is_empty() {
                edge_src.push(row);
                edge_dst.push(row);
            }
            if rewired {
                changed_rows.push(row);
            }
            debug_assert_eq!(
                edge_src.len() - edge_offsets[row],
                base_features.edge_offsets[base_row + 1] - base_features.edge_offsets[base_row],
                "edge block length mismatch"
            );
        }

        // The shape of a patched tensor, for featurising added-node edges.
        let shape_of = |t: PatchedTensor| -> Option<&TensorShape> {
            match t {
                PatchedTensor::Base(r) => base.tensor_shape(r).ok(),
                PatchedTensor::New { node, port } => added.get(node).and_then(|n| n.outputs.get(port)),
            }
        };
        let feat_dim = OpKind::count();
        for (pn, _) in added.iter().zip(&live[id_bound..]).filter(|(_, &l)| l) {
            let row = base_rows.len();
            edge_offsets.push(edge_src.len());
            base_rows.push(None);
            changed_rows.push(row);
            // The node-update input `[incoming ‖ one-hot]`, with incoming
            // edge attributes summed in block order exactly as
            // `push_node_input_row` sums a featurised row.
            let mut incoming = [0.0f32; 4];
            let mut add_edge = |src: usize, shape: &TensorShape| {
                edge_src.push(src);
                edge_dst.push(row);
                for (acc, v) in incoming.iter_mut().zip(edge_attributes(shape)) {
                    *acc += v;
                }
            };
            for &input in &pn.inputs {
                let resolved = resolve_through_rewires(patch, PatchedTensor::from_patch_ref(input));
                if let Some(shape) = shape_of(resolved) {
                    add_edge(row_of[slot(resolved.node())], shape);
                }
            }
            if let Some(shape) = pn.outputs.first() {
                add_edge(row, shape);
            }
            added_inputs.extend_from_slice(&incoming);
            let one_hot = added_inputs.len();
            added_inputs.resize(one_hot + feat_dim, 0.0);
            added_inputs[one_hot + pn.op.index()] = 1.0;
        }
        edge_offsets.push(edge_src.len());

        CandidateDelta { num_nodes, edge_src, edge_dst, edge_offsets, base_rows, changed_rows, added_inputs }
    }

    /// Sums a node row's incoming edge attributes (its contiguous edge block,
    /// in block order — the same accumulation the encoder's scatter-add
    /// performs) and appends `[incoming ‖ one-hot]` to `out`: one row of the
    /// node-update layer's input matrix.
    pub(crate) fn push_node_input_row(&self, row: usize, out: &mut Vec<f32>) {
        let mut incoming = [0.0f32; 4];
        for e in self.edge_offsets[row]..self.edge_offsets[row + 1] {
            for (acc, &v) in incoming.iter_mut().zip(self.edge_features.row(e)) {
                *acc += v;
            }
        }
        out.extend_from_slice(&incoming);
        out.extend_from_slice(self.node_features.row(row));
    }
}

/// A rewrite candidate's structure plus the row-level delta against the base
/// graph, produced by [`GraphFeatures::delta_from_base_and_patch`]: exactly
/// what [`crate::GnnEncoder::encode_candidates`] reads, and no dense
/// per-candidate feature tensor.
///
/// `num_nodes`, `edge_src`, `edge_dst` and `edge_offsets` equal those of
/// featurising the materialised candidate. `base_rows` certifies, per
/// candidate row, which base row carries the *identical* local computation
/// (same one-hot, same incoming edge attributes, same edge-block layout);
/// `changed_rows` lists the rows whose incoming-edge identities differ from
/// the base (rewired consumers and added nodes) — the seed of the dirty
/// region the encoder re-computes per message-passing layer while reusing
/// every other row from the base graph's encoding.
#[derive(Debug, Clone)]
pub struct CandidateDelta {
    /// Number of nodes of the candidate graph.
    pub num_nodes: usize,
    /// Source row of each candidate edge.
    pub edge_src: Vec<usize>,
    /// Destination row of each candidate edge.
    pub edge_dst: Vec<usize>,
    /// Start of each candidate row's edge block; length `num_nodes + 1`.
    pub edge_offsets: Vec<usize>,
    /// For each candidate row, the base row it mirrors (`None` for rows the
    /// patch added).
    pub base_rows: Vec<Option<usize>>,
    /// Candidate rows whose incoming edges differ from their base row's
    /// (rewired consumers plus all added rows), in ascending order.
    pub changed_rows: Vec<usize>,
    /// Node-update inputs `[incoming ‖ one-hot]` (`OpKind::count() + 4`
    /// values each) of the rows the patch added, in row order — bit-identical
    /// to the materialised candidate's rows.
    pub added_inputs: Vec<f32>,
}

/// Many featurised graphs stacked into one block-diagonal batch.
///
/// Node and edge rows are concatenated in graph order and edge indices are
/// shifted by each graph's node offset, so the batch is itself one large
/// disconnected graph: message passing never crosses graph boundaries, and a
/// segment index (`node_graph`) maps every node row back to its graph for the
/// per-graph readout. [`crate::GnnEncoder::encode_batch`] runs the whole
/// batch through the GAT stack in a single forward pass.
#[derive(Debug, Clone)]
pub struct GraphFeaturesBatch {
    /// `[total_nodes, OpKind::count()]` stacked one-hot operator encodings.
    pub node_features: Tensor,
    /// `[total_edges, 4]` stacked normalised edge attributes.
    pub edge_features: Tensor,
    /// Source node index of each edge, shifted into batch coordinates.
    pub edge_src: Vec<usize>,
    /// Destination node index of each edge, shifted into batch coordinates.
    pub edge_dst: Vec<usize>,
    /// Graph index of each node row (the readout segment index).
    pub node_graph: Vec<usize>,
    /// Number of graphs in the batch.
    pub num_graphs: usize,
}

impl GraphFeaturesBatch {
    /// Stacks featurised graphs into one block-diagonal batch.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty.
    pub fn new(graphs: &[&GraphFeatures]) -> Self {
        assert!(!graphs.is_empty(), "a feature batch needs at least one graph");
        let total_nodes: usize = graphs.iter().map(|g| g.num_nodes).sum();
        let total_edges: usize = graphs.iter().map(|g| g.num_edges()).sum();
        let mut edge_src = Vec::with_capacity(total_edges);
        let mut edge_dst = Vec::with_capacity(total_edges);
        let mut node_graph = Vec::with_capacity(total_nodes);
        let mut offset = 0usize;
        for (g, f) in graphs.iter().enumerate() {
            edge_src.extend(f.edge_src.iter().map(|&s| s + offset));
            edge_dst.extend(f.edge_dst.iter().map(|&d| d + offset));
            node_graph.extend(std::iter::repeat_n(g, f.num_nodes));
            offset += f.num_nodes;
        }
        let node_tensors: Vec<&Tensor> = graphs.iter().map(|g| &g.node_features).collect();
        let edge_tensors: Vec<&Tensor> = graphs.iter().map(|g| &g.edge_features).collect();
        Self {
            node_features: Tensor::concat_rows(&node_tensors),
            edge_features: Tensor::concat_rows(&edge_tensors),
            edge_src,
            edge_dst,
            node_graph,
            num_graphs: graphs.len(),
        }
    }

    /// Total number of node rows across the batch.
    pub fn num_nodes(&self) -> usize {
        self.node_graph.len()
    }

    /// Total number of edges across the batch.
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
    use xrlflow_graph::OpAttributes;
    use xrlflow_rewrite::{rules::standard_rules, RuleSet};

    fn small_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input(TensorShape::new(vec![1, 64]));
        let w = g.add_weight(TensorShape::new(vec![64, 32]));
        let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![mm.into()]).unwrap();
        g.mark_output(relu.into());
        g
    }

    #[test]
    fn one_hot_encoding_is_correct() {
        let g = small_graph();
        let f = GraphFeatures::from_graph(&g);
        assert_eq!(f.num_nodes, 4);
        assert_eq!(f.node_features.shape(), &[4, OpKind::count()]);
        // Every node has exactly one hot bit.
        for r in 0..4 {
            let row_sum: f32 = f.node_features.row(r).iter().sum();
            assert_eq!(row_sum, 1.0);
        }
    }

    #[test]
    fn edges_include_dataflow_and_self_loops() {
        let g = small_graph();
        let f = GraphFeatures::from_graph(&g);
        // 3 dataflow edges (x->mm, w->mm, mm->relu) + 4 self loops.
        assert_eq!(f.num_edges(), 7);
        assert_eq!(f.edge_features.shape(), &[7, 4]);
        assert_eq!(f.edge_src.len(), f.edge_dst.len());
        for (&s, &d) in f.edge_src.iter().zip(&f.edge_dst) {
            assert!(s < f.num_nodes && d < f.num_nodes);
        }
    }

    #[test]
    fn edge_attributes_are_normalised() {
        let g = small_graph();
        let f = GraphFeatures::from_graph(&g);
        // The x -> mm edge carries shape [1, 64] => padded [0,0,1,64] / 4096.
        let row = f.edge_features.row(0);
        assert!((row[3] - 64.0 / EDGE_NORMALISER).abs() < 1e-6);
        for &v in f.edge_features.data() {
            assert!((0.0..=1.0).contains(&v), "edge attribute {v} not normalised");
        }
    }

    #[test]
    fn feature_dim_matches_operator_count() {
        assert_eq!(GraphFeatures::node_feature_dim(), OpKind::count());
    }

    #[test]
    fn edge_offsets_delimit_per_node_blocks() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let f = GraphFeatures::from_graph(&g);
        assert_eq!(f.edge_offsets.len(), f.num_nodes + 1);
        assert_eq!(*f.edge_offsets.last().unwrap(), f.num_edges());
        for row in 0..f.num_nodes {
            for e in f.edge_offsets[row]..f.edge_offsets[row + 1] {
                assert_eq!(f.edge_dst[e], row, "edge {e} not grouped under its destination row");
            }
        }
    }

    /// A synthetic graph triggering the rule families the model zoo does not
    /// exercise (pass-through/pair eliminations, matmul/conv epilogue
    /// fusions, re-association, shared-weight merging), so the differential
    /// test covers every rule of the default rule set.
    fn rule_zoo_graph() -> Graph {
        use xrlflow_graph::Padding;
        let mut g = Graph::new();
        let shape = |d: &[usize]| TensorShape::new(d.to_vec());
        let unary = |g: &mut Graph, op, attrs, input: TensorRef| -> TensorRef {
            g.add_node(op, attrs, vec![input]).unwrap().into()
        };

        // Identity + squeeze/unsqueeze + transpose-pair + reshape-pair chain.
        let x = g.add_input(shape(&[2, 1, 4]));
        let id = unary(&mut g, OpKind::Identity, OpAttributes::default(), x.into());
        let s = unary(&mut g, OpKind::Squeeze, OpAttributes::with_axis(1), id);
        let u = unary(&mut g, OpKind::Unsqueeze, OpAttributes::with_axis(1), s);
        let t1 = unary(&mut g, OpKind::Transpose, OpAttributes::transpose(vec![1, 2, 0]), u);
        let t2 = unary(&mut g, OpKind::Transpose, OpAttributes::transpose(vec![2, 0, 1]), t1);
        let r1 = unary(&mut g, OpKind::Reshape, OpAttributes::reshape(vec![2, 4]), t2);
        let r2 = unary(&mut g, OpKind::Reshape, OpAttributes::reshape(vec![4, 2]), r1);
        g.mark_output(r2);

        // Split–concat round trip.
        let y = g.add_input(shape(&[1, 8, 4, 4]));
        let split = g.add_node(OpKind::Split, OpAttributes::split(1, 2), vec![y.into()]).unwrap();
        let cat = g
            .add_node(
                OpKind::Concat,
                OpAttributes::with_axis(1),
                vec![TensorRef::with_port(split, 0), TensorRef::with_port(split, 1)],
            )
            .unwrap();
        g.mark_output(cat.into());

        // MatMul epilogue fusions, one per fused activation.
        for act in [OpKind::Relu, OpKind::Sigmoid, OpKind::Tanh, OpKind::Gelu] {
            let a = g.add_input(shape(&[4, 16]));
            let w = g.add_weight(shape(&[16, 8]));
            let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a.into(), w.into()]).unwrap();
            let out = unary(&mut g, act, OpAttributes::default(), mm.into());
            g.mark_output(out);
        }

        // Conv epilogues: sigmoid fusion, bias-add fusion, double batch-norm.
        let img = g.add_input(shape(&[1, 3, 8, 8]));
        let wc1 = g.add_weight(shape(&[16, 3, 3, 3]));
        let conv_attrs = OpAttributes::conv2d([3, 3], [1, 1], Padding::Same, 1);
        let c1 = g.add_node(OpKind::Conv2d, conv_attrs.clone(), vec![img.into(), wc1.into()]).unwrap();
        let sig = unary(&mut g, OpKind::Sigmoid, OpAttributes::default(), c1.into());
        g.mark_output(sig);
        let wc2 = g.add_weight(shape(&[16, 3, 3, 3]));
        let c2 = g.add_node(OpKind::Conv2d, conv_attrs, vec![img.into(), wc2.into()]).unwrap();
        let bias = g.add_weight(shape(&[1, 16, 1, 1]));
        let biased = g.add_node(OpKind::Add, OpAttributes::default(), vec![c2.into(), bias.into()]).unwrap();
        g.mark_output(biased.into());
        let bn_in = g.add_input(shape(&[1, 8, 4, 4]));
        let bn1 = unary(&mut g, OpKind::BatchNorm, OpAttributes::default(), bn_in.into());
        let bn2 = unary(&mut g, OpKind::BatchNorm, OpAttributes::default(), bn1);
        g.mark_output(bn2);

        // MatMul re-association, both directions.
        let a = g.add_input(shape(&[8, 16]));
        let b = g.add_weight(shape(&[16, 32]));
        let c = g.add_weight(shape(&[32, 4]));
        let ab = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a.into(), b.into()]).unwrap();
        let abc = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![ab.into(), c.into()]).unwrap();
        g.mark_output(abc.into());
        let bc = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![b.into(), c.into()]).unwrap();
        let a2 = g.add_input(shape(&[8, 16]));
        let abc2 = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a2.into(), bc.into()]).unwrap();
        g.mark_output(abc2.into());

        // Two MatMuls sharing their weight (right operand).
        let w_shared = g.add_weight(shape(&[16, 8]));
        let in1 = g.add_input(shape(&[4, 16]));
        let in2 = g.add_input(shape(&[4, 16]));
        let m1 =
            g.add_node(OpKind::MatMul, OpAttributes::default(), vec![in1.into(), w_shared.into()]).unwrap();
        let m2 =
            g.add_node(OpKind::MatMul, OpAttributes::default(), vec![in2.into(), w_shared.into()]).unwrap();
        g.mark_output(m1.into());
        g.mark_output(m2.into());

        assert!(g.validate().is_ok());
        g
    }

    /// Checks a lean candidate delta against featurising the materialised
    /// candidate: identical structure, bit-identical node-update inputs for
    /// every added row, and every mirrored row carrying its base row's
    /// one-hot and edge-attribute block (the certification the encoder's
    /// row reuse relies on).
    fn assert_delta_matches(
        delta: &CandidateDelta,
        base: &GraphFeatures,
        eager: &GraphFeatures,
        context: &str,
    ) {
        assert_eq!(delta.num_nodes, eager.num_nodes, "{context}: node count");
        assert_eq!(delta.edge_src, eager.edge_src, "{context}: edge sources");
        assert_eq!(delta.edge_dst, eager.edge_dst, "{context}: edge destinations");
        assert_eq!(delta.edge_offsets, eager.edge_offsets, "{context}: edge offsets");
        assert_eq!(delta.base_rows.len(), eager.num_nodes, "{context}: row map length");
        let width = OpKind::count() + 4;
        let mut added = delta.added_inputs.chunks_exact(width);
        for (row, mirror) in delta.base_rows.iter().enumerate() {
            let block = |f: &GraphFeatures, r: usize| -> Vec<f32> {
                (f.edge_offsets[r]..f.edge_offsets[r + 1])
                    .flat_map(|e| f.edge_features.row(e).to_vec())
                    .collect()
            };
            match *mirror {
                Some(b) => {
                    // Bit-identical values, not approximately equal ones.
                    assert_eq!(
                        eager.node_features.row(row),
                        base.node_features.row(b),
                        "{context}: row {row} one-hot"
                    );
                    assert_eq!(block(eager, row), block(base, b), "{context}: row {row} edge attributes");
                }
                None => {
                    let mut expected = Vec::new();
                    eager.push_node_input_row(row, &mut expected);
                    assert_eq!(added.next(), Some(&expected[..]), "{context}: added row {row} input");
                }
            }
        }
        assert!(added.next().is_none(), "{context}: input rows left over for rows never added");
    }

    #[test]
    fn delta_features_match_materialised_features_for_every_rule() {
        // The per-rule differential property (mirroring the patch-vs-eager
        // test in xrlflow-rewrite): for every rule and application site on
        // the evaluated workloads, the delta derived from base features +
        // patch must agree bit for bit with featurising the materialised
        // candidate.
        let mut covered = std::collections::BTreeSet::new();
        let mut sites_checked = 0usize;
        let mut workloads: Vec<(String, Graph)> =
            [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::InceptionV3]
                .into_iter()
                .map(|kind| (kind.to_string(), build_model(kind, ModelScale::Bench).unwrap()))
                .collect();
        workloads.push(("rule-zoo".to_string(), rule_zoo_graph()));
        for (name, g) in &workloads {
            let base_features = GraphFeatures::from_graph(g);
            for rule in standard_rules() {
                for site in rule.find_matches(g) {
                    let Ok(patch) = rule.build_patch(g, &site) else { continue };
                    let delta = GraphFeatures::delta_from_base_and_patch(g, &base_features, &patch);
                    let eager = GraphFeatures::from_graph(&g.apply_patch(&patch).unwrap());
                    assert_delta_matches(&delta, &base_features, &eager, &format!("{name}/{}", rule.name()));
                    covered.insert(rule.name());
                    sites_checked += 1;
                }
            }
        }
        assert!(sites_checked >= 20, "expected many application sites, got {sites_checked}");
        // Every rule of the default rule set must be exercised somewhere.
        let all: std::collections::BTreeSet<_> = standard_rules().iter().map(|r| r.name()).collect();
        let missing: Vec<_> = all.difference(&covered).collect();
        assert!(missing.is_empty(), "rules never exercised by the differential test: {missing:?}");
    }

    #[test]
    fn delta_features_match_along_a_trajectory() {
        // Deeper property: keep applying candidates (so the base graph has
        // id holes from dead-node elimination) and re-check the differential
        // at every step.
        let mut g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let rules = RuleSet::standard();
        for step in 0..5 {
            let base_features = GraphFeatures::from_graph(&g);
            let candidates = rules.generate_candidates(&g, 16);
            if candidates.is_empty() {
                break;
            }
            for (i, c) in candidates.iter().enumerate() {
                let delta = GraphFeatures::delta_from_base_and_patch(&g, &base_features, c.patch());
                let eager = GraphFeatures::from_graph(&c.materialize(&g).unwrap());
                assert_delta_matches(&delta, &base_features, &eager, &format!("step {step}, candidate {i}"));
            }
            let chosen = &candidates[step % candidates.len()];
            g = chosen.materialize(&g).unwrap();
        }
    }

    #[test]
    fn added_inputs_hold_one_row_per_added_live_node() {
        // The lean delta stores node-update inputs for the patch's live rows
        // only: added nodes are the materialised graph's ids past every base
        // id, so count those independently of the delta's own row map.
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let base_features = GraphFeatures::from_graph(&g);
        let max_base_id = g.iter().map(|(id, _)| id).max().unwrap();
        let candidates = RuleSet::standard().generate_candidates(&g, 16);
        assert!(!candidates.is_empty());
        for c in &candidates {
            let delta = GraphFeatures::delta_from_base_and_patch(&g, &base_features, c.patch());
            let materialised = c.materialize(&g).unwrap();
            let added_live = materialised.iter().filter(|(id, _)| *id > max_base_id).count();
            assert_eq!(delta.added_inputs.len(), added_live * (OpKind::count() + 4), "{}", c.rule_name);
            assert_eq!(delta.base_rows.iter().filter(|b| b.is_none()).count(), added_live, "{}", c.rule_name);
        }
    }

    #[test]
    fn batch_stacks_block_diagonally() {
        let a = GraphFeatures::from_graph(&small_graph());
        let bert = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
        let b = GraphFeatures::from_graph(&bert);
        let batch = GraphFeaturesBatch::new(&[&a, &b]);
        assert_eq!(batch.num_graphs, 2);
        assert_eq!(batch.num_nodes(), a.num_nodes + b.num_nodes);
        assert_eq!(batch.num_edges(), a.num_edges() + b.num_edges());
        assert_eq!(batch.node_features.shape(), &[batch.num_nodes(), OpKind::count()]);
        assert_eq!(batch.edge_features.shape(), &[batch.num_edges(), 4]);
        // Graph 0's edges stay in graph 0's node range; graph 1's are shifted.
        for e in 0..a.num_edges() {
            assert!(batch.edge_src[e] < a.num_nodes && batch.edge_dst[e] < a.num_nodes);
        }
        for e in a.num_edges()..batch.num_edges() {
            assert!(batch.edge_src[e] >= a.num_nodes && batch.edge_dst[e] >= a.num_nodes);
        }
        // The segment index partitions node rows by graph.
        assert!(batch.node_graph[..a.num_nodes].iter().all(|&g| g == 0));
        assert!(batch.node_graph[a.num_nodes..].iter().all(|&g| g == 1));
    }

    #[test]
    #[should_panic(expected = "at least one graph")]
    fn empty_batch_is_rejected() {
        let _ = GraphFeaturesBatch::new(&[]);
    }
}

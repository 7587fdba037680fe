//! The Statistical Flow Graph with Loop annotation (SFGL).
//!
//! The SFGL is the paper's central profiling structure (§III-A.1): nodes are
//! basic blocks annotated with execution counts, edges carry inter-block
//! transition counts (from which transition probabilities follow), and loops
//! are annotated with how often they are entered and how many iterations they
//! execute.  Figure 2 of the paper shows an example SFGL and its scaled-down
//! version; the scale-down operation itself lives in the synthesis crate.

use bsg_ir::types::{BlockId, FuncId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Identifies a basic block across the whole program (SFGL node key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeKey {
    /// Function index.
    pub func: u32,
    /// Block index within the function.
    pub block: u32,
}

impl NodeKey {
    /// Builds a key from IR identifiers.
    pub fn new(func: FuncId, block: BlockId) -> Self {
        NodeKey {
            func: func.0,
            block: block.0,
        }
    }

    /// The function id.
    pub fn func_id(&self) -> FuncId {
        FuncId(self.func)
    }

    /// The block id.
    pub fn block_id(&self) -> BlockId {
        BlockId(self.block)
    }
}

/// A loop annotation in the SFGL.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SfglLoop {
    /// The loop header node.
    pub header: NodeKey,
    /// All blocks belonging to the loop (including the header).
    pub blocks: BTreeSet<NodeKey>,
    /// Number of times the loop was entered from outside.
    pub entries: u64,
    /// Total number of back-edge traversals (loop iterations beyond the first
    /// header execution per entry).
    pub iterations: u64,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
    /// Index of the enclosing loop within [`Sfgl::loops`], if nested.
    pub parent: Option<usize>,
}

impl SfglLoop {
    /// Average trip count per entry (iterations / entries), at least 1 when
    /// the loop ran at all.
    pub fn average_trip_count(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            (self.iterations as f64 / self.entries as f64).max(1.0)
        }
    }
}

/// The statistical flow graph with loop annotation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Sfgl {
    /// Basic-block execution counts.
    pub nodes: BTreeMap<NodeKey, u64>,
    /// Control-flow edge traversal counts.
    pub edges: BTreeMap<(NodeKey, NodeKey), u64>,
    /// Loop annotations.
    pub loops: Vec<SfglLoop>,
    /// Function call counts (how often each function was entered).
    pub calls: BTreeMap<u32, u64>,
}

impl Sfgl {
    /// Execution count of a node (0 if never executed).
    pub fn count(&self, node: NodeKey) -> u64 {
        self.nodes.get(&node).copied().unwrap_or(0)
    }

    /// Total dynamic basic-block executions.
    pub fn total_block_executions(&self) -> u64 {
        self.nodes.values().sum()
    }

    /// Outgoing edges of `node` with their traversal counts.
    pub fn successors(&self, node: NodeKey) -> Vec<(NodeKey, u64)> {
        self.edges
            .iter()
            .filter(|((from, _), _)| *from == node)
            .map(|((_, to), count)| (*to, *count))
            .collect()
    }

    /// Transition probability of the edge `from -> to` (0.0 if never taken).
    pub fn edge_probability(&self, from: NodeKey, to: NodeKey) -> f64 {
        let total: u64 = self.successors(from).iter().map(|(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let count = self.edges.get(&(from, to)).copied().unwrap_or(0);
        count as f64 / total as f64
    }

    /// The innermost loop containing `node`, if any.
    pub fn innermost_loop(&self, node: NodeKey) -> Option<usize> {
        self.loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.blocks.contains(&node))
            .max_by_key(|(_, l)| l.depth)
            .map(|(i, _)| i)
    }

    /// The loop headed at `node`, if any.
    pub fn loop_with_header(&self, node: NodeKey) -> Option<&SfglLoop> {
        self.loops.iter().find(|l| l.header == node)
    }

    /// Merges another SFGL into this one (benchmark consolidation, §II-B.e).
    pub fn merge(&mut self, other: &Sfgl) {
        for (k, v) in &other.nodes {
            *self.nodes.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.edges {
            *self.edges.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.calls {
            *self.calls.entry(*k).or_insert(0) += v;
        }
        // Loops from different programs never alias (node keys embed the
        // function index, and consolidated profiles renumber functions), so
        // they are appended with their parent indices shifted past the loops
        // already present.
        let offset = self.loops.len();
        self.loops.extend(other.loops.iter().cloned().map(|mut l| {
            l.parent = l.parent.map(|p| p + offset);
            l
        }));
    }

    /// Checks internal consistency: every edge endpoint and loop block has a
    /// node entry, and per-node outgoing-edge probabilities sum to ~1.
    /// Returns human-readable problems (empty when consistent).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (from, to) in self.edges.keys() {
            if !self.nodes.contains_key(from) {
                problems.push(format!("edge source {from:?} has no node entry"));
            }
            if !self.nodes.contains_key(to) {
                problems.push(format!("edge target {to:?} has no node entry"));
            }
        }
        for (i, l) in self.loops.iter().enumerate() {
            if !l.blocks.contains(&l.header) {
                problems.push(format!("loop {i} does not contain its own header"));
            }
            for b in &l.blocks {
                if !self.nodes.contains_key(b) {
                    problems.push(format!("loop {i} block {b:?} has no node entry"));
                }
            }
        }
        for (node, _) in self.nodes.iter().filter(|(_, c)| **c > 0) {
            let succ = self.successors(*node);
            if succ.is_empty() {
                continue; // return blocks have no successors
            }
            let p: f64 = succ
                .iter()
                .map(|(to, _)| self.edge_probability(*node, *to))
                .sum();
            if (p - 1.0).abs() > 1e-9 {
                problems.push(format!("outgoing probabilities of {node:?} sum to {p}"));
            }
        }
        problems
    }
}

bsg_ir::codec_layout!(struct NodeKey {
    func,
    block,
});

bsg_ir::codec_layout!(struct SfglLoop {
    header,
    blocks,
    entries,
    iterations,
    depth,
    parent,
});

bsg_ir::codec_layout!(struct Sfgl {
    nodes,
    edges,
    loops,
    calls,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn key(f: u32, b: u32) -> NodeKey {
        NodeKey { func: f, block: b }
    }

    /// Builds the paper's Figure 2(a) example SFGL:
    /// A(500) -> B(420) / C(80); B,C -> D(500); D -> E(5000) loop with
    /// F(1000), G(4000), H(5000); exit to I(500).
    pub(crate) fn figure2_sfgl() -> Sfgl {
        let mut s = Sfgl::default();
        let counts = [500u64, 420, 80, 500, 5000, 1000, 4000, 5000, 500];
        for (i, c) in counts.iter().enumerate() {
            s.nodes.insert(key(0, i as u32), *c);
        }
        let edges: &[((u32, u32), u64)] = &[
            ((0, 1), 420),
            ((0, 2), 80),
            ((1, 3), 420),
            ((2, 3), 80),
            ((3, 4), 500),
            ((4, 5), 1000),
            ((4, 6), 4000),
            ((5, 7), 1000),
            ((6, 7), 4000),
            ((7, 4), 4500),
            ((7, 8), 500),
        ];
        for ((from, to), c) in edges {
            s.edges.insert((key(0, *from), key(0, *to)), *c);
        }
        s.loops.push(SfglLoop {
            header: key(0, 4),
            blocks: [4u32, 5, 6, 7].iter().map(|b| key(0, *b)).collect(),
            entries: 500,
            iterations: 4500,
            depth: 1,
            parent: None,
        });
        s.calls.insert(0, 1);
        s
    }

    #[test]
    fn figure2_example_is_consistent() {
        let s = figure2_sfgl();
        assert!(s.validate().is_empty(), "{:?}", s.validate());
        assert_eq!(s.count(key(0, 4)), 5000);
        assert_eq!(s.total_block_executions(), 17_000);
    }

    #[test]
    fn edge_probabilities() {
        let s = figure2_sfgl();
        assert!((s.edge_probability(key(0, 0), key(0, 1)) - 0.84).abs() < 1e-9);
        assert!((s.edge_probability(key(0, 0), key(0, 2)) - 0.16).abs() < 1e-9);
        assert_eq!(s.edge_probability(key(0, 8), key(0, 0)), 0.0);
        assert!((s.edge_probability(key(0, 7), key(0, 4)) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn loop_queries() {
        let s = figure2_sfgl();
        assert_eq!(s.innermost_loop(key(0, 6)), Some(0));
        assert_eq!(s.innermost_loop(key(0, 0)), None);
        let l = s.loop_with_header(key(0, 4)).unwrap();
        assert!((l.average_trip_count() - 9.0).abs() < 1e-9);
        assert!(s.loop_with_header(key(0, 5)).is_none());
    }

    #[test]
    fn merge_accumulates_counts() {
        let mut a = figure2_sfgl();
        let b = figure2_sfgl();
        a.merge(&b);
        assert_eq!(a.count(key(0, 0)), 1000);
        assert_eq!(a.edges[&(key(0, 7), key(0, 4))], 9000);
        assert_eq!(a.loops.len(), 2);
        assert_eq!(a.calls[&0], 2);
        assert!(a.validate().is_empty());
    }

    #[test]
    fn validation_detects_missing_nodes() {
        let mut s = figure2_sfgl();
        s.nodes.remove(&key(0, 2));
        assert!(!s.validate().is_empty());
    }

    #[test]
    fn average_trip_count_handles_zero_entries() {
        let l = SfglLoop {
            header: key(0, 0),
            blocks: [key(0, 0)].into_iter().collect(),
            entries: 0,
            iterations: 0,
            depth: 1,
            parent: None,
        };
        assert_eq!(l.average_trip_count(), 0.0);
    }
}

//! The build graph model: a typed DAG of all data transformations.
//!
//! "Its structured nodes resemble syntax tree nodes in compilers rather
//! than homogeneous nodes in graph databases. Each node tracks its
//! dependencies, namely incoming edges, and stores metadata for analysis
//! and transformation, such as the command lines that generate the node"
//! (§4.3).

use super::compilation::CompilationModel;
use comt_toolchain::InputKind;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Index of a node within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Node types currently modeled for C/C++/Fortran ecosystems; the paper
/// notes the graph "is extensible … allowing support for new language
/// ecosystems and application domains by adding new node types".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A source file (leaf).
    Source,
    /// A header file (leaf).
    Header,
    /// A relocatable object (`.o`).
    Object,
    /// A static archive (`.a`).
    Archive,
    /// A shared object (`.so`).
    SharedObject,
    /// A linked executable.
    Executable,
    /// Platform-independent data file.
    Data,
    /// Anything else.
    Other,
}

impl NodeKind {
    /// Classify a produced/consumed path.
    pub fn classify(path: &str, produced: bool) -> NodeKind {
        match InputKind::classify(path) {
            InputKind::CSource | InputKind::CxxSource | InputKind::FortranSource => {
                NodeKind::Source
            }
            InputKind::Object => NodeKind::Object,
            InputKind::Archive => NodeKind::Archive,
            InputKind::SharedObject => NodeKind::SharedObject,
            _ => {
                if path.ends_with(".h") || path.ends_with(".hpp") || path.ends_with(".hh") {
                    NodeKind::Header
                } else if path.ends_with(".dat")
                    || path.ends_with(".in")
                    || path.ends_with(".txt")
                    || path.ends_with(".json")
                {
                    NodeKind::Data
                } else if produced {
                    // A produced extension-less file is almost always the
                    // linked binary.
                    NodeKind::Executable
                } else {
                    NodeKind::Other
                }
            }
        }
    }

    /// Whether nodes of this kind are build leaves (inputs, not products).
    pub fn is_leaf_kind(&self) -> bool {
        matches!(self, NodeKind::Source | NodeKind::Header | NodeKind::Data)
    }
}

/// One node of the build graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    pub id: NodeId,
    /// Absolute path in the build container.
    pub path: String,
    pub kind: NodeKind,
    /// Incoming edges: nodes this one was generated from.
    pub deps: Vec<NodeId>,
    /// The command that generated this node (None for leaves).
    pub cmd: Option<CompilationModel>,
}

/// Graph construction/consistency errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A cycle was detected among produced files.
    Cycle(String),
    /// Unknown node id.
    BadId(usize),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle(p) => write!(f, "build graph cycle through {p}"),
            GraphError::BadId(i) => write!(f, "unknown node id {i}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The build graph: nodes indexed by id, with a path index.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BuildGraph {
    pub nodes: Vec<Node>,
    by_path: BTreeMap<String, NodeId>,
}

impl BuildGraph {
    pub fn new() -> Self {
        BuildGraph::default()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Get-or-create the node for a path.
    pub fn node_for_path(&mut self, path: &str, kind: NodeKind) -> NodeId {
        if let Some(&id) = self.by_path.get(path) {
            return id;
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            path: path.to_string(),
            kind,
            deps: Vec::new(),
            cmd: None,
        });
        self.by_path.insert(path.to_string(), id);
        id
    }

    /// Look up a node by path.
    pub fn by_path(&self, path: &str) -> Option<&Node> {
        self.by_path.get(path).map(|&id| &self.nodes[id.0])
    }

    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0)
    }

    /// Record that `cmd` produced `output` from `inputs`. Re-producing a
    /// path replaces its provenance (last writer wins, like the recorder).
    pub fn record_production(
        &mut self,
        output: &str,
        inputs: &[String],
        cmd: CompilationModel,
    ) -> NodeId {
        let out_kind = NodeKind::classify(output, true);
        let out_id = self.node_for_path(output, out_kind);
        let dep_ids: Vec<NodeId> = inputs
            .iter()
            .map(|p| {
                let kind = NodeKind::classify(p, false);
                self.node_for_path(p, kind)
            })
            .filter(|d| *d != out_id)
            .collect();
        let node = &mut self.nodes[out_id.0];
        node.deps = dep_ids;
        node.cmd = Some(cmd);
        // A produced file is never a leaf kind.
        if node.kind.is_leaf_kind() {
            node.kind = NodeKind::Other;
        }
        self.nodes[out_id.0].kind = NodeKind::classify(output, true);
        out_id
    }

    /// Leaf nodes (no producing command).
    pub fn leaves(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.cmd.is_none())
    }

    /// Nodes with a producing command, in insertion order.
    pub fn products(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.cmd.is_some())
    }

    /// All nodes reachable *backwards* from the given targets (the
    /// sub-graph needed to rebuild them), including the targets.
    pub fn ancestors_of(&self, targets: &[NodeId]) -> BTreeSet<NodeId> {
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue: VecDeque<NodeId> = targets.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            if let Some(node) = self.node(id) {
                for d in &node.deps {
                    queue.push_back(*d);
                }
            }
        }
        seen
    }

    /// Topological order over produced nodes (dependencies first).
    /// Returns levels: nodes within a level are independent and can be
    /// rebuilt in parallel — the schedule the back-end executes.
    pub fn topo_levels(&self) -> Result<Vec<Vec<NodeId>>, GraphError> {
        // In-degree counting only edges between *produced* nodes.
        let produced: BTreeSet<NodeId> = self.products().map(|n| n.id).collect();
        let mut indeg: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut dependents: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for n in self.products() {
            let deg = n
                .deps
                .iter()
                .filter(|d| produced.contains(d))
                .inspect(|d| dependents.entry(**d).or_default().push(n.id))
                .count();
            indeg.insert(n.id, deg);
        }
        let mut level: Vec<NodeId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut levels = Vec::new();
        let mut emitted = 0usize;
        while !level.is_empty() {
            emitted += level.len();
            let mut next: Vec<NodeId> = Vec::new();
            for id in &level {
                if let Some(deps) = dependents.get(id) {
                    for d in deps {
                        let c = indeg.get_mut(d).expect("produced node");
                        *c -= 1;
                        if *c == 0 {
                            next.push(*d);
                        }
                    }
                }
            }
            levels.push(std::mem::take(&mut level));
            level = next;
        }
        if emitted != produced.len() {
            let stuck = self
                .products()
                .find(|n| indeg.get(&n.id).copied().unwrap_or(0) > 0)
                .map(|n| n.path.clone())
                .unwrap_or_default();
            return Err(GraphError::Cycle(stuck));
        }
        Ok(levels)
    }

    /// Paths of all leaf sources/headers/data needed by the targets — the
    /// files the cache layer must embed.
    pub fn required_leaves(&self, targets: &[NodeId]) -> Vec<&Node> {
        let needed = self.ancestors_of(targets);
        self.leaves()
            .filter(|n| needed.contains(&n.id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn cmd(s: &str) -> CompilationModel {
        CompilationModel::classify(&argv(s), "/src", &[], &[])
    }

    /// main.c + util.c → objects → archive → executable.
    fn sample() -> BuildGraph {
        let mut g = BuildGraph::new();
        g.record_production(
            "/src/main.o",
            &["/src/main.c".into(), "/src/app.h".into()],
            cmd("gcc -c main.c"),
        );
        g.record_production("/src/util.o", &["/src/util.c".into()], cmd("gcc -c util.c"));
        g.record_production(
            "/src/libu.a",
            &["/src/util.o".into()],
            cmd("ar rcs libu.a util.o"),
        );
        g.record_production(
            "/src/app",
            &["/src/main.o".into(), "/src/libu.a".into()],
            cmd("gcc main.o -lu -o app"),
        );
        g
    }

    #[test]
    fn kinds_classified() {
        let g = sample();
        assert_eq!(g.by_path("/src/main.c").unwrap().kind, NodeKind::Source);
        assert_eq!(g.by_path("/src/app.h").unwrap().kind, NodeKind::Header);
        assert_eq!(g.by_path("/src/main.o").unwrap().kind, NodeKind::Object);
        assert_eq!(g.by_path("/src/libu.a").unwrap().kind, NodeKind::Archive);
        assert_eq!(g.by_path("/src/app").unwrap().kind, NodeKind::Executable);
    }

    #[test]
    fn leaves_and_products() {
        let g = sample();
        let leaves: Vec<&str> = g.leaves().map(|n| n.path.as_str()).collect();
        assert_eq!(leaves.len(), 3); // main.c, app.h, util.c
        assert!(leaves.contains(&"/src/main.c"));
        assert_eq!(g.products().count(), 4);
    }

    #[test]
    fn topo_levels_respect_deps() {
        let g = sample();
        let levels = g.topo_levels().unwrap();
        // Level 0: both objects (parallel); level 1: archive; level 2: app.
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0].len(), 2);
        let level_of = |path: &str| {
            let id = g.by_path(path).unwrap().id;
            levels.iter().position(|l| l.contains(&id)).unwrap()
        };
        assert!(level_of("/src/main.o") < level_of("/src/app"));
        assert!(level_of("/src/libu.a") < level_of("/src/app"));
        assert!(level_of("/src/util.o") < level_of("/src/libu.a"));
    }

    #[test]
    fn ancestors_scope() {
        let g = sample();
        let app = g.by_path("/src/app").unwrap().id;
        let anc = g.ancestors_of(&[app]);
        assert_eq!(anc.len(), 7); // everything
        let util_o = g.by_path("/src/util.o").unwrap().id;
        let anc2 = g.ancestors_of(&[util_o]);
        assert_eq!(anc2.len(), 2); // util.o + util.c
    }

    #[test]
    fn required_leaves_for_target() {
        let g = sample();
        let app = g.by_path("/src/app").unwrap().id;
        let mut paths: Vec<&str> = g
            .required_leaves(&[app])
            .iter()
            .map(|n| n.path.as_str())
            .collect();
        paths.sort();
        assert_eq!(paths, vec!["/src/app.h", "/src/main.c", "/src/util.c"]);
    }

    #[test]
    fn reproduction_replaces_provenance() {
        let mut g = sample();
        // Recompile main.o with different flags.
        g.record_production(
            "/src/main.o",
            &["/src/main.c".into()],
            cmd("gcc -O3 -c main.c"),
        );
        let n = g.by_path("/src/main.o").unwrap();
        assert_eq!(n.deps.len(), 1);
        assert!(n.cmd.as_ref().unwrap().argv().contains(&"-O3".to_string()));
        // Node count unchanged (path reused).
        assert_eq!(g.len(), 7);
    }

    #[test]
    fn cycle_detected() {
        let mut g = BuildGraph::new();
        g.record_production("/a.o", &["/b.o".into()], cmd("gcc -c a.c"));
        g.record_production("/b.o", &["/a.o".into()], cmd("gcc -c b.c"));
        assert!(matches!(g.topo_levels(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn self_edge_ignored() {
        let mut g = BuildGraph::new();
        // In-place update: output listed among inputs.
        g.record_production("/x.o", &["/x.o".into(), "/x.c".into()], cmd("gcc -c x.c"));
        assert_eq!(g.by_path("/x.o").unwrap().deps.len(), 1);
        assert!(g.topo_levels().is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let g = sample();
        let json = serde_json::to_string(&g).unwrap();
        let back: BuildGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        assert!(back.by_path("/src/app").is_some());
    }
}

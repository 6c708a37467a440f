use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use rand::Rng;

use crate::NodeId;

/// Errors from topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// The requested node count is too small for the requested shape.
    TooFewNodes {
        /// Minimum node count the constructor supports.
        minimum: usize,
        /// Requested node count.
        actual: usize,
    },
    /// An edge endpoint is out of range.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Total number of nodes.
        n: usize,
    },
    /// A random-graph constructor failed to produce a connected graph
    /// within its retry budget.
    CouldNotConnect {
        /// Number of attempts made.
        attempts: usize,
    },
    /// The resulting graph is not strongly connected.
    NotConnected,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::TooFewNodes { minimum, actual } => {
                write!(f, "need at least {minimum} nodes, got {actual}")
            }
            TopologyError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for {n} nodes")
            }
            TopologyError::CouldNotConnect { attempts } => {
                write!(
                    f,
                    "failed to generate a connected graph in {attempts} attempts"
                )
            }
            TopologyError::NotConnected => write!(f, "graph is not strongly connected"),
        }
    }
}

impl Error for TopologyError {}

/// A static directed communication graph (the paper's network model).
///
/// All constructors produce *strongly connected* graphs, as required by the
/// convergence theorem. Undirected shapes (ring, grid, …) are represented
/// by edges in both directions.
///
/// The complete graph is stored implicitly (only its node count), so it
/// costs O(1) memory however large; every other shape keeps one neighbor
/// list per node, sorted ascending, deduplicated and free of self-loops.
/// [`Topology::neighbors`] hides the difference behind [`Neighbors`], and
/// equality compares the graphs, not their storage.
///
/// # Example
///
/// ```
/// use distclass_net::Topology;
///
/// let t = Topology::grid(3, 4);
/// assert_eq!(t.len(), 12);
/// assert!(t.is_strongly_connected());
/// // Right and down from the corner.
/// assert_eq!(t.neighbors(0).iter().collect::<Vec<_>>(), [1, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Every node links to every other node.
    Complete(usize),
    /// Per-node out-neighbor lists: ascending, deduplicated, no self-loops.
    Lists(Vec<Vec<NodeId>>),
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (0..self.len()).all(|i| self.neighbors(i) == other.neighbors(i))
    }
}

impl Eq for Topology {}

/// A node's out-neighbors in ascending order: a borrowed list, or the
/// implicit "every node but this one" of a complete graph.
///
/// `Copy` and allocation-free. [`Neighbors::get`] is O(1);
/// [`Neighbors::contains`] is O(1) on the complete graph and a binary
/// search on a list.
#[derive(Clone, Copy)]
pub struct Neighbors<'a>(NeighborsRepr<'a>);

#[derive(Clone, Copy)]
enum NeighborsRepr<'a> {
    /// `0..n` without `node`.
    AllBut {
        n: usize,
        node: NodeId,
    },
    List(&'a [NodeId]),
}

impl<'a> Neighbors<'a> {
    /// Views a list that is already sorted ascending and duplicate-free.
    pub(crate) fn from_sorted(list: &'a [NodeId]) -> Self {
        debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "unsorted list");
        Neighbors(NeighborsRepr::List(list))
    }

    /// Number of neighbors (the out-degree).
    pub fn len(&self) -> usize {
        match self.0 {
            NeighborsRepr::AllBut { n, .. } => n - 1,
            NeighborsRepr::List(list) => list.len(),
        }
    }

    /// `true` when the node has no neighbors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th neighbor in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> NodeId {
        match self.0 {
            NeighborsRepr::AllBut { n, node } => {
                assert!(
                    i < n - 1,
                    "neighbor index {i} out of range for degree {}",
                    n - 1
                );
                if i < node {
                    i
                } else {
                    i + 1
                }
            }
            NeighborsRepr::List(list) => list[i],
        }
    }

    /// `true` when `node` is one of the neighbors.
    pub fn contains(&self, node: NodeId) -> bool {
        match self.0 {
            NeighborsRepr::AllBut { n, node: me } => node < n && node != me,
            NeighborsRepr::List(list) => list.binary_search(&node).is_ok(),
        }
    }

    /// The neighbors in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.get(i))
    }
}

impl PartialEq for Neighbors<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Neighbors<'_> {}

impl fmt::Debug for Neighbors<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Topology {
    /// Builds a topology from explicit directed edges.
    ///
    /// Duplicate edges and self-loops are rejected implicitly: duplicates
    /// are deduplicated, self-loops ignored. The result always keeps
    /// explicit lists, even when the edges form a complete graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NodeOutOfRange`] for invalid endpoints and
    /// [`TopologyError::NotConnected`] if the graph is not strongly
    /// connected.
    pub fn from_directed_edges(
        n: usize,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Self, TopologyError> {
        let mut out = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n {
                return Err(TopologyError::NodeOutOfRange { node: a, n });
            }
            if b >= n {
                return Err(TopologyError::NodeOutOfRange { node: b, n });
            }
            if a != b {
                out[a].push(b);
            }
        }
        for nbrs in &mut out {
            nbrs.sort_unstable();
            nbrs.dedup();
        }
        let topo = Topology::lists(out);
        if !topo.is_strongly_connected() {
            return Err(TopologyError::NotConnected);
        }
        Ok(topo)
    }

    /// Builds a topology from undirected edges (each becomes two directed
    /// edges).
    ///
    /// # Errors
    ///
    /// Same as [`Topology::from_directed_edges`].
    pub fn from_undirected_edges(
        n: usize,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Self, TopologyError> {
        let mut directed = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            directed.push((a, b));
            directed.push((b, a));
        }
        Topology::from_directed_edges(n, &directed)
    }

    /// The complete graph on `n` nodes (the paper's simulation topology).
    /// Stored implicitly: it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn complete(n: usize) -> Self {
        assert!(n >= 2, "complete graph needs at least 2 nodes");
        Topology {
            repr: Repr::Complete(n),
        }
    }

    fn lists(out: Vec<Vec<NodeId>>) -> Self {
        Topology {
            repr: Repr::Lists(out),
        }
    }

    /// A bidirectional ring.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2, "ring needs at least 2 nodes");
        let out = (0..n)
            .map(|i| {
                let mut nbrs = vec![(i + 1) % n, (i + n - 1) % n];
                nbrs.sort_unstable();
                nbrs.dedup();
                nbrs
            })
            .collect();
        Topology::lists(out)
    }

    /// A directed cycle `0 → 1 → … → n−1 → 0` — the sparsest strongly
    /// connected graph, a worst case for convergence speed.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn directed_cycle(n: usize) -> Self {
        assert!(n >= 2, "cycle needs at least 2 nodes");
        let out = (0..n).map(|i| vec![(i + 1) % n]).collect();
        Topology::lists(out)
    }

    /// A bidirectional path (line) graph.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn line(n: usize) -> Self {
        assert!(n >= 2, "line needs at least 2 nodes");
        let out = (0..n)
            .map(|i| {
                let mut nbrs = Vec::new();
                if i > 0 {
                    nbrs.push(i - 1);
                }
                if i + 1 < n {
                    nbrs.push(i + 1);
                }
                nbrs
            })
            .collect();
        Topology::lists(out)
    }

    /// A star: node 0 is the hub connected to every leaf (both directions).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2, "star needs at least 2 nodes");
        let mut out = vec![Vec::new(); n];
        out[0] = (1..n).collect();
        for nbrs in out.iter_mut().skip(1) {
            nbrs.push(0);
        }
        Topology::lists(out)
    }

    /// A `rows × cols` 4-neighbor grid.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols < 2` or either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1 && rows * cols >= 2, "grid too small");
        let idx = |r: usize, c: usize| r * cols + c;
        let mut out = vec![Vec::new(); rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let mut nbrs = Vec::new();
                if r > 0 {
                    nbrs.push(idx(r - 1, c));
                }
                if r + 1 < rows {
                    nbrs.push(idx(r + 1, c));
                }
                if c > 0 {
                    nbrs.push(idx(r, c - 1));
                }
                if c + 1 < cols {
                    nbrs.push(idx(r, c + 1));
                }
                nbrs.sort_unstable();
                out[idx(r, c)] = nbrs;
            }
        }
        Topology::lists(out)
    }

    /// An `rows × cols` torus: a grid with wrap-around edges, so every node
    /// has exactly four neighbors (a common sensor-array idealization with
    /// no boundary effects).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 3 (smaller tori degenerate into
    /// multi-edges).
    pub fn torus(rows: usize, cols: usize) -> Self {
        assert!(rows >= 3 && cols >= 3, "torus needs both sides >= 3");
        let idx = |r: usize, c: usize| r * cols + c;
        let mut out = vec![Vec::new(); rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let mut nbrs = vec![
                    idx((r + rows - 1) % rows, c),
                    idx((r + 1) % rows, c),
                    idx(r, (c + cols - 1) % cols),
                    idx(r, (c + 1) % cols),
                ];
                nbrs.sort_unstable();
                nbrs.dedup();
                out[idx(r, c)] = nbrs;
            }
        }
        Topology::lists(out)
    }

    /// An Erdős–Rényi `G(n, p)` graph (undirected), retried until strongly
    /// connected.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::TooFewNodes`] if `n < 2` and
    /// [`TopologyError::CouldNotConnect`] if 100 attempts all fail.
    pub fn erdos_renyi<R: Rng>(n: usize, p: f64, rng: &mut R) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::TooFewNodes {
                minimum: 2,
                actual: n,
            });
        }
        const ATTEMPTS: usize = 100;
        for _ in 0..ATTEMPTS {
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen::<f64>() < p {
                        edges.push((a, b));
                    }
                }
            }
            if let Ok(t) = Topology::from_undirected_edges(n, &edges) {
                return Ok(t);
            }
        }
        Err(TopologyError::CouldNotConnect { attempts: ATTEMPTS })
    }

    /// A random geometric graph: nodes placed uniformly in the unit square,
    /// connected when within `radius` — the classic sensor-network
    /// deployment model. Retried until connected.
    ///
    /// Returns the topology together with the node positions `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::TooFewNodes`] if `n < 2` and
    /// [`TopologyError::CouldNotConnect`] if 100 attempts all fail.
    pub fn random_geometric<R: Rng>(
        n: usize,
        radius: f64,
        rng: &mut R,
    ) -> Result<(Self, Vec<(f64, f64)>), TopologyError> {
        if n < 2 {
            return Err(TopologyError::TooFewNodes {
                minimum: 2,
                actual: n,
            });
        }
        const ATTEMPTS: usize = 100;
        let r2 = radius * radius;
        for _ in 0..ATTEMPTS {
            let pos: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    let dx = pos[a].0 - pos[b].0;
                    let dy = pos[a].1 - pos[b].1;
                    if dx * dx + dy * dy <= r2 {
                        edges.push((a, b));
                    }
                }
            }
            if let Ok(t) = Topology::from_undirected_edges(n, &edges) {
                return Ok((t, pos));
            }
        }
        Err(TopologyError::CouldNotConnect { attempts: ATTEMPTS })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Complete(n) => *n,
            Repr::Lists(out) => out.len(),
        }
    }

    /// `true` when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The out-neighbors of `node`, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> Neighbors<'_> {
        match &self.repr {
            Repr::Complete(n) => {
                assert!(node < *n, "node {node} out of range for {n} nodes");
                Neighbors(NeighborsRepr::AllBut { n: *n, node })
            }
            Repr::Lists(out) => Neighbors::from_sorted(&out[node]),
        }
    }

    /// Out-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        (0..self.len()).map(|i| self.degree(i)).sum()
    }

    /// `true` when every node can reach every other node.
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.len();
        if n == 0 {
            return false;
        }
        if self.reachable_from(0).iter().any(|&r| !r) {
            return false;
        }
        // Strong connectivity also needs reachability in the reversed graph.
        let mut rev = vec![Vec::new(); n];
        for a in 0..n {
            for b in self.neighbors(a).iter() {
                rev[b].push(a);
            }
        }
        Topology::lists(rev).reachable_from(0).iter().all(|&r| r)
    }

    /// The diameter (longest shortest path) of the graph, in hops.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not strongly connected.
    pub fn diameter(&self) -> usize {
        let mut best = 0;
        for s in 0..self.len() {
            let dist = self.bfs_distances(s);
            for d in &dist {
                let d = d.expect("diameter requires a strongly connected graph");
                best = best.max(d);
            }
        }
        best
    }

    /// BFS hop distances from `source` (`None` for unreachable nodes).
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        let mut queue = VecDeque::new();
        dist[source] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("visited nodes have distances");
            for v in self.neighbors(u).iter() {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    fn reachable_from(&self, source: NodeId) -> Vec<bool> {
        self.bfs_distances(source)
            .into_iter()
            .map(|d| d.is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nbrs(t: &Topology, node: NodeId) -> Vec<NodeId> {
        t.neighbors(node).iter().collect()
    }

    #[test]
    fn complete_graph_shape() {
        let t = Topology::complete(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.edge_count(), 20);
        assert!(t.is_strongly_connected());
        assert_eq!(t.diameter(), 1);
        assert_eq!(nbrs(&t, 2), [0, 1, 3, 4]);
    }

    #[test]
    fn ring_shape() {
        let t = Topology::ring(6);
        assert_eq!(t.degree(0), 2);
        assert!(t.is_strongly_connected());
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn two_node_ring_dedups() {
        let t = Topology::ring(2);
        assert_eq!(nbrs(&t, 0), [1]);
        assert_eq!(nbrs(&t, 1), [0]);
    }

    #[test]
    fn directed_cycle_is_strongly_connected() {
        let t = Topology::directed_cycle(5);
        assert_eq!(t.degree(0), 1);
        assert!(t.is_strongly_connected());
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn line_and_star() {
        let line = Topology::line(4);
        assert_eq!(line.diameter(), 3);
        assert_eq!(nbrs(&line, 0), [1]);
        assert_eq!(nbrs(&line, 1), [0, 2]);

        let star = Topology::star(5);
        assert_eq!(star.degree(0), 4);
        assert_eq!(star.degree(3), 1);
        assert_eq!(star.diameter(), 2);
    }

    #[test]
    fn grid_shape() {
        let t = Topology::grid(3, 3);
        assert!(t.is_strongly_connected());
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.degree(4), 4); // center
        assert_eq!(t.degree(0), 2); // corner
    }

    #[test]
    fn torus_is_four_regular_and_connected() {
        let t = Topology::torus(4, 5);
        assert_eq!(t.len(), 20);
        assert!(t.is_strongly_connected());
        assert!((0..20).all(|i| t.degree(i) == 4));
        // Wrap-around shrinks the diameter below the open grid's.
        assert!(t.diameter() < Topology::grid(4, 5).diameter());
    }

    #[test]
    #[should_panic(expected = "torus needs both sides >= 3")]
    fn tiny_torus_rejected() {
        let _ = Topology::torus(2, 5);
    }

    #[test]
    fn from_directed_edges_requires_strong_connectivity() {
        // 0 → 1 but no way back.
        assert_eq!(
            Topology::from_directed_edges(2, &[(0, 1)]),
            Err(TopologyError::NotConnected)
        );
        let ok = Topology::from_directed_edges(2, &[(0, 1), (1, 0)]).unwrap();
        assert!(ok.is_strongly_connected());
    }

    #[test]
    fn from_edges_validates_range() {
        assert_eq!(
            Topology::from_directed_edges(2, &[(0, 5)]),
            Err(TopologyError::NodeOutOfRange { node: 5, n: 2 })
        );
    }

    #[test]
    fn from_edges_ignores_self_loops_and_duplicates() {
        let t = Topology::from_undirected_edges(2, &[(0, 0), (0, 1), (0, 1), (1, 0)]).unwrap();
        assert_eq!(nbrs(&t, 0), [1]);
        assert_eq!(t.edge_count(), 2);
    }

    #[test]
    fn erdos_renyi_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Topology::erdos_renyi(30, 0.2, &mut rng).unwrap();
        assert!(t.is_strongly_connected());
        assert_eq!(t.len(), 30);
    }

    #[test]
    fn erdos_renyi_rejects_tiny() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            Topology::erdos_renyi(1, 0.5, &mut rng),
            Err(TopologyError::TooFewNodes { .. })
        ));
    }

    #[test]
    fn erdos_renyi_gives_up_on_impossible_density() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            Topology::erdos_renyi(50, 0.0, &mut rng),
            Err(TopologyError::CouldNotConnect { .. })
        ));
    }

    #[test]
    fn random_geometric_connected_with_positions() {
        let mut rng = StdRng::seed_from_u64(11);
        let (t, pos) = Topology::random_geometric(40, 0.4, &mut rng).unwrap();
        assert!(t.is_strongly_connected());
        assert_eq!(pos.len(), 40);
        for (x, y) in pos {
            assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn bfs_distances_on_line() {
        let t = Topology::line(4);
        let d = t.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn display_of_errors() {
        assert!(!TopologyError::NotConnected.to_string().is_empty());
    }
}

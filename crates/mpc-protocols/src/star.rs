//! The `(n, t)`-star finding algorithm `AlgStar` of \[13\] (Section 2.1).
//!
//! Given an undirected consistency graph `G` over the parties, an
//! `(n, t)`-star is a pair `(E, F)` with `E ⊆ F`, `|E| ≥ n − 2t`,
//! `|F| ≥ n − t` and an edge between every `P_i ∈ E` and every `P_j ∈ F`.
//! The algorithm runs in polynomial time and always finds a star whenever `G`
//! contains a clique of size at least `n − t`.

use std::collections::BTreeSet;

/// An undirected graph over the `n` parties, stored as a symmetric adjacency
/// matrix. Self-loops are implicit (every party is consistent with itself).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsistencyGraph {
    n: usize,
    adj: Vec<bool>,
    edges: usize,
}

impl ConsistencyGraph {
    /// An edgeless graph over `n` parties.
    pub fn new(n: usize) -> Self {
        ConsistencyGraph {
            n,
            adj: vec![false; n * n],
            edges: 0,
        }
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges (self-loops not counted). A graph that
    /// only gains edges changes exactly when this does.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds the undirected edge `(i, j)`.
    pub fn add_edge(&mut self, i: usize, j: usize) {
        if i == j || std::mem::replace(&mut self.adj[i * self.n + j], true) {
            return;
        }
        self.adj[j * self.n + i] = true;
        self.edges += 1;
    }

    /// Removes every edge incident to `i` (the dealer "discarding" a party
    /// that published an incorrect NOK message).
    pub fn remove_vertex_edges(&mut self, i: usize) {
        for j in 0..self.n {
            if std::mem::replace(&mut self.adj[i * self.n + j], false) {
                self.adj[j * self.n + i] = false;
                self.edges -= 1;
            }
        }
    }

    /// Is there an edge between `i` and `j`? (`true` for `i == j`.)
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        i == j || self.adj[i * self.n + j]
    }

    /// Degree of `i` (number of distinct neighbours, excluding itself).
    pub fn degree(&self, i: usize) -> usize {
        (0..self.n)
            .filter(|&j| j != i && self.has_edge(i, j))
            .count()
    }

    /// Degree of `i` counting only neighbours inside `set`.
    pub fn degree_within(&self, i: usize, set: &[usize]) -> usize {
        set.iter()
            .filter(|&&j| j != i && self.has_edge(i, j))
            .count()
    }

    /// Checks whether `(e, f)` forms an `(n, t)`-star in this graph restricted
    /// to `within` (if given): `E ⊆ F ⊆ within`, the size bounds hold and all
    /// `E × F` edges are present.
    pub fn is_star(&self, t: usize, e: &[usize], f: &[usize], within: Option<&[usize]>) -> bool {
        let es: BTreeSet<_> = e.iter().copied().collect();
        let fs: BTreeSet<_> = f.iter().copied().collect();
        if !es.is_subset(&fs) {
            return false;
        }
        if es.len() < self.n.saturating_sub(2 * t) || fs.len() < self.n.saturating_sub(t) {
            return false;
        }
        if let Some(w) = within {
            let ws: BTreeSet<_> = w.iter().copied().collect();
            if !fs.is_subset(&ws) {
                return false;
            }
        }
        es.iter().all(|&i| fs.iter().all(|&j| self.has_edge(i, j)))
    }

    /// `AlgStar`: attempts to find an `(n, t)`-star within the vertex set
    /// `within` (or all parties if `None`).
    ///
    /// Uses the matching-based construction of \[13\]: compute a maximal
    /// matching `M` of the complement graph, discard matched vertices and
    /// "triangle heads", and take the remaining independent set as `E` with
    /// `F` the vertices having no complement-edge into `E`. Because the
    /// outcome depends on which maximal matching the greedy pass produces,
    /// the construction is attempted from every rotation of the vertex order
    /// and the first success is returned (a particular maximal matching can
    /// be unlucky even when a clique of size `n − t` exists).
    pub fn find_star(
        &self,
        t: usize,
        within: Option<&[usize]>,
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let verts: Vec<usize> = match within {
            Some(w) => {
                let mut v: Vec<usize> = w.to_vec();
                v.sort_unstable();
                v.dedup();
                v
            }
            None => (0..self.n).collect(),
        };
        for rot in 0..verts.len().max(1) {
            let mut order = verts.clone();
            order.rotate_left(rot);
            if let Some(star) = self.find_star_with_order(t, &verts, &order) {
                return Some(star);
            }
        }
        None
    }

    fn find_star_with_order(
        &self,
        t: usize,
        verts: &[usize],
        order: &[usize],
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        // complement edges restricted to `verts`
        let comp_edge = |i: usize, j: usize| i != j && !self.has_edge(i, j);

        // greedy maximal matching in the complement graph
        let mut matched: Vec<Option<usize>> = vec![None; self.n];
        for (ai, &a) in order.iter().enumerate() {
            if matched[a].is_some() {
                continue;
            }
            for &b in &order[ai + 1..] {
                if matched[b].is_none() && comp_edge(a, b) {
                    matched[a] = Some(b);
                    matched[b] = Some(a);
                    break;
                }
            }
        }
        let is_matched = |v: usize| matched[v].is_some();

        // triangle heads: unmatched vertices with complement edges to both
        // endpoints of some matched pair
        let matched_pairs: Vec<(usize, usize)> = verts
            .iter()
            .filter_map(|&a| matched[a].filter(|&b| a < b).map(|b| (a, b)))
            .collect();
        let mut e_set: Vec<usize> = Vec::new();
        for &v in verts {
            if is_matched(v) {
                continue;
            }
            let triangle_head = matched_pairs
                .iter()
                .any(|&(a, b)| comp_edge(v, a) && comp_edge(v, b));
            if !triangle_head {
                e_set.push(v);
            }
        }
        // F: vertices of `verts` with no complement edge into E
        let f_set: Vec<usize> = verts
            .iter()
            .copied()
            .filter(|&v| e_set.iter().all(|&u| !comp_edge(v, u)))
            .collect();

        if e_set.len() >= self.n.saturating_sub(2 * t) && f_set.len() >= self.n.saturating_sub(t) {
            Some((e_set, f_set))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clique_graph(n: usize, members: &[usize]) -> ConsistencyGraph {
        let mut g = ConsistencyGraph::new(n);
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                g.add_edge(a, b);
            }
        }
        g
    }

    #[test]
    fn full_clique_yields_full_star() {
        let n = 7;
        let g = clique_graph(n, &(0..n).collect::<Vec<_>>());
        let (e, f) = g.find_star(2, None).expect("full clique must give a star");
        assert!(g.is_star(2, &e, &f, None));
        assert_eq!(f.len(), n);
    }

    #[test]
    fn honest_clique_of_size_n_minus_t_yields_star() {
        // n = 7, t = 2: clique over parties {0,..,4} (the honest ones).
        let n = 7;
        let t = 2;
        let g = clique_graph(n, &[0, 1, 2, 3, 4]);
        let (e, f) = g
            .find_star(t, None)
            .expect("clique of size n-t must give a star");
        assert!(g.is_star(t, &e, &f, None));
        assert!(e.len() >= n - 2 * t);
        assert!(f.len() >= n - t);
    }

    #[test]
    fn empty_graph_has_no_star() {
        let g = ConsistencyGraph::new(7);
        assert!(g.find_star(2, None).is_none());
    }

    #[test]
    fn star_verification_rejects_missing_edges() {
        let n = 7;
        let t = 2;
        let mut g = clique_graph(n, &[0, 1, 2, 3, 4]);
        assert!(g.is_star(t, &[0, 1, 2], &[0, 1, 2, 3, 4], None));
        // break one E×F edge
        g.remove_vertex_edges(4);
        assert!(!g.is_star(t, &[0, 1, 2], &[0, 1, 2, 3, 4], None));
    }

    #[test]
    fn within_restriction_is_enforced() {
        let n = 7;
        let g = clique_graph(n, &(0..n).collect::<Vec<_>>());
        assert!(!g.is_star(2, &[0, 1, 2], &[0, 1, 2, 3, 4], Some(&[0, 1, 2, 3])));
    }

    #[test]
    fn degree_helpers() {
        let g = clique_graph(5, &[0, 1, 2]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.degree_within(0, &[1, 3, 4]), 1);
    }

    #[test]
    fn edge_count_follows_adds_and_removals() {
        let mut g = clique_graph(5, &[0, 1, 2]);
        assert_eq!(g.edge_count(), 3);
        g.add_edge(1, 0); // present already
        g.add_edge(3, 3); // self-loop
        assert_eq!(g.edge_count(), 3);
        g.add_edge(3, 4);
        assert_eq!(g.edge_count(), 4);
        g.remove_vertex_edges(1);
        assert_eq!(g.edge_count(), 2);
        g.remove_vertex_edges(1);
        assert_eq!(g.edge_count(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_clique_implies_star_and_star_is_valid(
            seed in any::<u64>(),
            n in 4usize..14,
            extra_edges in 0usize..20,
        ) {
            let t = (n - 1) / 3;
            let mut rng = StdRng::seed_from_u64(seed);
            // honest clique of size n - t plus random noise edges
            let mut members: Vec<usize> = (0..n).collect();
            // shuffle deterministically
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                members.swap(i, j);
            }
            let clique: Vec<usize> = members[..n - t].to_vec();
            let mut g = clique_graph(n, &clique);
            for _ in 0..extra_edges {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                g.add_edge(a, b);
            }
            let (e, f) = g.find_star(t, None).expect("clique of size n-t exists");
            prop_assert!(g.is_star(t, &e, &f, None));
        }
    }
}

//! Host-side reference state for checking the graph's answers, and the
//! seeded generator every workload draws its inputs from.
//!
//! The oracle is untimed: the workloads call it only inside `bench.*`
//! spans, outside every span that times a call into the system.

use std::collections::{HashMap, HashSet};

/// SplitMix64: a small, fast generator whose stream depends only on the
/// seed, so the same `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_word(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn draw_below(&mut self, n: u64) -> u64 {
        self.next_word() % n
    }

    /// A uniformly random vertex pair over `0..n`.
    pub fn pair(&mut self, n: u32) -> (u32, u32) {
        (
            self.draw_below(n as u64) as u32,
            self.draw_below(n as u64) as u32,
        )
    }
}

/// The live edge set of one graph, with O(1) membership, insertion,
/// removal and uniform sampling.
///
/// Undirected graphs store each edge once under its `(min, max)` key.
/// Self-loops are never stored, matching the graph, which skips them.
/// Nothing here iterates a hash container to produce an answer, so every
/// sample (and therefore every generated input) repeats exactly per seed.
pub struct Oracle {
    undirected: bool,
    /// Out-neighbours per vertex (both directions when undirected).
    adj: Vec<HashSet<u32>>,
    /// Live edge keys, in an order fixed by the operation sequence.
    items: Vec<(u32, u32)>,
    /// Key → index into `items`.
    pos: HashMap<(u32, u32), usize>,
}

impl Oracle {
    pub fn with_vertices(n_vertices: u32, undirected: bool) -> Self {
        Oracle {
            undirected,
            adj: vec![HashSet::new(); n_vertices as usize],
            items: Vec::new(),
            pos: HashMap::new(),
        }
    }

    fn key(&self, u: u32, v: u32) -> (u32, u32) {
        if self.undirected && v < u {
            (v, u)
        } else {
            (u, v)
        }
    }

    /// Live edges stored (each undirected edge once).
    pub fn edge_count(&self) -> usize {
        self.items.len()
    }

    /// Live edge keys, for the reference triangle count.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.items
    }

    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.pos.contains_key(&self.key(u, v))
    }

    /// Add an edge; returns whether it was new.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let k = self.key(u, v);
        if self.pos.contains_key(&k) {
            return false;
        }
        self.pos.insert(k, self.items.len());
        self.items.push(k);
        self.adj[u as usize].insert(v);
        if self.undirected {
            self.adj[v as usize].insert(u);
        }
        true
    }

    /// Remove an edge; returns whether it was live.
    pub fn remove_edge(&mut self, u: u32, v: u32) -> bool {
        let k = self.key(u, v);
        let Some(i) = self.pos.remove(&k) else {
            return false;
        };
        self.items.swap_remove(i);
        if let Some(&moved) = self.items.get(i) {
            self.pos.insert(moved, i);
        }
        self.adj[k.0 as usize].remove(&k.1);
        if self.undirected {
            self.adj[k.1 as usize].remove(&k.0);
        }
        true
    }

    /// Remove every edge incident to `v` (undirected graphs).
    pub fn remove_vertex(&mut self, v: u32) {
        for w in self.sorted_neighbors(v) {
            self.remove_edge(v, w);
        }
    }

    /// `u`'s out-neighbours, sorted.
    pub fn sorted_neighbors(&self, u: u32) -> Vec<u32> {
        let mut n: Vec<u32> = self.adj[u as usize].iter().copied().collect();
        n.sort_unstable();
        n
    }

    /// A uniformly random live edge, as stored.
    pub fn sample_edge(&self, rng: &mut Rng) -> Option<(u32, u32)> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items[rng.draw_below(self.items.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_keys_are_shared_and_self_loops_skipped() {
        let mut o = Oracle::with_vertices(8, true);
        assert!(o.add_edge(3, 1));
        assert!(!o.add_edge(1, 3));
        assert!(!o.add_edge(2, 2));
        assert!(o.has_edge(1, 3) && o.has_edge(3, 1));
        assert_eq!(o.sorted_neighbors(1), vec![3]);
        assert!(o.remove_edge(3, 1));
        assert!(o.edges().is_empty() && o.sorted_neighbors(3).is_empty());
    }

    #[test]
    fn vertex_removal_drops_incident_edges_only() {
        let mut o = Oracle::with_vertices(8, true);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (3, 4)] {
            o.add_edge(u, v);
        }
        o.remove_vertex(0);
        assert_eq!(o.edge_count(), 2);
        assert!(o.has_edge(1, 2) && o.has_edge(3, 4));
    }

    #[test]
    fn sampling_repeats_per_seed() {
        let mut o = Oracle::with_vertices(64, false);
        let mut rng = Rng::new(5);
        for _ in 0..100 {
            let (u, v) = rng.pair(64);
            o.add_edge(u, v);
        }
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..10).map(|_| o.sample_edge(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
    }
}

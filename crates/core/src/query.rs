//! Query operations (paper §IV-B): `edgeExist`, weight lookup, and the
//! adjacency-list iterator.
//!
//! Every query takes a [`ReadGuard`] pinned via [`DynGraph::pin_read`]:
//! queries no longer require phase separation from updates. The guard pins
//! the launch era so the slab allocator cannot recycle any slab freed at
//! or after the pin, and the slab-hash walks validate next-pointers as
//! they hop, so a query running concurrently with an insert/delete batch
//! observes a consistent snapshot. Batched queries use the same WCWS
//! grouping as Algorithm 1 so lookups hitting the same source vertex are
//! coalesced.

use crate::graph::{iter_bits, DynGraph};
use gpu_sim::{Lanes, Staged, WARP_SIZE};
use slab_alloc::ReadGuard;
use slab_hash::TableKind;

impl DynGraph {
    /// Assert the guard pins *this* graph's allocator — a guard from a
    /// different graph would not block reclamation here, silently turning
    /// "snapshot read" into "use-after-free roulette". A hard assert even
    /// in release builds: the `Arc::ptr_eq` is negligible next to the
    /// kernel launch every query performs, and callers that legitimately
    /// hold possibly-stale guards (the router's degraded path) check
    /// `owns_guard` themselves and degrade instead of calling in.
    #[inline]
    pub(crate) fn check_pin(&self, pin: &ReadGuard) {
        assert!(
            self.alloc.owns_guard(pin),
            "ReadGuard pinned against a different graph's allocator"
        );
    }

    /// Single edge-existence query (`edgeExist`, §IV-B). Runs a one-warp
    /// kernel; prefer [`Self::edges_exist`] for batches.
    pub fn edge_exists(&self, pin: &ReadGuard, src: u32, dst: u32) -> bool {
        self.edges_exist(pin, &[(src, dst)])[0]
    }

    /// Single edge-weight lookup (map graphs).
    pub fn edge_weight(&self, pin: &ReadGuard, src: u32, dst: u32) -> Option<u32> {
        self.check_pin(pin);
        assert_eq!(
            self.config.kind,
            TableKind::Map,
            "edge weights require the map variant"
        );
        let desc = self.dict.desc_host(&self.dev, src)?;
        let out = parking_lot::Mutex::new(None);
        self.dev.launch_warps("edge_weight", 1, |warp| {
            *out.lock() = desc.search(warp, dst);
        });
        out.into_inner()
    }

    /// Batched edge-existence queries: one lane per ⟨src,dst⟩ pair, grouped
    /// by source exactly like Algorithm 1's insertion work queue.
    pub fn edges_exist(&self, pin: &ReadGuard, pairs: &[(u32, u32)]) -> Vec<bool> {
        if pairs.is_empty() {
            self.check_pin(pin);
            return vec![];
        }
        self.edge_exist_results(pin, pairs)
            .read(pairs.len())
            .into_iter()
            .map(|w| w != 0)
            .collect()
    }

    /// The `edge_exist` kernel behind [`Self::edges_exist`]: answers
    /// `pairs` (at least one) into a leased result buffer, one word per
    /// pair, and hands the lease back for the caller to read.
    pub(crate) fn edge_exist_results(&self, pin: &ReadGuard, pairs: &[(u32, u32)]) -> Staged<'_> {
        self.check_pin(pin);
        let stage = |words: Vec<u32>| {
            self.dev
                .try_stage(&words, u32::MAX)
                .unwrap_or_else(|e| panic!("edges_exist: staging failed: {e}"))
        };
        let src_buf = stage(pairs.iter().map(|p| p.0).collect());
        let dst_buf = stage(pairs.iter().map(|p| p.1).collect());
        // No host zero-fill: the kernel stores every active lane's answer.
        let out_buf = self
            .dev
            .try_lease(pairs.len())
            .unwrap_or_else(|e| panic!("edges_exist: staging failed: {e}"));

        self.dev.launch_tasks("edge_exist", pairs.len(), |warp| {
            let base = warp.warp_id() * WARP_SIZE as u32;
            let srcs = warp.read_slab(src_buf.addr() + base);
            let dsts = warp.read_slab(dst_buf.addr() + base);
            let mut pending = Lanes::from_fn(|i| warp.is_active(i));
            // Each lane keeps its answer in a register across the work
            // queue; the warp stores all of them once, after it drains.
            let mut found = Lanes::splat(false);
            loop {
                let queue = warp.ballot(&pending);
                let Some(current_lane) = gpu_sim::ffs(queue) else {
                    break;
                };
                let current_src = warp.shuffle(&srcs, current_lane);
                let same_src = pending.zip_with(&srcs, |p, s| p && s == current_src);
                let group = warp.ballot(&same_src);
                let desc = self.dict.desc(warp, current_src);
                if let Some(desc) = desc {
                    for lane in iter_bits(group) {
                        found.set(lane as usize, desc.contains(warp, dsts.get(lane as usize)));
                    }
                }
                pending = pending.zip_with(&same_src, |p, s| p && !s);
            }
            // One coalesced result store: the output buffer is slab-aligned,
            // so the warp's lanes span exactly one 128 B segment.
            let addrs = Lanes::from_fn(|i| out_buf.addr() + base + i as u32);
            warp.write_lanes(&addrs, &found.map(u32::from), warp.active_mask());
        });
        out_buf
    }

    /// The one adjacency walk behind [`Self::neighbors`] and
    /// [`Self::for_each_neighbor`]: a one-warp `neighbors` kernel calling
    /// `f` with every ⟨dst, weight⟩ pair of `u` in table order (weight 0
    /// for set graphs). No launch when `u` has no table.
    fn walk_neighbors(&self, pin: &ReadGuard, u: u32, f: &mut (dyn FnMut(u32, u32) + Send)) {
        self.check_pin(pin);
        let Some(desc) = self.dict.desc_host(&self.dev, u) else {
            return;
        };
        let f = parking_lot::Mutex::new(f);
        self.dev.launch_warps("neighbors", 1, |warp| {
            let mut f = f.lock();
            match self.config.kind {
                TableKind::Map => desc.for_each_pair(warp, &mut **f),
                TableKind::Set => desc.for_each_key(warp, |k| f(k, 0)),
            }
        });
    }

    /// Retrieve vertex `u`'s adjacency list as ⟨dst, weight⟩ pairs (weight
    /// is 0 for set graphs). Uses the slab iterator (§IV-B); order is the
    /// table's internal order, not sorted.
    pub fn neighbors(&self, pin: &ReadGuard, u: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.walk_neighbors(pin, u, &mut |k, v| out.push((k, v)));
        out
    }

    /// Destination-only adjacency list.
    pub fn neighbor_ids(&self, pin: &ReadGuard, u: u32) -> Vec<u32> {
        self.neighbors(pin, u).into_iter().map(|(d, _)| d).collect()
    }

    /// Allocation-free adjacency iteration: invoke `f` with every neighbour
    /// id of `u`, walking the slab list in table order. Charges exactly the
    /// same `neighbors` kernel work as [`Self::neighbors`] without building
    /// the intermediate `Vec` — the hot path for traversal algorithms.
    pub fn for_each_neighbor(&self, pin: &ReadGuard, u: u32, f: &mut (dyn FnMut(u32) + Send)) {
        self.walk_neighbors(pin, u, &mut |k, _| f(k));
    }

    /// Whole-graph adjacency scan: invoke `f` with every stored edge as
    /// ⟨src, dst, weight⟩ (weight 0 for set graphs). One `edge_scan`
    /// kernel with one warp per vertex slot; each warp reads its vertex's
    /// descriptor and walks the slab lists exactly as
    /// [`Self::for_each_neighbor`] does, so the scan is snapshot-consistent
    /// per bucket. Order is vertex order under the sequential executor and
    /// unspecified otherwise; within a vertex it is table order.
    pub fn for_each_edge(&self, pin: &ReadGuard, f: &mut (dyn FnMut(u32, u32, u32) + Send)) {
        self.check_pin(pin);
        let f = parking_lot::Mutex::new(f);
        let cap = self.dict.capacity();
        self.dev.launch_warps("edge_scan", cap as usize, |warp| {
            let u = warp.warp_id();
            let Some(desc) = self.dict.desc(warp, u) else {
                return;
            };
            let mut f = f.lock();
            match self.config.kind {
                TableKind::Map => desc.for_each_pair(warp, |v, w| f(u, v, w)),
                TableKind::Set => desc.for_each_key(warp, |v| f(u, v, 0)),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GraphConfig;
    use crate::graph::{DynGraph, Edge};
    use gpu_sim::{
        Device, DeviceConfig, ExecPolicy, FindingKind, Lanes, SanitizerConfig, FULL_MASK,
    };
    use std::collections::HashSet;

    fn graph_with_star() -> DynGraph {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(64), 64, 1);
        let batch: Vec<Edge> = (1..40).map(|v| Edge::weighted(0, v, 100 + v)).collect();
        g.insert_edges(&batch);
        g
    }

    #[test]
    fn edges_exist_batch_mixed() {
        let g = graph_with_star();
        g.insert_edges(&[Edge::new(5, 6)]);
        let pin = g.pin_read();
        let res = g.edges_exist(&pin, &[(0, 1), (0, 39), (0, 40), (5, 6), (6, 5), (63, 0)]);
        assert_eq!(res, vec![true, true, false, true, false, false]);
    }

    #[test]
    fn edges_exist_large_batch() {
        let g = graph_with_star();
        let pin = g.pin_read();
        let pairs: Vec<(u32, u32)> = (0..200).map(|i| (0, i % 64)).collect();
        let res = g.edges_exist(&pin, &pairs);
        for (i, &(_, d)) in pairs.iter().enumerate() {
            assert_eq!(res[i], (1..40).contains(&d), "pair {i} dst {d}");
        }
    }

    /// A set graph whose vertices `0..n` each hold the single edge
    /// `v → v + 1` in a one-slab table.
    fn one_slab_chains(n: u32) -> DynGraph {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_set(2 * n), 2 * n, 1);
        g.insert_edges(&(0..n).map(|v| Edge::new(v, v + 1)).collect::<Vec<_>>());
        g
    }

    /// Transactions the lookups of `pairs` charge on their own: one
    /// descriptor read and one chain walk per pair. That is the whole
    /// lookup cost of an `edge_exist` warp whose lanes all have distinct
    /// sources (every group is a single lane).
    fn lookup_transactions(g: &DynGraph, pairs: &[(u32, u32)]) -> u64 {
        g.kernel_delta("lookup_replay", || {
            g.device().launch_warps("lookup_replay", 1, |warp| {
                for &(src, dst) in pairs {
                    if let Some(desc) = g.dict.desc(warp, src) {
                        desc.contains(warp, dst);
                    }
                }
            })
        })
        .transactions
    }

    #[test]
    fn edge_exist_stores_a_warps_results_once() {
        // 32 distinct sources: 32 single-lane groups, one result store.
        let g = one_slab_chains(32);
        let pin = g.pin_read();
        let pairs: Vec<(u32, u32)> = (0..32).map(|v| (v, v + 1 + v % 2)).collect();
        let mut res = Vec::new();
        let c = g.kernel_delta("edge_exist", || res = g.edges_exist(&pin, &pairs));
        assert_eq!(res, (0..32).map(|v| v % 2 == 0).collect::<Vec<_>>());
        assert_eq!((c.launches, c.warps), (1, 1));
        // Two coalesced batch loads, the lookups, one result store.
        assert_eq!(c.transactions, 2 + lookup_transactions(&g, &pairs) + 1);
    }

    #[test]
    fn edge_exist_tail_warp_stores_once() {
        // 40 queries: a full warp and a tail warp of 8 active lanes.
        let g = one_slab_chains(40);
        let pin = g.pin_read();
        let pairs: Vec<(u32, u32)> = (0..40).map(|v| (v, v + 1)).collect();
        let mut res = Vec::new();
        let c = g.kernel_delta("edge_exist", || res = g.edges_exist(&pin, &pairs));
        assert!(res.iter().all(|&hit| hit));
        assert_eq!((c.launches, c.warps), (1, 2));
        assert_eq!(c.transactions, 2 * 2 + lookup_transactions(&g, &pairs) + 2);
    }

    #[test]
    fn edge_exist_never_writes_result_padding() {
        // An initcheck sanitizer flags every word no one has written: the
        // result buffer's 24 padding words must stay that way, with no
        // host zero-fill and no kernel store.
        let dev = Device::with_config(
            DeviceConfig::new(1 << 22).with_sanitizer(SanitizerConfig::default()),
        );
        let g = DynGraph::on_device(std::sync::Arc::new(dev), GraphConfig::directed_set(64));
        g.insert_edges(&(0..40).map(|v| Edge::new(v, v + 1)).collect::<Vec<_>>());
        let pin = g.pin_read();
        let pairs: Vec<(u32, u32)> = (0..40).map(|v| (v, v + 1)).collect();
        // The two-slab result lease the query hands back, read while it
        // is still leased (a released lease reads as never written).
        let results = g.edge_exist_results(&pin, &pairs);
        assert!(results.read(40).iter().all(|&hit| hit == 1));
        let out = results.addr();
        assert_eq!(results.words(), 64);
        g.device().launch_warps("read_results", 1, |warp| {
            for slab in [out, out + 32] {
                warp.read_lanes(&Lanes::from_fn(|i| slab + i as u32), FULL_MASK);
            }
        });
        let unwritten: Vec<u32> = g
            .device()
            .sanitizer_findings()
            .iter()
            .filter(|f| f.kernel == "read_results")
            .inspect(|f| assert_eq!(f.kind, FindingKind::UninitRead, "{f}"))
            .map(|f| f.addr)
            .collect();
        assert_eq!(unwritten, (out + 40..out + 64).collect::<Vec<_>>());
    }

    #[test]
    fn edges_exist_answers_warps_with_many_groups() {
        // 7 sources cycle through every warp, so each warp drains 7
        // multi-lane groups; a third of the pairs miss.
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_set(64), 64, 1);
        let edges: Vec<Edge> = (0..7u32)
            .flat_map(|s| {
                (0..40)
                    .filter(|d| d % 3 != 0)
                    .map(move |d| Edge::new(s, 8 + d))
            })
            .collect();
        g.insert_edges(&edges);
        let live: HashSet<(u32, u32)> = edges.iter().map(|e| (e.src, e.dst)).collect();
        let pairs: Vec<(u32, u32)> = (0..100u32).map(|i| (i % 7, 8 + (i * 13) % 40)).collect();
        let res = g.edges_exist(&g.pin_read(), &pairs);
        for (p, hit) in pairs.iter().zip(res) {
            assert_eq!(hit, live.contains(p), "pair {p:?}");
        }
    }

    #[test]
    fn neighbors_returns_all_pairs() {
        let g = graph_with_star();
        let pin = g.pin_read();
        let mut n = g.neighbors(&pin, 0);
        n.sort_unstable();
        let expect: Vec<(u32, u32)> = (1..40).map(|v| (v, 100 + v)).collect();
        assert_eq!(n, expect);
    }

    #[test]
    fn neighbors_of_untouched_vertex_is_empty() {
        let g = graph_with_star();
        let pin = g.pin_read();
        assert!(g.neighbors(&pin, 63).is_empty());
        assert!(g.neighbor_ids(&pin, 62).is_empty());
    }

    #[test]
    fn neighbors_reflect_deletions() {
        let g = graph_with_star();
        g.delete_edges(&[Edge::new(0, 1), Edge::new(0, 2)]);
        let pin = g.pin_read();
        let ids = g.neighbor_ids(&pin, 0);
        assert!(!ids.contains(&1));
        assert!(!ids.contains(&2));
        assert_eq!(ids.len(), 37);
    }

    #[test]
    fn empty_query_batch() {
        let g = graph_with_star();
        let pin = g.pin_read();
        assert!(g.edges_exist(&pin, &[]).is_empty());
    }

    #[test]
    fn set_graph_neighbors_have_zero_weights() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_set(8), 8, 1);
        g.insert_edges(&[Edge::new(1, 2), Edge::new(1, 3)]);
        let pin = g.pin_read();
        let mut n = g.neighbors(&pin, 1);
        n.sort_unstable();
        assert_eq!(n, vec![(2, 0), (3, 0)]);
    }

    /// 96 vertex slots, one-bucket tables on the first 64 and a lazily
    /// built one on 70: hubs 0–3 chain several slabs, deletes leave
    /// tombstones in hub chains, and vertex 2 is deleted outright.
    fn churned(config: GraphConfig, policy: ExecPolicy) -> DynGraph {
        let mut g = DynGraph::with_uniform_buckets(config, 64, 1);
        g.device_mut().set_policy(policy);
        let mut edges: Vec<Edge> = (0..4)
            .flat_map(|s| (4..64).map(move |d| Edge::weighted(s, d, 1000 * s + d)))
            .collect();
        edges.extend((4..64).map(|v| Edge::weighted(v, (v + 1 + v % 5) % 64, v)));
        edges.push(Edge::weighted(70, 5, 7));
        g.insert_edges(&edges);
        g.delete_edges(
            &(4..64)
                .step_by(3)
                .map(|d| Edge::new(0, d))
                .collect::<Vec<_>>(),
        );
        g.delete_edges(&(20..40).map(|d| Edge::new(1, d)).collect::<Vec<_>>());
        g.delete_vertices(&[2]);
        g
    }

    fn scanned(g: &DynGraph) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        g.for_each_edge(&g.pin_read(), &mut |u, v, w| out.push((u, v, w)));
        out.sort_unstable();
        out
    }

    #[test]
    fn edge_scan_is_one_launch_with_a_warp_per_vertex_slot() {
        let g = churned(GraphConfig::directed_map(96), ExecPolicy::Sequential);
        let pin = g.pin_read();
        let stats = g.stats(&pin);
        assert!(
            stats.tables.slabs > stats.tables.buckets,
            "multi-slab chains"
        );
        let mut n = 0u64;
        let c = g.kernel_delta("edge_scan", || g.for_each_edge(&pin, &mut |_, _, _| n += 1));
        assert_eq!(n, g.num_edges());
        assert_eq!((c.launches, c.warps), (1, 96));
        // One descriptor read per slot (two where the entry's first two
        // words straddle a 128 B segment), every slab of every chain, and
        // one validated hop per link.
        let desc_reads: u64 = (0..96).map(|v| 1 + u64::from(3 * v % 32 == 31)).sum();
        assert_eq!(
            c.transactions,
            desc_reads + 2 * stats.tables.slabs - stats.tables.buckets
        );
        assert_eq!(c.atomics, 0);
        assert_eq!(c.words_allocated, 0);
    }

    #[test]
    fn edge_scan_yields_the_union_of_per_vertex_neighbors() {
        for config in [GraphConfig::directed_map(96), GraphConfig::directed_set(96)] {
            let g = churned(config, ExecPolicy::Sequential);
            let pin = g.pin_read();
            let mut want: Vec<(u32, u32, u32)> = (0..g.vertex_capacity())
                .flat_map(|u| {
                    g.neighbors(&pin, u)
                        .into_iter()
                        .map(move |(v, w)| (u, v, w))
                })
                .collect();
            want.sort_unstable();
            assert!(want.iter().any(|&(u, _, _)| u == 70), "lazy table scanned");
            assert!(
                !want.iter().any(|&(u, v, _)| u == 2 || v == 2),
                "vertex 2 gone"
            );
            assert_eq!(want.len() as u64, g.num_edges());
            assert_eq!(scanned(&g), want, "{:?}", config.kind);
            let threaded = churned(config, ExecPolicy::Threaded(4));
            assert_eq!(
                scanned(&threaded),
                want,
                "{:?} under Threaded(4)",
                config.kind
            );
        }
    }

    #[test]
    fn pin_spanning_mutation_still_reads_current_state() {
        // A guard taken before a batch doesn't freeze the *data* — it only
        // protects reclamation. Reads through an old guard see the newest
        // published state (snapshot-at-walk, not snapshot-at-pin).
        let g = graph_with_star();
        let pin = g.pin_read();
        assert!(g.edge_exists(&pin, 0, 1));
        g.delete_edges(&[Edge::new(0, 1)]);
        assert!(!g.edge_exists(&pin, 0, 1));
        assert!(g.allocator().pinned_readers() >= 1);
        drop(pin);
        assert_eq!(g.allocator().pinned_readers(), 0);
    }

    #[test]
    fn guard_era_is_monotonic_across_batches() {
        let g = graph_with_star();
        let before = g.pin_read().era();
        g.insert_edges(&[Edge::new(40, 41)]);
        let after = g.pin_read().era();
        assert!(
            after > before,
            "mutation batches must advance the era ({before} → {after})"
        );
    }
}

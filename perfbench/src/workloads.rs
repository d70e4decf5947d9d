//! The three workloads. Each is a closed loop driven by one generator
//! thread: a round's next call is made only after the previous returns.
//!
//! Every call into the system goes through [`Pass::timed`]; generation
//! and oracle checks run in `bench.gen` / `bench.oracle` spans and are
//! excluded from every host metric.

use crate::oracle::{Oracle, Rng};
use crate::pass::{Op, Pass};
use gpu_sim::{Device, MetricSummary};
use router::{BatchRouter, ShardedGraph, Update};
use slabgraph::{BatchOutcome, DynGraph, Edge, GraphConfig, GraphError, GraphStats};
use std::time::Instant;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkUpdate,
    ReadMix,
    RouterIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BulkUpdate,
        Workload::ReadMix,
        Workload::RouterIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkUpdate => "bulk_update",
            Workload::ReadMix => "read_mix",
            Workload::RouterIngest => "router_ingest",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The Table I dataset whose generator supplies the initial graph.
    pub fn dataset(self) -> &'static str {
        match self {
            Workload::BulkUpdate => "soc-LiveJournal1",
            Workload::ReadMix | Workload::RouterIngest => "rgg_n_2_20_s0",
        }
    }

    /// Rounds per episode. Every episode starts from a fresh set-up and
    /// replays the same rounds, so the graph never drifts with run length;
    /// modeled metrics and exact counters come from the first episode.
    pub fn episode_rounds(self) -> usize {
        match self {
            Workload::BulkUpdate => 8,
            Workload::ReadMix => 8,
            Workload::RouterIngest => 256,
        }
    }

    /// The op whose per-call host latency is the workload's "batch".
    pub fn batch_op(self) -> Op {
        match self {
            Workload::BulkUpdate => Op::Insert,
            Workload::ReadMix => Op::Query,
            Workload::RouterIngest => Op::Flush,
        }
    }
}

/// Batch sizes at full scale; every size is shifted right by `shrink`.
pub struct Sizes {
    pub insert: usize,
    pub delete: usize,
    pub vertex_delete: usize,
    pub query: usize,
    pub query_batches: usize,
    pub neighbor_reads: usize,
    pub flush: usize,
    pub sessions: usize,
    pub shards: usize,
}

impl Sizes {
    pub fn of(w: Workload, shrink: u32) -> Sizes {
        let s = |n: usize| (n >> shrink).max(8);
        let zero = Sizes {
            insert: 0,
            delete: 0,
            vertex_delete: 0,
            query: 0,
            query_batches: 0,
            neighbor_reads: 0,
            flush: 0,
            sessions: 0,
            shards: 0,
        };
        match w {
            Workload::BulkUpdate => Sizes {
                insert: s(1 << 16),
                delete: s(1 << 15),
                vertex_delete: s(1 << 8),
                query: s(1 << 14),
                query_batches: 1,
                ..zero
            },
            Workload::ReadMix => Sizes {
                insert: s(1 << 10),
                delete: s(1 << 10),
                query: s(1 << 14),
                query_batches: 4,
                neighbor_reads: s(1 << 10),
                ..zero
            },
            Workload::RouterIngest => Sizes {
                flush: s(1 << 10),
                query: s(1 << 8),
                query_batches: 1,
                sessions: 4,
                shards: 2,
                ..zero
            },
        }
    }
}

/// The generated initial graph.
pub struct Input {
    pub n_vertices: u32,
    pub edges: Vec<Edge>,
}

/// Generate the dataset at the catalog's default scale (shifted right by
/// `shrink`), with weights on map-kind workloads.
pub fn generate_input(w: Workload, shrink: u32, seed: u64) -> Input {
    let spec = graph_gen::dataset(w.dataset()).expect("dataset is in the catalog");
    let ds = spec.generate((spec.default_scale() >> shrink).max(256), seed);
    let edges = match w {
        Workload::ReadMix => ds.edges.iter().map(|&p| Edge::from(p)).collect(),
        Workload::BulkUpdate | Workload::RouterIngest => graph_gen::weighted(&ds.edges, seed)
            .into_iter()
            .map(Edge::from)
            .collect(),
    };
    Input {
        n_vertices: ds.n_vertices,
        edges,
    }
}

fn config_for(w: Workload, input: &Input) -> GraphConfig {
    let n = input.n_vertices;
    let mut c = match w {
        Workload::BulkUpdate => GraphConfig::undirected_map(n),
        Workload::ReadMix => GraphConfig::undirected_set(n),
        Workload::RouterIngest => GraphConfig::directed_map(n),
    };
    c.device_words = (input.edges.len() * 12).max(1 << 20);
    c.pool_slabs = (input.edges.len() / 64).max(1 << 10);
    c
}

/// One workload instance over a built graph.
pub trait Bench {
    /// One closed-loop round.
    fn play_round(&mut self, r: usize, pass: &mut Pass);
    /// Figures taken at the end of the first episode: memory and table
    /// statistics.
    fn take_snapshot(&mut self, pass: &mut Pass);
    /// Untimed end-of-episode checks and profiler figures.
    fn end_episode(&mut self, pass: &mut Pass);
}

/// Build the graph for `input` and hand the ready workload to `run`
/// together with the build seconds (the build part of set-up). The oracle
/// it checks against is made before the timed build.
pub fn build_and_run(
    w: Workload,
    input: &Input,
    shrink: u32,
    seed: u64,
    flip_one_answer: bool,
    run: &mut dyn FnMut(&mut dyn Bench, f64),
) {
    let cfg = config_for(w, input);
    let mut oracle = Oracle::with_vertices(input.n_vertices, w != Workload::RouterIngest);
    for e in &input.edges {
        oracle.add_edge(e.src, e.dst);
    }
    let c = Common {
        n: input.n_vertices,
        sizes: Sizes::of(w, shrink),
        // The update stream draws from its own seed, apart from the dataset's.
        rng: Rng::new(seed ^ 0x5eed_5eed_5eed_5eed),
        oracle,
        flip_one_answer,
        last_tc: None,
    };
    let t = Instant::now();
    match w {
        Workload::BulkUpdate | Workload::ReadMix => {
            let g = DynGraph::bulk_build(cfg, &input.edges);
            let build_s = t.elapsed().as_secs_f64();
            run(&mut Single { w, g, c }, build_s);
        }
        Workload::RouterIngest => {
            let sg = ShardedGraph::bulk_build(c.sizes.shards, cfg, &input.edges);
            let router = BatchRouter::new(&sg);
            let build_s = t.elapsed().as_secs_f64();
            let mut b = Routed {
                sg: &sg,
                router,
                c,
                imbalance: (0.0, 0.0),
                incomplete: 0,
            };
            run(&mut b, build_s);
        }
    }
}

/// State shared by every workload: sizes, generator and oracle.
struct Common {
    n: u32,
    sizes: Sizes,
    rng: Rng,
    oracle: Oracle,
    flip_one_answer: bool,
    /// The most recent triangle count the system returned.
    last_tc: Option<u64>,
}

impl Common {
    fn random_edges(&mut self, k: usize, weighted: bool) -> Vec<Edge> {
        (0..k)
            .map(|_| {
                let (u, v) = self.rng.pair(self.n);
                if weighted {
                    Edge::weighted(u, v, (self.rng.draw_below(1 << 20) + 1) as u32)
                } else {
                    Edge::new(u, v)
                }
            })
            .collect()
    }

    /// Half live edges (sampled from the oracle), half random pairs.
    fn half_live_pairs(&mut self, k: usize) -> Vec<(u32, u32)> {
        (0..k)
            .map(|i| match (i % 2, self.oracle.sample_edge(&mut self.rng)) {
                (0, Some(e)) => e,
                _ => self.rng.pair(self.n),
            })
            .collect()
    }

    /// Compare query answers with the oracle; returns the true answers.
    fn check_answers(&mut self, pass: &mut Pass, pairs: &[(u32, u32)], got: &[bool]) -> u64 {
        let mut wrong = (got.len() != pairs.len()) as u64;
        for (i, (&(u, v), &g)) in pairs.iter().zip(got).enumerate() {
            let mut want = self.oracle.has_edge(u, v);
            if self.flip_one_answer && i == 0 {
                self.flip_one_answer = false;
                want = !want;
            }
            wrong += (want != g) as u64;
        }
        pass.fail(wrong, || format!("{wrong} wrong edge-existence answers"));
        got.iter().filter(|&&b| b).count() as u64
    }
}

/// Count a batch's unapplied suffix as failed; returns its change count.
fn pending(pass: &mut Pass, what: &str, o: &BatchOutcome) -> u64 {
    let n = (o.pending.len() + o.pending_vertices.len()) as u64;
    pass.fail(n, || format!("{what}: {n} ops left pending"));
    o.changed
}

/// [`pending`] for a `try_*` result; a refused batch fails every item.
fn applied(
    pass: &mut Pass,
    what: &str,
    items: usize,
    out: &Result<BatchOutcome, GraphError>,
) -> u64 {
    match out {
        Ok(o) => pending(pass, what, o),
        Err(e) => {
            pass.fail(items as u64, || format!("{what}: refused: {e}"));
            0
        }
    }
}

fn check_count(pass: &mut Pass, what: &str, got: u64, want: u64) {
    let diff = got.abs_diff(want);
    pass.fail(diff, || {
        format!("{what}: system counted {got}, oracle {want}")
    });
}

fn probe_depth(pass: &mut Pass, metrics: &[MetricSummary]) {
    if let Some(m) = metrics.iter().find(|m| m.name == "slab_hash.probe_depth") {
        pass.values
            .insert("slab_hash.probe_depth_p50", m.p50 as f64);
        pass.values
            .insert("slab_hash.probe_depth_p99", m.p99 as f64);
    }
}

fn table_values(pass: &mut Pass, stats: &[GraphStats], graphs: &[&DynGraph]) {
    let mut tables = GraphStats::default();
    let mut bytes = 0u64;
    for s in stats {
        tables.tables.merge(&s.tables);
        bytes += s.memory_bytes();
    }
    let v = &mut pass.values;
    v.insert("device_mib", bytes as f64 / (1 << 20) as f64);
    v.insert("slab_hash.avg_chain", tables.avg_chain());
    v.insert("slab_hash.utilization", tables.utilization());
    let sum = |f: &dyn Fn(&DynGraph) -> u64| graphs.iter().map(|g| f(g)).sum::<u64>() as f64;
    v.insert(
        "slab_alloc.live_slabs",
        sum(&|g| g.allocator().live_slabs()),
    );
    v.insert(
        "slab_alloc.total_allocated",
        sum(&|g| g.allocator().total_allocated()),
    );
    v.insert(
        "slab_alloc.quarantined_slabs",
        sum(&|g| g.allocator().quarantined_slabs() as u64),
    );
    v.insert(
        "slab_alloc.pool_words",
        sum(&|g| g.allocator().pool_words()),
    );
    v.insert("host_peak_rss_mib", peak_rss_mib());
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Half-edges an undirected graph stores, and counts, per edge.
const HALF_EDGES: u64 = 2;

/// `bulk_update` and `read_mix`: one undirected graph on one device.
struct Single {
    w: Workload,
    g: DynGraph,
    c: Common,
}

impl Single {
    fn do_insert(&mut self, pass: &mut Pass) {
        let weighted = self.w == Workload::BulkUpdate;
        let k = self.c.sizes.insert;
        let batch = pass
            .tracer
            .span("bench.gen", || self.c.random_edges(k, weighted));
        let g = &self.g;
        let (out, _) = pass.timed(Op::Insert, &[g.device()], k as u64, || {
            g.try_insert_edges(&batch)
        });
        let id = pass.tracer.open("bench.oracle");
        let changed = applied(pass, "insert_edges", k, &out);
        let new = batch
            .iter()
            .filter(|e| self.c.oracle.add_edge(e.src, e.dst))
            .count() as u64;
        check_count(pass, "insert_edges new edges", changed, new * HALF_EDGES);
        pass.useful(Op::Insert, changed, k as u64 * HALF_EDGES);
        pass.tracer.close(id);
    }

    fn do_delete(&mut self, pass: &mut Pass) {
        let k = self.c.sizes.delete;
        let batch: Vec<Edge> = pass.tracer.span("bench.gen", || {
            self.c
                .half_live_pairs(k)
                .into_iter()
                .map(Edge::from)
                .collect()
        });
        let g = &self.g;
        let (out, _) = pass.timed(Op::Delete, &[g.device()], k as u64, || {
            g.try_delete_edges(&batch)
        });
        let id = pass.tracer.open("bench.oracle");
        let changed = applied(pass, "delete_edges", k, &out);
        let gone = batch
            .iter()
            .filter(|e| self.c.oracle.remove_edge(e.src, e.dst))
            .count() as u64;
        check_count(pass, "delete_edges deleted", changed, gone * HALF_EDGES);
        pass.useful(Op::Delete, changed, k as u64 * HALF_EDGES);
        pass.tracer.close(id);
    }

    fn do_delete_vertices(&mut self, pass: &mut Pass) {
        let k = self.c.sizes.vertex_delete.min(self.c.n as usize);
        let victims: Vec<u32> = pass.tracer.span("bench.gen", || {
            let mut taken = vec![false; self.c.n as usize];
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let v = self.c.rng.draw_below(self.c.n as u64) as u32;
                if !std::mem::replace(&mut taken[v as usize], true) {
                    out.push(v);
                }
            }
            out
        });
        let g = &self.g;
        let (out, _) = pass.timed(Op::DeleteVertices, &[g.device()], k as u64, || {
            g.try_delete_vertices(&victims)
        });
        let id = pass.tracer.open("bench.oracle");
        applied(pass, "delete_vertices", k, &out);
        for &v in &victims {
            self.c.oracle.remove_vertex(v);
        }
        pass.tracer.close(id);
    }

    fn do_queries(&mut self, pass: &mut Pass) {
        let pin = self.g.pin_read();
        for _ in 0..self.c.sizes.query_batches {
            let k = self.c.sizes.query;
            let pairs = pass.tracer.span("bench.gen", || self.c.half_live_pairs(k));
            let g = &self.g;
            let (got, _) = pass.timed(Op::Query, &[g.device()], k as u64, || {
                g.edges_exist(&pin, &pairs)
            });
            let id = pass.tracer.open("bench.oracle");
            let hits = self.c.check_answers(pass, &pairs, &got);
            pass.useful(Op::Query, hits, k as u64);
            pass.tracer.close(id);
        }
    }

    fn do_neighbor_reads(&mut self, pass: &mut Pass) {
        let k = self.c.sizes.neighbor_reads;
        let n = self.c.n as u64;
        let vs: Vec<u32> = pass.tracer.span("bench.gen", || {
            (0..k).map(|_| self.c.rng.draw_below(n) as u32).collect()
        });
        let g = &self.g;
        let pin = g.pin_read();
        let (got, _) = pass.timed(Op::Neighbors, &[g.device()], k as u64, || {
            vs.iter()
                .map(|&u| g.neighbor_ids(&pin, u))
                .collect::<Vec<_>>()
        });
        let id = pass.tracer.open("bench.oracle");
        let wrong: u64 = vs
            .iter()
            .zip(got)
            .map(|(&u, mut list)| {
                list.sort_unstable();
                (list != self.c.oracle.sorted_neighbors(u)) as u64
            })
            .sum();
        pass.fail(wrong, || format!("{wrong} wrong neighbour lists"));
        pass.tracer.close(id);
    }

    fn do_triangle_count(&mut self, r: usize, pass: &mut Pass) {
        let g = &self.g;
        let (count, _) = pass.timed(Op::Tc, &[g.device()], 0, || algos::tc(g));
        self.c.last_tc = Some(count);
        if r == 0 {
            let id = pass.tracer.open("bench.oracle");
            if let Some(want) = reference_tc(&self.c, count) {
                pass.fail(1, || format!("triangle count {count}, reference {want}"));
            }
            pass.tracer.close(id);
        }
    }
}

impl Bench for Single {
    fn play_round(&mut self, r: usize, pass: &mut Pass) {
        let s = &self.c.sizes;
        pass.attempt(
            (s.insert + s.delete + s.vertex_delete + s.query * s.query_batches + s.neighbor_reads)
                as u64
                + (self.w == Workload::ReadMix) as u64,
        );
        self.do_insert(pass);
        self.do_delete(pass);
        if self.w == Workload::BulkUpdate {
            self.do_delete_vertices(pass);
        }
        self.do_queries(pass);
        if self.w == Workload::ReadMix {
            self.do_neighbor_reads(pass);
            self.do_triangle_count(r, pass);
        }
    }

    fn take_snapshot(&mut self, pass: &mut Pass) {
        let stats = self.g.stats(&self.g.pin_read());
        table_values(pass, &[stats], &[&self.g]);
    }

    fn end_episode(&mut self, pass: &mut Pass) {
        if let Err(e) = self.g.validate() {
            let rest = pass.attempted.saturating_sub(pass.failed).max(1);
            pass.fail(rest, || format!("validate: {e}"));
        }
        check_count(
            pass,
            "num_edges",
            self.g.num_edges(),
            self.c.oracle.edge_count() as u64 * HALF_EDGES,
        );
        if let Some(count) = self.c.last_tc {
            if let Some(want) = reference_tc(&self.c, count) {
                pass.fail(1, || {
                    format!("final triangle count {count}, reference {want}")
                });
            }
        }
        if let Some(p) = self.g.device().profiler() {
            probe_depth(pass, &p.metric_summaries());
        }
    }
}

/// `Some(reference)` when the system's triangle count disagrees with
/// `algos::tc_reference` over the oracle's edges.
fn reference_tc(c: &Common, got: u64) -> Option<u64> {
    let want = algos::tc_reference(c.n, c.oracle.edges());
    (want != got).then_some(want)
}

/// `router_ingest`: a directed map over shards behind a [`BatchRouter`].
struct Routed<'g> {
    sg: &'g ShardedGraph,
    router: BatchRouter<'g>,
    c: Common,
    /// First-episode sums of the per-flush max and mean shard modeled time.
    imbalance: (f64, f64),
    incomplete: u64,
}

impl Routed<'_> {
    /// Copies an edge lands on: its owner, plus a replica when cut.
    fn copies(&self, e: &Edge) -> u64 {
        let n = self.sg.num_shards();
        1 + (router::shard_of(e.src, n) != router::shard_of(e.dst, n)) as u64
    }
}

impl Bench for Routed<'_> {
    fn play_round(&mut self, _r: usize, pass: &mut Pass) {
        let k = self.c.sizes.flush;
        let sessions = self.c.sizes.sessions;
        pass.attempt((k + self.c.sizes.query) as u64);
        let updates: Vec<Update> = pass.tracer.span("bench.gen", || {
            (0..k)
                .map(|_| {
                    let live = if self.c.rng.draw_below(4) == 0 {
                        self.c.oracle.sample_edge(&mut self.c.rng)
                    } else {
                        None
                    };
                    match live {
                        Some((u, v)) => Update::Delete(Edge::new(u, v)),
                        None => Update::Insert(self.c.random_edges(1, true)[0]),
                    }
                })
                .collect()
        });
        let router = &self.router;
        pass.timed(Op::Submit, &[], k as u64, || {
            for (i, &u) in updates.iter().enumerate() {
                router.submit(i % sessions, u);
            }
        });
        let sg = self.sg;
        let devs: Vec<&Device> = sg.group().devices().iter().map(|d| &**d).collect();
        let (report, deltas) = pass.timed(Op::Flush, &devs, k as u64, || router.flush());

        let id = pass.tracer.open("bench.oracle");
        let incomplete = report.incomplete_shards().len() as u64;
        self.incomplete += incomplete;
        let (mut ins_changed, mut ins_of, mut del_changed, mut del_of) = (0, 0, 0, 0);
        for s in &report.shards {
            if let Some(e) = &s.error {
                pass.fail(1, || format!("shard {}: {e}", s.shard));
            }
            if let Some(o) = &s.insert {
                ins_changed += pending(pass, "flush insert", o);
                ins_of += o.attempted as u64;
            }
            if let Some(o) = &s.delete {
                del_changed += pending(pass, "flush delete", o);
                del_of += o.attempted as u64;
            }
        }
        // A flush applies all its inserts before its deletes.
        let (mut new, mut gone, mut n_ins) = (0, 0, 0u64);
        for u in &updates {
            if let Update::Insert(e) = u {
                n_ins += 1;
                if self.c.oracle.add_edge(e.src, e.dst) {
                    new += self.copies(e);
                }
            }
        }
        for u in &updates {
            if let Update::Delete(e) = u {
                if self.c.oracle.remove_edge(e.src, e.dst) {
                    gone += self.copies(e);
                }
            }
        }
        check_count(pass, "flush new edge copies", ins_changed, new);
        check_count(pass, "flush deleted edge copies", del_changed, gone);
        pass.useful(Op::Insert, ins_changed, ins_of);
        pass.useful(Op::Delete, del_changed, del_of);
        if pass.first_episode() {
            // Split the flush makespan into its insert and delete kernels.
            let model = pass.model;
            let kernel_makespan = |name: &str| {
                deltas
                    .iter()
                    .map(|d| {
                        d.kernels
                            .iter()
                            .filter(|kc| kc.name == name)
                            .map(|kc| model.seconds(&kc.counters))
                            .sum::<f64>()
                    })
                    .fold(0.0, f64::max)
            };
            let ins_s = kernel_makespan("edge_insert");
            let del_s = kernel_makespan("edge_delete");
            pass.add_modeled(Op::Insert, n_ins, ins_s);
            pass.add_modeled(Op::Delete, k as u64 - n_ins, del_s);
            let per_shard: Vec<f64> = deltas.iter().map(|d| model.seconds(&d.global)).collect();
            let max = per_shard.iter().copied().fold(0.0, f64::max);
            let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
            self.imbalance.0 += max;
            self.imbalance.1 += mean;
        }
        pass.tracer.close(id);

        let q = self.c.sizes.query;
        let pairs = pass.tracer.span("bench.gen", || self.c.half_live_pairs(q));
        let (got, _) = pass.timed(Op::ShardQuery, &devs, q as u64, || sg.edges_exist(&pairs));
        let id = pass.tracer.open("bench.oracle");
        let hits = self.c.check_answers(pass, &pairs, &got);
        pass.useful(Op::Query, hits, q as u64);
        pass.tracer.close(id);
    }

    fn take_snapshot(&mut self, pass: &mut Pass) {
        let n = self.sg.num_shards();
        let shards: Vec<_> = (0..n).map(|s| self.sg.shard(s)).collect();
        let stats: Vec<GraphStats> = shards.iter().map(|g| g.stats(&g.pin_read())).collect();
        let graphs: Vec<&DynGraph> = shards.iter().map(|g| &**g).collect();
        table_values(pass, &stats, &graphs);
    }

    fn end_episode(&mut self, pass: &mut Pass) {
        if let Err(e) = self.sg.validate() {
            let rest = pass.attempted.saturating_sub(pass.failed).max(1);
            pass.fail(rest, || format!("validate: {e}"));
        }
        check_count(
            pass,
            "num_edges",
            self.sg.num_edges(),
            self.c.oracle.edge_count() as u64,
        );
        let (max, mean) = self.imbalance;
        let v = &mut pass.values;
        if mean > 0.0 {
            v.insert("router.shard_imbalance", max / mean);
        }
        *v.entry("router.incomplete_shards").or_insert(0.0) += self.incomplete as f64;
        let metrics = self.sg.group().merged_metric_summaries();
        if let Some(m) = metrics.iter().find(|m| m.name == "router.journal_depth") {
            v.insert("router.journal_depth_max", m.max as f64);
        }
        probe_depth(pass, &metrics);
        if pass.tracer.is_on() {
            let report = self.router.trace_report(&pass.model).render();
            let name = "trace_report-router_ingest.txt".to_string();
            pass.artifacts.retain(|(n, _)| *n != name);
            pass.artifacts.push((name, report));
        }
    }
}

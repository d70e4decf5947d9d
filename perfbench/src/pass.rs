//! One timed pass over a workload: the per-operation host and modeled
//! tallies, the exact device counters of the first (deterministic) episode, and
//! the failure accounting.

use crate::spans::Tracer;
use gpu_sim::{CostModel, CounterSnapshot, Device, TraceSnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// A call the benchmark makes into a layer's public API. The span name
/// names the layer and the function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Insert,
    Delete,
    DeleteVertices,
    Query,
    Neighbors,
    Tc,
    Submit,
    Flush,
    ShardQuery,
}

impl Op {
    pub const ALL: [Op; 9] = [
        Op::Insert,
        Op::Delete,
        Op::DeleteVertices,
        Op::Query,
        Op::Neighbors,
        Op::Tc,
        Op::Submit,
        Op::Flush,
        Op::ShardQuery,
    ];

    /// Whether the op's items are client operations (counted by
    /// `host.ops_per_s`). A triangle count is analytics, and a flush
    /// carries updates already counted at submit.
    pub fn is_client(self) -> bool {
        !matches!(self, Op::Tc | Op::Flush)
    }

    pub fn span_name(self) -> &'static str {
        match self {
            Op::Insert => "core.insert_edges",
            Op::Delete => "core.delete_edges",
            Op::DeleteVertices => "core.delete_vertices",
            Op::Query => "core.edges_exist",
            Op::Neighbors => "core.neighbor_ids",
            Op::Tc => "algos.tc",
            Op::Submit => "router.submit",
            Op::Flush => "router.flush",
            Op::ShardQuery => "router.edges_exist",
        }
    }
}

/// Tallies of one [`Op`] over a pass.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    pub calls: u64,
    /// Client items passed (edges, vertices or pairs), all rounds.
    pub items: u64,
    pub host_ns: u64,
    /// Host duration of each call, per episode, in call order.
    pub samples_ns: Vec<Vec<u64>>,
    /// Items and modeled seconds within the first episode.
    pub modeled_items: u64,
    pub modeled_s: f64,
    /// Useful outcomes (new edges, deleted edges, true answers) and the
    /// attempts they are out of, within the first episode.
    pub useful: u64,
    pub useful_of: u64,
}

/// One pass: plain (end-to-end metrics) or traced (per-layer metrics).
pub struct Pass {
    pub tracer: Tracer,
    pub model: CostModel,
    /// Episodes begun so far; the first (index 0) is the deterministic
    /// one whose modeled figures are reported.
    pub episode: usize,
    pub ops: BTreeMap<Op, OpStats>,
    /// Exact per-kernel counters of the first episode, summed over devices.
    pub kernels: BTreeMap<&'static str, CounterSnapshot>,
    /// Exact global counters of the first episode, summed over devices.
    pub global: CounterSnapshot,
    /// Per episode: client items and host nanoseconds inside calls.
    pub episode_host: Vec<(u64, u64)>,
    /// Warps simulated over the whole pass (for host ns per warp).
    pub warps_all: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub rounds: usize,
    /// Host time inside rounds (set-up excluded).
    pub round_ns: u64,
    /// Values taken at the end of the first episode (memory, table statistics)
    /// and other workload-specific figures, by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Files to write out at exit: (file name, contents).
    pub artifacts: Vec<(String, String)>,
}

/// Per-device counter deltas of one call: the full trace in the first episode,
/// the global tally afterwards.
pub type Deltas = Vec<TraceSnapshot>;

impl Pass {
    pub fn begin(trace: bool) -> Self {
        Pass {
            tracer: Tracer::start(trace),
            model: CostModel::titan_v(),
            episode: 0,
            ops: Op::ALL.iter().map(|&o| (o, OpStats::default())).collect(),
            kernels: BTreeMap::new(),
            global: CounterSnapshot::default(),
            episode_host: Vec::new(),
            warps_all: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            rounds: 0,
            round_ns: 0,
            values: BTreeMap::new(),
            artifacts: Vec::new(),
        }
    }

    /// Whether modeled figures and exact counters are being collected.
    pub fn first_episode(&self) -> bool {
        self.episode == 0
    }

    /// Time one call into the system. In the first episode the call's exact
    /// counter deltas are folded into the kernel tallies and its modeled
    /// time — the makespan over `devs`, which run concurrently — into the
    /// op's modeled seconds. Returns the call's result and its deltas.
    pub fn timed<R>(
        &mut self,
        op: Op,
        devs: &[&Device],
        items: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Deltas) {
        let first = self.first_episode();
        let before: Vec<TraceSnapshot> = devs
            .iter()
            .map(|d| {
                if first {
                    d.trace()
                } else {
                    TraceSnapshot {
                        global: d.counters().snapshot(),
                        kernels: Vec::new(),
                    }
                }
            })
            .collect();
        let span = self.tracer.open(op.span_name());
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.tracer.close(span);
        let deltas: Deltas = devs
            .iter()
            .zip(&before)
            .map(|(d, b)| {
                if first {
                    d.trace().delta(b)
                } else {
                    TraceSnapshot {
                        global: d.counters().snapshot().delta(&b.global),
                        kernels: Vec::new(),
                    }
                }
            })
            .collect();
        let mut makespan = 0.0f64;
        for d in &deltas {
            self.warps_all += d.global.warps;
            if first && d.kernel_sum() != d.global {
                self.fail(1, || {
                    format!(
                        "{}: named kernels do not sum to the global delta",
                        op.span_name()
                    )
                });
            }
            if first {
                makespan = makespan.max(self.model.seconds(&d.global));
                add_counts(&mut self.global, &d.global);
                for k in &d.kernels {
                    add_counts(self.kernels.entry(k.name).or_default(), &k.counters);
                }
            }
        }
        let st = self.ops.get_mut(&op).expect("every op has stats");
        st.calls += 1;
        st.items += items;
        st.host_ns += ns;
        if st.samples_ns.len() <= self.episode {
            st.samples_ns.resize_with(self.episode + 1, Vec::new);
        }
        st.samples_ns[self.episode].push(ns);
        if self.episode_host.len() <= self.episode {
            self.episode_host.resize(self.episode + 1, (0, 0));
        }
        let eh = &mut self.episode_host[self.episode];
        eh.0 += if op.is_client() { items } else { 0 };
        eh.1 += ns;
        if first {
            st.modeled_items += items;
            st.modeled_s += makespan;
        }
        (r, deltas)
    }

    /// Record `useful` good outcomes out of `of` attempts for `op` (first
    /// episode only, so the ratio repeats exactly per seed).
    pub fn useful(&mut self, op: Op, useful: u64, of: u64) {
        if self.first_episode() {
            let st = self.ops.get_mut(&op).expect("every op has stats");
            st.useful += useful;
            st.useful_of += of;
        }
    }

    /// Add first-episode items and modeled seconds to `op` for work timed as
    /// part of another call (a flush's insert and delete kernels).
    pub fn add_modeled(&mut self, op: Op, items: u64, modeled_s: f64) {
        let st = self.ops.get_mut(&op).expect("every op has stats");
        st.modeled_items += items;
        st.modeled_s += modeled_s;
    }

    /// Count `n` client operations attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `n` failed operations, keeping the first few reasons.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(why());
        }
    }

    pub fn op(&self, op: Op) -> &OpStats {
        &self.ops[&op]
    }

    /// Host nanoseconds spent inside calls into the system.
    pub fn system_ns(&self) -> u64 {
        self.ops.values().map(|s| s.host_ns).sum()
    }
}

/// Event-wise `acc += d`.
pub fn add_counts(acc: &mut CounterSnapshot, d: &CounterSnapshot) {
    acc.transactions += d.transactions;
    acc.atomics += d.atomics;
    acc.ballots += d.ballots;
    acc.shuffles += d.shuffles;
    acc.launches += d.launches;
    acc.warps += d.warps;
    acc.words_allocated += d.words_allocated;
}

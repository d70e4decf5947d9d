//! End-to-end and per-layer benchmark of the slab-hash dynamic graph.
//!
//! [`run_benchmark`] executes one workload: set-up (dataset generation and bulk
//! build, repeated and reported as a median), then a closed-loop timed
//! pass whose answers are all checked against a host oracle. With
//! `trace` on it also makes a second, traced pass over the same rounds
//! on a fresh build with the gpu-sim profiler attached, and reports the
//! per-layer metrics from it. See `README.md` for every metric.

mod oracle;
mod pass;
mod spans;
mod workloads;

use pass::{Op, Pass};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use workloads::Sizes;
pub use workloads::Workload;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for re-checking a claimed gain.
pub const HELD_OUT_SEED: u64 = 7919;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds after which no further episode starts (three
    /// episodes always run).
    pub seconds: f64,
    pub trace: bool,
    /// Right shift applied to the dataset scale and every batch size;
    /// 0 is the benchmark's size.
    pub shrink: u32,
    /// Invert the oracle's first edge-existence answer, to show that a
    /// wrong answer is caught.
    pub flip_one_answer: bool,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            shrink: 0,
            flip_one_answer: false,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Clock or source, and any detail printed beside the value.
    pub note: String,
}

/// What [`run_benchmark`] found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (plain run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: fingerprint, metrics, errors, layer times.
    pub lines: Vec<String>,
    /// Every modeled metric and exact counter of the plain pass, bit for
    /// bit; equal across runs with the same seed.
    pub exact: String,
    /// Files to write out at exit: (file name, contents).
    pub artifacts: Vec<(String, String)>,
}

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("modeled_insert_medges_s", "Medge/s"),
    ("modeled_delete_medges_s", "Medge/s"),
    ("modeled_query_mq_s", "Mq/s"),
    ("modeled_update_mups", "Mupdate/s"),
    ("device_mib", "MiB"),
    ("host_peak_rss_mib", "MiB"),
];

/// Host-clock throughput and batch latency of the plain pass: name, unit,
/// better direction. Printed on every run and reported among the
/// per-layer metrics of a traced run, but not bounded: on a shared
/// machine the host clock drifts by more than the largest bound a
/// benchmark may set.
pub const HOST_FIGURES: [(&str, &str, &str); 3] = [
    ("host.ops_per_s", "1/s", "higher"),
    ("host.batch_p50_ms", "ms", "lower"),
    ("host.batch_tail_ms", "ms", "lower"),
];

/// The clock a figure is read from.
fn clock(name: &str) -> &'static str {
    if name.starts_with("modeled_") {
        "modeled"
    } else if name == "device_mib" {
        "exact"
    } else {
        "host"
    }
}

/// Kernels whose exact counters the traced run reports, by name.
pub const KERNELS: [&str; 6] = [
    "edge_insert",
    "edge_delete",
    "vertex_delete",
    "edge_exist",
    "neighbors",
    "triangle_count",
];

/// Per-kernel counters the traced run reports.
pub const KERNEL_COUNTERS: [&str; 4] = ["launches", "transactions", "atomics", "warps"];

/// Per-layer metrics other than the per-kernel counters: name, unit,
/// better direction.
pub const PER_LAYER: [(&str, &str, &str); 48] = [
    ("graph_gen.gen_s", "s", "lower"),
    ("core.bulk_build_s", "s", "lower"),
    ("gpu_sim.host_ns_per_warp", "ns", "lower"),
    ("gpu_sim.launches", "count", "lower"),
    ("gpu_sim.transactions", "count", "lower"),
    ("gpu_sim.atomics", "count", "lower"),
    ("gpu_sim.warp_instrs", "count", "lower"),
    ("gpu_sim.warps", "count", "lower"),
    ("gpu_sim.launch_share", "frac", "lower"),
    ("core.insert_edges.busy_ms", "ms", "lower"),
    ("core.insert_edges.calls", "count", "higher"),
    ("core.delete_edges.busy_ms", "ms", "lower"),
    ("core.delete_edges.calls", "count", "higher"),
    ("core.delete_vertices.busy_ms", "ms", "lower"),
    ("core.delete_vertices.calls", "count", "higher"),
    ("core.edges_exist.busy_ms", "ms", "lower"),
    ("core.edges_exist.calls", "count", "higher"),
    ("core.neighbor_ids.busy_ms", "ms", "lower"),
    ("core.neighbor_ids.calls", "count", "higher"),
    ("core.insert.new_ratio", "frac", "higher"),
    ("core.delete.hit_ratio", "frac", "higher"),
    ("core.query.hit_ratio", "frac", "higher"),
    (
        "core.delete_vertices.modeled_mvertex_s",
        "Mvertex/s",
        "higher",
    ),
    ("slab_hash.avg_chain", "slabs", "lower"),
    ("slab_hash.utilization", "frac", "higher"),
    ("slab_hash.probe_depth_p50", "slabs", "lower"),
    ("slab_hash.probe_depth_p99", "slabs", "lower"),
    ("slab_alloc.live_slabs", "count", "lower"),
    ("slab_alloc.total_allocated", "count", "lower"),
    ("slab_alloc.quarantined_slabs", "count", "lower"),
    ("slab_alloc.pool_words", "words", "lower"),
    ("router.submit_us", "us", "lower"),
    ("router.flush_busy_ms", "ms", "lower"),
    ("router.flush_modeled_ms", "ms", "lower"),
    ("router.ops_per_flush", "count", "higher"),
    ("router.shard_imbalance", "ratio", "lower"),
    ("router.journal_depth_max", "count", "lower"),
    ("router.incomplete_shards", "count", "lower"),
    ("algos.tc.busy_s", "s", "lower"),
    ("algos.tc.modeled_ms", "ms", "lower"),
    ("algos.tc.launches", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.span_coverage", "frac", "higher"),
    ("trace.self_ms.bench", "ms", "lower"),
    ("trace.self_ms.core", "ms", "lower"),
    ("trace.self_ms.router", "ms", "lower"),
    ("trace.self_ms.algos", "ms", "lower"),
    ("trace.rounds", "count", "higher"),
];

/// Every per-layer metric with its unit and better direction, in report
/// order.
pub fn per_layer_names() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = HOST_FIGURES
        .iter()
        .chain(&PER_LAYER)
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for k in KERNELS {
        for c in KERNEL_COUNTERS {
            out.push((format!("gpu_sim.kernel.{k}.{c}"), "count", "lower"));
        }
    }
    out
}

/// How many episodes a pass runs.
enum Episodes {
    /// [`MIN_EPISODES`], then more until this many seconds have passed.
    Until(f64),
    Exactly(usize),
}

/// Episodes every pass runs at least, so `setup_s` is a median of three.
const MIN_EPISODES: usize = 3;

/// Set-up figures of a pass, one per episode.
#[derive(Default)]
struct Setup {
    gen_s: Vec<f64>,
    build_s: Vec<f64>,
    n_vertices: u32,
    edges: usize,
}

/// One pass: episodes of set-up (dataset generation and build, both
/// timed) followed by the workload's rounds on the fresh graph.
fn drive(cfg: &Config, trace: bool, rule: Episodes) -> (Pass, Setup) {
    let w = cfg.workload;
    let rounds = w.episode_rounds();
    let mut pass = Pass::begin(trace);
    let mut setup = Setup::default();
    let t0 = Instant::now();
    loop {
        let e = setup.gen_s.len();
        let more = match rule {
            Episodes::Until(s) => e < MIN_EPISODES || t0.elapsed().as_secs_f64() < s,
            Episodes::Exactly(n) => e < n,
        };
        if !more {
            break;
        }
        pass.episode = e;
        let t = Instant::now();
        let input = workloads::generate_input(w, cfg.shrink, cfg.seed);
        setup.gen_s.push(t.elapsed().as_secs_f64());
        let mut go = |b: &mut dyn workloads::Bench, build_s: f64| {
            setup.build_s.push(build_s);
            for r in 0..rounds {
                pass.tracer.set_round(e * rounds + r);
                let id = pass.tracer.open("bench.round");
                let t = Instant::now();
                b.play_round(r, &mut pass);
                if e == 0 && r + 1 == rounds {
                    let s = pass.tracer.open("bench.snapshot");
                    b.take_snapshot(&mut pass);
                    pass.tracer.close(s);
                }
                pass.round_ns += t.elapsed().as_nanos() as u64;
                pass.tracer.close(id);
                pass.rounds += 1;
            }
            b.end_episode(&mut pass);
        };
        workloads::build_and_run(
            w,
            &input,
            cfg.shrink,
            cfg.seed,
            cfg.flip_one_answer,
            &mut go,
        );
        setup.n_vertices = input.n_vertices;
        setup.edges = input.edges.len();
    }
    (pass, setup)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Batch latency of one episode: (median, tail, tail percentile) in ms.
/// The tail is the highest percentile with at least ten samples beyond
/// it; with 20 samples or fewer it is the maximum.
fn batch_latency(samples_ns: &[u64]) -> (f64, f64, f64) {
    let mut s: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let (tail, pct) = match n {
        0 => (0.0, 0.0),
        1..=20 => (s[n - 1], 100.0),
        _ => (s[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    };
    (median(&s), tail, pct)
}

fn mrate(items: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        items as f64 / secs / 1e6
    } else {
        0.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// First-episode items and modeled seconds summed over `ops`.
fn modeled(p: &Pass, ops: &[Op]) -> (u64, f64) {
    ops.iter()
        .map(|&o| (p.op(o).modeled_items, p.op(o).modeled_s))
        .fold((0, 0.0), |(i, s), (a, b)| (i + a, s + b))
}

/// The figures named in `which` (name, unit), from pass `p`.
fn figures(w: Workload, p: &Pass, setup_s: f64, which: &[(&str, &'static str)]) -> Vec<Metric> {
    let client: u64 = Op::ALL
        .iter()
        .filter(|o| o.is_client())
        .map(|&o| p.op(o).items)
        .sum();
    // Host figures are medians over episodes, which replay identical work.
    let ops_per_s: Vec<f64> = p
        .episode_host
        .iter()
        .map(|&(items, ns)| ratio(items as f64, ns as f64 / 1e9))
        .collect();
    let batch = p.op(w.batch_op());
    let per_episode: Vec<(f64, f64, f64)> =
        batch.samples_ns.iter().map(|s| batch_latency(s)).collect();
    let p50 = median(&per_episode.iter().map(|e| e.0).collect::<Vec<_>>());
    let tail = median(&per_episode.iter().map(|e| e.1).collect::<Vec<_>>());
    let pct = per_episode.first().map_or(0.0, |e| e.2);
    let per_ep = batch.samples_ns.first().map_or(0, Vec::len);
    let episodes = p.episode_host.len();
    let (ins, ins_s) = modeled(p, &[Op::Insert]);
    let (del, del_s) = modeled(p, &[Op::Delete]);
    let (q, q_s) = modeled(p, &[Op::Query, Op::ShardQuery]);
    let (upd, upd_s) = if p.op(Op::Flush).modeled_items > 0 {
        modeled(p, &[Op::Flush])
    } else {
        modeled(p, &[Op::Insert, Op::Delete, Op::DeleteVertices])
    };
    let value = |name: &str| -> (f64, String) {
        match name {
            "setup_s" => (setup_s, String::new()),
            "host.ops_per_s" => (
                median(&ops_per_s),
                format!(
                    "median of {episodes} episodes; {client} ops over {} rounds",
                    p.rounds
                ),
            ),
            "host.batch_p50_ms" => (
                p50,
                format!(
                    "median of {episodes} episodes of {per_ep} {} calls",
                    w.batch_op().span_name()
                ),
            ),
            "host.batch_tail_ms" => (
                tail,
                format!("median of {episodes} episodes' p{pct:.1} of {per_ep} calls"),
            ),
            "modeled_insert_medges_s" => (mrate(ins, ins_s), format!("{ins} edges")),
            "modeled_delete_medges_s" => (mrate(del, del_s), format!("{del} edges")),
            "modeled_query_mq_s" => (mrate(q, q_s), format!("{q} queries")),
            "modeled_update_mups" => (mrate(upd, upd_s), format!("{upd} updates")),
            "device_mib" | "host_peak_rss_mib" => {
                (p.values.get(name).copied().unwrap_or(0.0), String::new())
            }
            other => unreachable!("unknown metric {other}"),
        }
    };
    which
        .iter()
        .map(|&(name, unit)| {
            let (v, detail) = value(name);
            let clock = clock(name);
            Metric {
                name: name.into(),
                value: v,
                unit,
                note: if detail.is_empty() {
                    clock.to_string()
                } else {
                    format!("{clock}; {detail}")
                },
            }
        })
        .collect()
}

fn per_layer(
    w: Workload,
    t: &Pass,
    plain: &Pass,
    host: &[Metric],
    gen_s: f64,
    build_s: f64,
) -> Vec<Metric> {
    let mut v: BTreeMap<String, f64> = t.values.iter().map(|(k, x)| (k.to_string(), *x)).collect();
    v.extend(host.iter().map(|m| (m.name.clone(), m.value)));
    let mut set = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    set("graph_gen.gen_s", gen_s);
    set("core.bulk_build_s", build_s);
    set(
        "gpu_sim.host_ns_per_warp",
        ratio(t.system_ns() as f64, t.warps_all as f64),
    );
    let g = t.global;
    set("gpu_sim.launches", g.launches as f64);
    set("gpu_sim.transactions", g.transactions as f64);
    set("gpu_sim.atomics", g.atomics as f64);
    set("gpu_sim.warp_instrs", (g.ballots + g.shuffles) as f64);
    set("gpu_sim.warps", g.warps as f64);
    set(
        "gpu_sim.launch_share",
        ratio(
            g.launches as f64 * t.model.launch_overhead,
            t.model.seconds(&g),
        ),
    );
    for op in [
        Op::Insert,
        Op::Delete,
        Op::DeleteVertices,
        Op::Query,
        Op::Neighbors,
    ] {
        let (ns, _) = t.tracer.busy(op.span_name());
        set(&format!("{}.busy_ms", op.span_name()), ns as f64 / 1e6);
        set(&format!("{}.calls", op.span_name()), t.op(op).calls as f64);
    }
    let useful = |op: Op| ratio(t.op(op).useful as f64, t.op(op).useful_of as f64);
    set("core.insert.new_ratio", useful(Op::Insert));
    set("core.delete.hit_ratio", useful(Op::Delete));
    set("core.query.hit_ratio", useful(Op::Query));
    let (vd, vd_s) = modeled(t, &[Op::DeleteVertices]);
    set("core.delete_vertices.modeled_mvertex_s", mrate(vd, vd_s));
    let (sub, flush) = (t.op(Op::Submit), t.op(Op::Flush));
    set(
        "router.submit_us",
        ratio(sub.host_ns as f64 / 1e3, sub.items as f64),
    );
    set("router.flush_busy_ms", flush.host_ns as f64 / 1e6);
    set("router.flush_modeled_ms", flush.modeled_s * 1e3);
    set(
        "router.ops_per_flush",
        ratio(flush.items as f64, flush.calls as f64),
    );
    let tc = t.op(Op::Tc);
    let tc_s: Vec<f64> = tc
        .samples_ns
        .iter()
        .flatten()
        .map(|&ns| ns as f64 / 1e9)
        .collect();
    set("algos.tc.busy_s", median(&tc_s));
    // Every round of the first episode recounts once.
    let first_tcs = tc.calls.min(w.episode_rounds() as u64);
    set(
        "algos.tc.modeled_ms",
        ratio(tc.modeled_s * 1e3, first_tcs as f64),
    );
    set(
        "algos.tc.launches",
        t.kernels.get("triangle_count").map_or(0, |c| c.launches) as f64,
    );
    set(
        "trace.overhead_frac",
        ratio(t.round_ns as f64, plain.round_ns as f64) - 1.0,
    );
    set(
        "trace.span_coverage",
        ratio(
            t.tracer.child_cover_ns("bench.round") as f64,
            t.round_ns as f64,
        ),
    );
    let layers = t.tracer.layer_self_ns();
    for l in ["bench", "core", "router", "algos"] {
        set(
            &format!("trace.self_ms.{l}"),
            layers.get(l).copied().unwrap_or(0) as f64 / 1e6,
        );
    }
    set("trace.rounds", t.rounds as f64);
    for k in KERNELS {
        let c = t.kernels.get(k).copied().unwrap_or_default();
        for (name, x) in
            KERNEL_COUNTERS
                .iter()
                .zip([c.launches, c.transactions, c.atomics, c.warps])
        {
            set(&format!("gpu_sim.kernel.{k}.{name}"), x as f64);
        }
    }
    per_layer_names()
        .into_iter()
        .map(|(name, unit, _)| Metric {
            value: v.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
            note: String::new(),
        })
        .collect()
}

/// Every deterministic figure of a pass, bit for bit.
fn exact_signature(w: Workload, p: &Pass) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "global {:?}", p.global);
    for (k, c) in &p.kernels {
        let _ = writeln!(s, "kernel {k} {c:?}");
    }
    for (op, st) in &p.ops {
        let _ = writeln!(
            s,
            "op {op:?} items {} modeled {:#x} useful {}/{}",
            st.modeled_items,
            st.modeled_s.to_bits(),
            st.useful,
            st.useful_of
        );
    }
    for (k, x) in &p.values {
        // Taken on both passes at the end of the first episode; the probe
        // depths exist only where the profiler is attached.
        if (k.starts_with("slab_") && !k.contains("probe_depth")) || *k == "device_mib" {
            let _ = writeln!(s, "value {k} {:#x}", x.to_bits());
        }
    }
    for m in figures(w, p, 0.0, &END_TO_END) {
        if m.name.starts_with("modeled_") || m.name == "device_mib" {
            let _ = writeln!(s, "metric {} {:#x}", m.name, m.value.to_bits());
        }
    }
    s
}

/// The commit the benchmark was built from, read from `.git` beside it.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(c) = read(&git.join(r)) {
        return c.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn fingerprint(cfg: &Config, setup: &Setup, rounds: usize) -> String {
    let w = cfg.workload;
    let s = Sizes::of(w, cfg.shrink);
    format!(
        "{{\"workload\":\"{}\",\"dataset\":\"{}\",\"n_vertices\":{},\"initial_edges\":{},\
         \"shrink\":{},\"insert\":{},\"delete\":{},\"vertex_delete\":{},\"query\":{},\
         \"query_batches\":{},\"neighbor_reads\":{},\"flush\":{},\"sessions\":{},\"shards\":{},\
         \"seed\":{},\"seconds\":{},\"episode_rounds\":{},\"episodes\":{},\"rounds\":{},\
         \"threads\":{},\"git_commit\":\"{}\"}}",
        w.name(),
        w.dataset(),
        setup.n_vertices,
        setup.edges,
        cfg.shrink,
        s.insert,
        s.delete,
        s.vertex_delete,
        s.query,
        s.query_batches,
        s.neighbor_reads,
        s.flush,
        s.sessions,
        s.shards,
        cfg.seed,
        cfg.seconds,
        w.episode_rounds(),
        setup.gen_s.len(),
        rounds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_commit(),
    )
}

/// Run one workload as configured.
pub fn run_benchmark(cfg: &Config) -> Outcome {
    let w = cfg.workload;
    use gpu_sim::profiler::set_default_profiler;
    set_default_profiler(None);
    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (plain, setup) = drive(cfg, false, Episodes::Until(secs));
    let setup_all: Vec<f64> = setup
        .gen_s
        .iter()
        .zip(&setup.build_s)
        .map(|(g, b)| g + b)
        .collect();

    let mut lines = vec![format!(
        "fingerprint {}",
        fingerprint(cfg, &setup, plain.rounds)
    )];
    let exact = exact_signature(w, &plain);
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut errors = plain.errors.clone();
    let mut artifacts = Vec::new();
    let e2e = figures(w, &plain, median(&setup_all), &END_TO_END);
    let host_names: Vec<(&str, &'static str)> =
        HOST_FIGURES.iter().map(|&(n, u, _)| (n, u)).collect();
    let host = figures(w, &plain, 0.0, &host_names);
    for m in &e2e {
        lines.push(format!(
            "metric {} = {} {} ({})",
            m.name, m.value, m.unit, m.note
        ));
    }
    for m in &host {
        lines.push(format!(
            "unbounded {} = {} {} ({})",
            m.name, m.value, m.unit, m.note
        ));
    }
    for (k, c) in &plain.kernels {
        lines.push(format!("kernel {k}: {c:?}"));
    }

    let metrics = if cfg.trace {
        set_default_profiler(Some(gpu_sim::ProfilerConfig::default()));
        let (t, _) = drive(cfg, true, Episodes::Exactly(setup.gen_s.len()));
        set_default_profiler(None);
        attempted += t.attempted;
        failed += t.failed;
        errors.extend(t.errors.iter().cloned());
        let traced_exact = exact_signature(w, &t);
        if traced_exact != exact {
            failed += 1;
            let first = exact
                .lines()
                .zip(traced_exact.lines())
                .find(|(a, b)| a != b)
                .map_or_else(String::new, |(a, b)| format!(": plain `{a}`, traced `{b}`"));
            errors.push(format!(
                "modeled metrics or exact counters differ between the plain and the traced pass{first}"
            ));
        }
        lines.push(format!(
            "trace: {} rounds; host time in rounds: plain {:.3} s, traced {:.3} s",
            t.rounds,
            plain.round_ns as f64 / 1e9,
            t.round_ns as f64 / 1e9
        ));
        for (k, c) in &t.kernels {
            if !KERNELS.contains(k) && (c.launches | c.transactions | c.atomics | c.warps) != 0 {
                lines.push(format!(
                    "warning: kernel {k} is not among the reported kernels"
                ));
            }
        }
        artifacts.push((format!("spans-{}.jsonl", w.name()), t.tracer.to_jsonl()));
        artifacts.extend(t.artifacts.iter().cloned());
        let layers = per_layer(
            w,
            &t,
            &plain,
            &host,
            median(&setup.gen_s),
            median(&setup.build_s),
        );
        for m in &layers {
            lines.push(format!("layer {} = {} {}", m.name, m.value, m.unit));
        }
        layers
    } else {
        e2e
    };
    for e in &errors {
        lines.push(format!("error: {e}"));
    }
    lines.push(format!(
        "failed_op_frac = {} ({failed} of {attempted} ops)",
        ratio(failed as f64, attempted as f64)
    ));
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        lines,
        exact,
        artifacts,
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            v,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

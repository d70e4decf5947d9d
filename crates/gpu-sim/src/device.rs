//! The simulated device: memory + counters + named kernel launch.
//!
//! Kernels are *warp-centric closures*: the executor hands each [`Warp`] a
//! context exposing warp intrinsics and memory operations, all of which
//! charge [`PerfCounters`]. Both a deterministic sequential executor and a
//! multi-threaded executor (std scoped threads) are provided; the paper's
//! operations are phase-concurrent, so either executor must produce the
//! same final data-structure state — property tests in the graph crates
//! assert exactly that.
//!
//! Every launch carries a [`KernelSpec`] naming the kernel, and every
//! charged event is tallied twice: into the device-wide counters and into
//! the named kernel's entry in the device's [`KernelRegistry`]. See
//! [`crate::trace`] for the attribution model and reporting.

use crate::counters::PerfCounters;
use crate::fault::{FaultInjector, FaultPlan, OomError};
use crate::lanes::{self, Lanes, FULL_MASK, WARP_SIZE};
use crate::memory::{Addr, DeviceArena, SLAB_WORDS};
use crate::profiler::{PhaseGuard, Profiler, ProfilerConfig, TraceCtx, TraceScope};
use crate::sanitizer::{AccessKind, Finding, Sanitizer, SanitizerConfig, WarpRace};
use crate::staging::StagingPool;
use crate::trace::{Charge, KernelRegistry, KernelSpec, LaunchShape, TraceSnapshot, HOST_KERNEL};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How kernels are executed on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Run warps one at a time in warp-id order. Deterministic; the default.
    Sequential,
    /// Run warps on `n` host threads. Non-deterministic interleaving;
    /// used to validate phase-concurrency.
    Threaded(usize),
}

/// Construction-time device parameters: committed memory, an optional
/// allocation budget, and the execution policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Words of global memory to pre-commit.
    pub initial_words: usize,
    /// Total allocation budget in words; `None` means unbounded (the
    /// pre-existing behaviour). Models a card's fixed memory: allocations
    /// past the budget fail with [`OomError::Capacity`].
    pub capacity_words: Option<u64>,
    /// How launched kernels are executed.
    pub policy: ExecPolicy,
    /// Optional shadow-memory sanitizer (see [`crate::sanitizer`]).
    /// `None` (the default) costs one `Option` check per memory access
    /// and charges nothing either way. Building with the `sanitize`
    /// cargo feature flips the default to an escalating sanitizer, so an
    /// unmodified test suite runs fully sanitized.
    pub sanitize: Option<SanitizerConfig>,
    /// Optional timeline profiler + metrics registry (see
    /// [`crate::profiler`]). Same discipline as the sanitizer: `None`
    /// (the default) costs one `Option` check per hook, and counters are
    /// byte-identical whether it is attached or not. The default picks up
    /// the process-wide config, if any, installed via
    /// [`crate::profiler::set_default_profiler`].
    pub profile: Option<ProfilerConfig>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            initial_words: 1 << 20,
            capacity_words: None,
            policy: ExecPolicy::Sequential,
            sanitize: if cfg!(feature = "sanitize") {
                Some(SanitizerConfig::default().with_escalation(true))
            } else {
                None
            },
            profile: crate::profiler::default_profiler(),
        }
    }
}

impl DeviceConfig {
    /// Config with `initial_words` committed, unbounded, sequential.
    pub fn new(initial_words: usize) -> Self {
        DeviceConfig {
            initial_words,
            ..Default::default()
        }
    }

    /// Set the allocation budget in words.
    pub fn with_capacity_words(mut self, capacity_words: u64) -> Self {
        self.capacity_words = Some(capacity_words);
        self
    }

    /// Set the execution policy.
    pub fn with_exec_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a shadow-memory sanitizer with the given configuration.
    pub fn with_sanitizer(mut self, sanitize: SanitizerConfig) -> Self {
        self.sanitize = Some(sanitize);
        self
    }

    /// Attach a timeline profiler with the given configuration.
    pub fn with_profiler(mut self, profile: ProfilerConfig) -> Self {
        self.profile = Some(profile);
        self
    }
}

/// A simulated GPU: global-memory arena, performance counters (global and
/// per-kernel), and an execution policy for launched kernels.
pub struct Device {
    arena: DeviceArena,
    counters: PerfCounters,
    policy: ExecPolicy,
    registry: KernelRegistry,
    /// Stack of active kernel/scope names. The *outermost* name owns all
    /// charges issued while the stack is non-empty, and only the outermost
    /// entry charges a launch: host-side helpers that are conceptually one
    /// fused kernel (e.g. a triangle-counting pass built from many small
    /// launches) wrap themselves in [`Device::fused_scope`]. Pushes and
    /// pops happen only on the host thread (launches are serial); worker
    /// threads never mutate it.
    scope: parking_lot::Mutex<Vec<&'static str>>,
    /// Deterministic fault-injection state, consulted by fallible
    /// allocation paths via [`Device::fault_check`].
    faults: FaultInjector,
    /// Optional shadow-memory sanitizer (also attached to the arena for
    /// initialization tracking).
    san: Option<Arc<Sanitizer>>,
    /// Optional timeline profiler + metrics registry. Every *top-level*
    /// attribution unit (launch / fused scope / memset / manual charge)
    /// deltas the global counters around itself and records one span; the
    /// scope stack guarantees units never overlap, so span durations
    /// partition the run's modeled time.
    prof: Option<Arc<Profiler>>,
    /// Global launch counter. Every launch fully joins its warps before
    /// returning, so each launch is a barrier and opens a new *era*: the
    /// sanitizer's racecheck only considers same-era accesses, and the
    /// slab allocator's quarantine holds freed slabs until the era
    /// advances.
    era: AtomicU64,
    /// Released batch staging leases (see [`crate::staging`]).
    staging: StagingPool,
}

impl Device {
    /// Create a device with `initial_words` of committed global memory and
    /// the sequential execution policy.
    pub fn new(initial_words: usize) -> Self {
        Self::with_policy(initial_words, ExecPolicy::Sequential)
    }

    /// Create a device with an explicit execution policy.
    pub fn with_policy(initial_words: usize, policy: ExecPolicy) -> Self {
        Self::with_config(DeviceConfig::new(initial_words).with_exec_policy(policy))
    }

    /// Create a device from a full [`DeviceConfig`].
    pub fn with_config(config: DeviceConfig) -> Self {
        let san = config.sanitize.map(|cfg| Arc::new(Sanitizer::new(cfg)));
        let mut arena = DeviceArena::with_capacity(
            config.initial_words,
            config.capacity_words.unwrap_or(u64::MAX),
        );
        if let Some(s) = &san {
            arena.attach_sanitizer(s.clone());
        }
        Device {
            arena,
            counters: PerfCounters::new(),
            policy: config.policy,
            registry: KernelRegistry::new(),
            scope: parking_lot::Mutex::new(Vec::new()),
            faults: FaultInjector::default(),
            san,
            prof: config.profile.map(|cfg| Arc::new(Profiler::new(cfg))),
            era: AtomicU64::new(0),
            staging: StagingPool::default(),
        }
    }

    /// The device's pool of released staging leases.
    pub(crate) fn staging(&self) -> &StagingPool {
        &self.staging
    }

    /// The attached shadow-memory sanitizer, if this device was built
    /// with one.
    pub fn sanitizer(&self) -> Option<&Arc<Sanitizer>> {
        self.san.as_ref()
    }

    /// The attached timeline profiler, if this device was built with one.
    pub fn profiler(&self) -> Option<&Arc<Profiler>> {
        self.prof.as_ref()
    }

    /// Open a named host-phase range on the profiler's modeled clock;
    /// the returned guard closes it on drop. Inert (one `Option` check)
    /// when no profiler is attached. Bind the guard — a discarded guard
    /// closes the phase immediately.
    pub fn phase(&self, name: &'static str) -> PhaseGuard {
        PhaseGuard {
            inner: self.prof.as_ref().map(|p| (p.clone(), name, p.now_s())),
        }
    }

    /// Install a causal [`TraceCtx`] for the returned scope's lifetime:
    /// every span and instant the profiler records while it is live is
    /// stamped with the context, so coalesced dispatch work can be walked
    /// back to the client op that caused it. Inert (one `Option` check)
    /// when no profiler is attached. Bind the scope — a discarded scope
    /// uninstalls immediately.
    pub fn trace_scope(&self, ctx: TraceCtx) -> TraceScope {
        TraceScope::new(self.prof.clone(), ctx)
    }

    /// Snapshot the global counters iff a span must be recorded when the
    /// unit completes: only top-level units on a profiled device record.
    #[inline]
    fn begin_unit(&self, top_level: bool) -> Option<crate::counters::CounterSnapshot> {
        if top_level && self.prof.is_some() {
            Some(self.counters.snapshot())
        } else {
            None
        }
    }

    /// Close a unit opened by [`Self::begin_unit`].
    #[inline]
    fn end_unit(&self, name: &'static str, before: Option<crate::counters::CounterSnapshot>) {
        if let (Some(before), Some(p)) = (before, &self.prof) {
            p.record_span(name, self.counters.snapshot().delta(&before));
        }
    }

    /// The sanitizer's findings (empty when no sanitizer is attached).
    pub fn sanitizer_findings(&self) -> Vec<Finding> {
        self.san.as_ref().map(|s| s.findings()).unwrap_or_default()
    }

    /// The global launch counter; each completed launch is a barrier.
    pub fn launch_era(&self) -> u64 {
        self.era.load(Ordering::Relaxed)
    }

    /// Explicitly advance the era without launching — the *release* edge
    /// of era publication. Batched mutation paths call this at batch
    /// boundaries so slabs freed during the batch become reclaimable as
    /// soon as every reader pinned before the bump drops its guard,
    /// without waiting for an unrelated launch to move the clock.
    /// Uncharged: era bookkeeping is not simulated device work.
    pub fn advance_era(&self) -> u64 {
        self.era.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Change the execution policy (between phases).
    pub fn set_policy(&mut self, policy: ExecPolicy) {
        self.policy = policy;
    }

    /// The global-memory arena (host-side, uncharged access — use for
    /// setup/teardown and verification, not inside measured phases).
    pub fn arena(&self) -> &DeviceArena {
        &self.arena
    }

    /// The device-wide performance counters.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Snapshot the global tally plus every kernel's tally. Delta two of
    /// these around a phase and feed the result to
    /// [`crate::trace::TraceReport`] for a per-kernel breakdown.
    pub fn trace(&self) -> TraceSnapshot {
        TraceSnapshot {
            global: self.counters.snapshot(),
            kernels: self.registry.snapshot(),
        }
    }

    /// Resolve the attribution target for a charge issued under `fallback`:
    /// the outermost active scope name if any, else `fallback`. The bool is
    /// `true` when no scope is active (i.e. this charge is top-level and
    /// launch-like events should be counted).
    fn resolve(&self, fallback: &'static str) -> (&'static str, bool) {
        match self.scope.lock().first() {
            Some(outer) => (outer, false),
            None => (fallback, true),
        }
    }

    /// A dual-charging handle for manual charge sites (baseline cost
    /// models, resize bookkeeping): every `add_*` call lands in both the
    /// global tally and the named kernel's tally. If a fused scope is
    /// active its name wins over `name`. A *top-level* handle on a
    /// profiled device additionally tallies its own charges and records
    /// them as timeline spans on drop (charges issued inside a scope are
    /// already covered by the enclosing unit's span).
    pub fn charge(&self, name: &'static str) -> Charge<'_> {
        let (name, top_level) = self.resolve(name);
        Charge {
            global: &self.counters,
            kernel: self.registry.counters(name),
            prof: if top_level {
                self.prof.clone().map(|p| (p, name))
            } else {
                None
            },
            tally: std::cell::Cell::new(crate::counters::CounterSnapshot::default()),
        }
    }

    /// Launch a named kernel.
    ///
    /// The closure runs once per warp; `warp.global_ids()` gives the 32
    /// task ids and `warp.active_mask()` has a bit per in-range task.
    /// Charges one launch (unless inside a [`Device::fused_scope`], whose
    /// name then also owns the charges) plus one warp per warp, and makes
    /// the kernel's name the attribution target for everything charged
    /// during the launch — including host-side `memset`/`alloc_words`
    /// issued from inside the kernel closure.
    pub fn launch<F>(&self, spec: KernelSpec, kernel: F)
    where
        F: Fn(&mut Warp) + Sync,
    {
        let (n_warps, n_tasks) = match spec.shape {
            LaunchShape::Tasks(n) => (n.div_ceil(WARP_SIZE), n as u64),
            LaunchShape::Warps(n) => (n, u64::MAX),
        };
        let (name, top_level) = self.resolve(spec.name);
        let kcounters = self.registry.counters(name);
        let unit = self.begin_unit(top_level);
        if top_level {
            self.counters.add_launches(1);
            kcounters.add_launches(1);
        }
        self.counters.add_warps(n_warps as u64);
        kcounters.add_warps(n_warps as u64);
        let era = self.era.fetch_add(1, Ordering::Relaxed) + 1;
        if n_warps == 0 {
            // Still one charged launch — the span must exist for the
            // span-per-launch accounting to hold.
            self.end_unit(name, unit);
            return;
        }
        self.scope.lock().push(spec.name);
        let _scope = ScopeGuard { scope: &self.scope };
        let run_warp = |warp_id: usize| {
            let base = (warp_id * WARP_SIZE) as u64;
            let active_mask = if n_tasks == u64::MAX {
                FULL_MASK
            } else {
                let remaining = n_tasks.saturating_sub(base).min(WARP_SIZE as u64) as u32;
                if remaining == 0 {
                    0
                } else if remaining == 32 {
                    FULL_MASK
                } else {
                    (1u32 << remaining) - 1
                }
            };
            let mut warp = Warp {
                device: self,
                warp_id: warp_id as u32,
                active_mask,
                name: spec.name,
                kernel: kcounters.clone(),
                attempts: std::cell::RefCell::new(Vec::new()),
                race: self
                    .san
                    .as_ref()
                    .map(|_| std::cell::RefCell::new(WarpRace::new(era, warp_id as u32))),
            };
            kernel(&mut warp);
        };
        match self.policy {
            ExecPolicy::Sequential => {
                for w in 0..n_warps {
                    run_warp(w);
                }
            }
            ExecPolicy::Threaded(threads) => {
                let threads = threads.max(1);
                let next = std::sync::atomic::AtomicUsize::new(0);
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| loop {
                            let w = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if w >= n_warps {
                                break;
                            }
                            run_warp(w);
                        });
                    }
                });
            }
        }
        if let Some(s) = &self.san {
            s.escalate_after_launch();
        }
        self.end_unit(name, unit);
    }

    /// Launch a named kernel with one *thread* (lane) per task, grouped
    /// into warps of 32 — the Warp Cooperative Work Sharing launch shape.
    pub fn launch_tasks<F>(&self, name: &'static str, n_tasks: usize, kernel: F)
    where
        F: Fn(&mut Warp) + Sync,
    {
        self.launch(KernelSpec::tasks(name, n_tasks), kernel);
    }

    /// Launch a named kernel with exactly `n_warps` warps, all 32 lanes
    /// active (warp-per-work-item kernels that pull work from a device
    /// queue, e.g. the paper's vertex-deletion Algorithm 2).
    pub fn launch_warps<F>(&self, name: &'static str, n_warps: usize, kernel: F)
    where
        F: Fn(&mut Warp) + Sync,
    {
        self.launch(KernelSpec::warps(name, n_warps), kernel);
    }

    /// Run `body` as a *fused section*: one logical kernel built from many
    /// helper launches. Charges a single launch under `name` (unless nested
    /// inside another scope, whose name then wins) and attributes every
    /// charge issued inside `body` — helper launches, memsets, allocations
    /// — to the outermost scope's name. Inner launches charge warps but no
    /// launches of their own.
    pub fn fused_scope<R>(&self, name: &'static str, body: impl FnOnce() -> R) -> R {
        let (eff, top_level) = self.resolve(name);
        let unit = self.begin_unit(top_level);
        if top_level {
            let kcounters = self.registry.counters(eff);
            self.counters.add_launches(1);
            kcounters.add_launches(1);
        }
        self.scope.lock().push(name);
        let _scope = ScopeGuard { scope: &self.scope };
        let r = body();
        self.end_unit(eff, unit);
        r
    }

    /// Like [`Self::fused_scope`] but charges **no** launch of its own:
    /// for charged helper walks that are logically part of whatever kernel
    /// or measurement the caller is running. Attribution still goes to
    /// `name` (or the enclosing scope's name, if any). On a profiled
    /// device a *top-level* unlaunched scope records its counter delta as
    /// a host span (launch-free cost must still advance the modeled
    /// clock); nested scopes are covered by the enclosing unit's span.
    pub fn unlaunched_scope<R>(&self, name: &'static str, body: impl FnOnce() -> R) -> R {
        let (eff, top_level) = self.resolve(name);
        let before = if top_level && self.prof.is_some() {
            Some(self.counters.snapshot())
        } else {
            None
        };
        self.scope.lock().push(name);
        let r = {
            let _scope = ScopeGuard { scope: &self.scope };
            body()
        };
        if let (Some(before), Some(p)) = (before, &self.prof) {
            let delta = self.counters.snapshot().delta(&before);
            if delta != crate::counters::CounterSnapshot::default() {
                p.record_host_span(eff, delta);
            }
        }
        r
    }

    /// Device-side memset: fills `n` words with `v`, charged as a
    /// coalesced kernel (`⌈n/32⌉` transactions + 1 launch) under `name`
    /// (or the active scope/launch name, if any). Used to initialise slab
    /// regions to the EMPTY sentinel inside measured build phases.
    pub fn memset(&self, name: &'static str, base: Addr, n: usize, v: u32) {
        let (name, top_level) = self.resolve(name);
        let kcounters = self.registry.counters(name);
        let unit = self.begin_unit(top_level);
        if top_level {
            self.counters.add_launches(1);
            kcounters.add_launches(1);
        }
        let tx = (n as u64).div_ceil(SLAB_WORDS as u64);
        self.counters.add_transactions(tx);
        kcounters.add_transactions(tx);
        self.arena.fill(base, n, v);
        self.end_unit(name, unit);
    }

    /// Allocate `n` words (aligned to `align`) from the arena, charging
    /// the allocation counter — to the active scope/launch if any, else to
    /// the reserved [`HOST_KERNEL`] bucket.
    ///
    /// Infallible: panics if the capacity budget or address space is
    /// exhausted. Host-side setup uses this; recoverable paths use
    /// [`Self::try_alloc_words`]. Never consults the fault plan.
    pub fn alloc_words(&self, n: usize, align: usize) -> Addr {
        self.try_alloc_words(n, align)
            .unwrap_or_else(|e| panic!("device allocation failed: {e}"))
    }

    /// Fallible arena allocation: returns a typed [`OomError`] when the
    /// capacity budget (or address space) is exhausted. Charges the
    /// allocation counter only on success; does *not* consult the fault
    /// plan (injection targets slab acquisition — see
    /// [`Self::fault_check`]).
    pub fn try_alloc_words(&self, n: usize, align: usize) -> Result<Addr, OomError> {
        let addr = match self.arena.try_alloc_words(n, align) {
            Ok(addr) => addr,
            Err(e) => {
                if let Some(p) = &self.prof {
                    p.instant("oom", format!("arena alloc of {n} words failed: {e}"));
                }
                return Err(e);
            }
        };
        let (name, _) = self.resolve(HOST_KERNEL);
        self.counters.add_words_allocated(n as u64);
        self.registry.counters(name).add_words_allocated(n as u64);
        Ok(addr)
    }

    /// The allocation budget in words (`u64::MAX` when unbounded).
    pub fn capacity_words(&self) -> u64 {
        self.arena.capacity_words()
    }

    /// Change the allocation budget at runtime (e.g. to model growing the
    /// pool after a recoverable OOM).
    pub fn set_capacity_words(&self, capacity_words: u64) {
        self.arena.set_capacity_words(capacity_words);
    }

    /// Install a deterministic [`FaultPlan`]; resets the plan's allocation
    /// index so schedules are reproducible from this point.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.faults.set_plan(plan);
    }

    /// Remove any installed fault plan.
    pub fn clear_fault_plan(&self) {
        self.faults.clear_plan();
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.plan()
    }

    /// Total allocation failures injected by fault plans on this device.
    pub fn injected_faults(&self) -> u64 {
        self.faults.injected()
    }

    /// Consult the installed fault plan at a fallible allocation site:
    /// consumes one allocation index and returns the injected failure if
    /// the plan schedules one. Uncharged (bookkeeping, not simulated
    /// work), so counter attribution is identical with and without a plan.
    pub fn fault_check(&self) -> Result<(), OomError> {
        if self.faults.plan().is_none() {
            return Ok(());
        }
        let kernel = self.scope.lock().first().copied();
        let r = self.faults.check(kernel);
        if let (Err(e), Some(p)) = (&r, &self.prof) {
            p.instant("fault_injected", e.to_string());
        }
        r
    }

    /// Admit a batch of launches against the device-level fault plan.
    /// Dispatchers call this *before* touching the device; a lost device
    /// fails every admission until [`Self::reset`], a transient plan fails
    /// a bounded run of admissions and then heals. Uncharged, like
    /// [`Self::fault_check`] — admission is bookkeeping, not device work.
    pub fn launch_check(&self) -> Result<(), crate::fault::DeviceFault> {
        let r = self.faults.check_launch();
        if let (Err(e), Some(p)) = (&r, &self.prof) {
            p.instant("device_fault", e.to_string());
        }
        r
    }

    /// Whether the device is currently lost (a terminal
    /// [`crate::fault::DeviceFault::Lost`] tripped and no reset has
    /// happened since).
    pub fn is_lost(&self) -> bool {
        self.faults.is_lost()
    }

    /// Total device faults surfaced at launch admission on this device.
    pub fn device_faults(&self) -> u64 {
        self.faults.device_faults()
    }

    /// Recover a lost device: wipe the arena back to an empty, zeroed
    /// state (freeing the whole capacity budget), drop the staging pool
    /// (arena addresses do not survive the wipe), reset the sanitizer's
    /// shadow state (accumulated findings survive — a reset must not erase
    /// evidence), and clear the lost latch plus any fault plans. Counters
    /// and the kernel registry are *cumulative* and keep their tallies, so
    /// rebuild work after a reset stays visible in traces. The caller is
    /// responsible for rebuilding whatever structures lived in the arena.
    pub fn reset(&self) {
        self.staging.clear();
        self.arena.reset();
        if let Some(s) = &self.san {
            s.reset_shadow();
        }
        self.faults.reset_device();
        if let Some(p) = &self.prof {
            p.instant("device_reset", String::new());
        }
    }
}

/// Pops the scope stack on exit, including panic unwinds (kernels panic in
/// invariant-violation tests; the stack must stay balanced).
struct ScopeGuard<'a> {
    scope: &'a parking_lot::Mutex<Vec<&'static str>>,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        self.scope.lock().pop();
    }
}

/// Per-warp execution context handed to kernels.
///
/// All memory operations and intrinsics on this type charge the device's
/// [`PerfCounters`] and the owning kernel's per-name counters; pure helpers
/// live in [`crate::lanes`].
pub struct Warp<'d> {
    device: &'d Device,
    warp_id: u32,
    active_mask: u32,
    /// The launched kernel's own name (innermost, not the fused-scope
    /// attribution target) — sanitizer findings carry it as provenance.
    name: &'static str,
    /// The counters of the kernel this warp belongs to (resolved at
    /// launch, so charging from worker threads never touches the registry).
    kernel: Arc<PerfCounters>,
    /// Stack of in-flight speculative attempts (see [`Self::begin_attempt`]).
    /// Charges land in the innermost open attempt instead of the counters;
    /// a `Warp` never crosses threads, so `RefCell` suffices.
    attempts: std::cell::RefCell<Vec<AttemptTally>>,
    /// Racecheck vector-clock state, present iff a sanitizer is attached.
    race: Option<std::cell::RefCell<WarpRace>>,
}

/// Charges buffered for one speculative attempt.
#[derive(Default, Clone, Copy)]
struct AttemptTally {
    transactions: u64,
    atomics: u64,
    ballots: u64,
    shuffles: u64,
}

impl<'d> Warp<'d> {
    /// This warp's id within the launch.
    #[inline]
    pub fn warp_id(&self) -> u32 {
        self.warp_id
    }

    /// Bit *i* set iff lane *i* has an in-range task.
    #[inline]
    pub fn active_mask(&self) -> u32 {
        self.active_mask
    }

    /// Whether `lane` is active in this launch.
    #[inline]
    pub fn is_active(&self, lane: usize) -> bool {
        self.active_mask & (1 << lane) != 0
    }

    /// Global thread (task) ids for each lane.
    #[inline]
    pub fn global_ids(&self) -> Lanes<u32> {
        let base = self.warp_id * WARP_SIZE as u32;
        Lanes::from_fn(|i| base + i as u32)
    }

    /// The owning device (for nested structures needing raw access).
    #[inline]
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// The name of the kernel this warp is executing (the launch's own
    /// name, even inside a fused scope).
    #[inline]
    pub fn kernel_name(&self) -> &'static str {
        self.name
    }

    /// Perform one contiguous memory access, handing it to the sanitizer
    /// first if one is attached. The sanitizer runs `access` under the
    /// lock that guards the touched slab's shadow, so the shadow sees
    /// accesses in the order memory does. Never charges; a single
    /// `Option` check when sanitizing is off.
    #[inline]
    fn san_access<R>(
        &self,
        base: Addr,
        len: u32,
        kind: AccessKind,
        access: impl FnOnce() -> R,
    ) -> R {
        match (&self.device.san, &self.race) {
            (Some(s), Some(r)) => s.on_warp_access(
                &mut r.borrow_mut(),
                self.warp_id,
                self.name,
                base,
                len,
                kind,
                self.device.arena.allocated_words(),
                access,
            ),
            _ => access(),
        }
    }

    #[inline]
    fn charge_transactions(&self, n: u64) {
        if let Some(t) = self.attempts.borrow_mut().last_mut() {
            t.transactions += n;
            return;
        }
        self.device.counters.add_transactions(n);
        self.kernel.add_transactions(n);
    }

    #[inline]
    fn charge_atomics(&self, n: u64) {
        if let Some(t) = self.attempts.borrow_mut().last_mut() {
            t.atomics += n;
            return;
        }
        self.device.counters.add_atomics(n);
        self.kernel.add_atomics(n);
    }

    #[inline]
    fn charge_ballots(&self, n: u64) {
        if let Some(t) = self.attempts.borrow_mut().last_mut() {
            t.ballots += n;
            return;
        }
        self.device.counters.add_ballots(n);
        self.kernel.add_ballots(n);
    }

    #[inline]
    fn charge_shuffles(&self, n: u64) {
        if let Some(t) = self.attempts.borrow_mut().last_mut() {
            t.shuffles += n;
            return;
        }
        self.device.counters.add_shuffles(n);
        self.kernel.add_shuffles(n);
    }

    // ---- speculative attempt charging ----
    //
    // Lock-free retry loops (slab claims, link CAS races, descriptor
    // installs) re-execute reads/ballots when a CAS loses a race. How
    // often that happens depends on the executor's interleaving, so
    // charging per *physical* retry makes per-kernel profiles
    // executor-dependent. Retry sites instead wrap each attempt in
    // `begin_attempt`/`commit_attempt` and call `abort_attempt` on the
    // contention-induced path, charging per *logical* probe step: the
    // committed charges are exactly what a sequential executor — where
    // losers simply run after winners — would have charged.

    /// Open a speculative attempt: subsequent charges on this warp are
    /// buffered until [`Self::commit_attempt`] or [`Self::abort_attempt`].
    /// Attempts nest; charges commit into the enclosing attempt first.
    pub fn begin_attempt(&self) {
        self.attempts.borrow_mut().push(AttemptTally::default());
    }

    /// Commit the innermost attempt: merge its buffered charges into the
    /// enclosing attempt, or into the real counters if none is open.
    pub fn commit_attempt(&self) {
        let t = {
            let mut stack = self.attempts.borrow_mut();
            let t = stack.pop().expect("commit_attempt without begin_attempt");
            if let Some(parent) = stack.last_mut() {
                parent.transactions += t.transactions;
                parent.atomics += t.atomics;
                parent.ballots += t.ballots;
                parent.shuffles += t.shuffles;
                return;
            }
            t
        };
        if t.transactions > 0 {
            self.device.counters.add_transactions(t.transactions);
            self.kernel.add_transactions(t.transactions);
        }
        if t.atomics > 0 {
            self.device.counters.add_atomics(t.atomics);
            self.kernel.add_atomics(t.atomics);
        }
        if t.ballots > 0 {
            self.device.counters.add_ballots(t.ballots);
            self.kernel.add_ballots(t.ballots);
        }
        if t.shuffles > 0 {
            self.device.counters.add_shuffles(t.shuffles);
            self.kernel.add_shuffles(t.shuffles);
        }
    }

    /// Discard the innermost attempt's buffered charges (the attempt was
    /// voided by a lost race and will be re-executed).
    pub fn abort_attempt(&self) {
        self.attempts
            .borrow_mut()
            .pop()
            .expect("abort_attempt without begin_attempt");
    }

    /// Run `f` with all charges discarded — for cleanup work (e.g. freeing
    /// a speculatively allocated slab) that a sequential executor would
    /// never perform.
    pub fn uncharged<R>(&self, f: impl FnOnce(&Self) -> R) -> R {
        self.begin_attempt();
        let r = f(self);
        self.abort_attempt();
        r
    }

    // ---- warp intrinsics (charged) ----

    /// `__ballot_sync(FULL_MASK, …)`: all 32 lanes participate.
    ///
    /// Warp-cooperative data-structure code requires the *whole* warp to
    /// execute the ballot even when fewer than 32 tasks are in range (the
    /// paper's WCWS strategy: "it requires all threads within a warp to be
    /// active"). Task validity must therefore be folded into the predicate
    /// itself (e.g. via [`Self::is_active`]), not into the ballot mask.
    #[inline]
    pub fn ballot(&self, preds: &Lanes<bool>) -> u32 {
        self.charge_ballots(1);
        lanes::ballot(FULL_MASK, preds)
    }

    /// `__ballot_sync` with an explicit mask (for sub-warp groups).
    #[inline]
    pub fn ballot_masked(&self, mask: u32, preds: &Lanes<bool>) -> u32 {
        self.charge_ballots(1);
        lanes::ballot(mask, preds)
    }

    /// `__shfl_sync` broadcast: every lane reads `src_lane`'s value.
    #[inline]
    pub fn shuffle<T: Copy>(&self, vals: &Lanes<T>, src_lane: u32) -> T {
        self.charge_shuffles(1);
        lanes::shuffle(vals, src_lane)
    }

    /// `__shfl_sync` indexed form.
    #[inline]
    pub fn shuffle_idx<T: Copy>(&self, vals: &Lanes<T>, idx: &Lanes<u32>) -> Lanes<T> {
        self.charge_shuffles(1);
        lanes::shuffle_idx(vals, idx)
    }

    // ---- memory operations (charged) ----

    /// Coalesced read of one 128 B slab: lane *i* receives word `base+i`.
    /// One transaction.
    #[inline]
    pub fn read_slab(&self, base: Addr) -> Lanes<u32> {
        self.charge_transactions(1);
        Lanes(
            self.san_access(base, SLAB_WORDS as u32, AccessKind::PlainRead, || {
                self.device.arena.load_slab(base)
            }),
        )
    }

    /// Coalesced write of one 128 B slab. One transaction.
    #[inline]
    pub fn write_slab(&self, base: Addr, words: &Lanes<u32>) {
        self.charge_transactions(1);
        self.san_access(base, SLAB_WORDS as u32, AccessKind::PlainWrite, || {
            self.device.arena.store_slab(base, &words.0)
        });
    }

    /// Scattered per-lane reads: lane *i* (if set in `mask`) loads
    /// `addrs[i]`. Charged one transaction per distinct 128 B segment
    /// touched, exactly like hardware coalescing.
    pub fn read_lanes(&self, addrs: &Lanes<Addr>, mask: u32) -> Lanes<u32> {
        self.charge_scattered(addrs, mask);
        Lanes::from_fn(|i| {
            if mask & (1 << i) != 0 {
                let addr = addrs.0[i];
                self.san_access(addr, 1, AccessKind::PlainRead, || {
                    self.device.arena.load(addr)
                })
            } else {
                0
            }
        })
    }

    /// Scattered per-lane writes with coalescing-aware charging.
    pub fn write_lanes(&self, addrs: &Lanes<Addr>, vals: &Lanes<u32>, mask: u32) {
        self.charge_scattered(addrs, mask);
        for i in 0..WARP_SIZE {
            if mask & (1 << i) != 0 {
                let addr = addrs.0[i];
                self.san_access(addr, 1, AccessKind::PlainWrite, || {
                    self.device.arena.store(addr, vals.0[i])
                });
            }
        }
    }

    fn charge_scattered(&self, addrs: &Lanes<Addr>, mask: u32) {
        let mut segs: [u32; WARP_SIZE] = [u32::MAX; WARP_SIZE];
        let mut n = 0usize;
        for i in 0..WARP_SIZE {
            if mask & (1 << i) != 0 {
                let seg = addrs.0[i] / SLAB_WORDS as u32;
                if !segs[..n].contains(&seg) {
                    segs[n] = seg;
                    n += 1;
                }
            }
        }
        self.charge_transactions(n as u64);
    }

    /// Single-word read issued by one lane (uniform warp read). One
    /// transaction.
    #[inline]
    pub fn read_word(&self, addr: Addr) -> u32 {
        self.charge_transactions(1);
        self.san_access(addr, 1, AccessKind::PlainRead, || {
            self.device.arena.load(addr)
        })
    }

    /// Single-word write issued by one lane. One transaction.
    #[inline]
    pub fn write_word(&self, addr: Addr, v: u32) {
        self.charge_transactions(1);
        self.san_access(addr, 1, AccessKind::PlainWrite, || {
            self.device.arena.store(addr, v)
        });
    }

    /// `atomicCAS` issued by one lane.
    #[inline]
    pub fn atomic_cas(&self, addr: Addr, expected: u32, new: u32) -> Result<u32, u32> {
        self.charge_atomics(1);
        self.san_access(addr, 1, AccessKind::Atomic, || {
            self.device.arena.cas(addr, expected, new)
        })
    }

    /// 64-bit `atomicCAS` over the 8-byte-aligned word pair at `addr`
    /// (even) and `addr + 1`, issued by one lane: both words are swapped
    /// together or not at all. `expected` and `new` list the words in
    /// address order. One atomic, like any other single-lane atomic.
    /// Panics if `addr` is odd.
    #[inline]
    pub fn atomic_cas_pair(
        &self,
        addr: Addr,
        expected: [u32; 2],
        new: [u32; 2],
    ) -> Result<[u32; 2], [u32; 2]> {
        self.charge_atomics(1);
        self.san_access(addr, 2, AccessKind::Atomic, || {
            self.device.arena.cas_pair(addr, expected, new)
        })
    }

    /// `atomicExch` issued by one lane.
    #[inline]
    pub fn atomic_exchange(&self, addr: Addr, v: u32) -> u32 {
        self.charge_atomics(1);
        self.san_access(addr, 1, AccessKind::Atomic, || {
            self.device.arena.exchange(addr, v)
        })
    }

    /// `atomicAdd` issued by one lane.
    #[inline]
    pub fn atomic_add(&self, addr: Addr, v: u32) -> u32 {
        self.charge_atomics(1);
        self.san_access(addr, 1, AccessKind::Atomic, || {
            self.device.arena.fetch_add(addr, v)
        })
    }

    /// `atomicSub` issued by one lane.
    #[inline]
    pub fn atomic_sub(&self, addr: Addr, v: u32) -> u32 {
        self.charge_atomics(1);
        self.san_access(addr, 1, AccessKind::Atomic, || {
            self.device.arena.fetch_sub(addr, v)
        })
    }

    /// `atomicOr` issued by one lane.
    #[inline]
    pub fn atomic_or(&self, addr: Addr, v: u32) -> u32 {
        self.charge_atomics(1);
        self.san_access(addr, 1, AccessKind::Atomic, || {
            self.device.arena.fetch_or(addr, v)
        })
    }

    /// `atomicAnd` issued by one lane.
    #[inline]
    pub fn atomic_and(&self, addr: Addr, v: u32) -> u32 {
        self.charge_atomics(1);
        self.san_access(addr, 1, AccessKind::Atomic, || {
            self.device.arena.fetch_and(addr, v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_tasks_covers_all_tasks_once() {
        let dev = Device::new(1024);
        let out = dev.alloc_words(100, 1);
        dev.arena().fill(out, 100, 0);
        dev.launch_tasks("count", 100, |warp| {
            let ids = warp.global_ids();
            for (lane, id) in ids.iter() {
                if warp.is_active(lane) {
                    warp.atomic_add(out + id, 1);
                }
            }
        });
        for i in 0..100 {
            assert_eq!(dev.arena().load(out + i), 1, "task {i}");
        }
    }

    #[test]
    fn partial_warp_active_mask() {
        let dev = Device::new(64);
        let seen = std::sync::Mutex::new(vec![]);
        dev.launch_tasks("masks", 40, |warp| {
            seen.lock()
                .unwrap()
                .push((warp.warp_id(), warp.active_mask()));
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0, FULL_MASK));
        assert_eq!(seen[1], (1, (1 << 8) - 1));
    }

    #[test]
    fn zero_tasks_launches_zero_warps() {
        let dev = Device::new(64);
        let ran = std::sync::atomic::AtomicUsize::new(0);
        dev.launch_tasks("empty", 0, |_| {
            ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(dev.counters().snapshot().launches, 1);
    }

    #[test]
    fn slab_read_costs_one_transaction() {
        let dev = Device::new(1024);
        let slab = dev.alloc_words(SLAB_WORDS, SLAB_WORDS);
        dev.arena().fill(slab, SLAB_WORDS, 0);
        let before = dev.counters().snapshot();
        dev.launch_tasks("slab_read", 32, |warp| {
            let _ = warp.read_slab(slab);
        });
        let d = dev.counters().snapshot().delta(&before);
        assert_eq!(d.transactions, 1);
        assert_eq!(d.launches, 1);
        assert_eq!(d.warps, 1);
    }

    #[test]
    fn scattered_access_charges_by_segment() {
        let dev = Device::new(4096);
        let base = dev.alloc_words(32 * SLAB_WORDS, SLAB_WORDS);
        dev.arena().fill(base, 32 * SLAB_WORDS, 0);
        let before = dev.counters().snapshot();
        dev.launch_tasks("scatter", 32, |warp| {
            // All 32 lanes touch 32 different slabs: 32 transactions.
            let addrs = Lanes::from_fn(|i| base + (i * SLAB_WORDS) as u32);
            let _ = warp.read_lanes(&addrs, FULL_MASK);
            // All 32 lanes touch the same slab: 1 transaction.
            let same = Lanes::from_fn(|i| base + i as u32);
            let _ = warp.read_lanes(&same, FULL_MASK);
        });
        let d = dev.counters().snapshot().delta(&before);
        assert_eq!(d.transactions, 33);
    }

    #[test]
    fn ballots_and_shuffles_are_charged() {
        let dev = Device::new(64);
        let before = dev.counters().snapshot();
        dev.launch_tasks("intrinsics", 32, |warp| {
            let preds = Lanes::splat(true);
            let b = warp.ballot(&preds);
            assert_eq!(b, FULL_MASK);
            let vals = Lanes::from_fn(|i| i as u32);
            let v = warp.shuffle(&vals, 3);
            assert_eq!(v, 3);
        });
        let d = dev.counters().snapshot().delta(&before);
        assert_eq!(d.ballots, 1);
        assert_eq!(d.shuffles, 1);
    }

    #[test]
    fn threaded_and_sequential_agree_on_commutative_kernel() {
        let run = |policy| {
            let dev = Device::with_policy(4096, policy);
            let out = dev.alloc_words(1, 1);
            dev.arena().fill(out, 1, 0);
            dev.launch_tasks("sum", 10_000, |warp| {
                let mask = warp.active_mask();
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) != 0 {
                        warp.atomic_add(out, 1);
                    }
                }
            });
            dev.arena().load(out)
        };
        assert_eq!(run(ExecPolicy::Sequential), 10_000);
        assert_eq!(run(ExecPolicy::Threaded(4)), 10_000);
    }

    #[test]
    fn cas_pair_costs_one_atomic() {
        let dev = Device::new(1024);
        let p = dev.alloc_words(2, 2);
        dev.arena().fill(p, 2, 0);
        let before = dev.counters().snapshot();
        dev.launch_warps("pair", 1, |warp| {
            assert_eq!(warp.atomic_cas_pair(p, [0, 0], [1, 2]), Ok([0, 0]));
            assert_eq!(warp.atomic_cas_pair(p, [0, 0], [3, 4]), Err([1, 2]));
        });
        let d = dev.counters().snapshot().delta(&before);
        assert_eq!((d.atomics, d.transactions), (2, 0));
    }

    /// Racing 64-bit pair CASes and 32-bit adds on the same cells lose no
    /// update: each pair CAS bumps both words, each add bumps one.
    #[test]
    fn threaded_pair_cas_and_word_adds_lose_no_update() {
        const CELLS: u32 = 4;
        const ROUNDS: u32 = 200;
        let dev = Device::with_policy(1024, ExecPolicy::Threaded(4));
        let p = dev.alloc_words(2 * CELLS as usize, 2);
        dev.arena().fill(p, 2 * CELLS as usize, 0);
        dev.launch_warps("mixed", 16, |warp| {
            for r in 0..ROUNDS {
                let cell = p + 2 * (r % CELLS);
                match warp.warp_id() % 3 {
                    0 => {
                        let mut seen = [warp.read_word(cell), warp.read_word(cell + 1)];
                        while let Err(now) =
                            warp.atomic_cas_pair(cell, seen, [seen[0] + 1, seen[1] + 1])
                        {
                            seen = now;
                        }
                    }
                    1 => {
                        warp.atomic_add(cell, 1);
                    }
                    _ => {
                        warp.atomic_add(cell + 1, 1);
                    }
                }
            }
        });
        // Warps 0..16 by id mod 3: 6 pair warps, 5 low-word, 5 high-word.
        let per_cell = ROUNDS / CELLS;
        for c in 0..CELLS {
            let cell = p + 2 * c;
            assert_eq!(
                dev.arena().load(cell),
                (6 + 5) * per_cell,
                "low word of cell {c}"
            );
            assert_eq!(
                dev.arena().load(cell + 1),
                (6 + 5) * per_cell,
                "high word of cell {c}"
            );
        }
    }

    #[test]
    fn memset_charges_coalesced_transactions() {
        let dev = Device::new(4096);
        let p = dev.alloc_words(320, 32);
        let before = dev.counters().snapshot();
        dev.memset("fill", p, 320, u32::MAX);
        let d = dev.counters().snapshot().delta(&before);
        assert_eq!(d.transactions, 10);
        assert_eq!(dev.arena().load(p + 319), u32::MAX);
    }

    #[test]
    fn launch_warps_runs_exact_warp_count() {
        let dev = Device::new(64);
        let count = std::sync::atomic::AtomicUsize::new(0);
        dev.launch_warps("exact", 7, |warp| {
            assert_eq!(warp.active_mask(), FULL_MASK);
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 7);
    }

    // ---- attribution ----

    fn kernel_counters(dev: &Device, name: &str) -> crate::counters::CounterSnapshot {
        dev.trace()
            .kernels
            .into_iter()
            .find(|k| k.name == name)
            .map(|k| k.counters)
            .unwrap_or_default()
    }

    #[test]
    fn launches_attribute_to_their_kernel_name() {
        let dev = Device::new(1024);
        let out = dev.alloc_words(1, 1);
        dev.arena().fill(out, 1, 0);
        dev.launch_tasks("alpha", 64, |warp| {
            warp.atomic_add(out, 1);
        });
        dev.launch_tasks("beta", 32, |warp| {
            let _ = warp.read_word(out);
        });
        let alpha = kernel_counters(&dev, "alpha");
        assert_eq!(alpha.launches, 1);
        assert_eq!(alpha.warps, 2);
        assert_eq!(alpha.atomics, 2);
        assert_eq!(alpha.transactions, 0);
        let beta = kernel_counters(&dev, "beta");
        assert_eq!(beta.launches, 1);
        assert_eq!(beta.warps, 1);
        assert_eq!(beta.transactions, 1);
        // Host-side alloc before any launch lands in the reserved bucket.
        assert_eq!(kernel_counters(&dev, HOST_KERNEL).words_allocated, 1);
    }

    #[test]
    fn per_kernel_counters_sum_to_global() {
        let dev = Device::new(4096);
        let p = dev.alloc_words(64, 32);
        dev.memset("init", p, 64, 0);
        dev.launch_tasks("work", 100, |warp| {
            let preds = Lanes::splat(true);
            let _ = warp.ballot(&preds);
            warp.atomic_add(p, 1);
        });
        dev.fused_scope("fused", || {
            dev.launch_warps("helper", 2, |warp| {
                let _ = warp.read_word(p);
            });
        });
        let trace = dev.trace();
        assert_eq!(trace.kernel_sum(), trace.global);
    }

    #[test]
    fn fused_scope_owns_inner_launches() {
        let dev = Device::new(1024);
        let p = dev.alloc_words(32, 32);
        dev.arena().fill(p, 32, 0);
        let before = dev.trace();
        dev.fused_scope("outer", || {
            dev.launch_warps("inner_a", 1, |warp| {
                let _ = warp.read_word(p);
            });
            dev.memset("inner_b", p, 32, 0);
        });
        let d = dev.trace().delta(&before);
        // One launch total, everything under the scope's name.
        assert_eq!(d.global.launches, 1);
        assert_eq!(d.kernels.len(), 1);
        assert_eq!(d.kernels[0].name, "outer");
        assert_eq!(d.kernels[0].counters.launches, 1);
        assert_eq!(d.kernels[0].counters.warps, 1);
        assert_eq!(d.kernels[0].counters.transactions, 2);
        assert_eq!(d.kernel_sum(), d.global);
    }

    #[test]
    fn memset_inside_kernel_attributes_to_launch() {
        let dev = Device::new(4096);
        let p = dev.alloc_words(64, 32);
        let before = dev.trace();
        dev.launch_warps("rehash_like", 1, |warp| {
            warp.device().memset("unused_name", p, 64, 0);
        });
        let d = dev.trace().delta(&before);
        assert_eq!(d.global.launches, 1, "inner memset is fused");
        assert_eq!(d.kernels.len(), 1);
        assert_eq!(d.kernels[0].name, "rehash_like");
        assert_eq!(d.kernels[0].counters.transactions, 2);
        assert_eq!(d.kernel_sum(), d.global);
    }

    #[test]
    fn sanitizer_detects_torn_counter_even_sequentially() {
        // Model-based racecheck: the sequential executor reports the same
        // logical race a threaded run could hit.
        let dev =
            Device::with_config(DeviceConfig::new(1024).with_sanitizer(SanitizerConfig::default()));
        let c = dev.alloc_words(1, 1);
        dev.arena().fill(c, 1, 0);
        dev.launch_tasks("torn", 64, |warp| {
            let v = warp.read_word(c);
            warp.write_word(c, v + 1);
        });
        let f = dev.sanitizer_findings();
        assert!(!f.is_empty());
        assert!(f.iter().all(|x| x.kernel == "torn" && x.addr == c), "{f:?}");
    }

    #[test]
    fn sanitizer_charges_nothing() {
        let run = |sanitize: bool| {
            let mut cfg = DeviceConfig::new(4096);
            cfg.sanitize = sanitize.then(SanitizerConfig::default);
            let dev = Device::with_config(cfg);
            let p = dev.alloc_words(64, 32);
            dev.memset("init", p, 64, 0);
            dev.launch_tasks("work", 200, |warp| {
                let v = warp.read_word(p);
                warp.atomic_add(p + 1, v + 1);
                let _ = warp.read_slab(p + 32);
            });
            dev.trace()
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.global, off.global);
        assert_eq!(on.kernels.len(), off.kernels.len());
        for (a, b) in on.kernels.iter().zip(off.kernels.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.counters, b.counters);
        }
    }

    #[test]
    fn config_capacity_makes_device_alloc_fallible() {
        let dev = Device::with_config(DeviceConfig::new(64).with_capacity_words(100));
        assert_eq!(dev.capacity_words(), 100);
        assert!(dev.try_alloc_words(64, 1).is_ok());
        let before = dev.counters().snapshot().words_allocated;
        let err = dev.try_alloc_words(64, 1).unwrap_err();
        assert!(matches!(err, OomError::Capacity { .. }));
        // Failed allocations charge nothing.
        assert_eq!(dev.counters().snapshot().words_allocated, before);
        dev.set_capacity_words(u64::MAX);
        assert!(dev.try_alloc_words(64, 1).is_ok());
    }

    #[test]
    fn fault_check_reports_enclosing_kernel() {
        let dev = Device::new(64);
        dev.set_fault_plan(FaultPlan::fail_in_kernel("victim"));
        assert!(dev.fault_check().is_ok(), "outside any kernel");
        let seen = parking_lot::Mutex::new(None);
        dev.launch_warps("victim", 1, |_warp| {
            *seen.lock() = Some(dev.fault_check());
        });
        assert_eq!(
            seen.into_inner(),
            Some(Err(OomError::Injected {
                alloc_index: 2,
                kernel: Some("victim")
            }))
        );
        dev.launch_warps("bystander", 1, |_warp| {
            assert!(dev.fault_check().is_ok());
        });
        dev.clear_fault_plan();
        assert_eq!(dev.injected_faults(), 1);
        assert!(dev.fault_plan().is_none());
    }

    #[test]
    fn fault_plan_fails_nth_fallible_allocation() {
        let dev = Device::new(1024);
        dev.set_fault_plan(FaultPlan::fail_nth(2));
        assert!(dev.fault_check().is_ok());
        assert!(dev.fault_check().is_err());
        assert!(dev.fault_check().is_ok());
    }

    #[test]
    fn charge_handle_dual_charges() {
        let dev = Device::new(64);
        let before = dev.trace();
        let c = dev.charge("manual");
        c.add_launches(1);
        c.add_transactions(5);
        c.add_atomics(2);
        drop(c);
        let d = dev.trace().delta(&before);
        assert_eq!(d.global.launches, 1);
        assert_eq!(d.global.transactions, 5);
        assert_eq!(d.kernels.len(), 1);
        assert_eq!(d.kernels[0].name, "manual");
        assert_eq!(d.kernels[0].counters.atomics, 2);
        assert_eq!(d.kernel_sum(), d.global);
    }
}

//! The one decomposition path: the immutable, shareable [`Engine`], the
//! per-request [`Session`], and the executor that every entry point —
//! the engine, the [`AdaptiveFramework`] wrappers, and through them the
//! CLI, the server and the bench bins, whichever sweep prepared the
//! layout — runs.
//!
//! [`Engine`] compiles the frozen inference heads **once** at
//! construction (the weight fold is deterministic, so freeze-once output
//! equals freeze-per-call bit for bit) and keeps the ColorGNN RNG in the
//! caller's [`Session`], leaving the engine itself `Send + Sync` — one
//! warm instance serves any number of concurrent requests behind an
//! `Arc`. Each decomposition takes one `u64` draw from that stream before
//! routing; ColorGNN samples every graph on a stream derived from the
//! draw and the graph (see `mpld_gnn::FrozenColorGnn::decompose_seeded`).
//! The framework wrappers freeze the heads per call and take the draw
//! from the model's own ColorGNN stream instead.
//!
//! # The tail executor
//!
//! After the batched routing prefix (matching, redundancy prediction,
//! ColorGNN — [`AdaptiveFramework::route`], which does each distinct
//! graph's work once and samples distinct ColorGNN parents on
//! [`Session::threads`] workers), each unit left to the
//! ILP/EC tail takes the first answer from a fixed chain of sources:
//!
//! 1. an audited record of the request's job journal
//!    ([`Recovery::journal`]);
//! 2. unless it is the representative (first member in unit order) of
//!    its request-local isomorphism group, the representative's result
//!    transferred through the shared canonical labeling and re-verified
//!    against the member's own cost — falling back to a direct answer
//!    (steps 3–4) when the check fails or the representative degraded;
//! 3. for a representative, the engine's identity-keyed solution cache
//!    (one per tail routing flag, which decides which engines may
//!    answer), preloaded from the persistent store when one is attached;
//! 4. a guarded solve ([`AdaptiveFramework::solve_tail_guarded`]),
//!    scheduled largest-unit-first on [`Session::threads`] workers.
//!
//! Progress events, journal appends and cache/store publication are
//! observers that run on the calling thread as each representative
//! completes. Only fresh deterministic direct solves are published —
//! never transfers, cache hits, or budget-cut, audit-rejected or
//! degraded results — so a cache hit replays exactly what solving the
//! same graph would compute. With an unlimited budget every coloring is
//! therefore a pure function of (model, layout, seed), whatever the
//! thread count, entry point, or cache warmth.
//!
//! Cross-request state lives in sharded, equality-verified maps
//! ([`ShardedGraphMap`]): the **routing memo** caches per-representative
//! selector/redundancy probabilities and embeddings, and the **solution
//! caches** hold the published tail solves. A memo entry is not always
//! bitwise what this request's own forward would compute — a graph's
//! frozen outputs depend on its row offset in the batch, by a few ulps —
//! but no routing decision sits that close to a bar, so a hit routes
//! every unit exactly as a fresh forward would (`tests/routing_bars.rs`
//! checks this on the suite circuits). ColorGNN results are not cached
//! across requests: a coloring is a function of (graph, draw), and the
//! draw comes from the session's seed.

use crate::framework::{
    AdaptiveFramework, AdaptiveResult, BudgetBreakdown, BudgetPolicy, EngineKind, InferenceStats,
    Recovery, TimingBreakdown, UnitOutcome, UnitSolve, UsageBreakdown,
};
use crate::parallel::run_largest_first_streaming;
use crate::pipeline::{assemble, PreparedLayout};
use mpld_gnn::{FrozenColorGnn, FrozenRgcn};
use mpld_graph::{
    audit_coloring, Budget, Certainty, DecomposeParams, Decomposition, LayoutGraph, MpldError,
};
use mpld_matching::{
    canonical_form_labeled, graph_fingerprint, CanonicalForm, ShardedGraphMap, ShardedMapStats,
};
use mpld_store::{Journal, JournalKey, TailEngine, UnitRecord};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Largest unit eligible for the request-local isomorphism memo: the
/// exact canonical form in `mpld-matching` is factorial-guarded at 12
/// nodes.
const MEMO_MAX_NODES: usize = 12;

/// One routed representative's inference outputs: everything
/// [`AdaptiveFramework::route`] scatters per representative, and what the
/// cross-request routing memo keeps (see module docs).
pub(crate) struct RoutingEntry {
    pub(crate) sel_probs: Vec<f32>,
    pub(crate) red_probs: Vec<f32>,
    pub(crate) graph_emb: Vec<f32>,
    pub(crate) node_emb: mpld_tensor::Matrix,
}

/// The engine's cross-request routing memo.
pub(crate) type SharedRoutingMemo = ShardedGraphMap<Arc<RoutingEntry>>;

/// One published deterministic ILP/EC-tail solve.
struct CachedSolve {
    d: Decomposition,
    engine: EngineKind,
}

/// The engine's handle on a persistent store: the append writer plus
/// what loading it observed (frozen at construction).
struct EngineStore {
    writer: mpld_store::StoreWriter,
    load: mpld_store::LoadReport,
}

/// The frozen inference heads one decomposition runs.
pub(crate) struct Heads {
    pub(crate) sel: FrozenRgcn,
    pub(crate) red: FrozenRgcn,
    pub(crate) color: FrozenColorGnn,
}

impl Heads {
    /// Compiles the framework's current weights.
    pub(crate) fn freeze(fw: &AdaptiveFramework) -> Self {
        Self {
            sel: fw.selector.freeze(),
            red: fw.redundancy.freeze(),
            color: fw.colorgnn.freeze(),
        }
    }
}

/// An engine's cross-request state (see module docs).
pub(crate) struct Shared {
    routing: SharedRoutingMemo,
    /// Tail-solution caches indexed by the `ec_first` routing flag.
    solutions: [ShardedGraphMap<Arc<CachedSolve>>; 2],
    /// Persistent store flywheel (see [`crate::engine_with_store`]):
    /// published solves are appended write-behind; `None` for a purely
    /// in-memory engine.
    store: Option<EngineStore>,
}

/// Immutable decomposition engine shared across concurrent requests (see
/// module docs). `Send + Sync`; wrap in an [`Arc`] and hand clones to
/// worker threads, each driving its own [`Session`].
pub struct Engine {
    fw: AdaptiveFramework,
    heads: Heads,
    shared: Shared,
    /// [`AdaptiveFramework::weights_digest`], computed at most once.
    model_digest: OnceLock<u64>,
}

/// Snapshot of an [`Engine`]'s cross-request cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Routing-memo counters (selector/redundancy inference reuse).
    pub routing: ShardedMapStats,
    /// Tail-solution counters for ILP-first routed units.
    pub solutions_ilp_first: ShardedMapStats,
    /// Tail-solution counters for EC-first routed units.
    pub solutions_ec_first: ShardedMapStats,
    /// The persistent store's load report (frozen at construction; its
    /// `lib_complete` says whether the graph library came from the
    /// store) and its writer's live counters; `None` for an in-memory
    /// engine.
    pub store: Option<(mpld_store::LoadReport, mpld_store::WriterStats)>,
}

/// The ColorGNN seed of every entry point (CLI, server, client) whose
/// caller pins none.
pub const DEFAULT_SEED: u64 = 0xBEEF;

/// Per-request mutable state: budget policy, job journal, worker count,
/// and the session's ColorGNN RNG stream (one draw per decomposition).
/// Cheap to create per request; never shared between requests.
pub struct Session<'a> {
    /// Wall-clock limits for this request.
    pub policy: BudgetPolicy,
    /// The job journal this request resumes from and appends to.
    pub recovery: Recovery<'a>,
    /// ColorGNN and ILP/EC-tail worker threads (default 1: everything
    /// runs on the calling thread). Results do not depend on it.
    pub threads: usize,
    seed: u64,
    rng: SmallRng,
}

impl Session<'_> {
    /// An unlimited single-threaded session whose ColorGNN stream starts
    /// at `seed` — bit-identical to `colorgnn.reseed(seed)` followed by a
    /// framework entry point.
    pub fn new(seed: u64) -> Self {
        Self {
            policy: BudgetPolicy::unlimited(),
            recovery: Recovery::default(),
            threads: 1,
            seed,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// [`Session::new`] with a budget policy.
    pub fn with_policy(seed: u64, policy: BudgetPolicy) -> Self {
        Self {
            policy,
            ..Self::new(seed)
        }
    }

    /// The seed this session's RNG stream started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Streaming progress of one [`Engine::decompose_with_progress`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// The batched routing prefix finished: matching and ColorGNN
    /// resolved their units, the ILP/EC tail is about to start.
    Routed {
        /// Total unit count of the layout.
        units: usize,
        /// Units resolved by audited library matching.
        matched: usize,
        /// Units resolved by ColorGNN.
        colorgnn: usize,
        /// Representatives served from the cross-request routing memo.
        routing_memo_hits: usize,
    },
    /// One ILP/EC-tail unit resolved (one event per tail unit, in
    /// completion order).
    Unit {
        /// Unit index within the prepared layout.
        index: usize,
        /// Engine whose coloring was kept.
        engine: EngineKind,
        /// How much that engine vouches for the result.
        certainty: Certainty,
        /// No solve ran for this unit: it was restored from the job
        /// journal, served from the solution cache, or transferred from
        /// an isomorphic unit of the same request.
        cached: bool,
    },
}

impl Engine {
    /// Compiles a trained framework into a shareable engine: freezes
    /// both RGCN heads and the ColorGNN once, and starts with empty
    /// cross-request caches.
    pub fn new(fw: AdaptiveFramework) -> Self {
        Self::with_cache_cap(fw, None)
    }

    /// [`Engine::new`] with a solution/routing-cache entry cap: each of
    /// the three cross-request maps holds at most `cap` entries, evicting
    /// arbitrarily past it, so an unbounded-traffic server stays bounded.
    pub fn with_cache_cap(fw: AdaptiveFramework, cap: Option<usize>) -> Self {
        let map = || ShardedGraphMap::with_capacity(mpld_matching::DEFAULT_SHARDS, cap);
        Self {
            heads: Heads::freeze(&fw),
            fw,
            shared: Shared {
                routing: ShardedGraphMap::with_capacity(mpld_matching::DEFAULT_SHARDS, cap),
                solutions: [map(), map()],
                store: None,
            },
            model_digest: OnceLock::new(),
        }
    }

    /// Attaches an opened persistent store: preloads its audit-clean
    /// tail solves into the solution caches and appends published solves
    /// back (write-behind).
    pub fn with_store(
        fw: AdaptiveFramework,
        opened: mpld_store::OpenedStore,
        cache_cap: Option<usize>,
    ) -> Self {
        let mut engine = Self::with_cache_cap(fw, cache_cap);
        let mpld_store::OpenedStore { load, writer } = opened;
        for s in &load.solves {
            engine.shared.solutions[usize::from(s.ec_first)].insert(
                &s.graph,
                Arc::new(CachedSolve {
                    d: Decomposition {
                        coloring: s.coloring.clone(),
                        cost: s.cost,
                        certainty: s.certainty,
                    },
                    engine: engine_kind(s.engine),
                }),
            );
        }
        engine.shared.store = Some(EngineStore {
            writer,
            load: load.report,
        });
        engine
    }

    /// The wrapped framework (parameters, library, thresholds).
    pub fn framework(&self) -> &AdaptiveFramework {
        &self.fw
    }

    /// The key of `prep`'s job journal under this engine's model: open
    /// it with [`Journal::open`] and hand it to [`Session::recovery`].
    /// The model digest is computed once per engine.
    pub fn journal_key(&self, prep: &PreparedLayout) -> JournalKey {
        JournalKey {
            model_digest: *self.model_digest.get_or_init(|| self.fw.weights_digest()),
            k: self.fw.params.k,
            alpha: self.fw.params.alpha,
            layout: prep.name.clone(),
            units: prep.units.len(),
        }
    }

    /// Snapshot of the cross-request cache counters.
    pub fn stats(&self) -> EngineStats {
        let shared = &self.shared;
        EngineStats {
            routing: shared.routing.stats(),
            solutions_ilp_first: shared.solutions[0].stats(),
            solutions_ec_first: shared.solutions[1].stats(),
            store: shared.store.as_ref().map(|s| (s.load, s.writer.stats())),
        }
    }

    /// Forces any write-behind store appends to disk.
    pub fn flush_store(&self) {
        if let Some(store) = &self.shared.store {
            store.writer.flush();
        }
    }

    /// [`Engine::decompose_with_progress`] without progress events.
    ///
    /// # Errors
    ///
    /// None in practice (see [`Engine::decompose_with_progress`]).
    pub fn decompose(
        &self,
        prep: &PreparedLayout,
        session: &mut Session<'_>,
    ) -> Result<AdaptiveResult, MpldError> {
        self.decompose_with_progress(prep, session, &mut |_| {})
    }

    /// Decomposes a prepared layout against the shared caches, streaming
    /// [`Progress`] events as routing and each tail unit resolve.
    ///
    /// With an unlimited budget the result's colorings, costs, engines,
    /// usage and budget counts equal `colorgnn.reseed(session.seed())`
    /// followed by any framework entry point, at any thread count and
    /// cache warmth; warm caches change only the reuse accounting
    /// (`memo_hits`, `inference`) and timing (see module docs).
    ///
    /// # Errors
    ///
    /// None in practice: the tail executor answers every engine error
    /// (and panic) with an audited ILP retry or a quarantined greedy
    /// coloring, and budget exhaustion is never an error (see
    /// [`AdaptiveFramework::decompose_prepared_parallel_recoverable`]).
    /// The `Result` stays for callers that match on it.
    pub fn decompose_with_progress(
        &self,
        prep: &PreparedLayout,
        session: &mut Session<'_>,
        on_event: &mut dyn FnMut(Progress),
    ) -> Result<AdaptiveResult, MpldError> {
        let executor = Executor {
            fw: &self.fw,
            heads: &self.heads,
            shared: Some(&self.shared),
        };
        let draw = session.rng.next_u64();
        let r = executor.run(
            prep,
            &session.policy,
            session.recovery,
            session.threads,
            draw,
            on_event,
        );
        // Batch-flush the store appends once per request: one fsync per
        // request tail instead of one per solve.
        self.flush_store();
        Ok(r)
    }
}

/// Per-unit state of one decomposition: routing resolves the matching
/// and ColorGNN units and sets every unit's tail flag, the tail executor
/// resolves the rest.
#[derive(Default)]
pub(crate) struct RunState {
    /// Each unit's routing-representative slot: identical units share
    /// one, and with it every routing outcome (the tail flag included).
    pub(crate) rep_slot: Vec<usize>,
    pub(crate) results: Vec<Option<Decomposition>>,
    pub(crate) engines: Vec<Option<EngineKind>>,
    /// Tail routing flag: EC first (kept when certified, else verified
    /// by the ILP) rather than the exact ILP alone.
    pub(crate) ec_first: Vec<bool>,
    pub(crate) audit_rejected: Vec<bool>,
    pub(crate) budget_fallback: Vec<bool>,
    pub(crate) time: Vec<Duration>,
    pub(crate) usage: UsageBreakdown,
    pub(crate) timing: TimingBreakdown,
    pub(crate) inference: InferenceStats,
    pub(crate) quarantines: Vec<(usize, MpldError)>,
    pub(crate) memo_hits: usize,
    pub(crate) resumed_units: usize,
}

impl RunState {
    /// Assembles the final [`AdaptiveResult`] once every unit resolved.
    fn finish(
        self,
        prep: &PreparedLayout,
        params: &DecomposeParams,
        start: Instant,
    ) -> AdaptiveResult {
        #[allow(clippy::expect_used)] // the executor resolves every unit
        let results: Vec<Decomposition> = self
            .results
            .into_iter()
            .map(|d| d.expect("every unit decomposed"))
            .collect();
        #[allow(clippy::expect_used)] // the executor resolves every unit
        let unit_engines: Vec<EngineKind> = self
            .engines
            .into_iter()
            .map(|e| e.expect("every unit routed"))
            .collect();
        let mut usage = self.usage;
        usage.ilp = unit_engines
            .iter()
            .filter(|&&e| e == EngineKind::Ilp)
            .count();
        usage.ec = unit_engines
            .iter()
            .filter(|&&e| e == EngineKind::Ec)
            .count();
        let unit_outcomes: Vec<UnitOutcome> = (0..results.len())
            .map(|i| UnitOutcome {
                engine: unit_engines[i],
                certainty: results[i].certainty,
                budget_fallback: self.budget_fallback[i],
                time: self.time[i],
                audit_rejected: self.audit_rejected[i],
            })
            .collect();
        AdaptiveResult {
            pipeline: assemble(prep, params, results, start.elapsed()),
            usage,
            timing: self.timing,
            unit_engines,
            memo_hits: self.memo_hits,
            inference: self.inference,
            budget: BudgetBreakdown::from_outcomes(&unit_outcomes),
            unit_outcomes,
            quarantines: self.quarantines,
            resumed_units: self.resumed_units,
        }
    }
}

/// One decomposition's view of a model: the framework, its frozen heads,
/// and — on an [`Engine`] — the cross-request state.
pub(crate) struct Executor<'e> {
    pub(crate) fw: &'e AdaptiveFramework,
    pub(crate) heads: &'e Heads,
    pub(crate) shared: Option<&'e Shared>,
}

impl Executor<'_> {
    /// Routes `prep` (ColorGNN sampling under `draw`), then resolves its
    /// ILP/EC tail through the source chain (see module docs).
    pub(crate) fn run(
        &self,
        prep: &PreparedLayout,
        policy: &BudgetPolicy,
        recovery: Recovery<'_>,
        threads: usize,
        draw: u64,
        on_event: &mut dyn FnMut(Progress),
    ) -> AdaptiveResult {
        let start = Instant::now();
        let graphs: Vec<&LayoutGraph> = prep.units.iter().map(|u| &u.hetero).collect();
        if graphs.is_empty() {
            return RunState::default().finish(prep, &self.fw.params, start);
        }
        let total = policy.total_budget();
        let routing = self.shared.map(|s| &s.routing);
        let mut st = self
            .fw
            .route(&graphs, &total, self.heads, routing, draw, threads);
        on_event(Progress::Routed {
            units: graphs.len(),
            matched: st.usage.matching,
            colorgnn: st.usage.colorgnn,
            routing_memo_hits: st.inference.shared_memo_hits,
        });
        let open: Vec<usize> = (0..graphs.len())
            .filter(|&i| st.results[i].is_none())
            .collect();
        let (groups, labels) = iso_groups(&graphs, &open, &st.rep_slot, &st.ec_first);
        let mut tail = Tail {
            exec: self,
            graphs: &graphs,
            labels: &labels,
            policy,
            total: &total,
            threads,
            journal: recovery.journal,
            st: &mut st,
            on_event,
            direct: Vec::new(),
        };
        if let Some(journal) = recovery.journal {
            tail.resume(journal, &open);
        }
        // Representatives (and, through them, their groups), then the
        // members no transfer could answer, each as its own group.
        tail.answer(groups.iter().map(Vec::as_slice).collect());
        let direct = std::mem::take(&mut tail.direct);
        tail.answer(direct.iter().map(std::slice::from_ref).collect());
        if let Some(journal) = recovery.journal {
            journal.writer.flush();
        }
        st.finish(prep, &self.fw.params, start)
    }

    /// The published solve of a graph identical to `g`, if any.
    fn cached(&self, g: &LayoutGraph, ec_first: bool) -> Option<Arc<CachedSolve>> {
        self.shared?.solutions[usize::from(ec_first)].get(g)
    }

    /// Publishes one fresh deterministic direct solve to the solution
    /// cache and the persistent store (write-behind).
    fn publish(&self, g: &LayoutGraph, ec_first: bool, d: &Decomposition, engine: EngineKind) {
        let Some(shared) = self.shared else { return };
        shared.solutions[usize::from(ec_first)].insert(
            g,
            Arc::new(CachedSolve {
                d: d.clone(),
                engine,
            }),
        );
        if let Some(store) = &shared.store {
            store.writer.append_solve(&mpld_store::StoredSolve {
                graph: g.clone(),
                ec_first,
                engine: tail_engine(engine),
                certainty: d.certainty,
                coloring: d.coloring.clone(),
                cost: d.cost,
            });
        }
    }
}

/// Where a tail unit's answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// An audited job-journal record.
    Journal,
    /// A solution-cache hit or an isomorphism-memo transfer.
    Reused,
    /// A guarded solve run for this request.
    Solved,
}

/// The ILP/EC tail of one run. Every method runs on the calling thread;
/// only the guarded solves go out to workers.
struct Tail<'a, 'e> {
    exec: &'a Executor<'e>,
    graphs: &'a [&'a LayoutGraph],
    /// Canonical labelings from [`iso_groups`].
    labels: &'a [Option<Vec<u8>>],
    policy: &'a BudgetPolicy,
    total: &'a Budget,
    threads: usize,
    journal: Option<&'a Journal>,
    st: &'a mut RunState,
    on_event: &'a mut dyn FnMut(Progress),
    /// Group members no transfer could answer.
    direct: Vec<usize>,
}

impl Tail<'_, '_> {
    /// Restores the open units whose journal records survive the audit
    /// (fingerprint match, valid coloring, recorded cost equal to the
    /// from-scratch recomputation).
    fn resume(&mut self, journal: &Journal, open: &[usize]) {
        for &i in open {
            let g = self.graphs[i];
            let Some(e) = journal.get(i, graph_fingerprint(g)) else {
                continue;
            };
            match audit_coloring(g, &e.coloring, self.exec.fw.params.k) {
                Ok(recomputed) if recomputed == e.cost => {}
                _ => continue,
            }
            let d = Decomposition {
                coloring: e.coloring.clone(),
                cost: e.cost,
                certainty: e.certainty,
            };
            self.st.resumed_units += 1;
            self.settle(
                i,
                d,
                engine_kind(e.engine),
                e.budget_fallback,
                Source::Journal,
            );
        }
    }

    /// Answers every group's representative — restored, cached, or
    /// solved fresh on the session's workers, largest first — and
    /// transfers each result to its group as it completes.
    fn answer(&mut self, groups: Vec<&[usize]>) {
        let mut pending: Vec<&[usize]> = Vec::new();
        for members in groups {
            let rep = members[0];
            if self.st.results[rep].is_none() {
                let Some(hit) = self.exec.cached(self.graphs[rep], self.st.ec_first[rep]) else {
                    pending.push(members);
                    continue;
                };
                self.st.memo_hits += 1;
                self.settle(rep, hit.d.clone(), hit.engine, false, Source::Reused);
            }
            self.transfer(members);
        }

        // Fresh solves. Each worker anchors the per-unit budget when it
        // picks the unit up and runs the fault-isolated guarded solve (so
        // the job itself never fails); should a job still panic, the
        // quarantining scheduler costs exactly that unit.
        let (fw, graphs, policy, total) = (self.exec.fw, self.graphs, self.policy, self.total);
        let reps: Vec<(usize, bool)> = pending
            .iter()
            .map(|m| (m[0], self.st.ec_first[m[0]]))
            .collect();
        run_largest_first_streaming(
            reps.len(),
            self.threads,
            |j| graphs[reps[j].0].num_nodes(),
            |j| {
                let (i, ec_first) = reps[j];
                let mut t = TimingBreakdown::default();
                let unit_budget = policy.unit_budget(total);
                let s = fw.solve_tail_guarded(i, graphs[i], ec_first, &unit_budget, &mut t);
                (s, t)
            },
            |j, solved| {
                let (i, ec_first) = reps[j];
                self.solved(i, ec_first, solved);
                self.transfer(pending[j]);
            },
        );
    }

    /// Records one fresh solve of representative `i` and publishes it
    /// when it is deterministic: a budget-cut, audit-rejected, or
    /// quarantined result depends on this request's deadline or failure,
    /// not on the graph alone, and must not be replayed for others.
    fn solved(
        &mut self,
        i: usize,
        ec_first: bool,
        solved: Result<(UnitSolve, TimingBreakdown), String>,
    ) {
        // Second line of defense: should the worker job itself panic, the
        // unit is quarantined like a panicking solve.
        let (s, t) = solved.unwrap_or_else(|payload| {
            let fw = self.exec.fw;
            let s = fw.quarantined(i, self.graphs[i], ec_first, payload);
            (s, TimingBreakdown::default())
        });
        self.st.timing.ilp += t.ilp;
        self.st.timing.ec += t.ec;
        self.st.time[i] = t.ilp + t.ec;
        self.st.audit_rejected[i] |= s.audit_rejected;
        let deterministic = s.quarantine.is_none()
            && !s.budget_fallback
            && !s.audit_rejected
            && matches!(s.d.certainty, Certainty::Certified | Certainty::Heuristic);
        if deterministic {
            self.exec.publish(self.graphs[i], ec_first, &s.d, s.engine);
        }
        if let Some(q) = s.quarantine {
            self.st.quarantines.push((i, q));
        }
        self.settle(i, s.d, s.engine, s.budget_fallback, Source::Solved);
    }

    /// Transfers the representative's result to the still-open members
    /// of its group through the shared canonical labeling, re-verifying
    /// each against the member's own cost. A degraded representative
    /// must not spread its fallback coloring, and a failed check (a
    /// corrupted transfer) is not trusted: those members get a direct
    /// answer instead.
    fn transfer(&mut self, members: &[usize]) {
        let rep = members[0];
        let open: Vec<usize> = members[1..]
            .iter()
            .copied()
            .filter(|&m| self.st.results[m].is_none())
            .collect();
        if open.is_empty() {
            return;
        }
        let (Some(d), Some(engine)) = (self.st.results[rep].clone(), self.st.engines[rep]) else {
            return;
        };
        let fell_back = self.st.budget_fallback[rep];
        for m in open {
            if d.certainty == Certainty::Degraded {
                self.direct.push(m);
                continue;
            }
            #[cfg_attr(not(feature = "failpoints"), allow(unused_mut))]
            let mut coloring: Vec<u8> = match (&self.labels[rep], &self.labels[m]) {
                (Some(rep_perm), Some(mem_perm)) => {
                    let mut canon = vec![0u8; d.coloring.len()];
                    for (v, &c) in d.coloring.iter().enumerate() {
                        canon[rep_perm[v] as usize] = c;
                    }
                    mem_perm.iter().map(|&p| canon[p as usize]).collect()
                }
                _ => d.coloring.clone(),
            };
            #[cfg(feature = "failpoints")]
            mpld_graph::failpoints::corrupt_coloring(
                "memo.transfer",
                &mut coloring,
                self.exec.fw.params.k,
            );
            let cost = self.graphs[m].evaluate(&coloring, self.exec.fw.params.alpha);
            if cost == d.cost {
                let md = Decomposition {
                    coloring,
                    cost,
                    certainty: d.certainty,
                };
                self.st.memo_hits += 1;
                self.settle(m, md, engine, fell_back, Source::Reused);
            } else {
                self.st.audit_rejected[m] = true;
                self.direct.push(m);
            }
        }
    }

    /// Records tail unit `i`'s answer and tells the observers: the
    /// journal (unless the answer came from it) and the progress stream.
    fn settle(
        &mut self,
        i: usize,
        d: Decomposition,
        engine: EngineKind,
        budget_fallback: bool,
        source: Source,
    ) {
        if let Some(journal) = self.journal.filter(|_| source != Source::Journal) {
            // Best effort: a failed write is a lost checkpoint, never a
            // failed solve.
            journal.writer.append_unit(&UnitRecord {
                unit: i,
                fingerprint: graph_fingerprint(self.graphs[i]),
                engine: tail_engine(engine),
                certainty: d.certainty,
                budget_fallback,
                coloring: d.coloring.clone(),
                cost: d.cost,
            });
        }
        (self.on_event)(Progress::Unit {
            index: i,
            engine,
            certainty: d.certainty,
            cached: source != Source::Solved,
        });
        self.st.results[i] = Some(d);
        self.st.engines[i] = Some(engine);
        self.st.budget_fallback[i] = budget_fallback;
    }
}

/// Request-local isomorphism groups over the tail units: each lists its
/// members in unit order (the first is the representative); units
/// without an isomorphic partner form singleton groups. Units with the
/// same routing representative (`rep_slot`: identical graphs, which
/// always share a tail flag) always group (any size); distinct graphs of
/// at most [`MEMO_MAX_NODES`] nodes group by canonical certificate. A
/// cheap structural fingerprint goes first — isomorphic graphs always
/// share it — so canonicalization is only paid, once per distinct graph,
/// where fingerprints collide. Also returns the canonical labeling of
/// every canonically grouped unit (indexed by unit), which realizes the
/// transfers; members of an unlabeled group are identical graphs.
fn iso_groups(
    graphs: &[&LayoutGraph],
    tail: &[usize],
    rep_slot: &[usize],
    ec_first: &[bool],
) -> (Vec<Vec<usize>>, Vec<Option<Vec<u8>>>) {
    let mut class_of: Vec<Option<usize>> = vec![None; graphs.len()];
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for &i in tail {
        let c = *class_of[rep_slot[i]].get_or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[c].push(i);
    }

    let mut finger: HashMap<(usize, usize, Vec<u8>, bool), Vec<usize>> = HashMap::new();
    for (c, members) in classes.iter().enumerate() {
        let (i, g) = (members[0], graphs[members[0]]);
        if g.num_nodes() <= MEMO_MAX_NODES {
            let mut degs: Vec<u8> = (0..g.num_nodes() as u32)
                .map(|v| (g.conflict_degree(v) as u8) << 4 | g.stitch_neighbors(v).len() as u8)
                .collect();
            degs.sort_unstable();
            let key = (
                g.conflict_edges().len(),
                g.stitch_edges().len(),
                degs,
                ec_first[i],
            );
            finger.entry(key).or_default().push(c);
        }
    }
    let mut labels: Vec<Option<Vec<u8>>> = vec![None; graphs.len()];
    let mut merged: HashMap<(CanonicalForm, bool), Vec<usize>> = HashMap::new();
    let mut absorbed = vec![false; classes.len()];
    for bucket in finger.into_values().filter(|b| b.len() > 1) {
        for c in bucket {
            let rep = classes[c][0];
            let (form, perm) = canonical_form_labeled(graphs[rep]);
            for &i in &classes[c] {
                labels[i] = Some(perm.clone());
            }
            merged
                .entry((form, ec_first[rep]))
                .or_default()
                .extend(&classes[c]);
            absorbed[c] = true;
        }
    }

    let mut groups: Vec<Vec<usize>> = classes
        .into_iter()
        .zip(absorbed)
        .filter_map(|(members, absorbed)| (!absorbed).then_some(members))
        .collect();
    groups.extend(merged.into_values().map(|mut members| {
        members.sort_unstable();
        members
    }));
    groups.sort_by_key(|members| members[0]);
    (groups, labels)
}

/// The persisted name of a tail unit's engine: only the two exact
/// engines answer the ILP/EC tail.
fn tail_engine(engine: EngineKind) -> TailEngine {
    match engine {
        EngineKind::Ilp => TailEngine::Ilp,
        _ => TailEngine::Ec,
    }
}

fn engine_kind(engine: TailEngine) -> EngineKind {
    match engine {
        TailEngine::Ilp => EngineKind::Ilp,
        TailEngine::Ec => EngineKind::Ec,
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("framework", &self.fw)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        // Sessions move into worker threads (one per request).
        fn assert_send<T: Send>() {}
        assert_send::<Session<'static>>();
    }
}

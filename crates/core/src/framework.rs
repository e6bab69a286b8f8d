//! The adaptive decomposition framework (Fig. 7 of the paper).
//!
//! Per simplified unit graph, the online flow is:
//!
//! 1. **Graph matching** — small graphs are matched against the
//!    isomorphism-free library; hits return the stored optimal coloring.
//! 2. **Stitch redundancy prediction** — `RGCN_r` predicts whether all
//!    stitch candidates are redundant; above the confidence bar the stitch
//!    edges are merged and the non-stitch parent graph goes to ColorGNN.
//! 3. **Decomposer selection** — otherwise the selector RGCN routes the
//!    graph to the exact ILP engine or the fast EC engine.
//!
//! Steps 1–2 and the selector run batched over all units
//! ([`AdaptiveFramework::route`]); the ILP/EC tail of step 3 runs in the
//! one tail executor of [`crate::engine`], behind every entry point.
//!
//! Runtime is accounted per category so Fig. 9 (runtime breakdown) and
//! Fig. 10 (usage breakdown) can be reproduced.

use crate::checkpoint::{Checkpoint, JournalWriter};
use crate::engine::{Executor, Heads, RoutingEntry, RunState, SharedRoutingMemo};
use crate::memo::{BatchPlan, EmbeddingMemo, DEFAULT_MAX_BATCH_NODES};
use crate::parallel::panic_payload_string;
use crate::pipeline::{PipelineResult, PreparedLayout};
use mpld_ec::EcDecomposer;
use mpld_gnn::{ColorGnn, InferBatch, RgcnClassifier};
use mpld_graph::{
    audit_decomposition, greedy_coloring, Budget, CancelToken, Certainty, Clock, DecomposeParams,
    Decomposer, Decomposition, LayoutGraph, MpldError, SystemClock,
};
use mpld_ilp::encode::BipDecomposer;
use mpld_matching::GraphLibrary;
use rand::rngs::SmallRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock limits for one adaptive decomposition run.
///
/// `total` bounds the whole run; `per_unit` additionally bounds each
/// unit's exact-solver time (each unit still gets at most the remaining
/// layout-wide budget). `cancel` aborts cooperatively from another
/// thread. `clock` overrides the time source (a
/// [`MockClock`](mpld_graph::MockClock) makes timeout tests
/// deterministic); `None` uses real wall-clock time.
///
/// The default policy is unlimited, and an unlimited policy is guaranteed
/// to produce bit-identical results to the budget-free code path.
#[derive(Debug, Clone, Default)]
pub struct BudgetPolicy {
    /// Layout-wide wall-clock limit.
    pub total: Option<Duration>,
    /// Per-unit wall-clock limit for the exact ILP/EC tail.
    pub per_unit: Option<Duration>,
    /// Cooperative cancellation shared with the caller.
    pub cancel: Option<CancelToken>,
    /// Time source; `None` means a fresh [`SystemClock`].
    pub clock: Option<Arc<dyn Clock>>,
}

impl BudgetPolicy {
    /// No limits.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Whether no limit of any kind is configured.
    pub fn is_unlimited(&self) -> bool {
        self.total.is_none() && self.per_unit.is_none() && self.cancel.is_none()
    }

    /// The layout-wide budget this policy describes, anchored at "now" on
    /// the policy's clock.
    pub(crate) fn total_budget(&self) -> Budget {
        if self.is_unlimited() {
            return Budget::unlimited();
        }
        let clock: Arc<dyn Clock> = self
            .clock
            .clone()
            .unwrap_or_else(|| Arc::new(SystemClock::new()));
        let mut b = match self.total {
            Some(limit) => Budget::with_deadline_on(clock, limit),
            None => Budget::on_clock(clock),
        };
        if let Some(t) = &self.cancel {
            b = b.and_cancel(t.clone());
        }
        b
    }

    /// The budget for one unit solve starting now: the per-unit limit
    /// narrowed against whatever remains of `total`.
    pub(crate) fn unit_budget(&self, total: &Budget) -> Budget {
        match self.per_unit {
            Some(limit) => total.narrowed(Some(limit), None),
            None => total.clone(),
        }
    }
}

/// Per-unit record of how a unit was decomposed (tentpole stats: solver
/// used, certification, budget effects, exact-solver time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitOutcome {
    /// Engine whose coloring was kept.
    pub engine: EngineKind,
    /// How much that engine vouches for the result.
    pub certainty: Certainty,
    /// Whether the exact path was cut short by the budget and a cheaper
    /// engine's (or unverified) result was used instead.
    pub budget_fallback: bool,
    /// Exact-solver (ILP + EC) time spent on this unit. Zero exactly for
    /// the units no solve ran for: matching, batched ColorGNN (accounted
    /// in [`TimingBreakdown`] only), checkpoint resume, solution-cache
    /// hit, or isomorphism-memo transfer.
    pub time: Duration,
    /// Whether the independent audit rejected at least one candidate
    /// result for this unit (the kept result is the re-routed recovery).
    pub audit_rejected: bool,
}

/// Aggregate budget statistics over one adaptive run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetBreakdown {
    /// Units whose result carries an optimality certificate.
    pub certified: usize,
    /// Units resolved heuristically (ColorGNN / uncertified EC).
    pub heuristic: usize,
    /// Units whose search was cut short by the budget (best-so-far
    /// incumbent kept).
    pub budget_exhausted: usize,
    /// Units that fell back to a cheaper engine (or skipped exact
    /// verification) because the budget expired mid-solve.
    pub budget_fallbacks: usize,
    /// Units quarantined with a greedy-fallback coloring after their
    /// routed engine panicked or kept failing the independent audit
    /// ([`Certainty::Degraded`]).
    pub quarantined: usize,
    /// Units for which the independent audit rejected at least one
    /// candidate result (the kept result is the re-routed recovery).
    pub audit_rejections: usize,
}

impl BudgetBreakdown {
    pub(crate) fn from_outcomes(outcomes: &[UnitOutcome]) -> Self {
        let mut b = BudgetBreakdown::default();
        for o in outcomes {
            match o.certainty {
                Certainty::Certified => b.certified += 1,
                Certainty::Heuristic => b.heuristic += 1,
                Certainty::BudgetExhausted => b.budget_exhausted += 1,
                Certainty::Degraded => b.quarantined += 1,
            }
            if o.budget_fallback {
                b.budget_fallbacks += 1;
            }
            if o.audit_rejected {
                b.audit_rejections += 1;
            }
        }
        b
    }
}

/// Statistics of the tape-free routing-inference engine for one adaptive
/// run: how much work the embedding memo deduplicated away and how much
/// scratch memory the frozen forwards touched. (Tail reuse — cache hits
/// plus isomorphism-memo transfers — is [`AdaptiveResult::memo_hits`].)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferenceStats {
    /// Units whose selector/redundancy inference was served from the
    /// embedding memo (structurally identical to an earlier unit of the
    /// same layout) instead of a fresh forward pass.
    pub memo_hits: usize,
    /// Distinct representative units actually run through the frozen
    /// RGCN forwards (`memo_hits + shared_memo_hits + units_inferred` =
    /// total units).
    pub units_inferred: usize,
    /// Representatives served bit-identically from the engine's
    /// cross-request routing memo instead of a fresh forward pass.
    /// Always zero on the per-request framework entry points; only the
    /// shared [`Engine`](crate::Engine) path populates it.
    pub shared_memo_hits: usize,
    /// High-water mark of frozen scratch-buffer bytes across both RGCN
    /// heads (the steady-state inference memory footprint).
    pub scratch_high_water_bytes: usize,
    /// Inference batches the bucketed planner emitted.
    pub batches_planned: usize,
    /// Estimated transient backbone scratch (bytes) of the single-union
    /// batch the planner replaced.
    pub padding_waste_before_bytes: usize,
    /// Estimated transient backbone scratch (bytes) of the largest batch
    /// actually run under the plan.
    pub padding_waste_after_bytes: usize,
}

/// Which engine decomposed a unit (for Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Library graph matching.
    Matching,
    /// The non-stitch GNN decomposer.
    ColorGnn,
    /// Exact ILP.
    Ilp,
    /// Exact cover.
    Ec,
}

/// Usage counts per engine (Fig. 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageBreakdown {
    /// Units decomposed by library matching.
    pub matching: usize,
    /// Units decomposed by ColorGNN.
    pub colorgnn: usize,
    /// Units decomposed by ILP.
    pub ilp: usize,
    /// Units decomposed by EC.
    pub ec: usize,
    /// ColorGNN attempts that left conflicts and fell back to ILP/EC
    /// (engineering guard, documented in DESIGN.md; counted under the
    /// engine that produced the final result).
    pub colorgnn_fallbacks: usize,
}

/// Cumulative runtime per category (Fig. 9).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingBreakdown {
    /// Embedding + library matching time.
    pub matching: Duration,
    /// Selector inference time.
    pub selection: Duration,
    /// Redundancy-prediction inference time.
    pub redundancy: Duration,
    /// ColorGNN decomposition time.
    pub colorgnn: Duration,
    /// ILP decomposition time.
    pub ilp: Duration,
    /// EC decomposition time.
    pub ec: Duration,
}

impl TimingBreakdown {
    /// Total accounted runtime.
    pub fn total(&self) -> Duration {
        self.matching + self.selection + self.redundancy + self.colorgnn + self.ilp + self.ec
    }
}

/// Result of adaptively decomposing one prepared layout.
#[derive(Debug)]
pub struct AdaptiveResult {
    /// The standard pipeline result (cost, coloring, pure decompose time).
    pub pipeline: PipelineResult,
    /// Engine usage counts.
    pub usage: UsageBreakdown,
    /// Runtime per category.
    pub timing: TimingBreakdown,
    /// Which engine handled each unit.
    pub unit_engines: Vec<EngineKind>,
    /// ILP/EC-tail units answered without a solve: engine solution-cache
    /// hits plus transfers from an isomorphic unit of the same request.
    pub memo_hits: usize,
    /// Routing-inference statistics (embedding memo, frozen scratch).
    pub inference: InferenceStats,
    /// Per-unit outcome records, parallel to `unit_engines`.
    pub unit_outcomes: Vec<UnitOutcome>,
    /// Aggregate budget statistics derived from `unit_outcomes`.
    pub budget: BudgetBreakdown,
    /// Units whose routed solve panicked or errored and were quarantined
    /// with a greedy-fallback coloring: `(unit index, recorded fault)`.
    pub quarantines: Vec<(usize, MpldError)>,
    /// ILP/EC-tail units restored from a checkpoint journal instead of
    /// being re-solved (see [`Recovery`]).
    pub resumed_units: usize,
}

/// Checkpoint hookup for
/// [`AdaptiveFramework::decompose_prepared_parallel_recoverable`]: an
/// optional journal of a previous (killed) run to resume from, and an
/// optional writer recording this run's ILP/EC-tail solves as they
/// complete.
///
/// Resumed entries are never trusted blindly: each one is audited against
/// the present unit graph (structural fingerprint, coloring validity, and
/// recorded-vs-recomputed cost) and silently re-solved on any mismatch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Recovery<'a> {
    /// Journal of a previous run to resume from.
    pub resume: Option<&'a Checkpoint>,
    /// Journal writer for this run's tail solves.
    pub journal: Option<&'a JournalWriter>,
}

/// One guarded ILP/EC-tail solve: the kept decomposition plus the fault
/// bookkeeping the framework folds into the layout-level result.
pub(crate) struct UnitSolve {
    pub(crate) d: Decomposition,
    pub(crate) engine: EngineKind,
    pub(crate) budget_fallback: bool,
    pub(crate) audit_rejected: bool,
    pub(crate) quarantine: Option<MpldError>,
}

/// The trained adaptive framework (see module docs).
pub struct AdaptiveFramework {
    /// Selector RGCN (`RGCN` in the paper).
    pub selector: RgcnClassifier,
    /// Stitch-redundancy RGCN (`RGCN_r`).
    pub redundancy: RgcnClassifier,
    /// The non-stitch GNN decomposer.
    pub colorgnn: ColorGnn,
    /// The isomorphism-free graph library.
    pub library: GraphLibrary,
    /// Exact engine — the same faithful Eq. (3) ILP used as the baseline
    /// column in Tables IV/V, so the framework's speedup comes from
    /// *routing*, not from a faster exact solver.
    pub ilp: BipDecomposer,
    /// Fast engine.
    pub ec: EcDecomposer,
    /// Decomposition parameters (k, alpha).
    pub params: DecomposeParams,
    /// Confidence bar `b` for redundancy prediction (paper: 0.99).
    pub redundancy_bar: f32,
    /// Minimum selector confidence required to route a graph to the
    /// (fast but possibly suboptimal) EC engine (default 0.9); below it the exact ILP
    /// runs. Mirrors the paper's emphasis on perfect ILP recall.
    pub ec_threshold: f32,
    /// Whether ColorGNN is enabled ("Ours w. GNN" vs plain "Ours").
    pub use_colorgnn: bool,
}

impl AdaptiveFramework {
    /// Exact-or-certified decomposition of one unit: when `ec_first`, run
    /// the fast EC engine and accept its result only when it carries an
    /// optimality certificate (see `EcDecomposer::decompose_certified`).
    /// Everything else is decided by (or verified against) the exact ILP.
    /// This is the structural version of the paper's 100%-ILP-recall
    /// selector.
    ///
    /// Anytime behavior under `budget`: if the exact ILP runs out of
    /// budget it returns its incumbent, and the framework falls back to
    /// the next-cheapest engine (EC's greedy + repair phase runs even on
    /// an expired budget) keeping whichever result is cheaper. The third
    /// tuple element reports whether such a budget fallback occurred.
    fn decompose_with_selection(
        &self,
        g: &LayoutGraph,
        ec_first: bool,
        budget: &Budget,
        timing: &mut TimingBreakdown,
    ) -> Result<(Decomposition, EngineKind, bool), MpldError> {
        if ec_first {
            let t = Instant::now();
            let (d, certified) = self.ec.decompose_certified(g, &self.params, budget)?;
            timing.ec += t.elapsed();
            if certified {
                return Ok((d, EngineKind::Ec, false));
            }
            if budget.exhausted() {
                // No budget left for exact verification: keep the EC
                // incumbent, flagged as budget-limited.
                return Ok((
                    d.with_certainty(Certainty::BudgetExhausted),
                    EngineKind::Ec,
                    true,
                ));
            }
            // Verify the uncertified EC result against the exact ILP with
            // the EC cost as the branch-and-bound's starting incumbent:
            // `None` proves the EC result optimal without the cold search
            // ever having to rediscover a solution of that quality.
            let t = Instant::now();
            let (exact, ilp_exhausted) =
                self.ilp
                    .decompose_below_within(g, &self.params, &d.cost, budget);
            timing.ilp += t.elapsed();
            if let Some(exact) = exact {
                if exact.cost.better_than(&d.cost, self.params.alpha) {
                    return Ok((exact, EngineKind::Ilp, ilp_exhausted));
                }
            }
            // An exhausted verification proves nothing: the EC result
            // stands but without a certificate.
            let d = if ilp_exhausted {
                d.with_certainty(Certainty::BudgetExhausted)
            } else {
                d
            };
            Ok((d, EngineKind::Ec, ilp_exhausted))
        } else {
            let t = Instant::now();
            let d = self.ilp.decompose(g, &self.params, budget)?;
            timing.ilp += t.elapsed();
            if d.certainty != Certainty::BudgetExhausted {
                return Ok((d, EngineKind::Ilp, false));
            }
            // The exact solver timed out on its incumbent: fall back to
            // the next-cheapest engine and keep the better coloring.
            let t = Instant::now();
            let fallback = self.ec.decompose_certified(g, &self.params, budget);
            timing.ec += t.elapsed();
            match fallback {
                Ok((e, _)) if e.cost.better_than(&d.cost, self.params.alpha) => Ok((
                    e.with_certainty(Certainty::BudgetExhausted),
                    EngineKind::Ec,
                    true,
                )),
                _ => Ok((d, EngineKind::Ilp, true)),
            }
        }
    }

    /// Whether `d`'s coloring and claimed cost survive the independent
    /// audit (`mpld_graph::audit`, a from-scratch Eq. (1) recomputation
    /// against the unsimplified unit graph).
    fn audit_ok(&self, g: &LayoutGraph, d: &Decomposition) -> bool {
        audit_decomposition(g, d, self.params.k).is_ok()
    }

    /// The quarantine fallback: a greedy coloring tagged
    /// [`Certainty::Degraded`]. Always valid, never trusted for quality.
    fn greedy_degraded(&self, g: &LayoutGraph) -> Decomposition {
        Decomposition::from_coloring(g, greedy_coloring(g, self.params.k), self.params.alpha)
            .with_certainty(Certainty::Degraded)
    }

    /// Panic-guarded run of the exact ILP, used as the most-trusted rung
    /// of the degradation ladder. Returns `None` when the ILP itself
    /// panics, errors, or produces a result the audit rejects.
    fn ilp_retry_guarded(
        &self,
        g: &LayoutGraph,
        budget: &Budget,
        timing: &mut TimingBreakdown,
    ) -> Option<Decomposition> {
        let t = Instant::now();
        let retried = catch_unwind(AssertUnwindSafe(|| {
            self.ilp.decompose(g, &self.params, budget)
        }));
        timing.ilp += t.elapsed();
        match retried {
            Ok(Ok(d)) if self.audit_ok(g, &d) => Some(d),
            _ => None,
        }
    }

    /// Folds one tail-solve attempt through the degradation ladder:
    /// audit-clean results pass through; audit-rejected or errored results
    /// are re-routed to the most-trusted engine (the exact ILP, itself
    /// guarded and audited); and when even that fails the unit is
    /// quarantined with a greedy [`Certainty::Degraded`] coloring. Never
    /// fails: every unit always receives a full valid coloring.
    fn audited_tail_result(
        &self,
        g: &LayoutGraph,
        attempt: Result<(Decomposition, EngineKind, bool), MpldError>,
        budget: &Budget,
        timing: &mut TimingBreakdown,
    ) -> UnitSolve {
        let (engine, budget_fallback, quarantine) = match attempt {
            Ok((d, engine, budget_fallback)) if self.audit_ok(g, &d) => {
                return UnitSolve {
                    d,
                    engine,
                    budget_fallback,
                    audit_rejected: false,
                    quarantine: None,
                };
            }
            Ok((_, engine, budget_fallback)) => (engine, budget_fallback, None),
            Err(e) => (EngineKind::Ilp, false, Some(e)),
        };
        // An errored attempt is re-run on the ILP too; an audit-rejected
        // ILP result is not retried on the same engine.
        let audit_rejected = quarantine.is_none();
        if engine != EngineKind::Ilp || !audit_rejected {
            if let Some(d) = self.ilp_retry_guarded(g, budget, timing) {
                return UnitSolve {
                    d,
                    engine: EngineKind::Ilp,
                    budget_fallback,
                    audit_rejected,
                    quarantine: None,
                };
            }
        }
        UnitSolve {
            d: self.greedy_degraded(g),
            engine,
            budget_fallback,
            audit_rejected,
            quarantine,
        }
    }

    /// Fault-isolated ILP/EC-tail solve for one unit: runs
    /// [`AdaptiveFramework::decompose_with_selection`] under
    /// `catch_unwind`, converting a panic into an
    /// [`MpldError::Panicked`] quarantine, and passes everything else
    /// through the audit ladder ([`AdaptiveFramework::audited_tail_result`]).
    pub(crate) fn solve_tail_guarded(
        &self,
        unit: usize,
        g: &LayoutGraph,
        ec_first: bool,
        budget: &Budget,
        timing: &mut TimingBreakdown,
    ) -> UnitSolve {
        let attempt = {
            let timing = &mut *timing;
            catch_unwind(AssertUnwindSafe(move || {
                self.decompose_with_selection(g, ec_first, budget, timing)
            }))
        };
        match attempt {
            Ok(r) => self.audited_tail_result(g, r, budget, timing),
            Err(p) => self.quarantined(unit, g, ec_first, panic_payload_string(p.as_ref())),
        }
    }

    /// A tail solve that panicked: quarantined with a greedy
    /// [`Certainty::Degraded`] coloring under its routed engine.
    pub(crate) fn quarantined(
        &self,
        unit: usize,
        g: &LayoutGraph,
        ec_first: bool,
        payload: String,
    ) -> UnitSolve {
        UnitSolve {
            d: self.greedy_degraded(g),
            engine: if ec_first {
                EngineKind::Ec
            } else {
                EngineKind::Ilp
            },
            budget_fallback: false,
            audit_rejected: false,
            quarantine: Some(MpldError::Panicked { unit, payload }),
        }
    }

    /// The batched routing prefix of every decomposition: one selector
    /// pass (embeddings + ILP/EC probabilities) and one redundancy pass
    /// over the structurally distinct units, audited library matching
    /// with the precomputed embeddings, and one ColorGNN batch over the
    /// predicted-redundant units, sampled from `rng`. Returns the run
    /// state with the ILP/EC tail still unsolved (`results[i] == None`)
    /// and every unit's tail routing flag set.
    ///
    /// `heads` may be frozen once (an [`Engine`](crate::Engine)) or per
    /// call: the weight fold is deterministic, so outputs are bitwise
    /// equal. `routing_memo` is an engine's cross-request routing memo.
    pub(crate) fn route(
        &self,
        graphs: &[&LayoutGraph],
        budget: &Budget,
        heads: &Heads,
        routing_memo: Option<&SharedRoutingMemo>,
        rng: &mut SmallRng,
    ) -> RunState {
        let n = graphs.len();
        let mut timing = TimingBreakdown::default();
        let frozen_sel = &heads.sel;
        let frozen_red = &heads.red;

        // Tape-free routing inference: dedup structurally identical units
        // through the embedding memo and run bucketed block-diagonal
        // frozen passes per head over the representatives only. Frozen
        // f32 forwards are bit-identical to the tape (property-tested in
        // `mpld-gnn`), and a verified memo hit means the *same graph*, so
        // every probability and embedding a duplicate receives is exactly
        // what its own forward pass would have produced.
        let t = Instant::now();
        let mut memo = EmbeddingMemo::new();
        let mut rep_slot = Vec::with_capacity(n);
        let mut reps: Vec<&LayoutGraph> = Vec::new();
        for &g in graphs {
            rep_slot.push(match memo.find(g) {
                Some(slot) => slot,
                None => {
                    memo.insert(g, reps.len());
                    reps.push(g);
                    reps.len() - 1
                }
            });
        }
        let nr = reps.len();

        // Cross-request routing memo (engine path only): a representative
        // whose exact structure was routed by an earlier request reuses
        // that request's probabilities and embeddings verbatim. This is
        // bit-safe because per-graph frozen outputs are independent of
        // batch composition (property-tested in `mpld-gnn`), so the
        // cached entry is bitwise what this request's own forward pass
        // would have produced.
        let cached: Vec<Option<Arc<RoutingEntry>>> = match routing_memo {
            Some(shared) => reps.iter().map(|g| shared.get(g)).collect(),
            None => vec![None; nr],
        };
        let shared_hits = cached.iter().filter(|c| c.is_some()).count();

        // Memo-served representatives skip inference entirely.
        let items: Vec<usize> = (0..nr).filter(|&s| cached[s].is_none()).collect();

        // Bucketed batch plan: similarly-sized graphs share a batch,
        // several tightly-packed batches replace the old single union
        // batch, and the peak transient scratch drops accordingly.
        let sizes: Vec<(usize, usize)> = reps
            .iter()
            .map(|g| {
                (
                    g.num_nodes(),
                    g.conflict_edges().len() + g.stitch_edges().len(),
                )
            })
            .collect();
        let plan = BatchPlan::new(&items, &sizes, DEFAULT_MAX_BATCH_NODES);

        // Per-representative outputs, scattered batch by batch. One
        // selector pass yields probabilities plus the graph and node
        // embeddings the library matcher consumes below (the tape needed
        // a second traversal for the embeddings); the redundancy pass
        // yields probabilities only.
        let mut out: Vec<RoutingEntry> = cached
            .iter()
            .map(|c| c.as_deref().cloned().unwrap_or_default())
            .collect();
        timing.selection += t.elapsed();

        for batch in &plan.batches {
            let gs: Vec<&LayoutGraph> = batch.iter().map(|&s| reps[s]).collect();
            let enc = InferBatch::new(&gs);
            let t = Instant::now();
            let mut sel = frozen_sel.infer_encoded(&enc);
            for (bi, &s) in batch.iter().enumerate() {
                out[s].sel_probs = std::mem::take(&mut sel.probs[bi]);
                out[s].graph_emb = std::mem::take(&mut sel.graph_embeddings[bi]);
                out[s].node_emb = std::mem::take(&mut sel.node_embeddings[bi]);
            }
            timing.selection += t.elapsed();
            let t = Instant::now();
            let mut red = frozen_red.predict_encoded(&enc);
            for (bi, &s) in batch.iter().enumerate() {
                out[s].red_probs = std::mem::take(&mut red.probs[bi]);
            }
            timing.redundancy += t.elapsed();
        }

        // Publish freshly routed representatives for later requests.
        // Racing writers are harmless: identical structures produce
        // bitwise identical entries regardless of which request computed
        // them.
        if let Some(shared) = routing_memo {
            for &s in &items {
                shared.insert(reps[s], Arc::new(out[s].clone()));
            }
        }

        // Padding-waste accounting: transient backbone scratch scales
        // with batched nodes times the embedding width (input, aggregate
        // and output rows live concurrently).
        let per_node_bytes = 3 * 4 * frozen_sel.embedding_dim().max(1);
        let inference = InferenceStats {
            memo_hits: memo.hits(),
            shared_memo_hits: shared_hits,
            units_inferred: nr - shared_hits,
            scratch_high_water_bytes: frozen_sel
                .scratch_high_water_bytes()
                .max(frozen_red.scratch_high_water_bytes()),
            batches_planned: plan.batches.len(),
            padding_waste_before_bytes: plan.peak_nodes_before * per_node_bytes,
            padding_waste_after_bytes: plan.peak_nodes_after * per_node_bytes,
        };

        let mut usage = UsageBreakdown::default();
        let mut results: Vec<Option<Decomposition>> = vec![None; n];
        let mut engines = vec![None; n];
        let mut guard_failed = vec![false; n];
        let mut audit_rejected = vec![false; n];

        // 1. Library matching with the precomputed embeddings. Every hit
        // is audited; a stale or corrupted library transfer is rejected
        // and the unit falls through to the engines below.
        let t = Instant::now();
        for (i, g) in graphs.iter().enumerate() {
            if g.num_nodes() <= self.library.max_nodes() {
                let e = &out[rep_slot[i]];
                let hit = self
                    .library
                    .lookup_with_embeddings(g, &e.graph_emb, &e.node_emb);
                if let Some(d) = hit {
                    if self.audit_ok(g, &d) {
                        results[i] = Some(d);
                        engines[i] = Some(EngineKind::Matching);
                        usage.matching += 1;
                    } else {
                        audit_rejected[i] = true;
                    }
                }
            }
        }
        timing.matching += t.elapsed();

        // 2. Predicted-redundant units: merge stitches, batch ColorGNN.
        if self.use_colorgnn {
            let t = Instant::now();
            let mut idx = Vec::new();
            let mut parents = Vec::new();
            let mut maps = Vec::new();
            for (i, g) in graphs.iter().enumerate() {
                if results[i].is_some() || g.num_nodes() == 0 {
                    continue;
                }
                let redundant =
                    !g.has_stitches() || out[rep_slot[i]].red_probs[0] > self.redundancy_bar;
                if redundant {
                    let (parent, map) = g.merge_stitch_edges();
                    idx.push(i);
                    parents.push(parent);
                    maps.push(map);
                }
            }
            let parent_refs: Vec<&LayoutGraph> = parents.iter().collect();
            // Guarded: a panicking batch costs a guard fallback for every
            // batched unit, never the layout.
            // ColorGNN results are never cached across requests: the
            // restart sampler consumes an RNG stream, so the output is a
            // function of the driver's RNG state, not of the graph alone.
            let batch = catch_unwind(AssertUnwindSafe(|| {
                heads
                    .color
                    .decompose_batch_with_rng(&parent_refs, &self.params, budget, rng)
            }));
            match batch {
                Ok(batch) => {
                    for ((&i, pd), map) in idx.iter().zip(batch).zip(&maps) {
                        if pd.cost.conflicts == 0 {
                            let coloring: Vec<u8> =
                                map.iter().map(|&p| pd.coloring[p as usize]).collect();
                            match Decomposition::try_from_coloring(
                                graphs[i],
                                coloring,
                                self.params.alpha,
                            ) {
                                // An honest accepted expansion reproduces
                                // the parent cost bit-for-bit; anything
                                // else is an audit rejection.
                                Ok(d) if d.cost == pd.cost => {
                                    results[i] = Some(d);
                                    engines[i] = Some(EngineKind::ColorGnn);
                                    usage.colorgnn += 1;
                                }
                                _ => {
                                    usage.colorgnn_fallbacks += 1;
                                    guard_failed[i] = true;
                                    audit_rejected[i] = true;
                                }
                            }
                        } else {
                            usage.colorgnn_fallbacks += 1;
                            guard_failed[i] = true;
                        }
                    }
                }
                Err(_) => {
                    for &i in &idx {
                        usage.colorgnn_fallbacks += 1;
                        guard_failed[i] = true;
                    }
                }
            }
            timing.colorgnn += t.elapsed();
        }

        // The tail routing flag: ColorGNN guard failures and confident
        // selector calls go EC-first; everything else to the exact ILP.
        let ec_first = (0..n)
            .map(|i| guard_failed[i] || out[rep_slot[i]].sel_probs[1] > self.ec_threshold)
            .collect();
        RunState {
            time: vec![Duration::ZERO; n],
            budget_fallback: vec![false; n],
            results,
            engines,
            ec_first,
            audit_rejected,
            usage,
            timing,
            inference,
            ..RunState::default()
        }
    }

    /// Adaptively decomposes a prepared layout with batched GNN inference
    /// (the paper batches all simplified graphs for efficiency): one RGCN
    /// pass computes embeddings + selector probabilities for every unit,
    /// one `RGCN_r` pass the redundancy confidences, one batched ColorGNN
    /// run decomposes all predicted-redundant parent graphs, and the
    /// ILP/EC tail runs on the calling thread.
    pub fn decompose_prepared(&self, prep: &PreparedLayout) -> AdaptiveResult {
        unwrap_unlimited(self.decompose_prepared_with(prep, &BudgetPolicy::unlimited()))
    }

    /// Budgeted variant of [`AdaptiveFramework::decompose_prepared`].
    ///
    /// With an unlimited `policy` the result is bit-identical to
    /// [`AdaptiveFramework::decompose_prepared`]. Under a limit, units
    /// whose exact solver runs out of budget keep their best-so-far
    /// incumbent ([`Certainty::BudgetExhausted`]) or fall back to the
    /// next-cheapest engine; every unit still receives a full valid
    /// coloring.
    ///
    /// # Errors
    ///
    /// `Err` means an engine rejected its input outright (unsupported
    /// parameters, mismatched coloring); budget exhaustion is never an
    /// error.
    pub fn decompose_prepared_with(
        &self,
        prep: &PreparedLayout,
        policy: &BudgetPolicy,
    ) -> Result<AdaptiveResult, MpldError> {
        self.decompose_prepared_parallel_recoverable(prep, 1, policy, Recovery::default())
    }

    /// Like [`AdaptiveFramework::decompose_prepared`], but fans the
    /// ILP/EC tail out to `threads` workers scheduled largest-unit-first.
    /// Cost, usage, per-unit engines and colorings are identical for any
    /// thread count (see [`Engine`](crate::Engine) for the tail's source
    /// chain and its pure-function contract).
    ///
    /// Timing semantics: `timing.ilp`/`timing.ec` sum the *per-unit solver
    /// time* across workers (the paper's Fig. 9/Table V accounting), so
    /// they can exceed the wall-clock `pipeline.decompose_time`, which is
    /// reported separately.
    pub fn decompose_prepared_parallel(
        &self,
        prep: &PreparedLayout,
        threads: usize,
    ) -> AdaptiveResult {
        unwrap_unlimited(self.decompose_prepared_parallel_with(
            prep,
            threads,
            &BudgetPolicy::unlimited(),
        ))
    }

    /// Budgeted variant of
    /// [`AdaptiveFramework::decompose_prepared_parallel`]. Per-unit
    /// budgets are anchored when a worker *starts* a unit, so a per-unit
    /// limit bounds each solve regardless of queueing; the layout-wide
    /// deadline is shared by all workers.
    ///
    /// # Errors
    ///
    /// `Err` means an engine rejected its input outright; budget
    /// exhaustion is never an error.
    pub fn decompose_prepared_parallel_with(
        &self,
        prep: &PreparedLayout,
        threads: usize,
        policy: &BudgetPolicy,
    ) -> Result<AdaptiveResult, MpldError> {
        self.decompose_prepared_parallel_recoverable(prep, threads, policy, Recovery::default())
    }

    /// Crash-safe variant of
    /// [`AdaptiveFramework::decompose_prepared_parallel_with`]: with
    /// `recovery.journal` set, every ILP/EC-tail unit is appended to a
    /// truncation-tolerant JSONL journal as it completes; with
    /// `recovery.resume` set, units recorded in a previous run's journal
    /// are restored instead of re-solved (after each record passes the
    /// independent audit against the present unit graph).
    ///
    /// Every framework entry point lands here: the RGCN heads are frozen
    /// for this call, ColorGNN samples from the model's own RNG stream
    /// (so `colorgnn.reseed(s)` before the call equals an engine
    /// [`Session::new(s)`](crate::Session::new)), and the tail runs the
    /// engine's executor without a cross-request cache. The routing
    /// passes always re-run — they are deterministic given the stream —
    /// so a resumed run is bit-identical to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// `Err` means an engine rejected its input outright; budget
    /// exhaustion is never an error, and journal write failures are
    /// swallowed (a lost checkpoint, never a lost solve).
    pub fn decompose_prepared_parallel_recoverable(
        &self,
        prep: &PreparedLayout,
        threads: usize,
        policy: &BudgetPolicy,
        recovery: Recovery<'_>,
    ) -> Result<AdaptiveResult, MpldError> {
        let t = Instant::now();
        let heads = Heads::freeze(self);
        let frozen = t.elapsed();
        let mut rng = self.colorgnn.rng();
        let executor = Executor {
            fw: self,
            heads: &heads,
            shared: None,
        };
        let mut r = executor.run(prep, policy, recovery, threads, &mut rng, &mut |_| {});
        self.colorgnn.set_rng(rng);
        r.timing.selection += frozen;
        Ok(r)
    }
}

/// Propagates an impossible unlimited-budget error as a panic (the
/// infallible legacy entry points delegate through this).
fn unwrap_unlimited(r: Result<AdaptiveResult, MpldError>) -> AdaptiveResult {
    match r {
        Ok(res) => res,
        Err(e) => panic!("adaptive framework failed on an unlimited budget: {e}"),
    }
}

impl std::fmt::Debug for AdaptiveFramework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveFramework")
            .field("library_size", &self.library.len())
            .field("redundancy_bar", &self.redundancy_bar)
            .field("use_colorgnn", &self.use_colorgnn)
            .field("params", &self.params)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::prepare;
    use crate::training::{train_framework, OfflineConfig, TrainingData};
    use mpld_layout::{circuit_by_name, Layout};

    fn tiny_framework() -> AdaptiveFramework {
        let params = DecomposeParams::tpl();
        let layout = circuit_by_name("C432").expect("exists").generate();
        let prep = prepare(&layout, &params);
        let mut data = TrainingData::default();
        data.add_layout_capped(&prep, &params, 8);
        let mut cfg = OfflineConfig::default();
        cfg.rgcn.epochs = 1;
        cfg.colorgnn.epochs = 1;
        cfg.library = mpld_matching::LibraryConfig {
            max_parent_size: 4,
            max_splits: 1,
            max_nodes: 5,
            stitches: false,
        };
        train_framework(&data, &params, &cfg)
    }

    #[test]
    fn timing_total_sums_categories() {
        let t = TimingBreakdown {
            matching: Duration::from_millis(1),
            selection: Duration::from_millis(2),
            redundancy: Duration::from_millis(3),
            colorgnn: Duration::from_millis(4),
            ilp: Duration::from_millis(5),
            ec: Duration::from_millis(6),
        };
        assert_eq!(t.total(), Duration::from_millis(21));
    }

    #[test]
    fn empty_layout_yields_empty_result() {
        let params = DecomposeParams::tpl();
        // Two far-apart features: no conflicts, no units.
        let layout = Layout {
            name: "empty".into(),
            d: 100,
            features: vec![
                mpld_geometry::Feature::new(0, vec![mpld_geometry::Rect::new(0, 0, 50, 20)]),
                mpld_geometry::Feature::new(
                    1,
                    vec![mpld_geometry::Rect::new(10_000, 0, 10_050, 20)],
                ),
            ],
        };
        let prep = prepare(&layout, &params);
        assert!(prep.units.is_empty());
        let fw = tiny_framework();
        let r = fw.decompose_prepared(&prep);
        assert_eq!(r.pipeline.cost.conflicts, 0);
        assert_eq!(r.usage, UsageBreakdown::default());
        assert!(r.unit_engines.is_empty());
        assert_eq!(r.pipeline.decomposition.feature_colors.len(), 2);
    }

    #[test]
    fn engine_usage_counts_match_units() {
        let params = DecomposeParams::tpl();
        let layout = circuit_by_name("C432").expect("exists").generate();
        let prep = prepare(&layout, &params);
        let fw = tiny_framework();
        let r = fw.decompose_prepared(&prep);
        let u = &r.usage;
        assert_eq!(u.matching + u.colorgnn + u.ilp + u.ec, prep.units.len());
        assert_eq!(r.unit_engines.len(), prep.units.len());
        // Cross-check unit_engines against the counters.
        let count = |k: EngineKind| r.unit_engines.iter().filter(|&&e| e == k).count();
        assert_eq!(count(EngineKind::Matching), u.matching);
        assert_eq!(count(EngineKind::ColorGnn), u.colorgnn);
        assert_eq!(count(EngineKind::Ilp), u.ilp);
        assert_eq!(count(EngineKind::Ec), u.ec);
    }
}

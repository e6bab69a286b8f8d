//! A small exact 0-1 integer linear program (BIP) solver.
//!
//! Minimizes `c^T x` over binary `x` subject to linear constraints
//! `a^T x <= b`, by depth-first branch and bound with unit propagation and
//! an objective lower bound. It is deliberately simple — its job in this
//! workspace is to solve the faithful TPLD encoding (see [`crate::encode`])
//! on small component graphs and cross-validate the specialized engine.
//!
//! # Example
//!
//! ```
//! use mpld_ilp::bip::Bip;
//!
//! // min x0 + 2 x1  s.t.  x0 + x1 >= 1  (written as -x0 - x1 <= -1)
//! let mut m = Bip::new(2);
//! m.set_objective(0, 1);
//! m.set_objective(1, 2);
//! m.add_constraint(vec![(0, -1), (1, -1)], -1);
//! let sol = m.solve().expect("feasible");
//! assert_eq!(sol.objective, 1);
//! assert!(sol.values[0] && !sol.values[1]);
//! ```

use mpld_graph::{Budget, BudgetGauge};

/// A linear constraint `sum(coef * x_var) <= bound`.
#[derive(Debug, Clone)]
struct Constraint {
    terms: Vec<(usize, i64)>,
    bound: i64,
}

/// A 0-1 integer linear program (minimization).
#[derive(Debug, Clone, Default)]
pub struct Bip {
    num_vars: usize,
    objective: Vec<i64>,
    constraints: Vec<Constraint>,
}

/// An optimal solution found by [`Bip::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipSolution {
    /// Variable assignment.
    pub values: Vec<bool>,
    /// Objective value `c^T x`.
    pub objective: i64,
}

impl Bip {
    /// Creates a model with `num_vars` binary variables and zero objective.
    pub fn new(num_vars: usize) -> Self {
        Bip {
            num_vars,
            objective: vec![0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn set_objective(&mut self, var: usize, coef: i64) {
        assert!(var < self.num_vars, "variable out of range");
        self.objective[var] = coef;
    }

    /// Adds the constraint `sum(coef * x_var) <= bound`.
    ///
    /// # Panics
    ///
    /// Panics if any variable is out of range or appears twice.
    pub fn add_constraint(&mut self, terms: Vec<(usize, i64)>, bound: i64) {
        let mut seen = std::collections::HashSet::new();
        for &(v, _) in &terms {
            assert!(v < self.num_vars, "variable out of range");
            assert!(seen.insert(v), "variable repeated in constraint");
        }
        self.constraints.push(Constraint { terms, bound });
    }

    /// Solves the program to optimality.
    ///
    /// Returns `None` when the constraints are infeasible.
    pub fn solve(&self) -> Option<BipSolution> {
        self.solve_bounded(None)
    }

    /// Solves to optimality among solutions with objective strictly below
    /// `cutoff` (when given). Returns `None` when no such solution exists —
    /// which, with `cutoff` set to the objective of a known feasible
    /// solution, is a proof that the known solution is already optimal.
    ///
    /// The cutoff acts as an incumbent the search starts with: branches
    /// whose objective lower bound reaches it are pruned immediately, so
    /// proving a near-optimal warm start optimal is far cheaper than a cold
    /// solve that must first stumble onto a good leaf before it can prune.
    pub fn solve_bounded(&self, cutoff: Option<i64>) -> Option<BipSolution> {
        self.solve_under(cutoff, &Budget::unlimited()).0
    }

    /// Budgeted [`Bip::solve_bounded`]: searches among solutions strictly
    /// below `cutoff` until the tree is exhausted or `budget` expires.
    ///
    /// Returns the best solution found (if any) and whether the search was
    /// cut short. When the flag is `false`, the result carries the same
    /// optimality guarantee as [`Bip::solve_bounded`]; when `true`, the
    /// returned solution (if any) is the best-so-far incumbent. With an
    /// unlimited budget the search is bit-identical to `solve_bounded`.
    pub fn solve_under(&self, cutoff: Option<i64>, budget: &Budget) -> (Option<BipSolution>, bool) {
        let mut search = Search::new(self, budget);
        search.cutoff = cutoff;
        search.run();
        let exhausted = search.gauge.is_exhausted();
        (
            search
                .best
                .map(|(values, objective)| BipSolution { values, objective }),
            exhausted,
        )
    }
}

struct Search<'m> {
    model: &'m Bip,
    /// Constraints each variable occurs in: `(constraint index, coef)`.
    occurs: Vec<Vec<(usize, i64)>>,
    best: Option<(Vec<bool>, i64)>,
    /// Only solutions with objective strictly below this count.
    cutoff: Option<i64>,
    /// Strided budget checker ticked once per search node.
    gauge: BudgetGauge<'m>,
    /// The one search state, moved down the tree by fixing variables and
    /// back up by undoing them.
    state: State,
    /// Test oracle: propagate by rescanning every constraint.
    #[cfg(test)]
    full_rescan: bool,
}

struct State {
    /// -1 unset, 0, 1.
    fixed: Vec<i8>,
    /// Per-constraint contribution of fixed variables.
    sum_fixed: Vec<i64>,
    /// Per-constraint minimum possible contribution of free variables
    /// (sum of negative coefficients of free vars).
    free_min: Vec<i64>,
    obj_fixed: i64,
    /// Sum of `min(0, c)` over free variables (for the objective bound).
    obj_free_min: i64,
    /// Fixed variables in the order they were fixed: the undo trail, and
    /// the queue unit propagation works through.
    trail: Vec<usize>,
}

impl<'m> Search<'m> {
    fn new(model: &'m Bip, budget: &'m Budget) -> Self {
        let mut occurs = vec![Vec::new(); model.num_vars];
        for (ci, c) in model.constraints.iter().enumerate() {
            for &(v, a) in &c.terms {
                occurs[v].push((ci, a));
            }
        }
        let state = State {
            fixed: vec![-1; model.num_vars],
            sum_fixed: vec![0; model.constraints.len()],
            free_min: model
                .constraints
                .iter()
                .map(|c| c.terms.iter().map(|&(_, a)| a.min(0)).sum())
                .collect(),
            obj_fixed: 0,
            obj_free_min: model.objective.iter().map(|&c| c.min(0)).sum(),
            trail: Vec::with_capacity(model.num_vars),
        };
        Search {
            model,
            occurs,
            best: None,
            cutoff: None,
            gauge: BudgetGauge::new(budget),
            state,
            #[cfg(test)]
            full_rescan: false,
        }
    }

    /// The objective any acceptable solution must stay strictly below.
    fn bar(&self) -> Option<i64> {
        match (self.best.as_ref().map(|(_, b)| *b), self.cutoff) {
            (Some(b), Some(c)) => Some(b.min(c)),
            (b, c) => b.or(c),
        }
    }

    fn run(&mut self) {
        if self.propagate_root() {
            self.dfs(0);
        }
    }

    /// Fixes `var := val`; returns false when a constraint it occurs in
    /// became infeasible.
    fn fix(&mut self, var: usize, val: bool) -> bool {
        let state = &mut self.state;
        debug_assert_eq!(state.fixed[var], -1);
        state.fixed[var] = i8::from(val);
        state.trail.push(var);
        let c = self.model.objective[var];
        if val {
            state.obj_fixed += c;
        }
        state.obj_free_min -= c.min(0);
        let mut feasible = true;
        for &(ci, a) in &self.occurs[var] {
            state.free_min[ci] -= a.min(0);
            if val {
                state.sum_fixed[ci] += a;
            }
            feasible &=
                state.sum_fixed[ci] + state.free_min[ci] <= self.model.constraints[ci].bound;
        }
        feasible
    }

    /// Unfixes the variables fixed since the trail was `mark` long.
    fn undo(&mut self, mark: usize) {
        let state = &mut self.state;
        for var in state.trail.drain(mark..).rev() {
            let val = state.fixed[var] == 1;
            state.fixed[var] = -1;
            let c = self.model.objective[var];
            if val {
                state.obj_fixed -= c;
            }
            state.obj_free_min += c.min(0);
            for &(ci, a) in &self.occurs[var] {
                state.free_min[ci] += a.min(0);
                if val {
                    state.sum_fixed[ci] -= a;
                }
            }
        }
    }

    /// Applies constraint `ci`'s forced assignments: a free term whose
    /// worst case exceeds the slack must take its other value. Returns
    /// false on infeasibility. Fixing a variable this way leaves `ci`'s
    /// own slack unchanged, so one pass over its terms suffices.
    fn scan(&mut self, ci: usize) -> bool {
        let model = self.model;
        let c = &model.constraints[ci];
        let slack = c.bound - self.state.sum_fixed[ci] - self.state.free_min[ci];
        if slack < 0 {
            return false;
        }
        for &(v, a) in &c.terms {
            if self.state.fixed[v] != -1 {
                continue;
            }
            if a > 0 && a > slack {
                if !self.fix(v, false) {
                    return false;
                }
            } else if a < 0 && -a > slack && !self.fix(v, true) {
                return false;
            }
        }
        true
    }

    /// Unit propagation to the fixpoint after the variables on the trail
    /// from `head` on were fixed: only constraints containing a newly
    /// fixed variable are rescanned (the trail is the queue). Fixing a
    /// variable never raises a constraint's slack, so every forced
    /// assignment stays forced as others are made: the fixpoint, and
    /// whether it is infeasible, do not depend on the scan order.
    fn propagate(&mut self, mut head: usize) -> bool {
        #[cfg(test)]
        if self.full_rescan {
            return self.propagate_rescan();
        }
        while let Some(&var) = self.state.trail.get(head) {
            head += 1;
            for k in 0..self.occurs[var].len() {
                if !self.scan(self.occurs[var][k].0) {
                    return false;
                }
            }
        }
        true
    }

    /// Propagation at the root: every constraint once, then the queue.
    fn propagate_root(&mut self) -> bool {
        #[cfg(test)]
        if self.full_rescan {
            return self.propagate_rescan();
        }
        (0..self.model.constraints.len()).all(|ci| self.scan(ci)) && self.propagate(0)
    }

    fn lower_bound(&self) -> i64 {
        self.state.obj_fixed + self.state.obj_free_min
    }

    /// Searches below the current state, in which every variable before
    /// `first_free` is fixed.
    fn dfs(&mut self, first_free: usize) {
        if self.gauge.tick() {
            return;
        }
        #[cfg(feature = "failpoints")]
        mpld_graph::failpoints::tick("ilp.bip.search");
        if let Some(bar) = self.bar() {
            if self.lower_bound() >= bar {
                return;
            }
        }
        // Branch on the lowest-index free variable: in the TPLD encoding
        // the color bits come first, so the search assigns colors and lets
        // propagation set the cost variables (branching on cost variables
        // directly explores an exponential, uninformative space).
        let Some(var) = (first_free..self.model.num_vars).find(|&v| self.state.fixed[v] == -1)
        else {
            let values: Vec<bool> = self.state.fixed.iter().map(|&f| f == 1).collect();
            let objective = self.state.obj_fixed;
            debug_assert!(self.check(&values));
            if self.bar().is_none_or(|bar| objective < bar) {
                self.best = Some((values, objective));
            }
            return;
        };
        let cheap_first = self.model.objective[var] > 0;
        for &val in if cheap_first {
            &[false, true]
        } else {
            &[true, false]
        } {
            let mark = self.state.trail.len();
            if self.fix(var, val) && self.propagate(mark) {
                self.dfs(var + 1);
            }
            self.undo(mark);
        }
    }

    fn check(&self, values: &[bool]) -> bool {
        self.model.constraints.iter().all(|c| {
            let lhs: i64 = c
                .terms
                .iter()
                .map(|&(v, a)| if values[v] { a } else { 0 })
                .sum();
            lhs <= c.bound
        })
    }
}

/// The propagation the queue replaced, kept as the tests' oracle: rescan
/// every constraint until a pass fixes nothing.
#[cfg(test)]
impl Search<'_> {
    fn propagate_rescan(&mut self) -> bool {
        loop {
            let mark = self.state.trail.len();
            if !(0..self.model.constraints.len()).all(|ci| self.scan(ci)) {
                return false;
            }
            if self.state.trail.len() == mark {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A random model of up to 12 variables and 14 constraints.
    fn random_model(rng: &mut impl Rng) -> Bip {
        let n = rng.gen_range(1..13usize);
        let mut m = Bip::new(n);
        for v in 0..n {
            m.set_objective(v, rng.gen_range(-5i64..6));
        }
        for _ in 0..rng.gen_range(0..15usize) {
            let mut terms = Vec::new();
            for v in 0..n {
                if rng.gen_bool(0.4) {
                    terms.push((v, rng.gen_range(-3i64..4)));
                }
            }
            if !terms.is_empty() {
                m.add_constraint(terms, rng.gen_range(-2i64..5));
            }
        }
        m
    }

    /// Everything propagation decides: the assignment and every sum,
    /// not the order the trail recorded it in.
    fn decided(s: &Search<'_>) -> (Vec<i8>, Vec<i64>, Vec<i64>, i64, i64) {
        let st = &s.state;
        (
            st.fixed.clone(),
            st.sum_fixed.clone(),
            st.free_min.clone(),
            st.obj_fixed,
            st.obj_free_min,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn queue_propagation_reaches_the_rescan_fixpoint(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = random_model(&mut rng);
            let budget = Budget::unlimited();
            let mut queue = Search::new(&m, &budget);
            let mut rescan = Search::new(&m, &budget);
            rescan.full_rescan = true;
            // A random partial state that is not a fixpoint: the root
            // propagation of both must settle it alike.
            for v in 0..m.num_vars {
                if rng.gen_bool(0.3) {
                    let val = rng.gen_bool(0.5);
                    queue.fix(v, val);
                    rescan.fix(v, val);
                }
            }
            let ok = queue.propagate_root();
            prop_assert_eq!(ok, rescan.propagate_root());
            if !ok {
                return Ok(());
            }
            prop_assert_eq!(decided(&queue), decided(&rescan));
            // Walk down from that fixpoint as the search does, undoing
            // now and then; every step must match the rescan and every
            // undo must restore the state exactly.
            let mut marks = Vec::new();
            for _ in 0..3 * m.num_vars {
                let free: Vec<usize> = (0..m.num_vars).filter(|&v| queue.state.fixed[v] == -1).collect();
                if free.is_empty() || (!marks.is_empty() && rng.gen_bool(0.25)) {
                    let Some((mark, before)) = marks.pop() else { break };
                    queue.undo(mark);
                    rescan.undo(mark);
                    prop_assert_eq!(decided(&queue), before);
                    prop_assert_eq!(decided(&rescan), decided(&queue));
                    continue;
                }
                let (var, val) = (free[rng.gen_range(0..free.len())], rng.gen_bool(0.5));
                let (mark, before) = (queue.state.trail.len(), decided(&queue));
                let ok = queue.fix(var, val) && queue.propagate(mark);
                prop_assert_eq!(ok, rescan.fix(var, val) && rescan.propagate(mark));
                if ok {
                    prop_assert_eq!(decided(&queue), decided(&rescan));
                    marks.push((mark, before));
                } else {
                    queue.undo(mark);
                    rescan.undo(mark);
                    prop_assert_eq!(decided(&queue), before);
                }
            }
        }

        #[test]
        fn queue_and_rescan_searches_visit_the_same_nodes(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = random_model(&mut rng);
            let cutoff = rng.gen_bool(0.5).then(|| rng.gen_range(-10i64..10));
            for limit in [u64::MAX, 1, 3, 10, 40] {
                let budget = Budget::unlimited().and_node_limit(limit);
                let run = |full_rescan: bool| {
                    let mut s = Search::new(&m, &budget);
                    s.cutoff = cutoff;
                    s.full_rescan = full_rescan;
                    s.run();
                    (s.best, s.gauge.ticks(), s.gauge.is_exhausted())
                };
                prop_assert_eq!(run(false), run(true));
            }
        }
    }

    #[test]
    fn unconstrained_minimum_is_all_zero_for_positive_costs() {
        let mut m = Bip::new(3);
        for v in 0..3 {
            m.set_objective(v, 5);
        }
        let s = m.solve().unwrap();
        assert_eq!(s.objective, 0);
        assert_eq!(s.values, vec![false; 3]);
    }

    #[test]
    fn negative_costs_pull_variables_up() {
        let mut m = Bip::new(2);
        m.set_objective(0, -3);
        m.set_objective(1, 2);
        let s = m.solve().unwrap();
        assert_eq!(s.objective, -3);
        assert_eq!(s.values, vec![true, false]);
    }

    #[test]
    fn infeasible_returns_none() {
        let mut m = Bip::new(1);
        m.add_constraint(vec![(0, 1)], 0); // x0 <= 0
        m.add_constraint(vec![(0, -1)], -1); // x0 >= 1
        assert!(m.solve().is_none());
    }

    #[test]
    fn covering_problem() {
        // min x0 + x1 + x2, each pair constraint forces at least one of two.
        let mut m = Bip::new(3);
        for v in 0..3 {
            m.set_objective(v, 1);
        }
        m.add_constraint(vec![(0, -1), (1, -1)], -1);
        m.add_constraint(vec![(1, -1), (2, -1)], -1);
        m.add_constraint(vec![(0, -1), (2, -1)], -1);
        let s = m.solve().unwrap();
        assert_eq!(s.objective, 2);
    }

    #[test]
    fn knapsack_like() {
        // max 4x0 + 5x1 + 3x2 s.t. 3x0 + 4x1 + 2x2 <= 6
        // == min -4x0 - 5x1 - 3x2.
        let mut m = Bip::new(3);
        m.set_objective(0, -4);
        m.set_objective(1, -5);
        m.set_objective(2, -3);
        m.add_constraint(vec![(0, 3), (1, 4), (2, 2)], 6);
        let s = m.solve().unwrap();
        assert_eq!(s.objective, -8); // x1 + x2 (value 8, weight 6)
    }

    #[test]
    #[should_panic(expected = "variable repeated")]
    fn duplicate_var_in_constraint_panics() {
        let mut m = Bip::new(2);
        m.add_constraint(vec![(0, 1), (0, 1)], 1);
    }

    #[test]
    fn bounded_solve_proves_optimality_and_finds_improvements() {
        // min x0 + 2 x1  s.t.  x0 + x1 >= 1 — optimum is 1.
        let mut m = Bip::new(2);
        m.set_objective(0, 1);
        m.set_objective(1, 2);
        m.add_constraint(vec![(0, -1), (1, -1)], -1);
        // Cutoff at the optimum: nothing strictly better exists.
        assert_eq!(m.solve_bounded(Some(1)), None);
        // Cutoff above the optimum: the optimum is returned.
        let s = m.solve_bounded(Some(2)).unwrap();
        assert_eq!(s.objective, 1);
    }

    #[test]
    fn bounded_solve_agrees_with_cold_solve_on_random_models() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..30 {
            let n = rng.gen_range(2..8usize);
            let mut m = Bip::new(n);
            for v in 0..n {
                m.set_objective(v, rng.gen_range(-5i64..6));
            }
            for _ in 0..rng.gen_range(0..6usize) {
                let mut terms = Vec::new();
                for v in 0..n {
                    if rng.gen_bool(0.5) {
                        terms.push((v, rng.gen_range(-3i64..4)));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                m.add_constraint(terms, rng.gen_range(-2i64..5));
            }
            let Some(cold) = m.solve() else {
                assert_eq!(m.solve_bounded(Some(100)), None);
                continue;
            };
            // Any cutoff above the optimum returns the same objective;
            // the optimum itself as cutoff proves optimality.
            let warm = m.solve_bounded(Some(cold.objective + 1)).unwrap();
            assert_eq!(warm.objective, cold.objective);
            assert_eq!(m.solve_bounded(Some(cold.objective)), None);
        }
    }

    #[test]
    fn matches_exhaustive_on_random_models() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..30 {
            let n = rng.gen_range(2..8usize);
            let mut m = Bip::new(n);
            for v in 0..n {
                m.set_objective(v, rng.gen_range(-5i64..6));
            }
            for _ in 0..rng.gen_range(0..6usize) {
                let mut terms = Vec::new();
                for v in 0..n {
                    if rng.gen_bool(0.5) {
                        terms.push((v, rng.gen_range(-3i64..4)));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                let bound = rng.gen_range(-2i64..5);
                m.add_constraint(terms, bound);
            }
            // Exhaustive reference.
            let mut best: Option<i64> = None;
            for mask in 0..(1u32 << n) {
                let values: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
                let ok = (0..m.num_constraints()).all(|ci| {
                    let c = &m.constraints[ci];
                    let lhs: i64 = c
                        .terms
                        .iter()
                        .map(|&(v, a)| if values[v] { a } else { 0 })
                        .sum();
                    lhs <= c.bound
                });
                if ok {
                    let obj: i64 = (0..n)
                        .map(|v| if values[v] { m.objective[v] } else { 0 })
                        .sum();
                    best = Some(best.map_or(obj, |b: i64| b.min(obj)));
                }
            }
            let got = m.solve();
            match (best, got) {
                (None, None) => {}
                (Some(b), Some(s)) => assert_eq!(s.objective, b),
                (b, s) => panic!("mismatch: exhaustive={b:?} solver={s:?}"),
            }
        }
    }
}

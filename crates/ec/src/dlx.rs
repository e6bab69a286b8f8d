//! Dancing-links (DLX) exact cover with secondary columns, row costs, and
//! branch-and-bound minimum-cost search.
//!
//! Columns are either **primary** (must be covered exactly once) or
//! **secondary** (may be covered at most once). Rows carry non-negative
//! costs; [`Dlx::solve_min_cost`] finds the exact cover minimizing the
//! total row cost, optionally under a search-node budget (returning the
//! best cover found so far when the budget runs out).
//!
//! [`Dlx::unlink_columns`] takes secondary columns out of the matrix
//! between searches and [`Dlx::relink`] puts them back — dancing links
//! applied to columns — so one matrix serves every relaxation of an
//! instance without a rebuild.

use mpld_graph::Budget;

/// Marker for "no best solution yet".
const NO_NODE: u32 = u32::MAX;

/// A dancing-links exact cover matrix.
///
/// # Example
///
/// Knuth's classic example instance:
///
/// ```
/// use mpld_ec::dlx::Dlx;
///
/// let mut m = Dlx::new(7, 0);
/// m.add_row(&[2, 4, 5], 0);     // row 0
/// m.add_row(&[0, 3, 6], 0);     // row 1
/// m.add_row(&[1, 2, 5], 0);     // row 2
/// m.add_row(&[0, 3], 0);        // row 3
/// m.add_row(&[1, 6], 0);        // row 4
/// m.add_row(&[3, 4, 6], 0);     // row 5
/// let (rows, cost) = m.solve_min_cost(None).expect("cover exists");
/// let mut rows = rows.clone();
/// rows.sort();
/// assert_eq!(rows, vec![0, 3, 4]);
/// assert_eq!(cost, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Dlx {
    // Node arena. Nodes 0..num_cols are column headers; node `num_cols` is
    // the root of the primary header list.
    left: Vec<u32>,
    right: Vec<u32>,
    up: Vec<u32>,
    down: Vec<u32>,
    col_of: Vec<u32>,
    row_of: Vec<u32>,
    size: Vec<u32>,
    num_primary: usize,
    num_cols: usize,
    num_rows: usize,
    row_cost: Vec<u64>,
    search_nodes: u64,
    exhausted: bool,
    /// Per column, one plus the last row added through it (`add_row`'s
    /// duplicate check without a set per row).
    last_row: Vec<u32>,
    /// Nodes `unlink_columns` took out of their rows, in unlink order.
    unlinked: Vec<u32>,
}

impl Dlx {
    /// Creates a matrix with `num_primary` primary columns followed by
    /// `num_secondary` secondary columns. Column ids are
    /// `0..num_primary + num_secondary`, primaries first.
    pub fn new(num_primary: usize, num_secondary: usize) -> Self {
        let num_cols = num_primary + num_secondary;
        let root = num_cols as u32;
        let n = num_cols + 1;
        let mut m = Dlx {
            left: (0..n as u32).collect(),
            right: (0..n as u32).collect(),
            up: (0..n as u32).collect(),
            down: (0..n as u32).collect(),
            col_of: (0..n as u32).collect(),
            row_of: vec![NO_NODE; n],
            size: vec![0; num_cols],
            num_primary,
            num_cols,
            num_rows: 0,
            row_cost: Vec::new(),
            search_nodes: 0,
            exhausted: false,
            last_row: vec![0; num_cols],
            unlinked: Vec::new(),
        };
        // Link primary headers in a circular list through the root;
        // secondary headers stay self-linked (never branched on).
        let mut prev = root;
        for c in 0..num_primary as u32 {
            m.left[c as usize] = prev;
            m.right[prev as usize] = c;
            prev = c;
        }
        m.left[root as usize] = prev;
        m.right[prev as usize] = root;
        m
    }

    /// Number of rows added so far.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of primary (exactly-once) columns.
    pub fn num_primary(&self) -> usize {
        self.num_primary
    }

    /// Search nodes expended by the last `solve_min_cost` call.
    pub fn last_search_nodes(&self) -> u64 {
        self.search_nodes
    }

    /// Whether the last `solve_min_cost` call stopped because the budget
    /// ran out (its result, including `None`, is then not a proof).
    pub fn last_search_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Adds a row covering `cols`, with the given non-negative `cost`.
    /// Returns the row index.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is empty, contains duplicates, or references an
    /// unknown column.
    pub fn add_row(&mut self, cols: &[usize], cost: u64) -> usize {
        assert!(!cols.is_empty(), "a row must cover at least one column");
        let row = self.num_rows;
        self.num_rows += 1;
        self.row_cost.push(cost);
        let mut first: Option<u32> = None;
        let stamp = row as u32 + 1;
        for &c in cols {
            assert!(c < self.num_cols, "column out of range");
            assert!(self.last_row[c] != stamp, "duplicate column in row");
            self.last_row[c] = stamp;
            let node = self.left.len() as u32;
            // Vertical link: insert above the header (end of the column).
            let header = c as u32;
            let above = self.up[header as usize];
            self.up.push(above);
            self.down.push(header);
            self.down[above as usize] = node;
            self.up[header as usize] = node;
            self.col_of.push(header);
            self.row_of.push(row as u32);
            self.size[c] += 1;
            // Horizontal link within the row.
            match first {
                None => {
                    self.left.push(node);
                    self.right.push(node);
                    first = Some(node);
                }
                Some(f) => {
                    let last = self.left[f as usize];
                    self.left.push(last);
                    self.right.push(f);
                    self.right[last as usize] = node;
                    self.left[f as usize] = node;
                }
            }
        }
        row
    }

    /// Takes every node of the secondary columns `cols` out of its row,
    /// until [`Dlx::relink`]. A search in between visits the same rows in
    /// the same order, with the same costs, as a search of the matrix
    /// built without those columns: the columns are never covered, and
    /// the other nodes of each row keep their relative order. Add no rows
    /// before relinking.
    ///
    /// # Panics
    ///
    /// Panics if a column is primary, out of range, or already unlinked.
    pub fn unlink_columns(&mut self, cols: impl IntoIterator<Item = usize>) {
        for c in cols {
            assert!(
                (self.num_primary..self.num_cols).contains(&c),
                "only secondary columns can be unlinked"
            );
            let mut i = self.down[c];
            while i as usize != c {
                let (l, r) = (self.left[i as usize], self.right[i as usize]);
                assert_eq!(self.right[l as usize], i, "column {c} is already unlinked");
                self.right[l as usize] = r;
                self.left[r as usize] = l;
                self.unlinked.push(i);
                i = self.down[i as usize];
            }
        }
    }

    /// Puts back every node [`Dlx::unlink_columns`] took out, in reverse
    /// order, restoring the matrix exactly.
    pub fn relink(&mut self) {
        while let Some(i) = self.unlinked.pop() {
            let (l, r) = (self.left[i as usize], self.right[i as usize]);
            self.right[l as usize] = i;
            self.left[r as usize] = i;
        }
    }

    fn cover(&mut self, c: u32) {
        let (l, r) = (self.left[c as usize], self.right[c as usize]);
        self.right[l as usize] = r;
        self.left[r as usize] = l;
        let mut i = self.down[c as usize];
        while i != c {
            let mut j = self.right[i as usize];
            while j != i {
                let (u, d) = (self.up[j as usize], self.down[j as usize]);
                self.down[u as usize] = d;
                self.up[d as usize] = u;
                self.size[self.col_of[j as usize] as usize] -= 1;
                j = self.right[j as usize];
            }
            i = self.down[i as usize];
        }
    }

    fn uncover(&mut self, c: u32) {
        let mut i = self.up[c as usize];
        while i != c {
            let mut j = self.left[i as usize];
            while j != i {
                let (u, d) = (self.up[j as usize], self.down[j as usize]);
                self.down[u as usize] = j;
                self.up[d as usize] = j;
                self.size[self.col_of[j as usize] as usize] += 1;
                j = self.left[j as usize];
            }
            i = self.up[i as usize];
        }
        let (l, r) = (self.left[c as usize], self.right[c as usize]);
        self.right[l as usize] = c;
        self.left[r as usize] = c;
    }

    /// Finds an exact cover of all primary columns (secondaries covered at
    /// most once) minimizing total row cost.
    ///
    /// With `budget = Some(n)`, the search stops after `n` search nodes and
    /// returns the best cover found so far (or `None` if none was found) —
    /// this is what makes the EC decomposer fast but occasionally
    /// suboptimal, as characterized in the paper.
    pub fn solve_min_cost(&mut self, budget: Option<u64>) -> Option<(Vec<usize>, u64)> {
        self.solve_min_cost_within(budget, &Budget::unlimited())
    }

    /// [`Dlx::solve_min_cost`] under a wall-clock [`Budget`] in addition to
    /// the node budget: the node limits compose (the smaller wins) and the
    /// deadline is polled every 256 search nodes. With an
    /// unlimited wall budget this is bit-identical to `solve_min_cost`.
    pub fn solve_min_cost_within(
        &mut self,
        node_budget: Option<u64>,
        wall: &Budget,
    ) -> Option<(Vec<usize>, u64)> {
        self.search_nodes = 0;
        self.exhausted = false;
        let node_budget = match (node_budget, wall.node_limit()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let wall = if wall.is_unlimited() {
            None
        } else {
            Some(wall)
        };
        let mut stack = Vec::new();
        let mut best: Option<(Vec<usize>, u64)> = None;
        self.search(&mut stack, 0, &mut best, node_budget, wall);
        best
    }

    fn search(
        &mut self,
        stack: &mut Vec<u32>,
        cost: u64,
        best: &mut Option<(Vec<usize>, u64)>,
        budget: Option<u64>,
        wall: Option<&Budget>,
    ) {
        self.search_nodes += 1;
        if let Some(b) = budget {
            if self.search_nodes > b {
                self.exhausted = true;
                return;
            }
        }
        if let Some(w) = wall {
            if self.search_nodes.is_multiple_of(256) && w.exhausted() {
                self.exhausted = true;
                return;
            }
        }
        if let Some((_, bc)) = best {
            if cost >= *bc {
                return;
            }
        }
        let root = self.num_cols as u32;
        if self.right[root as usize] == root {
            let rows: Vec<usize> = stack
                .iter()
                .map(|&n| self.row_of[n as usize] as usize)
                .collect();
            *best = Some((rows, cost));
            return;
        }
        // Choose the primary column with the fewest rows (Knuth's S heuristic).
        let mut c = self.right[root as usize];
        let mut chosen = c;
        let mut min = u32::MAX;
        while c != root {
            if self.size[c as usize] < min {
                min = self.size[c as usize];
                chosen = c;
            }
            c = self.right[c as usize];
        }
        if min == 0 {
            return; // dead end
        }
        let c = chosen;
        self.cover(c);
        let mut r = self.down[c as usize];
        while r != c {
            let row_cost = self.row_cost[self.row_of[r as usize] as usize];
            stack.push(r);
            let mut j = self.right[r as usize];
            while j != r {
                self.cover(self.col_of[j as usize]);
                j = self.right[j as usize];
            }
            self.search(stack, cost + row_cost, best, budget, wall);
            let mut j = self.left[r as usize];
            while j != r {
                self.uncover(self.col_of[j as usize]);
                j = self.left[j as usize];
            }
            stack.pop();
            r = self.down[r as usize];
        }
        self.uncover(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn knuth_example() {
        let mut m = Dlx::new(7, 0);
        m.add_row(&[2, 4, 5], 0);
        m.add_row(&[0, 3, 6], 0);
        m.add_row(&[1, 2, 5], 0);
        m.add_row(&[0, 3], 0);
        m.add_row(&[1, 6], 0);
        m.add_row(&[3, 4, 6], 0);
        let (mut rows, _) = m.solve_min_cost(None).unwrap();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 3, 4]);
    }

    #[test]
    fn min_cost_prefers_cheap_cover() {
        // Two covers exist: {row0} cost 5 or {row1, row2} cost 2.
        let mut m = Dlx::new(2, 0);
        m.add_row(&[0, 1], 5);
        m.add_row(&[0], 1);
        m.add_row(&[1], 1);
        let (mut rows, cost) = m.solve_min_cost(None).unwrap();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2]);
        assert_eq!(cost, 2);
    }

    #[test]
    fn infeasible_returns_none() {
        let mut m = Dlx::new(2, 0);
        m.add_row(&[0], 0);
        // Column 1 has no rows.
        assert!(m.solve_min_cost(None).is_none());
    }

    #[test]
    fn secondary_columns_limit_double_cover() {
        // Primary columns 0, 1; secondary column 2. Rows (0, 2) and (1, 2)
        // cannot both be chosen; rows (0, 2) and (1) can.
        let mut m = Dlx::new(2, 1);
        m.add_row(&[0, 2], 0);
        m.add_row(&[1, 2], 0);
        m.add_row(&[1], 3);
        let (mut rows, cost) = m.solve_min_cost(None).unwrap();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(cost, 3);
    }

    #[test]
    fn secondary_columns_need_not_be_covered() {
        let mut m = Dlx::new(1, 1);
        m.add_row(&[0], 0);
        let (rows, cost) = m.solve_min_cost(None).unwrap();
        assert_eq!(rows, vec![0]);
        assert_eq!(cost, 0);
    }

    #[test]
    fn budget_zero_like_small_still_reports_nodes() {
        let mut m = Dlx::new(2, 0);
        m.add_row(&[0], 1);
        m.add_row(&[1], 1);
        let got = m.solve_min_cost(Some(1));
        // With a 1-node budget the search cannot finish.
        assert!(got.is_none());
        assert!(m.last_search_nodes() >= 1);
    }

    #[test]
    fn matrix_is_restored_after_search() {
        // Run twice; identical results prove cover/uncover are exact
        // inverses.
        let mut m = Dlx::new(3, 1);
        m.add_row(&[0, 3], 2);
        m.add_row(&[1, 3], 1);
        m.add_row(&[2], 1);
        m.add_row(&[0, 1], 5);
        let a = m.solve_min_cost(None);
        let b = m.solve_min_cost(None);
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_row_panics() {
        let mut m = Dlx::new(1, 0);
        m.add_row(&[], 0);
    }

    #[test]
    #[should_panic(expected = "duplicate column in row")]
    fn duplicate_column_panics() {
        let mut m = Dlx::new(2, 1);
        m.add_row(&[0, 2], 0);
        m.add_row(&[1, 2, 1], 0);
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn unknown_column_panics() {
        let mut m = Dlx::new(2, 1);
        m.add_row(&[0, 3], 0);
    }

    #[test]
    #[should_panic(expected = "only secondary columns")]
    fn unlinking_a_primary_column_panics() {
        let mut m = Dlx::new(2, 1);
        m.add_row(&[0, 2], 0);
        m.unlink_columns([1]);
    }

    #[test]
    #[should_panic(expected = "already unlinked")]
    fn unlinking_a_column_twice_panics() {
        let mut m = Dlx::new(1, 2);
        m.add_row(&[0, 1, 2], 0);
        m.unlink_columns([1, 2, 1]);
    }

    /// A random matrix: primary and secondary column counts, and rows as
    /// (sorted columns, cost), each covering at least one primary column.
    #[allow(clippy::type_complexity)]
    fn random_matrix(rng: &mut impl Rng) -> (usize, usize, Vec<(Vec<usize>, u64)>) {
        let primary = rng.gen_range(1..6);
        let secondary = rng.gen_range(0..9);
        let rows = (0..rng.gen_range(1..24))
            .map(|_| {
                let mut cols = vec![rng.gen_range(0..primary)];
                cols.extend((0..primary + secondary).filter(|_| rng.gen_bool(0.3)));
                cols.sort_unstable();
                cols.dedup();
                (cols, rng.gen_range(0..5))
            })
            .collect();
        (primary, secondary, rows)
    }

    /// Builds the matrix keeping only the columns `keep` accepts,
    /// renumbered densely in order.
    fn build(
        primary: usize,
        secondary: usize,
        rows: &[(Vec<usize>, u64)],
        keep: impl Fn(usize) -> bool,
    ) -> Dlx {
        let new_id: Vec<usize> = (0..primary + secondary)
            .scan(0, |next, c| {
                let id = *next;
                *next += usize::from(keep(c));
                Some(id)
            })
            .collect();
        let kept_secondary = (primary..primary + secondary).filter(|&c| keep(c)).count();
        let mut m = Dlx::new(primary, kept_secondary);
        for (cols, cost) in rows {
            let cols: Vec<usize> = cols
                .iter()
                .filter(|&&c| keep(c))
                .map(|&c| new_id[c])
                .collect();
            m.add_row(&cols, *cost);
        }
        m
    }

    type Outcome = (Option<(Vec<usize>, u64)>, u64, bool);

    fn solve(m: &mut Dlx, budget: Option<u64>) -> Outcome {
        let got = m.solve_min_cost(budget);
        (got, m.last_search_nodes(), m.last_search_exhausted())
    }

    #[test]
    fn unlinked_columns_search_like_a_matrix_built_without_them() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(0xD1C5);
        for _ in 0..300 {
            let (primary, secondary, rows) = random_matrix(&mut rng);
            let relaxed: Vec<usize> = (primary..primary + secondary)
                .filter(|_| rng.gen_bool(0.4))
                .collect();
            let mut full = build(primary, secondary, &rows, |_| true);
            let mut reference = full.clone();
            let mut fresh = build(primary, secondary, &rows, |c| !relaxed.contains(&c));
            for budget in [None, Some(1), Some(2), Some(5), Some(20)] {
                full.unlink_columns(relaxed.iter().copied());
                let unlinked = solve(&mut full, budget);
                full.relink();
                assert_eq!(
                    unlinked,
                    solve(&mut fresh, budget),
                    "rows {rows:?}, relaxed {relaxed:?}"
                );
                assert_eq!(solve(&mut full, budget), solve(&mut reference, budget));
            }
        }
    }
}

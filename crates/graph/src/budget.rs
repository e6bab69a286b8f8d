//! Wall-clock / node budgets for solvers.
//!
//! Every decomposition engine accepts a [`Budget`] describing how much work
//! it may spend: an optional wall-clock deadline (measured on a pluggable
//! [`Clock`] so timeout tests are deterministic) and an optional node /
//! iteration limit (which makes budget cuts deterministic in tests).
//!
//! Budget exhaustion is **not** an error: an engine that runs out of budget
//! returns its best-so-far incumbent tagged
//! [`Certainty::BudgetExhausted`](crate::Certainty::BudgetExhausted).
//! Hot search loops use a [`BudgetGauge`] so the per-node overhead is one
//! counter increment plus a strided clock read.
//!
//! An unlimited budget ([`Budget::unlimited`]) performs no clock reads and
//! never trips, so budget-aware code paths are bit-identical to the
//! pre-budget behavior when no limit is configured.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source measured as a [`Duration`] since an arbitrary
/// origin. Implemented by [`SystemClock`] for production and [`MockClock`]
/// for deterministic tests.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time since the clock's origin.
    fn now(&self) -> Duration;
}

/// Real wall-clock time via [`Instant`].
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is the moment of construction.
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A manually-driven clock for deterministic timeout tests.
///
/// Optionally advances itself by a fixed `tick` on every [`Clock::now`]
/// call, which models "time passes while the solver searches" without any
/// real sleeping: a search loop that polls the clock every N nodes will
/// deterministically expire after `deadline / tick` polls.
#[derive(Debug, Default)]
pub struct MockClock {
    nanos: AtomicU64,
    tick_nanos: u64,
}

impl MockClock {
    /// A mock clock frozen at zero; advance it explicitly with
    /// [`MockClock::advance`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A mock clock that advances by `tick` every time it is read.
    pub fn ticking(tick: Duration) -> Self {
        MockClock {
            nanos: AtomicU64::new(0),
            tick_nanos: tick.as_nanos() as u64,
        }
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl Clock for MockClock {
    fn now(&self) -> Duration {
        let t = self.nanos.fetch_add(self.tick_nanos, Ordering::Relaxed);
        Duration::from_nanos(t)
    }
}

/// A work budget for one solve: wall-clock deadline and node/iteration
/// limit.
///
/// The default ([`Budget::unlimited`]) has no limits and is checked for
/// free. Deadlines are absolute instants on the budget's [`Clock`], so a
/// per-unit budget derived from a layout-wide budget shares the same clock
/// and the same final deadline.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    clock: Option<Arc<dyn Clock>>,
    deadline: Option<Duration>,
    node_limit: Option<u64>,
}

impl Budget {
    /// No limits: solves run to completion exactly as if budgets did not
    /// exist.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget with no limits of its own that carries `clock`, so
    /// children derived via [`Budget::narrowed`] measure their deadlines
    /// on it (e.g. a per-unit limit under no layout-wide limit, driven by
    /// a [`MockClock`] in tests).
    pub fn on_clock(clock: Arc<dyn Clock>) -> Self {
        Budget {
            clock: Some(clock),
            deadline: None,
            node_limit: None,
        }
    }

    /// A budget expiring `limit` after `clock`'s current time.
    pub fn with_deadline_on(clock: Arc<dyn Clock>, limit: Duration) -> Self {
        let deadline = clock.now() + limit;
        Budget {
            clock: Some(clock),
            deadline: Some(deadline),
            node_limit: None,
        }
    }

    /// Adds a search-node / iteration limit.
    pub fn and_node_limit(mut self, nodes: u64) -> Self {
        self.node_limit = Some(nodes);
        self
    }

    /// The node / iteration limit, if any.
    pub fn node_limit(&self) -> Option<u64> {
        self.node_limit
    }

    /// Whether this budget can never trip.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.node_limit.is_none()
    }

    /// Whether the deadline has passed.
    ///
    /// Reads the clock, so hot loops should go through a [`BudgetGauge`]
    /// rather than calling this per node.
    pub fn exhausted(&self) -> bool {
        match (&self.clock, self.deadline) {
            (Some(clock), Some(deadline)) => clock.now() >= deadline,
            _ => false,
        }
    }

    /// Time left until the deadline (`None` when there is no deadline).
    /// Returns `Duration::ZERO` once expired.
    pub fn remaining(&self) -> Option<Duration> {
        match (&self.clock, self.deadline) {
            (Some(clock), Some(deadline)) => Some(deadline.saturating_sub(clock.now())),
            _ => None,
        }
    }

    /// A child budget on the same clock (a fresh [`SystemClock`] when this
    /// budget has none) whose deadline is the sooner of this budget's
    /// deadline and `limit` from now, with this budget's node limit.
    pub fn narrowed(&self, limit: Duration) -> Budget {
        let clock = self
            .clock
            .clone()
            .unwrap_or_else(|| Arc::new(SystemClock::new()));
        let child = clock.now() + limit;
        Budget {
            deadline: Some(self.deadline.map_or(child, |d| d.min(child))),
            clock: Some(clock),
            node_limit: self.node_limit,
        }
    }
}

/// Number of [`BudgetGauge::tick`] calls between clock reads.
const GAUGE_STRIDE: u64 = 256;

/// Strided budget checker for hot search loops.
///
/// Call [`tick`](BudgetGauge::tick) once per search node; it returns `true`
/// once the budget is exhausted (and keeps returning `true`). For an
/// unlimited budget the cost is one branch and one increment, and the clock
/// is never read — guaranteeing identical search behavior to unbudgeted
/// code.
#[derive(Debug)]
pub struct BudgetGauge<'a> {
    budget: &'a Budget,
    active: bool,
    ticks: u64,
    tripped: bool,
}

impl<'a> BudgetGauge<'a> {
    /// A gauge over `budget` with the tick counter at zero.
    pub fn new(budget: &'a Budget) -> Self {
        BudgetGauge {
            budget,
            active: !budget.is_unlimited(),
            ticks: 0,
            tripped: false,
        }
    }

    /// Records one unit of work; returns `true` if the budget is exhausted.
    #[inline]
    pub fn tick(&mut self) -> bool {
        if !self.active {
            return false;
        }
        if self.tripped {
            return true;
        }
        self.ticks += 1;
        if let Some(limit) = self.budget.node_limit {
            if self.ticks > limit {
                self.tripped = true;
                return true;
            }
        }
        if self.ticks.is_multiple_of(GAUGE_STRIDE) && self.budget.exhausted() {
            self.tripped = true;
            return true;
        }
        false
    }

    /// Whether the budget tripped at some point.
    pub fn is_exhausted(&self) -> bool {
        self.tripped
    }

    /// Units of work recorded so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.exhausted());
        assert_eq!(b.remaining(), None);
        let mut g = BudgetGauge::new(&b);
        for _ in 0..10_000 {
            assert!(!g.tick());
        }
        // The gauge short-circuits: no ticks are even counted.
        assert_eq!(g.ticks(), 0);
        assert!(!g.is_exhausted());
    }

    #[test]
    fn node_limit_trips_exactly() {
        let b = Budget::unlimited().and_node_limit(5);
        let mut g = BudgetGauge::new(&b);
        for _ in 0..5 {
            assert!(!g.tick());
        }
        assert!(g.tick());
        assert!(g.is_exhausted());
        assert!(g.tick(), "stays tripped");
    }

    #[test]
    fn mock_clock_deadline_expires_deterministically() {
        let clock = Arc::new(MockClock::ticking(Duration::from_micros(1)));
        let b = Budget::with_deadline_on(clock, Duration::from_micros(3));
        // with_deadline_on read the clock once (t=0 -> deadline 3µs, clock
        // now at 1µs). Each exhausted() call reads once more.
        assert!(!b.exhausted()); // t=1µs
        assert!(!b.exhausted()); // t=2µs
        assert!(b.exhausted()); // t=3µs
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn manual_mock_clock_advance() {
        let clock = Arc::new(MockClock::new());
        let b =
            Budget::with_deadline_on(Arc::clone(&clock) as Arc<dyn Clock>, Duration::from_secs(1));
        assert!(!b.exhausted());
        clock.advance(Duration::from_secs(2));
        assert!(b.exhausted());
    }

    #[test]
    fn gauge_polls_clock_on_stride() {
        let clock = Arc::new(MockClock::ticking(Duration::from_millis(1)));
        let b = Budget::with_deadline_on(clock, Duration::from_millis(2));
        let mut g = BudgetGauge::new(&b);
        // with_deadline_on consumed the t=0 read (deadline 2ms, clock at
        // 1ms). The first stride boundary (tick 256) reads 1ms < 2ms; the
        // second (tick 512) reads 2ms and trips.
        let mut tripped_at = None;
        for i in 1..=3 * GAUGE_STRIDE {
            if g.tick() {
                tripped_at = Some(i);
                break;
            }
        }
        assert_eq!(tripped_at, Some(2 * GAUGE_STRIDE));
    }

    #[test]
    fn narrowed_takes_tighter_limits() {
        let clock = Arc::new(MockClock::new());
        let parent = Budget::with_deadline_on(
            Arc::clone(&clock) as Arc<dyn Clock>,
            Duration::from_secs(10),
        )
        .and_node_limit(1000);
        let child = parent.narrowed(Duration::from_secs(1));
        assert_eq!(child.node_limit(), Some(1000));
        clock.advance(Duration::from_secs(2));
        assert!(child.exhausted(), "child deadline is the sooner one");
        assert!(!parent.exhausted());

        // Narrowing a budget without a clock starts a wall clock.
        let child = Budget::unlimited().narrowed(Duration::from_secs(60));
        assert!(!child.is_unlimited());
        assert!(!child.exhausted());
    }
}

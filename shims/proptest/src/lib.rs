//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no crates.io access, so this shim reimplements
//! the slice of proptest the workspace's property tests rely on: composable
//! `Strategy` values (ranges, tuples, `prop::collection::vec`,
//! `prop::bool::ANY`, `prop_map`, `prop_flat_map`), the `proptest!` macro
//! with `ProptestConfig::with_cases`, and the `prop_assert*` macros.
//!
//! Differences from real proptest: cases are sampled from a deterministic
//! per-test RNG (seeded from the test name) and failing inputs are **not
//! shrunk** — the failing value is reported as-is via the panic message.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runner configuration; only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A source of random values of an associated type.
///
/// Unlike real proptest there is no value tree / shrinking machinery;
/// `sample_value` directly produces one case.
pub trait Strategy {
    type Value;

    fn sample_value(&self, rng: &mut SmallRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn sample_value(&self, rng: &mut SmallRng) -> U {
        (self.f)(self.inner.sample_value(rng))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn sample_value(&self, rng: &mut SmallRng) -> S2::Value {
        (self.f)(self.inner.sample_value(rng)).sample_value(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample_value(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample_value(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn sample_value(&self, rng: &mut SmallRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.sample_value(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// `bool` strategies (`prop::bool::ANY`).
pub mod bool {
    use super::{SmallRng, Strategy};
    use rand::Rng;

    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample_value(&self, rng: &mut SmallRng) -> bool {
            rng.gen_bool(0.5)
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{SmallRng, Strategy};
    use rand::Rng;

    /// Length specifications accepted by [`vec()`]: an exact length or a
    /// half-open range of lengths.
    pub trait SizeSpec {
        fn pick(&self, rng: &mut SmallRng) -> usize;
    }

    impl SizeSpec for usize {
        fn pick(&self, _rng: &mut SmallRng) -> usize {
            *self
        }
    }

    impl SizeSpec for core::ops::Range<usize> {
        fn pick(&self, rng: &mut SmallRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeSpec for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut SmallRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    pub fn vec<S: Strategy, L: SizeSpec>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeSpec> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample_value(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.sample_value(rng)).collect()
        }
    }
}

/// Seeds the per-test RNG from the test's name so each property test has a
/// stable, independent stream.
pub fn rng_for_test(name: &str) -> SmallRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    SmallRng::seed_from_u64(h)
}

pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy};

    /// Mirrors `proptest::prelude::prop` (module re-exports).
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+)
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __strategy = ($($strat,)+);
            let mut __rng = $crate::rng_for_test(stringify!($name));
            for __case in 0..__cfg.cases {
                let ($($arg,)+) = $crate::Strategy::sample_value(&__strategy, &mut __rng);
                // Real proptest bodies run in a Result-returning context so
                // `return Ok(());` works as an early case skip; mirror that.
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::core::result::Result<(), ()> = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                let _ = __outcome;
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (usize, bool)> {
        (1usize..10).prop_flat_map(|n| (n..n + 1, prop::bool::ANY))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_lengths_respect_spec(v in prop::collection::vec(0i64..5, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            prop_assert!(v.iter().all(|&x| (0..5).contains(&x)));
        }

        #[test]
        fn flat_map_composes(p in arb_pair(), k in 0u8..3) {
            prop_assert!(p.0 >= 1 && p.0 < 10);
            prop_assert!(k < 3);
        }

        #[test]
        fn mapped_values_hold(x in (0i64..50).prop_map(|v| v * 2)) {
            prop_assert_eq!(x % 2, 0);
        }
    }
}

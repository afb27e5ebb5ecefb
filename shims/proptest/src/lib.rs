//! Offline API-subset shim for the `proptest` crate.
//!
//! Supports the property-test shapes used in this workspace:
//!
//! ```text
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(64))]
//!
//!     #[test]
//!     fn prop(xs in proptest::collection::vec((0u8..4, any::<bool>()), 1..200), k in 0.1f64..10.0) {
//!         prop_assert!(...);
//!         prop_assert_eq!(a, b);
//!     }
//! }
//! ```
//!
//! Strategies: integer/float ranges (half-open and inclusive),
//! `any::<bool|u8|u16|u32|u64|usize>()`, tuples up to arity 4, and
//! `collection::vec(strategy, len_range)`. Case generation is seeded
//! from the test function's name, so runs are deterministic and
//! failures reproduce. There is **no shrinking**: a failing case panics
//! with its case index (and the standard assert message); re-running
//! reaches the identical case.

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for "any value of `T`" — see [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// The `any::<T>()` entry point.
    #[must_use]
    pub fn any<T>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    macro_rules! any_uniform_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    any_uniform_int!(u8, u16, u32, u64, usize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut StdRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0);
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
    }

    /// Strategy producing `Vec`s — see [`crate::collection::vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        pub(crate) element: S,
        pub(crate) len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.len.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::{Strategy, VecStrategy};
    use std::ops::Range;

    /// A strategy for `Vec`s of `element` values with a length drawn
    /// uniformly from `len` (half-open, like upstream's common usage).
    #[must_use]
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

pub mod test_runner {
    //! Test-runner configuration and the deterministic case RNG.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// How many cases each property runs.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Deterministic per-test generator: seeded from the test's name
    /// (FNV-1a), so every run replays the same cases.
    #[must_use]
    pub fn rng_for_test(name: &str) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }
}

pub mod prelude {
    //! The usual `use proptest::prelude::*;` imports.

    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts `cond`, reporting the failing property case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+)
    };
}

/// Asserts `left == right`, reporting the failing property case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        assert_eq!($left, $right, $($fmt)+)
    };
}

/// Asserts `left != right`, reporting the failing property case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        assert_ne!($left, $right, $($fmt)+)
    };
}

/// The `proptest! { ... }` block: expands each contained `fn` into a
/// `#[test]` that replays `cases` deterministic generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::rng_for_test(stringify!($name));
            for __case in 0..__cfg.cases {
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                let __run = || -> () { $body };
                if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(__run)) {
                    eprintln!(
                        "proptest shim: property `{}` failed at deterministic case {}/{}",
                        stringify!($name), __case + 1, __cfg.cases,
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Generated values respect their strategies.
        #[test]
        fn strategies_in_bounds(
            xs in crate::collection::vec((0u8..4, 1u32..32, any::<bool>()), 1..50),
            k in 0.5f64..2.0,
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 50);
            for (a, b, _) in xs {
                prop_assert!(a < 4);
                prop_assert!((1..32).contains(&b));
            }
            prop_assert!((0.5..2.0).contains(&k));
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        use crate::strategy::Strategy;
        let s = crate::collection::vec(0u32..100, 5..6);
        let mut r1 = crate::test_runner::rng_for_test("t");
        let mut r2 = crate::test_runner::rng_for_test("t");
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }
}

//! Offline stand-in for the subset of `proptest` this workspace uses.
//! The container cannot reach crates.io, so the workspace wires this
//! crate in by path as a dev-dependency.
//!
//! Semantics vs. real proptest:
//! - Cases are generated from a per-test deterministic RNG (hash of
//!   `module_path!() :: test name` plus the case index), so every run,
//!   machine, and CI job sees the same inputs. There is no persistence
//!   file and no shrinking — a failing case panics with the case index
//!   so it can be replayed exactly.
//! - Case counts come from `ProptestConfig::with_cases` and can be
//!   capped globally with the `PROPTEST_CASES` environment variable
//!   (useful to keep CI wall-time bounded).
//!
//! Supported surface: the `proptest!` macro (with optional
//! `#![proptest_config(..)]`), `prop_assert!`/`prop_assert_eq!`/
//! `prop_assert_ne!`, `prop_oneof!`, `Just`, range and tuple
//! strategies, `prop::collection::vec`, and the `prop_map` /
//! `prop_flat_map` / `prop_filter` / `boxed` combinators.

pub mod test_runner {
    /// Failure/rejection carrier so helper functions can use the
    /// `Result<(), TestCaseError>` + `?` idiom from real proptest.
    /// In this shim `prop_assert!` panics rather than returning `Err`,
    /// but explicit `Err(TestCaseError::fail(..))` also works: the
    /// generated test unwraps the body's `Result` and panics on `Err`.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "test case failed: {r}"),
                TestCaseError::Reject(r) => write!(f, "test case rejected: {r}"),
            }
        }
    }

    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic per-test RNG (SplitMix64 over a name+case hash).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn deterministic(name: &str, case: u32) -> Self {
            // FNV-1a over the fully qualified test name, mixed with the
            // case index so consecutive cases decorrelate.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng {
                state: h ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// Mirror of `proptest::test_runner::Config` (the parts we use).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
        /// Unused by the shim (no shrinking); kept for source
        /// compatibility with configs that set it.
        pub max_shrink_iters: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Self::default()
            }
        }

        /// Effective case count: the configured count, capped by the
        /// `PROPTEST_CASES` env var when set. This is what keeps CI
        /// deterministic *and* time-bounded.
        pub fn resolved_cases(&self) -> u32 {
            match std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse::<u32>().ok())
            {
                Some(cap) => self.cases.min(cap.max(1)),
                None => self.cases,
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 64,
                max_shrink_iters: 0,
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Generator of arbitrary values. Unlike real proptest there is no
    /// value tree / shrinking: `generate` produces the value directly.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
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

        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, T, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;

        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter '{}': rejected 1000 candidates", self.whence)
        }
    }

    /// Uniform choice between boxed strategies (backs `prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as i128) - (self.start as i128);
                    assert!(span > 0, "empty range strategy");
                    (self.start as i128 + (rng.next_u64() as u128 % span as u128) as i128) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let span = (*self.end() as i128) - (*self.start() as i128) + 1;
                    assert!(span > 0, "empty range strategy");
                    (*self.start() as i128
                        + (rng.next_u64() as u128 % span as u128) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.end > self.start, "empty float range strategy");
                    self.start + ((self.end - self.start) as f64 * rng.unit_f64()) as $t
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+);)*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
        (A, B, C, D, E);
        (A, B, C, D, E, F);
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: a fixed size or a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.end > r.start, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let want = self.size.lo + rng.below(span) as usize;
            let mut set = std::collections::BTreeSet::new();
            // Duplicates shrink the set; retry a bounded number of times
            // to approach the requested size (real proptest does the
            // same with a rejection budget).
            let mut attempts = 0;
            while set.len() < want && attempts < want * 10 + 16 {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }

    /// `prop::collection::btree_set(element, size)`.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Namespace mirror so `prop::collection::vec(..)` resolves.
pub mod prop {
    pub use crate::collection;
}

pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// The test-definition macro. Each generated test runs
/// `config.resolved_cases()` cases, re-seeding a deterministic RNG per
/// case from the test's fully qualified name, and reports the failing
/// case index on panic.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let cases = config.resolved_cases();
                for case in 0..cases {
                    let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        let mut __rng = $crate::test_runner::TestRng::deterministic(
                            concat!(module_path!(), "::", stringify!($name)),
                            case,
                        );
                        $(let $pat = $crate::strategy::Strategy::generate(
                            &($strat), &mut __rng);)*
                        // Mirror real proptest: the body runs inside a
                        // Result-returning closure so `?` on
                        // `Result<_, TestCaseError>` works.
                        let __body = || -> ::std::result::Result<
                            (),
                            $crate::test_runner::TestCaseError,
                        > {
                            $body
                            Ok(())
                        };
                        if let Err(e) = __body() {
                            panic!("{}", e);
                        }
                    }));
                    if let Err(payload) = result {
                        eprintln!(
                            "proptest case {case}/{cases} failed for {}",
                            stringify!($name)
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

//! The rule families. Each module exposes a `check` function over
//! pre-parsed [`crate::parser::SourceFile`]s and returns raw diagnostics;
//! allow-comment suppression happens in [`crate::run`].

pub mod atomic_ordering;
pub mod blocking;
pub mod metrics_discipline;

//! The declarative experiment pipeline.
//!
//! The paper's evaluation is one grid — workloads × optimization levels ×
//! original/synthetic × machines × cache sizes, measured and rendered per
//! figure — but the harness used to restate that grid in every figure
//! function: each built its own unit vector, called the scheduler itself,
//! and re-derived result ordering.  This module factors the shared shape
//! out once:
//!
//! * [`Experiment`] holds the unit grid; [`Experiment::measure`] fans the
//!   units out on the process-wide work-stealing [`Runtime`] (honoring
//!   [`bsg_runtime::with_workers`] overrides) and returns a [`Measured`]
//!   whose values are in **submission order** — figure text derived from it
//!   is byte-identical at any worker count.
//! * [`cross`] and [`refs`] build the axis products declaratively, so a
//!   figure spec reads as "per workload, per (level, variant)" instead of
//!   nested `flat_map`s.
//! * [`Section`] + the [`crate::FIGURES`] table turn every table and figure
//!   into a name lookup: which sections to render, over which input sizes —
//!   a data change, not a code change, when a figure is added.
//!
//! A figure function is now a ~20-line spec: build the grid, give the
//! measure closure, zip the chunked results into rows.

use crate::WorkloadArtifacts;
use bsg_runtime::{panic_message, BsgError, BsgResult, Runtime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::slice::ChunksExact;

/// Builds every `(a, b)` pair, `a`-major (`b` is the fast axis), the order
/// every figure renders its columns in.
pub fn cross<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|x| b.iter().map(move |y| (x.clone(), y.clone())))
        .collect()
}

/// Borrows a slice element-wise (`&[T]` → `Vec<&T>`), so item axes compose
/// with [`cross`] without cloning the items.
pub fn refs<T>(items: &[T]) -> Vec<&T> {
    items.iter().collect()
}

/// A declarative experiment: a grid of independent measurement units.
pub struct Experiment<U: Send> {
    units: Vec<U>,
}

impl<U: Send> Experiment<U> {
    /// An experiment over an explicit unit grid (usually built with
    /// [`cross`]).
    pub fn over(units: Vec<U>) -> Self {
        Experiment { units }
    }

    /// Measures every unit on the work-stealing scheduler, one task per
    /// unit, returning the values in submission order.
    pub fn measure<M, F>(self, measure: F) -> Measured<U, M>
    where
        M: Send,
        F: Fn(&U) -> M + Sync,
    {
        let values = Runtime::current().map(self.units, |u| {
            let v = measure(&u);
            (u, v)
        });
        let (units, values) = values.into_iter().unzip();
        Measured { units, values }
    }

    /// [`measure`](Experiment::measure) with per-unit fault isolation: a
    /// unit whose measurement panics (or overruns a scheduler deadline)
    /// contributes `Err` in its own slot, and every other unit's value is
    /// exactly what the clean run would produce — the chaos suite pins that
    /// byte-for-byte.
    pub fn try_measure<M, F>(self, measure: F) -> Measured<U, BsgResult<M>>
    where
        U: Sync,
        M: Send,
        F: Fn(&U) -> M + Sync,
    {
        let units = self.units;
        let measure = &measure;
        let values = Runtime::current()
            .try_run(units.iter().map(|u| move || measure(u)).collect::<Vec<_>>());
        Measured { units, values }
    }
}

/// The outcome of an [`Experiment`]: units and their measured values, index-
/// aligned in submission order.
pub struct Measured<U, M> {
    /// The measured units, in the order they were submitted.
    pub units: Vec<U>,
    /// One value per unit, same order.
    pub values: Vec<M>,
}

impl<U, M> Measured<U, M> {
    /// The values grouped `per` fast-axis points: one chunk per slow-axis
    /// item (e.g. one chunk of 4 level/variant points per workload).
    ///
    /// `points` must be non-zero (`chunks_exact` panics on 0); callers whose
    /// chunk size derives from a possibly-empty axis clamp with `.max(1)`.
    pub fn per(&self, points: usize) -> ChunksExact<'_, M> {
        self.values.chunks_exact(points)
    }

    /// `(unit, value)` rows in submission order.
    pub fn rows(&self) -> impl Iterator<Item = (&U, &M)> {
        self.units.iter().zip(self.values.iter())
    }
}

/// One renderable section of the report: either standalone (tables and
/// figures that need no suite artifacts) or a figure over the prepared
/// suite.
#[derive(Clone, Copy)]
pub enum Section {
    /// Renders without suite artifacts (Table I/III, Figures 2–3).
    Standalone(fn() -> String),
    /// Renders from prepared workload artifacts.
    Suite(fn(&[WorkloadArtifacts]) -> String),
}

impl Section {
    /// Renders the section (`artifacts` is ignored by standalone sections).
    pub fn render(&self, artifacts: &[WorkloadArtifacts]) -> String {
        match self {
            Section::Standalone(f) => f(),
            Section::Suite(f) => f(artifacts),
        }
    }

    /// [`render`](Section::render) behind a panic boundary: a section that
    /// panics becomes an `Err` instead of tearing down the whole report, so
    /// `all_experiments` can keep printing the sections after it.
    pub fn try_render(&self, artifacts: &[WorkloadArtifacts]) -> BsgResult<String> {
        catch_unwind(AssertUnwindSafe(|| self.render(artifacts))).map_err(|payload| {
            BsgError::TaskPanic {
                message: panic_message(payload.as_ref()),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_is_a_major_and_refs_borrows() {
        let grid = cross(&['x', 'y'], &[1, 2, 3]);
        assert_eq!(
            grid,
            vec![('x', 1), ('x', 2), ('x', 3), ('y', 1), ('y', 2), ('y', 3)]
        );
        let items = vec![String::from("a"), String::from("b")];
        let borrowed = refs(&items);
        assert_eq!(borrowed, vec![&items[0], &items[1]]);
    }

    #[test]
    fn measure_preserves_submission_order_and_pairs_units() {
        let m = Experiment::over((0u64..97).collect()).measure(|u| u * 3);
        assert_eq!(m.units, (0u64..97).collect::<Vec<_>>());
        assert_eq!(m.values, (0u64..97).map(|u| u * 3).collect::<Vec<_>>());
        assert_eq!(m.per(97).count(), 1);
        assert_eq!(m.rows().count(), 97);
    }
}

//! The declarative experiment pipeline.
//!
//! The paper's evaluation is one grid — workloads × optimization levels ×
//! original/synthetic × machines × cache sizes, measured and rendered per
//! figure.  This module holds its shared shape:
//!
//! * [`Section`] + the [`crate::FIGURES`] table turn every table and figure
//!   into a name lookup: which sections to render, over which input sizes —
//!   a data change, not a code change, when a figure is added.
//! * A measuring section ([`Measure`]) is a list of requests plus a render
//!   over their observations; [`render_sections`] serves the requests of
//!   every section it renders from one plan ([`mod@crate::observe`]), so a
//!   binary that several figures read runs once.  Results are in
//!   submission order, so figure text is byte-identical at any worker
//!   count.

use crate::observe::{observe, Observation, Request};
use crate::WorkloadArtifacts;
use bsg_runtime::{panic_message, BsgError, BsgResult, Runtime};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A section that measures through the report-wide plan
/// ([`mod@crate::observe`]): it lists the requests it reads, and renders from
/// their observations.
pub trait Measure: Sync {
    /// The requests the section reads, in the order [`render`](Self::render)
    /// takes their observations.
    fn requests(&self, artifacts: &[WorkloadArtifacts]) -> Vec<Request>;

    /// Renders the section from one observation per request.
    fn render(&self, artifacts: &[WorkloadArtifacts], observations: &[Observation]) -> String;
}

/// One renderable section of the report: standalone (tables and figures
/// that need no suite artifacts), a figure over the prepared suite, or a
/// figure measured through the report-wide plan.
#[derive(Clone, Copy)]
pub enum Section {
    /// Renders without suite artifacts (Table I/III, Figures 2–3).
    Standalone(fn() -> String),
    /// Renders from prepared workload artifacts.
    Suite(fn(&[WorkloadArtifacts]) -> String),
    /// Renders from observations of the prepared suite (Figures 5–11).
    Measure(&'static dyn Measure),
}

impl Section {
    /// Renders the section alone (`artifacts` is ignored by standalone
    /// sections), a report of one section, behind a panic boundary: a
    /// section that fails becomes an `Err`.
    pub fn try_render(&self, artifacts: &[WorkloadArtifacts]) -> BsgResult<String> {
        let mut texts = render_sections(std::slice::from_ref(self), artifacts);
        texts.pop().expect("one result per section")
    }
}

/// A section after the first pass of [`render_sections`].
enum Pass {
    /// A section that needs no observations, rendered.
    Rendered(String),
    /// A measuring section and its requests.
    Planned(&'static dyn Measure, Vec<Request>),
}

/// Renders `sections` over `artifacts`, one result per section in order.
/// The measuring sections share one [`observe`] plan.  A first scheduler
/// batch plans every measuring section and renders every other one, each
/// task behind its own panic boundary; then every request of every section
/// is served with one execution per distinct compiled program.  A fault —
/// in a section's planning, in a compilation or shared execution it reads,
/// or in its renderer — fails exactly the sections that read it; every
/// other section renders what it renders alone.
pub fn render_sections(
    sections: &[Section],
    artifacts: &[WorkloadArtifacts],
) -> Vec<BsgResult<String>> {
    let passes = Runtime::current().try_map(sections.to_vec(), |section| match section {
        Section::Standalone(f) => Pass::Rendered(f()),
        Section::Suite(f) => Pass::Rendered(f(artifacts)),
        Section::Measure(m) => Pass::Planned(m, m.requests(artifacts)),
    });
    let mut requests = Vec::new();
    let mut ranges = Vec::new();
    for pass in &passes {
        let start = requests.len();
        if let Ok(Pass::Planned(_, plan)) = pass {
            requests.extend_from_slice(plan);
        }
        ranges.push(start..requests.len());
    }
    let observed = observe(artifacts, &requests).observations;
    passes
        .into_iter()
        .zip(ranges)
        .map(|(pass, range)| match pass? {
            Pass::Rendered(text) => Ok(text),
            Pass::Planned(m, _) => {
                let observations = observed[range]
                    .iter()
                    .cloned()
                    .collect::<BsgResult<Vec<_>>>()?;
                isolate(|| m.render(artifacts, &observations))
            }
        })
        .collect()
}

/// Runs `f` behind a panic boundary.
fn isolate<R>(f: impl FnOnce() -> R) -> BsgResult<R> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| BsgError::TaskPanic {
        message: panic_message(payload.as_ref()),
    })
}

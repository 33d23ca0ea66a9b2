//! The experiment harness: end-to-end scheme execution for every table and
//! figure of the paper's evaluation (§5).
//!
//! [`Lab`] assembles one target HPC system: its stock images, package
//! repositories, native toolchain and performance model. [`AppArtifacts`]
//! carries an application through the four evaluation schemes:
//!
//! * **original** — the generic image built with the default toolchain and
//!   software stack (user side),
//! * **native** — built directly on the target system with the vendor
//!   toolchain and system stack,
//! * **adapted** — the original's coMtainer extended image, rebuilt and
//!   redirected on the system side,
//! * **optimized** — adapted plus LTO and the full PGO feedback loop
//!   (instrument → simulated run → profile → re-optimize).
//!
//! Experiment binaries (`src/bin/fig*.rs`, `table*.rs`) print the same
//! rows/series the paper reports; [`paper`] computes and renders the rows
//! of Figures 9–11 and Table 3, which `tests/paper_figures.rs` pins.

pub mod harness;
pub mod paper;
pub mod report;

pub use harness::{AppArtifacts, Lab, Scheme};

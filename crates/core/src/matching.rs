//! Motion matching (paper Eq. 5 and Eq. 6).
//!
//! Given a measured direction `d` and offset `o`, the probability that a
//! user walked from location `i` to `j` is the product of discretized
//! Gaussian masses from the motion database:
//!
//! ```text
//! P_{i,j}(d, o) = D_{i,j}(d) · O_{i,j}(o)
//! ```
//!
//! and over a candidate *set* `S` of possible starting locations
//! (Eq. 6):
//!
//! ```text
//! P_{S,j}(d, o) = Σ_{i ∈ S} P(x = i) · P_{i,j}(d, o)
//! ```
//!
//! Eq. 5 is served by a [`MotionKernel`] built here once per
//! `(MotionDb, config)`; Eq. 6 is the inner sum of
//! [`crate::batch::BatchLocalizer`]'s Eq. 7 step. The naive references
//! are `moloc_verify::oracle::{pair_probability, fuse_posterior}`.

use crate::config::MoLocConfig;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::matrix::MotionDb;

/// Precomputes the [`MotionKernel`] for `db` under `config` — the
/// lookup-table form of Eq. 5 every online localizer reads.
///
/// # Panics
///
/// Panics if `config` is invalid (see [`MoLocConfig::validate`]).
pub fn build_kernel(db: &MotionDb, config: &MoLocConfig) -> MotionKernel {
    config.validate();
    MotionKernel::build(db, &config.kernel_config())
}

//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (§8).
//!
//! Each `fig*`/`table*` function produces the rows/series the corresponding
//! figure or table plots; the binaries in `src/bin/` print them as aligned
//! text tables. Shot counts default to values that finish in seconds on a
//! laptop; pass larger counts for tighter error bars.

pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::BenchReport;

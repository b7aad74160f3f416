//! Shared code for the `tables` binary: the printers that regenerate each
//! of the paper's tables and figures from the live models, and the
//! paper-comparison report behind EXPERIMENTS.md.

#![warn(unreachable_pub)]

pub mod compare;
pub mod json;
pub mod phases;
pub mod printers;

/// Every artifact a bare `tables` run regenerates, in print order — the one
/// list the binary's default run, its text dispatch, [`json::artifact_json`]
/// and their tests share.
pub const ARTIFACTS: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table5c",
    "table6",
    "table6c",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "pipeline",
    "phases",
    "uncertainty",
    "compare",
];

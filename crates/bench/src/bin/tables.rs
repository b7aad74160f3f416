//! Regenerate the paper's tables and figures from the live models.
//!
//! ```sh
//! cargo run -p rcuda-bench --bin tables            # everything
//! cargo run -p rcuda-bench --bin tables -- table4  # one artifact
//! cargo run -p rcuda-bench --bin tables -- compare # paper-vs-ours report
//! ```
//!
//! Artifacts: [`rcuda_bench::ARTIFACTS`], plus `workloads` — the §V
//! closed-loop "workload × loop × measured/estimated/error" table at full
//! size, by name only (it measures a live loopback daemon, so its numbers
//! are wall-clock). Pass `--json` for machine-readable output.

use rcuda_bench::compare::{full_report, render_markdown, summarize};
use rcuda_bench::json::artifact_json;
use rcuda_bench::phases::print_phase_profile;
use rcuda_bench::printers::*;
use rcuda_bench::ARTIFACTS;
use rcuda_model::SimulatedTestbed;
use rcuda_netsim::NetworkId;
use rcuda_workloads::{run_suite, SuiteConfig};

const SEED: u64 = 42;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = if let Some(pos) = args.iter().position(|a| a == "--json") {
        args.remove(pos);
        true
    } else {
        false
    };
    let wanted: Vec<&str> = if args.is_empty() {
        ARTIFACTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    let testbed = SimulatedTestbed::new();
    // Not in `ARTIFACTS`: runs the full-size suite against a live loopback
    // daemon.
    let workloads = || run_suite(&SuiteConfig::bench(SEED)).expect("workload suite");
    for what in wanted {
        if json {
            let doc = match what {
                "workloads" => serde_json::to_string_pretty(&workloads().to_json()).ok(),
                _ => artifact_json(what, &testbed),
            };
            match doc {
                Some(s) => println!("{s}"),
                None => {
                    eprintln!("unknown artifact `{what}`");
                    std::process::exit(2);
                }
            }
            continue;
        }
        let artifact = match what {
            "table1" => print_table1(),
            "table2" => print_table2(),
            "table3" => print_table3(),
            "table4" => print_table4(&testbed),
            "table5" => print_table5(),
            "table5c" => print_table5c(),
            "table6" => print_table6(&testbed),
            "table6c" => print_table6c(&testbed),
            "fig3" => print_latency_figure(NetworkId::GigaE, SEED),
            "fig4" => print_latency_figure(NetworkId::Ib40G, SEED),
            "fig5" => print_execution_figure(NetworkId::GigaE, &testbed),
            "fig6" => print_execution_figure(NetworkId::Ib40G, &testbed),
            "pipeline" => print_pipeline_table(4),
            "phases" => print_phase_profile(4096, 2048),
            "uncertainty" => print_uncertainty(0.01, 100),
            "workloads" => workloads().table(),
            "compare" => {
                let report = full_report(&testbed);
                let summary = summarize(&report);
                format!(
                    "Paper vs. reproduction ({} comparisons)\n\
                     max |deviation| {:.2}%  mean |deviation| {:.2}% \
                     (value cells; Table IV rows compared in percentage points)\n\n{}",
                    summary.count,
                    summary.max_abs_rel_dev * 100.0,
                    summary.mean_abs_rel_dev * 100.0,
                    render_markdown(&report)
                )
            }
            other => {
                eprintln!("unknown artifact `{other}`; see --help text in the module docs");
                std::process::exit(2);
            }
        };
        println!("{artifact}");
        println!("{}", "=".repeat(78));
    }
}

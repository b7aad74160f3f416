//! Machine-readable (JSON) emitters for the regenerated artifacts — for
//! plotting scripts and downstream analysis.

use rcuda_core::Family;
use rcuda_model::figures::{execution_figure, latency_figure};
use rcuda_model::tables::{
    table2, table3, table4, table5, table5_compressed, table6, table6_compressed,
};
use rcuda_model::SimulatedTestbed;
use rcuda_netsim::NetworkId;
use rcuda_proto::sizes::OpKind;
use serde_json::json;

/// Serialize one artifact as pretty JSON; `None` for unknown names.
pub fn artifact_json(what: &str, testbed: &SimulatedTestbed) -> Option<String> {
    let value = match what {
        "table1" => {
            let ops: Vec<_> = OpKind::ALL
                .iter()
                .map(|op| {
                    let totals = op.totals();
                    json!({
                        "operation": op.name(),
                        "fields": op.fields().iter().map(|f| json!({
                            "field": f.field,
                            "send": f.send.map(|s| s.to_string()),
                            "recv": f.recv.map(|s| s.to_string()),
                        })).collect::<Vec<_>>(),
                        "total_send": totals.send.to_string(),
                        "total_recv": totals.recv.to_string(),
                    })
                })
                .collect();
            json!({ "table": 1, "operations": ops })
        }
        "table2" => json!({
            "table": 2,
            "mm": table2(Family::MatMul),
            "fft": table2(Family::Fft),
        }),
        "table3" => json!({
            "table": 3,
            "mm": table3(Family::MatMul),
            "fft": table3(Family::Fft),
        }),
        "table4" => json!({
            "table": 4,
            "mm": table4(Family::MatMul, testbed),
            "fft": table4(Family::Fft, testbed),
        }),
        "table5" => json!({
            "table": 5,
            "mm": table5(Family::MatMul),
            "fft": table5(Family::Fft),
        }),
        "table5c" => json!({
            "table": "5c",
            "mm": table5_compressed(Family::MatMul),
            "fft": table5_compressed(Family::Fft),
        }),
        "table6" => json!({
            "table": 6,
            "mm": table6(Family::MatMul, testbed),
            "fft": table6(Family::Fft, testbed),
        }),
        "table6c" => json!({
            "table": "6c",
            "mm": table6_compressed(Family::MatMul, testbed),
            "fft": table6_compressed(Family::Fft, testbed),
        }),
        "fig3" => json!({ "figure": 3, "data": latency_figure(NetworkId::GigaE, 42) }),
        "fig4" => json!({ "figure": 4, "data": latency_figure(NetworkId::Ib40G, 42) }),
        "fig5" => json!({
            "figure": 5,
            "mm": execution_figure(Family::MatMul, NetworkId::GigaE, testbed),
            "fft": execution_figure(Family::Fft, NetworkId::GigaE, testbed),
        }),
        "fig6" => json!({
            "figure": 6,
            "mm": execution_figure(Family::MatMul, NetworkId::Ib40G, testbed),
            "fft": execution_figure(Family::Fft, NetworkId::Ib40G, testbed),
        }),
        "pipeline" => {
            use rcuda_core::CaseStudy;
            use rcuda_model::pipeline::estimate_pipelined;
            let grid = |family: Family| -> Vec<_> {
                CaseStudy::standard_grid(family)
                    .into_iter()
                    .flat_map(|case| {
                        [NetworkId::GigaE, NetworkId::Ib40G]
                            .map(|net| estimate_pipelined(case, net, 4))
                    })
                    .collect()
            };
            json!({
                "table": "pipeline",
                "depth": 4,
                "mm": grid(Family::MatMul),
                "fft": grid(Family::Fft),
            })
        }
        // Text-only artifacts: the rendered report, wrapped.
        "phases" => json!({
            "artifact": "phases",
            "text": crate::phases::print_phase_profile(4096, 2048),
        }),
        "uncertainty" => json!({
            "artifact": "uncertainty",
            "text": crate::printers::print_uncertainty(0.01, 100),
        }),
        "compare" => {
            let report = crate::compare::full_report(testbed);
            json!({
                "comparisons": report.iter().map(|c| json!({
                    "experiment": c.experiment,
                    "cell": c.cell,
                    "paper": c.paper,
                    "ours": c.ours,
                    "rel_dev": c.rel_dev(),
                })).collect::<Vec<_>>(),
            })
        }
        _ => return None,
    };
    Some(serde_json::to_string_pretty(&value).expect("artifacts serialize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_emits_valid_json() {
        let tb = SimulatedTestbed::new();
        for what in crate::ARTIFACTS {
            let s = artifact_json(what, &tb).unwrap_or_else(|| panic!("missing {what}"));
            let v: serde_json::Value = serde_json::from_str(&s).expect(what);
            assert!(v.is_object(), "{what}");
        }
        assert!(artifact_json("nonsense", &tb).is_none());
    }

    #[test]
    fn table6_json_carries_the_grid() {
        let tb = SimulatedTestbed::new();
        let s = artifact_json("table6", &tb).unwrap();
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v["mm"].as_array().unwrap().len(), 8);
        assert_eq!(v["fft"].as_array().unwrap().len(), 7);
    }
}

//! From raw rounds to the named metrics, and the lines they print as.

use crate::stats::{self, Tail};
use crate::workloads::{Outcome, Round};
use std::fmt::Write as _;

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// The end-to-end metrics: name, unit, direction, regression bound (the
/// share of the parent's median a change may cost). `BENCHMARK.json`
/// states the same table; a test keeps the two in step.
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("calls_per_s", "1/s", Better::Higher, 0.20),
    ("call_p50_us", "us", Better::Lower, 0.15),
    ("call_tail_us", "us", Better::Lower, 0.25),
    ("cpu_us_per_call", "us", Better::Lower, 0.20),
    ("h2d_MBps", "MB/s", Better::Higher, 0.25),
    ("d2h_MBps", "MB/s", Better::Higher, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics of a run plus the facts needed to read them.
pub struct Summary {
    pub metrics: Vec<Metric>,
    pub tail: Tail,
    pub rounds: usize,
    pub invalid_rounds: usize,
    pub samples_per_round: usize,
    /// Tail generator lateness in ns over the valid rounds (open loop).
    pub late_tail_ns: Option<u64>,
}

/// Every end-to-end metric as the median over rounds of the per-round
/// statistic. Rounds whose open-loop generator fell behind are left out
/// (unless none kept up, in which case all are used and the count shows).
pub fn summarise(out: &Outcome) -> Option<Summary> {
    let valid: Vec<&Round> = out
        .rounds
        .iter()
        .filter(|r| r.valid && !r.lat.is_empty())
        .collect();
    let used: Vec<&Round> = if valid.is_empty() {
        out.rounds.iter().filter(|r| !r.lat.is_empty()).collect()
    } else {
        valid
    };
    if used.is_empty() || out.setup_s.is_empty() {
        return None;
    }
    let over_rounds = |f: &dyn Fn(&Round) -> Option<f64>| -> f64 {
        let values: Vec<f64> = used.iter().filter_map(|r| f(r)).collect();
        if values.is_empty() {
            f64::NAN
        } else {
            stats::median(&values)
        }
    };
    let lats: Vec<&[u64]> = used.iter().map(|r| r.lat.as_slice()).collect();
    let tail = stats::tail(&lats);
    let metrics = vec![
        Metric::new(
            "calls_per_s",
            over_rounds(&|r| Some(r.calls as f64 / r.wall.as_secs_f64())),
            "1/s",
        ),
        Metric::new(
            "call_p50_us",
            over_rounds(&|r| Some(stats::percentile(&r.lat, 0.50) as f64 / 1e3)),
            "us",
        ),
        Metric::new("call_tail_us", tail.value as f64 / 1e3, "us"),
        Metric::new(
            "cpu_us_per_call",
            over_rounds(&|r| Some(r.cpu.as_secs_f64() * 1e6 / r.calls as f64)),
            "us",
        ),
        Metric::new("h2d_MBps", over_rounds(&|r| r.h2d.mbps()), "MB/s"),
        Metric::new("d2h_MBps", over_rounds(&|r| r.d2h.mbps()), "MB/s"),
        Metric::new("setup_s", stats::median(&out.setup_s), "s"),
    ];
    let mut late: Vec<u64> = used.iter().flat_map(|r| r.late.iter().copied()).collect();
    late.sort_unstable();
    let late_tail_ns = (!late.is_empty()).then(|| late[stats::tail_rank(late.len()) - 1]);
    Some(Summary {
        metrics,
        tail,
        rounds: used.len(),
        invalid_rounds: out.rounds.iter().filter(|r| !r.valid).count(),
        samples_per_round: used.iter().map(|r| r.lat.len()).min().unwrap_or(0),
        late_tail_ns,
    })
}

/// The result line the driver reads: one JSON object, values with all
/// their digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for m in metrics {
        if !body.is_empty() {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

/// JSON has no NaN or infinity; a metric that could not be measured reads
/// as `null`, which the driver refuses — better than a made-up number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `name  value unit` lines, aligned.
pub fn metric_lines(workload: &str, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "{workload:<20} {:<34} {:>16.4} {}",
            m.name, m.value, m.unit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Flow, WORKLOADS};
    use std::time::Duration;

    fn round(calls: u64, wall_ms: u64, lat: Vec<u64>) -> Round {
        Round {
            wall: Duration::from_millis(wall_ms),
            cpu: Duration::from_millis(wall_ms / 2),
            calls,
            lat,
            h2d: Flow {
                bytes: 4_000_000,
                nanos: 2_000_000,
            },
            d2h: Flow::default(),
            late: Vec::new(),
            valid: true,
        }
    }

    #[test]
    fn metrics_are_medians_over_rounds() {
        let out = Outcome {
            setup_s: vec![0.5, 0.1, 0.3],
            rounds: vec![
                round(1000, 1000, vec![10_000, 20_000, 30_000]),
                round(3000, 1000, vec![11_000, 21_000, 31_000]),
                round(2000, 1000, vec![12_000, 22_000, 900_000]),
            ],
            attempted: 6000,
            failed: 0,
            ..Outcome::default()
        };
        let s = summarise(&out).unwrap();
        let get = |n: &str| s.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("calls_per_s"), 2000.0);
        assert_eq!(get("call_p50_us"), 21.0);
        assert_eq!(get("cpu_us_per_call"), 250.0, "median of 500, 166.7, 250");
        assert_eq!(get("h2d_MBps"), 2000.0);
        assert!(get("d2h_MBps").is_nan(), "nothing moved that way");
        assert_eq!(get("setup_s"), 0.3);
        assert_eq!(
            get("call_tail_us"),
            900.0,
            "3 samples a round: pooled maximum"
        );
        assert_eq!(s.metrics.len(), END_TO_END.len());
        for (m, (name, unit, _, _)) in s.metrics.iter().zip(END_TO_END) {
            assert_eq!((m.name.as_str(), m.unit), (name, unit));
        }
    }

    #[test]
    fn late_rounds_are_left_out_unless_all_are_late() {
        let mut late = round(10, 1000, vec![5_000_000]);
        late.valid = false;
        let out = Outcome {
            setup_s: vec![0.1],
            rounds: vec![round(10, 1000, vec![1_000]), late.clone()],
            ..Outcome::default()
        };
        let s = summarise(&out).unwrap();
        assert_eq!((s.rounds, s.invalid_rounds), (1, 1));
        assert_eq!(s.metrics[1].value, 1.0);
        let all_late = Outcome {
            setup_s: vec![0.1],
            rounds: vec![late],
            ..Outcome::default()
        };
        assert_eq!(summarise(&all_late).unwrap().rounds, 1);
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("a_b", 1.25, "ms"),
                Metric::new("c", f64::NAN, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` must name exactly the workloads and end-to-end
    /// metrics (unit, direction, bound) this crate reports.
    #[test]
    fn benchmark_json_matches_the_crate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, why) in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}")),
                "workload {name}"
            );
            assert!(
                why.len() <= 200,
                "why of {name} is {} characters",
                why.len()
            );
        }
        for (name, unit, better, bound) in END_TO_END {
            let better = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}");
            assert!(json.contains(&entry), "end-to-end entry {entry}");
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
        assert_eq!(json.matches("\"bound\"").count(), END_TO_END.len());
    }
}

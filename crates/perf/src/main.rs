//! `rcuda-perf`: the repo's benchmark.
//!
//! ```text
//! cargo run --release -p rcuda-perf -- [--workload <name>] [--seed <n>]
//!     [--seconds <n>] [--trace [0|1]] [--quick] [--repeat-check]
//! ```
//!
//! Runs the named workloads (see `workloads::WORKLOADS`) against the real
//! stack on loopback, verifies every output, and prints every metric by
//! name with its unit; after each workload comes one JSON result line
//! (`correct`, `attempted`, `failed`, `metrics`). Untraced runs report the
//! end-to-end metrics; `--trace` runs one traced round of the workload,
//! prints its call-anatomy table, writes a Chrome trace under
//! `target/perf/`, runs the per-layer probes, and reports the per-layer
//! metrics instead. See `README.md` beside this crate.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("rcuda-perf reads CPU time and places threads through 64-bit Linux calls");

mod cpu;
mod gen;
mod layers;
mod pace;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Better, Metric, END_TO_END};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Plan, WORKLOADS};

/// The seed used when `--seed` is not given (the paper's year and month).
const DEFAULT_SEED: u64 = 201109;
/// Seconds one workload measures by default (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;
/// Rounds per measured second. Many short rounds rather than a few long
/// ones: this host slows by up to half for 0.1-1.5 s at a time, and the
/// median over rounds ignores such a burst only if it spoils a minority of
/// them.
const ROUNDS_PER_SECOND: f64 = 3.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|(n, _)| *n == name) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "unknown workload {name}; one of {}",
                        names.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace 1` / `--trace 0` for the driver, bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn plan(args: &Args) -> Plan {
    let rounds = ((args.seconds * ROUNDS_PER_SECOND).ceil() as usize).max(5);
    let full = Plan {
        seed: args.seed,
        rounds,
        round: Duration::from_secs_f64(args.seconds / rounds as f64),
        warmup: Duration::from_secs_f64((args.seconds / 10.0).min(1.0)),
        setups: 41,
        // A trial lasts a little over the broker's 1 s `down_after`.
        trials: ((args.seconds / 2.0) as usize).max(5),
        sink: None,
        placement: cpu::Placement::detect(),
    };
    if args.quick {
        return Plan {
            rounds: 1,
            round: Duration::from_millis(300),
            warmup: Duration::from_millis(100),
            setups: 1,
            trials: 2,
            ..full
        };
    }
    full
}

/// What one workload run reported.
struct Ran {
    metrics: Vec<Metric>,
    /// Calls that failed or returned wrong bytes (a typed `SessionLost`
    /// after a kill is neither); any makes the exit code non-zero.
    failed: u64,
}

/// Run one workload untraced and print its end-to-end metrics.
fn run_untraced(name: &str, plan: &Plan) -> Ran {
    let started = Instant::now();
    let out = workloads::run(name, plan).expect("workload names were checked");
    let Some(summary) = report::summarise(&out) else {
        println!(
            "{name}: no round completed ({} of {} calls failed)",
            out.failed, out.attempted
        );
        println!(
            "{}",
            report::result_line(false, out.attempted, out.failed.max(1), &[])
        );
        return Ran {
            metrics: Vec::new(),
            failed: out.failed.max(1),
        };
    };
    print!("{}", report::metric_lines(name, &summary.metrics));
    println!(
        "{name:<20} # {} rounds used ({} invalid), >= {} samples/round; tail = p{:.2} of {} {} samples; \
         {} calls, {} failed (failed_share {:.6}); {:.1} s",
        summary.rounds,
        summary.invalid_rounds,
        summary.samples_per_round,
        summary.tail.percentile,
        summary.tail.samples,
        if summary.tail.pooled { "pooled" } else { "per-round" },
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        started.elapsed().as_secs_f64(),
    );
    if let Some(late) = summary.late_tail_ns {
        println!(
            "{name:<20} # open-loop generator lateness at the tail: {:.1} us",
            late as f64 / 1e3
        );
    }
    let measured = summary.metrics.iter().all(|m| m.value.is_finite());
    let wrong = out.failed - out.lost + u64::from(!measured);
    println!(
        "{}",
        report::result_line(wrong == 0, out.attempted, out.failed, &summary.metrics)
    );
    Ran {
        metrics: summary.metrics,
        failed: wrong,
    }
}

/// Run one traced round of a workload plus the per-layer probes, print the
/// anatomy table, write the Chrome trace, and print the per-layer metrics.
fn run_traced(name: &str, plan: &Plan) -> Ran {
    let sink = trace::SpanSink::new();
    let traced = Plan {
        rounds: 1,
        setups: 1,
        trials: 2,
        sink: Some(sink.clone()),
        ..plan.clone()
    };
    let out = workloads::run(name, &traced).expect("workload names were checked");
    let report = trace::assemble(&sink);
    print!("{}", report.anatomy.table(name));
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("perf");
    let path = dir.join(format!("trace-{name}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &report.chrome_json)) {
        Ok(()) => println!(
            "chrome trace: {} (first {} of {} calls)",
            path.display(),
            report.traced_calls,
            report.anatomy.calls
        ),
        Err(e) => eprintln!("rcuda-perf: could not write {}: {e}", path.display()),
    }
    let mut metrics = layers::from_trace(&report.anatomy, &out);
    metrics.extend(layers::probe(plan));
    print!("{}", report::metric_lines(name, &metrics));
    let wrong = out.failed - out.lost;
    println!(
        "{}",
        report::result_line(wrong == 0, out.attempted, out.failed, &metrics)
    );
    Ran {
        metrics,
        failed: wrong,
    }
}

/// One untraced run of `name` in a process of its own, its output passed
/// through. The driver measures fresh processes, and a process's history
/// shows: after `case_fft` has freed its 8 MiB buffers the allocator keeps
/// 4 MiB blocks on the heap, and `bulk_tcp`'s `h2d_MBps` reads half as high
/// again as in a fresh one.
fn run_in_child(name: &str, args: &Args) -> Ran {
    let output = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["--workload", name, "--trace", "0"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(args.quick.then_some("--quick"))
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    let failed = Ran {
        metrics: Vec::new(),
        failed: 1,
    };
    let Ok(output) = output else { return failed };
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let Some(result) = text.lines().last() else {
        return failed;
    };
    // Our own result line: `"<name>": {"value": <number>, "unit": ...`.
    let metrics = END_TO_END
        .iter()
        .filter_map(|&(metric, unit, _, _)| {
            let after = result
                .split(&format!("\"{metric}\": {{\"value\": "))
                .nth(1)?;
            let value = after.split(',').next()?.parse().ok()?;
            Some(Metric::new(metric, value, unit))
        })
        .collect();
    Ran {
        metrics,
        failed: u64::from(!output.status.success()),
    }
}

/// Run the untraced suite twice and compare every workload x end-to-end
/// metric against its bound; true when every pair agrees.
fn repeat_check(names: &[&str], args: &Args) -> bool {
    let sets: Vec<Vec<Ran>> = (0..2)
        .map(|set| {
            println!("== set {} ==", set + 1);
            names.iter().map(|n| run_in_child(n, args)).collect()
        })
        .collect();
    println!("== repeat check: second set against the first, by each metric's bound ==");
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut agree = true;
    for (i, name) in names.iter().enumerate() {
        for (metric, _, better, bound) in END_TO_END {
            let find = |ran: &Ran| {
                ran.metrics
                    .iter()
                    .find(|m| m.name == metric)
                    .map(|m| m.value)
            };
            let (Some(a), Some(b)) = (find(&sets[0][i]), find(&sets[1][i])) else {
                println!("{name:<20} {metric:<16} missing");
                agree = false;
                continue;
            };
            // Positive = the second set is worse.
            let worse = match better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let ok = worse.abs() <= bound;
            agree &= ok;
            println!(
                "{name:<20} {metric:<16} {a:>14.4} {b:>14.4} {:>8.1}% {:>6.0}%{}",
                100.0 * worse,
                100.0 * bound,
                if ok { "" } else { "  EXCEEDS" }
            );
        }
    }
    agree && sets.iter().flatten().all(|r| r.failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rcuda-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = plan(&args);
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    println!(
        "rcuda-perf: seed {}, {} round(s) x {:.2} s, at most 2 generator threads on {} cpu(s) ({}), loopback only, device time simulated",
        plan.seed,
        plan.rounds,
        plan.round.as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        match &plan.placement {
            Some(p) => format!("placed workloads: server side on cpu {}, generators on cpu {}", p.server, p.client),
            None => "placement left to the scheduler".to_string(),
        },
    );
    let ok = if args.repeat_check {
        repeat_check(&names, &args)
    } else {
        let started = Instant::now();
        let failed: u64 = names
            .iter()
            .map(|name| {
                if args.trace {
                    run_traced(name, &plan).failed
                } else {
                    run_untraced(name, &plan).failed
                }
            })
            .sum();
        if names.len() > 1 {
            println!("suite finished in {:.1} s", started.elapsed().as_secs_f64());
        }
        failed == 0
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `perfbench` — runs one workload of the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_point --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a table of every metric, then one JSON line: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer ones. Exits 1
//! when an answer differs from the serial oracle or a checked invariant
//! breaks, 2 on bad arguments.

use perfbench::report::Report;
use perfbench::{wan, wire, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };

    let mut report = Report::default();
    match args.workload.as_str() {
        "hot_point" => wire::run(
            &wire::HOT_POINT,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "churn_point" => wire::run(
            &wire::CHURN_POINT,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        _ => wan::run(args.seed, args.seconds, args.trace, &mut report),
    }

    let (names, metrics): (&[&str], _) = if args.trace {
        (&PER_LAYER, &report.per_layer)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    let reported: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        reported, names,
        "the run reports exactly the listed metrics"
    );
    for m in metrics.clone() {
        report.check(
            m.value.is_finite(),
            format!("{} is not a finite number", m.name),
        );
    }

    print!("{}", report.render_table(&args.workload));
    let selected = if args.trace {
        report.per_layer.clone()
    } else {
        report.end_to_end.clone()
    };
    println!("{}", report.json_line(&selected));
    if !report.correct() {
        std::process::exit(1);
    }
}

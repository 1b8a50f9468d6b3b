//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report and, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when an oracle check fails, 2 on bad arguments.
//!
//! `perfbench --write-verdicts <file>` regenerates the `paper_sweep`
//! reference verdicts.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::compile_wl::{self, Kind};
use perfbench::{heap, result_json, serve_wl, Metric, Outcome, Tracer};

const USAGE: &str = "usage: perfbench --workload <paper_sweep|farm64|serve_cold24|serve_dense256> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       \
                     perfbench --write-verdicts <file>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    write_verdicts: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".perfbench"),
        write_verdicts: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--write-verdicts" => args.write_verdicts = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

const WORKLOADS: &[&str] = &["paper_sweep", "farm64", "serve_cold24", "serve_dense256"];

fn run(workload: &str, seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Outcome {
    match workload {
        "paper_sweep" => compile_wl::run(Kind::PaperSweep, seed, seconds, tracer),
        "farm64" => compile_wl::run(Kind::Farm64, seed, seconds, tracer),
        "serve_cold24" => serve_wl::run(&serve_wl::cold24(), seed, seconds, tracer),
        "serve_dense256" => serve_wl::run(&serve_wl::dense256(), seed, seconds, tracer),
        other => unreachable!("workload {other:?} was validated"),
    }
}

fn write_verdicts(path: &Path) -> std::io::Result<()> {
    let mut text = String::from(
        "# paper_sweep reference verdicts, one line per placement seed:\n\
         # `<seed> <bits>`, bits platform-major over the 8 platforms x 12 loads\n\
         # (1 = compiled and verified). Regenerate: perfbench --write-verdicts <file>\n",
    );
    for placement in 0..compile_wl::SWEEP_POOL {
        let bits: String = compile_wl::verdicts(&compile_wl::sweep_inputs(placement))
            .iter()
            .map(|&ok| if ok { '1' } else { '0' })
            .collect();
        text.push_str(&format!("{placement} {bits}\n"));
    }
    std::fs::write(path, text)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn print_outcome(label: &str, o: &Outcome) {
    let (cold, warm) = o.requests();
    println!(
        "{label}: {} attempted, {} failed, {cold} cold and {warm} warm requests \
         in {} windows, {} set-ups",
        o.attempted,
        o.failed,
        o.windows.len(),
        o.setup_s.len()
    );
    for (kind, n) in &o.tally {
        println!("  failed answers of kind {kind}: {n}");
    }
    for v in &o.violations {
        println!("  ORACLE: {v}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_verdicts {
        return match write_verdicts(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("writing {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }

    let (outcome, metrics) = if !args.trace {
        let o = run(&args.workload, args.seed, args.seconds, None);
        print_outcome(&args.workload, &o);
        let metrics = o.end_to_end();
        println!(
            "end-to-end metrics ({}, seed {}):",
            args.workload, args.seed
        );
        print_metrics(&metrics);
        (o, metrics)
    } else {
        // Half the time untraced, half traced, over the same seeded inputs:
        // the difference between the two is the tracing overhead.
        let half = args.seconds / 2.0;
        let base = run(&args.workload, args.seed, half, None);
        let mut tracer = Tracer::default();
        heap::start_counting();
        let traced = run(&args.workload, args.seed, half, Some(&mut tracer));
        let heap_peak_mb = heap::stop_counting() as f64 / (1024.0 * 1024.0);
        print_outcome(&format!("{} untraced", args.workload), &base);
        print_outcome(&format!("{} traced", args.workload), &traced);
        let overhead = traced.mean_ok_ms() / base.mean_ok_ms() - 1.0;
        println!(
            "tracing overhead: mean ok request {:.4} ms traced vs {:.4} ms untraced ({:+.2}%)",
            traced.mean_ok_ms(),
            base.mean_ok_ms(),
            100.0 * overhead
        );
        let table = tracer.acc.table();
        println!(
            "per-layer self time ({}, seed {}):\n{table}",
            args.workload, args.seed
        );
        let metrics = tracer
            .acc
            .per_layer(overhead, traced.tenants_held, heap_peak_mb);
        println!("per-layer metrics:");
        print_metrics(&metrics);

        let stem = args
            .out
            .join(format!("{}-seed{}", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(stem.with_extension("layers.txt"), &table))
            .and_then(|()| {
                std::fs::write(
                    stem.with_extension("trace.json"),
                    tracer.chrome_json.as_deref().unwrap_or("{}"),
                )
            });
        match written {
            Ok(()) => println!("wrote {}.{{layers.txt,trace.json}}", stem.display()),
            Err(e) => eprintln!("writing trace files under {}: {e}", args.out.display()),
        }

        let mut o = traced;
        o.absorb_checks(base);
        (o, metrics)
    };
    println!("{}", result_json(&outcome, &metrics));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

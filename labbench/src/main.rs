//! Command line: `labbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints one line per metric (name, value, unit, kind)
//! and, as the last line, the JSON result object.

use labbench::bench::{self, Metric};
use labbench::workload::{Sizes, Workload};

const USAGE: &str =
    "usage: labbench --workload <fs-hot|fs-cold-inline|kvs-scan|tenants-noisy> --seed <n> --seconds <s> [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("labbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let out = match bench::run(w, Sizes::full(w), args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("labbench: {} failed: {e}", w.name());
            std::process::exit(1);
        }
    };
    println!(
        "# labbench {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &out.metrics {
        println!(
            "{:<28} {:>14.4} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            m.kind.label()
        );
    }
    for note in &out.notes {
        println!("# {note}");
    }
    if let Some(path) = &out.span_file {
        println!("# host spans written to {}", path.display());
    }
    if let Some(e) = &out.first_error {
        eprintln!("labbench: first failure: {e}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!("{}", json(correct, out.attempted, out.failed, &out.metrics));
    if !correct {
        std::process::exit(1);
    }
}

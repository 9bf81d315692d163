// A benchmark: `expect` states the broken internal condition it reports,
// as the repository's crates allow at their roots.
#![allow(clippy::disallowed_methods)]
//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fbench/Cargo.toml -- \
//!     --workload <train|train-sharded|recompile|score> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). The full machine-tagged result, and in a traced run
//! the spans, are written under `fbench/out/`. See `fbench/NOTES.md`.

mod check;
mod dags;
mod layers;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Ctx, Metric, Report};

const WORKLOADS: [&str; 4] = ["train", "train-sharded", "recompile", "score"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == val)
                        .ok_or_else(|| format!("unknown workload {val}; known: {WORKLOADS:?}"))?,
                )
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// JSON string literal.
fn js(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// JSON number (non-finite values, which JSON cannot hold, become 0).
fn jn(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory when there is one.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let read = |p: &str| std::fs::read_to_string(root.join(".git").join(p)).ok();
    let head = read("HEAD").map(|s| s.trim().to_string());
    match head {
        Some(h) => match h.strip_prefix("ref: ") {
            Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
                read("packed-refs").and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
                })
            }),
            None => Some(h),
        },
        None => None,
    }
    .unwrap_or_else(|| "unknown".into())
}

fn metric_line(m: &Metric) -> String {
    let mut s = format!("  {:<34} {:>14.6} {:<6}", m.name, m.value, m.unit);
    if let Some(q) = &m.summary {
        let _ = write!(s, "  q1 {:.6}  q3 {:.6}  n={}", q.q1, q.q3, q.n);
    }
    s
}

fn metric_json(m: &Metric) -> String {
    let mut s = format!("{}: {{\"value\": {}, \"unit\": {}", js(&m.name), jn(m.value), js(m.unit));
    if let Some(q) = &m.summary {
        let _ = write!(
            s,
            ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}",
            jn(q.median),
            jn(q.q1),
            jn(q.q3),
            q.n
        );
    }
    s.push('}');
    s
}

fn metrics_json(ms: &[Metric]) -> String {
    format!("{{{}}}", ms.iter().map(metric_json).collect::<Vec<_>>().join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = format!("{:?}", fusedml_linalg::simd::level());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        tracer: Tracer::default(),
    };
    let rev = git_rev();
    println!(
        "fbench {} seed={} seconds={} trace={} | rev {rev} nproc {nproc} simd {simd}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report: Report = match args.workload {
        "train" => workloads::train(&ctx, 1),
        "train-sharded" => workloads::train(&ctx, nproc),
        "recompile" => workloads::recompile(&ctx),
        _ => workloads::score(&ctx),
    };
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!("end-to-end:");
    for m in report.e2e.iter().chain(&report.detail) {
        println!("{}", metric_line(m));
    }
    println!(
        "  {:<34} {:>14.6} {:<6}  ({} of {} operations)",
        "error_rate", error_rate, "ratio", report.failed, report.attempted
    );
    for e in &report.errors {
        println!("  failure: {e}");
    }
    let mut self_table = String::new();
    let out = workloads::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    if args.trace {
        let spans = ctx.tracer.spans();
        let table = trace::layer_table(&spans);
        println!("self time by span ({} spans):", spans.len());
        println!("  {:<34} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
        let mut rows: Vec<_> = table.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        for (name, t) in &rows {
            println!(
                "  {:<34} {:>8} {:>12.3} {:>12.3}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        self_table = rows
            .iter()
            .map(|(n, t)| {
                format!(
                    "{}: {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                    js(n),
                    t.count,
                    jn(t.total_ns as f64 / 1e6),
                    jn(t.self_ns as f64 / 1e6)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let lines: Vec<String> = spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id,
                    js(&s.name),
                    s.request,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        let sj = format!("[\n{}\n]\n", lines.join(",\n"));
        let path = out.join(format!("spans-{tag}.json"));
        std::fs::write(&path, sj).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("per-layer:");
        for m in &report.layers {
            println!("{}", metric_line(m));
        }
    }
    let result = format!(
        "{{\n\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n\"machine\": {{\"git_rev\": {}, \"nproc\": {nproc}, \"simd\": {}, \"arch\": {}, \"os\": {}}},\n\"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \"errors\": [{}],\n\"end_to_end\": {},\n\"detail\": {},\n\"per_layer\": {},\n\"self_time\": {{{self_table}}}\n}}\n",
        js(args.workload),
        args.seed,
        jn(args.seconds),
        args.trace,
        js(&rev),
        js(&simd),
        js(std::env::consts::ARCH),
        js(std::env::consts::OS),
        report.attempted,
        report.failed,
        jn(error_rate),
        report.errors.iter().map(|e| js(e)).collect::<Vec<_>>().join(", "),
        metrics_json(&report.e2e),
        metrics_json(&report.detail),
        metrics_json(&report.layers),
    );
    let path = out.join(format!("result-{tag}.json"));
    std::fs::write(&path, result).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    let contract = if args.trace { &report.layers } else { &report.e2e };
    let metrics = contract
        .iter()
        .map(|m| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", js(&m.name), jn(m.value), js(m.unit))
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fbench: {e}");
            ExitCode::from(2)
        }
    }
}

//! Benchmark runner for the feedback-punctuation DSMS.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <speedmap|pipeline|multi_query> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process generates the workload's seeded input and its reference
//! result (neither is timed), then repeats the workload — build the plan,
//! replay the input closed-loop, check every result against the reference —
//! for `--seconds`.  With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced repetitions and prints the
//! per-layer metrics, the micro tier and the tracing overhead.  Every metric is
//! printed as `name value unit`; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, where `attempted` counts
//! expected results and `failed` the wrong ones.

mod display;
mod input;
mod layers;
mod micro;
mod probe;
mod reference;
mod sink;
mod stats;
mod workloads;

use micro::Metric;
use stats::{median, percentile};
use std::io::Write;
use std::time::{Duration, Instant};
use workloads::{MultiQuery, Pipeline, Rep, Speedmap, Workload};

const USAGE: &str = "usage: perfbench --workload <speedmap|pipeline|multi_query> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Repetitions made of each kind however short `--seconds` is.
const MIN_REPS: usize = 3;

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
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["speedmap", "pipeline", "multi_query"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// What is kept of an untraced repetition.
struct Plain {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
    peak_mb: f64,
}

impl Plain {
    fn of(rep: &Rep, peak_mb: f64) -> Plain {
        let latencies = &rep.verdict.latencies_ns;
        let samples = latencies.len();
        let mut ms: Vec<f64> = latencies.iter().map(|&ns| ns as f64 / 1e6).collect();
        Plain {
            setup_s: rep.setup_s,
            wall_s: rep.wall_s,
            cpu_s: rep.cpu_s,
            p50_ms: percentile(&mut ms, 0.50),
            p99_ms: percentile(&mut ms, 0.99),
            samples,
            peak_mb,
        }
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_problem: Option<String>,
}

impl Tally {
    fn add(&mut self, rep: &Rep) {
        self.attempted += rep.verdict.expected;
        self.failed += rep.verdict.wrong;
        if self.first_problem.is_none() {
            self.first_problem = rep.verdict.first_problem.clone();
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let generating = Instant::now();
    let workload: Box<dyn Workload> = match args.workload.as_str() {
        "speedmap" => Box::new(Speedmap::generate(args.seed)),
        "pipeline" => Box::new(Pipeline::generate(args.seed, workers)),
        _ => Box::new(MultiQuery::generate(args.seed, workers)),
    };
    let generate_s = generating.elapsed().as_secs_f64();
    let rows = workload.input().len();
    // Generation holds rows, tuples and reference side by side, and its
    // peak would hide the runs' own memory; so the high-water mark restarts
    // before every repetition, and `peak_rss_mb` is the median of each
    // one's peak above what stays resident (the input and reference every
    // repetition shares).  A peak over the whole run would not do: now and
    // then a pooled repetition queues more pages than the rest, and such a
    // run-wide maximum reads that rare one or not, run by run.
    let resident_input_mb = stats::status_mb("VmRSS");

    let mut tally = Tally::default();
    let mut plain: Vec<Plain> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut layer_runs: Vec<Vec<Metric>> = Vec::new();
    let mut last_traced: Option<Rep> = None;
    // A repetition starts only if one as long as the last still ends within
    // `--seconds`, so a run lasts `--seconds` and not up to one more.
    let budget = Duration::from_secs_f64(args.seconds);
    let measuring = Instant::now();
    let mut last = Duration::ZERO;
    while plain.len() < MIN_REPS || measuring.elapsed() + last <= budget {
        let began = Instant::now();
        stats::reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;
        let rep = workload.run(false)?;
        let peak_mb = stats::status_mb("VmHWM") - resident_input_mb;
        tally.add(&rep);
        plain.push(Plain::of(&rep, peak_mb));
        if args.trace {
            let rep = workload.run(true)?;
            tally.add(&rep);
            traced_walls.push(rep.wall_s);
            layer_runs.push(layers::per_layer(&rep, rows));
            last_traced = Some(rep);
        }
        last = began.elapsed();
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    if let Some(rep) = &last_traced {
        // Per-layer metrics: the median of each over the traced repetitions.
        for (i, (name, _, unit)) in layer_runs[0].iter().enumerate() {
            let values: Vec<f64> = layer_runs.iter().map(|run| run[i].1).collect();
            metrics.push((name.clone(), median(&values), unit));
        }
        metrics.extend(micro::run(
            workload.input(),
            workload.key_column(),
            &workload.live_guards(rep),
        ));
        let untraced = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        metrics.push(("workloads.generate_s".into(), generate_s, "s"));
        metrics.push((
            "trace.overhead_frac".into(),
            median(&traced_walls) / untraced - 1.0,
            "fraction",
        ));
        let path = write_spans(&args.workload, args.seed, rep)
            .map_err(|e| format!("writing spans: {e}"))?;
        notes.push(format!("spans of the last traced repetition: {path}"));
    } else {
        let med = |f: &dyn Fn(&Plain) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
        let cpu: f64 = plain.iter().map(|p| p.cpu_s).sum();
        metrics.push(("throughput_tps".into(), med(&|p| rows as f64 / p.wall_s), "tuples/s"));
        metrics.push(("latency_p50_ms".into(), med(&|p| p.p50_ms), "ms"));
        metrics.push(("latency_p99_ms".into(), med(&|p| p.p99_ms), "ms"));
        metrics.push(("cpu_ns_per_tuple".into(), cpu * 1e9 / (rows * plain.len()) as f64, "ns"));
        metrics.push(("peak_rss_mb".into(), med(&|p| p.peak_mb), "MB"));
        metrics.push(("setup_s".into(), med(&|p| p.setup_s), "s"));
        let samples = plain.iter().map(|p| p.samples).min().unwrap_or(0);
        notes.push(format!("latency samples per repetition: at least {samples}"));
        notes.push(format!("resident input and reference: {resident_input_mb} MB"));
    }
    notes.push(format!(
        "repetitions: {} untraced, {} traced; {rows} input tuples each",
        plain.len(),
        traced_walls.len()
    ));
    let wrong = tally.failed as f64 / tally.attempted.max(1) as f64;
    notes.push(format!(
        "wrong_results {wrong} fraction ({} of {} expected results)",
        tally.failed, tally.attempted
    ));
    if let Some(problem) = &tally.first_problem {
        eprintln!("perfbench: {} wrong results; first: {problem}", tally.failed);
        notes.push(format!("first wrong result: {problem}"));
    }

    let mut out = std::io::stdout().lock();
    for note in &notes {
        writeln!(out, "# {note}").map_err(|e| e.to_string())?;
    }
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        writeln!(out, "{name} {value} {unit}").map_err(|e| e.to_string())?;
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
    .map_err(|e| e.to_string())
}

/// Writes the spans of a traced repetition as tab-separated text under
/// `perfbench/out/` and returns the path.
fn write_spans(workload: &str, seed: u64, rep: &Rep) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(file, "node\tkind\tcallback\tstart_ns\tend_ns\tfeedback_id")?;
    for (node, spans) in rep.instrument.nodes.iter().enumerate() {
        for s in spans.spans.lock().expect("span buffer").iter() {
            writeln!(
                file,
                "{node}\t{}\t{:?}\t{}\t{}\t{}",
                spans.kind.label(),
                s.callback,
                s.start_ns,
                s.end_ns,
                s.feedback_id
            )?;
        }
    }
    file.flush()?;
    Ok(path.display().to_string())
}

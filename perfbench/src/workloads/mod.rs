//! The three workloads.  Each generates its seeded input and reference
//! once, then builds and runs its plan from scratch for every repetition.

mod multi_query;
mod pipeline;
mod speedmap;

pub use multi_query::MultiQuery;
pub use pipeline::Pipeline;
pub use speedmap::Speedmap;

use crate::probe::Instrument;
use crate::reference::Verdict;
use crate::sink::Issued;
use dsms_engine::ExecutionReport;
use dsms_operators::VecSource;
use dsms_punctuation::Pattern;
use dsms_types::{StreamDuration, Tuple};

/// Rows the source emits per `poll_source` call.
pub const SOURCE_BATCH: usize = 64;

/// The manager's share of a `multi_query` repetition.
#[derive(Debug, Clone, Copy)]
pub struct ManagerFigures {
    pub register_s: f64,
    pub compile_s: f64,
    pub prefix_hit_rate: f64,
    pub master_nodes: usize,
}

/// Everything one repetition produced.
pub struct Rep {
    /// Plan construction and validation (plus register and start for the
    /// manager).
    pub setup_s: f64,
    /// The executor's wall time.
    pub wall_s: f64,
    /// Threads the executor ran operators on.
    pub threads: usize,
    /// Process user+system CPU time while the executor ran.
    pub cpu_s: f64,
    pub report: ExecutionReport,
    pub verdict: Verdict,
    pub issued: Vec<Issued>,
    pub instrument: Instrument,
    pub manager: Option<ManagerFigures>,
}

pub trait Workload {
    /// Input tuples offered by the source per repetition.
    fn input(&self) -> &[Tuple];
    /// The column the workload groups and partitions on.
    fn key_column(&self) -> usize;
    /// The guard patterns live at the source at the end of a run, over the
    /// input schema.
    fn live_guards(&self, rep: &Rep) -> Vec<Pattern>;
    /// Builds the plan and runs it once.
    fn run(&self, traced: bool) -> Result<Rep, String>;
}

/// The source every workload replays its input through.
pub fn source(tuples: Vec<Tuple>) -> VecSource {
    VecSource::new("source", tuples)
        .with_punctuation("timestamp", StreamDuration::from_millis(crate::input::WINDOW_MS))
        .with_batch_size(SOURCE_BATCH)
}

/// Checks the invariants every run must keep beyond its results: no
/// feedback was lost, and the source consumed exactly one batch per poll
/// (the latency measurement maps rows to polls by that rule).
pub fn run_invariants(report: &ExecutionReport, stamps: usize, rows: usize, verdict: &mut Verdict) {
    let dropped = report.total_feedback_dropped();
    if dropped > 0 {
        verdict.wrong += 1;
        verdict.first_problem.get_or_insert(format!("{dropped} feedback punctuation(s) dropped"));
    }
    let polls = rows.div_ceil(SOURCE_BATCH);
    if stamps != polls {
        verdict.wrong += 1;
        verdict.first_problem.get_or_insert(format!(
            "source polled {stamps} times for {rows} rows; expected {polls} polls of {SOURCE_BATCH}"
        ));
    }
}

/// Process user+system CPU time in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in clock ticks (100 per second).
    let rest = &stat[stat.rfind(')').expect("stat format") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// The calling thread's CPU time in seconds, from the nanosecond counter
/// in `/proc/thread-self/schedstat` (clock ticks are too coarse for a
/// sub-millisecond span).
pub fn thread_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat");
    let ns: u64 = stat.split_whitespace().next().and_then(|ns| ns.parse().ok()).expect("schedstat");
    ns as f64 / 1e9
}

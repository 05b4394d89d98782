//! The multi-query pipeline manager.

use crate::source_ref::SourceRef;
use dsms_engine::{Edge, NodeId};
use dsms_engine::{
    EngineError, EngineResult, ExecutionReport, Operator, PlanNode, PlanParts, PooledExecutor,
    QueryPlan, RecoveryPolicy, SyncExecutor,
};
use dsms_feedback::FeedbackStats;
use dsms_operators::{FanoutController, FanoutDirective, SharedFanout};
use dsms_types::SchemaRef;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

fn invalid(detail: impl Into<String>) -> EngineError {
    EngineError::InvalidPlan { detail: detail.into() }
}

/// Which executor a [`PipelineManager`] drives the spliced master plan with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Deterministic single-threaded round-robin ([`SyncExecutor`]).
    Sync,
    /// Work-stealing worker pool ([`PooledExecutor`]).
    Pooled,
}

/// A registered query's membership state, as far as the manager knows it.
///
/// Before [`PipelineManager::start`] this is the initial membership the
/// splice will install; while running it reflects the directives the query's
/// fan-out has *committed* so far (a posted directive takes effect at the
/// next punctuation boundary, so the state lags the request by design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryState {
    /// The query receives (or will receive) data from its shared source.
    Attached,
    /// The query is registered but dormant: its operators are spliced into
    /// the master plan, but its fan-out port forwards nothing.
    Detached,
}

/// One query's slice of a finished run.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The query's registered name.
    pub name: String,
    /// The query's per-operator metrics, with the manager's scoping prefix
    /// stripped, so `report.operator("sink")` works exactly as it would for
    /// a solo run.  `elapsed` and `scheduler` are those of the shared run.
    pub report: ExecutionReport,
}

/// Manager-level summary of a finished multi-query run.
#[derive(Debug, Clone, Default)]
pub struct ManagerSummary {
    /// Queries registered when the run started.
    pub queries_registered: usize,
    /// Queries that were attached at any point (initially or by a committed
    /// attach).
    pub queries_started: usize,
    /// Queries that committed at least one detach during the run.
    pub queries_stopped: usize,
    /// Queries attached when the run drained.
    pub queries_active: usize,
    /// Prefix operator instances (sources included) that were *not*
    /// instantiated because an identical already-spliced prefix was reused.
    pub shared_prefix_hits: usize,
    /// Total prefix operator instances the registered plans asked for.
    pub prefix_ops_total: usize,
    /// Per-query feedback statistics, aggregated over each query's private
    /// operators, in registration order.
    pub per_query_feedback: Vec<(String, FeedbackStats)>,
    /// Queries whose private operators exhausted their restart budget and
    /// were quarantined (detached, stream tombstoned) instead of failing the
    /// shared run: `(query name, failure detail)` in registration order.
    pub quarantined: Vec<(String, String)>,
}

impl ManagerSummary {
    /// Fraction of requested prefix operator instances served by sharing.
    pub fn hit_rate(&self) -> f64 {
        if self.prefix_ops_total == 0 {
            0.0
        } else {
            self.shared_prefix_hits as f64 / self.prefix_ops_total as f64
        }
    }
}

impl fmt::Display for ManagerSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline manager: {} registered, {} started, {} stopped, {} active",
            self.queries_registered,
            self.queries_started,
            self.queries_stopped,
            self.queries_active
        )?;
        writeln!(
            f,
            "shared-prefix dedup: {}/{} operator instances saved ({:.1}% hit rate)",
            self.shared_prefix_hits,
            self.prefix_ops_total,
            self.hit_rate() * 100.0
        )?;
        for (name, stats) in &self.per_query_feedback {
            writeln!(f, "  {name}: {stats}")?;
        }
        for (name, detail) in &self.quarantined {
            writeln!(f, "  quarantined {name}: {detail}")?;
        }
        Ok(())
    }
}

/// Everything a finished multi-query run produced.
#[derive(Debug, Clone)]
pub struct ManagerOutcome {
    /// The raw report of the master plan (scoped operator names intact) —
    /// the shared operators' metrics live here.
    pub master: ExecutionReport,
    /// Per-query reports, in registration order.
    pub queries: Vec<QueryReport>,
    /// The manager-level summary.
    pub summary: ManagerSummary,
}

impl ManagerOutcome {
    /// The report of the named query, if it was registered.
    pub fn query(&self, name: &str) -> Option<&ExecutionReport> {
        self.queries.iter().find(|q| q.name == name).map(|q| &q.report)
    }
}

/// One registered query, dismantled and waiting for the splice.
struct Registered {
    name: String,
    source: String,
    /// The dismantled plan; taken (consumed) by [`PipelineManager::start`].
    parts: Option<PlanParts>,
    /// Node index of the [`SourceRef`] placeholder within `parts`.
    source_idx: usize,
    /// The shareable prefix chain — `(node index, cumulative hash)`, first
    /// entry the placeholder itself: the maximal fingerprinted chain, cut
    /// before the first node with a declared recovery policy or quarantine
    /// flag.
    chain: Vec<(usize, u64)>,
    /// Initial fan-out membership installed at splice time.
    attached: bool,
    /// Scripted `(attach, boundary)` directives posted at splice time.
    schedule: Vec<(bool, u64)>,
}

/// A query's membership port: the fan-out controller owning it, and the port
/// number.
type MembershipPort = (Arc<FanoutController>, usize);

struct Running {
    handle: JoinHandle<EngineResult<ExecutionReport>>,
    /// Per query (registration order): its membership port.
    controls: Vec<MembershipPort>,
}

/// Runs many standing queries against shared named sources in one engine
/// execution: each distinct plan prefix operator runs once, fanned out
/// through [`SharedFanout`]s where queries diverge, feedback stays
/// per-query, and queries attach/detach at punctuation boundaries while the
/// stream runs.  See the crate docs for the
/// architecture and `docs/PIPELINES.md` for the lifecycle contract.
///
/// A manager instance drives **one** run: `add_source` → `register`… →
/// [`start`](Self::start) → (runtime [`attach`](Self::attach) /
/// [`detach`](Self::detach)) → [`drain`](Self::drain).
#[derive(Default)]
pub struct PipelineManager {
    /// `(name, operator)`; the operator slot is taken at start.
    sources: Vec<(String, Option<Box<dyn Operator>>)>,
    queries: Vec<Registered>,
    page_capacity: Option<usize>,
    queue_capacity: Option<usize>,
    pool_size: Option<usize>,
    running: Option<Running>,
}

impl PipelineManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the tuples-per-page capacity of the master plan's connections.
    pub fn with_page_capacity(mut self, capacity: usize) -> Self {
        self.page_capacity = Some(capacity);
        self
    }

    /// Sets the pages-in-flight bound of the master plan's connections.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Sets the worker count used when the run executes on the pooled
    /// executor.
    pub fn with_worker_pool(mut self, workers: usize) -> Self {
        self.pool_size = Some(workers);
        self
    }

    /// Registers a named long-lived source all queries may reference via
    /// [`SourceRef`].  The operator must be a real source — zero inputs, one
    /// output — and must declare its output schema, which is what
    /// [`Self::source_ref`] hands to query builders for composition-time
    /// type checking.
    pub fn add_source(
        &mut self,
        name: impl Into<String>,
        operator: impl Operator + 'static,
    ) -> EngineResult<()> {
        let name = name.into();
        if self.running.is_some() {
            return Err(invalid("cannot add a source while the manager is running"));
        }
        if name.is_empty() || name.contains('/') {
            return Err(invalid(format!(
                "source name `{name}` is invalid: names must be non-empty and must not contain '/'"
            )));
        }
        if self.sources.iter().any(|(n, _)| *n == name) {
            return Err(invalid(format!("a source named `{name}` is already registered")));
        }
        if operator.inputs() != 0 || operator.outputs() != 1 {
            return Err(invalid(format!(
                "source `{name}` must have 0 inputs and 1 output, has {} and {}",
                operator.inputs(),
                operator.outputs()
            )));
        }
        if operator.schema_out(0).is_none() {
            return Err(invalid(format!(
                "source `{name}` does not declare its output schema; managed sources must, so \
                 queries can be type-checked against them"
            )));
        }
        self.sources.push((name, Some(Box::new(operator))));
        Ok(())
    }

    /// A [`SourceRef`] placeholder for the named source, carrying the schema
    /// the source declared — the way query plans reference managed sources.
    pub fn source_ref(&self, name: &str) -> EngineResult<SourceRef> {
        match self.source_schema(name) {
            Some(schema) => Ok(SourceRef::new(name, schema)),
            None => Err(invalid(format!(
                "unknown source `{name}` (known: {})",
                self.source_names().join(", ")
            ))),
        }
    }

    /// The declared output schema of the named source, if it is registered
    /// and not yet consumed by a start.
    pub fn source_schema(&self, name: &str) -> Option<SchemaRef> {
        self.sources
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, op)| op.as_ref())
            .and_then(|op| op.schema_out(0))
    }

    /// The names of the registered sources, in registration order.
    pub fn source_names(&self) -> Vec<String> {
        self.sources.iter().map(|(n, _)| n.clone()).collect()
    }

    /// The named query's membership state: the initial membership before the
    /// run starts, the last *committed* membership while it runs.
    pub fn query_state(&self, name: &str) -> Option<QueryState> {
        let (idx, query) = self.queries.iter().enumerate().find(|(_, q)| q.name == name)?;
        let attached = match &self.running {
            Some(running) => {
                let (controller, port) = &running.controls[idx];
                controller
                    .commits()
                    .iter()
                    .rfind(|c| c.port == *port)
                    .map(|c| c.attached)
                    .unwrap_or(query.attached)
            }
            None => query.attached,
        };
        Some(if attached { QueryState::Attached } else { QueryState::Detached })
    }

    /// Registers a query plan under `name`, attached from the start.
    ///
    /// The plan must read exactly one source node, and that node must be a
    /// [`SourceRef`] to a source this manager owns.  The plan is dismantled
    /// immediately; at [`Self::start`] every fingerprinted operator of its
    /// prefix chain that another registered query also asks for is
    /// instantiated once for both.
    pub fn register(&mut self, name: impl Into<String>, plan: QueryPlan) -> EngineResult<()> {
        self.register_with(name.into(), plan, true)
    }

    /// Registers a query plan under `name` with its fan-out port initially
    /// **detached**: the plan is spliced like any other, but receives no data
    /// until an [`Self::attach`] / [`Self::attach_at`] commits — the way to
    /// stage a query that should join the stream mid-run.
    pub fn register_detached(
        &mut self,
        name: impl Into<String>,
        plan: QueryPlan,
    ) -> EngineResult<()> {
        self.register_with(name.into(), plan, false)
    }

    fn register_with(&mut self, name: String, plan: QueryPlan, attached: bool) -> EngineResult<()> {
        if self.running.is_some() {
            return Err(invalid("cannot register a query while the manager is running"));
        }
        if name.is_empty() || name.contains('/') || name == "shared" || name == "fanout" {
            return Err(invalid(format!(
                "query name `{name}` is invalid: names must be non-empty, must not contain '/', \
                 and must not be the reserved words `shared` or `fanout`"
            )));
        }
        if self.queries.iter().any(|q| q.name == name) {
            return Err(invalid(format!("a query named `{name}` is already registered")));
        }
        plan.validate()?;
        let sources = plan.source_nodes();
        if sources.len() != 1 {
            return Err(invalid(format!(
                "query `{name}` must read exactly one managed source, found {} source nodes",
                sources.len()
            )));
        }
        let source_node = sources[0];
        let mut chain: Vec<(usize, u64)> =
            plan.prefix_chain(source_node).into_iter().map(|(id, h)| (id.index(), h)).collect();
        let parts = plan.into_parts();
        // A shared node serves every sharer, so it cannot restart or be
        // quarantined for one of them: the chain ends before the first node
        // that declares either, and that node stays private with its policy.
        if let Some(end) = chain.iter().skip(1).position(|&(idx, _)| {
            parts.recovery.get(idx).is_some_and(|&p| p != RecoveryPolicy::default())
                || parts.quarantine.get(idx).copied().unwrap_or(false)
        }) {
            chain.truncate(end + 1);
        }
        let source_idx = source_node.index();
        let source = match parts.nodes[source_idx].operator.shared_source() {
            Some(s) => s.to_string(),
            None => {
                return Err(invalid(format!(
                    "query `{name}`'s source node `{}` is not a SourceRef: managed queries \
                     reference manager-owned sources by name instead of instantiating their own",
                    parts.nodes[source_idx].name
                )))
            }
        };
        for (idx, node) in parts.nodes.iter().enumerate() {
            if idx != source_idx && node.operator.shared_source().is_some() {
                return Err(invalid(format!(
                    "query `{name}` has a second source reference at non-source node `{}`",
                    node.name
                )));
            }
        }
        let declared = self.source_schema(&source).ok_or_else(|| {
            invalid(format!(
                "query `{name}` references unknown source `{source}` (known: {})",
                self.source_names().join(", ")
            ))
        })?;
        if let Some(plan_schema) = parts.nodes[source_idx].operator.schema_out(0) {
            if plan_schema != declared {
                return Err(invalid(format!(
                    "query `{name}` expects schema {} from source `{source}`, which produces {}",
                    plan_schema.describe(),
                    declared.describe()
                )));
            }
        }
        self.queries.push(Registered {
            name,
            source,
            parts: Some(parts),
            source_idx,
            chain,
            attached,
            schedule: Vec::new(),
        });
        Ok(())
    }

    /// Removes a registered query before the run starts.
    pub fn unregister(&mut self, name: &str) -> EngineResult<()> {
        if self.running.is_some() {
            return Err(invalid(
                "cannot unregister while running: detach the query instead — its operators are \
                 spliced into the live plan, but a committed detach stops all data flow to them",
            ));
        }
        match self.queries.iter().position(|q| q.name == name) {
            Some(idx) => {
                self.queries.remove(idx);
                Ok(())
            }
            None => Err(invalid(format!("no query named `{name}` is registered"))),
        }
    }

    /// Attaches the named query at the next punctuation boundary (while
    /// running), or flips its initial membership to attached (before start).
    pub fn attach(&mut self, name: &str) -> EngineResult<()> {
        self.lifecycle(name, true, None)
    }

    /// Detaches the named query at the next punctuation boundary (while
    /// running), or flips its initial membership to detached (before start).
    pub fn detach(&mut self, name: &str) -> EngineResult<()> {
        self.lifecycle(name, false, None)
    }

    /// Schedules an attach of the named query once its fan-out has seen
    /// `boundary` punctuations — a deterministic consistent cut, used by
    /// parity tests and reproducible experiments.
    pub fn attach_at(&mut self, name: &str, boundary: u64) -> EngineResult<()> {
        self.lifecycle(name, true, Some(boundary))
    }

    /// Schedules a detach of the named query once its fan-out has seen
    /// `boundary` punctuations.
    pub fn detach_at(&mut self, name: &str, boundary: u64) -> EngineResult<()> {
        self.lifecycle(name, false, Some(boundary))
    }

    fn lifecycle(&mut self, name: &str, attach: bool, boundary: Option<u64>) -> EngineResult<()> {
        let idx = self
            .queries
            .iter()
            .position(|q| q.name == name)
            .ok_or_else(|| invalid(format!("no query named `{name}` is registered")))?;
        match (&self.running, boundary) {
            (Some(running), _) => {
                let (controller, port) = &running.controls[idx];
                controller.post(FanoutDirective { port: *port, attach, at_boundary: boundary });
            }
            (None, Some(boundary)) => self.queries[idx].schedule.push((attach, boundary)),
            (None, None) => self.queries[idx].attached = attach,
        }
        Ok(())
    }

    /// Splices the registered queries into one master plan — shared sources
    /// instantiated once, every distinct fingerprinted prefix instantiated
    /// once behind [`SharedFanout`]s — and starts executing it on a
    /// background thread.  Returns once execution has started; use
    /// [`Self::attach`] / [`Self::detach`] to steer membership while it runs
    /// and [`Self::drain`] to wait for completion and collect the reports.
    pub fn start(&mut self, kind: ExecutorKind) -> EngineResult<()> {
        if self.running.is_some() {
            return Err(invalid("the manager is already running"));
        }
        let (master, controls, duplicates) = self.splice()?;
        let handle = std::thread::Builder::new()
            .name("dsms-manager".into())
            .spawn(move || {
                let report = match kind {
                    ExecutorKind::Sync => SyncExecutor::run(master),
                    ExecutorKind::Pooled => PooledExecutor::run(master),
                };
                // Dropping dozens of duplicate operators takes tens of µs,
                // so it happens here rather than on the caller's start path.
                drop(duplicates);
                report
            })
            .map_err(|e| EngineError::ExecutionFailed {
                detail: format!("failed to spawn the manager's execution thread: {e}"),
            })?;
        self.running = Some(Running { handle, controls });
        Ok(())
    }

    /// Builds the validated master plan and each query's membership port,
    /// and hands back the plan nodes sharing made redundant.
    ///
    /// Per source, the queries' prefix chains form a trie keyed by their
    /// cumulative hashes: the source is the root, and each distinct
    /// `(depth, hash)` is one operator instance.  See [`Splice`].
    fn splice(&mut self) -> EngineResult<(QueryPlan, Vec<MembershipPort>, Vec<PlanNode>)> {
        if self.queries.is_empty() {
            return Err(invalid("no queries are registered"));
        }
        if self.queries.iter().any(|q| q.parts.is_none()) {
            return Err(invalid("a manager instance drives one run and this one already ran"));
        }
        let mut master = QueryPlan::new();
        if let Some(c) = self.page_capacity {
            master = master.with_page_capacity(c);
        }
        if let Some(c) = self.queue_capacity {
            master = master.with_queue_capacity(c);
        }
        if let Some(w) = self.pool_size {
            master = master.with_worker_pool(w);
        }
        let mut splice = Splice {
            master,
            source: String::new(),
            plans: self.queries.iter_mut().map(|q| q.parts.take().map(Pieces::from)).collect(),
            queries: &self.queries,
            controls: (0..self.queries.len()).map(|_| None).collect(),
            duplicates: Vec::new(),
        };
        for (source_name, operator) in &mut self.sources {
            let members: Vec<usize> = (0..splice.queries.len())
                .filter(|&qi| splice.queries[qi].source == *source_name)
                .collect();
            if members.is_empty() {
                continue;
            }
            let source_op = operator.take().expect("sources are consumed exactly once per run");
            let schema = source_op
                .schema_out(0)
                .expect("add_source requires sources to declare their schema");
            splice.source.clone_from(source_name);
            let source_id = splice.master.add_boxed(source_op);
            splice.branch(&members, 0, source_id, schema, &[])?;
        }
        let Splice { master, controls, duplicates, .. } = splice;
        master.validate()?;
        let controls =
            controls.into_iter().map(|c| c.expect("every registered query is spliced")).collect();
        Ok((master, controls, duplicates))
    }

    /// Waits for the running master plan to finish and splits the result into
    /// per-query reports plus the manager-level summary.
    pub fn drain(&mut self) -> EngineResult<ManagerOutcome> {
        let running = self
            .running
            .take()
            .ok_or_else(|| invalid("the manager is not running (call start first)"))?;
        let master = running.handle.join().map_err(|_| EngineError::ExecutionFailed {
            detail: "the manager's execution thread panicked".into(),
        })??;

        let mut reports = Vec::with_capacity(self.queries.len());
        let mut per_query_feedback = Vec::with_capacity(self.queries.len());
        let mut quarantined = Vec::new();
        let mut started = 0;
        let mut stopped = 0;
        let mut active = 0;
        for (idx, query) in self.queries.iter().enumerate() {
            let prefix = format!("{}/", query.name);
            let mut report = ExecutionReport {
                elapsed: master.elapsed,
                metrics: Vec::new(),
                scheduler: master.scheduler,
            };
            let mut feedback = FeedbackStats::default();
            for metric in &master.metrics {
                if let Some(stripped) = metric.operator.strip_prefix(&prefix) {
                    let mut m = metric.clone();
                    m.operator = stripped.to_string();
                    feedback.merge(&m.feedback);
                    if let Some(failure) = &m.failure {
                        quarantined
                            .push((query.name.clone(), format!("{}: {failure}", m.operator)));
                    }
                    report.metrics.push(m);
                }
            }
            per_query_feedback.push((query.name.clone(), feedback));
            reports.push(QueryReport { name: query.name.clone(), report });

            let (controller, port) = &running.controls[idx];
            let commits: Vec<bool> = controller
                .commits()
                .iter()
                .filter(|c| c.port == *port)
                .map(|c| c.attached)
                .collect();
            let ever_attached = query.attached || commits.iter().any(|&a| a);
            let ever_detached = commits.iter().any(|&a| !a);
            let final_state = commits.last().copied().unwrap_or(query.attached);
            started += usize::from(ever_attached);
            stopped += usize::from(ever_detached);
            active += usize::from(final_state);
        }

        let (hits, total) = self.prefix_accounting();
        let summary = ManagerSummary {
            queries_registered: self.queries.len(),
            queries_started: started,
            queries_stopped: stopped,
            queries_active: active,
            shared_prefix_hits: hits,
            prefix_ops_total: total,
            per_query_feedback,
            quarantined,
        };
        Ok(ManagerOutcome { master, queries: reports, summary })
    }

    /// Convenience: [`Self::start`] then [`Self::drain`].  Scripted
    /// attach/detach boundaries still apply; runtime steering is obviously
    /// unavailable since the call blocks until the stream ends.
    pub fn run(&mut self, kind: ExecutorKind) -> EngineResult<ManagerOutcome> {
        self.start(kind)?;
        self.drain()
    }

    /// Shared-prefix accounting over the registered queries: `(instances
    /// saved by sharing, instances requested)`.  Each query requests its
    /// chain (at least the source); each distinct trie node — the source
    /// once, then one per distinct `(depth, cumulative hash)` — is built
    /// once, and everything requested but not built was saved.
    fn prefix_accounting(&self) -> (usize, usize) {
        let requested: usize = self.queries.iter().map(|q| q.chain.len().max(1)).sum();
        let mut built: HashSet<(&str, usize, u64)> = HashSet::new();
        for query in &self.queries {
            built.insert((&query.source, 0, 0));
            for (depth, &(_, hash)) in query.chain.iter().enumerate().skip(1) {
                built.insert((&query.source, depth, hash));
            }
        }
        (requested - built.len(), requested)
    }
}

/// The master plan under construction, spliced one prefix trie per source.
///
/// A trie node is one operator every member query asks for at the same
/// depth with the same cumulative hash.  A node with two or more members is
/// instantiated once, from the first member's [`PlanNode`], as
/// `shared/{src}/{path}/{op}`; a member alone at a node keeps that node and
/// everything after it as its private suffix, `{query}/{op}`.  A
/// [`SharedFanout`] `fanout/{src}/{path}` is inserted wherever the members
/// diverge — always after the source (`fanout/{src}`) — and `{path}` is the
/// list of fan-out ports crossed below `fanout/{src}`.  A query's membership
/// port is the one leading into its private suffix; ports leading into a
/// shared node stay attached for as long as the run lasts.
struct Splice<'a> {
    master: QueryPlan,
    /// The name of the source being spliced.
    source: String,
    queries: &'a [Registered],
    /// Each query's dismantled plan, index-parallel with `queries`; taken
    /// when the query's private suffix is spliced.
    plans: Vec<Option<Pieces>>,
    /// Each query's membership port, once spliced.
    controls: Vec<Option<MembershipPort>>,
    /// The placeholders and prefix nodes replaced by shared instances.
    duplicates: Vec<PlanNode>,
}

/// A registered plan taken apart for the splice: its node slots, emptied as
/// nodes are spliced or dropped as duplicates, plus its edges and the
/// index-parallel recovery policies and quarantine flags.
struct Pieces {
    nodes: Vec<Option<PlanNode>>,
    edges: Vec<Edge>,
    recovery: Vec<RecoveryPolicy>,
    quarantine: Vec<bool>,
}

impl From<PlanParts> for Pieces {
    fn from(parts: PlanParts) -> Self {
        Pieces {
            nodes: parts.nodes.into_iter().map(Some).collect(),
            edges: parts.edges,
            recovery: parts.recovery,
            quarantine: parts.quarantine,
        }
    }
}

impl Splice<'_> {
    /// `{kind}/{src}`, then `/{port}` for each fan-out port in `path`.
    fn name(&self, kind: &str, path: &[usize]) -> String {
        let mut name = format!("{kind}/{}", self.source);
        for port in path {
            name.push_str(&format!("/{port}"));
        }
        name
    }

    /// Wires what follows the trie node at `depth` shared by `members`
    /// (registration order), whose output is node `out` with `schema`.
    fn branch(
        &mut self,
        members: &[usize],
        depth: usize,
        out: NodeId,
        schema: SchemaRef,
        path: &[usize],
    ) -> EngineResult<()> {
        // One group per next operator, in order of first appearance; a member
        // whose chain ends here is a group of its own.
        let mut groups: Vec<(Option<u64>, Vec<usize>)> = Vec::new();
        for &qi in members {
            let next = self.queries[qi].chain.get(depth + 1).map(|&(_, hash)| hash);
            match groups.iter_mut().find(|(key, _)| next.is_some() && *key == next) {
                Some((_, group)) => group.push(qi),
                None => groups.push((next, vec![qi])),
            }
        }
        if depth > 0 && groups.len() == 1 {
            // Every member goes on through the same operator: no fan-out.
            return self.shared(&groups[0].1, depth + 1, (out, 0), schema, path);
        }
        let controller = FanoutController::shared();
        let initial: Vec<bool> = groups
            .iter()
            .map(|(_, group)| group.len() > 1 || self.queries[group[0]].attached)
            .collect();
        let fanout = self.master.add(
            SharedFanout::new(self.name("fanout", path), schema.clone(), groups.len())
                .with_controller(controller.clone())
                .with_initial(&initial),
        );
        self.master.connect(out, 0, fanout, 0)?;
        for (port, (_, group)) in groups.iter().enumerate() {
            if let [qi] = group[..] {
                self.private(qi, depth, (fanout, port), &controller)?;
            } else {
                let mut below = path.to_vec();
                below.push(port);
                self.shared(group, depth + 1, (fanout, port), schema.clone(), &below)?;
            }
        }
        Ok(())
    }

    /// Instantiates the trie node at `depth` shared by `members` once, fed
    /// from `from`, and wires what follows it.
    fn shared(
        &mut self,
        members: &[usize],
        depth: usize,
        from: (NodeId, usize),
        schema: SchemaRef,
        path: &[usize],
    ) -> EngineResult<()> {
        let owner = members[0];
        let idx = self.queries[owner].chain[depth].0;
        let node = self.plans[owner]
            .as_mut()
            .and_then(|plan| plan.nodes[idx].take())
            .expect("a trie node is instantiated once, before its members' suffixes");
        let schema = node.operator.schema_out(0).unwrap_or(schema);
        let name = format!("{}/{}", self.name("shared", path), node.name);
        let id = self.master.add_node(PlanNode { name, ..node });
        self.master.connect(from.0, from.1, id, 0)?;
        self.branch(members, depth, id, schema, path)
    }

    /// Splices query `qi`'s private suffix — everything after its trie node
    /// at `depth` — behind its membership port, and posts its scripted
    /// directives there.
    fn private(
        &mut self,
        qi: usize,
        depth: usize,
        port: (NodeId, usize),
        controller: &Arc<FanoutController>,
    ) -> EngineResult<()> {
        let query = &self.queries[qi];
        let mut plan = self.plans[qi].take().expect("every query is spliced once");
        let prefix = query.chain.iter().take(depth + 1).map(|&(idx, _)| idx);
        for idx in std::iter::once(query.source_idx).chain(prefix) {
            self.duplicates.extend(plan.nodes[idx].take());
        }
        let boundary = query.chain.get(depth).map_or(query.source_idx, |&(idx, _)| idx);
        splice_suffix(&mut self.master, &query.name, plan, boundary, port)?;
        for &(attach, at) in &query.schedule {
            controller.post(FanoutDirective { port: port.1, attach, at_boundary: Some(at) });
        }
        self.controls[qi] = Some((controller.clone(), port.1));
        Ok(())
    }
}

/// Adds the remaining (non-`None`) nodes of a dismantled plan to the master
/// plan under `query`-scoped names and re-creates their edges, with every
/// edge leaving `boundary` re-anchored to the given fan-out port.  Each
/// spliced node keeps the recovery policy and quarantine flag its query
/// declared.  Shared nodes never carry either: registration ends a chain
/// before any node that declares one.
fn splice_suffix(
    master: &mut QueryPlan,
    query: &str,
    plan: Pieces,
    boundary: usize,
    fanout: (NodeId, usize),
) -> EngineResult<()> {
    let mut map: HashMap<usize, NodeId> = HashMap::new();
    for (idx, slot) in plan.nodes.into_iter().enumerate() {
        if let Some(node) = slot {
            let id = master.add_node(PlanNode { name: format!("{query}/{}", node.name), ..node });
            if let Some(&policy) = plan.recovery.get(idx) {
                master.set_recovery(id, policy)?;
            }
            if plan.quarantine.get(idx).copied().unwrap_or(false) {
                master.set_quarantine(id, true)?;
            }
            map.insert(idx, id);
        }
    }
    for edge in plan.edges {
        let Some(&to) = map.get(&edge.to.index()) else {
            // Both endpoints inside the replaced prefix: nothing to wire.
            continue;
        };
        if edge.from.index() == boundary {
            master.connect(fanout.0, fanout.1, to, edge.to_port)?;
        } else if let Some(&from) = map.get(&edge.from.index()) {
            master.connect(from, edge.from_port, to, edge.to_port)?;
        } else {
            // An edge from a dropped non-boundary prefix node into a kept
            // node would silently lose a data path; prefix chains are linear
            // so this cannot happen unless the fingerprint contract is
            // violated.
            return Err(invalid(format!(
                "splice of query `{query}` hit an edge leaving the deduplicated prefix at a \
                 non-boundary node — the prefix chain was not linear"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_engine::{Stream, StreamBuilder};
    use dsms_operators::{AggregateFunction, SinkHandle, StreamOps, TuplePredicate, VecSource};
    use dsms_types::{DataType, Schema, StreamDuration, Timestamp, Tuple, Value};
    use std::time::Duration;

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)])
    }

    fn feed(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|v| {
                Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(v)), Value::Int(v)])
            })
            .collect()
    }

    fn source(n: i64) -> VecSource {
        VecSource::new("feed", feed(n)).with_punctuation("timestamp", StreamDuration::from_secs(4))
    }

    fn evens() -> TuplePredicate {
        TuplePredicate::new("v is even", |t| t.int("v").map(|v| v % 2 == 0).unwrap_or(false))
    }

    fn odds() -> TuplePredicate {
        TuplePredicate::new("v is odd", |t| t.int("v").map(|v| v % 2 != 0).unwrap_or(false))
    }

    fn digest(handle: &SinkHandle) -> String {
        let mut rows: Vec<String> =
            handle.lock().iter().map(|t| format!("{:?}", t.values())).collect();
        rows.sort();
        rows.join("\n")
    }

    /// A solo (manager-less) run of `source → select(pred) → sink`.
    fn solo_digest(n: i64, pred: TuplePredicate) -> String {
        let builder = StreamBuilder::new();
        let handle = builder
            .source(source(n))
            .unwrap()
            .select("filter", pred)
            .unwrap()
            .sink_collect("sink")
            .unwrap();
        SyncExecutor::run(builder.build().unwrap()).unwrap();
        digest(&handle)
    }

    fn managed_query(manager: &PipelineManager, pred: TuplePredicate) -> (QueryPlan, SinkHandle) {
        let builder = StreamBuilder::new();
        let handle = builder
            .source(manager.source_ref("feed").unwrap())
            .unwrap()
            .select("filter", pred)
            .unwrap()
            .sink_collect("sink")
            .unwrap();
        (builder.build().unwrap(), handle)
    }

    #[test]
    fn identical_prefixes_are_deduplicated_and_results_match_solo_runs() {
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(16)).unwrap();
        let (plan_a, sink_a) = managed_query(&manager, evens());
        let (plan_b, sink_b) = managed_query(&manager, evens());
        manager.register("qa", plan_a).unwrap();
        manager.register("qb", plan_b).unwrap();

        let outcome = manager.run(ExecutorKind::Sync).unwrap();
        let solo = solo_digest(16, evens());
        assert_eq!(digest(&sink_a), solo);
        assert_eq!(digest(&sink_b), solo);
        // source + select each requested twice, instantiated once.
        assert_eq!(outcome.summary.shared_prefix_hits, 2);
        assert_eq!(outcome.summary.prefix_ops_total, 4);
        assert_eq!(outcome.summary.queries_active, 2);
        assert_eq!(outcome.summary.queries_started, 2);
        assert_eq!(outcome.summary.queries_stopped, 0);
        assert_eq!(outcome.master.total_feedback_dropped(), 0);
        // The shared spine exists exactly once in the master plan, and every
        // spliced node carries its scoped name.
        let mut names: Vec<&str> =
            outcome.master.metrics.iter().map(|m| m.operator.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            ["fanout/feed", "fanout/feed/0", "feed", "qa/sink", "qb/sink", "shared/feed/0/filter"]
        );
        // Per-query reports resolve unscoped operator names.
        let qa = outcome.query("qa").unwrap();
        assert!(qa.operator("sink").is_some());
        assert!(qa.operator("filter").is_none(), "the filter is shared, not query-private");
    }

    #[test]
    fn different_filters_share_only_the_source() {
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(16)).unwrap();
        let (plan_a, sink_a) = managed_query(&manager, evens());
        let (plan_b, sink_b) = managed_query(&manager, odds());
        manager.register("qa", plan_a).unwrap();
        manager.register("qb", plan_b).unwrap();

        let outcome = manager.run(ExecutorKind::Sync).unwrap();
        assert_eq!(digest(&sink_a), solo_digest(16, evens()));
        assert_eq!(digest(&sink_b), solo_digest(16, odds()));
        assert_eq!(outcome.summary.shared_prefix_hits, 1, "only the source is shared");
        assert_eq!(outcome.summary.prefix_ops_total, 4);
        // Each query keeps its private filter.
        assert!(outcome.query("qa").unwrap().operator("filter").is_some());
        assert!(outcome.query("qb").unwrap().operator("filter").is_some());
    }

    #[test]
    fn scripted_detach_stops_one_query_without_disturbing_its_sibling() {
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(32)).unwrap();
        let (plan_a, sink_a) = managed_query(&manager, evens());
        let (plan_b, sink_b) = managed_query(&manager, evens());
        manager.register("qa", plan_a).unwrap();
        manager.register("qb", plan_b).unwrap();
        manager.detach_at("qb", 2).unwrap();

        let outcome = manager.run(ExecutorKind::Sync).unwrap();
        let solo = solo_digest(32, evens());
        assert_eq!(digest(&sink_a), solo, "the sibling is untouched");
        let partial = digest(&sink_b);
        assert_ne!(partial, solo, "the detached query stopped mid-stream");
        assert!(!partial.is_empty(), "the detached query ran until the scripted boundary");
        let solo_rows: Vec<&str> = solo.lines().collect();
        assert!(
            partial.lines().all(|row| solo_rows.contains(&row)),
            "every tuple the detached query saw belongs to the solo result"
        );
        assert_eq!(outcome.summary.queries_started, 2);
        assert_eq!(outcome.summary.queries_stopped, 1);
        assert_eq!(outcome.summary.queries_active, 1);
    }

    #[test]
    fn detached_registration_attaches_mid_stream_at_a_boundary() {
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(32)).unwrap();
        let (plan_a, sink_a) = managed_query(&manager, evens());
        let (plan_b, sink_b) = managed_query(&manager, evens());
        manager.register("qa", plan_a).unwrap();
        manager.register_detached("qb", plan_b).unwrap();
        assert_eq!(manager.query_state("qb"), Some(QueryState::Detached));
        manager.attach_at("qb", 2).unwrap();

        let outcome = manager.run(ExecutorKind::Sync).unwrap();
        let solo = solo_digest(32, evens());
        assert_eq!(digest(&sink_a), solo, "the sibling is untouched");
        let suffix = digest(&sink_b);
        assert_ne!(suffix, solo, "the late query missed the head of the stream");
        assert!(!suffix.is_empty(), "…but joined before the end");
        assert_eq!(outcome.summary.queries_started, 2);
        assert_eq!(outcome.summary.queries_active, 2);
    }

    /// `source → select(pred) → aggregate(function) → sink`, with the
    /// aggregate named `agg` and `configure` applied to its stream.
    fn aggregate_plan(
        source: impl Operator + 'static,
        pred: TuplePredicate,
        agg: &str,
        function: AggregateFunction,
        configure: impl FnOnce(Stream) -> Stream,
    ) -> (QueryPlan, SinkHandle) {
        let builder = StreamBuilder::new();
        let stream = builder
            .source(source)
            .unwrap()
            .select("filter", pred)
            .unwrap()
            .aggregate(agg, "timestamp", StreamDuration::from_secs(8), &[], function)
            .unwrap();
        let handle = configure(stream).sink_collect("sink").unwrap();
        (builder.build().unwrap(), handle)
    }

    fn solo_aggregate_digest(n: i64, pred: TuplePredicate, function: AggregateFunction) -> String {
        let (plan, handle) = aggregate_plan(source(n), pred, "agg", function, |s| s);
        SyncExecutor::run(plan).unwrap();
        digest(&handle)
    }

    fn sorted_names(report: &ExecutionReport) -> Vec<String> {
        let mut names: Vec<String> = report.metrics.iter().map(|m| m.operator.clone()).collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn prefixes_are_shared_operator_by_operator_as_a_trie() {
        // 2 filters × 2 functions × 2 queries: each filter runs once, each
        // (filter, function) aggregate runs once, and the per-query names
        // of the aggregates do not keep them apart.
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(40)).unwrap();
        type Filter = fn() -> TuplePredicate;
        let filters: [(&str, Filter); 2] = [("even", evens), ("odd", odds)];
        let functions =
            [("count", AggregateFunction::Count), ("sum", AggregateFunction::Sum("v".into()))];
        let mut sinks = Vec::new();
        for (filter, pred) in filters {
            for (label, function) in &functions {
                for copy in 0..2 {
                    let query = format!("{filter}-{label}-{copy}");
                    let source_ref = manager.source_ref("feed").unwrap();
                    let (plan, sink) = aggregate_plan(
                        source_ref,
                        pred(),
                        &format!("agg-{query}"),
                        function.clone(),
                        |s| s,
                    );
                    manager.register(query, plan).unwrap();
                    sinks.push((sink, pred, function.clone()));
                }
            }
        }
        let outcome = manager.run(ExecutorKind::Sync).unwrap();
        for (sink, pred, function) in &sinks {
            assert_eq!(digest(sink), solo_aggregate_digest(40, pred(), function.clone()));
        }
        assert_eq!(
            sorted_names(&outcome.master),
            [
                "even-count-0/sink",
                "even-count-1/sink",
                "even-sum-0/sink",
                "even-sum-1/sink",
                "fanout/feed",
                "fanout/feed/0",
                "fanout/feed/0/0",
                "fanout/feed/0/1",
                "fanout/feed/1",
                "fanout/feed/1/0",
                "fanout/feed/1/1",
                "feed",
                "odd-count-0/sink",
                "odd-count-1/sink",
                "odd-sum-0/sink",
                "odd-sum-1/sink",
                "shared/feed/0/0/agg-even-count-0",
                "shared/feed/0/1/agg-even-sum-0",
                "shared/feed/0/filter",
                "shared/feed/1/0/agg-odd-count-0",
                "shared/feed/1/1/agg-odd-sum-0",
                "shared/feed/1/filter",
            ]
        );
        // 8 queries × (source, filter, aggregate) requested; 1 source,
        // 2 filters and 4 aggregates built.
        assert_eq!(outcome.summary.prefix_ops_total, 24);
        assert_eq!(outcome.summary.shared_prefix_hits, 24 - 7);
        assert_eq!(outcome.master.total_feedback_dropped(), 0);
    }

    #[test]
    fn same_filter_different_aggregate_shares_the_filter() {
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(40)).unwrap();
        let sum = AggregateFunction::Sum("v".into());
        let source_ref = manager.source_ref("feed").unwrap();
        let (plan_a, sink_a) =
            aggregate_plan(source_ref, evens(), "agg", AggregateFunction::Count, |s| s);
        let source_ref = manager.source_ref("feed").unwrap();
        let (plan_b, sink_b) = aggregate_plan(source_ref, evens(), "agg", sum.clone(), |s| s);
        manager.register("qa", plan_a).unwrap();
        manager.register("qb", plan_b).unwrap();

        let outcome = manager.run(ExecutorKind::Sync).unwrap();
        assert_eq!(digest(&sink_a), solo_aggregate_digest(40, evens(), AggregateFunction::Count));
        assert_eq!(digest(&sink_b), solo_aggregate_digest(40, evens(), sum));
        assert_eq!(
            sorted_names(&outcome.master),
            [
                "fanout/feed",
                "fanout/feed/0",
                "feed",
                "qa/agg",
                "qa/sink",
                "qb/agg",
                "qb/sink",
                "shared/feed/0/filter"
            ]
        );
        // Source and filter requested twice, built once; the aggregates
        // differ.
        assert_eq!(outcome.summary.shared_prefix_hits, 2);
        assert_eq!(outcome.summary.prefix_ops_total, 6);
        assert!(outcome.query("qa").unwrap().operator("agg").is_some());
    }

    #[test]
    fn detach_below_a_shared_aggregate_counts_closed_windows() {
        // Two identical aggregate queries share one aggregate; its output
        // punctuations are the fan-out's boundaries, so detaching at
        // boundary 2 delivers exactly the first two closed windows.
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(40)).unwrap();
        let mut sinks = Vec::new();
        for query in ["qa", "qb"] {
            let source_ref = manager.source_ref("feed").unwrap();
            let (plan, sink) =
                aggregate_plan(source_ref, evens(), "agg", AggregateFunction::Count, |s| s);
            manager.register(query, plan).unwrap();
            sinks.push(sink);
        }
        manager.detach_at("qb", 2).unwrap();

        let outcome = manager.run(ExecutorKind::Sync).unwrap();
        let names = sorted_names(&outcome.master);
        assert!(
            names.contains(&"shared/feed/0/agg".to_string()),
            "one shared aggregate: {names:?}"
        );
        let solo = solo_aggregate_digest(40, evens(), AggregateFunction::Count);
        assert_eq!(digest(&sinks[0]), solo, "the sibling sees every window");
        let windows = |sink: &SinkHandle| {
            let mut starts: Vec<Value> =
                sink.lock().iter().map(|t| t.values()[0].clone()).collect();
            starts.sort();
            starts
        };
        let first_two = windows(&sinks[0])[..2].to_vec();
        assert_eq!(windows(&sinks[1]), first_two, "exactly the first two closed windows");
        assert_eq!(outcome.summary.queries_stopped, 1);
    }

    #[test]
    fn a_declared_recovery_policy_or_quarantine_keeps_the_node_private() {
        let restart = RecoveryPolicy::Restart { max_restarts: 2, backoff: Duration::ZERO };
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(40)).unwrap();
        let configure: [fn(Stream) -> Stream; 4] = [
            |s| s,
            |s| {
                s.with_recovery(RecoveryPolicy::Restart {
                    max_restarts: 2,
                    backoff: Duration::ZERO,
                })
            },
            Stream::quarantine_on_failure,
            |s| s,
        ];
        let mut sinks = Vec::new();
        for (query, configure) in ["qa", "qb", "qc", "qd"].into_iter().zip(configure) {
            let source_ref = manager.source_ref("feed").unwrap();
            let (plan, sink) =
                aggregate_plan(source_ref, evens(), "agg", AggregateFunction::Count, configure);
            manager.register(query, plan).unwrap();
            sinks.push(sink);
        }

        let (master, ..) = manager.splice().unwrap();
        let node = |name: &str| {
            master.topological_order().into_iter().find(|&id| master.node_name(id) == Some(name))
        };
        let private_b = node("qb/agg").expect("qb's aggregate is private");
        assert_eq!(master.recovery_policy(private_b), restart, "and keeps its restart policy");
        let private_c = node("qc/agg").expect("qc's aggregate is private");
        assert!(master.quarantined_on_failure(private_c), "and keeps its quarantine flag");
        // qa and qd declared nothing and still share theirs, behind the
        // shared filter all four use.
        let shared = node("shared/feed/0/0/agg").expect("qa and qd share their aggregate");
        assert_eq!(master.recovery_policy(shared), RecoveryPolicy::FailFast);
        assert!(node("shared/feed/0/filter").is_some());
        assert!(node("qa/agg").is_none() && node("qd/agg").is_none());

        SyncExecutor::run(master).unwrap();
        let solo = solo_aggregate_digest(40, evens(), AggregateFunction::Count);
        for sink in &sinks {
            assert_eq!(digest(sink), solo);
        }
    }

    #[test]
    fn registration_is_validated() {
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(4)).unwrap();
        assert!(manager.add_source("feed", source(4)).is_err(), "duplicate source");
        assert!(manager.add_source("a/b", source(4)).is_err(), "invalid name");
        assert!(manager.source_ref("nope").is_err(), "unknown source");

        // A plan that instantiates its own source is rejected.
        let builder = StreamBuilder::new();
        builder.source(source(4)).unwrap().sink_collect("sink").unwrap();
        let err = manager.register("raw", builder.build().unwrap()).unwrap_err().to_string();
        assert!(err.contains("not a SourceRef"), "{err}");

        // Unknown source reference.
        let builder = StreamBuilder::new();
        builder.source(SourceRef::new("nope", schema())).unwrap().sink_collect("sink").unwrap();
        let err = manager.register("ghost", builder.build().unwrap()).unwrap_err().to_string();
        assert!(err.contains("unknown source `nope`"), "{err}");

        // Schema mismatch against the declared source.
        let other = Schema::shared(&[("x", DataType::Int)]);
        let builder = StreamBuilder::new();
        builder.source(SourceRef::new("feed", other)).unwrap().sink_collect("sink").unwrap();
        let err = manager.register("skewed", builder.build().unwrap()).unwrap_err().to_string();
        assert!(err.contains("expects schema"), "{err}");

        // Reserved and duplicate query names.
        let (plan, _) = managed_query(&manager, evens());
        assert!(manager.register("shared", plan).is_err(), "reserved name");
        let (plan, _) = managed_query(&manager, evens());
        manager.register("qa", plan).unwrap();
        let (plan, _) = managed_query(&manager, evens());
        assert!(manager.register("qa", plan).is_err(), "duplicate query name");

        // Lifecycle calls on unknown queries fail.
        assert!(manager.attach("nope").is_err());
        assert!(manager.unregister("nope").is_err());
        manager.unregister("qa").unwrap();
        assert!(manager.run(ExecutorKind::Sync).is_err(), "no queries left");
    }

    #[test]
    fn a_manager_instance_drives_exactly_one_run() {
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(8)).unwrap();
        let (plan, _) = managed_query(&manager, evens());
        manager.register("qa", plan).unwrap();
        manager.run(ExecutorKind::Sync).unwrap();
        assert!(manager.drain().is_err(), "already drained");
        assert!(manager.start(ExecutorKind::Sync).is_err(), "plans were consumed");
    }
}

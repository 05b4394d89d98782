//! Query-plan construction.
//!
//! A [`QueryPlan`] is a directed acyclic graph of operators.  Edges connect an
//! output port of one operator to an input port of another and become
//! page-based data queues (downstream) paired with control channels
//! (upstream) at execution time.

use crate::error::{EngineError, EngineResult};
use crate::operator::Operator;
use crate::page::PageBuilder;
use crate::queue::DataQueue;

/// Identifier of an operator node within a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's position in the plan's node list (also its index into the
    /// [`PlanParts::nodes`] vector after [`QueryPlan::into_parts`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One named node of a plan — what [`QueryPlan::into_parts`] takes out and
/// [`QueryPlan::add_node`] puts in.
pub struct PlanNode {
    /// The node's display name: the operator's own name unless the node was
    /// added under another one via [`QueryPlan::add_node`].
    pub name: String,
    /// The operator itself, ready to be re-added to another plan.
    pub operator: Box<dyn Operator>,
}

/// A [`QueryPlan`] broken into its parts for re-composition.
///
/// A multi-query manager consumes registered plans this way: it takes each
/// plan apart, drops the nodes that duplicate an already-instantiated shared
/// prefix, and re-adds the rest to one master plan with the edges remapped.
/// [`Edge`] endpoints index into `nodes` via [`NodeId::index`].
pub struct PlanParts {
    /// The operators, in their original node-id order.
    pub nodes: Vec<PlanNode>,
    /// The connections between them (endpoints index into `nodes`).
    pub edges: Vec<Edge>,
    /// The plan's tuples-per-page capacity.
    pub page_capacity: usize,
    /// The plan's pages-in-flight bound.
    pub queue_capacity: usize,
    /// The plan's pooled-executor worker count, if configured.
    pub pool_size: Option<usize>,
    /// Per-node recovery policies, in node-id order.
    pub recovery: Vec<RecoveryPolicy>,
    /// Per-node quarantine flags, in node-id order.
    pub quarantine: Vec<bool>,
}

/// What the executor does when an operator's data-path callback fails
/// (returns an error or panics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Abort the run with a named [`EngineError::OperatorFailed`] (the
    /// default, and the only behaviour before supervised recovery existed).
    #[default]
    FailFast,
    /// Restore the operator's last punctuation-epoch checkpoint and replay
    /// the retained post-checkpoint input suffix, up to `max_restarts` times.
    /// Each retry sleeps `backoff × attempt` first (attempt counting from 1;
    /// `Duration::ZERO` retries immediately — the right choice for the sync
    /// executor and for tests).  An operator under this policy must declare
    /// [`Operator::restartable`].
    Restart {
        /// Restart budget; once exhausted the failure becomes terminal
        /// (fail-fast abort, or a tombstone when the node is quarantined).
        max_restarts: u32,
        /// Base delay between attempts, scaled linearly by attempt number.
        backoff: std::time::Duration,
    },
}

/// A connection between two operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producing node.
    pub from: NodeId,
    /// Output port on the producing node.
    pub from_port: usize,
    /// Consuming node.
    pub to: NodeId,
    /// Input port on the consuming node.
    pub to_port: usize,
}

pub(crate) struct Node {
    pub(crate) name: String,
    pub(crate) inputs: usize,
    pub(crate) outputs: usize,
    pub(crate) operator: Box<dyn Operator>,
}

/// A directed acyclic graph of operators, ready to be executed.
///
/// The `Debug` rendering summarizes shape only (operators are trait objects);
/// use [`QueryPlan::dot`] for a full structural dump.
pub struct QueryPlan {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) page_capacity: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) pool_size: Option<usize>,
    /// node index → preferred pooled-executor worker (hint, taken modulo the
    /// actual pool size).  Kept in lockstep with `nodes` by `add_boxed`.
    pub(crate) pins: Vec<Option<usize>>,
    /// node index → recovery policy.  Kept in lockstep with `nodes`.
    pub(crate) recovery: Vec<RecoveryPolicy>,
    /// node index → quarantine flag: when set, a terminal failure of the
    /// node tombstones it (drains its branch, records the failure in its
    /// metrics) instead of aborting the whole run.  Kept in lockstep with
    /// `nodes`.
    pub(crate) quarantine: Vec<bool>,
    /// Punctuation-epoch length between checkpoints for operators under a
    /// `Restart` policy; 0 disables checkpointing (restarts restore the
    /// initial state and replay everything retained).
    pub(crate) checkpoint_interval: u64,
}

impl Default for QueryPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryPlan")
            .field("nodes", &self.nodes.iter().map(|n| n.name.as_str()).collect::<Vec<_>>())
            .field("edges", &self.edges)
            .field("page_capacity", &self.page_capacity)
            .field("queue_capacity", &self.queue_capacity)
            .field("pool_size", &self.pool_size)
            .finish()
    }
}

impl QueryPlan {
    /// Creates an empty plan with default page and queue capacities.
    ///
    /// # Examples
    ///
    /// ```
    /// use dsms_engine::QueryPlan;
    ///
    /// let plan = QueryPlan::new().with_page_capacity(64).with_queue_capacity(8);
    /// assert_eq!(plan.node_count(), 0);
    /// assert_eq!(plan.page_capacity(), 64);
    /// assert_eq!(plan.queue_capacity(), 8);
    /// // `Default` is equivalent to `new()`.
    /// assert_eq!(QueryPlan::default().page_capacity(), QueryPlan::new().page_capacity());
    /// ```
    pub fn new() -> Self {
        QueryPlan {
            nodes: Vec::new(),
            edges: Vec::new(),
            page_capacity: PageBuilder::DEFAULT_CAPACITY,
            queue_capacity: DataQueue::DEFAULT_CAPACITY,
            pool_size: None,
            pins: Vec::new(),
            recovery: Vec::new(),
            quarantine: Vec::new(),
            checkpoint_interval: Self::DEFAULT_CHECKPOINT_INTERVAL,
        }
    }

    /// Default punctuation-epoch length between checkpoints (see
    /// [`QueryPlan::with_checkpoint_interval`]).
    pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4;

    /// Sets the tuples-per-page capacity used on every connection.
    pub fn with_page_capacity(mut self, capacity: usize) -> Self {
        self.page_capacity = capacity.max(1);
        self
    }

    /// Sets the pages-in-flight bound used on every connection (pooled
    /// executor back-pressure).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// The tuples-per-page capacity.
    pub fn page_capacity(&self) -> usize {
        self.page_capacity
    }

    /// The pages-in-flight bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Sets the number of worker threads the pooled executor should run this
    /// plan with.  Clamped to at least 1; the sync executor ignores it.  When unset, [`crate::pooled::PooledExecutor`] defaults to
    /// the machine's available parallelism.
    pub fn with_worker_pool(mut self, workers: usize) -> Self {
        self.pool_size = Some(workers.max(1));
        self
    }

    /// The configured pooled-executor worker count, if any.
    pub fn worker_pool(&self) -> Option<usize> {
        self.pool_size
    }

    /// Pins an operator to a preferred pooled-executor worker.  A *hint*, not
    /// an assignment: the pin picks the operator's home run queue (modulo the
    /// actual pool size), but idle workers may still steal the task.  Useful
    /// to co-locate a chain of operators so pages flow between them without
    /// crossing workers, or to spread known-heavy operators apart.
    pub fn pin_to_worker(&mut self, node: NodeId, worker: usize) -> EngineResult<()> {
        match self.pins.get_mut(node.0) {
            Some(slot) => {
                *slot = Some(worker);
                Ok(())
            }
            None => Err(EngineError::InvalidPlan {
                detail: format!(
                    "cannot pin {node:?} to worker {worker}: the node does not exist (the plan \
                     has {} nodes)",
                    self.nodes.len()
                ),
            }),
        }
    }

    /// The worker an operator is pinned to, if any.
    pub fn worker_pin(&self, node: NodeId) -> Option<usize> {
        self.pins.get(node.0).copied().flatten()
    }

    /// Sets the recovery policy for an operator (the default is
    /// [`RecoveryPolicy::FailFast`]).  [`QueryPlan::validate`] rejects a
    /// `Restart` policy on an operator that does not declare
    /// [`Operator::restartable`].
    pub fn set_recovery(&mut self, node: NodeId, policy: RecoveryPolicy) -> EngineResult<()> {
        match self.recovery.get_mut(node.0) {
            Some(slot) => {
                *slot = policy;
                Ok(())
            }
            None => Err(EngineError::InvalidPlan {
                detail: format!(
                    "cannot set a recovery policy on {node:?}: the node does not exist (the plan \
                     has {} nodes)",
                    self.nodes.len()
                ),
            }),
        }
    }

    /// The recovery policy of an operator ([`RecoveryPolicy::FailFast`] when
    /// never set).
    pub fn recovery_policy(&self, node: NodeId) -> RecoveryPolicy {
        self.recovery.get(node.0).copied().unwrap_or_default()
    }

    /// Marks an operator as quarantinable: a terminal failure (fail-fast, or
    /// a `Restart` budget exhausted) tombstones the node — its branch is
    /// drained cleanly and the failure recorded in the node's metrics
    /// ([`crate::OperatorMetrics::failure`]) — instead of aborting the whole
    /// run.  A multi-query manager sets this on every private node of a
    /// registered query so one query's failure cannot take down its
    /// siblings.
    pub fn set_quarantine(&mut self, node: NodeId, quarantine: bool) -> EngineResult<()> {
        match self.quarantine.get_mut(node.0) {
            Some(slot) => {
                *slot = quarantine;
                Ok(())
            }
            None => Err(EngineError::InvalidPlan {
                detail: format!(
                    "cannot quarantine {node:?}: the node does not exist (the plan has {} nodes)",
                    self.nodes.len()
                ),
            }),
        }
    }

    /// Whether an operator is quarantinable.
    pub fn quarantined_on_failure(&self, node: NodeId) -> bool {
        self.quarantine.get(node.0).copied().unwrap_or(false)
    }

    /// Sets the punctuation-epoch length between checkpoints for operators
    /// under a [`RecoveryPolicy::Restart`] policy: a checkpoint is taken once
    /// an operator has consumed `interval` punctuations since its last one,
    /// aligning snapshots with the stream's punctuation epochs (the same
    /// consistent-cut idea the elastic repartitioning handshake uses).  0
    /// disables checkpointing entirely.
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// The punctuation-epoch checkpoint interval (0 = disabled).
    pub fn checkpoint_interval(&self) -> u64 {
        self.checkpoint_interval
    }

    /// Adds an operator to the plan, returning its node id.
    pub fn add(&mut self, operator: impl Operator + 'static) -> NodeId {
        self.add_boxed(Box::new(operator))
    }

    /// Adds an already-boxed operator to the plan.
    pub fn add_boxed(&mut self, operator: Box<dyn Operator>) -> NodeId {
        self.add_node(PlanNode { name: operator.name().to_string(), operator })
    }

    /// Adds a node under the given name — the inverse of
    /// [`into_parts`](QueryPlan::into_parts).  The plan reports, attributes
    /// errors to and draws the node under `node.name`, whatever the
    /// operator's own [`Operator::name`] says; a multi-query manager uses
    /// this to give spliced nodes query-scoped names.
    pub fn add_node(&mut self, node: PlanNode) -> NodeId {
        let PlanNode { name, operator } = node;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name,
            inputs: operator.inputs(),
            outputs: operator.outputs(),
            operator,
        });
        self.pins.push(None);
        self.recovery.push(RecoveryPolicy::FailFast);
        self.quarantine.push(false);
        id
    }

    /// Connects output port `from_port` of `from` to input port `to_port` of
    /// `to`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dsms_engine::{EngineResult, Operator, OperatorContext, QueryPlan};
    /// use dsms_types::Tuple;
    ///
    /// /// A pass-through operator with one input and one output.
    /// struct Pass;
    ///
    /// impl Operator for Pass {
    ///     fn name(&self) -> &str {
    ///         "pass"
    ///     }
    ///     fn inputs(&self) -> usize {
    ///         1
    ///     }
    ///     fn on_tuple(&mut self, _: usize, t: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
    ///         ctx.emit(0, t);
    ///         Ok(())
    ///     }
    /// }
    ///
    /// let mut plan = QueryPlan::new();
    /// let a = plan.add(Pass);
    /// let b = plan.add(Pass);
    /// plan.connect(a, 0, b, 0)?; // equivalently: plan.connect_simple(a, b)?
    /// assert_eq!(plan.edge_count(), 1);
    /// // A second consumer on the same output port is rejected:
    /// let c = plan.add(Pass);
    /// assert!(plan.connect(a, 0, c, 0).is_err());
    /// # Ok::<(), dsms_engine::EngineError>(())
    /// ```
    pub fn connect(
        &mut self,
        from: NodeId,
        from_port: usize,
        to: NodeId,
        to_port: usize,
    ) -> EngineResult<()> {
        // Name both endpoints wherever possible: a connection error should
        // read "`source` -> `sink`", not a pair of bare node ids.
        let describe = |id: NodeId| match self.nodes.get(id.0) {
            Some(node) => format!("`{}`", node.name),
            None => format!("{id:?}"),
        };
        let from_node = self.nodes.get(from.0).ok_or_else(|| EngineError::InvalidPlan {
            detail: format!(
                "cannot connect {} -> {}: source node {:?} does not exist (the plan has {} nodes)",
                describe(from),
                describe(to),
                from,
                self.nodes.len()
            ),
        })?;
        let to_node = self.nodes.get(to.0).ok_or_else(|| EngineError::InvalidPlan {
            detail: format!(
                "cannot connect `{}` -> {}: target node {:?} does not exist (the plan has {} \
                 nodes)",
                from_node.name,
                describe(to),
                to,
                self.nodes.len()
            ),
        })?;
        if from_port >= from_node.outputs {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "operator `{}` has {} outputs, port {} does not exist",
                    from_node.name, from_node.outputs, from_port
                ),
            });
        }
        if to_port >= to_node.inputs {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "operator `{}` has {} inputs, port {} does not exist",
                    to_node.name, to_node.inputs, to_port
                ),
            });
        }
        if self.edges.iter().any(|e| e.from == from && e.from_port == from_port) {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "output port {from_port} of `{}` is already connected",
                    from_node.name
                ),
            });
        }
        if self.edges.iter().any(|e| e.to == to && e.to_port == to_port) {
            return Err(EngineError::InvalidPlan {
                detail: format!("input port {to_port} of `{}` is already connected", to_node.name),
            });
        }
        self.edges.push(Edge { from, from_port, to, to_port });
        Ok(())
    }

    /// Convenience: connect port 0 to port 0.
    pub fn connect_simple(&mut self, from: NodeId, to: NodeId) -> EngineResult<()> {
        self.connect(from, 0, to, 0)
    }

    /// Number of operators.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of connections.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The name of a node.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.nodes.get(id.0).map(|n| n.name.as_str())
    }

    /// The edges of the plan.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Validates the plan: every input port of every operator must be
    /// connected, and the graph must be acyclic.  (Unconnected *output* ports
    /// are allowed — their emissions are discarded — so sinks are simply
    /// operators with zero outputs or unconnected outputs.)  Operators that
    /// declare [`Operator::must_connect_all_outputs`] — hash partitioners,
    /// whose unconnected ports would silently drop whole partitions — are
    /// additionally required to have every output port connected.
    pub fn validate(&self) -> EngineResult<()> {
        for (idx, node) in self.nodes.iter().enumerate() {
            for port in 0..node.inputs {
                let connected = self.edges.iter().any(|e| e.to == NodeId(idx) && e.to_port == port);
                if !connected {
                    return Err(EngineError::InvalidPlan {
                        detail: format!("input port {port} of `{}` is not connected", node.name),
                    });
                }
            }
            if matches!(self.recovery.get(idx), Some(RecoveryPolicy::Restart { .. }))
                && !node.operator.restartable()
            {
                return Err(EngineError::InvalidPlan {
                    detail: format!(
                        "`{}` has a Restart recovery policy but is not restartable — the \
                         operator must implement checkpoint/restore (and must not hold \
                         unreplayable obligations such as builder-level feedback \
                         subscriptions) to be supervised",
                        node.name
                    ),
                });
            }
            if node.operator.must_connect_all_outputs() {
                let connected = self.edges.iter().filter(|e| e.from == NodeId(idx)).count();
                if connected != node.outputs {
                    return Err(EngineError::InvalidPlan {
                        detail: format!(
                            "`{}` routes its input across {} output partitions but only {} are \
                             connected — every partition must be wired to a replica, or tuples \
                             hashed to the dangling ports would be lost",
                            node.name, node.outputs, connected
                        ),
                    });
                }
            }
        }
        // Kahn's algorithm for cycle detection.
        let mut in_degree = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            in_degree[e.to.0] += 1;
        }
        let mut queue: Vec<usize> = (0..self.nodes.len()).filter(|i| in_degree[*i] == 0).collect();
        let mut visited = 0;
        while let Some(n) = queue.pop() {
            visited += 1;
            for e in self.edges.iter().filter(|e| e.from.0 == n) {
                in_degree[e.to.0] -= 1;
                if in_degree[e.to.0] == 0 {
                    queue.push(e.to.0);
                }
            }
        }
        if visited != self.nodes.len() {
            // Nodes with residual in-degree are on a cycle *or merely
            // downstream of one; strip the innocent tail (repeatedly remove
            // residual nodes with no successor left in the residual set) so
            // the error names only nodes actually on a cycle.
            let mut residual: Vec<bool> = in_degree.iter().map(|d| *d > 0).collect();
            loop {
                let removable: Vec<usize> = (0..self.nodes.len())
                    .filter(|&i| {
                        residual[i] && !self.edges.iter().any(|e| e.from.0 == i && residual[e.to.0])
                    })
                    .collect();
                if removable.is_empty() {
                    break;
                }
                for i in removable {
                    residual[i] = false;
                }
            }
            let trapped: Vec<String> = residual
                .iter()
                .enumerate()
                .filter(|(_, on_cycle)| **on_cycle)
                .map(|(i, _)| format!("`{}`", self.nodes[i].name))
                .collect();
            return Err(EngineError::InvalidPlan {
                detail: format!("plan contains a cycle through {}", trapped.join(", ")),
            });
        }
        Ok(())
    }

    /// Renders the plan as a Graphviz `dot` digraph for debugging — data
    /// edges solid (labelled with their ports), feedback (control) edges
    /// dashed and drawn *against* the data flow wherever the consumer side of
    /// an edge declares it produces or relays feedback and the producer side
    /// declares a feedback port to receive it.  Node labels carry the
    /// operator's declared feedback roles.
    ///
    /// # Examples
    ///
    /// ```
    /// use dsms_engine::QueryPlan;
    ///
    /// let plan = QueryPlan::new();
    /// let dot = plan.dot();
    /// assert!(dot.starts_with("digraph plan {"));
    /// assert!(dot.trim_end().ends_with('}'));
    /// ```
    pub fn dot(&self) -> String {
        use std::fmt::Write as _;
        let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = String::from("digraph plan {\n  rankdir=LR;\n  node [shape=box];\n");
        for (i, node) in self.nodes.iter().enumerate() {
            let roles = node.operator.feedback_roles();
            if roles.is_none() {
                let _ = writeln!(out, "  n{i} [label=\"{}\"];", escape(&node.name));
            } else {
                let _ = writeln!(out, "  n{i} [label=\"{}\\n[{roles}]\"];", escape(&node.name));
            }
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{}:{}\"];",
                e.from.0, e.to.0, e.from_port, e.to_port
            );
        }
        // One dashed control edge per node pair, even when parallel data
        // edges connect the same operators (e.g. a split feeding both of a
        // union's inputs): the control channel is per-connection, but the
        // debug rendering reads better with one arrow per logical path.
        let mut feedback_pairs = std::collections::HashSet::new();
        for e in &self.edges {
            let consumer = self.nodes[e.to.0].operator.feedback_roles();
            let producer = self.nodes[e.from.0].operator.feedback_roles();
            if (consumer.produces() || consumer.relays())
                && producer.accepts_feedback()
                && feedback_pairs.insert((e.to.0, e.from.0))
            {
                let _ = writeln!(
                    out,
                    "  n{} -> n{} [style=dashed, constraint=false, label=\"¬?!\"];",
                    e.to.0, e.from.0
                );
            }
        }
        out.push_str("}\n");
        out
    }

    /// The nodes with zero input ports (the plan's sources), in node order.
    pub fn source_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].inputs == 0).map(NodeId).collect()
    }

    /// The maximal dedupe-able prefix chain starting at `from`, as
    /// `(node, cumulative fingerprint)` pairs.
    ///
    /// The chain begins at `from` (usually a source) and extends through
    /// single-input/single-output operators that declare an
    /// [`Operator::fingerprint`] — stateless ones such as select and project
    /// and stateful ones such as the window aggregate alike — following the
    /// unique data edge out of each node.  Each entry's hash folds the node's
    /// own fingerprint into the hash of everything before it, so two plans
    /// with equal hashes at equal depths have **identical** prefixes up to
    /// that depth and can share one execution of them; a multi-query manager
    /// shares every such common prefix, not only whole chains.  The chain
    /// ends — and the returned vector stops — after the first operator that
    /// feeds more than one consumer, and before the first that is
    /// unfingerprinted (subscription wrappers, sinks, joins) or has more
    /// than one input or output (splits).  Returns an empty vector when
    /// `from` itself declares no fingerprint.
    pub fn prefix_chain(&self, from: NodeId) -> Vec<(NodeId, u64)> {
        use std::hash::{Hash, Hasher};
        let mut chain = Vec::new();
        let mut hash = 0u64;
        let mut current = from;
        while let Some(node) = self.nodes.get(current.0) {
            let fingerprint = match node.operator.fingerprint() {
                Some(f) => f,
                None => break,
            };
            // Chains are linear: one output port feeding exactly one consumer
            // (the first link may be a source; later links are 1-in/1-out).
            if node.outputs != 1 || (!chain.is_empty() && node.inputs != 1) {
                break;
            }
            let mut hasher = dsms_types::FixedHasher::new();
            hash.hash(&mut hasher);
            fingerprint.hash(&mut hasher);
            hash = hasher.finish();
            chain.push((current, hash));
            let mut consumers = self.edges.iter().filter(|e| e.from == current);
            match (consumers.next(), consumers.next()) {
                (Some(edge), None) => current = edge.to,
                _ => break,
            }
        }
        chain
    }

    /// Dismantles the plan into its [`PlanParts`] for re-composition into
    /// another plan (see the `PlanParts` docs).  The plan is consumed; edges
    /// keep indexing the returned node vector via [`NodeId::index`].
    pub fn into_parts(self) -> PlanParts {
        PlanParts {
            nodes: self
                .nodes
                .into_iter()
                .map(|n| PlanNode { name: n.name, operator: n.operator })
                .collect(),
            edges: self.edges,
            page_capacity: self.page_capacity,
            queue_capacity: self.queue_capacity,
            pool_size: self.pool_size,
            recovery: self.recovery,
            quarantine: self.quarantine,
        }
    }

    /// Returns the node ids in a topological order (sources first).  The plan
    /// must be valid.
    pub fn topological_order(&self) -> Vec<NodeId> {
        let mut in_degree = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            in_degree[e.to.0] += 1;
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..self.nodes.len()).filter(|i| in_degree[*i] == 0).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = queue.pop_front() {
            order.push(NodeId(n));
            for e in self.edges.iter().filter(|e| e.from.0 == n) {
                in_degree[e.to.0] -= 1;
                if in_degree[e.to.0] == 0 {
                    queue.push_back(e.to.0);
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{OperatorContext, SourceState};
    use dsms_types::Tuple;

    struct Dummy {
        name: String,
        inputs: usize,
        outputs: usize,
    }

    impl Dummy {
        fn new(name: &str, inputs: usize, outputs: usize) -> Self {
            Dummy { name: name.into(), inputs, outputs }
        }
    }

    impl Operator for Dummy {
        fn name(&self) -> &str {
            &self.name
        }
        fn inputs(&self) -> usize {
            self.inputs
        }
        fn outputs(&self) -> usize {
            self.outputs
        }
        fn on_tuple(&mut self, _i: usize, _t: Tuple, _c: &mut OperatorContext) -> EngineResult<()> {
            Ok(())
        }
        fn poll_source(&mut self, _c: &mut OperatorContext) -> EngineResult<SourceState> {
            Ok(if self.inputs == 0 { SourceState::Exhausted } else { SourceState::NotASource })
        }
    }

    #[test]
    fn build_and_validate_linear_plan() {
        let mut plan = QueryPlan::new();
        let src = plan.add(Dummy::new("source", 0, 1));
        let map = plan.add(Dummy::new("map", 1, 1));
        let sink = plan.add(Dummy::new("sink", 1, 0));
        plan.connect_simple(src, map).unwrap();
        plan.connect_simple(map, sink).unwrap();
        assert_eq!(plan.node_count(), 3);
        assert_eq!(plan.edge_count(), 2);
        plan.validate().unwrap();
        let order = plan.topological_order();
        assert_eq!(order.first(), Some(&src));
        assert_eq!(order.last(), Some(&sink));
        assert_eq!(plan.node_name(map), Some("map"));
    }

    #[test]
    fn add_node_names_the_node_not_the_operator() {
        let mut plan = QueryPlan::new();
        let src = plan.add(Dummy::new("source", 0, 1));
        let operator = Box::new(Dummy::new("sink", 1, 0));
        let sink = plan.add_node(PlanNode { name: "q/sink".into(), operator });
        plan.connect_simple(src, sink).unwrap();
        assert_eq!(plan.node_name(sink), Some("q/sink"));
        let report = crate::executor::SyncExecutor::run(plan).unwrap();
        assert!(report.operator("q/sink").is_some(), "metrics carry the node name");
        assert!(report.operator("sink").is_none(), "not the operator's own name");
    }

    #[test]
    fn unconnected_input_is_rejected() {
        let mut plan = QueryPlan::new();
        let _src = plan.add(Dummy::new("source", 0, 1));
        let _map = plan.add(Dummy::new("map", 1, 1));
        let err = plan.validate().unwrap_err();
        assert!(matches!(err, EngineError::InvalidPlan { .. }));
    }

    #[test]
    fn double_connection_is_rejected() {
        let mut plan = QueryPlan::new();
        let src = plan.add(Dummy::new("source", 0, 1));
        let a = plan.add(Dummy::new("a", 1, 1));
        let b = plan.add(Dummy::new("b", 1, 1));
        plan.connect_simple(src, a).unwrap();
        assert!(plan.connect_simple(src, b).is_err(), "output port reused");
        let src2 = plan.add(Dummy::new("source2", 0, 1));
        assert!(plan.connect_simple(src2, a).is_err(), "input port reused");
    }

    #[test]
    fn invalid_ports_are_rejected() {
        let mut plan = QueryPlan::new();
        let src = plan.add(Dummy::new("source", 0, 1));
        let sink = plan.add(Dummy::new("sink", 1, 0));
        assert!(plan.connect(src, 1, sink, 0).is_err());
        assert!(plan.connect(src, 0, sink, 3).is_err());
        assert!(plan.connect(NodeId(99), 0, sink, 0).is_err());
        assert!(plan.connect(src, 0, NodeId(99), 0).is_err());
    }

    #[test]
    fn unknown_node_errors_name_the_known_operator() {
        let mut plan = QueryPlan::new();
        let src = plan.add(Dummy::new("source", 0, 1));
        let sink = plan.add(Dummy::new("sink", 1, 0));

        let err = plan.connect_simple(src, NodeId(99)).unwrap_err().to_string();
        assert_eq!(
            err,
            "invalid plan: cannot connect `source` -> NodeId(99): target node NodeId(99) does \
             not exist (the plan has 2 nodes)"
        );
        let err = plan.connect_simple(NodeId(42), sink).unwrap_err().to_string();
        assert_eq!(
            err,
            "invalid plan: cannot connect NodeId(42) -> `sink`: source node NodeId(42) does not \
             exist (the plan has 2 nodes)"
        );
    }

    #[test]
    fn cycle_errors_name_the_trapped_operators() {
        let mut plan = QueryPlan::new();
        let a = plan.add(Dummy::new("alpha", 1, 1));
        let b = plan.add(Dummy::new("beta", 1, 1));
        plan.connect_simple(a, b).unwrap();
        plan.connect_simple(b, a).unwrap();
        let err = plan.validate().unwrap_err().to_string();
        assert!(err.contains("cycle"), "{err}");
        assert!(err.contains("`alpha`") && err.contains("`beta`"), "{err}");
    }

    #[test]
    fn cycle_errors_exclude_innocent_downstream_operators() {
        let mut plan = QueryPlan::new();
        let a = plan.add(Dummy::new("alpha", 1, 2));
        let b = plan.add(Dummy::new("beta", 1, 1));
        let sink = plan.add(Dummy::new("innocent-sink", 1, 0));
        plan.connect(a, 0, b, 0).unwrap();
        plan.connect(b, 0, a, 0).unwrap();
        // The sink hangs off the cycle but is not on it.
        plan.connect(a, 1, sink, 0).unwrap();
        let err = plan.validate().unwrap_err().to_string();
        assert!(err.contains("`alpha`") && err.contains("`beta`"), "{err}");
        assert!(!err.contains("innocent-sink"), "{err}");
    }

    #[test]
    fn dot_export_renders_nodes_data_edges_and_dashed_feedback_edges() {
        use dsms_feedback::FeedbackRoles;

        /// Consumer that declares it produces feedback (so the dot export
        /// draws a dashed control edge back to its producer).
        struct FeedbackSink;
        impl Operator for FeedbackSink {
            fn name(&self) -> &str {
                "display"
            }
            fn inputs(&self) -> usize {
                1
            }
            fn outputs(&self) -> usize {
                0
            }
            fn feedback_roles(&self) -> FeedbackRoles {
                FeedbackRoles::producer()
            }
            fn on_tuple(
                &mut self,
                _i: usize,
                _t: Tuple,
                _c: &mut OperatorContext,
            ) -> EngineResult<()> {
                Ok(())
            }
        }

        /// Producer that declares a feedback port (exploiter).
        struct FeedbackSource;
        impl Operator for FeedbackSource {
            fn name(&self) -> &str {
                "sensors"
            }
            fn inputs(&self) -> usize {
                0
            }
            fn feedback_roles(&self) -> FeedbackRoles {
                FeedbackRoles::exploiter()
            }
            fn on_tuple(
                &mut self,
                _i: usize,
                _t: Tuple,
                _c: &mut OperatorContext,
            ) -> EngineResult<()> {
                Ok(())
            }
            fn poll_source(&mut self, _c: &mut OperatorContext) -> EngineResult<SourceState> {
                Ok(SourceState::Exhausted)
            }
        }

        let mut plan = QueryPlan::new();
        let src = plan.add(FeedbackSource);
        let unaware = plan.add(Dummy::new("relay \"quoted\"", 1, 1));
        let sink = plan.add(FeedbackSink);
        plan.connect_simple(src, unaware).unwrap();
        plan.connect_simple(unaware, sink).unwrap();

        let dot = plan.dot();
        assert!(dot.starts_with("digraph plan {"), "{dot}");
        assert!(dot.contains("n0 [label=\"sensors\\n[exploiter]\"];"), "{dot}");
        assert!(dot.contains("n1 [label=\"relay \\\"quoted\\\"\"];"), "{dot}");
        assert!(dot.contains("n2 [label=\"display\\n[producer]\"];"), "{dot}");
        assert!(dot.contains("n0 -> n1 [label=\"0:0\"];"), "{dot}");
        assert!(dot.contains("n1 -> n2 [label=\"0:0\"];"), "{dot}");
        // The display produces feedback, but its direct antecedent is
        // feedback-unaware: no dashed edge display -> relay…
        assert!(!dot.contains("n2 -> n1"), "{dot}");
        // …and the unaware relay cannot send anything to the source either.
        assert!(!dot.contains("n1 -> n0"), "{dot}");
        assert!(!dot.contains("style=dashed"), "{dot}");

        // Replace the unaware relay with a feedback-aware chain: now both
        // hops carry dashed control edges against the data flow.
        let mut plan = QueryPlan::new();
        let src = plan.add(FeedbackSource);
        let sink = plan.add(FeedbackSink);
        plan.connect_simple(src, sink).unwrap();
        let dot = plan.dot();
        assert!(dot.contains("n1 -> n0 [style=dashed, constraint=false, label=\"¬?!\"];"), "{dot}");
        assert!(dot.trim_end().ends_with('}'), "{dot}");
    }

    /// A dummy that routes across its outputs, so all must be connected.
    struct Router {
        outputs: usize,
    }

    impl Operator for Router {
        fn name(&self) -> &str {
            "router"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn outputs(&self) -> usize {
            self.outputs
        }
        fn must_connect_all_outputs(&self) -> bool {
            true
        }
        fn on_tuple(&mut self, _i: usize, _t: Tuple, _c: &mut OperatorContext) -> EngineResult<()> {
            Ok(())
        }
    }

    #[test]
    fn partitioner_with_dangling_outputs_is_rejected() {
        let mut plan = QueryPlan::new();
        let src = plan.add(Dummy::new("source", 0, 1));
        let router = plan.add(Router { outputs: 3 });
        let a = plan.add(Dummy::new("a", 1, 0));
        let b = plan.add(Dummy::new("b", 1, 0));
        plan.connect_simple(src, router).unwrap();
        plan.connect(router, 0, a, 0).unwrap();
        plan.connect(router, 1, b, 0).unwrap();
        // Output port 2 dangles: a third of the hash space would be lost.
        let err = plan.validate().unwrap_err();
        let detail = err.to_string();
        assert!(
            detail.contains("router") && detail.contains('3') && detail.contains('2'),
            "{detail}"
        );

        // Wiring the last partition makes the plan valid.
        let c = plan.add(Dummy::new("c", 1, 0));
        plan.connect(router, 2, c, 0).unwrap();
        plan.validate().unwrap();
    }

    #[test]
    fn default_plan_matches_new() {
        let default = QueryPlan::default();
        let new = QueryPlan::new();
        assert_eq!(default.page_capacity(), new.page_capacity());
        assert_eq!(default.queue_capacity(), new.queue_capacity());
        assert_eq!(default.node_count(), 0);
        assert_eq!(default.edge_count(), 0);
    }

    #[test]
    fn cycles_are_rejected() {
        let mut plan = QueryPlan::new();
        let a = plan.add(Dummy::new("a", 1, 1));
        let b = plan.add(Dummy::new("b", 1, 1));
        plan.connect_simple(a, b).unwrap();
        plan.connect_simple(b, a).unwrap();
        assert!(plan.validate().is_err());
    }

    #[test]
    fn worker_pool_and_pins_are_configurable() {
        assert_eq!(QueryPlan::new().worker_pool(), None);
        assert_eq!(QueryPlan::new().with_worker_pool(0).worker_pool(), Some(1), "clamped");
        let mut plan = QueryPlan::new().with_worker_pool(4);
        assert_eq!(plan.worker_pool(), Some(4));
        let a = plan.add(Dummy::new("a", 0, 1));
        assert_eq!(plan.worker_pin(a), None);
        plan.pin_to_worker(a, 3).unwrap();
        assert_eq!(plan.worker_pin(a), Some(3));
        assert!(plan.pin_to_worker(NodeId(9), 0).is_err(), "unknown node");
    }

    #[test]
    fn capacities_are_configurable() {
        let plan = QueryPlan::new().with_page_capacity(16).with_queue_capacity(8);
        assert_eq!(plan.page_capacity(), 16);
        assert_eq!(plan.queue_capacity(), 8);
        let clamped = QueryPlan::new().with_page_capacity(0).with_queue_capacity(0);
        assert_eq!(clamped.page_capacity(), 1);
        assert_eq!(clamped.queue_capacity(), 1);
    }
}

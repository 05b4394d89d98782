//! Operator characterizations (paper Section 4.3, Tables 1 and 2).
//!
//! Extending an operator to respond to assumed punctuation means choosing, for
//! each shape of feedback it may receive, a combination of actions from a
//! small menu — guard the output, guard the input, purge internal state — plus
//! a propagation decision.  The paper characterizes COUNT (Table 1) and JOIN
//! (Table 2) and discusses MAX, SUM, AVG and SELECT in Section 3.5.
//!
//! This module makes those characterizations executable: given a description
//! of the operator (its output-schema partition and, for aggregates, the
//! monotonicity of the aggregate function) and a received assumed feedback
//! pattern, the `characterize_*` function for its kind
//! ([`characterize_aggregate`], [`characterize_join`], [`characterize_select`],
//! [`characterize_duplicate`]) returns the list of local [`ExploitAction`]s and
//! the [`PropagationRule`] that are *correct* (Definition 1) and *safe*
//! (Definition 2).  The feedback-aware operators in `dsms-operators` execute
//! exactly these characterizations, so the unit tests here double as
//! conformance tests for the operator implementations.

use crate::error::{FeedbackError, FeedbackResult};
use crate::mapping::AttributeMapping;
use dsms_punctuation::{Pattern, PatternItem};
use dsms_types::SchemaRef;

/// One local exploitation action from the menu of Section 4.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploitAction {
    /// Avoid emitting output tuples that match the pattern (pattern is over
    /// the operator's output schema).
    GuardOutput(Pattern),
    /// Avoid processing input tuples that match the pattern (pattern is over
    /// the given input's schema).
    GuardInput {
        /// Which input the guard applies to (0 for unary operators).
        input: usize,
        /// The guard pattern, over that input's schema.
        pattern: Pattern,
    },
    /// Purge internal state entries that match the pattern (expressed over the
    /// operator's output schema, since stateful operators key their state by
    /// output semantics — groups, windows, join keys).
    PurgeState(Pattern),
    /// Snapshot the set `G` of groups whose *current partial aggregate* matches
    /// the feedback, purge them, and guard the input against those group keys
    /// (the `¬[*, ≥a]` row of Table 1).  `G` can only be computed at runtime
    /// from operator state, so the characterization names the strategy and the
    /// operator executes it.
    PurgeAndGuardMatchingGroups,
}

impl ExploitAction {
    /// Short name for metrics and debugging.
    pub fn name(&self) -> &'static str {
        match self {
            ExploitAction::GuardOutput(_) => "guard-output",
            ExploitAction::GuardInput { .. } => "guard-input",
            ExploitAction::PurgeState(_) => "purge-state",
            ExploitAction::PurgeAndGuardMatchingGroups => "purge-and-guard-matching-groups",
        }
    }
}

/// How (and whether) the feedback should be relayed to antecedent operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropagationRule {
    /// Relay the rewritten pattern to each listed input.
    ToInputs(Vec<(usize, Pattern)>),
    /// Relay, per input, punctuation describing the *group keys* currently
    /// matching the feedback (computed from operator state at runtime; the
    /// "Propagate G (in terms of input schema)" rows of Table 1).
    GroupsFromState,
    /// Do not propagate.
    None,
}

impl PropagationRule {
    /// True when no upstream message will be sent.
    pub fn is_none(&self) -> bool {
        matches!(self, PropagationRule::None)
    }
}

/// A complete characterization: local exploitation plus propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Characterization {
    /// Local exploitation actions, in the order they should be applied.
    pub actions: Vec<ExploitAction>,
    /// Propagation decision.
    pub propagation: PropagationRule,
}

impl Characterization {
    /// The null response: no local action, no propagation.  Always correct
    /// (Definition 1 permits `S ≡ SR`).
    pub fn null_response() -> Self {
        Characterization { actions: Vec::new(), propagation: PropagationRule::None }
    }

    /// True when this is the null response.
    pub fn is_null(&self) -> bool {
        self.actions.is_empty() && self.propagation.is_none()
    }

    /// True when the characterization includes an input guard.
    pub fn guards_input(&self) -> bool {
        self.actions.iter().any(|a| {
            matches!(
                a,
                ExploitAction::GuardInput { .. } | ExploitAction::PurgeAndGuardMatchingGroups
            )
        })
    }

    /// True when the characterization includes an output guard.
    pub fn guards_output(&self) -> bool {
        self.actions.iter().any(|a| matches!(a, ExploitAction::GuardOutput(_)))
    }

    /// True when the characterization purges state.
    pub fn purges_state(&self) -> bool {
        self.actions.iter().any(|a| {
            matches!(a, ExploitAction::PurgeState(_) | ExploitAction::PurgeAndGuardMatchingGroups)
        })
    }
}

/// Monotonicity of an aggregate function as more tuples are folded into a
/// group — the property that determines which responses to value-constraining
/// feedback are correct (Section 3.5: "COUNT's produced result increases
/// monotonically, SUM's doesn't").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Monotonicity {
    /// The partial aggregate never decreases (COUNT; MAX).
    NonDecreasing,
    /// The partial aggregate never increases (MIN).
    NonIncreasing,
    /// The partial aggregate may move either way (SUM over signed values, AVG).
    None,
}

/// Description of a windowed, grouped aggregate operator for characterization
/// purposes: output schema `(g…, a)` where `g…` are the grouping attributes
/// and `a` is the aggregate attribute.
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// The aggregate's output schema.
    pub output: SchemaRef,
    /// The aggregate's input schema.
    pub input: SchemaRef,
    /// Output attribute indices that are grouping attributes.
    pub group_attributes: Vec<usize>,
    /// Output attribute index of the aggregate value.
    pub aggregate_attribute: usize,
    /// Mapping from output grouping attributes onto the input schema.
    pub input_mapping: AttributeMapping,
    /// Monotonicity of the aggregate function.
    pub monotonicity: Monotonicity,
}

/// Description of a binary equi-join for characterization purposes: output
/// schema partitioned into `(L, J, R)` — attributes unique to the left input,
/// join attributes, attributes unique to the right input.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// The join's output schema.
    pub output: SchemaRef,
    /// Left input schema.
    pub left: SchemaRef,
    /// Right input schema.
    pub right: SchemaRef,
    /// Output attribute indices unique to the left input (L).
    pub left_attributes: Vec<usize>,
    /// Output attribute indices of the join attributes (J).
    pub join_attributes: Vec<usize>,
    /// Output attribute indices unique to the right input (R).
    pub right_attributes: Vec<usize>,
    /// Mapping from output onto the left input schema.
    pub left_mapping: AttributeMapping,
    /// Mapping from output onto the right input schema.
    pub right_mapping: AttributeMapping,
}

/// Classification of the per-attribute predicate a feedback pattern places on
/// the aggregate attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggregatePredicate {
    /// Not constrained.
    Unconstrained,
    /// Exactly one value (`= a`).
    Exact,
    /// Upward closed (`≥ a`, `> a`): once satisfied by a non-decreasing
    /// aggregate it stays satisfied.
    UpwardClosed,
    /// Downward closed (`≤ a`, `< a`).
    DownwardClosed,
    /// Anything else (ranges, sets).
    Other,
}

fn classify_item(item: &PatternItem) -> AggregatePredicate {
    match item {
        PatternItem::Wildcard => AggregatePredicate::Unconstrained,
        PatternItem::Eq(_) => AggregatePredicate::Exact,
        PatternItem::Ge(_) | PatternItem::Gt(_) => AggregatePredicate::UpwardClosed,
        PatternItem::Le(_) | PatternItem::Lt(_) => AggregatePredicate::DownwardClosed,
        _ => AggregatePredicate::Other,
    }
}

/// Table 1 (COUNT) generalized to any grouped aggregate via monotonicity.
pub fn characterize_aggregate(
    spec: &AggregateSpec,
    feedback: &Pattern,
) -> FeedbackResult<Characterization> {
    if feedback.schema() != &spec.output {
        return Err(FeedbackError::SchemaMismatch {
            detail: format!(
                "feedback over {} but aggregate output is {}",
                feedback.schema().describe(),
                spec.output.describe()
            ),
        });
    }
    let constrained = feedback.constrained_attributes();
    if constrained.is_empty() {
        return Ok(Characterization::null_response());
    }
    let constrains_group = constrained.iter().any(|i| spec.group_attributes.contains(i));
    let constrains_aggregate = constrained.contains(&spec.aggregate_attribute);

    // Mixed constraints (both group and aggregate attributes): the only
    // response provable correct without reasoning about the specific values is
    // an output guard (analogous to JOIN's ¬[l,*,r] row).
    if constrains_group && constrains_aggregate {
        return Ok(Characterization {
            actions: vec![ExploitAction::GuardOutput(feedback.clone())],
            propagation: PropagationRule::None,
        });
    }

    if constrains_group {
        // Table 1 row ¬[g,*]: remove group g from local state, guard the input
        // on g, and propagate g in terms of the input schema.  Purging without
        // the input guard would be incorrect (incoming tuples may recreate the
        // group), which is why both actions always appear together.
        let (input_pattern, uncovered) = spec.input_mapping.rewrite(feedback)?;
        let mut actions = vec![
            ExploitAction::PurgeState(feedback.clone()),
            ExploitAction::GuardInput { input: 0, pattern: input_pattern.clone() },
        ];
        let propagation = if uncovered.is_empty() {
            PropagationRule::ToInputs(vec![(0, input_pattern)])
        } else {
            // Some constrained group attribute is not visible in the input
            // (e.g. a computed grouping key): keep exploitation local and add
            // an output guard so correctness does not depend on the purge.
            actions.push(ExploitAction::GuardOutput(feedback.clone()));
            PropagationRule::None
        };
        return Ok(Characterization { actions, propagation });
    }

    // Only the aggregate attribute is constrained.
    let item = feedback
        .item(spec.aggregate_attribute)
        .expect("aggregate attribute index is valid for the output schema");
    let predicate = classify_item(item);
    let ch = match (predicate, spec.monotonicity) {
        // Table 1 row ¬[*, a] (exact value): only the output guard is correct —
        // a group currently at the value may move off it, and one not at the
        // value may reach it.
        (AggregatePredicate::Exact, _) => Characterization {
            actions: vec![ExploitAction::GuardOutput(feedback.clone())],
            propagation: PropagationRule::None,
        },
        // Table 1 row ¬[*, ≥a] / ¬[*, >a] for a non-decreasing aggregate
        // (COUNT, MAX): groups whose partial already satisfies the predicate
        // will satisfy it forever → snapshot G, purge, guard input on G, and
        // propagate G in terms of the input schema.
        (AggregatePredicate::UpwardClosed, Monotonicity::NonDecreasing) => Characterization {
            actions: vec![
                ExploitAction::PurgeAndGuardMatchingGroups,
                ExploitAction::GuardOutput(feedback.clone()),
            ],
            propagation: PropagationRule::GroupsFromState,
        },
        // The mirrored case for a non-increasing aggregate (MIN) and a
        // downward-closed predicate.
        (AggregatePredicate::DownwardClosed, Monotonicity::NonIncreasing) => Characterization {
            actions: vec![
                ExploitAction::PurgeAndGuardMatchingGroups,
                ExploitAction::GuardOutput(feedback.clone()),
            ],
            propagation: PropagationRule::GroupsFromState,
        },
        // Table 1 rows ¬[*, ≤a] / ¬[*, <a] for COUNT, and every value
        // constraint for non-monotone aggregates (SUM, AVG): suppressing
        // active windows or purging would be incorrect (the partial may still
        // cross the threshold either way), so only the output guard applies.
        _ => Characterization {
            actions: vec![ExploitAction::GuardOutput(feedback.clone())],
            propagation: PropagationRule::None,
        },
    };
    Ok(ch)
}

/// Table 2 (JOIN).
pub fn characterize_join(spec: &JoinSpec, feedback: &Pattern) -> FeedbackResult<Characterization> {
    if feedback.schema() != &spec.output {
        return Err(FeedbackError::SchemaMismatch {
            detail: format!(
                "feedback over {} but join output is {}",
                feedback.schema().describe(),
                spec.output.describe()
            ),
        });
    }
    let constrained = feedback.constrained_attributes();
    if constrained.is_empty() {
        return Ok(Characterization::null_response());
    }
    let on_left = constrained.iter().any(|i| spec.left_attributes.contains(i));
    let on_join = constrained.iter().any(|i| spec.join_attributes.contains(i));
    let on_right = constrained.iter().any(|i| spec.right_attributes.contains(i));

    let left_rewrite = spec.left_mapping.rewrite(feedback)?;
    let right_rewrite = spec.right_mapping.rewrite(feedback)?;

    match (on_left, on_join, on_right) {
        // ¬[*, j, *]: purge matching tuples from both hash tables, guard both
        // inputs, propagate to both inputs.
        (false, true, false) => Ok(Characterization {
            actions: vec![
                ExploitAction::PurgeState(feedback.clone()),
                ExploitAction::GuardInput { input: 0, pattern: left_rewrite.0.clone() },
                ExploitAction::GuardInput { input: 1, pattern: right_rewrite.0.clone() },
            ],
            propagation: PropagationRule::ToInputs(vec![(0, left_rewrite.0), (1, right_rewrite.0)]),
        }),
        // ¬[l, *, *]: purge matching tuples from the left hash table, guard the
        // left input, propagate to the left input only.
        (true, false, false) | (true, true, false) => Ok(Characterization {
            actions: vec![
                ExploitAction::PurgeState(feedback.clone()),
                ExploitAction::GuardInput { input: 0, pattern: left_rewrite.0.clone() },
            ],
            propagation: PropagationRule::ToInputs(vec![(0, left_rewrite.0)]),
        }),
        // ¬[*, *, r]: the mirror image toward the right input.
        (false, false, true) | (false, true, true) => Ok(Characterization {
            actions: vec![
                ExploitAction::PurgeState(feedback.clone()),
                ExploitAction::GuardInput { input: 1, pattern: right_rewrite.0.clone() },
            ],
            propagation: PropagationRule::ToInputs(vec![(1, right_rewrite.0)]),
        }),
        // ¬[l, *, r]: the feedback couples attributes of both inputs; no safe
        // propagation exists and purging either table could lose tuples needed
        // for results the feedback does not describe → guard the output only.
        (true, _, true) => Ok(Characterization {
            actions: vec![ExploitAction::GuardOutput(feedback.clone())],
            propagation: PropagationRule::None,
        }),
        (false, false, false) => Ok(Characterization::null_response()),
    }
}

/// SELECT (Section 4.3): stateless, so the assumed pattern is simply added as
/// a negative conjunct to the select condition — expressed here as an output
/// guard (equivalently an input guard, since input and output schemas are the
/// same) plus propagation of the unchanged pattern.
pub fn characterize_select(
    schema: &SchemaRef,
    feedback: &Pattern,
) -> FeedbackResult<Characterization> {
    if feedback.schema() != schema {
        return Err(FeedbackError::SchemaMismatch {
            detail: format!(
                "feedback over {} but select schema is {}",
                feedback.schema().describe(),
                schema.describe()
            ),
        });
    }
    if feedback.is_unconstrained() {
        return Ok(Characterization::null_response());
    }
    Ok(Characterization {
        actions: vec![
            ExploitAction::GuardInput { input: 0, pattern: feedback.clone() },
            ExploitAction::GuardOutput(feedback.clone()),
        ],
        propagation: PropagationRule::ToInputs(vec![(0, feedback.clone())]),
    })
}

/// DUPLICATE (Section 4.1): both outputs must remain identical, so feedback is
/// exploitable only when the *same* subset has been assumed on every output;
/// otherwise the null response applies.
pub fn characterize_duplicate(
    schema: &SchemaRef,
    feedback_on_all_outputs: bool,
    feedback: &Pattern,
) -> FeedbackResult<Characterization> {
    if feedback.schema() != schema {
        return Err(FeedbackError::SchemaMismatch {
            detail: format!(
                "feedback over {} but duplicate schema is {}",
                feedback.schema().describe(),
                schema.describe()
            ),
        });
    }
    if !feedback_on_all_outputs || feedback.is_unconstrained() {
        return Ok(Characterization::null_response());
    }
    Ok(Characterization {
        actions: vec![
            ExploitAction::GuardInput { input: 0, pattern: feedback.clone() },
            ExploitAction::GuardOutput(feedback.clone()),
        ],
        propagation: PropagationRule::ToInputs(vec![(0, feedback.clone())]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_types::{DataType, Schema, Value};

    /// COUNT with output (g, a): g = grouping attribute, a = the count.
    fn count_spec() -> AggregateSpec {
        let output = Schema::shared(&[("g", DataType::Int), ("a", DataType::Int)]);
        let input = Schema::shared(&[("g", DataType::Int), ("v", DataType::Float)]);
        AggregateSpec {
            output: output.clone(),
            input: input.clone(),
            group_attributes: vec![0],
            aggregate_attribute: 1,
            input_mapping: AttributeMapping::by_name(output, input).unwrap(),
            monotonicity: Monotonicity::NonDecreasing,
        }
    }

    fn sum_spec() -> AggregateSpec {
        AggregateSpec { monotonicity: Monotonicity::None, ..count_spec() }
    }

    fn min_spec() -> AggregateSpec {
        AggregateSpec { monotonicity: Monotonicity::NonIncreasing, ..count_spec() }
    }

    fn out_pattern(spec: &AggregateSpec, items: &[(&str, PatternItem)]) -> Pattern {
        Pattern::for_attributes(spec.output.clone(), items).unwrap()
    }

    // ----- Table 1: COUNT -----

    #[test]
    fn table1_group_feedback_purges_guards_and_propagates() {
        let spec = count_spec();
        let f = out_pattern(&spec, &[("g", PatternItem::Eq(Value::Int(7)))]);
        let ch = characterize_aggregate(&spec, &f).unwrap();
        assert!(ch.purges_state());
        assert!(ch.guards_input());
        match &ch.propagation {
            PropagationRule::ToInputs(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].1.to_string(), "[7, *]");
            }
            other => panic!("expected propagation, got {other:?}"),
        }
    }

    #[test]
    fn table1_exact_count_only_guards_output() {
        let spec = count_spec();
        let f = out_pattern(&spec, &[("a", PatternItem::Eq(Value::Int(10)))]);
        let ch = characterize_aggregate(&spec, &f).unwrap();
        assert_eq!(ch.actions.len(), 1);
        assert!(ch.guards_output());
        assert!(!ch.purges_state());
        assert!(ch.propagation.is_none());
    }

    #[test]
    fn table1_upward_closed_count_purges_matching_groups() {
        let spec = count_spec();
        for item in [PatternItem::Ge(Value::Int(100)), PatternItem::Gt(Value::Int(100))] {
            let f = out_pattern(&spec, &[("a", item)]);
            let ch = characterize_aggregate(&spec, &f).unwrap();
            assert!(ch.actions.contains(&ExploitAction::PurgeAndGuardMatchingGroups));
            assert_eq!(ch.propagation, PropagationRule::GroupsFromState);
        }
    }

    #[test]
    fn table1_downward_closed_count_only_guards_output() {
        let spec = count_spec();
        for item in [PatternItem::Le(Value::Int(5)), PatternItem::Lt(Value::Int(5))] {
            let f = out_pattern(&spec, &[("a", item)]);
            let ch = characterize_aggregate(&spec, &f).unwrap();
            assert_eq!(ch.actions, vec![ExploitAction::GuardOutput(f.clone())]);
            assert!(ch.propagation.is_none());
        }
    }

    // ----- Section 3.5: MAX, SUM, AVG -----

    #[test]
    fn max_with_upward_closed_feedback_closes_matching_windows() {
        // MAX is non-decreasing, so ¬[*, ≥50] admits the aggressive response.
        let spec = count_spec(); // same shape; monotonicity is what matters
        let f = out_pattern(&spec, &[("a", PatternItem::Ge(Value::Int(50)))]);
        let ch = characterize_aggregate(&spec, &f).unwrap();
        assert!(ch.actions.contains(&ExploitAction::PurgeAndGuardMatchingGroups));
    }

    #[test]
    fn sum_and_avg_never_purge_on_value_feedback() {
        // "Suppressing active windows is not a correct response" — AVERAGE at 51
        // could drop below 50 with more input; SUM is not monotone either.
        let spec = sum_spec();
        let f = out_pattern(&spec, &[("a", PatternItem::Ge(Value::Int(50)))]);
        let ch = characterize_aggregate(&spec, &f).unwrap();
        assert!(!ch.purges_state());
        assert_eq!(ch.actions, vec![ExploitAction::GuardOutput(f)]);
        assert!(ch.propagation.is_none());
    }

    #[test]
    fn min_mirrors_max_for_downward_closed_feedback() {
        let spec = min_spec();
        let down = out_pattern(&spec, &[("a", PatternItem::Le(Value::Int(10)))]);
        assert!(characterize_aggregate(&spec, &down).unwrap().purges_state());
        let up = out_pattern(&spec, &[("a", PatternItem::Ge(Value::Int(10)))]);
        assert!(!characterize_aggregate(&spec, &up).unwrap().purges_state());
    }

    #[test]
    fn mixed_group_and_value_feedback_guards_output_only() {
        let spec = count_spec();
        let f = out_pattern(
            &spec,
            &[("g", PatternItem::Eq(Value::Int(1))), ("a", PatternItem::Ge(Value::Int(3)))],
        );
        let ch = characterize_aggregate(&spec, &f).unwrap();
        assert_eq!(ch.actions, vec![ExploitAction::GuardOutput(f)]);
        assert!(ch.propagation.is_none());
    }

    #[test]
    fn unconstrained_feedback_is_null_response() {
        let spec = count_spec();
        let f = Pattern::all_wildcards(spec.output.clone());
        assert!(characterize_aggregate(&spec, &f).unwrap().is_null());
    }

    #[test]
    fn aggregate_rejects_foreign_schema() {
        let spec = count_spec();
        let foreign = Pattern::all_wildcards(spec.input.clone());
        assert!(characterize_aggregate(&spec, &foreign).is_err());
    }

    // ----- Table 2: JOIN -----

    /// JOIN over A(l, j) ⋈ B(j, r) with output (l, j, r).
    fn join_spec() -> JoinSpec {
        let left = Schema::shared(&[("l", DataType::Int), ("j", DataType::Int)]);
        let right = Schema::shared(&[("j", DataType::Int), ("r", DataType::Int)]);
        let output =
            Schema::shared(&[("l", DataType::Int), ("j", DataType::Int), ("r", DataType::Int)]);
        JoinSpec {
            output: output.clone(),
            left: left.clone(),
            right: right.clone(),
            left_attributes: vec![0],
            join_attributes: vec![1],
            right_attributes: vec![2],
            left_mapping: AttributeMapping::by_name(output.clone(), left).unwrap(),
            right_mapping: AttributeMapping::by_name(output, right).unwrap(),
        }
    }

    fn join_pattern(items: &[(&str, PatternItem)]) -> Pattern {
        Pattern::for_attributes(join_spec().output.clone(), items).unwrap()
    }

    #[test]
    fn table2_join_attribute_feedback_goes_both_ways() {
        let spec = join_spec();
        let f = join_pattern(&[("j", PatternItem::Eq(Value::Int(4)))]);
        let ch = characterize_join(&spec, &f).unwrap();
        assert!(ch.purges_state());
        let guards: Vec<usize> = ch
            .actions
            .iter()
            .filter_map(|a| match a {
                ExploitAction::GuardInput { input, .. } => Some(*input),
                _ => None,
            })
            .collect();
        assert_eq!(guards, vec![0, 1]);
        match &ch.propagation {
            PropagationRule::ToInputs(v) => {
                assert_eq!(v.len(), 2);
                assert_eq!(v[0].1.to_string(), "[*, 4]");
                assert_eq!(v[1].1.to_string(), "[4, *]");
            }
            other => panic!("expected propagation to both inputs, got {other:?}"),
        }
    }

    #[test]
    fn table2_left_only_feedback_goes_left() {
        let spec = join_spec();
        let f = join_pattern(&[("l", PatternItem::Ge(Value::Int(50)))]);
        let ch = characterize_join(&spec, &f).unwrap();
        match &ch.propagation {
            PropagationRule::ToInputs(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].0, 0);
                assert_eq!(v[0].1.to_string(), "[>=50, *]");
            }
            other => panic!("expected propagation to the left input, got {other:?}"),
        }
    }

    #[test]
    fn table2_right_only_feedback_goes_right() {
        let spec = join_spec();
        let f = join_pattern(&[("r", PatternItem::Eq(Value::Int(9)))]);
        let ch = characterize_join(&spec, &f).unwrap();
        match &ch.propagation {
            PropagationRule::ToInputs(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].0, 1);
                assert_eq!(v[0].1.to_string(), "[*, 9]");
            }
            other => panic!("expected propagation to the right input, got {other:?}"),
        }
    }

    #[test]
    fn table2_cross_input_feedback_guards_output_only() {
        let spec = join_spec();
        let f = join_pattern(&[
            ("l", PatternItem::Eq(Value::Int(50))),
            ("r", PatternItem::Eq(Value::Int(50))),
        ]);
        let ch = characterize_join(&spec, &f).unwrap();
        assert_eq!(ch.actions, vec![ExploitAction::GuardOutput(f)]);
        assert!(ch.propagation.is_none());
        assert!(!ch.purges_state());
    }

    #[test]
    fn join_unconstrained_feedback_is_null() {
        let spec = join_spec();
        let f = Pattern::all_wildcards(spec.output.clone());
        assert!(characterize_join(&spec, &f).unwrap().is_null());
    }

    // ----- SELECT and DUPLICATE -----

    #[test]
    fn select_adds_feedback_to_its_condition_and_propagates() {
        let schema = Schema::shared(&[("ts", DataType::Timestamp), ("v", DataType::Float)]);
        let f =
            Pattern::for_attributes(schema.clone(), &[("v", PatternItem::Ge(Value::Float(50.0)))])
                .unwrap();
        let ch = characterize_select(&schema, &f).unwrap();
        assert!(ch.guards_input());
        assert!(ch.guards_output());
        assert!(matches!(ch.propagation, PropagationRule::ToInputs(ref v) if v.len() == 1));
    }

    #[test]
    fn duplicate_requires_feedback_on_all_outputs() {
        let schema = Schema::shared(&[("ts", DataType::Timestamp), ("v", DataType::Float)]);
        let f =
            Pattern::for_attributes(schema.clone(), &[("v", PatternItem::Ge(Value::Float(50.0)))])
                .unwrap();
        assert!(characterize_duplicate(&schema, false, &f).unwrap().is_null());
        let ch = characterize_duplicate(&schema, true, &f).unwrap();
        assert!(!ch.is_null());
        assert!(ch.guards_input());
    }
}

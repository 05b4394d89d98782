//! Stream tuples.
//!
//! A [`Tuple`] is a row of [`Value`]s tagged with its [`SchemaRef`].  Tuples
//! are the unit of data flowing through inter-operator queues; the engine
//! batches them into pages (see `dsms-engine`).  Tuples are O(1) to clone:
//! both the schema and the value buffer are reference-counted, so fan-out
//! operators such as DUPLICATE and SHUFFLE share one buffer across every
//! copy instead of deep-copying values.  The buffer is immutable; "updates"
//! ([`Tuple::with_value`]) rebuild it copy-on-write, leaving every existing
//! clone untouched.

use crate::error::{TypeError, TypeResult};
use crate::schema::SchemaRef;
use crate::time::Timestamp;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// The shared payload of a [`Tuple`]: the schema tag and the value row live
/// in one allocation behind one reference count, so cloning a tuple is a
/// single refcount bump (not one per component).
#[derive(Debug, PartialEq, Eq, Hash)]
struct TupleInner {
    schema: SchemaRef,
    values: Box<[Value]>,
}

/// A schema-tagged row of values; clone is a single reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    inner: Arc<TupleInner>,
}

impl Tuple {
    /// Creates a tuple, validating arity and per-attribute types against the
    /// schema.
    pub fn try_new(schema: SchemaRef, values: Vec<Value>) -> TypeResult<Self> {
        if values.len() != schema.arity() {
            return Err(TypeError::ArityMismatch {
                values: values.len(),
                attributes: schema.arity(),
            });
        }
        for (field, value) in schema.fields().iter().zip(values.iter()) {
            if !field.data_type().admits(value) {
                return Err(TypeError::TypeMismatch {
                    attribute: field.name().to_string(),
                    expected: field.data_type().to_string(),
                    actual: value.type_name().to_string(),
                });
            }
        }
        Ok(Tuple { inner: Arc::new(TupleInner { schema, values: values.into_boxed_slice() }) })
    }

    /// Creates a tuple, panicking if it does not conform to the schema.
    /// Convenience for statically known tuples in tests and examples.
    pub fn new(schema: SchemaRef, values: Vec<Value>) -> Self {
        Self::try_new(schema, values).expect("tuple does not conform to schema")
    }

    /// The tuple's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.inner.schema
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.inner.values.len()
    }

    /// All values in attribute order.
    pub fn values(&self) -> &[Value] {
        &self.inner.values
    }

    /// The value at attribute `index`.
    pub fn value(&self, index: usize) -> TypeResult<&Value> {
        self.inner
            .values
            .get(index)
            .ok_or(TypeError::IndexOutOfBounds { index, len: self.inner.values.len() })
    }

    /// The value of the attribute with the given name.
    pub fn value_by_name(&self, name: &str) -> TypeResult<&Value> {
        let idx = self.inner.schema.index_of(name)?;
        self.value(idx)
    }

    /// The integer value of the named attribute, if it is an integer.
    pub fn int(&self, name: &str) -> TypeResult<i64> {
        let v = self.value_by_name(name)?;
        v.as_int().ok_or_else(|| TypeError::TypeMismatch {
            attribute: name.to_string(),
            expected: "int".into(),
            actual: v.type_name().into(),
        })
    }

    /// The float value of the named attribute (ints widen), if numeric.
    pub fn float(&self, name: &str) -> TypeResult<f64> {
        let v = self.value_by_name(name)?;
        v.as_float().ok_or_else(|| TypeError::TypeMismatch {
            attribute: name.to_string(),
            expected: "float".into(),
            actual: v.type_name().into(),
        })
    }

    /// The timestamp value of the named attribute, if it is a timestamp.
    pub fn timestamp(&self, name: &str) -> TypeResult<Timestamp> {
        let v = self.value_by_name(name)?;
        v.as_timestamp().ok_or_else(|| TypeError::TypeMismatch {
            attribute: name.to_string(),
            expected: "timestamp".into(),
            actual: v.type_name().into(),
        })
    }

    /// The timestamp value at attribute `index`, if it is a timestamp.  The
    /// index-based twin of [`Tuple::timestamp`] for per-tuple hot paths that
    /// resolve the attribute name once at operator construction.
    pub fn timestamp_at(&self, index: usize) -> TypeResult<Timestamp> {
        let v = self.value(index)?;
        v.as_timestamp().ok_or_else(|| TypeError::TypeMismatch {
            attribute: self
                .inner
                .schema
                .field(index)
                .map(|f| f.name().to_string())
                .unwrap_or_else(|_| index.to_string()),
            expected: "timestamp".into(),
            actual: v.type_name().into(),
        })
    }

    /// Returns a new tuple with the value at `index` replaced.  Copy-on-write:
    /// the shared buffer is rebuilt for the new tuple (individual values are
    /// still shared where they are reference-counted), and every existing
    /// clone of `self` keeps observing the original values.
    pub fn with_value(&self, index: usize, value: Value) -> TypeResult<Tuple> {
        let field = self.inner.schema.field(index)?;
        if !field.data_type().admits(&value) {
            return Err(TypeError::TypeMismatch {
                attribute: field.name().to_string(),
                expected: field.data_type().to_string(),
                actual: value.type_name().to_string(),
            });
        }
        let mut values = self.inner.values.to_vec();
        values[index] = value;
        Ok(Tuple {
            inner: Arc::new(TupleInner {
                schema: Arc::clone(&self.inner.schema),
                values: values.into_boxed_slice(),
            }),
        })
    }

    /// True when `self` and `other` share one underlying value buffer — i.e.
    /// one is an O(1) clone of the other and no deep copy has happened.
    /// Diagnostic hook for the zero-copy regression tests.
    pub fn shares_values_with(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of live handles to this tuple's value buffer (this one
    /// included): every clone adds one.  Diagnostic hook for the zero-copy
    /// regression tests, which check that forwarding a page adds none.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Projects this tuple onto the attributes at `indices` (in that order),
    /// producing a tuple of the projected schema.
    pub fn project(&self, indices: &[usize], projected_schema: SchemaRef) -> TypeResult<Tuple> {
        let mut values = Vec::with_capacity(indices.len());
        for &i in indices {
            values.push(self.value(i)?.clone());
        }
        Tuple::try_new(projected_schema, values)
    }

    /// Concatenates this tuple with another (used by joins); the caller
    /// supplies the pre-computed joined schema.
    pub fn concat(&self, other: &Tuple, joined_schema: SchemaRef) -> TypeResult<Tuple> {
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend(self.inner.values.iter().cloned());
        values.extend(other.values().iter().cloned());
        Tuple::try_new(joined_schema, values)
    }

    /// Extracts the values at `indices` as a key (used by hash joins and
    /// group-by).
    pub fn key(&self, indices: &[usize]) -> TypeResult<Vec<Value>> {
        let mut key = Vec::with_capacity(indices.len());
        for &i in indices {
            key.push(self.value(i)?.clone());
        }
        Ok(key)
    }

    /// True if any attribute is `Null` (e.g. a failed sensor reading that
    /// requires imputation).
    pub fn has_null(&self) -> bool {
        self.inner.values.iter().any(Value::is_null)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cells: Vec<String> = self.inner.values.iter().map(|v| v.to_string()).collect();
        write!(f, "<{}>", cells.join(", "))
    }
}

/// Incremental named-attribute builder for [`Tuple`], convenient when
/// constructing tuples from workload generators.
#[derive(Debug, Clone)]
pub struct TupleBuilder {
    schema: SchemaRef,
    values: Vec<Value>,
}

impl TupleBuilder {
    /// Starts a builder for the given schema with all attributes `Null`.
    pub fn new(schema: SchemaRef) -> Self {
        let values = vec![Value::Null; schema.arity()];
        TupleBuilder { schema, values }
    }

    /// Sets the named attribute.
    pub fn set(mut self, name: &str, value: impl Into<Value>) -> TypeResult<Self> {
        let idx = self.schema.index_of(name)?;
        self.values[idx] = value.into();
        Ok(self)
    }

    /// Finalizes the tuple, validating types.
    pub fn build(self) -> TypeResult<Tuple> {
        Tuple::try_new(self.schema, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn schema() -> SchemaRef {
        Schema::shared(&[
            ("segment", DataType::Int),
            ("timestamp", DataType::Timestamp),
            ("speed", DataType::Float),
        ])
    }

    fn tuple(seg: i64, ts: i64, speed: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Int(seg), Value::Timestamp(Timestamp::from_secs(ts)), Value::Float(speed)],
        )
    }

    #[test]
    fn construction_validates_arity_and_types() {
        let s = schema();
        assert!(Tuple::try_new(s.clone(), vec![Value::Int(1)]).is_err());
        let err =
            Tuple::try_new(s.clone(), vec![Value::Text("x".into()), Value::Null, Value::Null])
                .unwrap_err();
        assert!(matches!(err, TypeError::TypeMismatch { .. }));
        assert!(Tuple::try_new(s, vec![Value::Null, Value::Null, Value::Null]).is_ok());
    }

    #[test]
    fn named_accessors() {
        let t = tuple(7, 100, 52.5);
        assert_eq!(t.int("segment").unwrap(), 7);
        assert_eq!(t.float("speed").unwrap(), 52.5);
        assert_eq!(t.timestamp("timestamp").unwrap(), Timestamp::from_secs(100));
        assert!(t.int("speed").is_err());
        assert!(t.value_by_name("missing").is_err());
    }

    #[test]
    fn with_value_replaces_and_validates() {
        let t = tuple(7, 100, 52.5);
        let u = t.with_value(2, Value::Float(30.0)).unwrap();
        assert_eq!(u.float("speed").unwrap(), 30.0);
        assert_eq!(t.float("speed").unwrap(), 52.5, "original is unchanged");
        assert!(t.with_value(0, Value::Text("seg".into())).is_err());
    }

    #[test]
    fn projection_and_keys() {
        let t = tuple(7, 100, 52.5);
        let proj_schema = Arc::new(t.schema().project(&[2, 0]).unwrap());
        let p = t.project(&[2, 0], proj_schema).unwrap();
        assert_eq!(p.values(), &[Value::Float(52.5), Value::Int(7)]);
        assert_eq!(t.key(&[0]).unwrap(), vec![Value::Int(7)]);
    }

    #[test]
    fn concat_builds_join_outputs() {
        let left = tuple(7, 100, 52.5);
        let right_schema = Schema::shared(&[("vehicle", DataType::Int)]);
        let right = Tuple::new(right_schema.clone(), vec![Value::Int(99)]);
        let joined_schema = Arc::new(left.schema().join(&right_schema, "r_"));
        let j = left.concat(&right, joined_schema).unwrap();
        assert_eq!(j.arity(), 4);
        assert_eq!(j.int("vehicle").unwrap(), 99);
    }

    #[test]
    fn has_null_detects_missing_readings() {
        let s = schema();
        let dirty =
            Tuple::new(s, vec![Value::Int(1), Value::Timestamp(Timestamp::EPOCH), Value::Null]);
        assert!(dirty.has_null());
        assert!(!tuple(1, 1, 1.0).has_null());
    }

    #[test]
    fn builder_fills_by_name() {
        let t = TupleBuilder::new(schema())
            .set("segment", 3i64)
            .unwrap()
            .set("speed", 61.0)
            .unwrap()
            .set("timestamp", Timestamp::from_secs(40))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(t.int("segment").unwrap(), 3);
        assert_eq!(t.to_string(), "<3, 00:00:40, 61>");
    }
}

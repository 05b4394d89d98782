//! Stream schemas.
//!
//! Every stream (and therefore every inter-operator queue) carries tuples of a
//! single [`Schema`].  Schemas are immutable once built and shared between
//! operators and punctuation via [`SchemaRef`] (`Arc<Schema>`), mirroring how
//! NiagaraST operators agree on tuple layout ahead of execution.

use crate::error::{TypeError, TypeResult};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Declared type of a schema attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean flag.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Stream timestamp (application time).
    Timestamp,
}

impl DataType {
    /// True when a runtime [`Value`] is admissible for this declared type
    /// (`Null` is admissible everywhere, and ints widen into float columns).
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (DataType::Bool, Value::Bool(_))
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Float, Value::Int(_))
                | (DataType::Text, Value::Text(_))
                | (DataType::Timestamp, Value::Timestamp(_))
        )
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Text => "text",
            DataType::Timestamp => "timestamp",
        };
        write!(f, "{s}")
    }
}

/// A named, typed attribute of a stream schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    name: String,
    data_type: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field { name: name.into(), data_type }
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }
}

/// A shared, immutable stream schema.
pub type SchemaRef = Arc<Schema>;

/// An ordered collection of named, typed attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema from fields, rejecting duplicate attribute names.
    pub fn try_new(fields: Vec<Field>) -> TypeResult<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name() == f.name()) {
                return Err(TypeError::DuplicateAttribute { name: f.name().to_string() });
            }
        }
        Ok(Schema { fields })
    }

    /// Builds a schema from fields, panicking on duplicate names.  Convenience
    /// for statically known schemas in tests and examples.
    pub fn new(fields: Vec<Field>) -> Self {
        Self::try_new(fields).expect("duplicate attribute name in schema")
    }

    /// Convenience constructor from `(name, type)` pairs wrapped in an `Arc`.
    pub fn shared(fields: &[(&str, DataType)]) -> SchemaRef {
        Arc::new(Schema::new(fields.iter().map(|(n, t)| Field::new(*n, *t)).collect::<Vec<_>>()))
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields, in attribute order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The field at `index`.
    pub fn field(&self, index: usize) -> TypeResult<&Field> {
        self.fields.get(index).ok_or(TypeError::IndexOutOfBounds { index, len: self.fields.len() })
    }

    /// The index of the attribute with the given name.
    pub fn index_of(&self, name: &str) -> TypeResult<usize> {
        self.fields.iter().position(|f| f.name() == name).ok_or_else(|| {
            TypeError::UnknownAttribute {
                name: name.to_string(),
                available: self.fields.iter().map(|f| f.name().to_string()).collect(),
            }
        })
    }

    /// True if an attribute with the given name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.fields.iter().any(|f| f.name() == name)
    }

    /// Attribute names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name()).collect()
    }

    /// Returns a new schema containing only the attributes at `indices`, in
    /// that order (projection).
    pub fn project(&self, indices: &[usize]) -> TypeResult<Schema> {
        let mut fields = Vec::with_capacity(indices.len());
        for &i in indices {
            fields.push(self.field(i)?.clone());
        }
        Schema::try_new(fields)
    }

    /// Concatenates two schemas (used by joins), prefixing duplicate names on
    /// the right side with `prefix` to keep names unique.
    pub fn join(&self, right: &Schema, prefix: &str) -> Schema {
        let mut fields = self.fields.clone();
        for f in right.fields() {
            let name = if self.contains(f.name()) {
                format!("{prefix}{}", f.name())
            } else {
                f.name().to_string()
            };
            fields.push(Field::new(name, f.data_type()));
        }
        Schema { fields }
    }

    /// Checks that the other schema is identical (names and types).
    pub fn check_same(&self, other: &Schema) -> TypeResult<()> {
        if self == other {
            Ok(())
        } else {
            Err(TypeError::SchemaMismatch {
                detail: format!("{} vs {}", self.describe(), other.describe()),
            })
        }
    }

    /// Compact human-readable description, e.g. `(ts: timestamp, speed: float)`.
    pub fn describe(&self) -> String {
        let cols: Vec<String> =
            self.fields.iter().map(|f| format!("{}: {}", f.name(), f.data_type())).collect();
        format!("({})", cols.join(", "))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("freeway_id", DataType::Int),
            Field::new("milepost", DataType::Float),
            Field::new("timestamp", DataType::Timestamp),
            Field::new("speed", DataType::Float),
        ])
    }

    #[test]
    fn duplicate_names_rejected() {
        let err =
            Schema::try_new(vec![Field::new("x", DataType::Int), Field::new("x", DataType::Float)])
                .unwrap_err();
        assert!(matches!(err, TypeError::DuplicateAttribute { .. }));
    }

    #[test]
    fn lookup_by_name_and_index() {
        let s = detector_schema();
        assert_eq!(s.arity(), 5);
        assert_eq!(s.index_of("speed").unwrap(), 4);
        assert_eq!(s.field(1).unwrap().name(), "freeway_id");
        assert!(s.contains("milepost"));
        assert!(!s.contains("volume"));
        assert!(s.index_of("volume").is_err());
        assert!(s.field(9).is_err());
    }

    #[test]
    fn projection_preserves_order() {
        let s = detector_schema();
        let p = s.project(&[3, 0]).unwrap();
        assert_eq!(p.names(), vec!["timestamp", "id"]);
    }

    #[test]
    fn join_prefixes_duplicates() {
        let probe = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("speed", DataType::Float),
        ]);
        let joined = detector_schema().join(&probe, "probe_");
        assert_eq!(joined.arity(), 7);
        assert!(joined.contains("probe_id"));
        assert!(joined.contains("probe_speed"));
    }

    #[test]
    fn data_type_admits_nulls_and_widening() {
        assert!(DataType::Float.admits(&Value::Int(3)));
        assert!(DataType::Int.admits(&Value::Null));
        assert!(!DataType::Int.admits(&Value::Float(1.5)));
        assert!(DataType::Timestamp.admits(&Value::Timestamp(crate::Timestamp::EPOCH)));
    }

    #[test]
    fn shared_constructor_agrees_with_fields() {
        let a = Schema::shared(&[("ts", DataType::Timestamp), ("v", DataType::Float)]);
        let b = Schema::new(vec![
            Field::new("ts", DataType::Timestamp),
            Field::new("v", DataType::Float),
        ]);
        assert_eq!(*a, b);
        assert_eq!(a.describe(), "(ts: timestamp, v: float)");
    }

    #[test]
    fn check_same_reports_differences() {
        let a = Schema::shared(&[("ts", DataType::Timestamp)]);
        let b = Schema::shared(&[("ts", DataType::Int)]);
        assert!(a.check_same(&b).is_err());
        assert!(a.check_same(&a).is_ok());
    }
}

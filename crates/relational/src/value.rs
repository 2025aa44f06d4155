//! Atomic values and their types.
//!
//! Labelled nulls ([`Value::Null`]) exist for the incomplete-information
//! module: a naive table is an ordinary relation whose tuples may contain
//! `Null(i)` markers, with equal labels denoting the same unknown value.

use std::cmp::Ordering;
use std::fmt;

/// The type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl Type {
    /// The one-byte tag every binary format (snapshot, WAL, wire schema)
    /// stores a type as.
    pub fn to_byte(self) -> u8 {
        match self {
            Type::Int => 0,
            Type::Str => 1,
            Type::Bool => 2,
        }
    }

    /// The type a [`Type::to_byte`] tag names; `None` for an unknown tag.
    pub fn from_byte(b: u8) -> Option<Type> {
        match b {
            0 => Some(Type::Int),
            1 => Some(Type::Str),
            2 => Some(Type::Bool),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Str => write!(f, "str"),
            Type::Bool => write!(f, "bool"),
        }
    }
}

/// An atomic database value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// A labelled null (unknown value); equal labels co-refer.
    Null(u32),
}

impl Value {
    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The value's type, if known (`None` for nulls).
    pub fn value_type(&self) -> Option<Type> {
        match self {
            Value::Int(_) => Some(Type::Int),
            Value::Str(_) => Some(Type::Str),
            Value::Bool(_) => Some(Type::Bool),
            Value::Null(_) => None,
        }
    }

    /// Is this a labelled null?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Estimated in-memory size in bytes, for charging against a
    /// governor memory budget. The enum itself (tag + largest payload)
    /// plus any heap allocation behind a string. Deliberately approximate:
    /// budgets bound runaway queries by order of magnitude, they are not
    /// an allocator audit.
    pub fn approx_bytes(&self) -> u64 {
        let heap = match self {
            Value::Str(s) => s.capacity() as u64,
            _ => 0,
        };
        std::mem::size_of::<Value>() as u64 + heap
    }

    /// Compare two values of the same type. Nulls compare by label (they are
    /// treated as fresh distinct constants, per the naive-table semantics).
    /// Cross-type comparison yields a stable but arbitrary order (by tag).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Int(_) => 0,
                Value::Str(_) => 1,
                Value::Bool(_) => 2,
                Value::Null(_) => 3,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Null(a), Value::Null(b)) => a.cmp(b),
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null(n) => write!(f, "⊥{n}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Comparison operators usable in selection predicates and calculus atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Apply the operator to two values. Comparisons involving a null are
    /// true only for `Eq`/`Ne` on identical/different labels (naive-table
    /// semantics: labelled nulls act as fresh constants).
    pub fn apply(self, l: &Value, r: &Value) -> bool {
        let ord = l.total_cmp(r);
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with its arguments swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Logical negation of the operator.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_type_reporting() {
        assert_eq!(Value::Int(1).value_type(), Some(Type::Int));
        assert_eq!(Value::str("x").value_type(), Some(Type::Str));
        assert_eq!(Value::Bool(true).value_type(), Some(Type::Bool));
        assert_eq!(Value::Null(0).value_type(), None);
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::Bool(false) < Value::Bool(true));
        assert!(Value::Null(0) < Value::Null(1));
    }

    #[test]
    fn cmp_op_apply_table() {
        let a = Value::Int(3);
        let b = Value::Int(5);
        assert!(CmpOp::Lt.apply(&a, &b));
        assert!(CmpOp::Le.apply(&a, &a));
        assert!(CmpOp::Ne.apply(&a, &b));
        assert!(!CmpOp::Eq.apply(&a, &b));
        assert!(CmpOp::Gt.apply(&b, &a));
        assert!(CmpOp::Ge.apply(&b, &b));
    }

    #[test]
    fn flip_and_negate_are_involutions_where_expected() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn flip_is_semantically_correct() {
        let a = Value::Int(1);
        let b = Value::Int(2);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.apply(&a, &b), op.flip().apply(&b, &a));
            assert_eq!(op.apply(&a, &b), !op.negate().apply(&a, &b));
        }
    }

    #[test]
    fn nulls_with_same_label_are_equal() {
        assert!(CmpOp::Eq.apply(&Value::Null(3), &Value::Null(3)));
        assert!(CmpOp::Ne.apply(&Value::Null(3), &Value::Null(4)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(Value::Null(2).to_string(), "⊥2");
        assert_eq!(CmpOp::Le.to_string(), "<=");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}

//! Relation schemas: ordered lists of named, typed attributes.

use crate::error::RelError;
use crate::value::Type;
use crate::Result;
use std::fmt;

pub use crate::value::Type as AttrType;

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name, unique within its schema.
    pub name: String,
    /// Attribute type.
    pub ty: Type,
}

/// An ordered list of attributes with unique names.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs, rejecting duplicates.
    pub fn new(attrs: &[(&str, Type)]) -> Result<Schema> {
        let mut schema = Schema {
            attrs: Vec::with_capacity(attrs.len()),
        };
        for (name, ty) in attrs {
            schema.push(name, *ty)?;
        }
        Ok(schema)
    }

    /// Append an attribute, rejecting duplicate names.
    pub fn push(&mut self, name: &str, ty: Type) -> Result<()> {
        if self.index_of(name).is_some() {
            return Err(RelError::Duplicate(format!("attribute `{name}`")));
        }
        self.attrs.push(Attribute {
            name: name.to_string(),
            ty,
        });
        Ok(())
    }

    /// Number of attributes (the relation's arity).
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// True for the empty schema (arity 0).
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The attributes in order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Attribute names in order.
    pub fn names(&self) -> Vec<&str> {
        self.attrs.iter().map(|a| a.name.as_str()).collect()
    }

    /// Position of an attribute by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// Position of an attribute, erroring with the attribute name if absent.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| RelError::UnknownAttribute(name.to_string()))
    }

    /// Type of a named attribute.
    pub fn type_of(&self, name: &str) -> Result<Type> {
        Ok(self.attrs[self.require(name)?].ty)
    }

    /// Two schemas are union-compatible when their type sequences match
    /// position by position (names may differ, per the classical definition).
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self
                .attrs
                .iter()
                .zip(other.attrs.iter())
                .all(|(a, b)| a.ty == b.ty)
    }

    /// Schema of a projection onto `names`, in the order given.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut out = Schema::default();
        for n in names {
            let idx = self.require(n)?;
            out.push(n, self.attrs[idx].ty)?;
        }
        Ok(out)
    }

    /// Schema of a cartesian product: concatenation. Duplicate names error
    /// (rename first, as the algebra requires).
    pub fn product(&self, other: &Schema) -> Result<Schema> {
        let mut out = self.clone();
        for a in &other.attrs {
            out.push(&a.name, a.ty)?;
        }
        Ok(out)
    }

    /// Attribute names common to both schemas (for natural join).
    pub fn common_attrs(&self, other: &Schema) -> Vec<String> {
        self.attrs
            .iter()
            .filter(|a| other.index_of(&a.name).is_some())
            .map(|a| a.name.clone())
            .collect()
    }

    /// Rename attributes, all `(from, to)` pairs at once, preserving order
    /// and type: `[(a, b), (b, a)]` swaps two names. Each `from` must exist
    /// and be renamed once, and the result must have unique names.
    pub fn rename(&self, pairs: &[(String, String)]) -> Result<Schema> {
        let mut names: Vec<&str> = self.names();
        for (i, (from, to)) in pairs.iter().enumerate() {
            if pairs[..i].iter().any(|(f, _)| f == from) {
                return Err(RelError::Duplicate(format!("rename of `{from}`")));
            }
            names[self.require(from)?] = to;
        }
        let mut out = Schema::default();
        for (name, a) in names.into_iter().zip(&self.attrs) {
            out.push(name, a.ty)?;
        }
        Ok(out)
    }

    /// Prefix every attribute name with `prefix.` (used when a relation is
    /// bound to a tuple variable).
    pub fn qualify(&self, prefix: &str) -> Schema {
        Schema {
            attrs: self
                .attrs
                .iter()
                .map(|a| Attribute {
                    name: format!("{prefix}.{}", a.name),
                    ty: a.ty,
                })
                .collect(),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(&[("a", Type::Int), ("b", Type::Str), ("c", Type::Bool)]).unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let s = abc();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("z"), None);
        assert_eq!(s.type_of("c").unwrap(), Type::Bool);
        assert_eq!(s.names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(matches!(
            Schema::new(&[("a", Type::Int), ("a", Type::Str)]),
            Err(RelError::Duplicate(_))
        ));
    }

    #[test]
    fn union_compatibility_is_positional_types() {
        let s1 = Schema::new(&[("x", Type::Int), ("y", Type::Str)]).unwrap();
        let s2 = Schema::new(&[("p", Type::Int), ("q", Type::Str)]).unwrap();
        let s3 = Schema::new(&[("p", Type::Str), ("q", Type::Int)]).unwrap();
        assert!(s1.union_compatible(&s2));
        assert!(!s1.union_compatible(&s3));
        assert!(!s1.union_compatible(&abc()));
    }

    #[test]
    fn projection_reorders() {
        let s = abc();
        let p = s.project(&["c", "a"]).unwrap();
        assert_eq!(p.names(), vec!["c", "a"]);
        assert!(matches!(
            s.project(&["nope"]),
            Err(RelError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn product_concatenates_and_detects_clashes() {
        let s1 = Schema::new(&[("x", Type::Int)]).unwrap();
        let s2 = Schema::new(&[("y", Type::Int)]).unwrap();
        assert_eq!(s1.product(&s2).unwrap().names(), vec!["x", "y"]);
        assert!(s1.product(&s1).is_err());
    }

    fn pairs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        let owned = pairs.iter().map(|(a, b)| (a.to_string(), b.to_string()));
        owned.collect()
    }

    #[test]
    fn rename_checks_conflicts() {
        let s = abc();
        let r = s.rename(&pairs(&[("a", "z")])).unwrap();
        assert_eq!(r.names(), vec!["z", "b", "c"]);
        assert!(s.rename(&pairs(&[("a", "b")])).is_err());
        assert!(
            s.rename(&pairs(&[("a", "a")])).is_ok(),
            "no-op rename is fine"
        );
        assert!(s.rename(&pairs(&[("zz", "y")])).is_err(), "unknown name");
    }

    #[test]
    fn renames_are_simultaneous() {
        let s = abc();
        let swap = s.rename(&pairs(&[("a", "b"), ("b", "a")])).unwrap();
        assert_eq!(swap.names(), vec!["b", "a", "c"]);
        // `b` is given up by one pair and taken by the other.
        let shift = s.rename(&pairs(&[("a", "b"), ("b", "d")])).unwrap();
        assert_eq!(shift.names(), vec!["b", "d", "c"]);
        assert!(s.rename(&pairs(&[("a", "x"), ("b", "x")])).is_err());
        assert!(s.rename(&pairs(&[("a", "x"), ("a", "y")])).is_err());
    }

    #[test]
    fn qualify_prefixes_names() {
        let q = abc().qualify("t");
        assert_eq!(q.names(), vec!["t.a", "t.b", "t.c"]);
    }

    #[test]
    fn common_attrs_for_natural_join() {
        let s1 = Schema::new(&[("a", Type::Int), ("b", Type::Str)]).unwrap();
        let s2 = Schema::new(&[("b", Type::Str), ("c", Type::Int)]).unwrap();
        assert_eq!(s1.common_attrs(&s2), vec!["b".to_string()]);
    }

    #[test]
    fn display_format() {
        assert_eq!(abc().to_string(), "(a: int, b: str, c: bool)");
    }
}

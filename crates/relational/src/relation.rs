//! Relations: schema + a *set* of tuples (first-normal-form, set semantics).

use crate::error::RelError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{Type, Value};
use crate::Result;
use std::collections::BTreeSet;
use std::fmt;

/// A relation instance: a schema and a duplicate-free set of tuples.
///
/// Tuples are kept in a `BTreeSet`, which gives set semantics (Codd) and a
/// canonical order, so two relations are equal iff they contain the same
/// tuples — handy for the Codd-equivalence experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn new(schema: Schema) -> Relation {
        Relation {
            schema,
            tuples: BTreeSet::new(),
        }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn with_schema(attrs: &[(&str, Type)]) -> Result<Relation> {
        Ok(Relation::new(Schema::new(attrs)?))
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples (cardinality).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    fn check(&self, tuple: &Tuple) -> Result<()> {
        if tuple.conforms_to(&self.schema) {
            return Ok(());
        }
        Err(RelError::SchemaMismatch(format!(
            "tuple {tuple} does not conform to {}",
            self.schema
        )))
    }

    /// Insert a tuple after checking conformance. Returns `true` when the
    /// tuple was new (set semantics silently absorb duplicates).
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.check(&tuple)?;
        Ok(self.tuples.insert(tuple))
    }

    /// Insert many tuples.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Result<usize> {
        let mut added = 0;
        for t in tuples {
            if self.insert(t)? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Build a relation from rows of values.
    pub fn from_rows(attrs: &[(&str, Type)], rows: Vec<Vec<Value>>) -> Result<Relation> {
        let mut rel = Relation::with_schema(attrs)?;
        rel.extend(rows.into_iter().map(Tuple::new))?;
        Ok(rel)
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Iterate tuples in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Iterate, in canonical order, from the first tuple that is not less
    /// than `start`. `start` may be shorter than the arity: a tuple sorts
    /// before every tuple it is a proper prefix of, so a key over the
    /// leading columns seeks to the first tuple that matches or exceeds
    /// it there. The set is a clustered index on the column order; this
    /// is the one way into it that does not begin at the first tuple.
    pub fn iter_from<'a>(&'a self, start: &Tuple) -> impl Iterator<Item = &'a Tuple> + 'a {
        self.tuples.range::<Tuple, _>(start..)
    }

    /// All tuples, cloned into a vector.
    pub fn tuples(&self) -> Vec<Tuple> {
        self.tuples.iter().cloned().collect()
    }

    /// Remove a tuple; returns whether it was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        self.tuples.remove(tuple)
    }

    /// The set of values appearing anywhere in the relation (its active
    /// domain), used by the calculus evaluator and the nulls module.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.tuples
            .iter()
            .flat_map(|t| t.values().iter().cloned())
            .collect()
    }

    /// Build a relation from a schema and an iterator of tuples, validating
    /// each tuple's conformance. Duplicates are absorbed (set semantics).
    /// The set is built in one piece from the sorted tuples instead of by
    /// one descent per tuple — this is how the physical engine reassembles
    /// every operator's output and how crash recovery reloads a table.
    pub fn from_tuples(
        schema: Schema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Relation> {
        let mut rel = Relation::new(schema);
        let tuples: Vec<Tuple> = tuples.into_iter().collect();
        tuples.iter().try_for_each(|t| rel.check(t))?;
        rel.tuples = BTreeSet::from_iter(tuples);
        Ok(rel)
    }

    /// Replace the schema's attribute names (same arity/types) — used when a
    /// relation is bound to a tuple variable or renamed.
    pub fn with_renamed_schema(&self, schema: Schema) -> Result<Relation> {
        if schema.arity() != self.schema.arity() {
            return Err(RelError::SchemaMismatch(format!(
                "arity {} vs {}",
                schema.arity(),
                self.schema.arity()
            )));
        }
        Ok(Relation {
            schema,
            tuples: self.tuples.clone(),
        })
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn sample() -> Relation {
        Relation::from_rows(
            &[("id", Type::Int), ("name", Type::Str)],
            vec![
                vec![Value::Int(1), Value::str("codd")],
                vec![Value::Int(2), Value::str("fagin")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn set_semantics_absorb_duplicates() {
        let mut r = sample();
        assert_eq!(r.len(), 2);
        assert!(!r.insert(tup![1i64, "codd"]).unwrap());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn insert_rejects_mismatched_tuples() {
        let mut r = sample();
        assert!(r.insert(tup!["oops", 1i64]).is_err());
        assert!(r.insert(tup![1i64]).is_err());
    }

    #[test]
    fn contains_and_remove() {
        let mut r = sample();
        let t = tup![1i64, "codd"];
        assert!(r.contains(&t));
        assert!(r.remove(&t));
        assert!(!r.contains(&t));
        assert!(!r.remove(&t));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn equality_is_set_equality() {
        let a = sample();
        let mut b = Relation::with_schema(&[("id", Type::Int), ("name", Type::Str)]).unwrap();
        // insert in the opposite order
        b.insert(tup![2i64, "fagin"]).unwrap();
        b.insert(tup![1i64, "codd"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn active_domain_collects_all_values() {
        let dom = sample().active_domain();
        assert!(dom.contains(&Value::Int(1)));
        assert!(dom.contains(&Value::str("fagin")));
        assert_eq!(dom.len(), 4);
    }

    #[test]
    fn renamed_schema_preserves_tuples() {
        let r = sample();
        let s2 = Schema::new(&[("x", Type::Int), ("y", Type::Str)]).unwrap();
        let r2 = r.with_renamed_schema(s2).unwrap();
        assert_eq!(r2.len(), 2);
        assert!(r2.contains(&tup![1i64, "codd"]));
        let bad = Schema::new(&[("x", Type::Int)]).unwrap();
        assert!(r.with_renamed_schema(bad).is_err());
    }

    #[test]
    fn from_tuples_equals_inserting_one_at_a_time() {
        let schema = sample().schema().clone();
        // Unsorted, with a repeat and a labelled null (which fits any type).
        let rows = [
            tup![3i64, "papadimitriou"],
            tup![1i64, "codd"],
            Tuple::new(vec![Value::Null(7), Value::str("?")]),
            tup![2i64, "fagin"],
            tup![1i64, "codd"],
        ];
        let bulk = Relation::from_tuples(schema.clone(), rows.iter().cloned()).unwrap();
        let mut one_by_one = Relation::new(schema.clone());
        for t in &rows {
            one_by_one.insert(t.clone()).unwrap();
        }
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk.len(), 4, "the repeat is absorbed");
        assert_eq!(bulk.tuples(), one_by_one.tuples(), "same canonical order");
        assert_eq!(bulk.iter_from(&tup![2i64]).count(), 3, "seeks still work");
        assert!(Relation::from_tuples(schema.clone(), [])
            .unwrap()
            .is_empty());
        // One non-conforming tuple anywhere refuses the lot.
        for bad in [tup!["oops", 1i64], tup![1i64]] {
            let rows = rows.iter().cloned().chain([bad]);
            assert!(matches!(
                Relation::from_tuples(schema.clone(), rows),
                Err(RelError::SchemaMismatch(_))
            ));
        }
    }

    #[test]
    fn iter_from_seeks_on_a_leading_prefix() {
        let mut r = Relation::with_schema(&[("a", Type::Int), ("b", Type::Int)]).unwrap();
        for a in 0..4i64 {
            for b in 0..3i64 {
                r.insert(tup![a, b]).unwrap();
            }
        }
        let from = |key: Tuple| r.iter_from(&key).cloned().collect::<Vec<_>>();
        assert_eq!(from(tup![]), r.tuples(), "the empty key is the whole table");
        assert_eq!(from(tup![2i64])[0], tup![2i64, 0i64], "prefix key");
        assert_eq!(from(tup![2i64]).len(), 6);
        assert_eq!(from(tup![2i64, 1i64])[0], tup![2i64, 1i64], "full key");
        assert_eq!(from(tup![9i64]), vec![], "past the end");
        // Cross-type keys follow the same total order the set is kept in:
        // every int sorts before every string.
        assert_eq!(from(tup!["x"]), vec![]);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::with_schema(&[("a", Type::Int)]).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.active_domain().len(), 0);
    }
}

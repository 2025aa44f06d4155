//! Physical plans and the logical → physical lowering.
//!
//! Lowering resolves every name against the database's schemas once, up
//! front: projections carry column indices, joins carry key positions, and
//! every node knows its output [`Schema`]. Execution then never touches
//! the catalog again except to read base relations.

use crate::pred::BoundPred;
use bq_relational::algebra::expr::Expr;
use bq_relational::catalog::Database;
use bq_relational::error::RelError;
use bq_relational::schema::Schema;
use bq_relational::value::CmpOp;
use bq_relational::{Result, Tuple, Value};
use std::fmt;

/// Which partitioned hash set-operation to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    /// Keep left tuples absent from the right input (−).
    Difference,
    /// Keep left tuples present in the right input (∩).
    Intersection,
}

impl fmt::Display for SetOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetOpKind::Difference => write!(f, "HashDifference"),
            SetOpKind::Intersection => write!(f, "HashIntersect"),
        }
    }
}

/// Where an ordered pass over a base relation starts and stops.
///
/// A relation's tuple set is ordered by its columns left to right under
/// `Value::total_cmp` — the order `CmpOp::apply` compares by — so
/// conjuncts that fix a leading-column prefix by equality, optionally
/// with bounds on the next column, confine the matches to one contiguous
/// run. The bounds may admit tuples the predicate rejects (a strict lower
/// bound starts at the first equal value), never the reverse: the scan's
/// whole predicate still runs on every tuple in the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Seek {
    /// First position to visit: the equality values of the leading
    /// columns, then the lower bound on the next column when there is one.
    pub start: Tuple,
    /// How many leading columns `start` fixes by equality.
    pub eq: usize,
    /// `Lt`/`Le` bound on column `eq`; the pass stops at the first tuple
    /// that fails it.
    pub upper: Option<(CmpOp, Value)>,
}

impl Seek {
    /// Derive the seek, if any, that `pred`'s top-level conjuncts allow.
    fn derive(pred: &BoundPred, arity: usize) -> Option<Seek> {
        let bounds = pred.column_bounds()?;
        let on = |col: usize, ops: &[CmpOp]| {
            bounds
                .iter()
                .find(|(c, op, _)| *c == col && ops.contains(op))
                .map(|(_, op, v)| (*op, (*v).clone()))
        };
        let mut start: Vec<Value> = (0..arity)
            .map_while(|col| on(col, &[CmpOp::Eq]))
            .map(|(_, v)| v)
            .collect();
        let eq = start.len();
        let (lower, upper) = if eq < arity {
            (
                on(eq, &[CmpOp::Gt, CmpOp::Ge]),
                on(eq, &[CmpOp::Lt, CmpOp::Le]),
            )
        } else {
            (None, None)
        };
        if eq == 0 && lower.is_none() && upper.is_none() {
            return None;
        }
        start.extend(lower.map(|(_, v)| v));
        Some(Seek {
            start: Tuple::new(start),
            eq,
            upper,
        })
    }

    /// Is `tuple` (at or after `start`) still inside the run?
    pub fn covers(&self, tuple: &Tuple) -> bool {
        tuple.values()[..self.eq] == self.start.values()[..self.eq]
            && self
                .upper
                .as_ref()
                .is_none_or(|(op, v)| op.apply(tuple.get(self.eq), v))
    }

    fn render(&self, schema: &Schema) -> String {
        let name = |i: usize| &schema.attrs()[i].name;
        let mut parts: Vec<String> = (0..self.eq)
            .map(|i| format!("{} = {}", name(i), self.start.get(i)))
            .collect();
        if self.start.arity() > self.eq {
            parts.push(format!("{} >= {}", name(self.eq), self.start.get(self.eq)));
        }
        if let Some((op, v)) = &self.upper {
            parts.push(format!("{} {op} {v}", name(self.eq)));
        }
        parts.join(", ")
    }
}

/// A physical operator tree.
///
/// Schemas are resolved at lowering time; [`PhysPlan::schema`] is
/// therefore a cheap lookup, not an inference pass.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// One ordered pass over a named base relation, producing morsels of
    /// the tuples that satisfy `pred`.
    SeqScan {
        /// Base relation name.
        rel: String,
        /// The relation's schema.
        schema: Schema,
        /// Conjunction of the selections lowering folded into the scan.
        pred: Option<BoundPred>,
        /// Where the pass starts and stops, when `pred` confines it.
        seek: Option<Seek>,
    },
    /// Morsel-parallel selection over a non-scan input.
    Filter {
        /// Filter predicate (evaluated per tuple).
        pred: BoundPred,
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// Morsel-parallel projection, building a new row per input row. One
    /// that drops columns produces a bag: the executor's root set build
    /// removes its duplicates, or a [`PhysPlan::HashDistinct`] on the join
    /// or product input it feeds. One that keeps every column in order
    /// lowers to a [`PhysPlan::Reschema`] instead.
    Project {
        /// Output column names, in order.
        cols: Vec<String>,
        /// Input positions of those columns.
        indices: Vec<usize>,
        /// Output schema.
        schema: Schema,
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// Relabel attributes (ρ / tuple-variable qualification): no tuple
    /// movement, just a new schema.
    Reschema {
        /// The relabelled schema.
        schema: Schema,
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// Hash-partitioned duplicate elimination. Lowering places one only on
    /// a join or product input that [may carry
    /// duplicates](PhysPlan::may_carry_duplicates), which the join would
    /// multiply; everywhere else the executor's root set build removes
    /// them.
    HashDistinct {
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// Build/probe hash join, hash-partitioned on the join key across the
    /// worker count; the hash tables are built on whichever input turns
    /// out smaller. Lowered from a natural join (which degenerates to
    /// [`PhysPlan::Product`] when there are no common attributes) and
    /// from a selection over a product whose conjuncts equate a column of
    /// one side with a column of the other.
    PartitionedHashJoin {
        /// Join-key positions in the left input.
        l_key: Vec<usize>,
        /// Join-key positions in the right input.
        r_key: Vec<usize>,
        /// Right-side positions appended to the output, in order: the
        /// non-key columns for a natural join, every column for a
        /// selection over a product.
        r_rest: Vec<usize>,
        /// The join condition (for display): the shared attribute names,
        /// or `left = right` per key pair.
        on: Vec<String>,
        /// Output schema (left schema ++ right rest).
        schema: Schema,
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
    },
    /// Cartesian product, parallel over left morsels.
    Product {
        /// Output schema (left ++ right).
        schema: Schema,
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
    },
    /// Bag union of union-compatible inputs (concatenation). Duplicates
    /// across the sides leave where a projection's do.
    Union {
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
    },
    /// Difference / intersection by membership: the right input is hashed
    /// into partitioned sets, and each left row is kept or dropped by
    /// whether its partition's set holds it.
    HashSetOp {
        /// Which set operation.
        op: SetOpKind,
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
    },
}

impl PhysPlan {
    /// The operator's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            PhysPlan::SeqScan { schema, .. }
            | PhysPlan::Project { schema, .. }
            | PhysPlan::Reschema { schema, .. }
            | PhysPlan::PartitionedHashJoin { schema, .. }
            | PhysPlan::Product { schema, .. } => schema,
            PhysPlan::Filter { input, .. } | PhysPlan::HashDistinct { input } => input.schema(),
            PhysPlan::Union { left, .. } | PhysPlan::HashSetOp { left, .. } => left.schema(),
        }
    }

    /// Short operator label for EXPLAIN output.
    pub fn label(&self) -> String {
        match self {
            PhysPlan::SeqScan {
                rel,
                schema,
                pred,
                seek,
            } => {
                let mut label = format!("SeqScan [{rel}]");
                if let Some(pred) = pred {
                    label.push_str(&format!(" where {pred}"));
                }
                if let Some(seek) = seek {
                    label.push_str(&format!(" seek {}", seek.render(schema)));
                }
                label
            }
            PhysPlan::Filter { pred, .. } => format!("Filter [{pred}]"),
            PhysPlan::Project { cols, .. } => format!("Project [{}]", cols.join(", ")),
            PhysPlan::Reschema { schema, .. } => format!("Reschema [{schema}]"),
            PhysPlan::HashDistinct { .. } => "HashDistinct".to_string(),
            PhysPlan::PartitionedHashJoin { on, .. } => {
                format!("PartitionedHashJoin [{}]", on.join(", "))
            }
            PhysPlan::Product { .. } => "Product".to_string(),
            PhysPlan::Union { .. } => "UnionAll".to_string(),
            PhysPlan::HashSetOp { op, .. } => op.to_string(),
        }
    }

    /// Children, in execution order.
    pub fn children(&self) -> Vec<&PhysPlan> {
        match self {
            PhysPlan::SeqScan { .. } => vec![],
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Reschema { input, .. }
            | PhysPlan::HashDistinct { input } => vec![input],
            PhysPlan::PartitionedHashJoin { left, right, .. }
            | PhysPlan::Product { left, right, .. }
            | PhysPlan::Union { left, right }
            | PhysPlan::HashSetOp { left, right, .. } => vec![left, right],
        }
    }

    /// Can the output hold the same tuple twice? Only a projection that
    /// drops columns and a union make duplicates. A selection, a
    /// relabelling and the left side of a difference or intersection pass
    /// them on; a scan, a distinct, and a join or product (whose inputs
    /// lowering deduplicates when this says so) never have them.
    pub fn may_carry_duplicates(&self) -> bool {
        match self {
            PhysPlan::SeqScan { .. }
            | PhysPlan::HashDistinct { .. }
            | PhysPlan::PartitionedHashJoin { .. }
            | PhysPlan::Product { .. } => false,
            PhysPlan::Union { .. } => true,
            PhysPlan::Project { indices, input, .. } => {
                indices.len() < input.schema().arity() || input.may_carry_duplicates()
            }
            PhysPlan::Filter { input, .. } | PhysPlan::Reschema { input, .. } => {
                input.may_carry_duplicates()
            }
            PhysPlan::HashSetOp { left, .. } => left.may_carry_duplicates(),
        }
    }

    /// Number of operator nodes in the plan.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Render the plan as an indented tree (without runtime stats).
    pub fn render(&self) -> String {
        fn walk(node: &PhysPlan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&node.label());
            out.push('\n');
            for c in node.children() {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }
}

/// Lower a logical algebra expression to a physical plan against `db`.
///
/// Fails exactly when the recursive oracle would fail on shape errors:
/// unknown relations, unknown projection columns, product name clashes,
/// union-incompatible set operations, and malformed divisions.
pub fn lower(expr: &Expr, db: &Database) -> Result<PhysPlan> {
    match expr {
        Expr::Rel(name) => Ok(PhysPlan::SeqScan {
            rel: name.clone(),
            schema: db.get(name)?.schema().clone(),
            pred: None,
            seek: None,
        }),
        Expr::Select { pred, input } => {
            let child = lower(input, db)?;
            let pred = BoundPred::bind(pred, child.schema());
            Ok(select(pred, child))
        }
        Expr::Project { cols, input } => {
            let child = lower(input, db)?;
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            let schema = child.schema().project(&names)?;
            let indices: Vec<usize> = cols
                .iter()
                .map(|c| child.schema().require(c))
                .collect::<Result<_>>()?;
            let input = Box::new(child);
            if indices.iter().copied().eq(0..input.schema().arity()) {
                return Ok(PhysPlan::Reschema { schema, input });
            }
            Ok(PhysPlan::Project {
                cols: cols.clone(),
                indices,
                schema,
                input,
            })
        }
        Expr::Rename { from, to, input } => {
            let child = lower(input, db)?;
            let schema = child.schema().rename(from, to)?;
            Ok(PhysPlan::Reschema {
                schema,
                input: Box::new(child),
            })
        }
        Expr::Qualify { var, input } => {
            let child = lower(input, db)?;
            let schema = child.schema().qualify(var);
            Ok(PhysPlan::Reschema {
                schema,
                input: Box::new(child),
            })
        }
        Expr::Product(l, r) => {
            let left = join_input(lower(l, db)?);
            let right = join_input(lower(r, db)?);
            let schema = left.schema().product(right.schema())?;
            Ok(PhysPlan::Product {
                schema,
                left,
                right,
            })
        }
        Expr::NaturalJoin(l, r) => {
            let left = join_input(lower(l, db)?);
            let right = join_input(lower(r, db)?);
            let common = left.schema().common_attrs(right.schema());
            if common.is_empty() {
                // Classical semantics: join without shared attributes is
                // the cartesian product.
                let schema = left.schema().product(right.schema())?;
                return Ok(PhysPlan::Product {
                    schema,
                    left,
                    right,
                });
            }
            let l_key: Vec<usize> = common
                .iter()
                .map(|c| left.schema().require(c))
                .collect::<Result<_>>()?;
            let r_key: Vec<usize> = common
                .iter()
                .map(|c| right.schema().require(c))
                .collect::<Result<_>>()?;
            let r_rest: Vec<usize> = (0..right.schema().arity())
                .filter(|i| !r_key.contains(i))
                .collect();
            let mut schema = left.schema().clone();
            for &i in &r_rest {
                let a = &right.schema().attrs()[i];
                schema.push(&a.name, a.ty)?;
            }
            Ok(PhysPlan::PartitionedHashJoin {
                l_key,
                r_key,
                r_rest,
                on: common,
                schema,
                left,
                right,
            })
        }
        Expr::Union(l, r) => {
            let left = lower(l, db)?;
            let right = lower(r, db)?;
            check_compatible(&left, &right, "union")?;
            Ok(PhysPlan::Union {
                left: Box::new(left),
                right: Box::new(right),
            })
        }
        Expr::Difference(l, r) => lower_setop(l, r, SetOpKind::Difference, "difference", db),
        Expr::Intersection(l, r) => lower_setop(l, r, SetOpKind::Intersection, "intersection", db),
        Expr::Division(l, r) => {
            // Lower through the division's defining identity
            //   L ÷ R  =  π_D(L) − π_D((π_D(L) × R) − π_{D∪R}(L))
            // where D is the quotient attribute set — the same identity the
            // oracle's tests pin down, so the physical engine needs no
            // bespoke division operator.
            let ls = l.schema(db)?;
            let rs = r.schema(db)?;
            let d_cols: Vec<String> = ls
                .attrs()
                .iter()
                .filter(|a| rs.index_of(&a.name).is_none())
                .map(|a| a.name.clone())
                .collect();
            if d_cols.is_empty() || d_cols.len() == ls.arity() {
                return Err(RelError::SchemaMismatch(format!(
                    "division needs ∅ ⊂ divisor attrs ⊂ dividend attrs: {ls} ÷ {rs}"
                )));
            }
            for name in rs.names() {
                // Divisor attributes must all appear in the dividend.
                ls.require(name)?;
            }
            let d_refs: Vec<&str> = d_cols.iter().map(String::as_str).collect();
            let dr_cols: Vec<&str> = d_refs
                .iter()
                .copied()
                .chain(rs.names().iter().copied())
                .collect();
            let pi_d = l.as_ref().clone().project(&d_refs);
            let identity = pi_d.clone().difference(
                pi_d.product(r.as_ref().clone())
                    .difference(l.as_ref().clone().project(&dr_cols))
                    .project(&d_refs),
            );
            lower(&identity, db)
        }
    }
}

/// Place a selection over `input`: folded into the base scan when only
/// relabellings (which move no column) lie between; over a product, the
/// equality conjuncts that span its sides become the keys of a hash join
/// and only the other conjuncts stay a filter above it; a stand-alone
/// [`PhysPlan::Filter`] otherwise.
fn select(pred: BoundPred, input: PhysPlan) -> PhysPlan {
    match input {
        PhysPlan::SeqScan {
            rel,
            schema,
            pred: inner,
            ..
        } => {
            let pred = match inner {
                Some(inner) => inner.and(pred),
                None => pred,
            };
            PhysPlan::SeqScan {
                seek: Seek::derive(&pred, schema.arity()),
                pred: Some(pred),
                rel,
                schema,
            }
        }
        PhysPlan::Reschema { schema, input } if reaches_scan(&input) => PhysPlan::Reschema {
            schema,
            input: Box::new(select(pred, *input)),
        },
        PhysPlan::Product {
            schema,
            left,
            right,
        } => {
            let Some((keys, rest)) = pred.split_equi_keys(&schema, left.schema().arity()) else {
                let input = Box::new(PhysPlan::Product {
                    schema,
                    left,
                    right,
                });
                return PhysPlan::Filter { pred, input };
            };
            let (l_names, r_names) = (left.schema().names(), right.schema().names());
            let join = PhysPlan::PartitionedHashJoin {
                on: keys
                    .iter()
                    .map(|&(l, r)| format!("{} = {}", l_names[l], r_names[r]))
                    .collect(),
                l_key: keys.iter().map(|&(l, _)| l).collect(),
                r_key: keys.iter().map(|&(_, r)| r).collect(),
                // Every right column: the output is laid out as the
                // product's, so the residue and everything above bind
                // unchanged.
                r_rest: (0..right.schema().arity()).collect(),
                schema,
                left,
                right,
            };
            match rest {
                Some(pred) => PhysPlan::Filter {
                    pred,
                    input: Box::new(join),
                },
                None => join,
            }
        }
        input => PhysPlan::Filter {
            pred,
            input: Box::new(input),
        },
    }
}

fn reaches_scan(plan: &PhysPlan) -> bool {
    match plan {
        PhysPlan::SeqScan { .. } => true,
        PhysPlan::Reschema { input, .. } => reaches_scan(input),
        _ => false,
    }
}

/// A join or product input, deduplicated first when it may carry
/// duplicates: a join would multiply them. This is the only place
/// lowering places a [`PhysPlan::HashDistinct`]; every other duplicate
/// leaves at the executor's root set build, because duplicate elimination
/// commutes with σ, π, ∪ and the membership-based − and ∩.
fn join_input(plan: PhysPlan) -> Box<PhysPlan> {
    Box::new(if plan.may_carry_duplicates() {
        PhysPlan::HashDistinct {
            input: Box::new(plan),
        }
    } else {
        plan
    })
}

fn lower_setop(l: &Expr, r: &Expr, op: SetOpKind, name: &str, db: &Database) -> Result<PhysPlan> {
    let left = lower(l, db)?;
    let right = lower(r, db)?;
    check_compatible(&left, &right, name)?;
    Ok(PhysPlan::HashSetOp {
        op,
        left: Box::new(left),
        right: Box::new(right),
    })
}

fn check_compatible(l: &PhysPlan, r: &PhysPlan, op: &str) -> Result<()> {
    if !l.schema().union_compatible(r.schema()) {
        return Err(RelError::NotUnionCompatible(format!(
            "{op}: {} vs {}",
            l.schema(),
            r.schema()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_relational::algebra::expr::{Operand, Predicate};
    use bq_relational::tup;
    use bq_relational::value::Type;
    use bq_relational::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::with_schema(&[("a", Type::Int), ("b", Type::Str)]).unwrap();
        r.insert(tup![1i64, "x"]).unwrap();
        db.add("r", r);
        db.add(
            "s",
            Relation::with_schema(&[("b", Type::Str), ("c", Type::Int)]).unwrap(),
        );
        db
    }

    #[test]
    fn scan_filter_project_lowering() {
        let e = Expr::rel("r")
            .select(Predicate::eq_const("a", 1i64))
            .project(&["b"]);
        let p = lower(&e, &db()).unwrap();
        // No distinct: the executor's root set build drops duplicates.
        assert!(matches!(p, PhysPlan::Project { .. }), "{}", p.render());
        assert_eq!(p.schema().names(), vec!["b"]);
        assert_eq!(p.size(), 2, "project + scan: the filter folds");
        assert!(p.may_carry_duplicates());
        let rendered = p.render();
        assert!(
            rendered.contains("SeqScan [r] where a = 1 seek a = 1"),
            "{rendered}"
        );
        assert!(!rendered.contains("Filter"), "{rendered}");

        // Keeping every column in order moves none: a relabelling, and a
        // selection above it still folds into the scan.
        let all = Expr::rel("r")
            .project(&["a", "b"])
            .select(Predicate::eq_const("a", 1i64));
        let p = lower(&all, &db()).unwrap();
        assert!(matches!(p, PhysPlan::Reschema { .. }), "{}", p.render());
        assert_eq!(p.size(), 2, "{}", p.render());
        assert!(!p.may_carry_duplicates());
        // Reordered, the columns move, but no tuple can collapse.
        let p = lower(&Expr::rel("r").project(&["b", "a"]), &db()).unwrap();
        assert!(matches!(p, PhysPlan::Project { .. }), "{}", p.render());
        assert!(!p.may_carry_duplicates());
    }

    #[test]
    fn only_join_and_product_inputs_that_may_carry_duplicates_are_deduplicated() {
        let db = db();
        let drop_a = Expr::rel("r").project(&["b"]);
        // Above a union or a column-dropping projection: nothing.
        for e in [
            drop_a.clone(),
            drop_a.clone().union(Expr::rel("s").project(&["b"])),
            drop_a
                .clone()
                .difference(Expr::rel("s").project(&["b"]))
                .select(Predicate::eq_const("b", "x")),
        ] {
            let plan = lower(&e, &db).unwrap();
            assert!(!plan.render().contains("HashDistinct"), "{}", plan.render());
        }
        // Into a join: the side that may carry duplicates is deduplicated,
        // the base table is not.
        let plan = lower(&drop_a.clone().natural_join(Expr::rel("s")), &db).unwrap();
        assert_eq!(
            plan.render(),
            "PartitionedHashJoin [b]\n  HashDistinct\n    Project [b]\n      SeqScan [r]\n  SeqScan [s]\n"
        );
        // A product of a union and a join's output: only the union.
        let union = Expr::rel("s")
            .project(&["c"])
            .union(Expr::rel("s").project(&["c"]));
        let joined = Expr::rel("r").natural_join(Expr::rel("s")).qualify("j");
        let plan = lower(&union.product(joined), &db).unwrap();
        let rendered = plan.render();
        assert!(
            rendered.starts_with("Product\n  HashDistinct\n    UnionAll\n"),
            "{rendered}"
        );
        assert_eq!(rendered.matches("HashDistinct").count(), 1, "{rendered}");
        assert!(!plan.may_carry_duplicates());
    }

    fn cmp(attr: &str, op: CmpOp, v: i64) -> Predicate {
        Predicate::cmp(Operand::attr(attr), op, Operand::Const(v.into()))
    }

    /// Lower `σ[pred](t)` over `t(a, b, c)` and return the scan's label
    /// with the `SeqScan [t] where <pred>` prefix removed.
    fn seek_of(pred: Predicate) -> String {
        let mut db = Database::new();
        let attrs = [("a", Type::Int), ("b", Type::Int), ("c", Type::Int)];
        db.add("t", Relation::with_schema(&attrs).unwrap());
        let plan = lower(&Expr::rel("t").select(pred.clone()), &db).unwrap();
        assert_eq!(plan.size(), 1, "{}", plan.render());
        let label = plan.label();
        label
            .strip_prefix(&format!("SeqScan [t] where {pred}"))
            .unwrap_or_else(|| panic!("{label}"))
            .to_string()
    }

    #[test]
    fn seek_needs_an_equality_prefix_of_the_column_order() {
        use CmpOp::*;
        assert_eq!(seek_of(cmp("a", Eq, 7)), " seek a = 7");
        assert_eq!(
            seek_of(cmp("b", Eq, 2).and(cmp("a", Eq, 7))),
            " seek a = 7, b = 2",
            "conjunct order is irrelevant"
        );
        assert_eq!(
            seek_of(cmp("a", Eq, 7).and(cmp("b", Gt, 2)).and(cmp("b", Le, 9))),
            " seek a = 7, b >= 2, b <= 9",
            "a strict lower bound starts at the equal values"
        );
        assert_eq!(seek_of(cmp("a", Lt, 3)), " seek a < 3");
        assert_eq!(seek_of(cmp("a", Ge, 3)), " seek a >= 3");
        let flipped = Predicate::cmp(Operand::Const(3i64.into()), Lt, Operand::attr("a"));
        assert_eq!(seek_of(flipped), " seek a >= 3", "3 < a reads a > 3");
        assert_eq!(
            seek_of(cmp("a", Eq, 1).and(cmp("c", Eq, 5))),
            " seek a = 1",
            "c is not next in the column order"
        );
        // No seek: the leading column is free, unequal, or only
        // constrained under a disjunction or negation.
        for pred in [
            cmp("b", Eq, 2),
            cmp("a", Ne, 2),
            Predicate::Or(Box::new(cmp("a", Eq, 1)), Box::new(cmp("a", Eq, 2))),
            Predicate::Not(Box::new(cmp("a", Eq, 1))),
            Predicate::eq_attrs("a", "b"),
            cmp("a", Eq, 1).and(cmp("ghost", Eq, 2)),
        ] {
            assert_eq!(seek_of(pred), "");
        }
    }

    #[test]
    fn selections_fold_through_relabellings_only() {
        let db = db();
        // σ over ρ over σ over a qualified scan: one scan, relabellings on
        // top, conjuncts in evaluation order (innermost first).
        let e = Expr::rel("r")
            .qualify("x")
            .select(Predicate::eq_const("x.b", "x"))
            .rename("x.a", "k")
            .select(Predicate::eq_const("k", 1i64));
        let p = lower(&e, &db).unwrap();
        assert_eq!(p.schema().names(), vec!["k", "x.b"]);
        let rendered = p.render();
        assert_eq!(p.size(), 3, "{rendered}");
        assert!(
            rendered.contains("SeqScan [r] where (x.b = 'x' ∧ k = 1) seek a = 1, b = 'x'"),
            "{rendered}"
        );
        // Anything that moves or merges columns keeps a stand-alone filter.
        let e = Expr::rel("r")
            .natural_join(Expr::rel("s"))
            .select(Predicate::eq_const("a", 1i64));
        let p = lower(&e, &db).unwrap();
        assert!(matches!(p, PhysPlan::Filter { .. }), "{}", p.render());
        assert!(p.render().contains("Filter [a = 1]"), "{}", p.render());
    }

    /// Lower `σ[pred](r × s)` over `r(r.a, r.b)`, `s(s.b, s.c)` — the shape
    /// SQL's `from r, s where …` arrives in — and render it.
    fn over_product(pred: Predicate) -> String {
        let e = Expr::rel("r")
            .qualify("r")
            .product(Expr::rel("s").qualify("s"))
            .select(pred);
        let plan = lower(&e, &db()).unwrap();
        assert_eq!(plan.schema().names(), vec!["r.a", "r.b", "s.b", "s.c"]);
        plan.render()
    }

    #[test]
    fn cross_side_equalities_become_the_keys_of_a_hash_join() {
        let eq = Predicate::eq_attrs;
        // The whole predicate is keys: no filter is left. The label's
        // prefix is what the `exec.join_*` layer metrics key on.
        let plan = over_product(eq("r.b", "s.b"));
        assert!(
            plan.starts_with("PartitionedHashJoin [r.b = s.b]\n"),
            "{plan}"
        );
        assert!(!plan.contains("Product") && !plan.contains("Filter"));
        // Written right-to-left, and twice over: still left = right pairs.
        let plan = over_product(eq("s.c", "r.a").and(eq("r.b", "s.b")));
        assert!(
            plan.starts_with("PartitionedHashJoin [r.a = s.c, r.b = s.b]\n"),
            "{plan}"
        );
        // Everything else stays behind as a filter on the joined tuples:
        // a same-side equality, a comparison that is not `=`, a constant.
        let residue = eq("s.b", "r.b")
            .and(cmp("r.a", CmpOp::Gt, 0))
            .and(eq("s.b", "s.b"))
            .and(Predicate::cmp(
                Operand::attr("r.a"),
                CmpOp::Lt,
                Operand::attr("s.c"),
            ));
        let plan = over_product(residue);
        let lines: Vec<&str> = plan.lines().collect();
        assert_eq!(
            lines[0], "Filter [((r.a > 0 ∧ s.b = s.b) ∧ r.a < s.c)]",
            "{plan}"
        );
        assert_eq!(lines[1], "  PartitionedHashJoin [r.b = s.b]", "{plan}");
        assert!(!plan.contains("Product"), "{plan}");
    }

    #[test]
    fn a_product_stays_when_no_conjunct_can_key_a_join() {
        let eq = Predicate::eq_attrs;
        let not = |p: Predicate| Predicate::Not(Box::new(p));
        let or = |a: Predicate, b: Predicate| Predicate::Or(Box::new(a), Box::new(b));
        for pred in [
            // No equality across the sides at the top level.
            cmp("r.a", CmpOp::Gt, 0),
            eq("r.a", "r.a"),
            Predicate::cmp(Operand::attr("r.a"), CmpOp::Le, Operand::attr("s.c")),
            or(eq("r.b", "s.b"), eq("r.a", "s.c")),
            not(eq("r.b", "s.b")),
            Predicate::True,
            // An unknown name makes evaluation fail for the tuples that
            // reach it; a join would never form most of them.
            eq("r.b", "s.b").and(Predicate::eq_const("ghost", 1i64)),
            eq("r.b", "ghost"),
        ] {
            let plan = over_product(pred.clone());
            let lines: Vec<&str> = plan.lines().collect();
            assert_eq!(lines[0], format!("Filter [{pred}]"), "{plan}");
            assert_eq!(lines[1], "  Product", "{plan}");
            assert!(!plan.contains("PartitionedHashJoin"), "{plan}");
        }
    }

    #[test]
    fn join_lowering_resolves_keys() {
        let p = lower(&Expr::rel("r").natural_join(Expr::rel("s")), &db()).unwrap();
        match &p {
            PhysPlan::PartitionedHashJoin {
                l_key,
                r_key,
                r_rest,
                on,
                schema,
                ..
            } => {
                assert_eq!(on, &vec!["b".to_string()]);
                assert_eq!(
                    (l_key.as_slice(), r_key.as_slice()),
                    (&[1usize][..], &[0usize][..])
                );
                assert_eq!(r_rest, &vec![1]);
                assert_eq!(schema.names(), vec!["a", "b", "c"]);
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn join_without_common_attrs_lowers_to_product() {
        let mut db = Database::new();
        db.add("a", Relation::with_schema(&[("x", Type::Int)]).unwrap());
        db.add("b", Relation::with_schema(&[("y", Type::Int)]).unwrap());
        let p = lower(&Expr::rel("a").natural_join(Expr::rel("b")), &db).unwrap();
        assert!(matches!(p, PhysPlan::Product { .. }));
    }

    #[test]
    fn shape_errors_surface_at_lowering() {
        let db = db();
        assert!(lower(&Expr::rel("nope"), &db).is_err());
        assert!(lower(&Expr::rel("r").project(&["zzz"]), &db).is_err());
        assert!(lower(&Expr::rel("r").union(Expr::rel("s")), &db).is_err());
        assert!(lower(&Expr::rel("r").product(Expr::rel("r")), &db).is_err());
    }

    #[test]
    fn division_lowers_through_identity() {
        let mut db = Database::new();
        db.add(
            "takes",
            Relation::with_schema(&[("student", Type::Str), ("course", Type::Str)]).unwrap(),
        );
        db.add(
            "required",
            Relation::with_schema(&[("course", Type::Str)]).unwrap(),
        );
        let p = lower(&Expr::rel("takes").division(Expr::rel("required")), &db).unwrap();
        assert_eq!(p.schema().names(), vec!["student"]);
        // Bad shapes rejected.
        assert!(lower(&Expr::rel("required").division(Expr::rel("takes")), &db).is_err());
        assert!(lower(&Expr::rel("takes").division(Expr::rel("takes")), &db).is_err());
    }
}

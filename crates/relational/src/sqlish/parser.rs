//! Recursive-descent parser: SQL-ish text → relational algebra.

use crate::algebra::expr::{Expr, Operand, Predicate};
use crate::error::RelError;
use crate::sqlish::lexer::{lex, Token};
use crate::value::{CmpOp, Value};
use crate::Result;

/// Parse a SQL-ish query into a relational-algebra expression.
///
/// Grammar (keywords case-insensitive):
///
/// ```text
/// query   := inter ((UNION | EXCEPT) inter)*     -- folds left
/// inter   := select (INTERSECT select)*          -- binds tighter
/// select  := SELECT cols FROM tables [WHERE pred]
/// cols    := '*' | col (',' col)*
/// col     := [alias '.'] name [AS out]
/// tables  := table (',' table)*
/// table   := relname [alias]
/// pred    := or ; or := and (OR and)* ; and := unary (AND unary)*
/// unary   := NOT unary | '(' pred ')' | operand cmp operand
/// operand := [alias '.'] name | int | 'string' | TRUE | FALSE
/// ```
pub fn parse(input: &str) -> Result<Expr> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let expr = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(RelError::ParseError(format!(
            "trailing tokens starting at {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(RelError::ParseError(format!(
                "expected `{kw}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<()> {
        match self.next() {
            Some(t) if &t == tok => Ok(()),
            other => Err(RelError::ParseError(format!(
                "expected {tok:?}, found {other:?}"
            ))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(RelError::ParseError(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// Folds left: `a except b except c` is `(a − b) − c`, as in SQL.
    fn query(&mut self) -> Result<Expr> {
        let mut acc = self.inter()?;
        loop {
            if self.keyword("union") {
                acc = acc.union(self.inter()?);
            } else if self.keyword("except") {
                acc = acc.difference(self.inter()?);
            } else {
                return Ok(acc);
            }
        }
    }

    /// INTERSECT binds tighter than UNION and EXCEPT, as in SQL.
    fn inter(&mut self) -> Result<Expr> {
        let mut acc = self.select()?;
        while self.keyword("intersect") {
            acc = acc.intersection(self.select()?);
        }
        Ok(acc)
    }

    fn select(&mut self) -> Result<Expr> {
        self.expect_keyword("select")?;
        let cols = self.columns()?;
        self.expect_keyword("from")?;
        let tables = self.tables()?;

        // FROM: qualify each table by its alias and fold into a product.
        let mut from = None;
        let aliases: Vec<String> = tables.iter().map(|(_, a)| a.clone()).collect();
        for (name, alias) in &tables {
            let e = Expr::rel(name.clone()).qualify(alias);
            from = Some(match from {
                None => e,
                Some(acc) => Expr::product(acc, e),
            });
        }
        let mut expr =
            from.ok_or_else(|| RelError::ParseError("FROM needs at least one table".into()))?;

        if self.keyword("where") {
            let pred = self.pred(&aliases)?;
            expr = expr.select(pred);
        }

        // SELECT list: project then rename.
        if let Cols::List(items) = cols {
            let qualified: Vec<String> = items
                .iter()
                .map(|c| self.qualify_column(&c.alias, &c.name, &aliases))
                .collect::<Result<_>>()?;
            let refs: Vec<&str> = qualified.iter().map(String::as_str).collect();
            expr = expr.project(&refs);
            for (q, item) in qualified.iter().zip(items.iter()) {
                let out = item.out.clone().unwrap_or_else(|| item.name.clone());
                if q != &out {
                    expr = expr.rename(q, &out);
                }
            }
        }
        Ok(expr)
    }

    fn qualify_column(
        &self,
        alias: &Option<String>,
        name: &str,
        aliases: &[String],
    ) -> Result<String> {
        match alias {
            Some(a) => {
                if !aliases.contains(a) {
                    return Err(RelError::ParseError(format!("unknown alias `{a}`")));
                }
                Ok(format!("{a}.{name}"))
            }
            None => {
                if aliases.len() == 1 {
                    Ok(format!("{}.{}", aliases[0], name))
                } else {
                    Err(RelError::ParseError(format!(
                        "unqualified column `{name}` is ambiguous with {} tables",
                        aliases.len()
                    )))
                }
            }
        }
    }

    fn columns(&mut self) -> Result<Cols> {
        if matches!(self.peek(), Some(Token::Star)) {
            self.next();
            return Ok(Cols::Star);
        }
        let mut items = vec![self.column()?];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.next();
            items.push(self.column()?);
        }
        Ok(Cols::List(items))
    }

    fn column(&mut self) -> Result<ColItem> {
        let first = self.ident()?;
        let (alias, name) = if matches!(self.peek(), Some(Token::Dot)) {
            self.next();
            (Some(first), self.ident()?)
        } else {
            (None, first)
        };
        let out = if self.keyword("as") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(ColItem { alias, name, out })
    }

    fn tables(&mut self) -> Result<Vec<(String, String)>> {
        let mut out = vec![self.table()?];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.next();
            out.push(self.table()?);
        }
        Ok(out)
    }

    fn table(&mut self) -> Result<(String, String)> {
        let mut name = self.ident()?;
        // Dotted names (`bq.metrics`) address catalog namespaces; the
        // joined string is the relation name.
        while matches!(self.peek(), Some(Token::Dot)) {
            self.next();
            name.push('.');
            name.push_str(&self.ident()?);
        }
        // Optional alias: an identifier that is not a clause keyword.
        if let Some(Token::Ident(s)) = self.peek() {
            let is_kw = [
                "where",
                "union",
                "except",
                "intersect",
                "from",
                "select",
                "as",
            ]
            .iter()
            .any(|k| s.eq_ignore_ascii_case(k));
            if !is_kw {
                let alias = self.ident()?;
                return Ok((name, alias));
            }
        }
        Ok((name.clone(), name))
    }

    fn pred(&mut self, aliases: &[String]) -> Result<Predicate> {
        let mut left = self.pred_and(aliases)?;
        while self.keyword("or") {
            let right = self.pred_and(aliases)?;
            left = Predicate::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_and(&mut self, aliases: &[String]) -> Result<Predicate> {
        let mut left = self.pred_unary(aliases)?;
        while self.keyword("and") {
            let right = self.pred_unary(aliases)?;
            left = Predicate::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_unary(&mut self, aliases: &[String]) -> Result<Predicate> {
        if self.keyword("not") {
            return Ok(Predicate::Not(Box::new(self.pred_unary(aliases)?)));
        }
        if matches!(self.peek(), Some(Token::LParen)) {
            self.next();
            let inner = self.pred(aliases)?;
            self.expect(&Token::RParen)?;
            return Ok(inner);
        }
        let l = self.operand(aliases)?;
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => {
                return Err(RelError::ParseError(format!(
                    "expected comparison operator, found {other:?}"
                )))
            }
        };
        let r = self.operand(aliases)?;
        Ok(Predicate::Cmp { l, op, r })
    }

    fn operand(&mut self, aliases: &[String]) -> Result<Operand> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Operand::Const(Value::Int(n))),
            Some(Token::Str(s)) => Ok(Operand::Const(Value::Str(s))),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("true") => {
                Ok(Operand::Const(Value::Bool(true)))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("false") => {
                Ok(Operand::Const(Value::Bool(false)))
            }
            Some(Token::Ident(first)) => {
                if matches!(self.peek(), Some(Token::Dot)) {
                    self.next();
                    let name = self.ident()?;
                    if !aliases.contains(&first) {
                        return Err(RelError::ParseError(format!("unknown alias `{first}`")));
                    }
                    Ok(Operand::Attr(format!("{first}.{name}")))
                } else {
                    let q = self.qualify_column(&None, &first, aliases)?;
                    Ok(Operand::Attr(q))
                }
            }
            other => Err(RelError::ParseError(format!(
                "expected operand, found {other:?}"
            ))),
        }
    }
}

enum Cols {
    Star,
    List(Vec<ColItem>),
}

struct ColItem {
    alias: Option<String>,
    name: String,
    out: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::eval::eval;
    use crate::catalog::Database;
    use crate::relation::Relation;
    use crate::tup;
    use crate::value::Type;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(
            "emp",
            Relation::from_rows(
                &[("name", Type::Str), ("dept", Type::Str), ("sal", Type::Int)],
                vec![
                    vec![Value::str("ann"), Value::str("cs"), Value::Int(90)],
                    vec![Value::str("bob"), Value::str("cs"), Value::Int(70)],
                    vec![Value::str("eve"), Value::str("ee"), Value::Int(80)],
                ],
            )
            .unwrap(),
        );
        db.add(
            "dept",
            Relation::from_rows(
                &[("dept", Type::Str), ("bldg", Type::Int)],
                vec![
                    vec![Value::str("cs"), Value::Int(1)],
                    vec![Value::str("ee"), Value::Int(2)],
                ],
            )
            .unwrap(),
        );
        db
    }

    fn run(sql: &str) -> Relation {
        eval(&parse(sql).unwrap(), &db()).unwrap()
    }

    #[test]
    fn single_table_select() {
        let out = run("select e.name from emp e where e.sal > 75");
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tup!["ann"]));
    }

    #[test]
    fn unqualified_columns_with_single_table() {
        let out = run("select name from emp where sal > 75 and dept = 'cs'");
        assert_eq!(out.tuples(), vec![tup!["ann"]]);
    }

    #[test]
    fn join_two_tables() {
        let out =
            run("select e.name, d.bldg from emp e, dept d where e.dept = d.dept and d.bldg = 1");
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().names(), vec!["name", "bldg"]);
    }

    #[test]
    fn as_renames_output() {
        let out = run("select e.name as who from emp e");
        assert_eq!(out.schema().names(), vec!["who"]);
    }

    #[test]
    fn star_keeps_all_columns() {
        let out = run("select * from emp e");
        assert_eq!(out.schema().names(), vec!["e.name", "e.dept", "e.sal"]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn union_and_except() {
        let u = run("select e.name from emp e where e.sal > 75 union select e.name from emp e where e.dept = 'cs'");
        assert_eq!(u.len(), 3);
        let d = run("select e.name from emp e except select e.name from emp e where e.dept = 'cs'");
        assert_eq!(d.tuples(), vec![tup!["eve"]]);
    }

    #[test]
    fn intersect_works() {
        let i = run("select e.name from emp e where e.sal > 75 intersect select e.name from emp e where e.dept = 'cs'");
        assert_eq!(i.tuples(), vec![tup!["ann"]]);
    }

    /// Three-arm chains over a = {1,2,3}, b = {2}, c = {2,3}: they fold
    /// left, and INTERSECT binds tighter than UNION / EXCEPT.
    #[test]
    fn compound_selects_fold_left_with_intersect_tighter() {
        let mut db = Database::new();
        for (name, vals) in [("a", &[1i64, 2, 3][..]), ("b", &[2]), ("c", &[2, 3])] {
            let rows = vals.iter().map(|v| vec![Value::Int(*v)]).collect();
            db.add(
                name,
                Relation::from_rows(&[("x", Type::Int)], rows).unwrap(),
            );
        }
        // Each one-letter word is a select of that table's column.
        let run = |chain: &str| {
            let sql: Vec<String> = chain
                .split(' ')
                .map(|w| match w.len() {
                    1 => format!("select t.x from {w} t"),
                    _ => w.to_string(),
                })
                .collect();
            eval(&parse(&sql.join(" ")).unwrap(), &db).unwrap().tuples()
        };
        assert_eq!(run("a except b except c"), vec![tup![1i64]]);
        assert_eq!(run("a union b except c"), vec![tup![1i64]]);
        assert_eq!(run("c except b union b"), vec![tup![2i64], tup![3i64]]);
        assert_eq!(run("c except a intersect b"), vec![tup![3i64]]);
    }

    #[test]
    fn not_and_parens() {
        let out = run("select e.name from emp e where not (e.dept = 'cs' or e.sal < 75)");
        assert_eq!(out.tuples(), vec![tup!["eve"]]);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("select from emp").is_err());
        assert!(parse("select e.name emp e").is_err());
        assert!(parse("select e.name from emp e where").is_err());
        assert!(parse("select e.name from emp e extra").is_err());
        assert!(parse("select z.name from emp e").is_err());
    }

    #[test]
    fn ambiguous_unqualified_column_rejected() {
        assert!(parse("select name from emp e, dept d").is_err());
    }

    #[test]
    fn boolean_literals() {
        let mut db = db();
        db.add(
            "flags",
            Relation::from_rows(
                &[("id", Type::Int), ("ok", Type::Bool)],
                vec![
                    vec![Value::Int(1), Value::Bool(true)],
                    vec![Value::Int(2), Value::Bool(false)],
                ],
            )
            .unwrap(),
        );
        let out = eval(
            &parse("select f.id from flags f where f.ok = true").unwrap(),
            &db,
        )
        .unwrap();
        assert_eq!(out.tuples(), vec![tup![1i64]]);
    }
}

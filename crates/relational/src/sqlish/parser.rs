//! Recursive-descent parser: SQL-ish text → statements and relational
//! algebra.

use crate::algebra::expr::{Expr, Operand, Predicate};
use crate::error::RelError;
use crate::sqlish::lexer::{leading_word, lex, Token};
use crate::value::{CmpOp, Type, Value};
use crate::Result;
use std::iter::Peekable;
use std::vec;

/// Deepest nesting of `NOT` and parentheses in one statement.
pub const MAX_NESTING: usize = 32;
/// Most `AND`/`OR` connectives in one statement.
pub const MAX_CONNECTIVES: usize = 128;
/// Most selects one statement joins by `UNION`/`EXCEPT`/`INTERSECT`.
pub const MAX_ARMS: usize = 16;
/// Most tables in one `FROM` list.
pub const MAX_TABLES: usize = 16;
/// Most columns in one select list.
pub const MAX_COLUMNS: usize = 16;

/// One statement of the grammar [`statement`] reads.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A select, kept as text: the engine parses ([`parse`]) and
    /// optimizes it under governance so a parse error is a typed query
    /// error, not a protocol one.
    Select(String),
    /// `explain analyze <select>`, keeping the inner select's text: run
    /// it governed and return the physical plan annotated with
    /// per-operator runtime stats (rows, batches, wall time, memory).
    ExplainAnalyze(String),
    /// `create table name (col type, ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column names and types, in order.
        cols: Vec<(String, Type)>,
    },
    /// `insert into name values (v, ...)`.
    Insert {
        /// Target table.
        table: String,
        /// The row.
        row: Vec<Value>,
    },
    /// `begin` — open an interactive transaction on this session.
    Begin,
    /// `commit` the session's open transaction.
    Commit,
    /// `rollback` (or `abort`) the session's open transaction.
    Rollback,
}

impl Statement {
    /// Does this statement mutate the database (needs the write lock)?
    pub fn is_mutation(&self) -> bool {
        !matches!(self, Statement::Select(_) | Statement::ExplainAnalyze(_))
    }
}

/// Read one statement of [`parse`]'s grammar; `Ok(None)` when its first
/// word begins none. A select, bare or explained, is classified by its
/// first word and kept as text, neither lexed nor parsed here: [`parse`]
/// reads it once, where it runs.
pub fn statement(text: &str) -> Result<Option<Statement>> {
    let text = text.trim();
    let (word, rest) = leading_word(text);
    let is = |kw: &str| word.eq_ignore_ascii_case(kw);
    if is("select") {
        return Ok(Some(Statement::Select(text.to_string())));
    }
    if is("explain") {
        let (analyze, query) = leading_word(rest);
        if !analyze.eq_ignore_ascii_case("analyze") {
            return Err(parse_error(format!(
                "expected `analyze`, found `{analyze}`"
            )));
        }
        if !leading_word(query).0.eq_ignore_ascii_case("select") {
            return Err(parse_error("explain analyze takes a select"));
        }
        return Ok(Some(Statement::ExplainAnalyze(query.to_string())));
    }
    let verbs = ["create", "insert", "begin", "commit", "rollback", "abort"];
    if !verbs.iter().any(|v| is(v)) {
        return Ok(None);
    }
    let mut p = Parser::new(lex(text)?);
    let stmt = p.command()?;
    p.finish()?;
    Ok(Some(stmt))
}

/// Parse a SQL-ish query into a relational-algebra expression.
///
/// The grammar of every statement (keywords case-insensitive; a
/// statement's first word is read by the lexer's identifier rule, so
/// `select*from t` begins with `select`):
///
/// ```text
/// statement := query | EXPLAIN ANALYZE query     -- kept as text
///            | CREATE TABLE relname '(' name type (',' name type)* ')'
///            | INSERT INTO relname VALUES '(' value (',' value)* ')'
///            | BEGIN | COMMIT | ROLLBACK | ABORT
/// type    := INT | INTEGER | STR | STRING | TEXT | VARCHAR | BOOL | BOOLEAN
/// value   := NULL | literal
/// query   := inter ((UNION | EXCEPT) inter)*     -- folds left
/// inter   := select (INTERSECT select)*          -- binds tighter
/// select  := SELECT cols FROM tables [WHERE pred]
/// cols    := '*' | col (',' col)*
/// col     := [alias '.'] name [AS out]
/// tables  := table (',' table)*
/// table   := relname [alias]
/// relname := name ('.' name)*                    -- `bq.metrics`
/// pred    := or ; or := and (OR and)* ; and := unary (AND unary)*
/// unary   := NOT unary | '(' pred ')' | operand cmp operand
/// operand := [alias '.'] name | literal
/// literal := int | 'string' | TRUE | FALSE
/// ```
///
/// Past each bound a statement is a typed [`RelError::ParseError`]:
/// [`MAX_NESTING`] `NOT`s and parentheses and [`MAX_CONNECTIVES`] `AND`s
/// and `OR`s per statement, [`MAX_ARMS`] selects per statement,
/// [`MAX_TABLES`] tables per `FROM` list and [`MAX_COLUMNS`] columns per
/// select list. Every recursive pass over a statement at all five bounds
/// at once (parse, optimize, lower, execute, render, fingerprint, drop)
/// fits a session thread's 2 MiB stack, in a debug build too.
pub fn parse(input: &str) -> Result<Expr> {
    let mut p = Parser::new(lex(input)?);
    let expr = p.query()?;
    p.finish()?;
    Ok(expr)
}

fn parse_error(msg: impl Into<String>) -> RelError {
    RelError::ParseError(msg.into())
}

struct Parser {
    /// Read once, front to back: each token moves out as it is read.
    tokens: Peekable<vec::IntoIter<Token>>,
    /// `NOT`s and parentheses open around the current token.
    nesting: usize,
    /// `AND`s and `OR`s read so far.
    connectives: usize,
    /// Selects read so far.
    arms: usize,
}

/// Fail once `count` passes `max` of `what`.
fn bound(count: usize, max: usize, what: &str) -> Result<()> {
    if count > max {
        return Err(parse_error(format!("more than {max} {what}")));
    }
    Ok(())
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens: tokens.into_iter().peekable(),
            nesting: 0,
            connectives: 0,
            arms: 0,
        }
    }

    fn finish(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(parse_error(format!("trailing tokens starting at {t:?}"))),
        }
    }

    fn peek(&mut self) -> Option<&Token> {
        self.tokens.peek()
    }

    fn next(&mut self) -> Option<Token> {
        self.tokens.next()
    }

    fn keyword(&mut self, kw: &str) -> bool {
        let is_kw = |t: &Token| matches!(t, Token::Ident(s) if s.eq_ignore_ascii_case(kw));
        self.tokens.next_if(is_kw).is_some()
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(parse_error(format!(
                "expected `{kw}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<()> {
        match self.next() {
            Some(t) if &t == tok => Ok(()),
            other => Err(parse_error(format!("expected {tok:?}, found {other:?}"))),
        }
    }

    /// Consume `tok` if it is next.
    fn eat(&mut self, tok: &Token) -> bool {
        self.tokens.next_if_eq(tok).is_some()
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(parse_error(format!("expected identifier, found {other:?}"))),
        }
    }

    /// `item (',' item)*`
    fn commas<T>(&mut self, mut item: impl FnMut(&mut Parser) -> Result<T>) -> Result<Vec<T>> {
        let mut out = vec![item(self)?];
        while self.eat(&Token::Comma) {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// `'(' item (',' item)* ')'`
    fn list<T>(&mut self, item: impl FnMut(&mut Parser) -> Result<T>) -> Result<Vec<T>> {
        self.expect(&Token::LParen)?;
        let out = self.commas(item)?;
        self.expect(&Token::RParen)?;
        Ok(out)
    }

    /// Every statement but a select and `explain analyze`.
    fn command(&mut self) -> Result<Statement> {
        if self.keyword("create") {
            self.expect_keyword("table")?;
            let name = self.relname()?;
            let cols = self.list(|p| Ok((p.ident()?, p.column_type()?)))?;
            return Ok(Statement::CreateTable { name, cols });
        }
        if self.keyword("insert") {
            self.expect_keyword("into")?;
            let table = self.relname()?;
            self.expect_keyword("values")?;
            let row = self.list(|p| {
                if p.keyword("null") {
                    return Ok(Value::Null(0));
                }
                p.literal()
                    .ok_or_else(|| parse_error(format!("expected a value, found {:?}", p.peek())))
            })?;
            return Ok(Statement::Insert { table, row });
        }
        for (verb, stmt) in [
            ("begin", Statement::Begin),
            ("commit", Statement::Commit),
            ("rollback", Statement::Rollback),
            ("abort", Statement::Rollback),
        ] {
            if self.keyword(verb) {
                return Ok(stmt);
            }
        }
        Err(parse_error(format!(
            "expected a statement, found {:?}",
            self.peek()
        )))
    }

    fn column_type(&mut self) -> Result<Type> {
        let name = self.ident()?;
        Ok(match name.to_ascii_lowercase().as_str() {
            "int" | "integer" => Type::Int,
            "str" | "string" | "text" | "varchar" => Type::Str,
            "bool" | "boolean" => Type::Bool,
            _ => return Err(parse_error(format!("unknown type `{name}`"))),
        })
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
        self.arms += 1;
        bound(self.arms, MAX_ARMS, "selects in one statement")?;
        self.expect_keyword("select")?;
        let cols = self.columns()?;
        self.expect_keyword("from")?;
        let tables = self.commas(Parser::table)?;
        bound(tables.len(), MAX_TABLES, "tables in one FROM list")?;

        // FROM: qualify each table by its alias; two or more are one join
        // on the WHERE predicate.
        let aliases: Vec<String> = tables.iter().map(|(_, a)| a.clone()).collect();
        let mut inputs: Vec<Expr> = tables
            .into_iter()
            .map(|(name, alias)| Expr::rel(name).qualify(&alias))
            .collect();
        let pred = if self.keyword("where") {
            self.pred(&aliases)?
        } else {
            Predicate::True
        };
        let mut expr = match inputs.len() {
            1 => match (inputs.remove(0), pred) {
                (e, Predicate::True) => e,
                (e, pred) => e.select(pred),
            },
            _ => Expr::Join { inputs, pred },
        };

        // SELECT list: project, then rename every column at once.
        if let Cols::List(items) = cols {
            let (mut qualified, mut pairs) = (Vec::new(), Vec::new());
            for item in items {
                let q = self.qualify_column(&item.alias, &item.name, &aliases)?;
                let out = item.out.unwrap_or(item.name);
                if q != out {
                    pairs.push((q.clone(), out));
                }
                qualified.push(q);
            }
            let refs: Vec<&str> = qualified.iter().map(String::as_str).collect();
            expr = expr.project(&refs);
            if !pairs.is_empty() {
                expr = expr.renames(pairs);
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
                    return Err(parse_error(format!("unknown alias `{a}`")));
                }
                Ok(format!("{a}.{name}"))
            }
            None => {
                if aliases.len() == 1 {
                    Ok(format!("{}.{}", aliases[0], name))
                } else {
                    Err(parse_error(format!(
                        "unqualified column `{name}` is ambiguous with {} tables",
                        aliases.len()
                    )))
                }
            }
        }
    }

    fn columns(&mut self) -> Result<Cols> {
        if self.eat(&Token::Star) {
            return Ok(Cols::Star);
        }
        let items = self.commas(Parser::column)?;
        bound(items.len(), MAX_COLUMNS, "columns in one select list")?;
        Ok(Cols::List(items))
    }

    fn column(&mut self) -> Result<ColItem> {
        let first = self.ident()?;
        let (alias, name) = if self.eat(&Token::Dot) {
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

    /// Dotted names (`bq.metrics`) address catalog namespaces; the joined
    /// string is the relation name.
    fn relname(&mut self) -> Result<String> {
        let mut name = self.ident()?;
        while self.eat(&Token::Dot) {
            name.push('.');
            name.push_str(&self.ident()?);
        }
        Ok(name)
    }

    fn table(&mut self) -> Result<(String, String)> {
        let name = self.relname()?;
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

    /// Count one `AND`/`OR` if `kw` is next.
    fn connective(&mut self, kw: &str) -> Result<bool> {
        if !self.keyword(kw) {
            return Ok(false);
        }
        self.connectives += 1;
        bound(self.connectives, MAX_CONNECTIVES, "ANDs and ORs")?;
        Ok(true)
    }

    fn pred(&mut self, aliases: &[String]) -> Result<Predicate> {
        let mut left = self.pred_and(aliases)?;
        while self.connective("or")? {
            let right = self.pred_and(aliases)?;
            left = Predicate::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_and(&mut self, aliases: &[String]) -> Result<Predicate> {
        let mut left = self.pred_unary(aliases)?;
        while self.connective("and")? {
            let right = self.pred_unary(aliases)?;
            left = Predicate::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_unary(&mut self, aliases: &[String]) -> Result<Predicate> {
        let not = self.keyword("not");
        if not || self.eat(&Token::LParen) {
            self.nesting += 1;
            bound(self.nesting, MAX_NESTING, "nested NOTs and parentheses")?;
            let inner = if not {
                Predicate::Not(Box::new(self.pred_unary(aliases)?))
            } else {
                let inner = self.pred(aliases)?;
                self.expect(&Token::RParen)?;
                inner
            };
            self.nesting -= 1;
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
                return Err(parse_error(format!(
                    "expected comparison operator, found {other:?}"
                )))
            }
        };
        let r = self.operand(aliases)?;
        Ok(Predicate::Cmp { l, op, r })
    }

    /// `literal := int | 'string' | TRUE | FALSE`, consumed if next.
    fn literal(&mut self) -> Option<Value> {
        let v = match self.tokens.peek_mut()? {
            Token::Int(n) => Value::Int(*n),
            Token::Str(s) => Value::Str(std::mem::take(s)),
            Token::Ident(s) if s.eq_ignore_ascii_case("true") => Value::Bool(true),
            Token::Ident(s) if s.eq_ignore_ascii_case("false") => Value::Bool(false),
            _ => return None,
        };
        self.tokens.next();
        Some(v)
    }

    fn operand(&mut self, aliases: &[String]) -> Result<Operand> {
        if let Some(v) = self.literal() {
            return Ok(Operand::Const(v));
        }
        let first = match self.next() {
            Some(Token::Ident(s)) => s,
            other => return Err(parse_error(format!("expected operand, found {other:?}"))),
        };
        if self.eat(&Token::Dot) {
            let name = self.ident()?;
            if !aliases.contains(&first) {
                return Err(parse_error(format!("unknown alias `{first}`")));
            }
            Ok(Operand::Attr(format!("{first}.{name}")))
        } else {
            Ok(Operand::Attr(self.qualify_column(&None, &first, aliases)?))
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

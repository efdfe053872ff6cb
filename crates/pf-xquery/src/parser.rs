//! Recursive-descent parser for the supported XQuery dialect.

use pf_store::{Axis, NodeTest};

use crate::ast::{BinOpKind, Expr, OrderKey};
use crate::error::{XqError, XqResult};
use crate::lexer::{tokenize, SpannedToken, Token};

/// How deeply a query may nest.  Both the parser's recursion (one level
/// per parenthesis, sub-expression or unary sign) and the height of the
/// syntax tree (which also grows without recursion, through chains such
/// as `a + b + c`, `a/b/c`, `a[1][2]` and FLWOR clauses) stay within it;
/// deeper queries are a syntax error.  Normalizing, compiling and running
/// a query recurse over its syntax tree, and at this depth they fit in the
/// 2 MiB stack of a server connection thread.
pub const MAX_NESTING_DEPTH: usize = 64;

/// Parse an XQuery expression.
pub fn parse_query(input: &str) -> XqResult<Expr> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let expr = parser.parse_expr()?;
    if !parser.at_end() {
        return Err(parser.error("unexpected trailing input"));
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    /// Recursion depth of the parse in progress.
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek_ahead(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n).map(|t| &t.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.offset)
            .unwrap_or(0)
    }

    fn error(&self, message: impl Into<String>) -> XqError {
        XqError::parse(message, self.offset())
    }

    fn too_deep(&self) -> XqError {
        self.error(format!(
            "expression nested more than {MAX_NESTING_DEPTH} levels deep"
        ))
    }

    /// Run `parse` one recursion level deeper.
    fn nested(&mut self, parse: impl FnOnce(&mut Self) -> XqResult<Expr>) -> XqResult<Expr> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let expr = parse(self);
        self.depth -= 1;
        expr
    }

    /// `expr`, one more link of a chain, unless the link lifts the syntax
    /// tree above the nesting bound.
    fn bounded(&self, expr: Expr) -> XqResult<Expr> {
        if expr.height() > MAX_NESTING_DEPTH {
            return Err(self.too_deep());
        }
        Ok(expr)
    }

    fn advance(&mut self) -> Option<Token> {
        let tok = self.tokens.get(self.pos).map(|t| t.token.clone());
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    fn expect(&mut self, expected: &Token) -> XqResult<()> {
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.error(format!("expected {expected:?}, found {other:?}"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Name(n)) if n == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> XqResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn expect_name(&mut self) -> XqResult<String> {
        match self.advance() {
            Some(Token::Name(n)) => Ok(n),
            other => Err(self.error(format!("expected a name, found {other:?}"))),
        }
    }

    fn expect_variable(&mut self) -> XqResult<String> {
        match self.advance() {
            Some(Token::Variable(v)) => Ok(v),
            other => Err(self.error(format!("expected a variable, found {other:?}"))),
        }
    }

    // Expr ::= ExprSingle ("," ExprSingle)*
    fn parse_expr(&mut self) -> XqResult<Expr> {
        let first = self.parse_expr_single()?;
        if self.peek() != Some(&Token::Comma) {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            items.push(self.parse_expr_single()?);
        }
        Ok(Expr::Sequence(items))
    }

    // ExprSingle ::= FLWORExpr | IfExpr | QuantifiedExpr | OrExpr
    fn parse_expr_single(&mut self) -> XqResult<Expr> {
        self.nested(Self::parse_expr_single_unnested)
    }

    fn parse_expr_single_unnested(&mut self) -> XqResult<Expr> {
        if (self.peek_keyword("for") || self.peek_keyword("let"))
            && matches!(self.peek_ahead(1), Some(Token::Variable(_)))
        {
            return self.parse_flwor();
        }
        if self.peek_keyword("if") && self.peek_ahead(1) == Some(&Token::LParen) {
            return self.parse_if();
        }
        if self.peek_keyword("some") && matches!(self.peek_ahead(1), Some(Token::Variable(_))) {
            return self.parse_some();
        }
        self.parse_or()
    }

    fn parse_flwor(&mut self) -> XqResult<Expr> {
        enum Clause {
            For {
                var: String,
                pos_var: Option<String>,
                seq: Expr,
            },
            Let {
                var: String,
                value: Expr,
            },
        }
        let mut clauses = Vec::new();
        loop {
            if self.eat_keyword("for") {
                loop {
                    let var = self.expect_variable()?;
                    let pos_var = if self.eat_keyword("at") {
                        Some(self.expect_variable()?)
                    } else {
                        None
                    };
                    self.expect_keyword("in")?;
                    let seq = self.parse_expr_single()?;
                    clauses.push(Clause::For { var, pos_var, seq });
                    if self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                        continue;
                    }
                    break;
                }
            } else if self.eat_keyword("let") {
                loop {
                    let var = self.expect_variable()?;
                    self.expect(&Token::Assign)?;
                    let value = self.parse_expr_single()?;
                    clauses.push(Clause::Let { var, value });
                    if self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                        continue;
                    }
                    break;
                }
            } else {
                break;
            }
        }
        let where_clause = if self.eat_keyword("where") {
            Some(self.parse_expr_single()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.peek_keyword("order") {
            self.pos += 1;
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr_single()?;
                let descending = if self.eat_keyword("descending") {
                    true
                } else {
                    self.eat_keyword("ascending");
                    false
                };
                order_by.push(OrderKey { expr, descending });
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                    continue;
                }
                break;
            }
        }
        self.expect_keyword("return")?;
        let body = self.parse_expr_single()?;

        // Desugar the clause list into nested Let/For expressions.  The
        // `where` and `order by` clauses attach to the innermost `for`
        // (all variables are in scope there).
        let mut result = body;
        let mut where_slot = where_clause;
        let mut order_slot = order_by;
        let last_for_index = clauses
            .iter()
            .rposition(|c| matches!(c, Clause::For { .. }));
        if last_for_index.is_none() {
            if let Some(w) = where_slot.take() {
                result = self.bounded(Expr::If {
                    cond: Box::new(w),
                    then_branch: Box::new(result),
                    else_branch: Box::new(Expr::EmptySeq),
                })?;
            }
            if !order_slot.is_empty() {
                return Err(self.error("`order by` requires at least one `for` clause"));
            }
        }
        for (index, clause) in clauses.into_iter().enumerate().rev() {
            match clause {
                Clause::For { var, pos_var, seq } => {
                    let (w, o) = if Some(index) == last_for_index {
                        (where_slot.take(), std::mem::take(&mut order_slot))
                    } else {
                        (None, Vec::new())
                    };
                    result = self.bounded(Expr::For {
                        var,
                        pos_var,
                        seq: Box::new(seq),
                        where_clause: w.map(Box::new),
                        order_by: o,
                        body: Box::new(result),
                    })?;
                }
                Clause::Let { var, value } => {
                    result = self.bounded(Expr::Let {
                        var,
                        value: Box::new(value),
                        body: Box::new(result),
                    })?;
                }
            }
        }
        Ok(result)
    }

    fn parse_if(&mut self) -> XqResult<Expr> {
        self.expect_keyword("if")?;
        self.expect(&Token::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&Token::RParen)?;
        self.expect_keyword("then")?;
        let then_branch = self.parse_expr_single()?;
        self.expect_keyword("else")?;
        let else_branch = self.parse_expr_single()?;
        Ok(Expr::If {
            cond: Box::new(cond),
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
        })
    }

    fn parse_some(&mut self) -> XqResult<Expr> {
        self.expect_keyword("some")?;
        let var = self.expect_variable()?;
        self.expect_keyword("in")?;
        let seq = self.parse_expr_single()?;
        self.expect_keyword("satisfies")?;
        let satisfies = self.parse_expr_single()?;
        Ok(Expr::Some {
            var,
            seq: Box::new(seq),
            satisfies: Box::new(satisfies),
        })
    }

    fn parse_or(&mut self) -> XqResult<Expr> {
        let mut left = self.parse_and()?;
        while self.peek_keyword("or") {
            self.pos += 1;
            let right = self.parse_and()?;
            left = self.bounded(Expr::BinOp {
                op: BinOpKind::Or,
                left: Box::new(left),
                right: Box::new(right),
            })?;
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> XqResult<Expr> {
        let mut left = self.parse_comparison()?;
        while self.peek_keyword("and") {
            self.pos += 1;
            let right = self.parse_comparison()?;
            left = self.bounded(Expr::BinOp {
                op: BinOpKind::And,
                left: Box::new(left),
                right: Box::new(right),
            })?;
        }
        Ok(left)
    }

    fn comparison_op(&self) -> Option<BinOpKind> {
        match self.peek()? {
            Token::Eq => Some(BinOpKind::Eq),
            Token::NotEq => Some(BinOpKind::Ne),
            Token::Lt => Some(BinOpKind::Lt),
            Token::Le => Some(BinOpKind::Le),
            Token::Gt => Some(BinOpKind::Gt),
            Token::Ge => Some(BinOpKind::Ge),
            Token::Before => Some(BinOpKind::Before),
            Token::After => Some(BinOpKind::After),
            Token::Name(n) => match n.as_str() {
                "eq" => Some(BinOpKind::Eq),
                "ne" => Some(BinOpKind::Ne),
                "lt" => Some(BinOpKind::Lt),
                "le" => Some(BinOpKind::Le),
                "gt" => Some(BinOpKind::Gt),
                "ge" => Some(BinOpKind::Ge),
                "is" => Some(BinOpKind::Is),
                _ => None,
            },
            _ => None,
        }
    }

    fn parse_comparison(&mut self) -> XqResult<Expr> {
        let left = self.parse_additive()?;
        if let Some(op) = self.comparison_op() {
            // Keyword comparisons ("eq", …) are only operators when followed
            // by something that can start an operand.
            self.pos += 1;
            let right = self.parse_additive()?;
            return Ok(Expr::BinOp {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> XqResult<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOpKind::Add,
                Some(Token::Minus) => BinOpKind::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_multiplicative()?;
            left = self.bounded(Expr::BinOp {
                op,
                left: Box::new(left),
                right: Box::new(right),
            })?;
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> XqResult<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOpKind::Mul,
                Some(Token::Name(n)) if n == "div" => BinOpKind::Div,
                Some(Token::Name(n)) if n == "idiv" => BinOpKind::IDiv,
                Some(Token::Name(n)) if n == "mod" => BinOpKind::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = self.bounded(Expr::BinOp {
                op,
                left: Box::new(left),
                right: Box::new(right),
            })?;
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> XqResult<Expr> {
        if self.peek() == Some(&Token::Minus) {
            self.pos += 1;
            let inner = self.nested(Self::parse_unary)?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        if self.peek() == Some(&Token::Plus) {
            self.pos += 1;
            return self.nested(Self::parse_unary);
        }
        self.parse_path()
    }

    /// PathExpr ::= ("/" RelativePath?) | ("//" RelativePath) | RelativePath
    fn parse_path(&mut self) -> XqResult<Expr> {
        let mut current = match self.peek() {
            Some(Token::Slash) => {
                self.pos += 1;
                let root = Expr::FunCall {
                    name: "root".into(),
                    args: vec![Expr::ContextItem],
                };
                if self.starts_step() {
                    self.parse_step(root)?
                } else {
                    return Ok(root);
                }
            }
            Some(Token::DoubleSlash) => {
                self.pos += 1;
                let root = Expr::FunCall {
                    name: "root".into(),
                    args: vec![Expr::ContextItem],
                };
                self.parse_step_with_axis(root, Axis::Descendant)?
            }
            _ => self.parse_step_or_primary()?,
        };
        loop {
            match self.peek() {
                Some(Token::Slash) => {
                    self.pos += 1;
                    let step = self.parse_step(current)?;
                    current = self.bounded(step)?;
                }
                Some(Token::DoubleSlash) => {
                    self.pos += 1;
                    let step = self.parse_step_with_axis(current, Axis::Descendant)?;
                    current = self.bounded(step)?;
                }
                _ => break,
            }
        }
        Ok(current)
    }

    fn starts_step(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::Name(_)) | Some(Token::At) | Some(Token::Star) | Some(Token::Dot)
        )
    }

    /// Parse the first step of a relative path: either a primary expression
    /// (function call, literal, variable, parenthesis, constructor) or an
    /// axis step applied to the context item.
    fn parse_step_or_primary(&mut self) -> XqResult<Expr> {
        match self.peek() {
            Some(Token::Name(name)) => {
                let name = name.clone();
                // Explicit axis?
                if Axis::parse(&name).is_some() && self.peek_ahead(1) == Some(&Token::DoubleColon) {
                    return self.parse_step(Expr::ContextItem);
                }
                // Kind tests applied to the context item.
                if matches!(
                    name.as_str(),
                    "text" | "node" | "comment" | "processing-instruction"
                ) && self.peek_ahead(1) == Some(&Token::LParen)
                    && self.peek_ahead(2) == Some(&Token::RParen)
                {
                    return self.parse_step(Expr::ContextItem);
                }
                // Constructors and function calls are primaries.
                if matches!(name.as_str(), "element" | "attribute")
                    && matches!(self.peek_ahead(1), Some(Token::Name(_)))
                {
                    return self.parse_constructor();
                }
                if name == "text" && self.peek_ahead(1) == Some(&Token::LBrace) {
                    return self.parse_constructor();
                }
                if self.peek_ahead(1) == Some(&Token::LParen) {
                    return self.parse_postfix();
                }
                // Otherwise: an abbreviated child step on the context item.
                self.parse_step(Expr::ContextItem)
            }
            Some(Token::At) | Some(Token::Star) => self.parse_step(Expr::ContextItem),
            _ => self.parse_postfix(),
        }
    }

    /// Parse one location step applied to `input` (with optional
    /// predicates), where the axis may be written explicitly.
    fn parse_step(&mut self, input: Expr) -> XqResult<Expr> {
        // Explicit axis?
        if let Some(Token::Name(name)) = self.peek() {
            if let Some(axis) = Axis::parse(name) {
                if self.peek_ahead(1) == Some(&Token::DoubleColon) {
                    self.pos += 2;
                    return self.parse_step_with_axis(input, axis);
                }
            }
        }
        if self.peek() == Some(&Token::At) {
            self.pos += 1;
            return self.parse_step_with_axis(input, Axis::Attribute);
        }
        if self.peek() == Some(&Token::Dot) {
            self.pos += 1;
            return self.finish_predicates(input);
        }
        self.parse_step_with_axis(input, Axis::Child)
    }

    fn parse_step_with_axis(&mut self, input: Expr, axis: Axis) -> XqResult<Expr> {
        let test = self.parse_node_test(axis)?;
        let step = Expr::PathStep {
            input: Box::new(input),
            axis,
            test,
        };
        self.finish_predicates(step)
    }

    fn parse_node_test(&mut self, axis: Axis) -> XqResult<NodeTest> {
        match self.advance() {
            Some(Token::Star) => Ok(if axis == Axis::Attribute {
                NodeTest::AnyAttribute
            } else {
                NodeTest::AnyElement
            }),
            Some(Token::At) => {
                // attribute::@name — tolerate the redundant @.
                let name = self.expect_name()?;
                Ok(NodeTest::Attribute(name))
            }
            Some(Token::Name(name)) => {
                if self.peek() == Some(&Token::LParen) {
                    // Kind test.
                    self.pos += 1;
                    self.expect(&Token::RParen)?;
                    return match name.as_str() {
                        "text" => Ok(NodeTest::Text),
                        "node" => Ok(NodeTest::AnyNode),
                        "comment" => Ok(NodeTest::Comment),
                        "processing-instruction" => Ok(NodeTest::Pi),
                        other => Err(self.error(format!("unknown kind test `{other}()`"))),
                    };
                }
                Ok(if axis == Axis::Attribute {
                    NodeTest::Attribute(name)
                } else {
                    NodeTest::Element(name)
                })
            }
            other => Err(self.error(format!("expected a node test, found {other:?}"))),
        }
    }

    fn finish_predicates(&mut self, mut expr: Expr) -> XqResult<Expr> {
        while self.peek() == Some(&Token::LBracket) {
            self.pos += 1;
            let pred = self.parse_expr()?;
            self.expect(&Token::RBracket)?;
            expr = self.bounded(Expr::Filter {
                input: Box::new(expr),
                pred: Box::new(pred),
            })?;
        }
        Ok(expr)
    }

    fn parse_postfix(&mut self) -> XqResult<Expr> {
        let primary = self.parse_primary()?;
        self.finish_predicates(primary)
    }

    fn parse_constructor(&mut self) -> XqResult<Expr> {
        let kind = self.expect_name()?;
        match kind.as_str() {
            "element" => {
                let tag = self.expect_name()?;
                let content = self.parse_enclosed_content()?;
                Ok(Expr::ElemConstr { tag, content })
            }
            "attribute" => {
                let name = self.expect_name()?;
                let value = self.parse_enclosed_content()?;
                Ok(Expr::AttrConstr { name, value })
            }
            "text" => {
                let content = self.parse_enclosed_content()?;
                Ok(Expr::TextConstr(content))
            }
            other => Err(self.error(format!("unknown constructor `{other}`"))),
        }
    }

    fn parse_enclosed_content(&mut self) -> XqResult<Vec<Expr>> {
        self.expect(&Token::LBrace)?;
        if self.peek() == Some(&Token::RBrace) {
            self.pos += 1;
            return Ok(vec![]);
        }
        let mut items = vec![self.parse_expr_single()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            items.push(self.parse_expr_single()?);
        }
        self.expect(&Token::RBrace)?;
        Ok(items)
    }

    fn parse_primary(&mut self) -> XqResult<Expr> {
        match self.advance() {
            Some(Token::Integer(i)) => Ok(Expr::IntLit(i)),
            Some(Token::Decimal(d)) => Ok(Expr::DecLit(d)),
            Some(Token::StringLit(s)) => Ok(Expr::StrLit(s)),
            Some(Token::Variable(v)) => Ok(Expr::Var(v)),
            Some(Token::Dot) => Ok(Expr::ContextItem),
            Some(Token::LParen) => {
                if self.peek() == Some(&Token::RParen) {
                    self.pos += 1;
                    return Ok(Expr::EmptySeq);
                }
                let inner = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Name(name)) => {
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        args.push(self.parse_expr_single()?);
                        while self.peek() == Some(&Token::Comma) {
                            self.pos += 1;
                            args.push(self.parse_expr_single()?);
                        }
                    }
                    self.expect(&Token::RParen)?;
                    // Strip the fn:/fs: prefixes for the built-in library.
                    let bare = name
                        .strip_prefix("fn:")
                        .or_else(|| name.strip_prefix("fs:"))
                        .unwrap_or(&name)
                        .to_string();
                    Ok(Expr::FunCall { name: bare, args })
                } else {
                    Err(self.error(format!("unexpected name `{name}` in expression position")))
                }
            }
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure3_query() {
        // The paper's Figure 3 example.
        let e = parse_query("for $v in (10,20), $w in (100,200) return $v + $w").unwrap();
        let Expr::For { var, seq, body, .. } = e else {
            panic!("expected for");
        };
        assert_eq!(var, "v");
        assert!(matches!(*seq, Expr::Sequence(_)));
        assert!(matches!(*body, Expr::For { .. }));
    }

    #[test]
    fn parses_let_and_arithmetic_precedence() {
        let e = parse_query("let $x := 1 + 2 * 3 return $x").unwrap();
        let Expr::Let { value, .. } = e else { panic!() };
        // 1 + (2 * 3)
        let Expr::BinOp {
            op: BinOpKind::Add,
            right,
            ..
        } = *value
        else {
            panic!("expected +");
        };
        assert!(matches!(
            *right,
            Expr::BinOp {
                op: BinOpKind::Mul,
                ..
            }
        ));
    }

    #[test]
    fn parses_paths_with_predicates_and_attributes() {
        let e = parse_query("doc(\"auction.xml\")//person[@id = \"p0\"]/name/text()").unwrap();
        // Outermost is the text() step.
        let Expr::PathStep {
            test: NodeTest::Text,
            input,
            ..
        } = e
        else {
            panic!("expected text() step, got {e:?}");
        };
        let Expr::PathStep {
            test: NodeTest::Element(name),
            input,
            ..
        } = *input
        else {
            panic!("expected name step");
        };
        assert_eq!(name, "name");
        assert!(matches!(*input, Expr::Filter { .. }));
    }

    #[test]
    fn parses_explicit_axes() {
        let e = parse_query("$a/descendant::item/ancestor::site").unwrap();
        let Expr::PathStep {
            axis: Axis::Ancestor,
            input,
            ..
        } = e
        else {
            panic!()
        };
        assert!(matches!(
            *input,
            Expr::PathStep {
                axis: Axis::Descendant,
                ..
            }
        ));
    }

    #[test]
    fn parses_flwor_with_where_and_order_by() {
        let e = parse_query(
            "for $p in doc(\"a.xml\")//person where $p/@id = \"p1\" order by $p/name descending return $p",
        )
        .unwrap();
        let Expr::For {
            where_clause,
            order_by,
            ..
        } = e
        else {
            panic!()
        };
        assert!(where_clause.is_some());
        assert_eq!(order_by.len(), 1);
        assert!(order_by[0].descending);
    }

    #[test]
    fn parses_if_and_boolean_connectives() {
        let e = parse_query("if ($a = 1 and $b = 2 or $c) then \"x\" else ()").unwrap();
        let Expr::If {
            cond, else_branch, ..
        } = e
        else {
            panic!()
        };
        assert!(matches!(
            *cond,
            Expr::BinOp {
                op: BinOpKind::Or,
                ..
            }
        ));
        assert!(matches!(*else_branch, Expr::EmptySeq));
    }

    #[test]
    fn parses_constructors() {
        let e = parse_query("element result { attribute n { 1 }, text { \"hi\" }, $x }").unwrap();
        let Expr::ElemConstr { tag, content } = e else {
            panic!()
        };
        assert_eq!(tag, "result");
        assert_eq!(content.len(), 3);
        assert!(matches!(content[0], Expr::AttrConstr { .. }));
        assert!(matches!(content[1], Expr::TextConstr(_)));
    }

    #[test]
    fn parses_functions_with_prefixes() {
        let e = parse_query("fn:count(fs:distinct-doc-order($x//item))").unwrap();
        let Expr::FunCall { name, args } = e else {
            panic!()
        };
        assert_eq!(name, "count");
        assert!(matches!(&args[0], Expr::FunCall { name, .. } if name == "distinct-doc-order"));
    }

    #[test]
    fn parses_node_identity_and_document_order() {
        let e = parse_query("$a is $b").unwrap();
        assert!(matches!(
            e,
            Expr::BinOp {
                op: BinOpKind::Is,
                ..
            }
        ));
        let e = parse_query("$a << $b").unwrap();
        assert!(matches!(
            e,
            Expr::BinOp {
                op: BinOpKind::Before,
                ..
            }
        ));
    }

    #[test]
    fn parses_quantified_expression() {
        let e = parse_query("some $x in $items satisfies $x = 3").unwrap();
        assert!(matches!(e, Expr::Some { .. }));
    }

    #[test]
    fn parses_top_level_sequences_and_empty() {
        assert!(matches!(parse_query("(1, 2, 3)").unwrap(), Expr::Sequence(v) if v.len() == 3));
        assert!(matches!(parse_query("()").unwrap(), Expr::EmptySeq));
        assert!(matches!(parse_query("1, 2").unwrap(), Expr::Sequence(_)));
    }

    #[test]
    fn parses_positional_variable() {
        let e = parse_query("for $x at $i in $s return $i").unwrap();
        let Expr::For { pos_var, .. } = e else {
            panic!()
        };
        assert_eq!(pos_var.as_deref(), Some("i"));
    }

    #[test]
    fn parses_wildcard_and_leading_slash() {
        let e = parse_query("$a/*").unwrap();
        assert!(matches!(
            e,
            Expr::PathStep {
                test: NodeTest::AnyElement,
                ..
            }
        ));
        let e = parse_query("$a//text()").unwrap();
        assert!(matches!(
            e,
            Expr::PathStep {
                axis: Axis::Descendant,
                test: NodeTest::Text,
                ..
            }
        ));
    }

    #[test]
    fn reports_syntax_errors() {
        assert!(parse_query("for $x in").is_err());
        assert!(parse_query("1 +").is_err());
        assert!(parse_query("if (1) then 2").is_err());
        assert!(parse_query("let $x = 1 return $x").is_err());
        assert!(parse_query("element { 1 }").is_err());
        assert!(parse_query("1 2").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_recursion_and_by_tree_height() {
        let parens = |d: usize| format!("{}1{}", "(".repeat(d), ")".repeat(d));
        let chain = |d: usize| format!("1{}", " + 1".repeat(d));
        // One parse level per parenthesis, below the top-level expression.
        assert!(parse_query(&parens(MAX_NESTING_DEPTH - 1)).is_ok());
        // A chain nests without recursing: n operators, height n + 1.
        assert_eq!(
            parse_query(&chain(MAX_NESTING_DEPTH - 1)).unwrap().height(),
            MAX_NESTING_DEPTH
        );
        for too_deep in [parens(MAX_NESTING_DEPTH), chain(MAX_NESTING_DEPTH)] {
            let err = parse_query(&too_deep).unwrap_err();
            assert!(err.to_string().contains("nested more than"), "{err}");
        }
    }

    #[test]
    fn negative_numbers_and_unary_plus() {
        let e = parse_query("-3 + +4").unwrap();
        assert!(matches!(
            e,
            Expr::BinOp {
                op: BinOpKind::Add,
                ..
            }
        ));
    }
}

//! Recursive-descent parser for the mini-LOTOS textual syntax.
//!
//! # Grammar
//!
//! ```text
//! spec        := item* ("behaviour" | "behavior") behaviour "endspec"?
//! item        := "type" IDENT "is" IDENT ("," IDENT)* "endtype"
//!              | "process" IDENT gates? params? ":=" behaviour "endproc"
//! gates       := "[" IDENT ("," IDENT)* "]"
//! params      := "(" param ("," param)* ")"
//! param       := IDENT ":" type
//! type        := "bool" | "int" int ".." int | IDENT        -- IDENT: enum
//!
//! behaviour   := disable (">>" ("accept" param ("," param)* "in")? behaviour)?
//! disable     := parallel ("[>" parallel)*
//! parallel    := choice (("|||" | "||" | "|[" IDENT,* "]|") choice)*
//! choice      := prefix ("[]" prefix)*
//! prefix      := "stop"
//!              | "exit" ("(" expr ("," expr)* ")")?
//!              | "hide" IDENT ("," IDENT)* "in" behaviour
//!              | "rename" IDENT "->" IDENT ("," IDENT "->" IDENT)* "in" behaviour
//!              | "let" letbind ("," letbind)* "in" behaviour
//!              | "choice" IDENT ":" type "[]" behaviour   -- value choice
//!              | "[" expr "]" "->" prefix
//!              | "(" behaviour ")"
//!              | IDENT offer* ";" prefix                     -- action prefix
//!              | IDENT gates? args?                          -- process call
//! offer       := "!" atom | "?" IDENT ":" type
//! letbind     := IDENT ":" type "=" expr
//! ```
//!
//! Operator precedence, loosest to tightest: `>>`, `[>`, parallel, `[]`,
//! prefix. `hide`/`rename`/`let` bodies extend maximally (parenthesize to
//! restrict). Expressions use conventional precedence (`or` < `and` < `not`
//! < comparisons < `+ -` < `* div mod` < unary `-`).
//!
//! Nesting is capped at [`MAX_DEPTH`] levels: each parenthesis, prefix,
//! operator body and unary operator counts one, and a left-folded operator
//! chain counts one per operator above the operands it pushes down, so the
//! cap bounds the finished tree and not just the parser's recursion (a
//! parenthesized chain as the first operand of another chain is charged
//! for the outer chain's length). A value choice counts like the `[]`
//! chain it unfolds into. Parsing, and every later recursive walk over the
//! term (validation, exploration, lint, `Display`, drop), then fits the
//! 2 MiB stack of a spawned thread.

use crate::expr::{BinOp, Expr, UnOp};
use crate::lexer::{lex, LexError, Spanned, Tok};
use crate::spec::{ProcDef, Spec};
use crate::term::{Action, Offer, SyncKind, Term};
use crate::value::{sym, EnumDef, Sym, Type};
use std::fmt;
use std::sync::Arc;

/// Parsing error with a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { line: e.line, message: e.message }
    }
}

/// Deepest nesting a specification may have (see the module docs for what
/// counts as a level). Real models sit well below it: the committed
/// examples nest at most 29 levels (`mesh_3x3.lot`), the generated FAUST
/// meshes 51 (4×4), 83 (5×5) and 123 (6×6), and generated xMAS fabrics at
/// most 53 (seeds 0..64 at 20 growth steps). Every test shape at the cap
/// parses, explores, lints, prints and drops within 512 KiB of stack in a
/// debug build.
pub const MAX_DEPTH: usize = 200;

/// Parses a complete specification.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors; the result is additionally run
/// through [`Spec::validate`] so undefined processes and unbound variables
/// are reported at parse time.
///
/// # Examples
///
/// ```
/// use multival_pa::parser::parse_spec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = parse_spec(
///     "process Buf[put, get](x: int 0..1, full: bool) :=
///          [not full] -> put ?v:int 0..1; Buf[put, get](v, true)
///       [] [full]     -> get !x;          Buf[put, get](x, false)
///      endproc
///      behaviour Buf[a, b](0, false)",
/// )?;
/// assert!(spec.process("Buf").is_some());
/// # Ok(())
/// # }
/// ```
pub fn parse_spec(src: &str) -> Result<Spec, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, peak: 0, spec: Spec::new() };
    p.spec()?;
    let spec = p.spec;
    spec.validate().map_err(|e| ParseError { line: 0, message: e.0 })?;
    Ok(spec)
}

/// Parses a standalone behaviour expression against an existing spec's
/// type/process tables (useful for tests and interactive exploration).
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors.
pub fn parse_behaviour(src: &str, spec: &Spec) -> Result<Arc<Term>, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, peak: 0, spec: spec.clone() };
    let b = p.behaviour()?;
    p.expect_eof()?;
    Ok(b)
}

/// A parsing rule of [`Parser`].
type Rule<T> = fn(&mut Parser) -> Result<T, ParseError>;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Current nesting depth, at most [`MAX_DEPTH`].
    depth: usize,
    /// Deepest level reached since the innermost open [`Parser::chain`]
    /// (or value choice) started its current operand.
    peak: usize,
    spec: Spec,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { line: self.line(), message }
    }

    fn too_deep(&self) -> ParseError {
        self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    /// Runs `rule` one nesting level deeper, or fails past [`MAX_DEPTH`].
    fn nest<T>(&mut self, rule: Rule<T>) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        let out = rule(self);
        self.depth -= 1;
        out
    }

    /// Parses `first (op rest)*`, folded to the left. Each fold pushes the
    /// tree built so far one level down, so the deepest level the chain
    /// reaches is tracked through the fold and held to [`MAX_DEPTH`].
    fn chain<T, K>(
        &mut self,
        first: Rule<T>,
        op: Rule<Option<K>>,
        rest: Rule<T>,
        fold: fn(K, T, T) -> T,
    ) -> Result<T, ParseError> {
        let outer = self.peak;
        self.peak = self.depth;
        let mut acc = first(self)?;
        let mut reach = self.peak;
        while let Some(k) = op(self)? {
            self.peak = self.depth;
            let rhs = self.nest(rest)?;
            reach = (reach + 1).max(self.peak);
            if reach > MAX_DEPTH {
                return Err(self.too_deep());
            }
            acc = fold(k, acc, rhs);
        }
        self.peak = outer.max(reach);
        Ok(acc)
    }

    fn ident(&mut self) -> Result<Sym, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(sym(&s)),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("unexpected {} after behaviour", self.peek())))
        }
    }

    // ---- top level --------------------------------------------------------

    fn spec(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Tok::Kw("type") => self.typedecl()?,
                Tok::Kw("process") => self.procdecl()?,
                Tok::Kw("behaviour") | Tok::Kw("behavior") => {
                    self.bump();
                    let top = self.behaviour()?;
                    self.eat(&Tok::Kw("endspec"));
                    self.expect_eof()?;
                    self.spec.set_top(top);
                    return Ok(());
                }
                Tok::Eof => {
                    // Specification without a top behaviour is allowed (a
                    // library of processes); callers set the top explicitly.
                    return Ok(());
                }
                other => {
                    return Err(self
                        .err(format!("expected `type`, `process` or `behaviour`, found {other}")))
                }
            }
        }
    }

    fn typedecl(&mut self) -> Result<(), ParseError> {
        self.expect(&Tok::Kw("type"))?;
        let name = self.ident()?;
        self.expect(&Tok::Kw("is"))?;
        let mut variants = vec![self.ident()?];
        while self.eat(&Tok::Comma) {
            variants.push(self.ident()?);
        }
        self.expect(&Tok::Kw("endtype"))?;
        self.spec.add_type(EnumDef { name, variants });
        Ok(())
    }

    fn procdecl(&mut self) -> Result<(), ParseError> {
        self.expect(&Tok::Kw("process"))?;
        let name = self.ident()?;
        let mut gates = Vec::new();
        if self.eat(&Tok::LBrack) {
            gates.push(self.ident()?);
            while self.eat(&Tok::Comma) {
                gates.push(self.ident()?);
            }
            self.expect(&Tok::RBrack)?;
        }
        let mut params = Vec::new();
        if self.eat(&Tok::LParen) {
            params.push(self.param()?);
            while self.eat(&Tok::Comma) {
                params.push(self.param()?);
            }
            self.expect(&Tok::RParen)?;
        }
        self.expect(&Tok::Define)?;
        let body = self.behaviour()?;
        self.expect(&Tok::Kw("endproc"))?;
        self.spec.add_process(ProcDef { name, gates, params, body });
        Ok(())
    }

    fn param(&mut self) -> Result<(Sym, Type), ParseError> {
        let name = self.ident()?;
        self.expect(&Tok::Colon)?;
        let ty = self.ty()?;
        Ok((name, ty))
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        match self.bump() {
            Tok::Kw("bool") => Ok(Type::Bool),
            Tok::Kw("int") => {
                let lo = self.int_lit()?;
                self.expect(&Tok::DotDot)?;
                let hi = self.int_lit()?;
                if lo > hi {
                    return Err(self.err(format!("empty integer range {lo}..{hi}")));
                }
                Ok(Type::Int(lo, hi))
            }
            Tok::Ident(name) => match self.spec.enum_type(&name) {
                Some(def) => Ok(Type::Enum(def.clone())),
                None => Err(self.err(format!("unknown type `{name}` (declare it with `type`)"))),
            },
            other => Err(self.err(format!("expected a type, found {other}"))),
        }
    }

    fn int_lit(&mut self) -> Result<i64, ParseError> {
        let neg = self.eat(&Tok::Minus);
        match self.bump() {
            Tok::Int(i) => Ok(if neg { -i } else { i }),
            other => Err(self.err(format!("expected integer, found {other}"))),
        }
    }

    // ---- behaviours -------------------------------------------------------

    fn behaviour(&mut self) -> Result<Arc<Term>, ParseError> {
        // Right associative: `rest` takes every later `>>`.
        self.chain(Self::disable, Self::enable_op, Self::behaviour, |binders, l, r| {
            Term::Enable(l, binders, r).rc()
        })
    }

    fn enable_op(&mut self) -> Result<Option<Vec<(Sym, Type)>>, ParseError> {
        if !self.eat(&Tok::Enable) {
            return Ok(None);
        }
        let mut binders = Vec::new();
        if self.eat(&Tok::Kw("accept")) {
            binders.push(self.param()?);
            while self.eat(&Tok::Comma) {
                binders.push(self.param()?);
            }
            self.expect(&Tok::Kw("in"))?;
        }
        Ok(Some(binders))
    }

    fn disable(&mut self) -> Result<Arc<Term>, ParseError> {
        let op = |p: &mut Self| Ok(p.eat(&Tok::DisableOp).then_some(()));
        self.chain(Self::parallel, op, Self::parallel, |(), l, r| Term::Disable(l, r).rc())
    }

    fn parallel(&mut self) -> Result<Arc<Term>, ParseError> {
        self.chain(Self::choice, Self::par_op, Self::choice, |kind, l, r| {
            Term::Par(kind, l, r).rc()
        })
    }

    fn par_op(&mut self) -> Result<Option<SyncKind>, ParseError> {
        let kind = match self.peek() {
            Tok::Interleave => SyncKind::Interleave,
            Tok::FullSync => SyncKind::Full,
            Tok::LBrackBar => {
                self.bump();
                let mut gates = vec![self.ident()?];
                while self.eat(&Tok::Comma) {
                    gates.push(self.ident()?);
                }
                self.expect(&Tok::RBrackBar)?;
                return Ok(Some(SyncKind::gates(gates.iter().map(|g| &**g))));
            }
            _ => return Ok(None),
        };
        self.bump();
        Ok(Some(kind))
    }

    fn choice(&mut self) -> Result<Arc<Term>, ParseError> {
        let op = |p: &mut Self| Ok(p.eat(&Tok::ChoiceOp).then_some(()));
        self.chain(Self::prefix, op, Self::prefix, |(), l, r| Term::Choice(l, r).rc())
    }

    fn prefix(&mut self) -> Result<Arc<Term>, ParseError> {
        // Each form is parsed by its own function, so the recursion through
        // `prefix` carries one small frame per nesting level rather than the
        // locals of every form (unoptimized builds do not overlap them).
        match self.peek() {
            Tok::Kw("stop") => {
                self.bump();
                Ok(Term::Stop.rc())
            }
            Tok::Kw("exit") => self.exit(),
            Tok::Kw("hide") => self.hide(),
            Tok::Kw("rename") => self.rename(),
            Tok::Kw("choice") => self.value_choice(),
            Tok::Kw("let") => self.let_in(),
            Tok::LBrack => self.guard(),
            Tok::LParen => {
                self.bump();
                let b = self.nest(Self::behaviour)?;
                self.expect(&Tok::RParen)?;
                Ok(b)
            }
            Tok::Ident(_) => self.action_or_call(),
            other => Err(self.err(format!("expected a behaviour, found {other}"))),
        }
    }

    /// `exit` with optional result values.
    fn exit(&mut self) -> Result<Arc<Term>, ParseError> {
        self.bump();
        let mut args = Vec::new();
        if self.eat(&Tok::LParen) {
            args.push(self.expr()?);
            while self.eat(&Tok::Comma) {
                args.push(self.expr()?);
            }
            self.expect(&Tok::RParen)?;
        }
        Ok(Term::Exit(args).rc())
    }

    /// `hide G, ... in B`.
    fn hide(&mut self) -> Result<Arc<Term>, ParseError> {
        self.bump();
        let mut gates = vec![self.ident()?];
        while self.eat(&Tok::Comma) {
            gates.push(self.ident()?);
        }
        self.expect(&Tok::Kw("in"))?;
        let body = self.nest(Self::behaviour)?;
        Ok(Term::Hide(gates.into(), body).rc())
    }

    /// `rename G -> H, ... in B`.
    fn rename(&mut self) -> Result<Arc<Term>, ParseError> {
        self.bump();
        let mut map = Vec::new();
        loop {
            let from = self.ident()?;
            self.expect(&Tok::Arrow)?;
            let to = self.ident()?;
            map.push((from, to));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::Kw("in"))?;
        let body = self.nest(Self::behaviour)?;
        Ok(Term::Rename(map.into(), body).rc())
    }

    /// Value choice: `choice x:T [] B` desugars into the finite `[]`-sum
    /// of B[x:=v] over all values v of T.
    fn value_choice(&mut self) -> Result<Arc<Term>, ParseError> {
        self.bump();
        let x = self.ident()?;
        self.expect(&Tok::Colon)?;
        let ty = self.ty()?;
        self.expect(&Tok::ChoiceOp)?;
        let outer = self.peak;
        self.peak = self.depth;
        let body = self.nest(Self::behaviour)?;
        // The sum is a left-folded `[]` chain of one copy of the body per
        // value: the first two copies sit one level lower per value past
        // the second.
        let reach = self.peak.saturating_add(ty.cardinality().saturating_sub(2));
        if reach > MAX_DEPTH {
            return Err(self.err(format!(
                "value choice over {} values nests deeper than {MAX_DEPTH} levels",
                ty.cardinality()
            )));
        }
        self.peak = outer.max(reach);
        let values = ty.values();
        if values.is_empty() {
            return Ok(Term::Stop.rc());
        }
        let mut alts = values.into_iter().map(|v| {
            let mut env = std::collections::HashMap::new();
            env.insert(x.clone(), v);
            body.subst_vars(&env)
        });
        let first = alts.next().expect("nonempty");
        Ok(alts.fold(first, |acc, alt| Term::Choice(acc, alt).rc()))
    }

    /// `let x: T = e, ... in B`.
    fn let_in(&mut self) -> Result<Arc<Term>, ParseError> {
        self.bump();
        let mut binds = Vec::new();
        loop {
            let name = self.ident()?;
            self.expect(&Tok::Colon)?;
            let ty = self.ty()?;
            self.expect(&Tok::EqEq)?;
            let e = self.expr()?;
            binds.push((name, ty, e));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::Kw("in"))?;
        let body = self.nest(Self::behaviour)?;
        Ok(Term::Let(binds, body).rc())
    }

    /// Guard: `[expr] -> prefix`.
    fn guard(&mut self) -> Result<Arc<Term>, ParseError> {
        self.bump();
        let e = self.expr()?;
        self.expect(&Tok::RBrack)?;
        self.expect(&Tok::Arrow)?;
        let body = self.nest(Self::prefix)?;
        Ok(Term::Guard(e, body).rc())
    }

    /// An action prefix `g offers; B` or a process call `P[gates](args)`.
    fn action_or_call(&mut self) -> Result<Arc<Term>, ParseError> {
        let Tok::Ident(name) = self.bump() else { unreachable!("called on an identifier") };
        // Offers → action prefix; otherwise a process call.
        let mut offers = Vec::new();
        loop {
            match self.peek() {
                Tok::Bang => {
                    self.bump();
                    offers.push(Offer::Send(self.atom()?));
                }
                Tok::Quest => {
                    self.bump();
                    let x = self.ident()?;
                    self.expect(&Tok::Colon)?;
                    let ty = self.ty()?;
                    offers.push(Offer::Recv(x, ty));
                }
                _ => break,
            }
        }
        if !offers.is_empty() || matches!(self.peek(), Tok::Semi) {
            self.expect(&Tok::Semi)?;
            let cont = self.nest(Self::prefix)?;
            return Ok(Term::Prefix(Action { gate: sym(&name), offers }, cont).rc());
        }
        // Process call.
        let mut gates = Vec::new();
        if self.eat(&Tok::LBrack) {
            gates.push(self.ident()?);
            while self.eat(&Tok::Comma) {
                gates.push(self.ident()?);
            }
            self.expect(&Tok::RBrack)?;
        }
        let mut args = Vec::new();
        if self.eat(&Tok::LParen) {
            args.push(self.expr()?);
            while self.eat(&Tok::Comma) {
                args.push(self.expr()?);
            }
            self.expect(&Tok::RParen)?;
        }
        Ok(Term::Call(sym(&name), gates, args).rc())
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let op = |p: &mut Self| Ok(p.eat(&Tok::Kw("or")).then_some(BinOp::Or));
        self.chain(Self::and_expr, op, Self::and_expr, Expr::bin)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let op = |p: &mut Self| Ok(p.eat(&Tok::Kw("and")).then_some(BinOp::And));
        self.chain(Self::not_expr, op, Self::not_expr, Expr::bin)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Kw("not")) {
            let e = self.nest(Self::not_expr)?;
            return Ok(Expr::Un(UnOp::Not, Box::new(e)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::EqEq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let op = |p: &mut Self| {
            let op = match p.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(None),
            };
            p.bump();
            Ok(Some(op))
        };
        self.chain(Self::mul_expr, op, Self::mul_expr, Expr::bin)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let op = |p: &mut Self| {
            let op = match p.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Kw("div") => BinOp::Div,
                Tok::Kw("mod") => BinOp::Mod,
                _ => return Ok(None),
            };
            p.bump();
            Ok(Some(op))
        };
        self.chain(Self::unary_expr, op, Self::unary_expr, Expr::bin)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Minus) {
            let e = self.nest(Self::unary_expr)?;
            return Ok(Expr::Un(UnOp::Neg, Box::new(e)));
        }
        self.atom()
    }

    /// An atomic expression. Also used for `!` offers, so that `g !x !1` has
    /// unambiguous offer boundaries; write `!(a + b)` for compound offers.
    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Int(i) => Ok(Expr::int(i)),
            Tok::Kw("true") => Ok(Expr::bool(true)),
            Tok::Kw("false") => Ok(Expr::bool(false)),
            Tok::Ident(name) => Ok(Expr::Var(sym(&name))),
            Tok::LParen => {
                let e = self.nest(Self::expr)?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Kw("if") => {
                let c = self.nest(Self::expr)?;
                self.expect(&Tok::Kw("then"))?;
                let a = self.nest(Self::expr)?;
                self.expect(&Tok::Kw("else"))?;
                let b = self.nest(Self::expr)?;
                Ok(Expr::Ite(Box::new(c), Box::new(a), Box::new(b)))
            }
            other => Err(self.err(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, ExploreOptions};

    #[test]
    fn parses_buffer_and_explores() {
        let spec = parse_spec(
            "process Buf[put, get](full: bool) :=
                 [not full] -> put; Buf[put, get](true)
              [] [full] -> get; Buf[put, get](false)
             endproc
             behaviour Buf[p, g](false)",
        )
        .expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_states(), 2);
        assert_eq!(e.lts.num_transitions(), 2);
    }

    #[test]
    fn parses_enum_types() {
        let spec = parse_spec(
            "type msi is I, S, M endtype
             process Cache[req](st: msi) :=
                 [st == I] -> req !S; Cache[req](S)
              [] [st == S] -> req !M; Cache[req](M)
             endproc
             behaviour Cache[r](I)",
        )
        .expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_states(), 3);
        let labels: Vec<String> =
            e.lts.iter_transitions().map(|(_, l, _)| e.lts.labels().name(l).to_owned()).collect();
        // Gate `req` was instantiated as `r` at the top behaviour.
        assert!(labels.contains(&"r !S".to_owned()), "labels: {labels:?}");
    }

    #[test]
    fn parses_parallel_and_hide() {
        let spec = parse_spec(
            "behaviour hide mid in
               (a; mid; stop |[mid]| mid; b; stop)",
        )
        .expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        // a; tau; b; stop — 4 states.
        assert_eq!(e.lts.num_states(), 4);
        assert!(e.lts.iter_transitions().any(|(_, l, _)| l.is_tau()));
    }

    #[test]
    fn parses_data_offers() {
        let spec = parse_spec("behaviour ch ?x:int 0..2 !x; stop").expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_transitions(), 3);
    }

    #[test]
    fn parses_enable_and_accept() {
        let spec = parse_spec("behaviour (a; exit(3)) >> accept n:int 0..9 in b !n; stop")
            .expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        let labels: Vec<String> =
            e.lts.iter_transitions().map(|(_, l, _)| e.lts.labels().name(l).to_owned()).collect();
        assert!(labels.contains(&"b !3".to_owned()));
    }

    #[test]
    fn parses_disable() {
        let spec = parse_spec("behaviour (a; stop) [> (kill; stop)").expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        let labels: Vec<String> =
            e.lts.iter_transitions().map(|(_, l, _)| e.lts.labels().name(l).to_owned()).collect();
        assert!(labels.contains(&"kill".to_owned()));
    }

    #[test]
    fn parses_let_and_rename() {
        let spec = parse_spec(
            "behaviour let n:int 0..9 = 4 in
               rename g -> h in g !n; stop",
        )
        .expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        let labels: Vec<String> =
            e.lts.iter_transitions().map(|(_, l, _)| e.lts.labels().name(l).to_owned()).collect();
        assert_eq!(labels, vec!["h !4"]);
    }

    #[test]
    fn reports_unknown_type() {
        let err = parse_spec("behaviour g ?x:color; stop").expect_err("unknown type");
        assert!(err.message.contains("unknown type"));
    }

    #[test]
    fn reports_undefined_process_at_parse_time() {
        let err = parse_spec("behaviour Ghost[g]").expect_err("undefined process");
        assert!(err.message.contains("undefined process"));
    }

    #[test]
    fn reports_syntax_error_with_line() {
        let err = parse_spec("behaviour\n  a; ; stop").expect_err("syntax");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn precedence_choice_binds_tighter_than_par() {
        // a; stop [] b; stop ||| c; stop ≡ (a;stop [] b;stop) ||| (c;stop)
        let spec = parse_spec("behaviour a; stop [] b; stop ||| c; stop").expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        // Initial state must offer a, b, and c.
        assert_eq!(e.lts.transitions_from(0).len(), 3);
    }

    #[test]
    fn library_spec_without_top() {
        let spec = parse_spec("process P[g] := g; P[g] endproc").expect("parses");
        assert!(spec.try_top().is_none());
        assert!(spec.process("P").is_some());
    }

    #[test]
    fn parse_behaviour_against_library() {
        let spec = parse_spec("process P[g] := g; P[g] endproc").expect("parses");
        let b = parse_behaviour("P[tick] ||| P[tock]", &spec).expect("parses");
        let e =
            crate::explorer::explore_term(b, &spec, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_states(), 1);
        assert_eq!(e.lts.num_transitions(), 2);
    }

    #[test]
    fn value_choice_desugars_to_finite_sum() {
        // choice d:int 0..2 [] send !d; stop ≡ the 3-way [] sum.
        let spec = parse_spec("behaviour choice d:int 0..2 [] send !d; stop").expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.transitions_from(0).len(), 3);
        let labels: Vec<String> =
            e.lts.iter_transitions().map(|(_, l, _)| e.lts.labels().name(l).to_owned()).collect();
        assert!(labels.contains(&"send !0".to_owned()));
        assert!(labels.contains(&"send !2".to_owned()));
    }

    #[test]
    fn value_choice_over_enum() {
        let spec = parse_spec(
            "type st is I, S, M endtype
             behaviour choice c:st [] probe !c; stop",
        )
        .expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.transitions_from(0).len(), 3);
    }

    #[test]
    fn value_choice_binds_like_recv() {
        // Equivalent to g ?d:int 0..1; use !d; stop.
        let a = parse_spec("behaviour choice d:int 0..1 [] g !d; use !d; stop").expect("parses");
        let b = parse_spec("behaviour g ?d:int 0..1; use !d; stop").expect("parses");
        let la = explore(&a, &ExploreOptions::default()).expect("explores").lts;
        let lb = explore(&b, &ExploreOptions::default()).expect("explores").lts;
        // Same labels reachable (`g !v` then `use !v`), same sizes.
        assert_eq!(la.num_transitions(), lb.num_transitions());
    }

    #[test]
    fn guard_chains_with_arith() {
        let spec = parse_spec("behaviour [1 + 2 * 3 == 7] -> ok; stop").expect("parses");
        let e = explore(&spec, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_transitions(), 1);
    }

    /// Specs nesting exactly `k` levels, one per construct that nests.
    fn nested_specs(k: usize) -> Vec<(&'static str, String)> {
        let chain = |first: &str, op: &str, rest: &str| {
            format!("behaviour {first}{}", format!(" {op} {rest}").repeat(k - 1))
        };
        // A chain inside the first operand of a chain, `n` times over.
        let n = (k - 1) / 2;
        let nested = format!(
            "behaviour {}{}a; stop{}",
            if k.is_multiple_of(2) { "a; " } else { "" },
            "(".repeat(n),
            " [] a; stop)".repeat(n)
        );
        vec![
            ("prefix", format!("process P[a] := {}stop endproc behaviour P[a]", "a; ".repeat(k))),
            ("parens", format!("behaviour {}a; stop{}", "(".repeat(k - 1), ")".repeat(k - 1))),
            ("hide", format!("behaviour {}a; stop", "hide a in ".repeat(k - 1))),
            ("choice", chain("a; stop", "[]", "a; stop")),
            ("parallel", chain("a; stop", "|||", "stop")),
            ("disable", chain("a; stop", "[>", "stop")),
            ("enable", chain("a; exit", ">>", "a; exit")),
            ("nested choice", nested),
            ("not", format!("behaviour [{}true] -> a; stop", "not ".repeat(k))),
            ("sum", format!("behaviour a !({}0); stop", "1 + ".repeat(k - 1))),
            (
                "value choice",
                format!(
                    "behaviour choice x:int 1..{} [] a !x; {}stop",
                    k - k / 2,
                    "a; ".repeat(k / 2)
                ),
            ),
        ]
    }

    #[test]
    fn nesting_is_capped_and_specs_at_the_cap_stay_within_a_small_stack() {
        for (shape, over) in nested_specs(MAX_DEPTH + 1) {
            let err = parse_spec(&over).expect_err(shape);
            assert!(err.message.contains("deeper than"), "{shape}: {err}");
        }
        // Everything a spec at the cap goes through recurses over its
        // nesting; all of it must fit the 2 MiB default of spawned threads.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for (shape, src) in nested_specs(MAX_DEPTH) {
                    let spec = parse_spec(&src).unwrap_or_else(|e| panic!("{shape}: {e}"));
                    let run = explore(&spec, &ExploreOptions::default())
                        .unwrap_or_else(|e| panic!("{shape}: {e}"));
                    assert!(run.lts.num_transitions() > 0, "{shape}");
                    let _ = crate::lint::lint(&spec);
                    let text = spec.process("P").map_or(spec.top(), |p| &p.body).to_string();
                    assert!(!text.is_empty(), "{shape}");
                    drop(run);
                    drop(spec);
                }
            })
            .expect("spawns")
            .join()
            .expect("a spec at the nesting cap fits a 2 MiB stack");
    }
}

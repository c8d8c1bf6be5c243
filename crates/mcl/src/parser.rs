//! Parser for the textual μ-calculus syntax.
//!
//! # Grammar
//!
//! ```text
//! formula  := implies
//! implies  := or ("=>" implies)?                  -- right associative
//! or       := and ("or" and)*
//! and      := unary ("and" unary)*
//! unary    := "not" unary
//!           | "<" action ">" unary | "[" action "]" unary
//!           | "mu" IDENT "." formula | "nu" IDENT "." formula
//!           | "true" | "false" | IDENT | "(" formula ")"
//! action   := aor
//! aor      := aand ("or" aand)*
//! aand     := aunary ("and" aunary)*
//! aunary   := "not" aunary | "true" | STRING | IDENT | "(" action ")"
//! ```
//!
//! `STRING` is a double-quoted glob pattern matched against full label
//! texts (e.g. `"PUSH !*"`); a bare `IDENT` in action position is a pattern
//! without spaces. Variables are capitalized by convention but not by rule.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels: each parenthesis, unary
//! operator, modality and fixpoint body counts one, and a left-folded
//! `and`/`or` chain counts one per operator above the operands it pushes
//! down (an implication `a => b`, read `not a or b`, pushes `a` two), so
//! the cap bounds the finished formula and not just the parser's
//! recursion. Parsing, and every later recursive walk over the formula
//! (checking, `Display`, drop), then fits the 2 MiB stack of a spawned
//! thread.

use crate::formula::{ActionFormula, Formula};
use std::fmt;

/// Deepest nesting a formula may have (see the module docs for what counts
/// as a level). Real properties sit far below it: the formulas written in
/// this repository nest at most 6 levels.
pub const MAX_DEPTH: usize = 200;

/// Formula parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormulaError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseFormulaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "formula parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseFormulaError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Kw(&'static str), // true false not and or mu nu
    Lt,
    Gt,
    LBrack,
    RBrack,
    LParen,
    RParen,
    Dot,
    Implies,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Str(s) => write!(f, "pattern \"{s}\""),
            Tok::Kw(k) => write!(f, "`{k}`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::LBrack => write!(f, "`[`"),
            Tok::RBrack => write!(f, "`]`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Implies => write!(f, "`=>`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseFormulaError> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'"' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(ParseFormulaError {
                        offset: i,
                        message: "unterminated string".into(),
                    });
                }
                out.push((Tok::Str(src[start..j].to_owned()), i));
                i = j + 1;
            }
            '<' => {
                out.push((Tok::Lt, i));
                i += 1;
            }
            '>' => {
                out.push((Tok::Gt, i));
                i += 1;
            }
            '[' => {
                out.push((Tok::LBrack, i));
                i += 1;
            }
            ']' => {
                out.push((Tok::RBrack, i));
                i += 1;
            }
            '(' => {
                out.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, i));
                i += 1;
            }
            '.' => {
                out.push((Tok::Dot, i));
                i += 1;
            }
            '=' if i + 1 < b.len() && b[i + 1] == b'>' => {
                out.push((Tok::Implies, i));
                i += 2;
            }
            _ if c.is_ascii_alphanumeric() || c == '_' => {
                let start = i;
                while i < b.len() {
                    let ch = b[i] as char;
                    if ch.is_ascii_alphanumeric()
                        || ch == '_'
                        || ch == '!'
                        || ch == '*'
                        || ch == '?'
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let w = &src[start..i];
                let tok = match w {
                    "true" | "false" | "not" | "and" | "or" | "mu" | "nu" => Tok::Kw(match w {
                        "true" => "true",
                        "false" => "false",
                        "not" => "not",
                        "and" => "and",
                        "or" => "or",
                        "mu" => "mu",
                        _ => "nu",
                    }),
                    _ => Tok::Ident(w.to_owned()),
                };
                out.push((tok, start));
            }
            '*' | '?' | '!' => {
                // Bare glob fragment (e.g. `*` alone).
                let start = i;
                while i < b.len() {
                    let ch = b[i] as char;
                    if ch.is_ascii_alphanumeric()
                        || ch == '_'
                        || ch == '!'
                        || ch == '*'
                        || ch == '?'
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push((Tok::Ident(src[start..i].to_owned()), start));
            }
            other => {
                return Err(ParseFormulaError {
                    offset: i,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    out.push((Tok::Eof, src.len()));
    Ok(out)
}

/// A parsing rule of [`P`].
type Rule<T> = fn(&mut P) -> Result<T, ParseFormulaError>;

struct P {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// Current nesting depth, at most [`MAX_DEPTH`].
    depth: usize,
    /// Deepest level reached since the innermost open [`P::chain`] started
    /// its current operand.
    peak: usize,
}

impl P {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
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

    fn expect(&mut self, t: &Tok) -> Result<(), ParseFormulaError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseFormulaError {
        ParseFormulaError { offset: self.offset(), message }
    }

    fn too_deep(&self) -> ParseFormulaError {
        self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    /// Runs `rule` one nesting level deeper, or fails past [`MAX_DEPTH`].
    fn nest<T>(&mut self, rule: Rule<T>) -> Result<T, ParseFormulaError> {
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
    /// tree built so far `sink` levels down, so the deepest level the chain
    /// reaches is tracked through the fold and held to [`MAX_DEPTH`].
    fn chain<T>(
        &mut self,
        op: &Tok,
        sink: usize,
        first: Rule<T>,
        rest: Rule<T>,
        fold: fn(T, T) -> T,
    ) -> Result<T, ParseFormulaError> {
        let outer = self.peak;
        self.peak = self.depth;
        let mut acc = first(self)?;
        let mut reach = self.peak;
        while self.eat(op) {
            self.peak = self.depth;
            let rhs = self.nest(rest)?;
            reach = (reach + sink).max(self.peak);
            if reach > MAX_DEPTH {
                return Err(self.too_deep());
            }
            acc = fold(acc, rhs);
        }
        self.peak = outer.max(reach);
        Ok(acc)
    }

    fn formula(&mut self) -> Result<Formula, ParseFormulaError> {
        // Right associative (`rest` takes every later `=>`); a => b ≡ not a or b.
        self.chain(&Tok::Implies, 2, Self::or_formula, Self::formula, |a, b| {
            Formula::Or(Box::new(Formula::Not(Box::new(a))), Box::new(b))
        })
    }

    fn or_formula(&mut self) -> Result<Formula, ParseFormulaError> {
        self.chain(&Tok::Kw("or"), 1, Self::and_formula, Self::and_formula, |a, b| {
            Formula::Or(Box::new(a), Box::new(b))
        })
    }

    fn and_formula(&mut self) -> Result<Formula, ParseFormulaError> {
        self.chain(&Tok::Kw("and"), 1, Self::unary, Self::unary, |a, b| {
            Formula::And(Box::new(a), Box::new(b))
        })
    }

    fn unary(&mut self) -> Result<Formula, ParseFormulaError> {
        match self.bump() {
            Tok::Kw("true") => Ok(Formula::True),
            Tok::Kw("false") => Ok(Formula::False),
            Tok::Kw("not") => Ok(Formula::Not(Box::new(self.nest(Self::unary)?))),
            Tok::Kw("mu") => {
                let x = self.ident()?;
                self.expect(&Tok::Dot)?;
                Ok(Formula::Mu(x, Box::new(self.nest(Self::formula)?)))
            }
            Tok::Kw("nu") => {
                let x = self.ident()?;
                self.expect(&Tok::Dot)?;
                Ok(Formula::Nu(x, Box::new(self.nest(Self::formula)?)))
            }
            Tok::Lt => {
                let af = self.action()?;
                self.expect(&Tok::Gt)?;
                Ok(Formula::Diamond(af, Box::new(self.nest(Self::unary)?)))
            }
            Tok::LBrack => {
                let af = self.action()?;
                self.expect(&Tok::RBrack)?;
                Ok(Formula::Box(af, Box::new(self.nest(Self::unary)?)))
            }
            Tok::LParen => {
                let f = self.nest(Self::formula)?;
                self.expect(&Tok::RParen)?;
                Ok(f)
            }
            Tok::Ident(x) => Ok(Formula::Var(x)),
            other => Err(self.err(format!("expected a formula, found {other}"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseFormulaError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected an identifier, found {other}"))),
        }
    }

    fn action(&mut self) -> Result<ActionFormula, ParseFormulaError> {
        self.chain(&Tok::Kw("or"), 1, Self::action_and, Self::action_and, |a, b| {
            ActionFormula::Or(Box::new(a), Box::new(b))
        })
    }

    fn action_and(&mut self) -> Result<ActionFormula, ParseFormulaError> {
        self.chain(&Tok::Kw("and"), 1, Self::action_unary, Self::action_unary, |a, b| {
            ActionFormula::And(Box::new(a), Box::new(b))
        })
    }

    fn action_unary(&mut self) -> Result<ActionFormula, ParseFormulaError> {
        match self.bump() {
            Tok::Kw("true") => Ok(ActionFormula::Any),
            Tok::Kw("not") => Ok(ActionFormula::Not(Box::new(self.nest(Self::action_unary)?))),
            Tok::Str(p) => Ok(ActionFormula::Pattern(p)),
            Tok::Ident(p) => Ok(ActionFormula::Pattern(p)),
            Tok::LParen => {
                let a = self.nest(Self::action)?;
                self.expect(&Tok::RParen)?;
                Ok(a)
            }
            other => Err(self.err(format!("expected an action formula, found {other}"))),
        }
    }
}

/// Parses a μ-calculus formula.
///
/// # Errors
///
/// Returns [`ParseFormulaError`] on syntax errors.
///
/// # Examples
///
/// ```
/// use multival_mcl::parse_formula;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let deadlock_free = parse_formula("nu X. <true> true and [true] X")?;
/// let safety = parse_formula("[\"ERROR *\"] false")?;
/// # let _ = (deadlock_free, safety);
/// # Ok(())
/// # }
/// ```
pub fn parse_formula(src: &str) -> Result<Formula, ParseFormulaError> {
    let toks = lex(src)?;
    let mut p = P { toks, pos: 0, depth: 0, peak: 0 };
    let f = p.formula()?;
    if p.peek() != &Tok::Eof {
        return Err(p.err(format!("unexpected {} after formula", p.peek())));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::check;
    use multival_lts::equiv::lts_from_triples;

    #[test]
    fn parses_and_checks_reachability() {
        let lts = lts_from_triples(&[(0, "a", 1), (1, "b", 2)]);
        let f = parse_formula("mu X. <b> true or <true> X").expect("parses");
        assert!(check(&lts, &f).expect("evals").holds);
        let g = parse_formula("mu X. <c> true or <true> X").expect("parses");
        assert!(!check(&lts, &g).expect("evals").holds);
    }

    #[test]
    fn quoted_patterns_with_offers() {
        let lts = lts_from_triples(&[(0, "PUSH !1", 1)]);
        let f = parse_formula("<\"PUSH !*\"> true").expect("parses");
        assert!(check(&lts, &f).expect("evals").holds);
        let g = parse_formula("<\"POP !*\"> true").expect("parses");
        assert!(!check(&lts, &g).expect("evals").holds);
    }

    #[test]
    fn implication_desugars() {
        let f = parse_formula("true => false").expect("parses");
        assert_eq!(
            f,
            Formula::Or(Box::new(Formula::Not(Box::new(Formula::True))), Box::new(Formula::False))
        );
    }

    #[test]
    fn action_connectives() {
        let lts = lts_from_triples(&[(0, "a", 1), (0, "i", 2)]);
        let f = parse_formula("<not i> true").expect("parses");
        assert!(check(&lts, &f).expect("evals").holds);
        let g = parse_formula("[not (a or i)] false").expect("parses");
        assert!(check(&lts, &g).expect("evals").holds);
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse_formula("mu X X").expect_err("missing dot");
        assert!(err.message.contains("expected `.`"));
        assert!(parse_formula("<a true").is_err());
        assert!(parse_formula("\"unterminated").is_err());
        assert!(parse_formula("true extra").is_err());
    }

    /// Formulas nesting exactly `k` levels, one per construct that nests.
    fn nested_formulas(k: usize) -> Vec<(&'static str, String)> {
        // An `or` chain inside the first operand of an `or` chain, `n`
        // times over.
        let n = k / 2;
        let nested = format!(
            "{}{}false{}",
            if k.is_multiple_of(2) { "" } else { "not " },
            "(".repeat(n),
            " or false)".repeat(n)
        );
        vec![
            ("not", format!("{}true", "not ".repeat(k))),
            ("parens", format!("{}true{}", "(".repeat(k), ")".repeat(k))),
            ("diamond", format!("{}true", "<a> ".repeat(k))),
            ("box", format!("{}true", "[true] ".repeat(k))),
            ("and", format!("{}true", "true and ".repeat(k))),
            ("or", format!("{}false", "false or ".repeat(k))),
            ("implies", format!("{}true", "false => ".repeat(k - 1))),
            // Greatest fixpoints: a `nu` over `true` is stable at once, so
            // checking stays linear (nested `mu`s iterate twice per level).
            ("fixpoints", format!("{}true", "nu X. ".repeat(k))),
            ("action not", format!("<{}i> true", "not ".repeat(k))),
            ("action parens", format!("<{}a{}> true", "(".repeat(k), ")".repeat(k))),
            ("action or", format!("<{}a> true", "b or ".repeat(k))),
            ("nested or", nested),
        ]
    }

    #[test]
    fn nesting_is_capped_and_formulas_at_the_cap_stay_within_a_small_stack() {
        for (shape, over) in nested_formulas(MAX_DEPTH + 1) {
            let err = parse_formula(&over).expect_err(shape);
            assert!(err.message.contains("deeper than"), "{shape}: {err}");
        }
        // Checking, printing and dropping recurse over the nesting; all of
        // it must fit the 2 MiB default of spawned threads.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let lts = lts_from_triples(&[(0, "a", 0)]);
                for (shape, src) in nested_formulas(MAX_DEPTH) {
                    let f = parse_formula(&src).unwrap_or_else(|e| panic!("{shape}: {e}"));
                    check(&lts, &f).unwrap_or_else(|e| panic!("{shape}: {e}"));
                    assert!(!f.to_string().is_empty(), "{shape}");
                    drop(f);
                }
            })
            .expect("spawns")
            .join()
            .expect("a formula at the nesting cap fits a 2 MiB stack");
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        // false and false or true ≡ (false and false) or true = true.
        let lts = lts_from_triples(&[(0, "a", 1)]);
        let f = parse_formula("false and false or true").expect("parses");
        assert!(check(&lts, &f).expect("evals").holds);
    }
}

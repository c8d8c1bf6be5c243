//! Behaviour terms: the abstract syntax of the mini-LOTOS dialect.
//!
//! Closed terms (all value variables substituted) are the states of the
//! SOS semantics, compared by structural equality; the reference view
//! [`crate::ts::PaTs`] explores them directly. The explorer does not key
//! states by whole terms: it splits the initial term once into its
//! sequential components (`crate::compiled`), and a state is a vector of
//! per-component ids, each naming a closed component term. A state's full
//! term is rebuilt from that vector where callers ask for it
//! ([`crate::explorer::Explored::states`], error reports).

use crate::expr::Expr;
use crate::value::{Sym, Type, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A data offer of an action: emit a value (`!e`) or accept one (`?x:T`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Offer {
    /// `!e` — emit the value of `e`.
    Send(Expr),
    /// `?x:T` — accept any value of type `T`, binding `x`.
    Recv(Sym, Type),
}

/// An action occurrence: a gate with data offers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Action {
    /// Gate name.
    pub gate: Sym,
    /// Data offers, in order.
    pub offers: Vec<Offer>,
}

impl Action {
    /// Action on `gate` with no offers.
    pub fn bare(gate: &str) -> Action {
        Action { gate: crate::value::sym(gate), offers: Vec::new() }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.gate)?;
        for o in &self.offers {
            match o {
                Offer::Send(e) => write!(f, " !{e}")?,
                Offer::Recv(x, t) => write!(f, " ?{x}:{t}")?,
            }
        }
        Ok(())
    }
}

/// Synchronization discipline of a parallel composition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// `|||` — no synchronization.
    Interleave,
    /// `||` — synchronize on all gates.
    Full,
    /// `|[g1, …, gn]|` — synchronize on the listed gates (sorted).
    Gates(Arc<[Sym]>),
}

impl SyncKind {
    /// Builds a gate-set synchronization, sorting the gates for canonicity.
    pub fn gates<I, S>(gates: I) -> SyncKind
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut v: Vec<Sym> = gates.into_iter().map(|g| crate::value::sym(g.as_ref())).collect();
        v.sort();
        v.dedup();
        SyncKind::Gates(v.into())
    }

    /// Does this discipline force gate `g` to synchronize?
    pub fn synchronizes(&self, g: &str) -> bool {
        match self {
            SyncKind::Interleave => false,
            SyncKind::Full => true,
            SyncKind::Gates(gs) => gs.iter().any(|x| &**x == g),
        }
    }
}

/// A behaviour term.
///
/// The constructors mirror LOTOS:
/// `stop`, `exit`, action prefix `a; B`, guard `[e] -> B`, choice `B [] B`,
/// parallel `B |[G]| B`, `hide G in B`, gate renaming, process instantiation
/// `P[g…](e…)`, enabling `B >> accept x:T in B`, disabling `B [> B`, and
/// `let x:T = e in B`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// `stop` — no transitions (deadlock/inaction).
    Stop,
    /// `exit(e…)` — successful termination δ, offering result values.
    Exit(Vec<Expr>),
    /// `a; B` — action prefix.
    Prefix(Action, Arc<Term>),
    /// `[e] -> B` — guarded behaviour.
    Guard(Expr, Arc<Term>),
    /// `B1 [] B2` — choice.
    Choice(Arc<Term>, Arc<Term>),
    /// `B1 |[G]| B2` — parallel composition.
    Par(SyncKind, Arc<Term>, Arc<Term>),
    /// `hide g1, …, gn in B`.
    Hide(Arc<[Sym]>, Arc<Term>),
    /// Gate renaming `B [h1/g1, …]` (maps old gate → new gate).
    Rename(Arc<[(Sym, Sym)]>, Arc<Term>),
    /// `P[g…](e…)` — process instantiation.
    Call(Sym, Vec<Sym>, Vec<Expr>),
    /// `B1 >> accept x1:T1, … in B2` — sequential composition (enabling).
    Enable(Arc<Term>, Vec<(Sym, Type)>, Arc<Term>),
    /// `B1 [> B2` — disabling (interrupt).
    Disable(Arc<Term>, Arc<Term>),
    /// `let x1:T1 = e1, … in B`.
    Let(Vec<(Sym, Type, Expr)>, Arc<Term>),
}

impl Term {
    /// Wraps the term in an `Arc` (states are always shared).
    pub fn rc(self) -> Arc<Term> {
        Arc::new(self)
    }

    /// Substitutes free *value variables* by constants.
    ///
    /// Respects binders: `?x:T` offers, `accept` clauses and `let` bindings
    /// shadow outer variables in their scope.
    pub fn subst_vars(self: &Arc<Term>, env: &HashMap<Sym, Value>) -> Arc<Term> {
        if env.is_empty() {
            return self.clone();
        }
        match &**self {
            Term::Stop => self.clone(),
            Term::Exit(es) => Term::Exit(es.iter().map(|e| e.subst_fold(env)).collect()).rc(),
            Term::Prefix(a, cont) => {
                let mut inner = env.clone();
                let offers: Vec<Offer> = a
                    .offers
                    .iter()
                    .map(|o| match o {
                        Offer::Send(e) => Offer::Send(e.subst_fold(env)),
                        Offer::Recv(x, t) => {
                            inner.remove(x); // ?x binds from here on
                            Offer::Recv(x.clone(), t.clone())
                        }
                    })
                    .collect();
                let cont2 = if inner.is_empty() { cont.clone() } else { cont.subst_vars(&inner) };
                Term::Prefix(Action { gate: a.gate.clone(), offers }, cont2).rc()
            }
            Term::Guard(e, b) => Term::Guard(e.subst_fold(env), b.subst_vars(env)).rc(),
            Term::Choice(l, r) => Term::Choice(l.subst_vars(env), r.subst_vars(env)).rc(),
            Term::Par(k, l, r) => Term::Par(k.clone(), l.subst_vars(env), r.subst_vars(env)).rc(),
            Term::Hide(gs, b) => Term::Hide(gs.clone(), b.subst_vars(env)).rc(),
            Term::Rename(m, b) => Term::Rename(m.clone(), b.subst_vars(env)).rc(),
            Term::Call(p, gs, es) => {
                Term::Call(p.clone(), gs.clone(), es.iter().map(|e| e.subst_fold(env)).collect())
                    .rc()
            }
            Term::Enable(l, binders, r) => {
                let mut inner = env.clone();
                for (x, _) in binders {
                    inner.remove(x);
                }
                let r2 = if inner.is_empty() { r.clone() } else { r.subst_vars(&inner) };
                Term::Enable(l.subst_vars(env), binders.clone(), r2).rc()
            }
            Term::Disable(l, r) => Term::Disable(l.subst_vars(env), r.subst_vars(env)).rc(),
            Term::Let(binds, b) => {
                let mut inner = env.clone();
                let binds2: Vec<(Sym, Type, Expr)> = binds
                    .iter()
                    .map(|(x, t, e)| {
                        // Bindings are sequential: each RHS sees outer env plus
                        // earlier bindings (which are not in `env`, so just the
                        // progressively shadowed env).
                        let e2 = e.subst(&inner);
                        inner.remove(x);
                        (x.clone(), t.clone(), e2)
                    })
                    .collect();
                let b2 = if inner.is_empty() { b.clone() } else { b.subst_vars(&inner) };
                Term::Let(binds2, b2).rc()
            }
        }
    }

    /// Substitutes *gate names* (used when instantiating process calls and
    /// applying renamings). `hide` binds gates: hidden gates are local and
    /// are not renamed inside their scope.
    pub fn subst_gates(self: &Arc<Term>, map: &HashMap<Sym, Sym>) -> Arc<Term> {
        if map.is_empty() {
            return self.clone();
        }
        let ren = |g: &Sym| -> Sym { map.get(g).cloned().unwrap_or_else(|| g.clone()) };
        match &**self {
            Term::Stop | Term::Exit(_) => self.clone(),
            Term::Prefix(a, cont) => Term::Prefix(
                Action { gate: ren(&a.gate), offers: a.offers.clone() },
                cont.subst_gates(map),
            )
            .rc(),
            Term::Guard(e, b) => Term::Guard(e.clone(), b.subst_gates(map)).rc(),
            Term::Choice(l, r) => Term::Choice(l.subst_gates(map), r.subst_gates(map)).rc(),
            Term::Par(k, l, r) => {
                let k2 = match k {
                    SyncKind::Gates(gs) => {
                        let mut v: Vec<Sym> = gs.iter().map(ren).collect();
                        v.sort();
                        v.dedup();
                        SyncKind::Gates(v.into())
                    }
                    other => other.clone(),
                };
                Term::Par(k2, l.subst_gates(map), r.subst_gates(map)).rc()
            }
            Term::Hide(gs, b) => {
                let mut inner = map.clone();
                for g in gs.iter() {
                    inner.remove(g);
                }
                let b2 = if inner.is_empty() { b.clone() } else { b.subst_gates(&inner) };
                Term::Hide(gs.clone(), b2).rc()
            }
            Term::Rename(m, b) => {
                // Composition: inner renaming applies first at runtime, so the
                // outer substitution applies to the *targets* of `m`.
                let m2: Vec<(Sym, Sym)> = m.iter().map(|(a, c)| (a.clone(), ren(c))).collect();
                // Gates not mentioned as a source of `m` flow through, so the
                // body still needs the substitution for those… but renaming at
                // derivation time handles pass-through labels via `m` lookup
                // only. To keep semantics simple we also substitute the body
                // for gates that are not sources of `m`.
                let mut inner = map.clone();
                for (a, _) in m.iter() {
                    inner.remove(a);
                }
                let b2 = if inner.is_empty() { b.clone() } else { b.subst_gates(&inner) };
                Term::Rename(m2.into(), b2).rc()
            }
            Term::Call(p, gs, es) => {
                Term::Call(p.clone(), gs.iter().map(ren).collect(), es.clone()).rc()
            }
            Term::Enable(l, binders, r) => {
                Term::Enable(l.subst_gates(map), binders.clone(), r.subst_gates(map)).rc()
            }
            Term::Disable(l, r) => Term::Disable(l.subst_gates(map), r.subst_gates(map)).rc(),
            Term::Let(binds, b) => Term::Let(binds.clone(), b.subst_gates(map)).rc(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Stop => write!(f, "stop"),
            Term::Exit(es) if es.is_empty() => write!(f, "exit"),
            Term::Exit(es) => {
                write!(f, "exit(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Term::Prefix(a, b) => write!(f, "{a}; {b}"),
            Term::Guard(e, b) => write!(f, "[{e}] -> {b}"),
            Term::Choice(l, r) => write!(f, "({l} [] {r})"),
            Term::Par(SyncKind::Interleave, l, r) => write!(f, "({l} ||| {r})"),
            Term::Par(SyncKind::Full, l, r) => write!(f, "({l} || {r})"),
            Term::Par(SyncKind::Gates(gs), l, r) => {
                write!(f, "({l} |[")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, "]| {r})")
            }
            Term::Hide(gs, b) => {
                write!(f, "hide ")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, " in {b}")
            }
            Term::Rename(m, b) => {
                write!(f, "(rename ")?;
                for (i, (a, c)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a} -> {c}")?;
                }
                write!(f, " in {b})")
            }
            Term::Call(p, gs, es) => {
                write!(f, "{p}")?;
                if !gs.is_empty() {
                    write!(f, "[")?;
                    for (i, g) in gs.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{g}")?;
                    }
                    write!(f, "]")?;
                }
                if !es.is_empty() {
                    write!(f, "(")?;
                    for (i, e) in es.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Term::Enable(l, binders, r) => {
                write!(f, "({l} >> ")?;
                if !binders.is_empty() {
                    write!(f, "accept ")?;
                    for (i, (x, t)) in binders.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{x}:{t}")?;
                    }
                    write!(f, " in ")?;
                }
                write!(f, "{r})")
            }
            Term::Disable(l, r) => write!(f, "({l} [> {r})"),
            Term::Let(binds, b) => {
                write!(f, "let ")?;
                for (i, (x, t, e)) in binds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}:{t} = {e}")?;
                }
                write!(f, " in {b}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{sym, Value};

    fn env(pairs: &[(&str, i64)]) -> HashMap<Sym, Value> {
        pairs.iter().map(|&(k, v)| (sym(k), Value::Int(v))).collect()
    }

    #[test]
    fn subst_vars_respects_recv_binder() {
        // g !x ?x:int 0..1; h !x; stop — the !x after ?x refers to the bound x.
        let t = Term::Prefix(
            Action {
                gate: sym("g"),
                offers: vec![Offer::Send(Expr::var("x")), Offer::Recv(sym("x"), Type::Int(0, 1))],
            },
            Term::Prefix(
                Action { gate: sym("h"), offers: vec![Offer::Send(Expr::var("x"))] },
                Term::Stop.rc(),
            )
            .rc(),
        )
        .rc();
        let s = t.subst_vars(&env(&[("x", 9)]));
        // First offer closed to 9; the h-offer must still be the variable.
        match &*s {
            Term::Prefix(a, cont) => {
                assert_eq!(a.offers[0], Offer::Send(Expr::int(9)));
                match &**cont {
                    Term::Prefix(h, _) => {
                        assert_eq!(h.offers[0], Offer::Send(Expr::var("x")));
                    }
                    other => panic!("unexpected {other}"),
                }
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn subst_vars_respects_let_binder() {
        let t = Term::Let(
            vec![(sym("x"), Type::Int(0, 9), Expr::int(1))],
            Term::Exit(vec![Expr::var("x")]).rc(),
        )
        .rc();
        let s = t.subst_vars(&env(&[("x", 5)]));
        // Outer x must not penetrate the let body.
        match &*s {
            Term::Let(_, body) => match &**body {
                Term::Exit(es) => assert_eq!(es[0], Expr::var("x")),
                other => panic!("unexpected {other}"),
            },
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn subst_gates_respects_hide_binder() {
        let t = Term::Hide(
            vec![sym("g")].into(),
            Term::Prefix(Action::bare("g"), Term::Stop.rc()).rc(),
        )
        .rc();
        let mut map = HashMap::new();
        map.insert(sym("g"), sym("h"));
        let s = t.subst_gates(&map);
        match &*s {
            Term::Hide(_, body) => match &**body {
                Term::Prefix(a, _) => assert_eq!(&*a.gate, "g", "hidden gate is local"),
                other => panic!("unexpected {other}"),
            },
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn subst_gates_renames_sync_sets() {
        let t = Term::Par(
            SyncKind::gates(["g"]),
            Term::Prefix(Action::bare("g"), Term::Stop.rc()).rc(),
            Term::Prefix(Action::bare("g"), Term::Stop.rc()).rc(),
        )
        .rc();
        let mut map = HashMap::new();
        map.insert(sym("g"), sym("h"));
        let s = t.subst_gates(&map);
        match &*s {
            Term::Par(SyncKind::Gates(gs), _, _) => assert_eq!(&*gs[0], "h"),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn structural_equality_is_state_identity() {
        let mk = || Term::Prefix(Action::bare("a"), Term::Stop.rc()).rc();
        assert_eq!(mk(), mk());
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |t: &Arc<Term>| {
            let mut s = DefaultHasher::new();
            t.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&mk()), h(&mk()));
    }

    #[test]
    fn display_is_readable() {
        let t = Term::Choice(
            Term::Prefix(Action::bare("a"), Term::Stop.rc()).rc(),
            Term::Exit(vec![]).rc(),
        );
        assert_eq!(t.to_string(), "(a; stop [] exit)");
    }

    #[test]
    fn sync_gates_sorted_and_deduped() {
        let k = SyncKind::gates(["b", "a", "b"]);
        match k {
            SyncKind::Gates(gs) => {
                assert_eq!(gs.len(), 2);
                assert_eq!(&*gs[0], "a");
            }
            _ => unreachable!(),
        }
    }
}

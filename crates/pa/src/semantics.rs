//! Structural operational semantics of the mini-LOTOS dialect.
//!
//! [`transitions`] derives the outgoing transitions of a *closed* behaviour
//! term. Closed terms are the states of the reference transition system
//! [`crate::ts::PaTs`]; the explorer (`crate::explorer`) applies this
//! function to each sequential component of a compiled parallel network
//! (`crate::compiled`) and combines the results with the same rules as
//! `derive_par` below.

use crate::expr::EvalError;
use crate::spec::Spec;
use crate::term::{Action, Offer, SyncKind, Term};
use crate::value::{Sym, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A transition label: internal τ, successful termination δ, or a gate with
/// negotiated data values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Label {
    /// Internal action τ (displayed `i`).
    Tau,
    /// Successful termination δ (displayed `exit`), with result values.
    Exit(Vec<Value>),
    /// Visible gate with negotiated offer values.
    Gate(Sym, Vec<Value>),
}

impl Label {
    /// Is this the internal action?
    pub fn is_tau(&self) -> bool {
        matches!(self, Label::Tau)
    }

    /// The gate name of a visible label (`exit` for δ), or `None` for τ.
    pub fn gate(&self) -> Option<&str> {
        match self {
            Label::Tau => None,
            Label::Exit(_) => Some("exit"),
            Label::Gate(g, _) => Some(g),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Tau => write!(f, "i"),
            Label::Exit(vs) => {
                write!(f, "exit")?;
                for v in vs {
                    write!(f, " !{v}")?;
                }
                Ok(())
            }
            Label::Gate(g, vs) => {
                write!(f, "{g}")?;
                for v in vs {
                    write!(f, " !{v}")?;
                }
                Ok(())
            }
        }
    }
}

/// Error during transition derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemError {
    /// An expression failed to evaluate (unbound variable, div-by-zero, …).
    Eval(String),
    /// Call to an undefined process.
    UndefinedProcess(String),
    /// Gate or value argument arity mismatch on a process call.
    Arity(String),
    /// Too many process unfoldings without an action: the recursion is not
    /// action-guarded (e.g. `P := P [] a; Q`).
    UnguardedRecursion(String),
    /// `exit` offered a different number of values than `accept` expects.
    ExitArity(String),
    /// A value escaped its declared type (e.g. `let x:int 0..3 = 7`).
    TypeRange(String),
}

impl fmt::Display for SemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemError::Eval(m) => write!(f, "evaluation failed: {m}"),
            SemError::UndefinedProcess(p) => write!(f, "undefined process `{p}`"),
            SemError::Arity(m) => write!(f, "arity mismatch: {m}"),
            SemError::UnguardedRecursion(p) => {
                write!(f, "unguarded recursion while unfolding `{p}`")
            }
            SemError::ExitArity(m) => write!(f, "exit/accept mismatch: {m}"),
            SemError::TypeRange(m) => write!(f, "value out of type range: {m}"),
        }
    }
}

impl std::error::Error for SemError {}

impl From<EvalError> for SemError {
    fn from(e: EvalError) -> Self {
        SemError::Eval(e.0)
    }
}

/// Maximum process unfoldings inside a single [`transitions`] call before
/// recursion is declared unguarded.
const MAX_UNFOLD: usize = 256;

/// Derives all outgoing transitions of a closed term.
///
/// # Errors
///
/// Returns [`SemError`] on malformed models (open expressions, undefined
/// processes, unguarded recursion, …).
pub fn transitions(term: &Arc<Term>, spec: &Spec) -> Result<Vec<(Label, Arc<Term>)>, SemError> {
    derive(term, spec, 0)
}

fn derive(
    term: &Arc<Term>,
    spec: &Spec,
    unfolds: usize,
) -> Result<Vec<(Label, Arc<Term>)>, SemError> {
    match &**term {
        Term::Stop => Ok(Vec::new()),
        Term::Exit(es) => {
            let mut vals = Vec::with_capacity(es.len());
            for e in es {
                vals.push(eval_closed(e, spec)?);
            }
            Ok(vec![(Label::Exit(vals), Term::Stop.rc())])
        }
        Term::Prefix(action, cont) => derive_prefix(action, cont, spec),
        Term::Guard(e, b) => {
            if eval_closed(e, spec)?.as_bool().map_err(SemError::Eval)? {
                derive(b, spec, unfolds)
            } else {
                Ok(Vec::new())
            }
        }
        Term::Choice(l, r) => {
            let mut out = derive(l, spec, unfolds)?;
            out.extend(derive(r, spec, unfolds)?);
            Ok(out)
        }
        Term::Par(kind, l, r) => derive_par(kind, l, r, spec, unfolds),
        Term::Hide(gates, b) => {
            let inner = derive(b, spec, unfolds)?;
            Ok(inner
                .into_iter()
                .map(|(lab, t)| (hide_label(gates, lab), Term::Hide(gates.clone(), t).rc()))
                .collect())
        }
        Term::Rename(map, b) => {
            let inner = derive(b, spec, unfolds)?;
            Ok(inner
                .into_iter()
                .map(|(lab, t)| (rename_label(map, lab), Term::Rename(map.clone(), t).rc()))
                .collect())
        }
        Term::Call(name, gates, args) => {
            if unfolds >= MAX_UNFOLD {
                return Err(SemError::UnguardedRecursion(name.to_string()));
            }
            let def =
                spec.process(name).ok_or_else(|| SemError::UndefinedProcess(name.to_string()))?;
            if def.gates.len() != gates.len() {
                return Err(SemError::Arity(format!(
                    "`{name}` expects {} gates, got {}",
                    def.gates.len(),
                    gates.len()
                )));
            }
            if def.params.len() != args.len() {
                return Err(SemError::Arity(format!(
                    "`{name}` expects {} arguments, got {}",
                    def.params.len(),
                    args.len()
                )));
            }
            let gate_map: HashMap<Sym, Sym> = def
                .gates
                .iter()
                .cloned()
                .zip(gates.iter().cloned())
                .filter(|(a, b)| a != b)
                .collect();
            let mut var_map: HashMap<Sym, Value> = HashMap::with_capacity(args.len());
            for ((x, t), e) in def.params.iter().zip(args) {
                let v = eval_closed(e, spec)?;
                if !t.contains(&v) {
                    return Err(SemError::TypeRange(format!(
                        "argument `{x}` of `{name}`: {v} is not in {t}"
                    )));
                }
                var_map.insert(x.clone(), v);
            }
            let body = def.body.subst_gates(&gate_map).subst_vars(&var_map);
            derive(&body, spec, unfolds + 1)
        }
        Term::Enable(l, binders, r) => {
            let inner = derive(l, spec, unfolds)?;
            let mut out = Vec::with_capacity(inner.len());
            for (lab, t) in inner {
                match lab {
                    Label::Exit(vals) => {
                        if vals.len() != binders.len() {
                            return Err(SemError::ExitArity(format!(
                                "exit offers {} values but accept expects {}",
                                vals.len(),
                                binders.len()
                            )));
                        }
                        let mut env = HashMap::with_capacity(binders.len());
                        for ((x, ty), v) in binders.iter().zip(vals) {
                            if !ty.contains(&v) {
                                return Err(SemError::TypeRange(format!(
                                    "accept `{x}`: {v} is not in {ty}"
                                )));
                            }
                            env.insert(x.clone(), v);
                        }
                        out.push((Label::Tau, r.subst_vars(&env)));
                    }
                    other => {
                        out.push((other, Term::Enable(t, binders.clone(), r.clone()).rc()));
                    }
                }
            }
            Ok(out)
        }
        Term::Disable(l, r) => {
            let mut out = Vec::new();
            for (lab, t) in derive(l, spec, unfolds)? {
                match lab {
                    Label::Exit(vals) => out.push((Label::Exit(vals), Term::Stop.rc())),
                    other => out.push((other, Term::Disable(t, r.clone()).rc())),
                }
            }
            // The disabler may preempt at any time; once it moves, the left
            // behaviour is discarded.
            out.extend(derive(r, spec, unfolds)?);
            Ok(out)
        }
        Term::Let(binds, b) => {
            let mut env: HashMap<Sym, Value> = HashMap::with_capacity(binds.len());
            for (x, t, e) in binds {
                // Sequential bindings: later RHS may use earlier variables.
                let closed = e.subst(&env);
                let v = eval_closed(&closed, spec)?;
                if !t.contains(&v) {
                    return Err(SemError::TypeRange(format!("let `{x}`: {v} is not in {t}")));
                }
                env.insert(x.clone(), v);
            }
            derive(&b.subst_vars(&env), spec, unfolds)
        }
    }
}

/// Evaluates a closed expression, resolving bare enum-variant names to
/// enumeration constants.
fn eval_closed(e: &crate::expr::Expr, spec: &Spec) -> Result<Value, SemError> {
    let mut vars = std::collections::HashSet::new();
    e.free_vars(&mut vars);
    if vars.is_empty() {
        return e.eval(&HashMap::new()).map_err(SemError::from);
    }
    // Remaining free names may be enum constants: bind them to themselves.
    let mut env = HashMap::new();
    for v in vars {
        if spec.enum_variant_exists(&v).is_some() {
            env.insert(v.clone(), Value::Sym(v));
        }
    }
    e.eval(&env).map_err(SemError::from)
}

fn derive_prefix(
    action: &Action,
    cont: &Arc<Term>,
    spec: &Spec,
) -> Result<Vec<(Label, Arc<Term>)>, SemError> {
    // Enumerate offer combinations. Later offers may reference variables
    // bound by earlier `?x:T` offers of the same action.
    let mut branches: Vec<(Vec<Value>, HashMap<Sym, Value>)> = vec![(Vec::new(), HashMap::new())];
    for offer in &action.offers {
        let mut next = Vec::new();
        match offer {
            Offer::Send(e) => {
                for (mut vals, env) in branches {
                    let v = eval_closed(&e.subst(&env), spec)?;
                    vals.push(v);
                    next.push((vals, env));
                }
            }
            Offer::Recv(x, ty) => {
                let ty = resolve_type(ty, spec)?;
                for (vals, env) in branches {
                    for v in ty.values() {
                        let mut vals2 = vals.clone();
                        vals2.push(v.clone());
                        let mut env2 = env.clone();
                        env2.insert(x.clone(), v);
                        next.push((vals2, env2));
                    }
                }
            }
        }
        branches = next;
    }
    let mut out = Vec::with_capacity(branches.len());
    for (vals, env) in branches {
        let target = cont.subst_vars(&env);
        let label = if &*action.gate == "i" || &*action.gate == "tau" {
            Label::Tau
        } else {
            Label::Gate(action.gate.clone(), vals)
        };
        out.push((label, target));
    }
    Ok(out)
}

/// Resolves an enum type referenced by name in a `?x:T` offer against the
/// specification's type table (the parser leaves a placeholder for unknown
/// names only if the type was undeclared, which is an error here).
fn resolve_type(ty: &crate::value::Type, _spec: &Spec) -> Result<crate::value::Type, SemError> {
    Ok(ty.clone())
}

/// The label `hide gates in B` shows for a label of `B`: hidden gates
/// become τ.
pub(crate) fn hide_label(gates: &[Sym], label: Label) -> Label {
    match &label {
        Label::Gate(g, _) if gates.iter().any(|h| h == g) => Label::Tau,
        _ => label,
    }
}

/// The label a gate renaming shows for a label of its body.
pub(crate) fn rename_label(map: &[(Sym, Sym)], label: Label) -> Label {
    match label {
        Label::Gate(g, vs) => {
            let g2 = map.iter().find(|(a, _)| *a == g).map(|(_, c)| c.clone()).unwrap_or(g);
            Label::Gate(g2, vs)
        }
        other => other,
    }
}

/// Whether a parallel composition of discipline `kind` forces `label` to
/// synchronize: τ never does, δ always does (LOTOS joint termination).
pub(crate) fn must_sync(kind: &SyncKind, label: &Label) -> bool {
    match label {
        Label::Tau => false,
        Label::Exit(_) => true,
        Label::Gate(g, _) => kind.synchronizes(g),
    }
}

fn derive_par(
    kind: &SyncKind,
    l: &Arc<Term>,
    r: &Arc<Term>,
    spec: &Spec,
    unfolds: usize,
) -> Result<Vec<(Label, Arc<Term>)>, SemError> {
    let lt = derive(l, spec, unfolds)?;
    let rt = derive(r, spec, unfolds)?;
    let mut out = Vec::new();
    for (lab, t) in &lt {
        if !must_sync(kind, lab) {
            out.push((lab.clone(), Term::Par(kind.clone(), t.clone(), r.clone()).rc()));
        }
    }
    for (lab, t) in &rt {
        if !must_sync(kind, lab) {
            out.push((lab.clone(), Term::Par(kind.clone(), l.clone(), t.clone()).rc()));
        }
    }
    for (ll, tl) in &lt {
        if !must_sync(kind, ll) {
            continue;
        }
        for (rl, tr) in &rt {
            if ll == rl {
                match ll {
                    Label::Exit(vals) => {
                        // Joint termination: the whole composition terminates.
                        out.push((Label::Exit(vals.clone()), Term::Stop.rc()));
                    }
                    _ => {
                        out.push((ll.clone(), Term::Par(kind.clone(), tl.clone(), tr.clone()).rc()))
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::spec::ProcDef;
    use crate::value::{sym, Type};

    fn spec() -> Spec {
        Spec::new()
    }

    fn labels_of(t: &Arc<Term>, s: &Spec) -> Vec<String> {
        let mut v: Vec<String> =
            transitions(t, s).expect("derivable").into_iter().map(|(l, _)| l.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn stop_has_no_transitions() {
        assert!(labels_of(&Term::Stop.rc(), &spec()).is_empty());
    }

    #[test]
    fn exit_emits_delta() {
        let t = Term::Exit(vec![Expr::int(3)]).rc();
        assert_eq!(labels_of(&t, &spec()), vec!["exit !3"]);
    }

    #[test]
    fn prefix_with_send_and_recv() {
        // g !1 ?x:bool; stop — two transitions: g !1 !false, g !1 !true.
        let t = Term::Prefix(
            Action {
                gate: sym("g"),
                offers: vec![Offer::Send(Expr::int(1)), Offer::Recv(sym("x"), Type::Bool)],
            },
            Term::Stop.rc(),
        )
        .rc();
        assert_eq!(labels_of(&t, &spec()), vec!["g !1 !false", "g !1 !true"]);
    }

    #[test]
    fn recv_binds_later_send_in_same_action() {
        // g ?x:int 1..2 !x; stop — labels g !1 !1 and g !2 !2.
        let t = Term::Prefix(
            Action {
                gate: sym("g"),
                offers: vec![Offer::Recv(sym("x"), Type::Int(1, 2)), Offer::Send(Expr::var("x"))],
            },
            Term::Stop.rc(),
        )
        .rc();
        assert_eq!(labels_of(&t, &spec()), vec!["g !1 !1", "g !2 !2"]);
    }

    #[test]
    fn guard_filters() {
        let t =
            Term::Guard(Expr::bool(false), Term::Prefix(Action::bare("a"), Term::Stop.rc()).rc())
                .rc();
        assert!(labels_of(&t, &spec()).is_empty());
    }

    #[test]
    fn choice_unions() {
        let t = Term::Choice(
            Term::Prefix(Action::bare("a"), Term::Stop.rc()).rc(),
            Term::Prefix(Action::bare("b"), Term::Stop.rc()).rc(),
        )
        .rc();
        assert_eq!(labels_of(&t, &spec()), vec!["a", "b"]);
    }

    #[test]
    fn par_sync_negotiates_values() {
        // (g !1; stop [] g !2; stop) |[g]| g ?x:int 1..2; stop
        // → two synchronized transitions g !1 and g !2.
        let sender = Term::Choice(
            Term::Prefix(
                Action { gate: sym("g"), offers: vec![Offer::Send(Expr::int(1))] },
                Term::Stop.rc(),
            )
            .rc(),
            Term::Prefix(
                Action { gate: sym("g"), offers: vec![Offer::Send(Expr::int(2))] },
                Term::Stop.rc(),
            )
            .rc(),
        )
        .rc();
        let receiver = Term::Prefix(
            Action { gate: sym("g"), offers: vec![Offer::Recv(sym("x"), Type::Int(1, 2))] },
            Term::Stop.rc(),
        )
        .rc();
        let t = Term::Par(SyncKind::gates(["g"]), sender, receiver).rc();
        assert_eq!(labels_of(&t, &spec()), vec!["g !1", "g !2"]);
    }

    #[test]
    fn hide_makes_tau() {
        let t = Term::Hide(
            vec![sym("g")].into(),
            Term::Prefix(Action::bare("g"), Term::Stop.rc()).rc(),
        )
        .rc();
        assert_eq!(labels_of(&t, &spec()), vec!["i"]);
    }

    #[test]
    fn rename_changes_gate() {
        let t = Term::Rename(
            vec![(sym("g"), sym("h"))].into(),
            Term::Prefix(
                Action { gate: sym("g"), offers: vec![Offer::Send(Expr::int(1))] },
                Term::Stop.rc(),
            )
            .rc(),
        )
        .rc();
        assert_eq!(labels_of(&t, &spec()), vec!["h !1"]);
    }

    #[test]
    fn enable_turns_exit_into_tau_and_binds() {
        // exit(7) >> accept n:int 0..9 in g !n; stop
        let t = Term::Enable(
            Term::Exit(vec![Expr::int(7)]).rc(),
            vec![(sym("n"), Type::Int(0, 9))],
            Term::Prefix(
                Action { gate: sym("g"), offers: vec![Offer::Send(Expr::var("n"))] },
                Term::Stop.rc(),
            )
            .rc(),
        )
        .rc();
        let trans = transitions(&t, &spec()).expect("derivable");
        assert_eq!(trans.len(), 1);
        assert_eq!(trans[0].0, Label::Tau);
        assert_eq!(labels_of(&trans[0].1, &spec()), vec!["g !7"]);
    }

    #[test]
    fn enable_arity_mismatch_is_error() {
        let t =
            Term::Enable(Term::Exit(vec![]).rc(), vec![(sym("n"), Type::Bool)], Term::Stop.rc())
                .rc();
        assert!(matches!(transitions(&t, &spec()), Err(SemError::ExitArity(_))));
    }

    #[test]
    fn disable_interrupts() {
        // (a; stop) [> (b; stop): both a and b possible; after a the
        // disabler b is still possible (left continues under [>).
        let t = Term::Disable(
            Term::Prefix(Action::bare("a"), Term::Stop.rc()).rc(),
            Term::Prefix(Action::bare("b"), Term::Stop.rc()).rc(),
        )
        .rc();
        let trans = transitions(&t, &spec()).expect("derivable");
        let labels: Vec<String> = trans.iter().map(|(l, _)| l.to_string()).collect();
        assert!(labels.contains(&"a".to_owned()) && labels.contains(&"b".to_owned()));
        // After a, the term is still a Disable and b remains possible.
        let after_a = &trans.iter().find(|(l, _)| l.to_string() == "a").expect("a").1;
        assert_eq!(labels_of(after_a, &spec()), vec!["b"]);
    }

    #[test]
    fn disable_exit_kills_disabler() {
        let t = Term::Disable(
            Term::Exit(vec![]).rc(),
            Term::Prefix(Action::bare("b"), Term::Stop.rc()).rc(),
        )
        .rc();
        let trans = transitions(&t, &spec()).expect("derivable");
        let exit = trans.iter().find(|(l, _)| matches!(l, Label::Exit(_))).expect("exit");
        assert_eq!(*exit.1, Term::Stop);
    }

    #[test]
    fn call_unfolds_with_gate_and_value_substitution() {
        let mut s = Spec::new();
        s.add_process(ProcDef {
            name: sym("Count"),
            gates: vec![sym("tick")],
            params: vec![(sym("n"), Type::Int(0, 2))],
            body: Term::Guard(
                Expr::bin(BinOp::Lt, Expr::var("n"), Expr::int(2)),
                Term::Prefix(
                    Action { gate: sym("tick"), offers: vec![Offer::Send(Expr::var("n"))] },
                    Term::Call(
                        sym("Count"),
                        vec![sym("tick")],
                        vec![Expr::bin(BinOp::Add, Expr::var("n"), Expr::int(1))],
                    )
                    .rc(),
                )
                .rc(),
            )
            .rc(),
        });
        let t = Term::Call(sym("Count"), vec![sym("clk")], vec![Expr::int(0)]).rc();
        assert_eq!(labels_of(&t, &s), vec!["clk !0"]);
    }

    #[test]
    fn unguarded_recursion_detected() {
        let mut s = Spec::new();
        s.add_process(ProcDef {
            name: sym("Loop"),
            gates: vec![],
            params: vec![],
            body: Term::Call(sym("Loop"), vec![], vec![]).rc(),
        });
        let t = Term::Call(sym("Loop"), vec![], vec![]).rc();
        assert!(matches!(transitions(&t, &s), Err(SemError::UnguardedRecursion(_))));
    }

    #[test]
    fn argument_out_of_range_is_error() {
        let mut s = Spec::new();
        s.add_process(ProcDef {
            name: sym("P"),
            gates: vec![],
            params: vec![(sym("n"), Type::Int(0, 1))],
            body: Term::Stop.rc(),
        });
        let t = Term::Call(sym("P"), vec![], vec![Expr::int(5)]).rc();
        assert!(matches!(transitions(&t, &s), Err(SemError::TypeRange(_))));
    }

    #[test]
    fn exit_synchronizes_across_par() {
        // exit ||| exit still terminates jointly (δ always syncs).
        let t =
            Term::Par(SyncKind::Interleave, Term::Exit(vec![]).rc(), Term::Exit(vec![]).rc()).rc();
        let trans = transitions(&t, &spec()).expect("derivable");
        assert_eq!(trans.len(), 1);
        assert!(matches!(trans[0].0, Label::Exit(_)));
    }

    #[test]
    fn let_binds_sequentially() {
        let t = Term::Let(
            vec![
                (sym("x"), Type::Int(0, 9), Expr::int(2)),
                (sym("y"), Type::Int(0, 99), Expr::bin(BinOp::Mul, Expr::var("x"), Expr::int(3))),
            ],
            Term::Exit(vec![Expr::var("y")]).rc(),
        )
        .rc();
        assert_eq!(labels_of(&t, &spec()), vec!["exit !6"]);
    }

    #[test]
    fn tau_prefix_via_gate_named_i() {
        let t = Term::Prefix(Action::bare("i"), Term::Stop.rc()).rc();
        let trans = transitions(&t, &spec()).expect("derivable");
        assert_eq!(trans[0].0, Label::Tau);
    }
}

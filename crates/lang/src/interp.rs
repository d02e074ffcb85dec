//! The evaluator of the subject language, and the concrete interpreter
//! built on it.
//!
//! One evaluator runs a program on a concrete input. It is the **test
//! oracle** (a run reveals crashes, assertion failures and specification
//! violations, like executing an instrumented binary in the original tool)
//! and the **sanitizer** (divide-by-zero, remainder-by-zero and
//! out-of-bounds accesses abort the run with a [`CrashKind`], mirroring the
//! sanitizer-instrumented subjects of the ExtractFix benchmark).
//!
//! The evaluator is generic over a [`Shadow`], which it tells about every
//! value it builds and every branch, index pin, hole, assertion and bug
//! location it sees. [`Interp`] runs it with a shadow that tracks nothing;
//! the concolic executor of `cpr-concolic` runs it with a shadow that
//! builds the terms of the path constraint `φ_t` and the specification `σ`.
//! Concrete arithmetic goes through [`ArithOp::apply`] and
//! [`CmpOp::apply`], the functions [`Model::eval`] evaluates terms with, so
//! a value and its term cannot disagree.

use std::collections::HashMap;

use cpr_smt::{ArithOp, CmpOp, Model, TermId, TermPool, Value};

use crate::ast::{BinOp, Builtin, Expr, FunDecl, HoleKind, Program, Span, Stmt, Type, UnOp};

/// A concrete patch to splice into the program's hole: an expression over
/// the hole's argument variables (by name, as pool variables) plus an
/// assignment `binding` for any template parameters it mentions.
#[derive(Debug, Clone)]
pub struct ConcretePatch<'a> {
    /// Pool the patch expression lives in.
    pub pool: &'a TermPool,
    /// The patch expression `θ_ρ` with parameters substituted or bound.
    pub expr: TermId,
    /// Values for template parameters occurring in `expr`.
    pub binding: Model,
}

/// Reasons a run crashed (sanitizer-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// Division by zero.
    DivByZero,
    /// Remainder by zero.
    RemByZero,
    /// Array index out of bounds.
    IndexOutOfBounds,
    /// `roundup(_, 0)` (divides internally).
    RoundupByZero,
}

impl std::fmt::Display for CrashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CrashKind::DivByZero => "division by zero",
            CrashKind::RemByZero => "remainder by zero",
            CrashKind::IndexOutOfBounds => "index out of bounds",
            CrashKind::RoundupByZero => "roundup by zero",
        };
        write!(f, "{s}")
    }
}

/// Final outcome of a concrete run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Normal termination with a return value.
    Returned(i64),
    /// A sanitizer crash.
    Crash {
        /// What crashed.
        kind: CrashKind,
        /// Where it crashed.
        span: Span,
    },
    /// An `assert` failed.
    AssertFailed {
        /// Location of the assertion.
        span: Span,
    },
    /// The `bug` location's specification `σ` was violated.
    SpecViolated {
        /// Name of the bug marker.
        bug: String,
        /// Location of the bug marker.
        span: Span,
    },
    /// An `assume` failed: the path is vacuous (not an error).
    AssumeFailed,
    /// The step budget was exhausted (e.g. a diverging loop).
    StepLimit,
    /// The patch hole was reached but no patch was supplied.
    MissingPatch,
}

impl Outcome {
    /// Whether the outcome counts as an observable failure (crash, failed
    /// assertion, or specification violation).
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            Outcome::Crash { .. } | Outcome::AssertFailed { .. } | Outcome::SpecViolated { .. }
        )
    }

    /// Whether the run terminated normally.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Returned(_))
    }
}

/// Result of a run: the outcome plus coverage counters used by the repair
/// loop's ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Final outcome.
    pub outcome: Outcome,
    /// How often the patch hole was evaluated.
    pub patch_hits: u32,
    /// How often the bug location was reached.
    pub bug_hits: u32,
    /// Statements executed.
    pub steps: u64,
}

/// A term the evaluator asks its [`Shadow`] to build over the shadow's own
/// terms. Each variant means what the pool term of the same shape means
/// under [`Model::eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermOp<T> {
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// Saturating negation.
    Neg(T),
    /// Logical negation.
    Not(T),
    /// Conjunction.
    And(T, T),
    /// Disjunction.
    Or(T, T),
    /// Saturating arithmetic with total division.
    Arith(ArithOp, T, T),
    /// Integer comparison.
    Cmp(CmpOp, T, T),
    /// `if c then a else b` over integers.
    Ite(T, T, T),
}

/// What a run tracks besides its concrete values. The evaluator calls the
/// shadow wherever it builds a value or sees a branch, an index pin, the
/// hole, an assertion or the bug location; the shadow's type alone decides
/// what is tracked.
pub trait Shadow {
    /// The symbolic companion of every value.
    type Term: Copy;
    /// Whether the shadow builds terms. When it does, an operand that
    /// `&&`/`||` short-circuits is still evaluated for its term wherever
    /// that evaluation has no effect on the run (see [`Eval::speculate`]);
    /// when it does not, that evaluation is skipped.
    const BUILDS_TERMS: bool;

    /// Builds a term.
    fn term(&mut self, op: TermOp<Self::Term>) -> Self::Term;
    /// A branch on `cond`, whose term is `term`, went the `taken` way. An
    /// `assume` that held is a branch taken `true`.
    fn branch(&mut self, cond: &Expr, term: Self::Term, taken: bool);
    /// An array was indexed with the concrete `index`, whose term is `term`.
    fn pin(&mut self, term: Self::Term, index: i64);
    /// The hole was reached in `env`: the value the patch gives there and
    /// its term, or `None` when no patch was supplied.
    fn hole(&mut self, kind: HoleKind, env: &Env<Self::Term>) -> Option<(Value, Self::Term)>;
    /// An `assert` with condition `cond` was evaluated.
    fn assert(&mut self, cond: Self::Term);
    /// The bug location was reached and its specification evaluated.
    fn bug(&mut self, spec: Self::Term);
}

#[derive(Debug)]
enum Slot<T> {
    Scalar(Val<T>),
    Array(Vec<(i64, T)>),
}

/// The variables in scope, each with its value and term.
#[derive(Debug)]
pub struct Env<T>(HashMap<String, Slot<T>>);

impl<T: Copy> Env<T> {
    /// The value and term of scalar `name`; a boolean reads as 0 or 1.
    pub fn scalar(&self, name: &str) -> Option<(i64, T)> {
        match self.0.get(name)? {
            Slot::Scalar(Val::Int(v, t)) => Some((*v, *t)),
            Slot::Scalar(Val::Bool(b, t)) => Some((i64::from(*b), *t)),
            Slot::Array(_) => None,
        }
    }

    /// Every scalar in scope with its term.
    pub fn scalars(&self) -> impl Iterator<Item = (&str, T)> + '_ {
        self.0.iter().filter_map(|(name, slot)| match slot {
            Slot::Scalar(Val::Int(_, t) | Val::Bool(_, t)) => Some((name.as_str(), *t)),
            Slot::Array(_) => None,
        })
    }
}

/// The concrete interpreter: the evaluator with a step budget. Construct
/// once and reuse across runs.
#[derive(Debug, Clone)]
pub struct Interp {
    max_steps: u64,
}

impl Default for Interp {
    fn default() -> Self {
        Interp { max_steps: 100_000 }
    }
}

/// The shadow of a plain run: terms are `()`, nothing is recorded, and the
/// hole is filled from a [`ConcretePatch`].
struct Untracked<'p, 'q> {
    patch: Option<&'p ConcretePatch<'q>>,
}

impl Shadow for Untracked<'_, '_> {
    type Term = ();
    const BUILDS_TERMS: bool = false;

    fn term(&mut self, _: TermOp<()>) {}
    fn branch(&mut self, _: &Expr, _: (), _: bool) {}
    fn pin(&mut self, _: (), _: i64) {}
    fn hole(&mut self, _: HoleKind, env: &Env<()>) -> Option<(Value, ())> {
        let patch = self.patch?;
        let value = patch.binding.eval_overlay(patch.pool, patch.expr, |v| {
            env.scalar(patch.pool.var_name(v))
                .map(|(c, ())| Value::Int(c))
        });
        Some((value, ()))
    }
    fn assert(&mut self, _: ()) {}
    fn bug(&mut self, _: ()) {}
}

impl Interp {
    /// Creates an interpreter with the default step budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interpreter with a custom statement budget.
    pub fn with_max_steps(max_steps: u64) -> Self {
        Interp { max_steps }
    }

    /// Runs `program` on the given inputs (by input name). Missing inputs
    /// default to the low end of their declared range. `patch` fills the
    /// patch hole, if the program has one.
    pub fn run(
        &self,
        program: &Program,
        inputs: &HashMap<String, i64>,
        patch: Option<&ConcretePatch<'_>>,
    ) -> RunResult {
        let values = program
            .inputs
            .iter()
            .map(|decl| (inputs.get(&decl.name).copied().unwrap_or(decl.lo), ()))
            .collect();
        self.evaluate(program, values, &mut Untracked { patch })
    }

    /// Runs `program` under `shadow`, each input (in declaration order)
    /// bound to the given value and term.
    pub fn evaluate<S: Shadow>(
        &self,
        program: &Program,
        inputs: Vec<(i64, S::Term)>,
        shadow: &mut S,
    ) -> RunResult {
        let env = program
            .inputs
            .iter()
            .zip(inputs)
            .map(|(decl, (c, t))| (decl.name.clone(), Slot::Scalar(Val::Int(c, t))))
            .collect();
        let mut ev = Eval {
            shadow,
            env: Env(env),
            declared: Vec::new(),
            functions: &program.functions,
            patch_hits: 0,
            bug_hits: 0,
            steps: 0,
            max_steps: self.max_steps,
            speculating: false,
        };
        let outcome = match ev.stmts(&program.body) {
            Ok(Flow::Return(v, _)) => Outcome::Returned(v),
            Ok(Flow::Normal) => Outcome::Returned(0),
            Ok(Flow::Stop(o)) | Err(o) => o,
        };
        RunResult {
            outcome,
            patch_hits: ev.patch_hits,
            bug_hits: ev.bug_hits,
            steps: ev.steps,
        }
    }
}

enum Flow<T> {
    Normal,
    Return(i64, T),
    Stop(Outcome),
}

/// A value with its term.
#[derive(Debug, Clone, Copy)]
enum Val<T> {
    Int(i64, T),
    Bool(bool, T),
}

/// One run of one program under a shadow.
struct Eval<'r, S: Shadow> {
    shadow: &'r mut S,
    env: Env<S::Term>,
    /// Names each open block declared, innermost last (see [`Eval::block`]).
    declared: Vec<String>,
    functions: &'r [FunDecl],
    patch_hits: u32,
    bug_hits: u32,
    steps: u64,
    max_steps: u64,
    /// Set while a short-circuited operand is evaluated for its term only
    /// (see [`Eval::speculate`]).
    speculating: bool,
}

fn crash(kind: CrashKind, span: Span) -> Outcome {
    Outcome::Crash { kind, span }
}

impl<S: Shadow> Eval<'_, S> {
    /// Binds `name` to `slot`, recording the name as declared by the
    /// innermost open block when it is new to the environment.
    fn bind(&mut self, name: &str, slot: Slot<S::Term>) {
        if let Some(old) = self.env.0.get_mut(name) {
            *old = slot;
        } else {
            self.env.0.insert(name.to_owned(), slot);
            self.declared.push(name.to_owned());
        }
    }

    /// Counts one step against the budget. A speculated operand executes
    /// no statement (see [`Eval::speculate`]).
    fn tick(&mut self) -> Result<(), Outcome> {
        if self.speculating {
            return Err(Outcome::StepLimit);
        }
        self.steps += 1;
        if self.steps > self.max_steps {
            Err(Outcome::StepLimit)
        } else {
            Ok(())
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<Flow<S::Term>, Outcome> {
        for s in stmts {
            match self.stmt(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Executes a block body with block-scoped declarations: the names the
    /// block adds to the environment are removed afterwards, while an outer
    /// name the block redeclares or assigns keeps the value the block left.
    /// Costs O(names the block adds), not O(environment).
    fn block(&mut self, stmts: &[Stmt]) -> Result<Flow<S::Term>, Outcome> {
        let mark = self.declared.len();
        let flow = self.stmts(stmts);
        for name in self.declared.drain(mark..) {
            self.env.0.remove(&name);
        }
        flow
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<Flow<S::Term>, Outcome> {
        self.tick()?;
        match stmt {
            Stmt::Decl { name, ty, init, .. } => {
                let slot = match (ty, init) {
                    (Type::IntArray(n), _) => {
                        let zero = self.shadow.term(TermOp::Int(0));
                        Slot::Array(vec![(0, zero); *n])
                    }
                    (_, Some(e)) => Slot::Scalar(self.eval(e)?),
                    (Type::Int, None) => {
                        Slot::Scalar(Val::Int(0, self.shadow.term(TermOp::Int(0))))
                    }
                    (Type::Bool, None) => {
                        Slot::Scalar(Val::Bool(false, self.shadow.term(TermOp::Bool(false))))
                    }
                };
                self.bind(name, slot);
                Ok(Flow::Normal)
            }
            Stmt::Assign { name, value, .. } => {
                let v = self.eval(value)?;
                self.bind(name, Slot::Scalar(v));
                Ok(Flow::Normal)
            }
            Stmt::AssignIndex {
                name,
                index,
                value,
                span,
            } => {
                let (i, it) = self.eval_int(index)?;
                let v = self.eval_int(value)?;
                self.shadow.pin(it, i);
                match self.env.0.get_mut(name) {
                    Some(Slot::Array(arr)) => {
                        let cell = usize::try_from(i).ok().and_then(|i| arr.get_mut(i));
                        *cell.ok_or(crash(CrashKind::IndexOutOfBounds, *span))? = v;
                        Ok(Flow::Normal)
                    }
                    _ => unreachable!("type checker guarantees array target"),
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let (c, t) = self.eval_bool(cond)?;
                self.shadow.branch(cond, t, c);
                self.block(if c { then_body } else { else_body })
            }
            Stmt::While { cond, body, .. } => {
                loop {
                    self.tick()?;
                    let (c, t) = self.eval_bool(cond)?;
                    self.shadow.branch(cond, t, c);
                    if !c {
                        break;
                    }
                    match self.block(body)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let (c, t) = self.eval_int(value)?;
                Ok(Flow::Return(c, t))
            }
            Stmt::Assert { cond, span } => {
                let (c, t) = self.eval_bool(cond)?;
                self.shadow.assert(t);
                Ok(if c {
                    Flow::Normal
                } else {
                    Flow::Stop(Outcome::AssertFailed { span: *span })
                })
            }
            Stmt::Assume { cond, .. } => {
                let (c, t) = self.eval_bool(cond)?;
                if !c {
                    return Ok(Flow::Stop(Outcome::AssumeFailed));
                }
                self.shadow.branch(cond, t, true);
                Ok(Flow::Normal)
            }
            Stmt::Bug { name, spec, span } => {
                self.bug_hits += 1;
                let (c, t) = self.eval_bool(spec)?;
                // σ is captured regardless of the concrete verdict.
                self.shadow.bug(t);
                Ok(if c {
                    Flow::Normal
                } else {
                    Flow::Stop(Outcome::SpecViolated {
                        bug: name.clone(),
                        span: *span,
                    })
                })
            }
        }
    }

    fn eval_int(&mut self, e: &Expr) -> Result<(i64, S::Term), Outcome> {
        match self.eval(e)? {
            Val::Int(c, t) => Ok((c, t)),
            Val::Bool(..) => unreachable!("type checker guarantees int expression"),
        }
    }

    fn eval_bool(&mut self, e: &Expr) -> Result<(bool, S::Term), Outcome> {
        match self.eval(e)? {
            Val::Bool(c, t) => Ok((c, t)),
            Val::Int(..) => unreachable!("type checker guarantees bool expression"),
        }
    }

    fn eval(&mut self, e: &Expr) -> Result<Val<S::Term>, Outcome> {
        match e {
            Expr::Int(v, _) => Ok(Val::Int(*v, self.shadow.term(TermOp::Int(*v)))),
            Expr::Bool(b, _) => Ok(Val::Bool(*b, self.shadow.term(TermOp::Bool(*b)))),
            Expr::Var(name, _) => match self.env.0.get(name) {
                Some(Slot::Scalar(v)) => Ok(*v),
                _ => unreachable!("type checker guarantees declared scalar"),
            },
            Expr::Index(name, idx, span) => {
                let (i, it) = self.eval_int(idx)?;
                if self.speculating {
                    // The cell's term holds only where the index is `i`, a
                    // pin the run never makes.
                    return Err(crash(CrashKind::IndexOutOfBounds, *span));
                }
                self.shadow.pin(it, i);
                match self.env.0.get(name) {
                    Some(Slot::Array(arr)) => {
                        let cell = usize::try_from(i).ok().and_then(|i| arr.get(i));
                        let &(c, t) = cell.ok_or(crash(CrashKind::IndexOutOfBounds, *span))?;
                        Ok(Val::Int(c, t))
                    }
                    _ => unreachable!("type checker guarantees array"),
                }
            }
            Expr::Unary(UnOp::Neg, inner, _) => {
                let x = self.eval_int(inner)?;
                let (c, t) = self.neg(x);
                Ok(Val::Int(c, t))
            }
            Expr::Unary(UnOp::Not, inner, _) => {
                let (c, t) = self.eval_bool(inner)?;
                Ok(Val::Bool(!c, self.shadow.term(TermOp::Not(t))))
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b, _) => self.logical(*op, a, b),
            Expr::Binary(op, a, b, span) => {
                let x = self.eval_int(a)?;
                let y = self.eval_int(b)?;
                let aop = match op {
                    BinOp::Add => ArithOp::Add,
                    BinOp::Sub => ArithOp::Sub,
                    BinOp::Mul => ArithOp::Mul,
                    BinOp::Div if y.0 == 0 => return Err(crash(CrashKind::DivByZero, *span)),
                    BinOp::Div => ArithOp::Div,
                    BinOp::Rem if y.0 == 0 => return Err(crash(CrashKind::RemByZero, *span)),
                    BinOp::Rem => ArithOp::Rem,
                    _ => {
                        let cop = match op {
                            BinOp::Eq => CmpOp::Eq,
                            BinOp::Ne => CmpOp::Ne,
                            BinOp::Lt => CmpOp::Lt,
                            BinOp::Le => CmpOp::Le,
                            BinOp::Gt => CmpOp::Gt,
                            _ => CmpOp::Ge,
                        };
                        let (c, t) = self.cmp(cop, x, y);
                        return Ok(Val::Bool(c, t));
                    }
                };
                let (c, t) = self.arith(aop, x, y);
                Ok(Val::Int(c, t))
            }
            Expr::Call(builtin, args, span) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_int(a)?);
                }
                let (c, t) = self.builtin(*builtin, &vals, *span)?;
                Ok(Val::Int(c, t))
            }
            Expr::UserCall(name, args, _) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_int(a)?);
                }
                let f = self
                    .functions
                    .iter()
                    .find(|f| f.name == *name)
                    .expect("type checker guarantees declared function");
                // Pure call in a fresh scope holding only the parameters;
                // the caller's environment is restored afterwards. The
                // callee's branches are the shadow's like any other, as if
                // the call were inlined.
                let callee = f
                    .params
                    .iter()
                    .zip(vals)
                    .map(|(p, (c, t))| (p.clone(), Slot::Scalar(Val::Int(c, t))))
                    .collect();
                let saved = std::mem::replace(&mut self.env.0, callee);
                let mark = self.declared.len();
                let flow = self.stmts(&f.body);
                self.declared.truncate(mark);
                self.env.0 = saved;
                match flow? {
                    Flow::Return(c, t) => Ok(Val::Int(c, t)),
                    Flow::Normal => Ok(Val::Int(0, self.shadow.term(TermOp::Int(0)))),
                    Flow::Stop(o) => Err(o),
                }
            }
            Expr::Hole(kind, _, _) => {
                if self.speculating {
                    // The hole's term is the patch's formula at an
                    // evaluation the run never made: no term to give.
                    return Err(Outcome::MissingPatch);
                }
                self.patch_hits += 1;
                let (value, t) = self
                    .shadow
                    .hole(*kind, &self.env)
                    .ok_or(Outcome::MissingPatch)?;
                Ok(match (kind, value) {
                    (HoleKind::Cond, Value::Bool(b)) => Val::Bool(b, t),
                    (HoleKind::Cond, Value::Int(v)) => Val::Bool(v != 0, t),
                    (HoleKind::IntExpr, Value::Int(v)) => Val::Int(v, t),
                    (HoleKind::IntExpr, Value::Bool(b)) => Val::Int(i64::from(b), t),
                })
            }
        }
    }

    /// `a && b` and `a || b`, short-circuit: when `a` decides the result,
    /// `b` takes no part in the run. Its term still joins `a`'s (see
    /// [`Eval::speculate`]), so the branch term is `and/or(a, b)` unless
    /// evaluating `b` would have failed.
    fn logical(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Val<S::Term>, Outcome> {
        let (x, xt) = self.eval_bool(a)?;
        let (c, yt) = if x == (op == BinOp::Or) {
            (x, self.speculate(b))
        } else {
            let (y, yt) = self.eval_bool(b)?;
            (y, Some(yt))
        };
        let t = match yt {
            Some(yt) if op == BinOp::And => self.shadow.term(TermOp::And(xt, yt)),
            Some(yt) => self.shadow.term(TermOp::Or(xt, yt)),
            None => xt,
        };
        Ok(Val::Bool(c, t))
    }

    /// Evaluates `e`, an operand the other one decided, for its term only.
    /// The evaluation fails, and the result is `None`, wherever the term
    /// would hold only under a constraint or effect the run never makes: an
    /// array index (its pin), a user call (its statements and branches), the
    /// hole, or a crash. It is `None` too when the shadow builds no terms.
    /// So a speculated operand records nothing and spends no step.
    fn speculate(&mut self, e: &Expr) -> Option<S::Term> {
        if !S::BUILDS_TERMS {
            return None;
        }
        let speculating = std::mem::replace(&mut self.speculating, true);
        let result = self.eval_bool(e);
        self.speculating = speculating;
        result.ok().map(|(_, t)| t)
    }

    fn arith(&mut self, op: ArithOp, x: (i64, S::Term), y: (i64, S::Term)) -> (i64, S::Term) {
        (
            op.apply(x.0, y.0),
            self.shadow.term(TermOp::Arith(op, x.1, y.1)),
        )
    }

    fn cmp(&mut self, op: CmpOp, x: (i64, S::Term), y: (i64, S::Term)) -> (bool, S::Term) {
        (
            op.apply(x.0, y.0),
            self.shadow.term(TermOp::Cmp(op, x.1, y.1)),
        )
    }

    fn ite(
        &mut self,
        cond: (bool, S::Term),
        x: (i64, S::Term),
        y: (i64, S::Term),
    ) -> (i64, S::Term) {
        let c = if cond.0 { x.0 } else { y.0 };
        (c, self.shadow.term(TermOp::Ite(cond.1, x.1, y.1)))
    }

    fn int(&mut self, v: i64) -> (i64, S::Term) {
        (v, self.shadow.term(TermOp::Int(v)))
    }

    fn neg(&mut self, x: (i64, S::Term)) -> (i64, S::Term) {
        (x.0.saturating_neg(), self.shadow.term(TermOp::Neg(x.1)))
    }

    /// A builtin, with its value computed by the same operations as its
    /// term.
    fn builtin(
        &mut self,
        builtin: Builtin,
        args: &[(i64, S::Term)],
        span: Span,
    ) -> Result<(i64, S::Term), Outcome> {
        Ok(match (builtin, args) {
            (Builtin::Min, &[a, b]) => {
                let le = self.cmp(CmpOp::Le, a, b);
                self.ite(le, a, b)
            }
            (Builtin::Max, &[a, b]) => {
                let ge = self.cmp(CmpOp::Ge, a, b);
                self.ite(ge, a, b)
            }
            (Builtin::Abs, &[a]) => {
                let zero = self.int(0);
                let ge = self.cmp(CmpOp::Ge, a, zero);
                let neg = self.neg(a);
                self.ite(ge, a, neg)
            }
            (Builtin::Roundup, &[_, (0, _)]) => return Err(crash(CrashKind::RoundupByZero, span)),
            (Builtin::Roundup, &[a, b]) => {
                // ((a + b - 1) / b) * b: the smallest multiple of b that is
                // >= a for positive b, saturating like every operation.
                let one = self.int(1);
                let ab = self.arith(ArithOp::Add, a, b);
                let ab1 = self.arith(ArithOp::Sub, ab, one);
                let q = self.arith(ArithOp::Div, ab1, b);
                self.arith(ArithOp::Mul, q, b)
            }
            _ => unreachable!("type checker guarantees builtin arity"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::types::check;
    use cpr_smt::Sort;

    fn run(src: &str, inputs: &[(&str, i64)]) -> RunResult {
        let prog = parse(src).unwrap();
        check(&prog).unwrap();
        let map: HashMap<String, i64> = inputs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        Interp::new().run(&prog, &map, None)
    }

    #[test]
    fn short_circuit_skips_the_decided_operand() {
        // The right operand would divide by zero, index out of bounds or
        // reach the hole; the left one decides, so it never runs.
        let r = run(
            "program p { input x in [-5, 5]; if (x == 0 || 10 / x > 1) { return 1; } return 0; }",
            &[("x", 0)],
        );
        assert_eq!(r.outcome, Outcome::Returned(1));
        let r = run(
            "program p { input x in [0, 9]; var a: int[4];
               if (x < 4 && a[x] == 0) { return 1; } return 0; }",
            &[("x", 7)],
        );
        assert_eq!(r.outcome, Outcome::Returned(0));
        let r = run(
            "program p { input x in [0, 9];
               if (x > 5 && __patch_cond__(x)) { return 1; } return 0; }",
            &[("x", 2)],
        );
        assert_eq!((r.outcome, r.patch_hits), (Outcome::Returned(0), 0));
    }

    #[test]
    fn roundup_saturates_instead_of_overflowing() {
        // a saturates to i64::MAX; a + 3 - 1 saturates too, so the result
        // is the largest multiple of 3 below i64::MAX, as under the term's
        // saturating evaluation.
        let r = run(
            "program p { input x in [0, 4];
               var a: int = x * 4611686018427387904; return roundup(a, 3); }",
            &[("x", 2)],
        );
        assert_eq!(r.outcome, Outcome::Returned(9_223_372_036_854_775_806));
    }

    #[test]
    fn blocks_drop_their_names_and_keep_redeclared_outer_values() {
        // `y` is redeclared inside the block: the outer binding keeps the
        // value the block left. `z` is new in the loop body: it is gone
        // after every iteration, so each iteration and the outer scope may
        // declare it afresh.
        let src = "program p {
            input x in [0, 9];
            var y: int = 1;
            var i: int = 0;
            while (i < x) { var z: int = i; y = y + z; i = i + 1; }
            if (x > 0) { var y: int = 5; var w: int = 2; y = y + w; }
            var z: int = 7;
            var w: int = 3;
            return y * 100 + z * 10 + w;
        }";
        let prog = parse(src).unwrap();
        let map: HashMap<String, i64> = [("x".to_string(), 3)].into_iter().collect();
        assert_eq!(
            Interp::new().run(&prog, &map, None).outcome,
            Outcome::Returned(773)
        );
    }

    #[test]
    fn straight_line_arithmetic() {
        let r = run(
            "program p { input x in [0, 9]; return x * 3 + 1; }",
            &[("x", 4)],
        );
        assert_eq!(r.outcome, Outcome::Returned(13));
    }

    #[test]
    fn missing_input_defaults_to_range_low() {
        let r = run("program p { input x in [5, 9]; return x; }", &[]);
        assert_eq!(r.outcome, Outcome::Returned(5));
    }

    #[test]
    fn division_by_zero_crashes() {
        let r = run(
            "program p { input x in [-5, 5]; return 10 / x; }",
            &[("x", 0)],
        );
        assert!(matches!(
            r.outcome,
            Outcome::Crash {
                kind: CrashKind::DivByZero,
                ..
            }
        ));
    }

    #[test]
    fn remainder_by_zero_crashes() {
        let r = run(
            "program p { input x in [-5, 5]; return 10 % x; }",
            &[("x", 0)],
        );
        assert!(matches!(
            r.outcome,
            Outcome::Crash {
                kind: CrashKind::RemByZero,
                ..
            }
        ));
    }

    #[test]
    fn array_out_of_bounds_crashes() {
        let r = run(
            "program p { input i in [0, 20]; var a: int[4]; return a[i]; }",
            &[("i", 9)],
        );
        assert!(matches!(
            r.outcome,
            Outcome::Crash {
                kind: CrashKind::IndexOutOfBounds,
                ..
            }
        ));
        let ok = run(
            "program p { input i in [0, 20]; var a: int[4]; a[i] = 7; return a[i]; }",
            &[("i", 3)],
        );
        assert_eq!(ok.outcome, Outcome::Returned(7));
    }

    #[test]
    fn loops_and_builtins() {
        let r = run(
            "program p {
               input n in [1, 10];
               var i: int = 0;
               var acc: int = 0;
               while (i < n) { acc = acc + i; i = i + 1; }
               return max(acc, 3);
             }",
            &[("n", 5)],
        );
        assert_eq!(r.outcome, Outcome::Returned(10));
    }

    #[test]
    fn roundup_matches_libtiff_helper() {
        let r = run(
            "program p { input a in [0, 100]; input b in [1, 10]; return roundup(a, b); }",
            &[("a", 10), ("b", 4)],
        );
        assert_eq!(r.outcome, Outcome::Returned(12));
        let crash = run(
            "program p { input a in [0, 100]; input b in [0, 10]; return roundup(a, b); }",
            &[("a", 10), ("b", 0)],
        );
        assert!(matches!(
            crash.outcome,
            Outcome::Crash {
                kind: CrashKind::RoundupByZero,
                ..
            }
        ));
    }

    #[test]
    fn assert_and_assume() {
        let fail = run(
            "program p { input x in [0, 9]; assert(x > 5); return x; }",
            &[("x", 2)],
        );
        assert!(matches!(fail.outcome, Outcome::AssertFailed { .. }));
        let vacuous = run(
            "program p { input x in [0, 9]; assume(x > 5); return x; }",
            &[("x", 2)],
        );
        assert_eq!(vacuous.outcome, Outcome::AssumeFailed);
    }

    #[test]
    fn bug_location_spec_violation() {
        let src = "program p {
            input x in [-10, 10];
            input y in [-10, 10];
            bug div_by_zero requires (x * y != 0);
            return 100 / (x * y);
          }";
        let bad = run(src, &[("x", 7), ("y", 0)]);
        assert!(
            matches!(bad.outcome, Outcome::SpecViolated { ref bug, .. } if bug == "div_by_zero")
        );
        assert_eq!(bad.bug_hits, 1);
        let good = run(src, &[("x", 5), ("y", 2)]);
        assert_eq!(good.outcome, Outcome::Returned(10));
        assert_eq!(good.bug_hits, 1);
    }

    #[test]
    fn step_limit_stops_divergence() {
        let prog = parse("program p { while (true) { } return 0; }").unwrap();
        check(&prog).unwrap();
        let r = Interp::with_max_steps(100).run(&prog, &HashMap::new(), None);
        assert_eq!(r.outcome, Outcome::StepLimit);
    }

    #[test]
    fn hole_without_patch_is_reported() {
        let r = run(
            "program p { input x in [0,9]; if (__patch_cond__(x)) { return 1; } return 0; }",
            &[("x", 1)],
        );
        assert_eq!(r.outcome, Outcome::MissingPatch);
        assert_eq!(r.patch_hits, 1);
    }

    #[test]
    fn concrete_patch_is_spliced() {
        let prog = parse(
            "program p {
               input x in [-10, 10];
               input y in [-10, 10];
               if (__patch_cond__(x, y)) { return 1; }
               bug div_by_zero requires (x * y != 0);
               return 100 / (x * y);
             }",
        )
        .unwrap();
        check(&prog).unwrap();

        // Patch: x == a || y == b with a=0, b=0 (the paper's correct patch).
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let y = pool.named_var("y", Sort::Int);
        let a = pool.var("a", Sort::Int);
        let b = pool.var("b", Sort::Int);
        let at = pool.var_term(a);
        let bt = pool.var_term(b);
        let ex = pool.eq(x, at);
        let ey = pool.eq(y, bt);
        let expr = pool.or(ex, ey);
        let mut binding = Model::new();
        binding.set(a, 0i64);
        binding.set(b, 0i64);
        let patch = ConcretePatch {
            pool: &pool,
            expr,
            binding,
        };

        let interp = Interp::new();
        // y == 0 would crash; patch routes it to the early return.
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), 7i64);
        inputs.insert("y".to_string(), 0i64);
        let r = interp.run(&prog, &inputs, Some(&patch));
        assert_eq!(r.outcome, Outcome::Returned(1));
        assert_eq!(r.patch_hits, 1);
        assert_eq!(r.bug_hits, 0);

        // Non-zero inputs flow through the division safely.
        inputs.insert("y".to_string(), 2i64);
        let r = interp.run(&prog, &inputs, Some(&patch));
        assert_eq!(r.outcome, Outcome::Returned(100 / 14));
        assert_eq!(r.bug_hits, 1);
    }

    #[test]
    fn user_functions_evaluate_purely() {
        let r = run(
            "program p {
               fn clamp_low(v: int, lo: int) -> int {
                 if (v < lo) { return lo; }
                 return v;
               }
               input x in [-10, 10];
               var v: int = 7;
               var y: int = clamp_low(x, 0);
               return y * 10 + v;
             }",
            &[("x", -3)],
        );
        // The callee's local scope must not leak into or read the caller's
        // `v`; clamp_low(-3, 0) = 0.
        assert_eq!(r.outcome, Outcome::Returned(7));
        let r = run(
            "program p {
               fn clamp_low(v: int, lo: int) -> int {
                 if (v < lo) { return lo; }
                 return v;
               }
               input x in [-10, 10];
               return clamp_low(x, 0);
             }",
            &[("x", 5)],
        );
        assert_eq!(r.outcome, Outcome::Returned(5));
    }

    #[test]
    fn recursive_function_with_budget() {
        let src = "program p {
            fn fact(n: int) -> int {
              if (n <= 1) { return 1; }
              return n * fact(n - 1);
            }
            input n in [0, 10];
            return fact(n);
          }";
        let r = run(src, &[("n", 5)]);
        assert_eq!(r.outcome, Outcome::Returned(120));
        // Unbounded recursion hits the step budget instead of diverging.
        let bad = "program p {
            fn spin(n: int) -> int { return spin(n); }
            input n in [0, 10];
            return spin(n);
          }";
        let prog = parse(bad).unwrap();
        check(&prog).unwrap();
        let r = Interp::with_max_steps(200).run(&prog, &HashMap::new(), None);
        assert_eq!(r.outcome, Outcome::StepLimit);
    }

    #[test]
    fn function_crash_propagates() {
        let r = run(
            "program p {
               fn inv(n: int) -> int { return 100 / n; }
               input x in [-5, 5];
               return inv(x);
             }",
            &[("x", 0)],
        );
        assert!(matches!(
            r.outcome,
            Outcome::Crash {
                kind: CrashKind::DivByZero,
                ..
            }
        ));
    }

    #[test]
    fn outcome_classification() {
        assert!(Outcome::Returned(3).is_success());
        assert!(!Outcome::Returned(3).is_failure());
        assert!(Outcome::AssertFailed {
            span: Span::default()
        }
        .is_failure());
        assert!(!Outcome::AssumeFailed.is_failure());
    }
}

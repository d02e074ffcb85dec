//! Concrete interpreter for the subject language.
//!
//! The interpreter plays two roles in the reproduction:
//!
//! * it is the **test oracle**: running a (patched) program on a concrete
//!   input reveals crashes, assertion failures and specification violations,
//!   exactly like executing an instrumented binary in the original tool;
//! * it is the **sanitizer**: divide-by-zero, remainder-by-zero and
//!   out-of-bounds accesses abort execution with a [`CrashKind`], mirroring
//!   the sanitizer-instrumented subjects of the ExtractFix benchmark.

use std::collections::HashMap;

use cpr_smt::{Model, Sort, TermId, TermPool, Value};

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

impl<'a> ConcretePatch<'a> {
    /// Evaluates the patch under the current program environment.
    fn eval(&self, lookup: impl Fn(&str) -> Option<i64>) -> Value {
        self.binding.eval_overlay(self.pool, self.expr, |v| {
            lookup(self.pool.var_name(v)).map(Value::Int)
        })
    }
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

#[derive(Debug, Clone)]
enum Slot {
    Int(i64),
    Bool(bool),
    Array(Vec<i64>),
}

/// The concrete interpreter. Construct once and reuse across runs.
#[derive(Debug, Clone)]
pub struct Interp {
    max_steps: u64,
}

impl Default for Interp {
    fn default() -> Self {
        Interp { max_steps: 100_000 }
    }
}

enum Flow {
    Normal,
    Return(i64),
    Stop(Outcome),
}

struct RunState<'a> {
    env: HashMap<String, Slot>,
    /// Names each open block declared, innermost last (see [`exec_block`]).
    declared: Vec<String>,
    functions: &'a [FunDecl],
    patch: Option<&'a ConcretePatch<'a>>,
    patch_hits: u32,
    bug_hits: u32,
    steps: u64,
    max_steps: u64,
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
        let mut st = RunState {
            env: HashMap::new(),
            declared: Vec::new(),
            functions: &program.functions,
            patch,
            patch_hits: 0,
            bug_hits: 0,
            steps: 0,
            max_steps: self.max_steps,
        };
        for decl in &program.inputs {
            let v = inputs.get(&decl.name).copied().unwrap_or(decl.lo);
            st.env.insert(decl.name.clone(), Slot::Int(v));
        }
        let outcome = match exec_stmts(&program.body, &mut st) {
            Ok(Flow::Return(v)) => Outcome::Returned(v),
            Ok(Flow::Normal) => Outcome::Returned(0),
            Ok(Flow::Stop(o)) => o,
            Err(o) => o,
        };
        RunResult {
            outcome,
            patch_hits: st.patch_hits,
            bug_hits: st.bug_hits,
            steps: st.steps,
        }
    }

    /// Convenience: runs the program and builds the input map from a model
    /// whose variable *names* match the program's input names.
    pub fn run_with_model(
        &self,
        program: &Program,
        pool: &TermPool,
        model: &Model,
        patch: Option<&ConcretePatch<'_>>,
    ) -> RunResult {
        let mut inputs = HashMap::new();
        for decl in &program.inputs {
            if let Some(var) = pool.find_var(&decl.name) {
                if pool.var_sort(var) == Sort::Int {
                    if let Some(v) = model.int(var) {
                        inputs.insert(decl.name.clone(), v);
                    }
                }
            }
        }
        self.run(program, &inputs, patch)
    }
}

impl RunState<'_> {
    /// Binds `name` to `slot`, recording the name as declared by the
    /// innermost open block when it is new to the environment.
    fn bind(&mut self, name: &str, slot: Slot) {
        if let Some(old) = self.env.get_mut(name) {
            *old = slot;
        } else {
            self.env.insert(name.to_owned(), slot);
            self.declared.push(name.to_owned());
        }
    }
}

fn exec_stmts(stmts: &[Stmt], st: &mut RunState<'_>) -> Result<Flow, Outcome> {
    for s in stmts {
        match exec_stmt(s, st)? {
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
fn exec_block(stmts: &[Stmt], st: &mut RunState<'_>) -> Result<Flow, Outcome> {
    let mark = st.declared.len();
    let flow = exec_stmts(stmts, st);
    for name in st.declared.drain(mark..) {
        st.env.remove(&name);
    }
    flow
}

fn exec_stmt(stmt: &Stmt, st: &mut RunState<'_>) -> Result<Flow, Outcome> {
    st.steps += 1;
    if st.steps > st.max_steps {
        return Err(Outcome::StepLimit);
    }
    match stmt {
        Stmt::Decl { name, ty, init, .. } => {
            let slot = match (ty, init) {
                (Type::IntArray(n), _) => Slot::Array(vec![0; *n]),
                (Type::Int, Some(e)) => Slot::Int(eval_int(e, st)?),
                (Type::Int, None) => Slot::Int(0),
                (Type::Bool, Some(e)) => Slot::Bool(eval_bool(e, st)?),
                (Type::Bool, None) => Slot::Bool(false),
            };
            st.bind(name, slot);
            Ok(Flow::Normal)
        }
        Stmt::Assign { name, value, .. } => {
            let slot = match st.env.get(name) {
                Some(Slot::Bool(_)) => Slot::Bool(eval_bool(value, st)?),
                _ => Slot::Int(eval_int(value, st)?),
            };
            st.bind(name, slot);
            Ok(Flow::Normal)
        }
        Stmt::AssignIndex {
            name,
            index,
            value,
            span,
        } => {
            let i = eval_int(index, st)?;
            let v = eval_int(value, st)?;
            match st.env.get_mut(name) {
                Some(Slot::Array(arr)) => {
                    if i < 0 || i as usize >= arr.len() {
                        return Err(Outcome::Crash {
                            kind: CrashKind::IndexOutOfBounds,
                            span: *span,
                        });
                    }
                    arr[i as usize] = v;
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
            if eval_bool(cond, st)? {
                exec_block(then_body, st)
            } else {
                exec_block(else_body, st)
            }
        }
        Stmt::While { cond, body, .. } => {
            loop {
                st.steps += 1;
                if st.steps > st.max_steps {
                    return Err(Outcome::StepLimit);
                }
                if !eval_bool(cond, st)? {
                    break;
                }
                match exec_block(body, st)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
            }
            Ok(Flow::Normal)
        }
        Stmt::Return { value, .. } => Ok(Flow::Return(eval_int(value, st)?)),
        Stmt::Assert { cond, span } => {
            if eval_bool(cond, st)? {
                Ok(Flow::Normal)
            } else {
                Ok(Flow::Stop(Outcome::AssertFailed { span: *span }))
            }
        }
        Stmt::Assume { cond, .. } => {
            if eval_bool(cond, st)? {
                Ok(Flow::Normal)
            } else {
                Ok(Flow::Stop(Outcome::AssumeFailed))
            }
        }
        Stmt::Bug { name, spec, span } => {
            st.bug_hits += 1;
            if eval_bool(spec, st)? {
                Ok(Flow::Normal)
            } else {
                Ok(Flow::Stop(Outcome::SpecViolated {
                    bug: name.clone(),
                    span: *span,
                }))
            }
        }
    }
}

fn eval_int(e: &Expr, st: &mut RunState<'_>) -> Result<i64, Outcome> {
    match eval(e, st)? {
        Value::Int(v) => Ok(v),
        Value::Bool(_) => unreachable!("type checker guarantees int expression"),
    }
}

fn eval_bool(e: &Expr, st: &mut RunState<'_>) -> Result<bool, Outcome> {
    match eval(e, st)? {
        Value::Bool(b) => Ok(b),
        Value::Int(_) => unreachable!("type checker guarantees bool expression"),
    }
}

fn eval(e: &Expr, st: &mut RunState<'_>) -> Result<Value, Outcome> {
    match e {
        Expr::Int(v, _) => Ok(Value::Int(*v)),
        Expr::Bool(b, _) => Ok(Value::Bool(*b)),
        Expr::Var(name, _) => match st.env.get(name) {
            Some(Slot::Int(v)) => Ok(Value::Int(*v)),
            Some(Slot::Bool(b)) => Ok(Value::Bool(*b)),
            _ => unreachable!("type checker guarantees declared scalar"),
        },
        Expr::Index(name, idx, span) => {
            let i = eval_int(idx, st)?;
            match st.env.get(name) {
                Some(Slot::Array(arr)) => {
                    if i < 0 || i as usize >= arr.len() {
                        Err(Outcome::Crash {
                            kind: CrashKind::IndexOutOfBounds,
                            span: *span,
                        })
                    } else {
                        Ok(Value::Int(arr[i as usize]))
                    }
                }
                _ => unreachable!("type checker guarantees array"),
            }
        }
        Expr::Unary(UnOp::Neg, inner, _) => Ok(Value::Int(eval_int(inner, st)?.saturating_neg())),
        Expr::Unary(UnOp::Not, inner, _) => Ok(Value::Bool(!eval_bool(inner, st)?)),
        Expr::Binary(op, a, b, span) => {
            match op {
                BinOp::And => {
                    // Short-circuit.
                    return Ok(Value::Bool(eval_bool(a, st)? && eval_bool(b, st)?));
                }
                BinOp::Or => {
                    return Ok(Value::Bool(eval_bool(a, st)? || eval_bool(b, st)?));
                }
                _ => {}
            }
            let x = eval_int(a, st)?;
            let y = eval_int(b, st)?;
            let v = match op {
                BinOp::Add => Value::Int(x.saturating_add(y)),
                BinOp::Sub => Value::Int(x.saturating_sub(y)),
                BinOp::Mul => Value::Int(x.saturating_mul(y)),
                BinOp::Div => {
                    if y == 0 {
                        return Err(Outcome::Crash {
                            kind: CrashKind::DivByZero,
                            span: *span,
                        });
                    }
                    Value::Int(x.wrapping_div(y))
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err(Outcome::Crash {
                            kind: CrashKind::RemByZero,
                            span: *span,
                        });
                    }
                    Value::Int(x.wrapping_rem(y))
                }
                BinOp::Eq => Value::Bool(x == y),
                BinOp::Ne => Value::Bool(x != y),
                BinOp::Lt => Value::Bool(x < y),
                BinOp::Le => Value::Bool(x <= y),
                BinOp::Gt => Value::Bool(x > y),
                BinOp::Ge => Value::Bool(x >= y),
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            };
            Ok(v)
        }
        Expr::Call(builtin, args, span) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_int(a, st)?);
            }
            let v = match builtin {
                Builtin::Min => vals[0].min(vals[1]),
                Builtin::Max => vals[0].max(vals[1]),
                Builtin::Abs => vals[0].saturating_abs(),
                Builtin::Roundup => {
                    let (a, b) = (vals[0], vals[1]);
                    if b == 0 {
                        return Err(Outcome::Crash {
                            kind: CrashKind::RoundupByZero,
                            span: *span,
                        });
                    }
                    // Smallest multiple of b that is >= a (for positive b).
                    ((a + b - 1) / b) * b
                }
            };
            Ok(Value::Int(v))
        }
        Expr::UserCall(name, args, _) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_int(a, st)?);
            }
            let f = st
                .functions
                .iter()
                .find(|f| f.name == *name)
                .expect("type checker guarantees declared function");
            // Pure call: fresh scope holding only the parameters; the
            // caller's environment is restored afterwards.
            let mut callee_env: HashMap<String, Slot> = HashMap::new();
            for (p, v) in f.params.iter().zip(vals) {
                callee_env.insert(p.clone(), Slot::Int(v));
            }
            let saved = std::mem::replace(&mut st.env, callee_env);
            let mark = st.declared.len();
            let flow = exec_stmts(&f.body, st);
            st.declared.truncate(mark);
            st.env = saved;
            match flow? {
                Flow::Return(v) => Ok(Value::Int(v)),
                Flow::Normal => Ok(Value::Int(0)),
                Flow::Stop(o) => Err(o),
            }
        }
        Expr::Hole(kind, _, _) => {
            st.patch_hits += 1;
            let Some(patch) = st.patch else {
                return Err(Outcome::MissingPatch);
            };
            let value = patch.eval(|name| match st.env.get(name) {
                Some(Slot::Int(i)) => Some(*i),
                Some(Slot::Bool(b)) => Some(i64::from(*b)),
                Some(Slot::Array(_)) | None => None,
            });
            match (kind, value) {
                (HoleKind::Cond, Value::Bool(b)) => Ok(Value::Bool(b)),
                (HoleKind::Cond, Value::Int(v)) => Ok(Value::Bool(v != 0)),
                (HoleKind::IntExpr, Value::Int(v)) => Ok(Value::Int(v)),
                (HoleKind::IntExpr, Value::Bool(b)) => Ok(Value::Int(i64::from(b))),
            }
        }
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

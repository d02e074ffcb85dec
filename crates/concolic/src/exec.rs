//! The concolic executor: runs a subject program on a concrete input while
//! building the symbolic path constraint, injecting the patch formula `ψ_ρ`
//! at the hole, and capturing the specification `σ` at the bug location.

use std::collections::HashMap;

use cpr_lang::{ast::FunDecl, BinOp, Builtin, Expr, HoleKind, Outcome, Program, Stmt, Type, UnOp};
use cpr_smt::{Model, Sort, TermId, TermPool, Value, VarId};

/// The patch inserted into the program's hole during a concolic run.
///
/// `theta` is the patch expression `θ_ρ(X_P, A)` over *pool variables whose
/// names match program variables* plus template parameter variables. During
/// symbolic evaluation the program variables are substituted by their current
/// symbolic values (that substitution is the paper's patch formula `ψ_ρ`);
/// the parameters stay symbolic. During concrete evaluation the parameters
/// take the representative values in `params`.
#[derive(Debug, Clone)]
pub struct HolePatch {
    /// Patch expression `θ_ρ`.
    pub theta: TermId,
    /// Representative concrete parameter values used to drive execution.
    pub params: Model,
}

/// One recorded branch decision: the constraint is already oriented (negated
/// when the false branch was taken).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// The oriented branch constraint over inputs `X` and parameters `A`.
    pub constraint: TermId,
    /// For steps produced by the patch hole: the index of the associated
    /// observation (see [`HoleObservation`]) and the branch polarity taken
    /// (condition holes) or `true` (expression holes, whose step is the
    /// defining equation).
    pub patch_obs: Option<(usize, bool)>,
}

impl PathStep {
    /// Whether the constraint stems from evaluating the patch hole.
    pub fn from_patch(&self) -> bool {
        self.patch_obs.is_some()
    }
}

/// Snapshot of the symbolic state at one evaluation of the patch hole.
///
/// This is the paper's first-order encoding of the patch formula `ψ_ρ`:
/// given any template `θ`, substituting each program variable by its
/// symbolic value in `subst` yields `ψ` for *that* patch at *this* hole
/// evaluation — so a single concolic run can be re-targeted at every patch
/// in the pool during `Reduce`.
#[derive(Debug, Clone)]
pub struct HoleObservation {
    /// Program variable name → symbolic value at the hole.
    pub subst: HashMap<String, TermId>,
    /// For expression holes: the fresh output variable `__hole_k` that
    /// carries the patch value through the rest of the path.
    pub out_var: Option<VarId>,
}

/// Result of one concolic run.
#[derive(Debug, Clone)]
pub struct ConcolicResult {
    /// Oriented branch constraints in execution order (the path constraint
    /// `φ_t` is their conjunction).
    pub path: Vec<PathStep>,
    /// The symbolic specification `σ` captured at the bug location (over
    /// inputs and parameters), if the bug location was reached.
    pub sigma: Option<TermId>,
    /// Whether the patch hole was evaluated (`hit_patch` in Algorithm 1).
    pub hit_patch: bool,
    /// Whether the bug location was reached (`hit_bug` in Algorithm 1).
    pub hit_bug: bool,
    /// Concrete outcome of the run.
    pub outcome: Outcome,
    /// The concrete input the run used.
    pub inputs: Model,
    /// Statements executed.
    pub steps: u64,
    /// One entry per evaluation of the patch hole, in execution order.
    pub observations: Vec<HoleObservation>,
    /// Symbolic conditions of the `assert` statements evaluated on this
    /// path (the failed one included, when the outcome is `AssertFailed`).
    /// Assertions are partial specifications (paper §1), so they take part
    /// in patch reduction alongside the bug location's `σ`.
    pub asserts: Vec<TermId>,
}

impl ConcolicResult {
    /// The path constraint `φ_t` as a single conjunction.
    pub fn path_constraint(&self, pool: &mut TermPool) -> TermId {
        pool.and_many(self.path.iter().map(|s| s.constraint))
    }

    /// The branch constraints only (oriented), without patch bookkeeping.
    pub fn constraints(&self) -> Vec<TermId> {
        self.path.iter().map(|s| s.constraint).collect()
    }

    /// The full specification observed on this path: the bug location's `σ`
    /// conjoined with every executed assertion. `None` when neither was
    /// reached (no reduction is possible then).
    pub fn spec_term(&self, pool: &mut TermPool) -> Option<TermId> {
        let mut parts: Vec<TermId> = Vec::new();
        if let Some(s) = self.sigma {
            parts.push(s);
        }
        parts.extend(self.asserts.iter().copied());
        if parts.is_empty() {
            None
        } else {
            Some(pool.and_many(parts))
        }
    }

    /// Whether any specification (bug location or assertion) was observed.
    pub fn spec_observed(&self) -> bool {
        self.sigma.is_some() || !self.asserts.is_empty()
    }

    /// Re-targets the recorded path at another patch template: every
    /// patch-hole step is replaced by `θ`'s formula in the same polarity
    /// (`ψ_ρ` oriented the way the partition went), all other steps are kept
    /// verbatim. This is what lets the Reduce step of Algorithm 2 reason
    /// about every patch in the pool from a single concolic run.
    pub fn constraints_for_patch(&self, pool: &mut TermPool, theta: TermId) -> Vec<TermId> {
        self.patched_prefix(pool, theta, self.path.len(), false)
    }

    /// Batch form of [`ConcolicResult::constraints_for_patch`]: re-targets
    /// the path at every patch template in turn, interning all constraints
    /// into `pool`. This is the pre-interning hook for the parallel reduce
    /// phase — running it serially before forking the pool guarantees every
    /// worker agrees on the `TermId` of every path constraint.
    pub fn constraints_for_patches(
        &self,
        pool: &mut TermPool,
        thetas: &[TermId],
    ) -> Vec<Vec<TermId>> {
        thetas
            .iter()
            .map(|&theta| self.constraints_for_patch(pool, theta))
            .collect()
    }

    /// The first `upto` steps re-targeted at `theta` (see
    /// [`ConcolicResult::constraints_for_patch`]); when `flip_last` is set
    /// the final step is negated (generational search).
    ///
    /// # Panics
    ///
    /// Panics if `upto` is zero with `flip_last`, or exceeds the path length.
    pub fn patched_prefix(
        &self,
        pool: &mut TermPool,
        theta: TermId,
        upto: usize,
        flip_last: bool,
    ) -> Vec<TermId> {
        assert!(upto <= self.path.len(), "prefix exceeds path");
        let mut out = Vec::with_capacity(upto);
        // θ's variables, resolved on the first patch step and shared by
        // every later one.
        let mut theta_vars: Option<Vec<(VarId, String)>> = None;
        for (i, step) in self.path[..upto].iter().enumerate() {
            let mut c = match step.patch_obs {
                None => step.constraint,
                Some((obs_idx, polarity)) => {
                    let obs = &self.observations[obs_idx];
                    let vars = theta_vars.get_or_insert_with(|| named_vars(pool, theta));
                    let psi = substitute_theta(pool, theta, vars, &obs.subst);
                    match obs.out_var {
                        // Expression hole: defining equation __hole_k = ψ.
                        Some(out_var) => {
                            let hv = pool.var_term(out_var);
                            pool.eq(hv, psi)
                        }
                        // Condition hole: ψ oriented by the taken branch.
                        None => {
                            if polarity {
                                psi
                            } else {
                                pool.not(psi)
                            }
                        }
                    }
                }
            };
            if flip_last && i + 1 == upto {
                c = pool.not(c);
            }
            out.push(c);
        }
        out
    }
}

/// The variables of `theta` with their names, in `vars_of` order.
fn named_vars(pool: &TermPool, theta: TermId) -> Vec<(VarId, String)> {
    pool.vars_of(theta)
        .into_iter()
        .map(|v| (v, pool.var_name(v).to_owned()))
        .collect()
}

/// Substitutes the program variables of `theta` (its `theta_vars`, see
/// [`named_vars`]) by their symbolic values at a hole observation
/// (parameters and unknown names are left symbolic).
fn substitute_theta(
    pool: &mut TermPool,
    theta: TermId,
    theta_vars: &[(VarId, String)],
    subst: &HashMap<String, TermId>,
) -> TermId {
    let map: HashMap<VarId, TermId> = theta_vars
        .iter()
        .filter_map(|(v, name)| subst.get(name).map(|&sym| (*v, sym)))
        .collect();
    pool.substitute(theta, &map)
}

/// The concolic executor. Holds budgets; all per-run state is local.
#[derive(Debug, Clone)]
pub struct ConcolicExecutor {
    max_steps: u64,
    max_path_len: usize,
}

impl Default for ConcolicExecutor {
    fn default() -> Self {
        ConcolicExecutor {
            max_steps: 100_000,
            max_path_len: 512,
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Int { c: i64, s: TermId },
    Bool { c: bool, s: TermId },
    Array(Vec<(i64, TermId)>),
}

#[derive(Debug, Clone, Copy)]
struct DualInt {
    c: i64,
    s: TermId,
}

#[derive(Debug, Clone, Copy)]
struct DualBool {
    c: bool,
    s: TermId,
}

#[derive(Debug, Clone, Copy)]
enum Dual {
    Int(DualInt),
    Bool(DualBool),
}

enum Flow {
    Normal,
    Return(DualInt),
    Stop(Outcome),
}

struct ExecState<'a> {
    pool: &'a mut TermPool,
    env: HashMap<String, Slot>,
    functions: &'a [FunDecl],
    patch: Option<&'a HolePatch>,
    /// The patch's θ variables with their names, resolved once per run.
    theta_vars: Vec<(VarId, String)>,
    /// Names each open block declared, innermost last (see [`exec_block`]).
    declared: Vec<String>,
    path: Vec<PathStep>,
    sigma: Option<TermId>,
    hit_patch: bool,
    hit_bug: bool,
    steps: u64,
    max_steps: u64,
    max_path_len: usize,
    observations: Vec<HoleObservation>,
    asserts: Vec<TermId>,
    /// Observation index produced by the most recent hole evaluation, to be
    /// attached to the branch constraint recorded right after.
    pending_obs: Option<usize>,
}

impl ConcolicExecutor {
    /// Creates an executor with default budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an executor with custom step and path-length budgets.
    pub fn with_budgets(max_steps: u64, max_path_len: usize) -> Self {
        ConcolicExecutor {
            max_steps,
            max_path_len,
        }
    }

    /// Declares the program's inputs as pool variables (idempotent) and
    /// returns them in declaration order.
    pub fn input_vars(pool: &mut TermPool, program: &Program) -> Vec<VarId> {
        program
            .inputs
            .iter()
            .map(|i| pool.var(&i.name, Sort::Int))
            .collect()
    }

    /// Runs `program` concolically on the concrete `inputs` (a model over
    /// the input variables as named in the pool). Returns the path
    /// constraint, captured specification, hit flags, and the concrete
    /// outcome. `patch` fills the hole if present.
    pub fn execute(
        &self,
        pool: &mut TermPool,
        program: &Program,
        inputs: &Model,
        patch: Option<&HolePatch>,
    ) -> ConcolicResult {
        let mut env = HashMap::new();
        let mut input_model = Model::new();
        for decl in &program.inputs {
            let var = pool.var(&decl.name, Sort::Int);
            let sym = pool.var_term(var);
            let c = inputs.int(var).unwrap_or(decl.lo);
            input_model.set(var, c);
            env.insert(decl.name.clone(), Slot::Int { c, s: sym });
        }
        let theta_vars = patch.map_or_else(Vec::new, |p| named_vars(pool, p.theta));
        let mut st = ExecState {
            pool,
            env,
            functions: &program.functions,
            patch,
            theta_vars,
            declared: Vec::new(),
            path: Vec::new(),
            sigma: None,
            hit_patch: false,
            hit_bug: false,
            steps: 0,
            max_steps: self.max_steps,
            max_path_len: self.max_path_len,
            observations: Vec::new(),
            asserts: Vec::new(),
            pending_obs: None,
        };
        let outcome = match exec_stmts(&program.body, &mut st) {
            Ok(Flow::Return(v)) => Outcome::Returned(v.c),
            Ok(Flow::Normal) => Outcome::Returned(0),
            Ok(Flow::Stop(o)) => o,
            Err(o) => o,
        };
        ConcolicResult {
            path: st.path,
            sigma: st.sigma,
            hit_patch: st.hit_patch,
            hit_bug: st.hit_bug,
            outcome,
            inputs: input_model,
            steps: st.steps,
            observations: st.observations,
            asserts: st.asserts,
        }
    }
}

impl<'a> ExecState<'a> {
    /// Records a branch constraint. `polarity` is the direction taken; when
    /// the condition contained the patch hole, the pending observation is
    /// attached so Reduce can re-target the step at other patches.
    fn record(&mut self, constraint: TermId, polarity: bool, hole_in_cond: bool) {
        use cpr_smt::TermData;
        let patch_obs = if hole_in_cond {
            self.pending_obs.take().map(|i| (i, polarity))
        } else {
            None
        };
        // Skip constants unless they anchor a patch observation.
        if matches!(self.pool.data(constraint), TermData::BoolConst(_)) && patch_obs.is_none() {
            return;
        }
        if self.path.len() < self.max_path_len {
            self.path.push(PathStep {
                constraint,
                patch_obs,
            });
        }
    }

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

    fn budget(&mut self) -> Result<(), Outcome> {
        self.steps += 1;
        if self.steps > self.max_steps {
            Err(Outcome::StepLimit)
        } else {
            Ok(())
        }
    }
}

fn exec_stmts(stmts: &[Stmt], st: &mut ExecState<'_>) -> Result<Flow, Outcome> {
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
fn exec_block(stmts: &[Stmt], st: &mut ExecState<'_>) -> Result<Flow, Outcome> {
    let mark = st.declared.len();
    let flow = exec_stmts(stmts, st);
    for name in st.declared.drain(mark..) {
        st.env.remove(&name);
    }
    flow
}

fn exec_stmt(stmt: &Stmt, st: &mut ExecState<'_>) -> Result<Flow, Outcome> {
    st.budget()?;
    match stmt {
        Stmt::Decl { name, ty, init, .. } => {
            let slot = match (ty, init) {
                (Type::IntArray(n), _) => {
                    let zero = st.pool.int(0);
                    Slot::Array(vec![(0, zero); *n])
                }
                (Type::Int, Some(e)) => {
                    let v = eval_int(e, st)?;
                    Slot::Int { c: v.c, s: v.s }
                }
                (Type::Int, None) => {
                    let zero = st.pool.int(0);
                    Slot::Int { c: 0, s: zero }
                }
                (Type::Bool, Some(e)) => {
                    let v = eval_bool(e, st)?;
                    Slot::Bool { c: v.c, s: v.s }
                }
                (Type::Bool, None) => {
                    let f = st.pool.ff();
                    Slot::Bool { c: false, s: f }
                }
            };
            st.bind(name, slot);
            Ok(Flow::Normal)
        }
        Stmt::Assign { name, value, .. } => {
            let slot = match st.env.get(name) {
                Some(Slot::Bool { .. }) => {
                    let v = eval_bool(value, st)?;
                    Slot::Bool { c: v.c, s: v.s }
                }
                _ => {
                    let v = eval_int(value, st)?;
                    Slot::Int { c: v.c, s: v.s }
                }
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
            let idx = eval_int(index, st)?;
            let val = eval_int(value, st)?;
            // Concretize the index (standard concolic treatment of memory):
            // pin the symbolic index to its concrete value on this path.
            let idx_c = st.pool.int(idx.c);
            let pin = st.pool.eq(idx.s, idx_c);
            st.record(pin, true, false);
            match st.env.get_mut(name) {
                Some(Slot::Array(arr)) => {
                    if idx.c < 0 || idx.c as usize >= arr.len() {
                        return Err(Outcome::Crash {
                            kind: cpr_lang::CrashKind::IndexOutOfBounds,
                            span: *span,
                        });
                    }
                    arr[idx.c as usize] = (val.c, val.s);
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
            let c = eval_bool(cond, st)?;
            let hole = cond.contains_hole();
            if c.c {
                st.record(c.s, true, hole);
                exec_block(then_body, st)
            } else {
                let neg = st.pool.not(c.s);
                st.record(neg, false, hole);
                exec_block(else_body, st)
            }
        }
        Stmt::While { cond, body, .. } => {
            loop {
                st.budget()?;
                let c = eval_bool(cond, st)?;
                let hole = cond.contains_hole();
                if c.c {
                    st.record(c.s, true, hole);
                    match exec_block(body, st)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                } else {
                    let neg = st.pool.not(c.s);
                    st.record(neg, false, hole);
                    break;
                }
            }
            Ok(Flow::Normal)
        }
        Stmt::Return { value, .. } => {
            let v = eval_int(value, st)?;
            Ok(Flow::Return(v))
        }
        Stmt::Assert { cond, span } => {
            let c = eval_bool(cond, st)?;
            st.asserts.push(c.s);
            if c.c {
                Ok(Flow::Normal)
            } else {
                Ok(Flow::Stop(Outcome::AssertFailed { span: *span }))
            }
        }
        Stmt::Assume { cond, .. } => {
            let c = eval_bool(cond, st)?;
            if c.c {
                st.record(c.s, true, cond.contains_hole());
                Ok(Flow::Normal)
            } else {
                Ok(Flow::Stop(Outcome::AssumeFailed))
            }
        }
        Stmt::Bug { name, spec, span } => {
            st.hit_bug = true;
            let c = eval_bool(spec, st)?;
            // Capture σ symbolically regardless of the concrete verdict.
            st.sigma = Some(match st.sigma {
                None => c.s,
                Some(prev) => st.pool.and(prev, c.s),
            });
            if c.c {
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

fn eval_int(e: &Expr, st: &mut ExecState<'_>) -> Result<DualInt, Outcome> {
    match eval(e, st)? {
        Dual::Int(v) => Ok(v),
        Dual::Bool(_) => unreachable!("type checker guarantees int expression"),
    }
}

fn eval_bool(e: &Expr, st: &mut ExecState<'_>) -> Result<DualBool, Outcome> {
    match eval(e, st)? {
        Dual::Bool(v) => Ok(v),
        Dual::Int(_) => unreachable!("type checker guarantees bool expression"),
    }
}

fn eval(e: &Expr, st: &mut ExecState<'_>) -> Result<Dual, Outcome> {
    match e {
        Expr::Int(v, _) => {
            let s = st.pool.int(*v);
            Ok(Dual::Int(DualInt { c: *v, s }))
        }
        Expr::Bool(b, _) => {
            let s = st.pool.bool(*b);
            Ok(Dual::Bool(DualBool { c: *b, s }))
        }
        Expr::Var(name, _) => match st.env.get(name) {
            Some(Slot::Int { c, s }) => Ok(Dual::Int(DualInt { c: *c, s: *s })),
            Some(Slot::Bool { c, s }) => Ok(Dual::Bool(DualBool { c: *c, s: *s })),
            _ => unreachable!("type checker guarantees declared scalar"),
        },
        Expr::Index(name, idx, span) => {
            let i = eval_int(idx, st)?;
            let idx_c = st.pool.int(i.c);
            let pin = st.pool.eq(i.s, idx_c);
            st.record(pin, true, false);
            match st.env.get(name) {
                Some(Slot::Array(arr)) => {
                    if i.c < 0 || i.c as usize >= arr.len() {
                        Err(Outcome::Crash {
                            kind: cpr_lang::CrashKind::IndexOutOfBounds,
                            span: *span,
                        })
                    } else {
                        let (c, s) = arr[i.c as usize];
                        Ok(Dual::Int(DualInt { c, s }))
                    }
                }
                _ => unreachable!("type checker guarantees array"),
            }
        }
        Expr::Unary(UnOp::Neg, inner, _) => {
            let v = eval_int(inner, st)?;
            let s = st.pool.neg(v.s);
            Ok(Dual::Int(DualInt {
                c: v.c.saturating_neg(),
                s,
            }))
        }
        Expr::Unary(UnOp::Not, inner, _) => {
            let v = eval_bool(inner, st)?;
            let s = st.pool.not(v.s);
            Ok(Dual::Bool(DualBool { c: !v.c, s }))
        }
        Expr::Binary(op, a, b, span) => {
            if matches!(op, BinOp::And | BinOp::Or) {
                // Symbolically non-short-circuit (term construction is
                // total); concretely both operands are pure, so evaluating
                // the right side cannot change observable state except via
                // crashes, which the symbolic term algebra totalizes.
                let x = eval_bool(a, st)?;
                let y = eval_bool(b, st)?;
                let (c, s) = match op {
                    BinOp::And => (x.c && y.c, st.pool.and(x.s, y.s)),
                    BinOp::Or => (x.c || y.c, st.pool.or(x.s, y.s)),
                    _ => unreachable!(),
                };
                return Ok(Dual::Bool(DualBool { c, s }));
            }
            let x = eval_int(a, st)?;
            let y = eval_int(b, st)?;
            match op {
                BinOp::Add => Ok(Dual::Int(DualInt {
                    c: x.c.saturating_add(y.c),
                    s: st.pool.add(x.s, y.s),
                })),
                BinOp::Sub => Ok(Dual::Int(DualInt {
                    c: x.c.saturating_sub(y.c),
                    s: st.pool.sub(x.s, y.s),
                })),
                BinOp::Mul => Ok(Dual::Int(DualInt {
                    c: x.c.saturating_mul(y.c),
                    s: st.pool.mul(x.s, y.s),
                })),
                BinOp::Div => {
                    if y.c == 0 {
                        return Err(Outcome::Crash {
                            kind: cpr_lang::CrashKind::DivByZero,
                            span: *span,
                        });
                    }
                    Ok(Dual::Int(DualInt {
                        c: x.c.wrapping_div(y.c),
                        s: st.pool.div(x.s, y.s),
                    }))
                }
                BinOp::Rem => {
                    if y.c == 0 {
                        return Err(Outcome::Crash {
                            kind: cpr_lang::CrashKind::RemByZero,
                            span: *span,
                        });
                    }
                    Ok(Dual::Int(DualInt {
                        c: x.c.wrapping_rem(y.c),
                        s: st.pool.rem(x.s, y.s),
                    }))
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let cmp_op = match op {
                        BinOp::Eq => cpr_smt::CmpOp::Eq,
                        BinOp::Ne => cpr_smt::CmpOp::Ne,
                        BinOp::Lt => cpr_smt::CmpOp::Lt,
                        BinOp::Le => cpr_smt::CmpOp::Le,
                        BinOp::Gt => cpr_smt::CmpOp::Gt,
                        _ => cpr_smt::CmpOp::Ge,
                    };
                    let c = cmp_op.apply(x.c, y.c);
                    let s = st.pool.cmp(cmp_op, x.s, y.s);
                    Ok(Dual::Bool(DualBool { c, s }))
                }
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            }
        }
        Expr::Call(builtin, args, span) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_int(a, st)?);
            }
            match builtin {
                Builtin::Min => {
                    let cond = st.pool.le(vals[0].s, vals[1].s);
                    let s = st.pool.ite(cond, vals[0].s, vals[1].s);
                    Ok(Dual::Int(DualInt {
                        c: vals[0].c.min(vals[1].c),
                        s,
                    }))
                }
                Builtin::Max => {
                    let cond = st.pool.ge(vals[0].s, vals[1].s);
                    let s = st.pool.ite(cond, vals[0].s, vals[1].s);
                    Ok(Dual::Int(DualInt {
                        c: vals[0].c.max(vals[1].c),
                        s,
                    }))
                }
                Builtin::Abs => {
                    let zero = st.pool.int(0);
                    let cond = st.pool.ge(vals[0].s, zero);
                    let negated = st.pool.neg(vals[0].s);
                    let s = st.pool.ite(cond, vals[0].s, negated);
                    Ok(Dual::Int(DualInt {
                        c: vals[0].c.saturating_abs(),
                        s,
                    }))
                }
                Builtin::Roundup => {
                    let (a, b) = (vals[0], vals[1]);
                    if b.c == 0 {
                        return Err(Outcome::Crash {
                            kind: cpr_lang::CrashKind::RoundupByZero,
                            span: *span,
                        });
                    }
                    // ((a + b - 1) / b) * b with the pool's total division.
                    let one = st.pool.int(1);
                    let ab = st.pool.add(a.s, b.s);
                    let ab1 = st.pool.sub(ab, one);
                    let q = st.pool.div(ab1, b.s);
                    let s = st.pool.mul(q, b.s);
                    Ok(Dual::Int(DualInt {
                        c: ((a.c + b.c - 1) / b.c) * b.c,
                        s,
                    }))
                }
            }
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
            // Pure call in a fresh scope; branch constraints inside the
            // function body are recorded into the caller's path (the
            // partition includes the callee's control flow, exactly as if
            // the call were inlined).
            let mut callee_env: HashMap<String, Slot> = HashMap::new();
            for (p, v) in f.params.iter().zip(vals) {
                callee_env.insert(p.clone(), Slot::Int { c: v.c, s: v.s });
            }
            let saved = std::mem::replace(&mut st.env, callee_env);
            let mark = st.declared.len();
            let flow = exec_stmts(&f.body, st);
            st.declared.truncate(mark);
            st.env = saved;
            match flow? {
                Flow::Return(v) => Ok(Dual::Int(v)),
                Flow::Normal => {
                    let zero = st.pool.int(0);
                    Ok(Dual::Int(DualInt { c: 0, s: zero }))
                }
                Flow::Stop(o) => Err(o),
            }
        }
        Expr::Hole(kind, _, _) => {
            st.hit_patch = true;
            let Some(patch) = st.patch else {
                return Err(Outcome::MissingPatch);
            };
            // Snapshot the symbolic environment: this observation is the
            // first-order encoding of ψ_ρ and lets Reduce re-target the
            // path at every patch in the pool.
            let mut subst_by_name: HashMap<String, TermId> = HashMap::new();
            for (name, slot) in &st.env {
                let sym = match slot {
                    Slot::Int { s, .. } | Slot::Bool { s, .. } => *s,
                    Slot::Array(_) => continue,
                };
                subst_by_name.insert(name.clone(), sym);
            }

            // Symbolic value of θ_ρ0 at this point: program variables
            // replaced by their symbolic values, parameters left free.
            // Their concrete values drive the concrete evaluation.
            let mut subst: HashMap<VarId, TermId> = HashMap::new();
            let mut concrete_vars: Vec<(VarId, Value)> = Vec::new();
            for (v, name) in &st.theta_vars {
                let (c, s) = match st.env.get(name) {
                    Some(Slot::Int { c, s }) => (*c, *s),
                    Some(Slot::Bool { c, s }) => (i64::from(*c), *s),
                    Some(Slot::Array(_)) | None => continue,
                };
                subst.insert(*v, s);
                concrete_vars.push((*v, Value::Int(c)));
            }
            let psi = st.pool.substitute(patch.theta, &subst);

            // Concrete evaluation: parameters from the representative
            // binding, program variables from the concrete environment.
            let concrete = patch.params.eval_overlay(st.pool, patch.theta, |v| {
                concrete_vars
                    .iter()
                    .find(|&&(w, _)| w == v)
                    .map(|&(_, val)| val)
            });
            match kind {
                HoleKind::Cond => {
                    let obs_idx = st.observations.len();
                    st.observations.push(HoleObservation {
                        subst: subst_by_name,
                        out_var: None,
                    });
                    st.pending_obs = Some(obs_idx);
                    let c = match concrete {
                        Value::Bool(b) => b,
                        Value::Int(v) => v != 0,
                    };
                    Ok(Dual::Bool(DualBool { c, s: psi }))
                }
                HoleKind::IntExpr => {
                    // Route the value through a fresh output variable so
                    // that downstream constraints stay patch-independent.
                    let obs_idx = st.observations.len();
                    let out_var = st
                        .pool
                        .var(&format!("__hole_{obs_idx}"), cpr_smt::Sort::Int);
                    st.observations.push(HoleObservation {
                        subst: subst_by_name,
                        out_var: Some(out_var),
                    });
                    let hv = st.pool.var_term(out_var);
                    let eq = st.pool.eq(hv, psi);
                    // The defining equation is itself a patch step.
                    st.pending_obs = Some(obs_idx);
                    st.record(eq, true, true);
                    let c = match concrete {
                        Value::Int(v) => v,
                        Value::Bool(b) => i64::from(b),
                    };
                    Ok(Dual::Int(DualInt { c, s: hv }))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_lang::{check, parse};

    const DIV_SRC: &str = "program p {
        input x in [-10, 10];
        input y in [-10, 10];
        if (__patch_cond__(x, y)) { return 1; }
        bug div_by_zero requires (x * y != 0);
        return 100 / (x * y);
      }";

    fn input_model(pool: &mut TermPool, pairs: &[(&str, i64)]) -> Model {
        let mut m = Model::new();
        for (name, v) in pairs {
            let var = pool.var(name, Sort::Int);
            m.set(var, *v);
        }
        m
    }

    #[test]
    fn blocks_drop_their_names_and_keep_redeclared_outer_values() {
        // Mirrors the interpreter's scoping test: `y` redeclared inside a
        // block keeps the block's value; `z` and `w` vanish with their
        // block and are declared afresh outside it.
        let prog = parse(
            "program p {
               input x in [0, 9];
               var y: int = 1;
               var i: int = 0;
               while (i < x) { var z: int = i; y = y + z; i = i + 1; }
               if (x > 0) { var y: int = 5; var w: int = 2; y = y + w; }
               var z: int = 7;
               var w: int = 3;
               return y * 100 + z * 10 + w;
             }",
        )
        .unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("x", 3)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(773));
    }

    #[test]
    fn concolic_matches_concrete_interpreter() {
        let prog = parse("program p { input x in [-10, 10]; if (x > 3) { return 1; } return 0; }")
            .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("x", 7)]);
        let exec = ConcolicExecutor::new();
        let r = exec.execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(1));
        assert_eq!(r.path.len(), 1);
        // The recorded constraint holds for the concrete input.
        assert!(r.inputs.eval_bool(&pool, r.path[0].constraint));
        assert_eq!(pool.display(r.path[0].constraint), "(> x 3)");
    }

    #[test]
    fn false_branch_is_negated() {
        let prog = parse("program p { input x in [-10, 10]; if (x > 3) { return 1; } return 0; }")
            .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("x", 0)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(0));
        assert_eq!(pool.display(r.path[0].constraint), "(<= x 3)");
    }

    #[test]
    fn path_constraint_is_satisfied_by_the_inputs() {
        let prog = parse(
            "program p {
               input a in [-10, 10];
               input b in [-10, 10];
               var s: int = a + b;
               if (s > 5) { if (a > b) { return 2; } return 1; }
               while (s < 0) { s = s + 3; }
               return s;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        for (a, b) in [(9, 9), (-7, 2), (3, 3), (-10, -10)] {
            let mut pool = TermPool::new();
            let inputs = input_model(&mut pool, &[("a", a), ("b", b)]);
            let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
            for step in &r.path {
                assert!(
                    r.inputs.eval_bool(&pool, step.constraint),
                    "constraint {} not satisfied for a={a}, b={b}",
                    pool.display(step.constraint)
                );
            }
        }
    }

    #[test]
    fn bug_location_captures_sigma() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        // Patch: false (never take the early return).
        let theta = pool.ff();
        let patch = HolePatch {
            theta,
            params: Model::new(),
        };
        let inputs = input_model(&mut pool, &[("x", 7), ("y", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        assert!(r.hit_patch);
        assert!(r.hit_bug);
        assert_eq!(r.outcome, Outcome::Returned(100 / 14));
        let sigma = r.sigma.unwrap();
        assert_eq!(pool.display(sigma), "(distinct (* x y) 0)");
    }

    #[test]
    fn spec_violation_detected() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let theta = pool.ff();
        let patch = HolePatch {
            theta,
            params: Model::new(),
        };
        let inputs = input_model(&mut pool, &[("x", 7), ("y", 0)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        assert!(matches!(r.outcome, Outcome::SpecViolated { .. }));
        assert!(r.hit_bug);
        assert!(r.sigma.is_some());
    }

    #[test]
    fn patch_formula_is_injected_with_parameters() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        // θ := x >= a with representative a = 4.
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta = pool.ge(x, a);
        let mut params = Model::new();
        params.set(a_var, 4i64);
        let patch = HolePatch { theta, params };

        let inputs = input_model(&mut pool, &[("x", 7), ("y", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        // x=7 >= a=4, so the early return fires.
        assert_eq!(r.outcome, Outcome::Returned(1));
        assert!(r.hit_patch);
        assert!(!r.hit_bug);
        // The patch branch constraint mentions the *symbolic* parameter.
        let patch_step = r.path.iter().find(|s| s.from_patch()).unwrap();
        assert_eq!(pool.display(patch_step.constraint), "(>= x a)");
    }

    #[test]
    fn patch_condition_false_takes_else() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta = pool.ge(x, a);
        let mut params = Model::new();
        params.set(a_var, 4i64);
        let patch = HolePatch { theta, params };
        let inputs = input_model(&mut pool, &[("x", 1), ("y", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        assert_eq!(r.outcome, Outcome::Returned(50));
        let patch_step = r.path.iter().find(|s| s.from_patch()).unwrap();
        assert_eq!(pool.display(patch_step.constraint), "(< x a)");
    }

    #[test]
    fn expr_hole_substitutes_symbolically() {
        let prog = parse(
            "program p {
               input x in [-10, 10];
               var y: int = 0;
               y = __patch_expr__(x);
               if (y > 5) { return 1; }
               return 0;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        // θ := x + a, a = 3
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta = pool.add(x, a);
        let mut params = Model::new();
        params.set(a_var, 3i64);
        let patch = HolePatch { theta, params };
        let inputs = input_model(&mut pool, &[("x", 4)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        assert_eq!(r.outcome, Outcome::Returned(1));
        // The hole value flows through a fresh output variable: the first
        // step is the defining equation, the second is the branch on it.
        assert_eq!(pool.display(r.path[0].constraint), "(= __hole_0 (+ x a))");
        assert!(r.path[0].from_patch());
        assert_eq!(pool.display(r.path[1].constraint), "(> __hole_0 5)");
        assert_eq!(r.observations.len(), 1);
        assert!(r.observations[0].out_var.is_some());
        // Re-targeting at another template swaps only the equation.
        let y2 = pool.named_var("x", cpr_smt::Sort::Int);
        let two = pool.int(2);
        let theta2 = pool.mul(y2, two);
        let cs = r.constraints_for_patch(&mut pool, theta2);
        assert_eq!(pool.display(cs[0]), "(= __hole_0 (* x 2))");
        assert_eq!(pool.display(cs[1]), "(> __hole_0 5)");
    }

    #[test]
    fn retargeting_cond_hole_at_other_patches() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        // Execute with θ1 := x >= a (a = 4); retarget at θ2 := y < b.
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta1 = pool.ge(x, a);
        let mut params = Model::new();
        params.set(a_var, 4i64);
        let patch = HolePatch {
            theta: theta1,
            params,
        };
        let inputs = input_model(&mut pool, &[("x", 1), ("y", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        // Patch branch went false (x=1 < a=4): partition took the buggy path.
        let y = pool.named_var("y", Sort::Int);
        let b_var = pool.var("b", Sort::Int);
        let b = pool.var_term(b_var);
        let theta2 = pool.lt(y, b);
        let cs = r.constraints_for_patch(&mut pool, theta2);
        // The patch step is now ¬(y < b), same polarity as executed.
        assert!(
            cs.iter().any(|&c| pool.display(c) == "(>= y b)"),
            "{:?}",
            cs.iter().map(|&c| pool.display(c)).collect::<Vec<_>>()
        );
        // And θ1's parameter no longer occurs anywhere.
        for &c in &cs {
            assert!(!pool.contains_var(c, a_var), "{}", pool.display(c));
        }
    }

    #[test]
    fn patched_prefix_flips_last_step() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta = pool.ge(x, a);
        let mut params = Model::new();
        params.set(a_var, 4i64);
        let patch = HolePatch { theta, params };
        let inputs = input_model(&mut pool, &[("x", 7), ("y", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        let full = r.constraints_for_patch(&mut pool, theta);
        let flipped = r.patched_prefix(&mut pool, theta, 1, true);
        assert_eq!(flipped.len(), 1);
        let expected = pool.not(full[0]);
        assert_eq!(flipped[0], expected);
    }

    #[test]
    fn loops_unroll_in_path() {
        let prog = parse(
            "program p {
               input n in [0, 5];
               var i: int = 0;
               while (i < n) { i = i + 1; }
               return i;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("n", 3)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(3));
        // 3 true iterations + 1 exit constraint.
        assert_eq!(r.path.len(), 4);
    }

    #[test]
    fn array_index_concretization_pins_symbolic_index() {
        let prog = parse(
            "program p {
               input i in [0, 7];
               var a: int[8];
               a[i] = 42;
               return a[i];
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("i", 5)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(42));
        assert!(r
            .path
            .iter()
            .any(|s| pool.display(s.constraint) == "(= i 5)"));
    }

    #[test]
    fn user_function_branches_are_recorded_in_the_callers_path() {
        let prog = parse(
            "program p {
               fn clamp_low(v: int, lo: int) -> int {
                 if (v < lo) { return lo; }
                 return v;
               }
               input x in [-10, 10];
               var y: int = clamp_low(x, 0);
               if (y > 3) { return 1; }
               return 0;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("x", 7)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(1));
        // Two constraints: the callee's `v >= lo` branch and the caller's
        // `y > 3` branch, both over the input x.
        let shown: Vec<String> = r.path.iter().map(|s| pool.display(s.constraint)).collect();
        assert_eq!(shown, vec!["(>= x 0)", "(> x 3)"], "{shown:?}");
        // All constraints hold for the producing input.
        for step in &r.path {
            assert!(r.inputs.eval_bool(&pool, step.constraint));
        }
    }

    #[test]
    fn recursive_function_unrolls_concretely() {
        let prog = parse(
            "program p {
               fn triangle(n: int) -> int {
                 if (n <= 0) { return 0; }
                 return n + triangle(n - 1);
               }
               input n in [0, 6];
               return triangle(n);
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("n", 4)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(10));
        // One branch per recursive activation (4 false + 1 base case).
        assert_eq!(r.path.len(), 5);
    }

    #[test]
    fn step_limit_reports() {
        let prog = parse("program p { while (true) { } return 0; }").unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let r =
            ConcolicExecutor::with_budgets(50, 512).execute(&mut pool, &prog, &Model::new(), None);
        assert_eq!(r.outcome, Outcome::StepLimit);
    }

    #[test]
    fn path_length_budget_truncates_recording() {
        let prog = parse(
            "program p {
               input n in [0, 50];
               var i: int = 0;
               while (i < n) { i = i + 1; }
               return i;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("n", 40)]);
        let r = ConcolicExecutor::with_budgets(100_000, 8).execute(&mut pool, &prog, &inputs, None);
        // Execution completes concretely, but only the first 8 branch
        // constraints are recorded.
        assert_eq!(r.outcome, Outcome::Returned(40));
        assert_eq!(r.path.len(), 8);
    }

    #[test]
    fn assume_records_and_stops_on_failure() {
        let prog = parse("program p { input x in [0, 9]; assume(x > 4); return x; }").unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let ok = input_model(&mut pool, &[("x", 7)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &ok, None);
        assert_eq!(r.outcome, Outcome::Returned(7));
        assert_eq!(r.path.len(), 1);
        let bad = input_model(&mut pool, &[("x", 1)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &bad, None);
        assert_eq!(r.outcome, Outcome::AssumeFailed);
    }
}

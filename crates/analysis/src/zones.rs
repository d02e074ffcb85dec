//! Relational abstract interpretation of subject programs over the zone
//! (difference-bound) domain.
//!
//! Where [`crate::absint`] tracks one interval per scalar, this pass tracks
//! *differences*: bounds of the form `x - y <= c` and `±x <= c`, stored in a
//! difference-bound matrix (DBM) with a virtual zero variable `Z`. That is
//! exactly the relational strength the lint checks need on subject
//! programs — loop counters bounded by symbolic lengths (`i - len <= -1`),
//! offset chains (`x = y + 3`), and array-index safety against a symbolic
//! length variable `len$a` introduced for every array declaration.
//!
//! The interpreter mirrors [`crate::absint`]'s AST-directed structure: branch
//! refinement constrains the DBM on both arms, loops run a few exact rounds,
//! widen unstable bounds to +∞, and — once stable — run a bounded *narrowing*
//! pass that pulls widened bounds back down to the last computed
//! post-state. Per-loop-head precision statistics ([`LoopHeadStats`]) are
//! reported in the [`ZoneSummary`].
//!
//! Two value-safety site checks ride on the interpretation and feed the
//! `cpr-lint` diagnostics `possible-division-by-zero` and
//! `possible-index-out-of-bounds`:
//!
//! * every `/` and `%` site is safe when the divisor's zone projection
//!   excludes zero *or* the divisor expression carries a nonzero
//!   *fingerprint* — a structural fact recorded when the path was refined
//!   under `e != 0` (an `assume`, a guard, or a `bug … requires` fallthrough)
//!   and killed when any variable the expression reads is reassigned;
//! * every `a[e]` read or write is safe when `0 <= e` and `e <= len - 1`
//!   hold, checked relationally (`e - len$a <= -1` closes through the DBM)
//!   with the interval projection as fallback.
//!
//! Everything here **over-approximates** reachability, so "no unsafe site"
//! is a proof and "possible" diagnostics may be false positives — the right
//! polarity for authoring-time lints.

use std::collections::{BTreeMap, BTreeSet};

use cpr_lang::{BinOp, Builtin, Expr, Program, Span, Stmt, Type, UnOp};
use cpr_smt::interval::Interval;

use crate::absint::AbsBool;
use crate::cfg::expr_uses;

/// Sentinel for "no upper bound" in the DBM.
const INF: i64 = i64::MAX;

/// Clamps an `i128` sum into the finite DBM range. Raising a bound (either
/// clamp direction moves toward looser) is always sound.
fn clamp128(v: i128) -> i64 {
    v.clamp((i64::MIN + 2) as i128, (INF - 1) as i128) as i64
}

/// Saturating bound addition: `INF` absorbs.
fn badd(a: i64, b: i64) -> i64 {
    if a == INF || b == INF {
        INF
    } else {
        clamp128(a as i128 + b as i128)
    }
}

/// Element summary and static length of one array variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayVal {
    /// Declared length (from `int[n]`).
    pub len: i64,
    /// One interval over-approximating every element.
    pub summary: Interval,
}

/// A zone abstract state: a DBM over the program's integer scalars (plus one
/// synthetic `len$a` variable per array), three-valued booleans, array
/// element summaries, and the set of nonzero expression fingerprints.
///
/// Infeasible states are represented as `None` at the interpreter level, so
/// a `Zone` value is always non-empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    /// Scalar name → 1-based DBM index (0 is the virtual zero `Z`).
    slots: BTreeMap<String, usize>,
    /// `(n+1)²` row-major bounds: `dbm[i*(n+1)+j]` bounds `v_i - v_j`.
    dbm: Vec<i64>,
    bools: BTreeMap<String, AbsBool>,
    arrays: BTreeMap<String, ArrayVal>,
    /// Fingerprint → variables it reads (for kill-on-assign).
    nonzero: BTreeMap<String, BTreeSet<String>>,
}

/// The synthetic length variable tracked for array `name`.
fn len_name(name: &str) -> String {
    format!("len${name}")
}

impl Zone {
    fn top(universe: &[String]) -> Zone {
        let slots: BTreeMap<String, usize> = universe
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i + 1))
            .collect();
        let d = slots.len() + 1;
        let mut dbm = vec![INF; d * d];
        for i in 0..d {
            dbm[i * d + i] = 0;
        }
        Zone {
            slots,
            dbm,
            bools: BTreeMap::new(),
            arrays: BTreeMap::new(),
            nonzero: BTreeMap::new(),
        }
    }

    fn dim(&self) -> usize {
        self.slots.len() + 1
    }

    fn slot(&self, name: &str) -> Option<usize> {
        self.slots.get(name).copied()
    }

    /// Tightens `v_i - v_j <= c`.
    fn set_ub(&mut self, i: usize, j: usize, c: i64) {
        let d = self.dim();
        let e = &mut self.dbm[i * d + j];
        if c < *e {
            *e = c;
        }
    }

    /// Floyd–Warshall shortest-path closure. Returns `false` when a negative
    /// cycle proves the zone empty.
    fn close(&mut self) -> bool {
        let d = self.dim();
        for k in 0..d {
            for i in 0..d {
                let ik = self.dbm[i * d + k];
                if ik == INF {
                    continue;
                }
                for j in 0..d {
                    let v = badd(ik, self.dbm[k * d + j]);
                    if v < self.dbm[i * d + j] {
                        self.dbm[i * d + j] = v;
                    }
                }
            }
        }
        (0..d).all(|i| self.dbm[i * d + i] >= 0)
    }

    /// Drops every constraint mentioning slot `i` (callers close first so
    /// relations among the *other* variables survive through `i`).
    fn forget(&mut self, i: usize) {
        let d = self.dim();
        for t in 0..d {
            if t != i {
                self.dbm[i * d + t] = INF;
                self.dbm[t * d + i] = INF;
            }
        }
    }

    /// Exact transfer for `x := x + k`: every bound on `x - t` shifts by
    /// `+k` and every bound on `t - x` by `-k`.
    fn shift(&mut self, i: usize, k: i64) {
        let d = self.dim();
        for t in 0..d {
            if t != i {
                self.dbm[i * d + t] = badd(self.dbm[i * d + t], k);
                self.dbm[t * d + i] = badd(self.dbm[t * d + i], -k);
            }
        }
    }

    /// The interval projection of scalar `name` (TOP when untracked).
    pub fn project(&self, name: &str) -> Interval {
        let Some(i) = self.slot(name) else {
            return Interval::TOP;
        };
        let d = self.dim();
        let hi_raw = self.dbm[i * d];
        let lo_raw = self.dbm[i];
        let hi = if hi_raw == INF {
            Interval::MAX_BOUND
        } else {
            hi_raw.clamp(Interval::MIN_BOUND, Interval::MAX_BOUND)
        };
        let lo = if lo_raw == INF {
            Interval::MIN_BOUND
        } else {
            (-lo_raw).clamp(Interval::MIN_BOUND, Interval::MAX_BOUND)
        };
        Interval::of(lo.min(hi), hi)
    }

    /// The tracked upper bound on `a - b`, when finite. `None` means the
    /// zone knows no (finite) bound between the two.
    pub fn diff_upper(&self, a: &str, b: &str) -> Option<i64> {
        let (i, j) = (self.slot(a)?, self.slot(b)?);
        let d = self.dim();
        let c = self.dbm[i * d + j];
        (c != INF).then_some(c)
    }

    /// Pointwise least upper bound (exact union hull on closed operands).
    fn join(&self, other: &Zone) -> Zone {
        debug_assert_eq!(self.slots, other.slots);
        let mut out = self.clone();
        for (e, o) in out.dbm.iter_mut().zip(&other.dbm) {
            *e = (*e).max(*o);
        }
        for (k, v) in &other.bools {
            let merged = match out.bools.get(k) {
                Some(cur) => cur.join(*v),
                None => *v,
            };
            out.bools.insert(k.clone(), merged);
        }
        for (k, v) in &other.arrays {
            let merged = match out.arrays.get(k) {
                Some(cur) => ArrayVal {
                    len: cur.len,
                    summary: cur.summary.hull(v.summary),
                },
                None => *v,
            };
            out.arrays.insert(k.clone(), merged);
        }
        // A nonzero fact survives a join only when both paths establish it.
        out.nonzero.retain(|k, _| other.nonzero.contains_key(k));
        out
    }

    /// Standard DBM widening: bounds still growing jump to +∞.
    fn widen(&self, next: &Zone) -> Zone {
        debug_assert_eq!(self.slots, next.slots);
        let mut out = self.clone();
        for (e, n) in out.dbm.iter_mut().zip(&next.dbm) {
            if *n > *e {
                *e = INF;
            }
        }
        for (k, v) in &next.bools {
            let merged = match out.bools.get(k) {
                Some(cur) => cur.join(*v),
                None => *v,
            };
            out.bools.insert(k.clone(), merged);
        }
        for (k, v) in &next.arrays {
            let merged = match out.arrays.get(k) {
                Some(cur) => ArrayVal {
                    len: cur.len,
                    summary: crate::absint::widen_interval(cur.summary, v.summary),
                },
                None => *v,
            };
            out.arrays.insert(k.clone(), merged);
        }
        out.nonzero.retain(|k, _| next.nonzero.contains_key(k));
        out
    }

    /// Standard DBM narrowing: only bounds the widening blew to +∞ are
    /// pulled back down to `next`'s (still sound) value.
    fn narrow(&self, next: &Zone) -> Zone {
        debug_assert_eq!(self.slots, next.slots);
        let mut out = self.clone();
        for (e, n) in out.dbm.iter_mut().zip(&next.dbm) {
            if *e == INF {
                *e = *n;
            }
        }
        for (k, v) in out.arrays.iter_mut() {
            if let Some(n) = next.arrays.get(k) {
                v.summary = crate::absint::narrow_interval(v.summary, n.summary);
            }
        }
        out
    }
}

fn join_opt(a: Option<Zone>, b: Option<Zone>) -> Option<Zone> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.join(&b)),
        (Some(a), None) => Some(a),
        (None, b) => b,
    }
}

/// Precision statistics for one loop head (keyed by the condition's span).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopHeadStats {
    /// Total analysis rounds spent at this head.
    pub rounds: u64,
    /// Rounds where at least one bound was widened to +∞.
    pub widen_rounds: u64,
    /// Narrowing rounds that recovered at least one finite bound.
    pub narrow_rounds: u64,
}

/// Result of zone-interpreting a program.
#[derive(Debug, Clone)]
pub struct ZoneSummary {
    /// Division/remainder sites whose divisor may be zero.
    pub possible_div_zero: Vec<Span>,
    /// Index sites (reads and writes) that may fall outside `[0, len)`,
    /// with the array's name and declared length.
    pub possible_oob: Vec<(Span, String, i64)>,
    /// Total distinct division/remainder sites checked.
    pub div_sites: usize,
    /// Total distinct index sites checked.
    pub index_sites: usize,
    /// Per-loop-head widen/narrow statistics, keyed by condition span.
    pub loop_heads: BTreeMap<(usize, usize), LoopHeadStats>,
    /// Zone joined over every path reaching the bug location.
    pub bug_zone: Option<Zone>,
    /// Zone joined over every `return` site (post any `bug` refinement).
    pub return_zone: Option<Zone>,
}

const MAX_LOOP_ROUNDS: usize = 16;
const WIDEN_AFTER: usize = 3;
const NARROW_ROUNDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Div,
    Index,
}

struct Site {
    kind: SiteKind,
    safe: bool,
    name: String,
    len: i64,
}

struct ZoneInterp {
    sites: BTreeMap<(usize, usize), Site>,
    loop_heads: BTreeMap<(usize, usize), LoopHeadStats>,
    bug_zone: Option<Zone>,
    return_zone: Option<Zone>,
}

/// Zone-interprets `program` from its declared input ranges.
pub fn analyze_zones(program: &Program) -> ZoneSummary {
    let mut universe: Vec<String> = Vec::new();
    for input in &program.inputs {
        universe.push(input.name.clone());
    }
    collect_universe(&program.body, &mut universe);

    let mut zone = Zone::top(&universe);
    for input in &program.inputs {
        if let Some(i) = zone.slot(&input.name) {
            zone.set_ub(i, 0, input.hi);
            zone.set_ub(0, i, -input.lo);
        }
    }
    let feasible = zone.close();

    let mut interp = ZoneInterp {
        sites: BTreeMap::new(),
        loop_heads: BTreeMap::new(),
        bug_zone: None,
        return_zone: None,
    };
    interp.exec_block(&program.body, feasible.then_some(zone));

    let mut possible_div_zero = Vec::new();
    let mut possible_oob = Vec::new();
    let mut div_sites = 0;
    let mut index_sites = 0;
    for (&(start, end), site) in &interp.sites {
        match site.kind {
            SiteKind::Div => {
                div_sites += 1;
                if !site.safe {
                    possible_div_zero.push(Span::new(start, end));
                }
            }
            SiteKind::Index => {
                index_sites += 1;
                if !site.safe {
                    possible_oob.push((Span::new(start, end), site.name.clone(), site.len));
                }
            }
        }
    }
    ZoneSummary {
        possible_div_zero,
        possible_oob,
        div_sites,
        index_sites,
        loop_heads: interp.loop_heads,
        bug_zone: interp.bug_zone,
        return_zone: interp.return_zone,
    }
}

/// Pre-scans every integer scalar (and one `len$a` per array) so all states
/// share one DBM universe.
fn collect_universe(stmts: &[Stmt], out: &mut Vec<String>) {
    for stmt in stmts {
        match stmt {
            Stmt::Decl { name, ty, .. } => match ty {
                Type::Int => out.push(name.clone()),
                Type::IntArray(_) => out.push(len_name(name)),
                Type::Bool => {}
            },
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_universe(then_body, out);
                collect_universe(else_body, out);
            }
            Stmt::While { body, .. } => collect_universe(body, out),
            _ => {}
        }
    }
}

/// Structural fingerprint of an expression (spans ignored); `None` when the
/// expression contains a patch hole (holes are candidate-dependent, so no
/// fact about them is stable).
fn fingerprint(e: &Expr) -> Option<String> {
    if e.contains_hole() {
        return None;
    }
    let mut out = String::new();
    render(e, &mut out);
    Some(out)
}

fn render(e: &Expr, out: &mut String) {
    match e {
        Expr::Int(v, _) => out.push_str(&v.to_string()),
        Expr::Bool(b, _) => out.push_str(if *b { "true" } else { "false" }),
        Expr::Var(name, _) => out.push_str(name),
        Expr::Index(name, idx, _) => {
            out.push_str("(idx ");
            out.push_str(name);
            out.push(' ');
            render(idx, out);
            out.push(')');
        }
        Expr::Unary(op, inner, _) => {
            out.push_str(match op {
                UnOp::Neg => "(neg ",
                UnOp::Not => "(not ",
            });
            render(inner, out);
            out.push(')');
        }
        Expr::Binary(op, a, b, _) => {
            out.push('(');
            out.push_str(&format!("{op:?} "));
            render(a, out);
            out.push(' ');
            render(b, out);
            out.push(')');
        }
        Expr::Call(builtin, args, _) => {
            out.push_str(&format!("(call {builtin:?}"));
            for a in args {
                out.push(' ');
                render(a, out);
            }
            out.push(')');
        }
        Expr::UserCall(name, args, _) => {
            out.push_str("(ucall ");
            out.push_str(name);
            for a in args {
                out.push(' ');
                render(a, out);
            }
            out.push(')');
        }
        // Unreachable: `fingerprint` bails on holes before rendering.
        Expr::Hole(..) => out.push_str("(hole)"),
    }
}

/// A linear view of an expression: `value = var + k` (or just `k`).
type LinE = (Option<usize>, i64);

impl ZoneInterp {
    fn note_site(&mut self, span: Span, kind: SiteKind, name: &str, len: i64, safe: bool) {
        let key = (span.start, span.end);
        match self.sites.get_mut(&key) {
            // A site is safe only when every visit proves it safe.
            Some(site) => site.safe &= safe,
            None => {
                self.sites.insert(
                    key,
                    Site {
                        kind,
                        safe,
                        name: name.to_owned(),
                        len,
                    },
                );
            }
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt], mut state: Option<Zone>) -> Option<Zone> {
        for stmt in stmts {
            let s = state?;
            state = self.exec_stmt(stmt, s);
        }
        state
    }

    fn exec_stmt(&mut self, stmt: &Stmt, mut state: Zone) -> Option<Zone> {
        match stmt {
            Stmt::Decl { name, ty, init, .. } => match ty {
                Type::IntArray(n) => {
                    state.arrays.insert(
                        name.clone(),
                        ArrayVal {
                            len: *n as i64,
                            summary: Interval::point(0),
                        },
                    );
                    if let Some(i) = state.slot(&len_name(name)) {
                        state.set_ub(i, 0, *n as i64);
                        state.set_ub(0, i, -(*n as i64));
                        if !state.close() {
                            return None;
                        }
                    }
                    Some(state)
                }
                Type::Bool => {
                    let v = match init {
                        Some(e) => self.eval_bool(&state, e),
                        None => AbsBool::False,
                    };
                    state.bools.insert(name.clone(), v);
                    Some(state)
                }
                Type::Int => match init {
                    Some(e) => self.assign_int(state, name, e),
                    None => {
                        let zero = Expr::Int(0, Span::default());
                        self.assign_int(state, name, &zero)
                    }
                },
            },
            Stmt::Assign { name, value, .. } => {
                if state.slot(name).is_some() {
                    self.assign_int(state, name, value)
                } else {
                    let v = self.eval_bool(&state, value);
                    kill_fingerprints(&mut state, name);
                    state.bools.insert(name.clone(), v);
                    Some(state)
                }
            }
            Stmt::AssignIndex {
                name,
                index,
                value,
                span,
            } => {
                let _ = self.eval(&state, index);
                let v = match self.eval(&state, value) {
                    crate::absint::AbsVal::Int(i) => i,
                    _ => Interval::TOP,
                };
                self.check_index(&state, name, index, *span);
                kill_fingerprints(&mut state, name);
                if let Some(arr) = state.arrays.get_mut(name) {
                    arr.summary = arr.summary.hull(v);
                }
                Some(state)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let verdict = self.eval_bool(&state, cond);
                let then_in = if verdict == AbsBool::False {
                    None
                } else {
                    self.refine(state.clone(), cond, true)
                };
                let else_in = if verdict == AbsBool::True {
                    None
                } else {
                    self.refine(state.clone(), cond, false)
                };
                let then_out = then_in.and_then(|s| self.exec_block(then_body, Some(s)));
                let else_out = else_in.and_then(|s| self.exec_block(else_body, Some(s)));
                join_opt(then_out, else_out)
            }
            Stmt::While { cond, body, .. } => self.exec_while(cond, body, state),
            Stmt::Return { value, .. } => {
                let _ = self.eval(&state, value);
                self.return_zone = join_opt(self.return_zone.take(), Some(state));
                None
            }
            Stmt::Assert { cond, .. } | Stmt::Assume { cond, .. } => {
                let _ = self.eval_bool(&state, cond);
                self.refine(state, cond, true)
            }
            Stmt::Bug { spec, .. } => {
                let _ = self.eval_bool(&state, spec);
                self.bug_zone = join_opt(self.bug_zone.take(), Some(state.clone()));
                // Violating the spec stops the program; fallthrough holds σ.
                self.refine(state, spec, true)
            }
        }
    }

    fn exec_while(&mut self, cond: &Expr, body: &[Stmt], state: Zone) -> Option<Zone> {
        let key = (cond.span().start, cond.span().end);
        self.loop_heads.entry(key).or_default();
        let entry = state.clone();
        let mut cur = state;
        let mut exits: Option<Zone> = None;
        let mut converged = false;
        for round in 0..MAX_LOOP_ROUNDS {
            self.loop_heads.get_mut(&key).unwrap().rounds += 1;
            let verdict = self.eval_bool(&cur, cond);
            exits = join_opt(exits, self.refine(cur.clone(), cond, false));
            if verdict == AbsBool::False {
                return exits;
            }
            let body_in = match self.refine(cur.clone(), cond, true) {
                Some(s) => s,
                None => return exits,
            };
            let body_out = match self.exec_block(body, Some(body_in)) {
                Some(s) => s,
                // Every iteration path returns/stops: no fallthrough.
                None => return exits,
            };
            let next = cur.join(&body_out);
            if next == cur {
                converged = true;
                break;
            }
            cur = if round >= WIDEN_AFTER {
                self.loop_heads.get_mut(&key).unwrap().widen_rounds += 1;
                // Deliberately left unclosed: closure would re-derive the
                // widened bounds from stable relations and mask what the
                // narrowing pass exists to recover. Refinement closes every
                // state that actually flows into the body.
                cur.widen(&next)
            } else {
                next
            };
        }
        if !converged {
            // Round budget exhausted without a proven invariant: the
            // accumulated exit join is the only sound answer.
            return join_opt(exits, self.refine(cur, cond, false));
        }
        // `cur` is an invariant; bounded narrowing pulls widened bounds back
        // toward the last post-state, which stays an invariant because only
        // +∞ entries move and they only move to values `F(cur) ⊔ entry`
        // itself justified.
        for _ in 0..NARROW_ROUNDS {
            let body_in = match self.refine(cur.clone(), cond, true) {
                Some(s) => s,
                None => break,
            };
            let body_out = match self.exec_block(body, Some(body_in)) {
                Some(s) => s,
                None => break,
            };
            let next = entry.join(&body_out);
            let mut narrowed = cur.narrow(&next);
            if !narrowed.close() || narrowed == cur {
                break;
            }
            self.loop_heads.get_mut(&key).unwrap().narrow_rounds += 1;
            cur = narrowed;
        }
        // The invariant subsumes every reachable head state, so its false
        // refinement replaces the round-by-round exit join.
        self.refine(cur, cond, false)
    }

    fn assign_int(&mut self, mut state: Zone, name: &str, value: &Expr) -> Option<Zone> {
        let v = self.eval(&state, value);
        let lin = lin_of(&state, value);
        kill_fingerprints(&mut state, name);
        let Some(s) = state.slot(name) else {
            return Some(state);
        };
        match lin {
            Some((Some(j), k)) if j == s => state.shift(s, k),
            Some((Some(j), k)) => {
                if !state.close() {
                    return None;
                }
                state.forget(s);
                state.set_ub(s, j, k);
                state.set_ub(j, s, -k);
                if !state.close() {
                    return None;
                }
            }
            Some((None, k)) => {
                if !state.close() {
                    return None;
                }
                state.forget(s);
                state.set_ub(s, 0, k);
                state.set_ub(0, s, -k);
            }
            None => {
                if !state.close() {
                    return None;
                }
                state.forget(s);
                let iv = crate::absint::as_interval(v);
                if iv.hi() < Interval::MAX_BOUND {
                    state.set_ub(s, 0, iv.hi());
                }
                if iv.lo() > Interval::MIN_BOUND {
                    state.set_ub(0, s, -iv.lo());
                }
            }
        }
        Some(state)
    }

    /// Evaluates an expression, recording division/index site verdicts.
    fn eval(&mut self, z: &Zone, e: &Expr) -> crate::absint::AbsVal {
        use crate::absint::AbsVal;
        match e {
            Expr::Int(v, _) => AbsVal::Int(Interval::point(*v)),
            Expr::Bool(b, _) => AbsVal::Bool(AbsBool::from_bool(*b)),
            Expr::Var(name, _) => {
                if let Some(b) = z.bools.get(name) {
                    AbsVal::Bool(*b)
                } else if let Some(arr) = z.arrays.get(name) {
                    AbsVal::Array(arr.summary)
                } else {
                    AbsVal::Int(z.project(name))
                }
            }
            Expr::Index(name, idx, _) => {
                let _ = self.eval(z, idx);
                self.check_index(z, name, idx, e.span());
                match z.arrays.get(name) {
                    Some(arr) => AbsVal::Int(arr.summary),
                    None => AbsVal::Int(Interval::TOP),
                }
            }
            Expr::Unary(UnOp::Neg, inner, _) => {
                AbsVal::Int(crate::absint::as_interval(self.eval(z, inner)).neg())
            }
            Expr::Unary(UnOp::Not, inner, _) => {
                AbsVal::Bool(!crate::absint::as_bool(self.eval(z, inner)))
            }
            Expr::Binary(op, a, b, _) => {
                if op.is_logical() {
                    let (a, b) = (
                        crate::absint::as_bool(self.eval(z, a)),
                        crate::absint::as_bool(self.eval(z, b)),
                    );
                    AbsVal::Bool(match op {
                        BinOp::And => a.and(b),
                        _ => a.or(b),
                    })
                } else if op.is_comparison() {
                    let (av, bv) = (
                        crate::absint::as_interval(self.eval(z, a)),
                        crate::absint::as_interval(self.eval(z, b)),
                    );
                    AbsVal::Bool(self.compare_lin(z, *op, a, b, av, bv))
                } else {
                    let (av, bv) = (
                        crate::absint::as_interval(self.eval(z, a)),
                        crate::absint::as_interval(self.eval(z, b)),
                    );
                    if matches!(op, BinOp::Div | BinOp::Rem) {
                        self.check_div(z, b, bv, e.span());
                    }
                    AbsVal::Int(match op {
                        BinOp::Add => av.add(bv),
                        BinOp::Sub => av.sub(bv),
                        BinOp::Mul => av.mul(bv),
                        BinOp::Div => av.div_total(bv),
                        _ => av.rem_total(bv),
                    })
                }
            }
            Expr::Call(builtin, args, _) => {
                let vals: Vec<Interval> = args
                    .iter()
                    .map(|a| crate::absint::as_interval(self.eval(z, a)))
                    .collect();
                AbsVal::Int(match builtin {
                    Builtin::Min => Interval::of(
                        vals[0].lo().min(vals[1].lo()),
                        vals[0].hi().min(vals[1].hi()),
                    ),
                    Builtin::Max => Interval::of(
                        vals[0].lo().max(vals[1].lo()),
                        vals[0].hi().max(vals[1].hi()),
                    ),
                    Builtin::Abs => crate::absint::abs_interval(vals[0]),
                    Builtin::Roundup => Interval::TOP,
                })
            }
            Expr::UserCall(_, args, _) => {
                for a in args {
                    let _ = self.eval(z, a);
                }
                AbsVal::Int(Interval::TOP)
            }
            Expr::Hole(kind, _, _) => match kind {
                cpr_lang::HoleKind::Cond => AbsVal::Bool(AbsBool::Unknown),
                cpr_lang::HoleKind::IntExpr => AbsVal::Int(Interval::TOP),
            },
        }
    }

    fn eval_bool(&mut self, z: &Zone, e: &Expr) -> AbsBool {
        crate::absint::as_bool(self.eval(z, e))
    }

    /// Comparison verdict, upgraded with the relational bound when both
    /// sides have linear views (`x < y` decides via the `x - y` entry even
    /// when the interval projections overlap).
    fn compare_lin(
        &mut self,
        z: &Zone,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        av: Interval,
        bv: Interval,
    ) -> AbsBool {
        let base = crate::absint::compare(op, av, bv);
        if base != AbsBool::Unknown {
            return base;
        }
        let (Some(la), Some(lb)) = (lin_of(z, a), lin_of(z, b)) else {
            return AbsBool::Unknown;
        };
        let (Some(ka), Some(kb)) = (la.1.checked_sub(lb.1), lb.1.checked_sub(la.1)) else {
            return AbsBool::Unknown;
        };
        // a - b = (va - vb) + (ka - kb); diff bounds from the DBM.
        let d = z.dim();
        let (ia, ib) = (la.0.unwrap_or(0), lb.0.unwrap_or(0));
        let up = badd(z.dbm[ia * d + ib], ka);
        let down = badd(z.dbm[ib * d + ia], kb);
        // `up` bounds a-b above; `-down` bounds it below.
        match op {
            BinOp::Lt if up != INF && up < 0 => AbsBool::True,
            BinOp::Lt if down != INF && down <= 0 => AbsBool::False,
            BinOp::Le if up != INF && up <= 0 => AbsBool::True,
            BinOp::Le if down != INF && down < 0 => AbsBool::False,
            BinOp::Gt if down != INF && down < 0 => AbsBool::True,
            BinOp::Gt if up != INF && up <= 0 => AbsBool::False,
            BinOp::Ge if down != INF && down <= 0 => AbsBool::True,
            BinOp::Ge if up != INF && up < 0 => AbsBool::False,
            BinOp::Eq if up == 0 && down == 0 => AbsBool::True,
            BinOp::Eq if (up != INF && up < 0) || (down != INF && down < 0) => AbsBool::False,
            BinOp::Ne if (up != INF && up < 0) || (down != INF && down < 0) => AbsBool::True,
            BinOp::Ne if up == 0 && down == 0 => AbsBool::False,
            _ => AbsBool::Unknown,
        }
    }

    fn check_div(&mut self, z: &Zone, divisor: &Expr, iv: Interval, span: Span) {
        let excluded = iv.lo() > 0 || iv.hi() < 0;
        let fingerprinted =
            !excluded && fingerprint(divisor).is_some_and(|f| z.nonzero.contains_key(&f));
        self.note_site(span, SiteKind::Div, "", 0, excluded || fingerprinted);
    }

    fn check_index(&mut self, z: &Zone, name: &str, idx: &Expr, span: Span) {
        let Some(arr) = z.arrays.get(name) else {
            return;
        };
        let len = arr.len;
        let safe = match lin_of(z, idx) {
            Some((None, k)) => 0 <= k && k < len,
            Some((Some(v), k)) => {
                let d = z.dim();
                let lo_ok = z.dbm[v] != INF && z.dbm[v] <= k;
                let abs_hi = z.dbm[v * d];
                let abs_ok = abs_hi != INF && badd(abs_hi, k) < len;
                let rel_ok = z.slot(&len_name(name)).is_some_and(|l| {
                    let c = z.dbm[v * d + l];
                    c != INF && badd(c, k) <= -1
                });
                lo_ok && (abs_ok || rel_ok)
            }
            None => {
                let iv = crate::absint::as_interval(self.eval(z, idx));
                iv.lo() >= 0 && iv.hi() < len
            }
        };
        self.note_site(span, SiteKind::Index, name, len, safe);
    }

    /// Contracts `state` under `cond == polarity`; `None` when infeasible.
    fn refine(&mut self, state: Zone, cond: &Expr, polarity: bool) -> Option<Zone> {
        match cond {
            Expr::Bool(b, _) => (*b == polarity).then_some(state),
            Expr::Var(name, _) if state.bools.contains_key(name) => {
                let want = AbsBool::from_bool(polarity);
                match state.bools.get(name) {
                    Some(cur) if *cur == !want => None,
                    _ => {
                        let mut s = state;
                        s.bools.insert(name.clone(), want);
                        Some(s)
                    }
                }
            }
            Expr::Unary(UnOp::Not, inner, _) => self.refine(state, inner, !polarity),
            Expr::Binary(BinOp::And, a, b, _) if polarity => self
                .refine(state, a, true)
                .and_then(|s| self.refine(s, b, true)),
            Expr::Binary(BinOp::Or, a, b, _) if !polarity => self
                .refine(state, a, false)
                .and_then(|s| self.refine(s, b, false)),
            Expr::Binary(op, a, b, _) if op.is_comparison() => {
                let op = if polarity {
                    *op
                } else {
                    crate::absint::negate_cmp(*op)
                };
                self.refine_cmp(state, op, a, b)
            }
            _ => match self.eval_bool(&state, cond) {
                v if v == AbsBool::from_bool(!polarity) => None,
                _ => Some(state),
            },
        }
    }

    fn refine_cmp(&mut self, mut state: Zone, op: BinOp, a: &Expr, b: &Expr) -> Option<Zone> {
        if op == BinOp::Ne {
            // `e != 0` pins a nonzero fingerprint for `e`, whatever its
            // shape; additionally, endpoint removal below when linear.
            let target = match (a, b) {
                (e, Expr::Int(0, _)) | (Expr::Int(0, _), e) => Some(e),
                _ => None,
            };
            if let Some(e) = target {
                if let Some(f) = fingerprint(e) {
                    let mut vars = Vec::new();
                    expr_uses(e, &mut vars);
                    state.nonzero.insert(f, vars.into_iter().collect());
                }
            }
        }
        let (la, lb) = (lin_of(&state, a), lin_of(&state, b));
        match (la, lb) {
            (Some(la), Some(lb)) => {
                let feasible = match op {
                    BinOp::Lt => add_le(&mut state, la, lb, -1),
                    BinOp::Le => add_le(&mut state, la, lb, 0),
                    BinOp::Gt => add_le(&mut state, lb, la, -1),
                    BinOp::Ge => add_le(&mut state, lb, la, 0),
                    BinOp::Eq => add_le(&mut state, la, lb, 0) && add_le(&mut state, lb, la, 0),
                    BinOp::Ne => return self.refine_ne(state, la, lb),
                    _ => true,
                };
                if !feasible || !state.close() {
                    return None;
                }
                Some(state)
            }
            _ => {
                // No linear view: fall back to the interval verdict — a
                // definitely-contradicted comparison still kills the path.
                let av = crate::absint::as_interval(self.eval(&state, a));
                let bv = crate::absint::as_interval(self.eval(&state, b));
                if self.compare_lin(&state, op, a, b, av, bv) == AbsBool::False {
                    None
                } else {
                    Some(state)
                }
            }
        }
    }

    /// `la != lb`: decidable only at shared points; removable at endpoints.
    fn refine_ne(&mut self, mut state: Zone, la: LinE, lb: LinE) -> Option<Zone> {
        match (la, lb) {
            ((Some(v), ka), (None, kb)) | ((None, kb), (Some(v), ka)) => {
                let t = kb.checked_sub(ka)?;
                let iv = {
                    let d = state.dim();
                    let hi = state.dbm[v * d];
                    let lo = state.dbm[v];
                    (lo, hi)
                };
                let (lo_raw, hi_raw) = iv;
                if lo_raw != INF && hi_raw != INF && -lo_raw == t && hi_raw == t {
                    return None; // the variable is exactly the excluded point
                }
                if lo_raw != INF && -lo_raw == t {
                    state.set_ub(0, v, -(t.checked_add(1)?));
                }
                if hi_raw != INF && hi_raw == t {
                    state.set_ub(v, 0, t.checked_sub(1)?);
                }
                if !state.close() {
                    return None;
                }
                Some(state)
            }
            ((None, ka), (None, kb)) => (ka != kb).then_some(state),
            _ => Some(state),
        }
    }
}

/// Adds `la <= lb + slack` to the DBM; returns feasibility of the
/// variable-free residue (the DBM part is checked by closure).
fn add_le(state: &mut Zone, la: LinE, lb: LinE, slack: i64) -> bool {
    // va + ka <= vb + kb + slack  ⇔  va - vb <= kb - ka + slack
    let c = clamp128(lb.1 as i128 - la.1 as i128 + slack as i128);
    match (la.0, lb.0) {
        (Some(i), Some(j)) if i == j => c >= 0,
        (None, None) => c >= 0,
        (Some(i), Some(j)) => {
            state.set_ub(i, j, c);
            true
        }
        (Some(i), None) => {
            state.set_ub(i, 0, c);
            true
        }
        (None, Some(j)) => {
            state.set_ub(0, j, c);
            true
        }
    }
}

/// Linear view of `e` in `z`: `Some((Some(slot), k))` for `v + k`,
/// `Some((None, k))` for the constant `k`, `None` otherwise.
fn lin_of(z: &Zone, e: &Expr) -> Option<LinE> {
    match e {
        Expr::Int(v, _) => Some((None, *v)),
        Expr::Var(name, _) => z.slot(name).map(|s| (Some(s), 0)),
        Expr::Unary(UnOp::Neg, inner, _) => match lin_of(z, inner)? {
            (None, k) => Some((None, k.checked_neg()?)),
            _ => None,
        },
        Expr::Binary(BinOp::Add, a, b, _) => {
            let (la, lb) = (lin_of(z, a)?, lin_of(z, b)?);
            match (la.0, lb.0) {
                (Some(_), Some(_)) => None,
                (v, w) => Some((v.or(w), la.1.checked_add(lb.1)?)),
            }
        }
        Expr::Binary(BinOp::Sub, a, b, _) => {
            let (la, lb) = (lin_of(z, a)?, lin_of(z, b)?);
            match lb.0 {
                Some(_) => None,
                None => Some((la.0, la.1.checked_sub(lb.1)?)),
            }
        }
        _ => None,
    }
}

fn kill_fingerprints(z: &mut Zone, name: &str) {
    z.nonzero.retain(|_, vars| !vars.contains(name));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_lang::{check, parse};

    fn zsum(src: &str) -> ZoneSummary {
        let program = parse(src).unwrap();
        check(&program).unwrap();
        analyze_zones(&program)
    }

    #[test]
    fn relational_loop_bound_keeps_array_write_in_bounds() {
        let s = zsum(
            "program p {
               input len in [1, 64];
               var a: int[64];
               var i: int = 0;
               while (i < len) { a[i] = i * 2; i = i + 1; }
               return a[0];
             }",
        );
        assert_eq!(s.index_sites, 2);
        assert!(s.possible_oob.is_empty(), "{:?}", s.possible_oob);
        let stats = s.loop_heads.values().next().unwrap();
        assert!(stats.widen_rounds >= 1);
    }

    #[test]
    fn unguarded_index_is_flagged() {
        let s = zsum(
            "program p {
               input i in [0, 10];
               var a: int[4];
               a[i] = 1;
               return a[0];
             }",
        );
        assert_eq!(s.index_sites, 2);
        assert_eq!(s.possible_oob.len(), 1);
        assert_eq!(s.possible_oob[0].1, "a");
        assert_eq!(s.possible_oob[0].2, 4);
    }

    #[test]
    fn nonzero_fingerprint_suppresses_division_warning() {
        let clean = zsum(
            "program p {
               input x in [-50, 50];
               bug d requires (x != 0);
               return 1000 / x;
             }",
        );
        assert_eq!(clean.div_sites, 1);
        assert!(clean.possible_div_zero.is_empty());

        let dirty = zsum(
            "program p {
               input x in [-50, 50];
               return 1000 / x;
             }",
        );
        assert_eq!(dirty.possible_div_zero.len(), 1);
    }

    #[test]
    fn compound_nonzero_fingerprint_matches_structurally() {
        let s = zsum(
            "program p {
               input x in [-8, 8];
               input y in [-8, 8];
               assume(x * y != 0);
               return 100 / (x * y);
             }",
        );
        assert!(s.possible_div_zero.is_empty());
    }

    #[test]
    fn fingerprint_is_killed_by_reassignment() {
        let s = zsum(
            "program p {
               input x in [-8, 8];
               input y in [-8, 8];
               var d: int = x;
               assume(d != 0);
               d = y;
               return 100 / d;
             }",
        );
        assert_eq!(s.possible_div_zero.len(), 1);
    }

    #[test]
    fn narrowing_recovers_finite_loop_counter() {
        let s = zsum(
            "program p {
               input n in [0, 8];
               var i: int = 0;
               while (i < n) { i = i + 1; }
               return i;
             }",
        );
        let exit = s.return_zone.as_ref().unwrap();
        let iv = exit.project("i");
        assert!(iv.hi() <= 8, "widened bound survived narrowing: {iv:?}");
        assert!(iv.lo() >= 0);
        let stats = s.loop_heads.values().next().unwrap();
        assert!(stats.widen_rounds >= 1);
        assert!(stats.narrow_rounds >= 1);
    }

    #[test]
    fn offset_assignments_stay_relational() {
        let s = zsum(
            "program p {
               input y in [0, 5];
               var x: int = y + 3;
               return x;
             }",
        );
        let exit = s.return_zone.as_ref().unwrap();
        assert_eq!(exit.diff_upper("x", "y"), Some(3));
        assert_eq!(exit.diff_upper("y", "x"), Some(-3));
    }

    #[test]
    fn bug_spec_refinement_proves_guarded_read() {
        // The records_lookup shape: the read after the bug's fallthrough is
        // provably in bounds only through idx - len <= -1 and len$a = 64.
        let s = zsum(
            "program p {
               input idx in [-128, 255];
               input len in [1, 64];
               var records: int[64];
               var i: int = 0;
               while (i < len) { records[i] = i; i = i + 1; }
               bug oob requires (idx >= 0 && idx < len);
               return records[idx];
             }",
        );
        assert!(s.possible_oob.is_empty(), "{:?}", s.possible_oob);
        assert!(s.bug_zone.is_some());
    }

    #[test]
    fn infeasible_relational_branch_is_pruned() {
        // x <= y and y <= z and x > z + 5 is a negative cycle: the guarded
        // division by zero can never execute.
        let s = zsum(
            "program p {
               input x in [-100, 100];
               input y in [-100, 100];
               input z in [-100, 100];
               input w in [-1, 1];
               assume(x <= y);
               assume(y <= z);
               if (x > z + 5) { return 1 / w; }
               return 0;
             }",
        );
        assert_eq!(s.div_sites, 0);
        assert!(s.possible_div_zero.is_empty());
    }
}

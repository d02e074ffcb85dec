//! Models (satisfying assignments) and total term evaluation.

use std::collections::BTreeMap;
use std::fmt;

use crate::term::{TermData, TermId, TermPool, VarId};

/// A concrete value of either sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
}

impl Value {
    /// Extracts the integer, if this is an integer value.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            Value::Bool(_) => None,
        }
    }

    /// Extracts the boolean, if this is a boolean value.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(b),
            Value::Int(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// A (partial) assignment of variables to concrete values.
///
/// Evaluation treats unassigned integer variables as `0` and unassigned
/// boolean variables as `false`, so that models returned by the solver —
/// which only mention variables occurring in the query — evaluate totally.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Model {
    values: BTreeMap<VarId, Value>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns a value to a variable, returning the previous value if any.
    pub fn set(&mut self, var: VarId, value: impl Into<Value>) -> Option<Value> {
        self.values.insert(var, value.into())
    }

    /// The value assigned to `var`, if any.
    pub fn get(&self, var: VarId) -> Option<Value> {
        self.values.get(&var).copied()
    }

    /// The integer assigned to `var`, if it is assigned an integer.
    pub fn int(&self, var: VarId) -> Option<i64> {
        self.get(var).and_then(Value::as_int)
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(variable, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.values.iter().map(|(&v, &val)| (v, val))
    }

    /// Merges `other` into `self`; assignments in `other` win on conflict.
    pub fn extend(&mut self, other: &Model) {
        for (v, val) in other.iter() {
            self.values.insert(v, val);
        }
    }

    /// Keeps only the assignments for the given variables.
    pub fn restrict_to(&self, vars: &[VarId]) -> Model {
        let mut m = Model::new();
        for &v in vars {
            if let Some(val) = self.get(v) {
                m.set(v, val);
            }
        }
        m
    }

    /// Evaluates a term under this model. Total: missing integer variables
    /// default to `0`, missing booleans to `false`, and division by zero
    /// yields `0` (matching the pool's constant folding).
    pub fn eval(&self, pool: &TermPool, t: TermId) -> Value {
        eval_term(pool, t, &|v| self.get(v))
    }

    /// Evaluates a term under this model overlaid on `fallback`: a
    /// variable this model does not assign takes `fallback`'s value, and
    /// defaults as in [`Model::eval`] when neither assigns it. Equivalent
    /// to evaluating a copy of this model extended with `fallback`'s
    /// values for the term's unassigned variables, without the copy.
    pub fn eval_overlay(
        &self,
        pool: &TermPool,
        t: TermId,
        fallback: impl Fn(VarId) -> Option<Value>,
    ) -> Value {
        eval_term(pool, t, &|v| self.get(v).or_else(|| fallback(v)))
    }

    /// Evaluates a boolean term; ill-sorted terms evaluate to `false`.
    pub fn eval_bool(&self, pool: &TermPool, t: TermId) -> bool {
        self.eval(pool, t).as_bool().unwrap_or(false)
    }

    /// Evaluates an integer term; ill-sorted terms evaluate to `0`.
    pub fn eval_int(&self, pool: &TermPool, t: TermId) -> i64 {
        self.eval(pool, t).as_int().unwrap_or(0)
    }

    /// Whether every given constraint evaluates to `true` under this model.
    pub fn satisfies(&self, pool: &TermPool, constraints: &[TermId]) -> bool {
        constraints.iter().all(|&c| self.eval_bool(pool, c))
    }

    /// Renders the model as `name=value` pairs for debugging.
    pub fn display(&self, pool: &TermPool) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (v, val) in self.iter() {
            parts.push(format!("{}={}", pool.var_name(v), val));
        }
        parts.join(", ")
    }
}

/// Total evaluation of `t` with variable values from `lookup` (see
/// [`Model::eval`] for the defaults).
fn eval_term(pool: &TermPool, t: TermId, lookup: &impl Fn(VarId) -> Option<Value>) -> Value {
    let as_bool = |t| eval_term(pool, t, lookup).as_bool().unwrap_or(false);
    let as_int = |t| eval_term(pool, t, lookup).as_int().unwrap_or(0);
    match pool.data(t) {
        TermData::BoolConst(b) => Value::Bool(b),
        TermData::IntConst(v) => Value::Int(v),
        TermData::Var(v) => lookup(v).unwrap_or(match pool.var_sort(v) {
            crate::Sort::Bool => Value::Bool(false),
            crate::Sort::Int => Value::Int(0),
        }),
        TermData::Not(a) => Value::Bool(!as_bool(a)),
        TermData::And(a, b) => Value::Bool(as_bool(a) && as_bool(b)),
        TermData::Or(a, b) => Value::Bool(as_bool(a) || as_bool(b)),
        TermData::Cmp(op, a, b) => Value::Bool(op.apply(as_int(a), as_int(b))),
        TermData::Arith(op, a, b) => Value::Int(op.apply(as_int(a), as_int(b))),
        TermData::Neg(a) => Value::Int(as_int(a).saturating_neg()),
        TermData::Ite(c, a, b) => {
            if as_bool(c) {
                eval_term(pool, a, lookup)
            } else {
                eval_term(pool, b, lookup)
            }
        }
    }
}

impl FromIterator<(VarId, Value)> for Model {
    fn from_iter<T: IntoIterator<Item = (VarId, Value)>>(iter: T) -> Self {
        let mut m = Model::new();
        for (v, val) in iter {
            m.set(v, val);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sort;

    #[test]
    fn eval_arithmetic_and_comparison() {
        let mut p = TermPool::new();
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let sum = p.add(x, y);
        let ten = p.int(10);
        let cond = p.ge(sum, ten);

        let mut m = Model::new();
        m.set(xv, 7i64);
        m.set(yv, 3i64);
        assert_eq!(m.eval_int(&p, sum), 10);
        assert!(m.eval_bool(&p, cond));
        m.set(yv, 2i64);
        assert!(!m.eval_bool(&p, cond));
    }

    #[test]
    fn unassigned_vars_default() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let b = p.named_var("flag", Sort::Bool);
        let m = Model::new();
        assert_eq!(m.eval_int(&p, x), 0);
        assert!(!m.eval_bool(&p, b));
    }

    #[test]
    fn eval_ite_and_div() {
        let mut p = TermPool::new();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let zero = p.int(0);
        let hundred = p.int(100);
        let cond = p.ne(x, zero);
        let div = p.div(hundred, x);
        let safe = p.ite(cond, div, zero);

        let mut m = Model::new();
        m.set(xv, 4i64);
        assert_eq!(m.eval_int(&p, safe), 25);
        m.set(xv, 0i64);
        assert_eq!(m.eval_int(&p, safe), 0);
        // Total division: even the unguarded term evaluates.
        assert_eq!(m.eval_int(&p, div), 0);
    }

    #[test]
    fn satisfies_checks_all() {
        let mut p = TermPool::new();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let three = p.int(3);
        let nine = p.int(9);
        let c1 = p.gt(x, three);
        let c2 = p.lt(x, nine);
        let mut m = Model::new();
        m.set(xv, 5i64);
        assert!(m.satisfies(&p, &[c1, c2]));
        m.set(xv, 9i64);
        assert!(!m.satisfies(&p, &[c1, c2]));
    }

    #[test]
    fn restrict_and_extend() {
        let mut p = TermPool::new();
        let a = p.var("a", Sort::Int);
        let b = p.var("b", Sort::Int);
        let mut m = Model::new();
        m.set(a, 1i64);
        m.set(b, 2i64);
        let r = m.restrict_to(&[a]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.int(a), Some(1));
        let mut other = Model::new();
        other.set(b, 9i64);
        let mut merged = r.clone();
        merged.extend(&other);
        assert_eq!(merged.int(b), Some(9));
    }

    #[test]
    fn display_is_readable() {
        let mut p = TermPool::new();
        let a = p.var("a", Sort::Int);
        let mut m = Model::new();
        m.set(a, -3i64);
        assert_eq!(m.display(&p), "a=-3");
    }
}

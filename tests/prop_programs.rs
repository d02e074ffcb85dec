//! Property-based differential testing over *randomly generated programs*:
//!
//! * the concrete interpreter and the concolic executor agree on the
//!   outcome, the steps, and the patch and bug hits of every run,
//! * every recorded path constraint is satisfied by the input (and patch
//!   parameters) that produced it, and a captured `σ` by the verdict,
//! * pretty-printing a generated program round-trips through the parser.
//!
//! Programs are generated from a recipe (indices resolved modulo the set of
//! in-scope variables), which keeps them well-typed by construction.
//! Conditions mix comparisons with `&&`, `||` and `!`, including the guard
//! idiom `v != 0 && e / v > f`; expressions include the builtins and, now
//! and then, a constant large enough to saturate; some programs carry a
//! bug location and a patch hole. The recipes themselves are drawn from the
//! dependency-free xorshift64* generator in `cpr_fuzz::rng`; each case's
//! seed is printed on failure so counterexamples are reproducible.

use std::collections::HashMap;

use cpr_concolic::{ConcolicExecutor, HolePatch};
use cpr_fuzz::rng::XorShiftRng;
use cpr_lang::{
    ast::Span, check, parse, pretty, BinOp, Builtin, ConcretePatch, Expr, HoleKind, Interp,
    Outcome, Program, Stmt, Type, UnOp,
};
use cpr_smt::{Model, Sort, TermPool};

#[derive(Debug, Clone)]
enum ExprRecipe {
    Var(u8),
    Const(i64),
    Bin(u8, Box<ExprRecipe>, Box<ExprRecipe>),
    /// `min`, `max`, `abs` (of the first argument) or `roundup`.
    Call(u8, Box<ExprRecipe>, Box<ExprRecipe>),
}

#[derive(Debug, Clone)]
enum CondRecipe {
    Cmp(u8, ExprRecipe, ExprRecipe),
    Not(Box<CondRecipe>),
    And(Box<CondRecipe>, Box<CondRecipe>),
    Or(Box<CondRecipe>, Box<CondRecipe>),
    /// The guard idiom over variable `v`: `v != 0 && (e op v) cmp f` when
    /// the flag is set, `v == 0 || (e op v) cmp f` otherwise, with `op`
    /// `/` or `%`.
    Guarded {
        and: bool,
        var: u8,
        rem: bool,
        num: ExprRecipe,
        cmp: u8,
        rhs: ExprRecipe,
    },
}

#[derive(Debug, Clone)]
enum StmtRecipe {
    Decl(ExprRecipe),
    Assign(u8, ExprRecipe),
    If(CondRecipe, Vec<StmtRecipe>, Vec<StmtRecipe>),
    CountedLoop(u8, Vec<StmtRecipe>),
    Return(ExprRecipe),
    /// `bug b requires (cond);`
    Bug(CondRecipe),
    /// `if (hole) { return e; }`, the hole alone (form 0) or behind a
    /// condition with `&&` (1) or `||` (2).
    Hole(u8, CondRecipe, ExprRecipe),
}

fn gen_expr(rng: &mut XorShiftRng, depth: u32) -> ExprRecipe {
    if depth == 0 || rng.gen_index(5) < 2 {
        if rng.gen_bool() {
            ExprRecipe::Var(rng.gen_index(8) as u8)
        } else if rng.gen_index(8) == 0 {
            // Large enough that products and sums saturate.
            ExprRecipe::Const(if rng.gen_bool() { 1 << 62 } else { -(1 << 62) })
        } else {
            ExprRecipe::Const(rng.gen_range_i64(-5, 5))
        }
    } else {
        let kind = rng.gen_index(6) as u8;
        let a = Box::new(gen_expr(rng, depth - 1));
        let b = Box::new(gen_expr(rng, depth - 1));
        if kind == 5 {
            ExprRecipe::Call(rng.gen_index(4) as u8, a, b)
        } else {
            ExprRecipe::Bin(kind, a, b)
        }
    }
}

fn gen_cond(rng: &mut XorShiftRng, depth: u32) -> CondRecipe {
    let cmp = |rng: &mut XorShiftRng| {
        CondRecipe::Cmp(rng.gen_index(6) as u8, gen_expr(rng, 3), gen_expr(rng, 3))
    };
    if depth == 0 {
        return cmp(rng);
    }
    match rng.gen_index(8) {
        0..=2 => cmp(rng),
        3 => CondRecipe::Not(Box::new(gen_cond(rng, depth - 1))),
        4 => CondRecipe::And(
            Box::new(gen_cond(rng, depth - 1)),
            Box::new(gen_cond(rng, depth - 1)),
        ),
        5 => CondRecipe::Or(
            Box::new(gen_cond(rng, depth - 1)),
            Box::new(gen_cond(rng, depth - 1)),
        ),
        _ => CondRecipe::Guarded {
            and: rng.gen_bool(),
            var: rng.gen_index(8) as u8,
            rem: rng.gen_bool(),
            num: gen_expr(rng, 2),
            cmp: rng.gen_index(6) as u8,
            rhs: gen_expr(rng, 1),
        },
    }
}

fn gen_stmts(rng: &mut XorShiftRng, depth: u32, lo: usize, hi: usize) -> Vec<StmtRecipe> {
    let n = lo + rng.gen_index(hi - lo + 1);
    (0..n).map(|_| gen_stmt(rng, depth)).collect()
}

fn gen_stmt(rng: &mut XorShiftRng, depth: u32) -> StmtRecipe {
    if depth == 0 {
        return if rng.gen_bool() {
            StmtRecipe::Decl(gen_expr(rng, 3))
        } else {
            StmtRecipe::Assign(rng.gen_index(8) as u8, gen_expr(rng, 3))
        };
    }
    // Weighted pick mirroring the original strategy: decl 3, assign 3,
    // if 2, counted loop 1, return 1.
    match rng.gen_index(10) {
        0..=2 => StmtRecipe::Decl(gen_expr(rng, 3)),
        3..=5 => StmtRecipe::Assign(rng.gen_index(8) as u8, gen_expr(rng, 3)),
        6 | 7 => StmtRecipe::If(
            gen_cond(rng, 2),
            gen_stmts(rng, depth - 1, 0, 2),
            gen_stmts(rng, depth - 1, 0, 2),
        ),
        8 => StmtRecipe::CountedLoop(
            rng.gen_range_i64(1, 3) as u8,
            gen_stmts(rng, depth - 1, 1, 2),
        ),
        _ => StmtRecipe::Return(gen_expr(rng, 3)),
    }
}

/// A generated program with its input count and the parameter value of
/// the patch that fills its hole, if it has one.
fn gen_program(rng: &mut XorShiftRng) -> (Program, u32, i64) {
    let mut stmts = gen_stmts(rng, 2, 1, 5);
    // At most one bug location and one hole, both at the top level, so
    // neither sits in a loop.
    if rng.gen_index(3) == 0 {
        let at = rng.gen_index(stmts.len() + 1);
        stmts.insert(at, StmtRecipe::Bug(gen_cond(rng, 1)));
    }
    if rng.gen_index(3) == 0 {
        let at = rng.gen_index(stmts.len() + 1);
        let hole = StmtRecipe::Hole(rng.gen_index(3) as u8, gen_cond(rng, 1), gen_expr(rng, 2));
        stmts.insert(at, hole);
    }
    let param = rng.gen_range_i64(-8, 8);
    let ret = gen_expr(rng, 3);
    let n_inputs = rng.gen_range_i64(2, 3) as u8;
    let mut b = Builder {
        vars: (0..n_inputs).map(|i| format!("in{i}")).collect(),
        n_inputs: n_inputs as usize,
        counter: 0,
        loop_counter: 0,
    };
    let mut body: Vec<Stmt> = stmts.iter().map(|s| b.stmt(s)).collect();
    body.push(Stmt::Return {
        value: b.expr(&ret),
        span: Span::default(),
    });
    let program = Program {
        name: "generated".into(),
        functions: Vec::new(),
        inputs: (0..n_inputs)
            .map(|i| cpr_lang::InputDecl {
                name: format!("in{i}"),
                lo: -8,
                hi: 8,
                span: Span::default(),
            })
            .collect(),
        body,
    };
    (program, n_inputs as u32, param)
}

struct Builder {
    vars: Vec<String>,
    n_inputs: usize,
    counter: usize,
    loop_counter: usize,
}

impl Builder {
    fn expr(&self, r: &ExprRecipe) -> Expr {
        match r {
            ExprRecipe::Var(i) => self.var(*i),
            ExprRecipe::Const(c) => Expr::Int(*c, Span::default()),
            ExprRecipe::Bin(op, a, b) => {
                let op =
                    [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem][*op as usize % 5];
                bin(op, self.expr(a), self.expr(b))
            }
            ExprRecipe::Call(f, a, b) => {
                let f =
                    [Builtin::Min, Builtin::Max, Builtin::Abs, Builtin::Roundup][*f as usize % 4];
                let mut args = vec![self.expr(a)];
                if f != Builtin::Abs {
                    args.push(self.expr(b));
                }
                Expr::Call(f, args, Span::default())
            }
        }
    }

    fn var(&self, i: u8) -> Expr {
        Expr::Var(
            self.vars[i as usize % self.vars.len()].clone(),
            Span::default(),
        )
    }

    fn cond(&self, r: &CondRecipe) -> Expr {
        const CMP: [BinOp; 6] = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        match r {
            CondRecipe::Cmp(op, a, b) => bin(CMP[*op as usize % 6], self.expr(a), self.expr(b)),
            CondRecipe::Not(c) => Expr::Unary(UnOp::Not, Box::new(self.cond(c)), Span::default()),
            CondRecipe::And(a, b) => bin(BinOp::And, self.cond(a), self.cond(b)),
            CondRecipe::Or(a, b) => bin(BinOp::Or, self.cond(a), self.cond(b)),
            CondRecipe::Guarded {
                and,
                var,
                rem,
                num,
                cmp,
                rhs,
            } => {
                let zero = Expr::Int(0, Span::default());
                let (test, join) = if *and {
                    (BinOp::Ne, BinOp::And)
                } else {
                    (BinOp::Eq, BinOp::Or)
                };
                let op = if *rem { BinOp::Rem } else { BinOp::Div };
                let guarded = bin(
                    CMP[*cmp as usize % 6],
                    bin(op, self.expr(num), self.var(*var)),
                    self.expr(rhs),
                );
                bin(join, bin(test, self.var(*var), zero), guarded)
            }
        }
    }

    fn stmt(&mut self, r: &StmtRecipe) -> Stmt {
        match r {
            StmtRecipe::Decl(e) => {
                let init = self.expr(e);
                let name = format!("v{}", self.counter);
                self.counter += 1;
                self.vars.push(name.clone());
                Stmt::Decl {
                    name,
                    ty: Type::Int,
                    init: Some(init),
                    span: Span::default(),
                }
            }
            StmtRecipe::Assign(i, e) => Stmt::Assign {
                name: self.vars[*i as usize % self.vars.len()].clone(),
                value: self.expr(e),
                span: Span::default(),
            },
            StmtRecipe::If(c, t, e) => {
                let cond = self.cond(c);
                // Declarations are block-scoped: restore the visible-name
                // list after each branch so later recipes cannot reference
                // branch-local variables.
                let mark = self.vars.len();
                let then_body = t.iter().map(|s| self.stmt(s)).collect();
                self.vars.truncate(mark);
                let else_body = e.iter().map(|s| self.stmt(s)).collect();
                self.vars.truncate(mark);
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span: Span::default(),
                }
            }
            StmtRecipe::CountedLoop(n, body_r) => {
                // for (k = 0; k < n; k++) body — guaranteed to terminate.
                let k = format!("k{}", self.loop_counter);
                self.loop_counter += 1;
                let mark = self.vars.len();
                self.vars.push(k.clone());
                let decl = Stmt::Decl {
                    name: k.clone(),
                    ty: Type::Int,
                    init: Some(Expr::Int(0, Span::default())),
                    span: Span::default(),
                };
                let mut body: Vec<Stmt> = body_r.iter().map(|s| self.stmt(s)).collect();
                body.push(Stmt::Assign {
                    name: k.clone(),
                    value: Expr::Binary(
                        BinOp::Add,
                        Box::new(Expr::Var(k.clone(), Span::default())),
                        Box::new(Expr::Int(1, Span::default())),
                        Span::default(),
                    ),
                    span: Span::default(),
                });
                let cond = Expr::Binary(
                    BinOp::Lt,
                    Box::new(Expr::Var(k, Span::default())),
                    Box::new(Expr::Int(*n as i64, Span::default())),
                    Span::default(),
                );
                let while_stmt = Stmt::While {
                    cond,
                    body,
                    span: Span::default(),
                };
                self.vars.truncate(mark);
                // Wrap decl+loop into an if(true)-free sequence: return the
                // loop and rely on the caller emitting the decl first is not
                // possible with a single Stmt — so nest them in a vacuous If.
                Stmt::If {
                    cond: Expr::Bool(true, Span::default()),
                    then_body: vec![decl, while_stmt],
                    else_body: Vec::new(),
                    span: Span::default(),
                }
            }
            StmtRecipe::Return(e) => Stmt::Return {
                value: self.expr(e),
                span: Span::default(),
            },
            StmtRecipe::Bug(c) => Stmt::Bug {
                name: "b".into(),
                spec: self.cond(c),
                span: Span::default(),
            },
            StmtRecipe::Hole(form, c, e) => {
                let args = self.vars[..self.n_inputs].to_vec();
                let hole = Expr::Hole(HoleKind::Cond, args, Span::default());
                let cond = match form % 3 {
                    0 => hole,
                    1 => bin(BinOp::And, self.cond(c), hole),
                    _ => bin(BinOp::Or, self.cond(c), hole),
                };
                Stmt::If {
                    cond,
                    then_body: vec![Stmt::Return {
                        value: self.expr(e),
                        span: Span::default(),
                    }],
                    else_body: Vec::new(),
                    span: Span::default(),
                }
            }
        }
    }
}

fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Binary(op, Box::new(a), Box::new(b), Span::default())
}

#[test]
fn interpreter_and_concolic_agree_on_random_programs() {
    let mut exercised = 0u32;
    for case in 0..160u64 {
        let mut rng = XorShiftRng::seed_from_u64(0x9806 + case);
        let (program, n_inputs, param) = gen_program(&mut rng);
        let seed: Vec<i64> = (0..3).map(|_| rng.gen_range_i64(-8, 8)).collect();
        if check(&program).is_err() {
            continue;
        }
        exercised += 1;
        let inputs: HashMap<String, i64> = (0..n_inputs as usize)
            .map(|i| (format!("in{i}"), seed[i.min(seed.len() - 1)]))
            .collect();

        // The patch for a hole: `in0 >= a` with parameter a = `param`.
        let mut pool = TermPool::new();
        let in0 = pool.named_var("in0", Sort::Int);
        let a = pool.var("a", Sort::Int);
        let a_term = pool.var_term(a);
        let theta = pool.ge(in0, a_term);
        let mut params = Model::new();
        params.set(a, param);

        // Concrete interpreter.
        let patch = ConcretePatch {
            pool: &pool,
            expr: theta,
            binding: params.clone(),
        };
        let concrete = Interp::with_max_steps(20_000).run(&program, &inputs, Some(&patch));

        // Concolic executor.
        let mut model = Model::new();
        for (name, v) in &inputs {
            let var = pool.var(name, Sort::Int);
            model.set(var, *v);
        }
        let hole = HolePatch {
            theta,
            params: params.clone(),
        };
        let run = ConcolicExecutor::with_budgets(20_000, 512).execute(
            &mut pool,
            &program,
            &model,
            Some(&hole),
        );

        assert_eq!(
            &run.outcome,
            &concrete.outcome,
            "case {case}: outcome mismatch\n{}",
            pretty(&program)
        );
        assert_eq!(run.hit_bug, concrete.bug_hits > 0, "case {case}");
        assert_eq!(run.hit_patch, concrete.patch_hits > 0, "case {case}");
        assert_eq!(run.steps, concrete.steps, "case {case}");

        // Every recorded path step holds under the producing input and
        // patch parameters, and σ holds exactly when it was not violated.
        let mut producing = run.inputs.clone();
        producing.set(a, param);
        for step in &run.path {
            assert!(
                producing.eval_bool(&pool, step.constraint),
                "case {case}: unsatisfied path step {}\n{}",
                pool.display(step.constraint),
                pretty(&program)
            );
        }
        if let Some(sigma) = run.sigma {
            assert_eq!(
                producing.eval_bool(&pool, sigma),
                !matches!(run.outcome, Outcome::SpecViolated { .. }),
                "case {case}: σ {} disagrees with the verdict\n{}",
                pool.display(sigma),
                pretty(&program)
            );
        }
    }
    assert!(
        exercised >= 100,
        "only {exercised}/160 generated programs checked"
    );
}

#[test]
fn pretty_print_roundtrips_shipped_subjects() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "cpr"))
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no shipped subjects in {}",
        dir.display()
    );
    for file in files {
        let src = std::fs::read_to_string(&file).unwrap();
        let program = parse(&src).unwrap();
        let printed = pretty(&program);
        let reparsed = parse(&printed).unwrap_or_else(|e| {
            panic!(
                "{}: pretty output failed to reparse: {}\n{printed}",
                file.display(),
                e.render(&printed)
            )
        });
        assert_eq!(
            reparsed.strip_spans(),
            program.strip_spans(),
            "{}: AST changed across pretty/parse",
            file.display()
        );
        assert!(check(&reparsed).is_ok(), "{}", file.display());
    }
}

#[test]
fn negative_literals_roundtrip_exactly() {
    // Regression for the pretty-printer emitting `(0 - 5)` for `-5`, which
    // reparsed to a structurally different (if semantically equal) AST.
    let program = Program {
        name: "neg".into(),
        functions: Vec::new(),
        inputs: vec![cpr_lang::InputDecl {
            name: "x".into(),
            lo: -8,
            hi: 8,
            span: Span::default(),
        }],
        body: vec![Stmt::Return {
            value: Expr::Binary(
                BinOp::Add,
                Box::new(Expr::Var("x".into(), Span::default())),
                Box::new(Expr::Int(-5, Span::default())),
                Span::default(),
            ),
            span: Span::default(),
        }],
    };
    let printed = pretty(&program);
    let reparsed = parse(&printed).unwrap();
    assert_eq!(reparsed.strip_spans(), program.strip_spans(), "{printed}");
    // A unary minus over a non-literal still parses as negation, and a
    // doubly negated literal folds twice.
    let e = cpr_lang::parse_expr("-(x)").unwrap();
    assert!(matches!(e, Expr::Unary(cpr_lang::UnOp::Neg, ..)));
    let e = cpr_lang::parse_expr("- - 5").unwrap();
    assert!(matches!(e, Expr::Int(5, _)));
}

#[test]
fn pretty_print_roundtrips_random_programs() {
    let mut exercised = 0u32;
    for case in 0..160u64 {
        let mut rng = XorShiftRng::seed_from_u64(0x9906 + case);
        let (program, ..) = gen_program(&mut rng);
        if check(&program).is_err() {
            continue;
        }
        exercised += 1;
        let printed = pretty(&program);
        let reparsed = parse(&printed).unwrap_or_else(|e| {
            panic!(
                "case {case}: pretty output failed to reparse: {}\n{}",
                e.render(&printed),
                printed
            )
        });
        // Full structural round-trip, not just print-stability: negative
        // literals in particular used to reparse as `0 - n` subtractions.
        assert_eq!(
            reparsed.strip_spans(),
            program.strip_spans(),
            "case {case}: AST changed across pretty/parse\n{printed}"
        );
        assert_eq!(pretty(&reparsed), printed, "case {case}");
        assert!(check(&reparsed).is_ok(), "case {case}");
    }
    assert!(
        exercised >= 100,
        "only {exercised}/160 generated programs checked"
    );
}

//! Content digests for terms: 128-bit structural hashes that are stable
//! across processes and independent of `TermId` assignment.
//!
//! The fleet cache (see [`crate::fleet`]) must key solver verdicts so that
//! two processes — or two runs of one process — interning the same
//! constraints in different orders produce the *same* key. `TermId`s are
//! interning-order-dependent, so the canonical in-process query key
//! (`CanonicalQuery`, sorted ids) cannot leave the process. A content
//! digest can: it hashes a term's structure bottom-up — the same tags the
//! [`TermPool::write_wire`] codec assigns, with variables hashed by *name*
//! and sort rather than by `VarId` — so structurally identical terms built
//! in any order, in any pool, digest identically. The property test below
//! pins exactly that contract.
//!
//! Digests also give queries a pool-independent *total order*: the solver
//! answers every query with its constraints iterated in content-digest
//! order (ties broken by `TermId`), which makes the bounded search trace —
//! and therefore the verdict, including `Unknown` cutoffs and `Sat`
//! witness models — a pure function of constraint *content* rather than of
//! interning history. That purity is what lets a fleet-cached verdict
//! stand in for a local search without changing any answer.

use std::collections::BTreeMap;

use crate::interval::Interval;
use crate::solver::{Domains, SolverConfig};
use crate::term::{arith_op_tag, cmp_op_tag, IdMap, Sort, TermData, TermId, TermPool};
use crate::wire::{fnv1a, ByteWriter};

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Running FNV-1a-128 hasher over byte-sized inputs.
#[derive(Clone, Copy)]
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u128;
        self.0 = self.0.wrapping_mul(FNV128_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> u128 {
        self.0
    }
}

/// The content digest of a leaf or of a node whose children are already
/// digested. Tags mirror [`TermPool::write_wire`] exactly, so the digest
/// is pinned to the same structural alphabet the codec is.
fn combine(pool: &TermPool, data: TermData, child: impl Fn(TermId) -> u128) -> u128 {
    let mut h = Fnv128::new();
    match data {
        TermData::BoolConst(b) => {
            h.byte(0);
            h.byte(b as u8);
        }
        TermData::IntConst(v) => {
            h.byte(1);
            h.bytes(&v.to_le_bytes());
        }
        TermData::Var(v) => {
            // By name + sort, never by id: the whole point is stability
            // across pools that assigned `VarId`s in different orders.
            h.byte(2);
            let name = pool.var_name(v);
            h.bytes(&(name.len() as u32).to_le_bytes());
            h.bytes(name.as_bytes());
            h.byte(match pool.var_sort(v) {
                Sort::Bool => 0,
                Sort::Int => 1,
            });
        }
        TermData::Not(a) => {
            h.byte(3);
            h.u128(child(a));
        }
        TermData::And(a, b) => {
            h.byte(4);
            h.u128(child(a));
            h.u128(child(b));
        }
        TermData::Or(a, b) => {
            h.byte(5);
            h.u128(child(a));
            h.u128(child(b));
        }
        TermData::Cmp(op, a, b) => {
            h.byte(6);
            h.byte(cmp_op_tag(op));
            h.u128(child(a));
            h.u128(child(b));
        }
        TermData::Arith(op, a, b) => {
            h.byte(7);
            h.byte(arith_op_tag(op));
            h.u128(child(a));
            h.u128(child(b));
        }
        TermData::Neg(a) => {
            h.byte(8);
            h.u128(child(a));
        }
        TermData::Ite(c, a, b) => {
            h.byte(9);
            h.u128(child(c));
            h.u128(child(a));
            h.u128(child(b));
        }
    }
    h.finish()
}

/// Lazily-synced table of per-term content digests, mirroring the
/// [`crate::deps::DepGraph`] pattern: children always precede parents in a
/// hash-consing pool, so one forward pass extends the table to the pool's
/// current length and a lookup costs an index.
#[derive(Debug, Default, Clone)]
pub struct TermDigests {
    table: Vec<u128>,
}

impl TermDigests {
    /// Whether `t`'s digest is cached.
    pub fn covers(&self, t: TermId) -> bool {
        t.index() < self.table.len()
    }

    /// The digest of a covered term.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not covered; call [`TermDigests::sync`] first.
    pub fn get(&self, t: TermId) -> u128 {
        self.table[t.index()]
    }

    /// Extends the table to cover every term currently in `pool`.
    pub fn sync(&mut self, pool: &TermPool) {
        let n = pool.len();
        if self.table.len() >= n {
            return;
        }
        self.table.reserve(n - self.table.len());
        for i in self.table.len()..n {
            let t = TermId(i as u32);
            let d = combine(pool, pool.data(t), |c| self.table[c.index()]);
            self.table.push(d);
        }
    }

    /// Digests of `terms` without requiring coverage (the `&self` entry
    /// points — root refutation, conflict minimization — cannot sync the
    /// shared table). Covered terms are read from the table; only the
    /// uncovered part of each term's cone is digested, post-order, into a
    /// map local to this call, so the cost is proportional to that part
    /// and never to the pool.
    pub fn of_terms(&self, pool: &TermPool, terms: &[TermId]) -> Vec<u128> {
        let mut local: IdMap<u128> = IdMap::default();
        let mut stack: Vec<(TermId, bool)> = Vec::new();
        let mut out = Vec::with_capacity(terms.len());
        for &root in terms {
            if self.covers(root) {
                out.push(self.get(root));
                continue;
            }
            stack.push((root, false));
            while let Some((t, children_done)) = stack.pop() {
                if self.covers(t) || local.contains_key(&t) {
                    continue;
                }
                let data = pool.data(t);
                if children_done {
                    let d = combine(pool, data, |c| self.lookup(&local, c));
                    local.insert(t, d);
                } else {
                    stack.push((t, true));
                    data.for_each_child(|c| stack.push((c, false)));
                }
            }
            out.push(self.lookup(&local, root));
        }
        out
    }

    /// A digest from the table or, for an uncovered term, from `local`.
    fn lookup(&self, local: &IdMap<u128>, t: TermId) -> u128 {
        if self.covers(t) {
            self.get(t)
        } else {
            local[&t]
        }
    }

    /// The original uncovered fallback of `of_terms`: a forward pass
    /// digesting every term from id 0. Kept as the test oracle for the
    /// cone-sized walk.
    #[cfg(test)]
    pub(crate) fn of_terms_forward_pass(pool: &TermPool, terms: &[TermId]) -> Vec<u128> {
        let hi = terms.iter().map(|t| t.index() + 1).max().unwrap_or(0);
        let mut local: Vec<u128> = Vec::with_capacity(hi);
        for i in 0..hi {
            let t = TermId(i as u32);
            let d = combine(pool, pool.data(t), |c| local[c.index()]);
            local.push(d);
        }
        terms.iter().map(|&t| local[t.index()]).collect()
    }

    /// Reorders `live` into content-canonical order: ascending by content
    /// digest, ties (structurally identical terms cannot coexist in one
    /// hash-consed pool, so ties require a digest collision) broken by
    /// `TermId` for total determinism in-process.
    pub(crate) fn sort_by_content(&self, pool: &TermPool, live: &[TermId]) -> Vec<TermId> {
        let digests = self.of_terms(pool, live);
        let mut keyed: Vec<(u128, TermId)> =
            digests.into_iter().zip(live.iter().copied()).collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, t)| t).collect()
    }
}

/// The domain-environment half of a fleet key: a 64-bit digest over the
/// solver knobs that can change a verdict (node budget, contraction
/// rounds, default domain) and the per-variable domains, with variables
/// identified by *name* so the digest is pool-independent. Two queries
/// share a fleet entry only when their constraint content, their domain
/// environment, and every verdict-relevant knob agree — which is what
/// makes a stored verdict an exact replay of the local search.
pub(crate) fn fleet_domain_digest(
    pool: &TermPool,
    domains: &Domains,
    config: &SolverConfig,
) -> u64 {
    let mut w = ByteWriter::new();
    // Version of the `check` semantics themselves: bumped whenever the
    // search can answer differently on identical content + knobs (e.g.
    // v2 added the relational zone pass at the root, turning some
    // budget-capped `Unknown`s into `Unsat`). Folding it into every
    // fleet key retires stale persisted verdicts wholesale instead of
    // replaying them.
    const CHECK_SEMANTICS_VERSION: u32 = 2;
    w.u32(CHECK_SEMANTICS_VERSION);
    w.u64(config.max_nodes);
    w.u32(config.max_contraction_rounds);
    w.i64(config.default_domain.lo());
    w.i64(config.default_domain.hi());
    // `Domains` iterates in `VarId` order; re-key by name so two pools
    // that interned the variables in different orders digest identically.
    let by_name: BTreeMap<&str, Interval> = domains
        .iter()
        .map(|(v, iv)| (pool.var_name(v), iv))
        .collect();
    w.usize(by_name.len());
    for (name, iv) in by_name {
        w.str(name);
        w.i64(iv.lo());
        w.i64(iv.hi());
    }
    fnv1a(w.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Domains;

    /// Builds `(x > 3) ∧ (x + y <= z * 2) ∧ ite(y < 0, x, y) != 7` with
    /// the sub-terms interned in the order `order` dictates, returning the
    /// three constraint terms.
    fn build(pool: &mut TermPool, order: &[usize]) -> Vec<TermId> {
        // Interning unrelated terms first shifts every id without
        // changing any content.
        for &pad in order {
            for k in 0..pad {
                let c = pool.int(1000 + k as i64);
                let v = pool.named_var(["p", "q", "r"][k % 3], Sort::Int);
                let _ = pool.add(c, v);
            }
        }
        let x = pool.named_var("x", Sort::Int);
        let y = pool.named_var("y", Sort::Int);
        let z = pool.named_var("z", Sort::Int);
        let three = pool.int(3);
        let two = pool.int(2);
        let seven = pool.int(7);
        let zero = pool.int(0);
        let c1 = pool.gt(x, three);
        let sum = pool.add(x, y);
        let dbl = pool.mul(z, two);
        let c2 = pool.le(sum, dbl);
        let cond = pool.lt(y, zero);
        let sel = pool.ite(cond, x, y);
        let c3 = pool.ne(sel, seven);
        vec![c1, c2, c3]
    }

    #[test]
    fn digests_are_stable_across_interning_order() {
        // The content-addressing contract the fleet cache depends on:
        // the same query built in two pools, with different creation
        // orders (and different id paddings), digests identically.
        let mut pool_a = TermPool::new();
        let cs_a = build(&mut pool_a, &[0]);
        let mut pool_b = TermPool::new();
        let cs_b = build(&mut pool_b, &[7, 3]);

        let mut da = TermDigests::default();
        da.sync(&pool_a);
        let db = TermDigests::default(); // exercise the uncovered fallback
        let digests_a = da.of_terms(&pool_a, &cs_a);
        let digests_b = db.of_terms(&pool_b, &cs_b);
        assert_eq!(
            digests_a, digests_b,
            "content digests must not depend on ids"
        );
        // Ids genuinely differ between the pools, so equality above is
        // not vacuous.
        assert_ne!(cs_a, cs_b, "test must exercise different id assignments");

        // The content order is id-independent too.
        let sorted_a = da.sort_by_content(&pool_a, &cs_a);
        let sorted_b = db.sort_by_content(&pool_b, &cs_b);
        let names = |pool: &TermPool, ts: &[TermId]| -> Vec<u128> {
            let d = TermDigests::default();
            d.of_terms(pool, ts)
        };
        assert_eq!(names(&pool_a, &sorted_a), names(&pool_b, &sorted_b));
    }

    #[test]
    fn of_terms_matches_the_forward_pass_oracle() {
        use crate::testgen::{random_term, TestRng};
        for seed in 0..48u64 {
            let mut rng = TestRng::new(seed);
            let mut pool = TermPool::new();
            // A table synced to a prefix of the pool, an uncovered tail
            // after it, and an empty table that covers nothing.
            let mut partial = TermDigests::default();
            for round in 0..6 {
                if round == 3 {
                    partial.sync(&pool);
                }
                let depth = 1 + rng.index(6);
                let _ = random_term(&mut rng, &mut pool, depth);
            }
            let fresh = pool.named_var("fresh", Sort::Int);
            let shared = random_term(&mut rng, &mut pool, 3);
            let _ = pool.mul(fresh, shared);
            assert!(partial.covers(TermId(0)), "seed {seed}: prefix synced");
            let all: Vec<TermId> = (0..pool.len()).map(|i| TermId(i as u32)).collect();
            let oracle = TermDigests::of_terms_forward_pass(&pool, &all);
            for digests in [&partial, &TermDigests::default()] {
                assert_eq!(digests.of_terms(&pool, &all), oracle, "seed {seed}: batch");
                for (&t, &want) in all.iter().zip(&oracle) {
                    assert_eq!(digests.of_terms(&pool, &[t]), [want], "seed {seed} {t:?}");
                }
            }
        }
    }

    #[test]
    fn of_terms_matches_the_oracle_for_small_terms_in_large_pools() {
        use crate::testgen::{random_term, TestRng};
        let mut rng = TestRng::new(11);
        let mut pool = TermPool::new();
        let early = random_term(&mut rng, &mut pool, 3);
        while pool.len() < 20_000 {
            let _ = random_term(&mut rng, &mut pool, 7);
        }
        let mut synced = TermDigests::default();
        synced.sync(&pool);
        let a = pool.named_var("late_a", Sort::Int);
        let b = pool.int(-99_999);
        let late = pool.sub(b, a);
        let oracle = TermDigests::of_terms_forward_pass(&pool, &[early, late]);
        for digests in [&synced, &TermDigests::default()] {
            assert_eq!(digests.of_terms(&pool, &[early, late]), oracle);
        }
    }

    #[test]
    fn distinct_content_gets_distinct_digests() {
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let y = pool.named_var("y", Sort::Int);
        let five = pool.int(5);
        let a = pool.lt(x, five);
        let b = pool.lt(y, five);
        let c = pool.le(x, five);
        let mut d = TermDigests::default();
        d.sync(&pool);
        assert_ne!(d.get(a), d.get(b), "different variables");
        assert_ne!(d.get(a), d.get(c), "different comparison ops");
    }

    #[test]
    fn fleet_domain_digest_is_name_keyed_and_knob_sensitive() {
        let mut pool_a = TermPool::new();
        let ax = pool_a.var("x", Sort::Int);
        let ay = pool_a.var("y", Sort::Int);
        let mut pool_b = TermPool::new();
        // Opposite interning order: different VarIds, same names.
        let by = pool_b.var("y", Sort::Int);
        let bx = pool_b.var("x", Sort::Int);

        let config = SolverConfig::default();
        let mut da = Domains::new();
        da.bound(ax, -5, 5).bound(ay, 0, 9);
        let mut db = Domains::new();
        db.bound(bx, -5, 5).bound(by, 0, 9);
        assert_eq!(
            fleet_domain_digest(&pool_a, &da, &config),
            fleet_domain_digest(&pool_b, &db, &config),
        );

        let mut narrower = SolverConfig::default();
        narrower.max_nodes /= 2;
        assert_ne!(
            fleet_domain_digest(&pool_a, &da, &config),
            fleet_domain_digest(&pool_a, &da, &narrower),
            "a verdict-relevant knob must change the digest"
        );
    }
}

//! Seeded random term DAGs shared by the crate's property tests.

use crate::term::{Sort, TermId, TermPool};

/// Tiny xorshift for the property test (`cpr-fuzz` would be a cyclic
/// dev-dependency here; the seeded-reproducibility style is the same).
pub(crate) struct TestRng(u64);

impl TestRng {
    pub(crate) fn new(seed: u64) -> Self {
        TestRng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub(crate) fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds a random term over a handful of variables, mixing every
/// constructor (including `Ite` and shared subterms via hash-consing).
pub(crate) fn random_term(rng: &mut TestRng, pool: &mut TermPool, depth: usize) -> TermId {
    if depth == 0 || rng.index(4) == 0 {
        return match rng.index(3) {
            0 => {
                let c = rng.index(11) as i64 - 5;
                pool.int(c)
            }
            _ => {
                let name = ["x", "y", "z", "u", "w"][rng.index(5)];
                pool.named_var(name, Sort::Int)
            }
        };
    }
    let a = random_term(rng, pool, depth - 1);
    let b = random_term(rng, pool, depth - 1);
    match rng.index(6) {
        0 => pool.add(a, b),
        1 => pool.mul(a, b),
        2 => pool.sub(a, b),
        3 => pool.neg(a),
        4 => {
            let ca = pool.le(a, b);
            let cb = pool.ge(a, b);
            pool.and(ca, cb)
        }
        _ => {
            let c = pool.lt(a, b);
            pool.ite(c, a, b)
        }
    }
}

//! Assertion-frame stack for incremental solving.
//!
//! A [`FrameSession`] holds a stack of pushed constraints over a fixed
//! domain environment. Each push appends a *frame* and re-contracts a warm
//! variable box, but only along constraints reachable from the new one in
//! the term-pool dependency graph (watcher lists per variable slot); every
//! interval narrowed on the way is logged on an undo *trail*, so a pop
//! restores the exact prior state in O(delta) — no re-contraction, no
//! rebuilding.
//!
//! The warm state is deliberately **advisory**: `Solver::check_frames`
//! never answers from it directly. It derives the canonical query the
//! session currently represents and routes it through the identical
//! pipeline `Solver::check` uses (same fast paths, same cache lookups,
//! same search), which makes the frame path verdict- and
//! model-identical to from-scratch checking *by construction*. The one
//! shortcut the warm state enables — a contraction failure observed during
//! a push — is only taken after `Solver::refute_root` re-proves it, so it
//! can never diverge either. What frames buy is the work the pipeline no
//! longer repeats per candidate: canonicalization is an O(log n) insert
//! instead of a sort, and the push-time contraction surfaces refutations
//! early while sharing all prefix work across the batch.

use std::collections::VecDeque;

use crate::interval::Interval;
use crate::solver::{contract_bool, initial_interval, Domains, VarBox};
use crate::term::{TermData, TermId, TermPool, VarId};

/// One pushed constraint: everything a pop must undo.
#[derive(Debug)]
struct Frame {
    constraint: TermId,
    /// Whether this frame inserted `constraint` into the canonical set
    /// (`false` for duplicates and constant constraints).
    inserted: bool,
    /// Whether the constraint is the constant `false`.
    is_false: bool,
    /// Trail length before this push.
    trail_mark: usize,
    /// Warm-box variable count before this push.
    vars_mark: usize,
    /// Slots whose watcher list this frame appended `constraint` to.
    watch_slots: Vec<u32>,
}

/// A push/pop constraint stack bound to one solver configuration and one
/// domain environment (captured at [`Solver::open_frames`]).
///
/// Obtained from [`Solver::open_frames`]; constraints enter and leave via
/// [`Solver::push_frame`] / [`Solver::pop_frame`], and the current
/// conjunction is decided by [`Solver::check_frames`].
///
/// [`Solver::open_frames`]: crate::Solver::open_frames
/// [`Solver::push_frame`]: crate::Solver::push_frame
/// [`Solver::pop_frame`]: crate::Solver::pop_frame
/// [`Solver::check_frames`]: crate::Solver::check_frames
#[derive(Debug)]
pub struct FrameSession {
    domains: Domains,
    default_domain: Interval,
    fingerprint: u64,
    /// The live pushed constraints in sorted, deduplicated order — the
    /// canonical query the session currently represents.
    canonical: Vec<TermId>,
    /// Constant-`false` constraints currently pushed.
    false_count: usize,
    frames: Vec<Frame>,
    /// Warm propagation box: variables in first-push order, intervals
    /// reflecting all contraction since the session opened.
    warm: VarBox,
    /// Constraints watching each slot's variable. Registrations append and
    /// pops remove from the tail, which is safe because frames pop LIFO.
    watchers: Vec<Vec<TermId>>,
    /// Undo log of `(slot, previous interval)` narrows.
    trail: Vec<(u32, Interval)>,
    /// Frame depth at which push-time contraction emptied a domain.
    failed_at: Option<usize>,
}

impl FrameSession {
    pub(crate) fn open(domains: Domains, default_domain: Interval, fingerprint: u64) -> Self {
        FrameSession {
            domains,
            default_domain,
            fingerprint,
            canonical: Vec::new(),
            false_count: 0,
            frames: Vec::new(),
            warm: VarBox::from_parts(Vec::new(), Vec::new()),
            watchers: Vec::new(),
            trail: Vec::new(),
            failed_at: None,
        }
    }

    /// Number of frames currently pushed.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Current trail length (undo entries pending across all frames).
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    pub(crate) fn canonical(&self) -> &[TermId] {
        &self.canonical
    }

    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    pub(crate) fn domains(&self) -> &Domains {
        &self.domains
    }

    pub(crate) fn has_trivially_false(&self) -> bool {
        self.false_count > 0
    }

    pub(crate) fn failed(&self) -> bool {
        self.failed_at.is_some()
    }

    /// Pushes `constraint` (whose variables are `vars`, in first-occurrence
    /// order) and re-contracts the warm box along its dependency cone.
    pub(crate) fn push(
        &mut self,
        pool: &TermPool,
        constraint: TermId,
        vars: &[VarId],
        rounds: u32,
    ) {
        let trail_mark = self.trail.len();
        let vars_mark = self.warm.len();
        let (inserted, is_false) = match pool.data(constraint) {
            TermData::BoolConst(true) => (false, false),
            TermData::BoolConst(false) => (false, true),
            _ => match self.canonical.binary_search(&constraint) {
                Ok(_) => (false, false),
                Err(at) => {
                    self.canonical.insert(at, constraint);
                    (true, false)
                }
            },
        };
        if is_false {
            self.false_count += 1;
        }
        let mut watch_slots: Vec<u32> = Vec::new();
        if inserted {
            for &v in vars {
                let slot = match self.warm.slot_index(v) {
                    Some(slot) => slot,
                    None => {
                        let iv = initial_interval(pool, v, &self.domains, self.default_domain);
                        let slot = self.warm.push_var(v, iv);
                        self.watchers.push(Vec::new());
                        slot
                    }
                };
                self.watchers[slot].push(constraint);
                watch_slots.push(slot as u32);
            }
        }
        self.frames.push(Frame {
            constraint,
            inserted,
            is_false,
            trail_mark,
            vars_mark,
            watch_slots,
        });
        if inserted && self.failed_at.is_none() && self.false_count == 0 {
            self.propagate(pool, constraint, rounds);
        }
    }

    /// Bounded watcher-driven re-contraction seeded at the new constraint:
    /// every narrow is trail-logged and wakes the constraints watching the
    /// narrowed variable. Stopping early (budget) is sound — the warm box
    /// is an over-approximation either way — and a domain wipe-out records
    /// the failing depth for the verified-refutation shortcut.
    fn propagate(&mut self, pool: &TermPool, seed: TermId, rounds: u32) {
        let mut budget = (rounds as usize).saturating_mul(self.canonical.len().max(1));
        let mut queue: VecDeque<TermId> = VecDeque::new();
        queue.push_back(seed);
        while let Some(t) = queue.pop_front() {
            if budget == 0 {
                return;
            }
            budget -= 1;
            let before = self.warm.snapshot_ivs();
            if contract_bool(pool, t, true, &mut self.warm).is_err() {
                self.failed_at = Some(self.frames.len());
                return;
            }
            for slot in self.warm.diff_slots(&before) {
                self.trail.push((slot as u32, before[slot]));
                for &w in &self.watchers[slot] {
                    if w != t && !queue.contains(&w) {
                        queue.push_back(w);
                    }
                }
            }
        }
    }

    /// Pops the most recent frame, undoing its trail suffix, watcher
    /// registrations, and variable additions. Returns the number of trail
    /// entries restored.
    ///
    /// # Panics
    ///
    /// Panics if no frame is pushed.
    pub(crate) fn pop(&mut self) -> usize {
        let f = self
            .frames
            .pop()
            .expect("pop_frame without a matching push_frame");
        if f.is_false {
            self.false_count -= 1;
        }
        if f.inserted {
            let at = self
                .canonical
                .binary_search(&f.constraint)
                .expect("canonical entry vanished");
            self.canonical.remove(at);
            for &slot in f.watch_slots.iter().rev() {
                let w = self.watchers[slot as usize].pop();
                debug_assert_eq!(w, Some(f.constraint), "watcher stack out of order");
            }
        }
        let mut tail = self.trail.split_off(f.trail_mark);
        let restored = tail.len();
        while let Some((slot, old)) = tail.pop() {
            self.warm.restore_slot(slot as usize, old);
        }
        self.warm.truncate_vars(f.vars_mark);
        self.watchers.truncate(f.vars_mark);
        if self.failed_at.is_some_and(|d| d > self.frames.len()) {
            self.failed_at = None;
        }
        restored
    }
}

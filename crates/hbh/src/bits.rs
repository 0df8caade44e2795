//! Arbitrary-width bitmasks and the shared coverage-reach fixpoint.
//!
//! The soft ([`crate::tables`]) and hard ([`crate::hard`]) forwarding
//! tables both need the same least fixpoint: which entries currently
//! receive data, where a marked entry is reachable only through a chain
//! of coverers bottoming out at a directly served one. The original
//! implementation ran on a stack `u128`, which capped tables at 128
//! entries — comfortable at the paper's group sizes (≤45) but not at the
//! internet-scale sweeps, where hundreds of receivers can funnel through
//! one access router. [`Mask`] lifts the cap; the word vector is a few
//! machine words for ordinary tables.
//!
//! The tables' coverage queries (`served_by_other`, `covered_by_other`,
//! `server_of`) scan the table once and stop at the first live
//! *unmarked* claimant: the fixpoint seeds every such entry as reachable,
//! so it already settles the answer ([`any_reachable_claimant`]).
//! [`reach_fixpoint`] runs only when every claimant is marked (for
//! `server_of`, when the first claimant in entry order is), so the
//! allocations sit on that rare path. Before this
//! rule the fixpoint ran whenever any claimant existed, which is every
//! refresh-period fusion; a sampled profile of the paper sweep put
//! 13.9% of its CPU here. Taking it off that path (together with the
//! engine's per-fusion scratch lists) raised perfbench `paper_sweep`
//! from 414 to 543 runs/s (median of 10 alternating 25 s pairs, 2-core
//! VM) with identical simulated outcomes.

/// A growable bitmask over entry indices `0..len`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Mask {
    words: Vec<u64>,
}

impl Mask {
    pub fn zeros(len: usize) -> Self {
        Mask {
            words: vec![0; len.div_ceil(64)],
        }
    }

    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub fn test(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub fn or_assign(&mut self, other: &Mask) {
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    pub fn and_not(&mut self, other: &Mask) {
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Indices of set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi * 64;
            std::iter::from_fn({
                let mut w = w;
                move || {
                    if w == 0 {
                        return None;
                    }
                    let i = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(base + i)
                }
            })
        })
    }
}

/// How an entry seeds the reach fixpoint.
pub(crate) enum Seed {
    /// Not participating (dead entry).
    Skip,
    /// Directly served: data fans out to it from this table.
    Reach,
    /// Marked: reachable only if a reachable entry's coverage claims it.
    Pending,
}

/// Least fixpoint of coverage reachability over `len` entries. `seed`
/// classifies each entry; `claims(j, i)` answers whether entry `j`'s
/// coverage set claims entry `i`'s node. Frontier propagation: only
/// entries that became reachable in the previous round can newly claim a
/// pending one, so each round scans the frontier instead of the whole
/// table. Coverage chains can nest — B3 serves B2 serves B1 — which is
/// why one hop is not enough.
pub(crate) fn reach_fixpoint(
    len: usize,
    seed: impl Fn(usize) -> Seed,
    claims: impl Fn(usize, usize) -> bool,
) -> Mask {
    let mut reach = Mask::zeros(len);
    let mut pending = Mask::zeros(len);
    for i in 0..len {
        match seed(i) {
            Seed::Skip => {}
            Seed::Reach => reach.set(i),
            Seed::Pending => pending.set(i),
        }
    }
    if pending.is_zero() {
        // Nothing marked: the seed set is already the fixpoint.
        return reach;
    }
    let mut frontier = reach.clone();
    loop {
        let mut newly = Mask::zeros(len);
        for j in frontier.ones() {
            for i in pending.ones() {
                if !newly.test(i) && claims(j, i) {
                    newly.set(i);
                }
            }
        }
        if newly.is_zero() {
            return reach;
        }
        reach.or_assign(&newly);
        pending.and_not(&newly);
        if pending.is_zero() {
            return reach;
        }
        frontier = newly;
    }
}

/// Is some claimant data-reachable? `claimant(i)` is `None` when entry
/// `i` makes no live claim and `Some(marked)` when it does. A live
/// unmarked claimant is reachable by seed, so the first one settles the
/// answer in one scan; only when every claimant is marked does `reach`
/// (the table's [`reach_fixpoint`]) run to tell served chains from
/// orphans.
pub(crate) fn any_reachable_claimant(
    len: usize,
    claimant: impl Fn(usize) -> Option<bool>,
    reach: impl FnOnce() -> Mask,
) -> bool {
    let mut marked_claimant = false;
    for i in 0..len {
        match claimant(i) {
            Some(false) => return true,
            Some(true) => marked_claimant = true,
            None => {}
        }
    }
    if !marked_claimant {
        return false;
    }
    let reach = reach();
    (0..len).any(|i| reach.test(i) && claimant(i).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_over_128_entries() {
        let mut m = Mask::zeros(300);
        for i in [0, 63, 64, 127, 128, 255, 299] {
            m.set(i);
        }
        assert!(m.test(128) && m.test(299) && !m.test(129));
        assert_eq!(
            m.ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 128, 255, 299]
        );
    }

    #[test]
    fn fixpoint_follows_nested_chains() {
        // 0 direct; 1 covered by 0; 2 covered by 1; 3 orphaned.
        let reach = reach_fixpoint(
            4,
            |i| if i == 0 { Seed::Reach } else { Seed::Pending },
            |j, i| matches!((j, i), (0, 1) | (1, 2)),
        );
        assert!(reach.test(0) && reach.test(1) && reach.test(2));
        assert!(!reach.test(3));
    }

    #[test]
    fn fixpoint_scales_past_the_old_cap() {
        // A 200-entry chain: i covered by i-1, rooted at 0.
        let reach = reach_fixpoint(
            200,
            |i| if i == 0 { Seed::Reach } else { Seed::Pending },
            |j, i| i == j + 1,
        );
        assert_eq!(reach.ones().count(), 200);
    }
}

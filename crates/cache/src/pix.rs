//! The idealized policies `P` and `PIX` (Sections 3 and 5.3–5.4).
//!
//! Both evict the resident page with the smallest *static* value:
//!
//! * `P` uses the page's access probability — the classical "keep the
//!   hottest pages" ideal that LRU approximates;
//! * `PIX` uses probability ÷ broadcast frequency — the paper's cost-based
//!   ideal ("it can be shown that under certain assumptions, an optimal
//!   replacement strategy is one that replaces the cache-resident page
//!   having the lowest ratio between its probability of access and its
//!   frequency of broadcast").
//!
//! Neither is implementable in a real client: they require perfect
//! knowledge of access probabilities and a global comparison across the
//! cache. In the simulator the probabilities are known exactly. Values are
//! static, so they are ranked once (which avoids comparing floats at every
//! eviction and gives deterministic tie-breaks), and residency is one bit
//! per rank: a page is resident when the bit of its rank is set, and the
//! victim is the lowest set bit.

use bdisk_sched::PageId;

use crate::{CachePolicy, PolicyContext};

/// Evicts the resident page with the smallest fixed per-page value.
///
/// `P` and `PIX` are the two instantiations; the value vector is the only
/// difference.
#[derive(Debug, Clone)]
pub struct StaticValuePolicy {
    capacity: usize,
    /// Rank of each page's value (0 = smallest value = first to evict);
    /// ties broken by page id for determinism.
    rank: Vec<u32>,
    /// Residency bitmap over ranks: bit `r % 64` of word `r / 64` is set
    /// when the page of rank `r` is resident.
    resident: Vec<u64>,
    /// Number of resident pages.
    len: usize,
    /// Every word before this one is zero, so the victim search starts
    /// here.
    low_word: usize,
    /// Inverse of `rank`: rank → page.
    page_of_rank: Vec<u32>,
    name: &'static str,
}

impl StaticValuePolicy {
    /// Creates the policy for pages `0..values.len()`, evicting the
    /// smallest `values[page]` first.
    pub fn new(capacity: usize, values: &[f64], name: &'static str) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let mut order: Vec<u32> = (0..values.len() as u32).collect();
        order.sort_by(|&a, &b| {
            values[a as usize]
                .partial_cmp(&values[b as usize])
                .expect("values must not be NaN")
                .then(a.cmp(&b))
        });
        let mut rank = vec![0u32; values.len()];
        for (r, &p) in order.iter().enumerate() {
            rank[p as usize] = r as u32;
        }
        Self {
            capacity,
            rank,
            resident: vec![0; values.len().div_ceil(64)],
            len: 0,
            low_word: 0,
            page_of_rank: order,
            name,
        }
    }

    /// The word index and bit mask of `page`'s rank in the bitmap.
    #[inline]
    fn bit(&self, page: PageId) -> (usize, u64) {
        let r = self.rank[page.index()] as usize;
        (r / 64, 1 << (r % 64))
    }

    /// Replaces the per-page value vector, keeping residency: the same
    /// pages stay cached, but are re-ranked under `values` so future
    /// evictions follow the new ordering (plan hot-swap support).
    pub fn reset_values(&mut self, values: &[f64]) {
        let residents: Vec<PageId> = (0..self.rank.len() as u32)
            .map(PageId)
            .filter(|&p| self.contains(p))
            .collect();
        *self = Self::new(self.capacity, values, self.name);
        for p in residents {
            self.admit(p);
        }
    }

    /// Sets `page`'s residency bit.
    fn admit(&mut self, page: PageId) {
        let (w, b) = self.bit(page);
        self.resident[w] |= b;
        self.low_word = self.low_word.min(w);
        self.len += 1;
    }

    /// Clears and returns the lowest set bit: the resident page with the
    /// smallest value.
    fn pop_lowest(&mut self) -> PageId {
        while self.resident[self.low_word] == 0 {
            self.low_word += 1;
        }
        let word = &mut self.resident[self.low_word];
        let r = self.low_word * 64 + word.trailing_zeros() as usize;
        *word &= *word - 1;
        self.len -= 1;
        PageId(self.page_of_rank[r])
    }
}

impl CachePolicy for StaticValuePolicy {
    fn contains(&self, page: PageId) -> bool {
        let (w, b) = self.bit(page);
        self.resident[w] & b != 0
    }

    fn on_hit(&mut self, _page: PageId, _now: f64) {
        // Values are static: hits carry no information.
    }

    fn insert(&mut self, page: PageId, _now: f64) -> Option<PageId> {
        assert!(!self.contains(page), "page {page} already resident");
        let victim = (self.len == self.capacity).then(|| self.pop_lowest());
        self.admit(page);
        victim
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        let (w, b) = self.bit(page);
        let was = self.resident[w] & b != 0;
        self.resident[w] &= !b;
        self.len -= was as usize;
        was
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn rescore(&mut self, ctx: &PolicyContext) {
        // The value vector is derived from the context the same way
        // `build_policy_raw` derives it at construction.
        match self.name {
            "P" => self.reset_values(&ctx.probs),
            "PIX" => {
                let values: Vec<f64> = ctx
                    .probs
                    .iter()
                    .enumerate()
                    .map(|(p, &pr)| pr / ctx.page_freq(PageId(p as u32)))
                    .collect();
                self.reset_values(&values);
            }
            _ => {}
        }
    }
}

/// The idealized `P` policy: evict the lowest access probability.
#[derive(Debug, Clone)]
pub struct PPolicy(StaticValuePolicy);

impl PPolicy {
    /// Creates a `P` policy with perfect knowledge of `probs`.
    pub fn new(capacity: usize, probs: &[f64]) -> Self {
        Self(StaticValuePolicy::new(capacity, probs, "P"))
    }
}

impl CachePolicy for PPolicy {
    fn contains(&self, page: PageId) -> bool {
        self.0.contains(page)
    }
    fn on_hit(&mut self, page: PageId, now: f64) {
        self.0.on_hit(page, now)
    }
    fn insert(&mut self, page: PageId, now: f64) -> Option<PageId> {
        self.0.insert(page, now)
    }
    fn invalidate(&mut self, page: PageId) -> bool {
        self.0.invalidate(page)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn capacity(&self) -> usize {
        self.0.capacity()
    }
    fn name(&self) -> &'static str {
        "P"
    }
    fn rescore(&mut self, ctx: &PolicyContext) {
        self.0.rescore(ctx)
    }
}

/// The idealized `PIX` policy: evict the lowest probability ÷ frequency.
#[derive(Debug, Clone)]
pub struct PixPolicy(StaticValuePolicy);

impl PixPolicy {
    /// Creates a `PIX` policy from per-page probabilities and broadcast
    /// frequencies.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a frequency is zero.
    pub fn new(capacity: usize, probs: &[f64], freqs: &[f64]) -> Self {
        assert_eq!(probs.len(), freqs.len(), "probs and freqs must align");
        let values: Vec<f64> = probs
            .iter()
            .zip(freqs)
            .map(|(&p, &x)| {
                assert!(x > 0.0, "broadcast frequency must be positive");
                p / x
            })
            .collect();
        Self(StaticValuePolicy::new(capacity, &values, "PIX"))
    }
}

impl CachePolicy for PixPolicy {
    fn contains(&self, page: PageId) -> bool {
        self.0.contains(page)
    }
    fn on_hit(&mut self, page: PageId, now: f64) {
        self.0.on_hit(page, now)
    }
    fn insert(&mut self, page: PageId, now: f64) -> Option<PageId> {
        self.0.insert(page, now)
    }
    fn invalidate(&mut self, page: PageId) -> bool {
        self.0.invalidate(page)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn capacity(&self) -> usize {
        self.0.capacity()
    }
    fn name(&self) -> &'static str {
        "PIX"
    }
    fn rescore(&mut self, ctx: &PolicyContext) {
        self.0.rescore(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_evicts_lowest_probability() {
        let mut p = PPolicy::new(2, &[0.5, 0.3, 0.2]);
        p.insert(PageId(1), 0.0);
        p.insert(PageId(2), 1.0);
        // Inserting the hot page evicts page 2 (prob 0.2 < 0.3).
        assert_eq!(p.insert(PageId(0), 2.0), Some(PageId(2)));
        assert!(p.contains(PageId(0)));
        assert!(p.contains(PageId(1)));
    }

    #[test]
    fn p_keeps_hottest_in_steady_state() {
        let probs = [0.4, 0.3, 0.2, 0.1];
        let mut p = PPolicy::new(2, &probs);
        for page in [3, 2, 1, 0, 3, 2, 1, 0u32] {
            if !p.contains(PageId(page)) {
                p.insert(PageId(page), 0.0);
            }
        }
        // Steady state: the two hottest pages are resident.
        assert!(p.contains(PageId(0)));
        assert!(p.contains(PageId(1)));
        assert!(!p.contains(PageId(2)));
        assert!(!p.contains(PageId(3)));
    }

    #[test]
    fn pix_weighs_frequency() {
        // The paper's Section 3 example: page 0 accessed 1% and broadcast
        // "1%" (frequent); page 1 accessed 0.5% but broadcast 0.1%
        // (rare). PIX prefers keeping page 1.
        let probs = [0.01, 0.005];
        let freqs = [10.0, 1.0];
        let mut pix = PixPolicy::new(1, &probs, &freqs);
        pix.insert(PageId(0), 0.0);
        // pix(0) = 0.001 < pix(1) = 0.005 → page 0 is the victim.
        assert_eq!(pix.insert(PageId(1), 1.0), Some(PageId(0)));
        assert!(pix.contains(PageId(1)));
    }

    #[test]
    fn p_vs_pix_disagree_exactly_as_in_section_3() {
        // Same scenario, P policy: page 0 has the higher probability so P
        // keeps page 0 and evicts page 1 instead.
        let probs = [0.01, 0.005];
        let mut p = PPolicy::new(1, &probs);
        p.insert(PageId(1), 0.0);
        assert_eq!(p.insert(PageId(0), 1.0), Some(PageId(1)));
        assert!(p.contains(PageId(0)));
    }

    #[test]
    fn capacity_one_always_replaces() {
        let mut p = PPolicy::new(1, &[0.6, 0.4]);
        assert_eq!(p.insert(PageId(0), 0.0), None);
        assert_eq!(p.insert(PageId(1), 1.0), Some(PageId(0)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn ties_break_deterministically_by_page_id() {
        // Equal values: lowest page id evicted first.
        let mut p = StaticValuePolicy::new(2, &[0.1, 0.1, 0.1], "T");
        p.insert(PageId(2), 0.0);
        p.insert(PageId(0), 1.0);
        assert_eq!(p.insert(PageId(1), 2.0), Some(PageId(0)));
    }

    #[test]
    fn hit_does_not_change_order() {
        let mut p = PPolicy::new(2, &[0.5, 0.3, 0.2]);
        p.insert(PageId(1), 0.0);
        p.insert(PageId(2), 1.0);
        // Many hits on the cold page don't save it from eviction.
        for t in 0..10 {
            p.on_hit(PageId(2), t as f64);
        }
        assert_eq!(p.insert(PageId(0), 99.0), Some(PageId(2)));
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut p = PPolicy::new(2, &[0.5, 0.5]);
        p.insert(PageId(0), 0.0);
        p.insert(PageId(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn pix_rejects_mismatched_inputs() {
        let _ = PixPolicy::new(1, &[0.5], &[1.0, 2.0]);
    }

    #[test]
    fn rescore_keeps_residents_and_reorders_evictions() {
        use crate::PolicyContext;
        // Under the old probs, page 2 is coldest; after rescore page 0 is.
        let mut p = PPolicy::new(2, &[0.5, 0.3, 0.2]);
        p.insert(PageId(0), 0.0);
        p.insert(PageId(2), 1.0);
        let ctx = PolicyContext {
            probs: vec![0.1, 0.4, 0.5],
            page_disk: vec![0, 0, 0],
            disk_freqs: vec![1],
            alpha: 0.25,
        };
        p.rescore(&ctx);
        // Residency preserved across the rescore.
        assert!(p.contains(PageId(0)) && p.contains(PageId(2)));
        assert_eq!(p.len(), 2);
        // The next eviction follows the *new* ranking: page 0 is coldest.
        assert_eq!(p.insert(PageId(1), 2.0), Some(PageId(0)));

        // PIX rescoring folds the new frequencies in: page 0 hot but
        // frequent (pix 0.1), page 2 cooler but rare (pix 0.4).
        let mut pix = StaticValuePolicy::new(2, &[0.9, 0.05, 0.05], "PIX");
        pix.insert(PageId(0), 0.0);
        pix.insert(PageId(2), 1.0);
        let ctx = PolicyContext {
            probs: vec![0.5, 0.1, 0.4],
            page_disk: vec![0, 0, 1],
            disk_freqs: vec![5, 1],
            alpha: 0.25,
        };
        pix.rescore(&ctx);
        assert_eq!(pix.insert(PageId(1), 2.0), Some(PageId(0)));
    }

    #[test]
    fn zero_probability_pages_evicted_first() {
        let probs = [0.0, 0.5, 0.0, 0.5];
        let mut p = PPolicy::new(3, &probs);
        p.insert(PageId(1), 0.0);
        p.insert(PageId(0), 1.0);
        p.insert(PageId(3), 2.0);
        assert_eq!(p.insert(PageId(2), 3.0), Some(PageId(0)));
    }
}

//! Differential test of the paper's five policies against naive reference
//! models: LRU against a recency `Vec`, L and LIX against a brute-force
//! minimum over the per-disk chain tails (ties toward the faster disk),
//! and P and PIX against a linear scan for the smallest (value, page id).
//!
//! Random hit, insert, invalidate and rescore sequences run over a few
//! pages with sparse ids drawn from a large id space, so the policies'
//! page-indexed tables grow on demand. After every operation both sides
//! must agree on the victim of an insert, on `contains` for every page,
//! and on `len`.

use std::collections::HashMap;

use bdisk_cache::{build_policy_raw, PolicyContext, PolicyKind};
use bdisk_sched::PageId;
use proptest::prelude::*;

const ALPHA: f64 = 0.25;
/// Page ids are drawn from `0..SPAN`.
const SPAN: u32 = 1 << 14;
/// Same bound on the elapsed time as the LIX estimator.
const MIN_ELAPSED: f64 = 1e-9;

/// splitmix64: the per-case source of contexts.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A context over `0..SPAN` with 1–3 disks. Probabilities take one of
/// eight values, so P and PIX often break ties by page id.
fn context(seed: u64) -> PolicyContext {
    let disks = 1 + (mix(seed) % 3) as usize;
    let mut disk_freqs: Vec<u64> = (0..disks).map(|d| 1 + mix(seed ^ d as u64) % 4).collect();
    disk_freqs.sort_unstable_by(|a, b| b.cmp(a));
    PolicyContext {
        probs: (0..SPAN as u64)
            .map(|p| (mix(seed.wrapping_add(p << 8)) % 8) as f64 / 8.0)
            .collect(),
        page_disk: (0..SPAN as u64)
            .map(|p| (mix(seed.wrapping_mul(31).wrapping_add(p)) % disks as u64) as u16)
            .collect(),
        disk_freqs,
        alpha: ALPHA,
    }
}

/// The reference model: a recency list (front = most recent) plus each
/// resident's `(p, t)` estimator state.
struct Model {
    kind: PolicyKind,
    capacity: usize,
    ctx: PolicyContext,
    order: Vec<u32>,
    est: HashMap<u32, (f64, f64)>,
}

impl Model {
    fn contains(&self, page: u32) -> bool {
        self.order.contains(&page)
    }

    fn estimate(&self, page: u32, now: f64) -> f64 {
        let (p, t) = self.est[&page];
        ALPHA / (now - t).max(MIN_ELAPSED) + (1.0 - ALPHA) * p
    }

    fn on_hit(&mut self, page: u32, now: f64) {
        let p = self.estimate(page, now);
        self.est.insert(page, (p, now));
        self.order.retain(|&q| q != page);
        self.order.insert(0, page);
    }

    fn victim(&self, now: f64) -> u32 {
        let page_disk = |p: u32| self.ctx.page_disk[p as usize] as usize;
        match self.kind {
            PolicyKind::Lru => *self.order.last().unwrap(),
            PolicyKind::L | PolicyKind::Lix => {
                let mut best: Option<(f64, u32)> = None;
                for d in 0..self.ctx.disk_freqs.len() {
                    let Some(&tail) = self.order.iter().rev().find(|&&p| page_disk(p) == d) else {
                        continue;
                    };
                    let freq = match self.kind {
                        PolicyKind::L => 1.0,
                        _ => self.ctx.disk_freqs[d] as f64,
                    };
                    let lix = self.estimate(tail, now) / freq;
                    // Strictly smaller replaces: ties stay with the faster disk.
                    match best {
                        Some((b, _)) if lix >= b => {}
                        _ => best = Some((lix, tail)),
                    }
                }
                best.unwrap().1
            }
            _ => {
                let value = |p: u32| match self.kind {
                    PolicyKind::P => self.ctx.probs[p as usize],
                    _ => self.ctx.probs[p as usize] / self.ctx.page_freq(PageId(p)),
                };
                *self
                    .order
                    .iter()
                    .min_by(|&&a, &&b| value(a).partial_cmp(&value(b)).unwrap().then(a.cmp(&b)))
                    .unwrap()
            }
        }
    }

    fn insert(&mut self, page: u32, now: f64) -> Option<u32> {
        let victim = (self.order.len() == self.capacity).then(|| self.victim(now));
        if let Some(v) = victim {
            self.invalidate(v);
        }
        self.est.insert(page, (0.0, now));
        self.order.insert(0, page);
        victim
    }

    fn invalidate(&mut self, page: u32) -> bool {
        self.est.remove(&page);
        let before = self.order.len();
        self.order.retain(|&q| q != page);
        self.order.len() != before
    }

    /// A new context. L and LIX rebuild their chains in recency order:
    /// latest access first, equal times by ascending page id.
    fn rescore(&mut self, ctx: PolicyContext) {
        self.ctx = ctx;
        if matches!(self.kind, PolicyKind::L | PolicyKind::Lix) {
            let est = &self.est;
            self.order
                .sort_by(|a, b| est[b].1.partial_cmp(&est[a].1).unwrap().then(a.cmp(b)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn policies_match_reference_models(
        capacity in 1usize..10,
        ids in prop::collection::vec(0u32..SPAN, 2..32),
        ops in prop::collection::vec((0usize..64, 0u32..4, 0u8..24), 1..250),
        seed in any::<u64>(),
    ) {
        // The starting context and three a rescore switches between.
        let contexts: Vec<PolicyContext> = (0..4).map(|i| context(mix(seed ^ i))).collect();
        for kind in [PolicyKind::Lru, PolicyKind::L, PolicyKind::Lix, PolicyKind::P, PolicyKind::Pix] {
            let mut policy = build_policy_raw(kind, capacity, &contexts[0]);
            let mut model = Model {
                kind,
                capacity,
                ctx: contexts[0].clone(),
                order: Vec::new(),
                est: HashMap::new(),
            };
            let mut t = 0.0;
            for (step, &(pick, dt, op)) in ops.iter().enumerate() {
                t += f64::from(dt);
                let page = ids[pick % ids.len()];
                match op {
                    0..=2 => {
                        let got = policy.invalidate(PageId(page));
                        prop_assert_eq!(got, model.invalidate(page), "{} invalidate p{}", kind, page);
                    }
                    3 => {
                        let ctx = &contexts[1 + step % 3];
                        policy.rescore(ctx);
                        model.rescore(ctx.clone());
                    }
                    _ if model.contains(page) => {
                        policy.on_hit(PageId(page), t);
                        model.on_hit(page, t);
                    }
                    _ => {
                        let got = policy.insert(PageId(page), t).map(|v| v.0);
                        prop_assert_eq!(got, model.insert(page, t), "{} victim at step {}", kind, step);
                    }
                }
                prop_assert_eq!(policy.len(), model.order.len(), "{} len at step {}", kind, step);
                for &p in &ids {
                    prop_assert_eq!(policy.contains(PageId(p)), model.contains(p),
                        "{} contains p{} at step {}", kind, p, step);
                }
            }
        }
    }
}

//! The broadcast program: a periodic sequence of page-broadcast slots.
//!
//! A program is the server's entire output: slot `k` (covering virtual time
//! `[k, k+1)` in broadcast units) carries one page, or nothing when the
//! chunk-splitting step of the generation algorithm could not divide a disk
//! evenly (the paper's "unused slots"). The sequence repeats forever with
//! period [`BroadcastProgram::period`].
//!
//! Beyond the slot vector, the program pre-computes per-page broadcast
//! positions so the client model can answer *"when does page p next go by?"*
//! with a binary search over that page's `f` airings per period. The
//! positions of all pages share one flat offsets array, page by page, with
//! a per-page start index into it: two counting passes over the slot
//! sequence build both, with no allocation per page.

use crate::disk::DiskLayout;
use crate::error::SchedError;
use crate::generate;

/// Identifier of a page in broadcast order (0 = the page the server
/// believes is hottest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// The page id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a repair symbol within one channel's period: repair slots
/// are numbered `0..R` in period-offset order, so the id alone determines
/// (given the plan and its coding seed) exactly which pages the symbol
/// combines — server and client agree with no side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RepairId(pub u32);

impl RepairId {
    /// The repair-symbol id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RepairId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One broadcast slot: a page transmission, a coded repair symbol, or an
/// unused slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The slot broadcasts this page.
    Page(PageId),
    /// The slot is unused (chunk padding); real deployments would carry
    /// indexes, invalidations, or extra copies of hot pages here.
    Empty,
    /// The slot carries an erasure-coded repair symbol (a deterministic
    /// combination of recently aired pages; see `bdisk-code`).
    Repair(RepairId),
    /// An out-of-band plan-epoch fence marker. Never part of a program's
    /// periodic slot vector: the live engine airs fence frames *in
    /// addition to* a tick's data frames to announce which plan epoch is
    /// (or is about to be) on the air, so tuners can re-map page-to-slot
    /// arrivals across a hot swap. The fence's epoch and slot-clock base
    /// ride in the wire frame, not in this marker.
    EpochFence,
    /// An on-demand airing of `page` serviced from the server's pull
    /// queue rather than the periodic schedule. Like [`Slot::EpochFence`],
    /// never part of a program's periodic slot vector: the slot arbiter
    /// substitutes `Pull` frames for padding (and, in the stealing modes,
    /// for scheduled data slots) at air time, so the periodic arithmetic
    /// in [`BroadcastProgram::next_arrival`] stays valid for push traffic.
    Pull(PageId),
}

/// A periodic broadcast program.
#[derive(Debug, Clone)]
pub struct BroadcastProgram {
    slots: Vec<Slot>,
    /// Slot offsets (within one period) of every page airing, grouped by
    /// page and sorted within each page.
    offsets: Vec<u32>,
    /// Page `p`'s offsets are `offsets[page_start[p]..page_start[p + 1]]`;
    /// one entry per page plus a final end index.
    page_start: Vec<u32>,
    /// Disk index per page (0 when the program was built from raw slots).
    page_disk: Vec<u16>,
    /// Relative frequency of each disk (empty for raw-slot programs).
    disk_freqs: Vec<u64>,
    /// Number of empty (padding) slots per period.
    empty_slots: usize,
    /// Sorted slot offsets (within one period) of the empty padding slots;
    /// the pull arbiter fills these first, and the simulator mirror uses
    /// them to predict when a queued pull request goes on the air.
    empty_starts: Vec<u32>,
    /// Number of coded repair slots per period.
    repair_slots: usize,
}

impl BroadcastProgram {
    /// Generates a multi-disk program from `layout` using the Section 2.2
    /// algorithm. See [`crate::generate`] for the construction.
    pub fn generate(layout: &DiskLayout) -> Result<Self, SchedError> {
        generate::multi_disk_program(layout)
    }

    /// Builds a program from an explicit slot sequence.
    ///
    /// Used for the baseline programs (flat, skewed, random) and by tests.
    /// Page ids must be dense: every page in `0..=max` must appear at least
    /// once. `disk_of` labels each page with a disk index for access-location
    /// accounting; pass `None` to place everything on disk 0.
    pub fn from_slots(
        slots: Vec<Slot>,
        disk_of: Option<&dyn Fn(PageId) -> u16>,
        disk_freqs: Vec<u64>,
    ) -> Result<Self, SchedError> {
        let num_pages = slots
            .iter()
            .filter_map(|s| match s {
                Slot::Page(p) => Some(p.index() + 1),
                Slot::Empty | Slot::Repair(_) | Slot::EpochFence | Slot::Pull(_) => None,
            })
            .max()
            .ok_or(SchedError::EmptyProgram)?;

        // Pass 1 counts each page's airings into `page_start[p]`.
        let mut page_start = vec![0u32; num_pages + 1];
        let mut empty_slots = 0;
        let mut empty_starts = Vec::new();
        let mut repair_slots = 0;
        for (i, s) in slots.iter().enumerate() {
            match s {
                Slot::Page(p) => page_start[p.index()] += 1,
                Slot::Empty => {
                    empty_slots += 1;
                    empty_starts.push(i as u32);
                }
                Slot::Repair(_) => repair_slots += 1,
                Slot::EpochFence => {
                    panic!("EpochFence is an out-of-band marker, not a program slot")
                }
                Slot::Pull(_) => {
                    panic!("Pull is substituted at air time, not a program slot")
                }
            }
        }
        if let Some(p) = page_start[..num_pages].iter().position(|&n| n == 0) {
            // Dense page-id requirement: a "page" that is never broadcast
            // cannot be retrieved and indicates a bug in the caller's slot
            // construction.
            panic!("page p{p} never appears in the program");
        }
        // Running sums turn the counts into each page's end index.
        let mut end = 0;
        for n in &mut page_start {
            end += *n;
            *n = end;
        }
        // Pass 2 walks the slots backwards, stepping each page's index
        // down from its end to its start, so offsets land sorted.
        let mut offsets = vec![0u32; end as usize];
        for (i, s) in slots.iter().enumerate().rev() {
            if let Slot::Page(p) = s {
                let at = &mut page_start[p.index()];
                *at -= 1;
                offsets[*at as usize] = i as u32;
            }
        }
        let page_disk = match disk_of {
            Some(f) => (0..num_pages).map(|p| f(PageId(p as u32))).collect(),
            None => vec![0; num_pages],
        };
        Ok(Self {
            slots,
            offsets,
            page_start,
            page_disk,
            disk_freqs,
            empty_slots,
            empty_starts,
            repair_slots,
        })
    }

    /// The broadcast period, in slots (= broadcast units).
    pub fn period(&self) -> usize {
        self.slots.len()
    }

    /// The slot sequence for one period.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Number of distinct pages broadcast.
    pub fn num_pages(&self) -> usize {
        self.page_start.len() - 1
    }

    /// Number of unused (padding) slots per period.
    pub fn empty_slots(&self) -> usize {
        self.empty_slots
    }

    /// Number of coded repair slots per period.
    pub fn repair_slots(&self) -> usize {
        self.repair_slots
    }

    /// Fraction of bandwidth wasted on padding.
    pub fn waste(&self) -> f64 {
        self.empty_slots as f64 / self.period() as f64
    }

    /// Relative frequency of each disk, fastest first (empty for programs
    /// built from raw slots without a layout).
    pub fn disk_frequencies(&self) -> &[u64] {
        &self.disk_freqs
    }

    /// Number of disks this program distinguishes (at least 1).
    pub fn num_disks(&self) -> usize {
        self.disk_freqs.len().max(
            self.page_disk
                .iter()
                .map(|&d| d as usize + 1)
                .max()
                .unwrap_or(1),
        )
    }

    /// The disk (0-based) that broadcasts `page`.
    pub fn disk_of(&self, page: PageId) -> usize {
        self.page_disk[page.index()] as usize
    }

    /// Broadcasts of `page` per period.
    pub fn frequency(&self, page: PageId) -> u64 {
        self.page_starts(page).len() as u64
    }

    /// Fraction of the total bandwidth given to `page`.
    pub fn bandwidth_share(&self, page: PageId) -> f64 {
        self.frequency(page) as f64 / self.period() as f64
    }

    /// The fixed inter-arrival gap of `page` in broadcast units, or `None`
    /// if the page's broadcasts are *not* evenly spaced (e.g. in a skewed
    /// program).
    pub fn gap(&self, page: PageId) -> Option<f64> {
        let starts = self.page_starts(page);
        if starts.len() == 1 {
            return Some(self.period() as f64);
        }
        let expect = self.period() as f64 / starts.len() as f64;
        for w in starts.windows(2) {
            if (w[1] - w[0]) as f64 != expect {
                return None;
            }
        }
        // Wrap-around gap.
        let wrap = (self.period() as u32 - starts[starts.len() - 1] + starts[0]) as f64;
        (wrap == expect).then_some(expect)
    }

    /// All inter-arrival gaps of `page` within one period (including the
    /// wrap-around gap). Used by the analytic expected-delay model.
    pub fn gaps(&self, page: PageId) -> Vec<f64> {
        let starts = self.page_starts(page);
        let mut gaps = Vec::with_capacity(starts.len());
        for w in starts.windows(2) {
            gaps.push((w[1] - w[0]) as f64);
        }
        gaps.push((self.period() as u32 - starts[starts.len() - 1] + starts[0]) as f64);
        gaps
    }

    /// Slot offsets (within one period) at which `page` is broadcast.
    #[inline]
    pub fn page_starts(&self, page: PageId) -> &[u32] {
        let p = page.index();
        &self.offsets[self.page_start[p] as usize..self.page_start[p + 1] as usize]
    }

    /// The slot broadcast at absolute slot sequence number `seq`, wrapping
    /// around the period. `seq` is the live engine's monotone slot counter:
    /// slot `seq` covers broadcast-unit time `[seq, seq+1)`.
    pub fn slot_at(&self, seq: u64) -> Slot {
        self.slots[(seq % self.period() as u64) as usize]
    }

    /// Iterates the broadcast from absolute slot `seq` onward, yielding
    /// `(seq, slot)` pairs forever (the program is periodic). This is the
    /// slot-level feed a real-time broadcast server drives its transport
    /// with; take or break when done.
    pub fn slots_from(&self, seq: u64) -> impl Iterator<Item = (u64, Slot)> + '_ {
        (seq..).map(move |s| (s, self.slot_at(s)))
    }

    /// The absolute time (slot start) at which `page` is next broadcast at
    /// or after time `t` (in broadcast units).
    ///
    /// A client that missed its cache waits from `t` until this instant;
    /// the paper's response time for the request is the difference.
    pub fn next_arrival(&self, page: PageId, t: f64) -> f64 {
        debug_assert!(t >= 0.0);
        let period = self.period() as f64;
        let starts = self.page_starts(page);
        let cycle = (t / period).floor();
        let phase = t - cycle * period;
        // First broadcast at offset >= phase, else wrap to next cycle.
        let idx = starts.partition_point(|&s| (s as f64) < phase);
        if idx < starts.len() {
            cycle * period + starts[idx] as f64
        } else {
            (cycle + 1.0) * period + starts[0] as f64
        }
    }

    /// Sorted slot offsets (within one period) of the empty padding slots.
    pub fn empty_starts(&self) -> &[u32] {
        &self.empty_starts
    }

    /// The absolute time (slot start) of the next empty padding slot at or
    /// after time `t`, or `None` if the program has no padding.
    ///
    /// This is the earliest instant a padding-fill pull arbiter can put a
    /// queued page on the air: the simulator's pull mirror and the live
    /// arbiter both derive a request's service slot from it, which is what
    /// keeps live-vs-sim parity bit-exact with pull enabled.
    pub fn next_empty_arrival(&self, t: f64) -> Option<f64> {
        debug_assert!(t >= 0.0);
        if self.empty_starts.is_empty() {
            return None;
        }
        let period = self.period() as f64;
        let starts = &self.empty_starts;
        let cycle = (t / period).floor();
        let phase = t - cycle * period;
        let idx = starts.partition_point(|&s| (s as f64) < phase);
        Some(if idx < starts.len() {
            cycle * period + starts[idx] as f64
        } else {
            (cycle + 1.0) * period + starts[0] as f64
        })
    }

    /// The coverage window of a repair slot at period offset `offset`: the
    /// period offsets of the most recent airing of each of the last
    /// `group` **distinct** coded pages aired before `offset` (cyclically),
    /// most-recent-first. Deduplication matters: XOR-combining two airings
    /// of the same page would cancel it out of the symbol.
    ///
    /// Only multi-airing pages are coded. A page broadcast once per period
    /// is the archetypal cold page: losing it means waiting a full period
    /// regardless (no repair slot can be placed "soon after" an airing that
    /// happens once), and any symbol covering it is dead weight until that
    /// period elapses. Skipping such pages keeps symbols usable and lets
    /// windows reach back *across* a cold disk's chunk to protect the slots
    /// before it. In a flat program where every page airs exactly once,
    /// nothing is multi-airing and all pages participate instead.
    ///
    /// This is the canonical window contract shared by the server-side
    /// encoder, the client-side decoder, and the analytic loss model —
    /// all three must walk the same offsets or coded recovery silently
    /// corrupts (the decoder XORs the wrong pages).
    pub fn coverage_window(&self, offset: u32, group: usize) -> Vec<u32> {
        let period = self.period() as u32;
        // Every page airs at least once, so some page airs twice exactly
        // when there are more airings than pages.
        let hot_only = self.offsets.len() > self.num_pages();
        let mut pages: Vec<PageId> = Vec::with_capacity(group);
        let mut window = Vec::with_capacity(group);
        for d in 1..period {
            let o = (offset + period - d) % period;
            if let Slot::Page(p) = self.slots[o as usize] {
                if hot_only && self.page_starts(p).len() < 2 {
                    continue;
                }
                if !pages.contains(&p) {
                    pages.push(p);
                    window.push(o);
                    if window.len() == group {
                        break;
                    }
                }
            }
        }
        window
    }

    /// Renders the program as a compact string, e.g. `"A B A C"` with
    /// letters for the first 26 pages and `p<N>` beyond; `-` marks padding.
    /// Intended for examples, docs, and the Figure 3 demo.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.period() * 2);
        for (i, s) in self.slots.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match s {
                Slot::Page(p) if p.0 < 26 => out.push((b'A' + p.0 as u8) as char),
                Slot::Page(p) => out.push_str(&format!("p{}", p.0)),
                Slot::Empty => out.push('-'),
                Slot::Repair(_) => out.push('+'),
                Slot::EpochFence => out.push('|'),
                Slot::Pull(p) => out.push_str(&format!("<{}", p.0)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abac() -> BroadcastProgram {
        // Program (c) of Figure 2: the Multi-disk broadcast A B A C.
        let slots = vec![
            Slot::Page(PageId(0)),
            Slot::Page(PageId(1)),
            Slot::Page(PageId(0)),
            Slot::Page(PageId(2)),
        ];
        BroadcastProgram::from_slots(slots, None, vec![]).unwrap()
    }

    fn aabc() -> BroadcastProgram {
        // Program (b) of Figure 2: the skewed broadcast A A B C.
        let slots = vec![
            Slot::Page(PageId(0)),
            Slot::Page(PageId(0)),
            Slot::Page(PageId(1)),
            Slot::Page(PageId(2)),
        ];
        BroadcastProgram::from_slots(slots, None, vec![]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let p = abac();
        assert_eq!(p.period(), 4);
        assert_eq!(p.num_pages(), 3);
        assert_eq!(p.frequency(PageId(0)), 2);
        assert_eq!(p.frequency(PageId(1)), 1);
        assert_eq!(p.empty_slots(), 0);
        assert_eq!(p.waste(), 0.0);
        assert_eq!(p.bandwidth_share(PageId(0)), 0.5);
    }

    #[test]
    fn gap_detects_even_spacing() {
        let p = abac();
        assert_eq!(p.gap(PageId(0)), Some(2.0)); // evenly spaced
        assert_eq!(p.gap(PageId(1)), Some(4.0)); // single copy
        let s = aabc();
        assert_eq!(s.gap(PageId(0)), None); // clustered → uneven
        assert_eq!(s.gaps(PageId(0)), vec![1.0, 3.0]);
    }

    #[test]
    fn gaps_sum_to_period_times_freq_share() {
        let p = aabc();
        for page in 0..3 {
            let g: f64 = p.gaps(PageId(page)).iter().sum();
            assert_eq!(g, p.period() as f64);
        }
    }

    #[test]
    fn next_arrival_within_cycle() {
        let p = abac(); // A at 0 and 2
        assert_eq!(p.next_arrival(PageId(0), 0.0), 0.0);
        assert_eq!(p.next_arrival(PageId(0), 0.5), 2.0);
        assert_eq!(p.next_arrival(PageId(0), 2.0), 2.0);
        assert_eq!(p.next_arrival(PageId(0), 2.1), 4.0); // wraps to next cycle
        assert_eq!(p.next_arrival(PageId(2), 3.5), 7.0); // C at offset 3
    }

    #[test]
    fn next_arrival_deep_in_time() {
        let p = abac();
        // t = 1000.25, period 4 → phase 0.25 → next A at offset 2.
        assert_eq!(p.next_arrival(PageId(0), 1000.25), 1002.0);
        // Exactly on a broadcast instant counts as catching it.
        assert_eq!(p.next_arrival(PageId(1), 1001.0), 1001.0);
    }

    #[test]
    fn next_arrival_never_in_past() {
        let p = aabc();
        for page in 0..3u32 {
            let mut t = 0.0;
            while t < 30.0 {
                let a = p.next_arrival(PageId(page), t);
                assert!(a >= t, "arrival {a} before request {t} for page {page}");
                assert!(a - t <= p.period() as f64, "waited more than a period");
                t += 0.37;
            }
        }
    }

    #[test]
    fn slot_at_wraps_the_period() {
        let p = abac();
        assert_eq!(p.slot_at(0), Slot::Page(PageId(0)));
        assert_eq!(p.slot_at(3), Slot::Page(PageId(2)));
        assert_eq!(p.slot_at(4), Slot::Page(PageId(0))); // next cycle
        assert_eq!(p.slot_at(1_000_003), p.slot_at(3));
    }

    #[test]
    fn slots_from_agrees_with_slot_at_and_next_arrival() {
        let p = abac();
        let feed: Vec<(u64, Slot)> = p.slots_from(6).take(5).collect();
        assert_eq!(feed[0], (6, p.slot_at(6)));
        assert_eq!(feed[4], (10, p.slot_at(10)));
        // Every slot carrying a page is that page's next arrival at that
        // instant — the live feed and the simulator arithmetic agree.
        for (seq, slot) in p.slots_from(0).take(12) {
            if let Slot::Page(page) = slot {
                assert_eq!(p.next_arrival(page, seq as f64), seq as f64);
            }
        }
    }

    #[test]
    fn empty_slots_counted() {
        let slots = vec![
            Slot::Page(PageId(0)),
            Slot::Empty,
            Slot::Page(PageId(0)),
            Slot::Empty,
        ];
        let p = BroadcastProgram::from_slots(slots, None, vec![]).unwrap();
        assert_eq!(p.empty_slots(), 2);
        assert_eq!(p.waste(), 0.5);
        assert_eq!(p.num_pages(), 1);
    }

    #[test]
    fn next_empty_arrival_walks_padding_slots() {
        // A - A - : padding at offsets 1 and 3.
        let slots = vec![
            Slot::Page(PageId(0)),
            Slot::Empty,
            Slot::Page(PageId(0)),
            Slot::Empty,
        ];
        let p = BroadcastProgram::from_slots(slots, None, vec![]).unwrap();
        assert_eq!(p.empty_starts(), &[1, 3]);
        assert_eq!(p.next_empty_arrival(0.0), Some(1.0));
        assert_eq!(p.next_empty_arrival(1.0), Some(1.0));
        assert_eq!(p.next_empty_arrival(1.5), Some(3.0));
        assert_eq!(p.next_empty_arrival(3.5), Some(5.0)); // wraps
        assert_eq!(p.next_empty_arrival(1001.0), Some(1001.0));
        // No padding → no pull opportunity.
        let dense = abac();
        assert_eq!(dense.next_empty_arrival(7.0), None);
    }

    #[test]
    fn from_slots_rejects_all_empty() {
        let r = BroadcastProgram::from_slots(vec![Slot::Empty, Slot::Empty], None, vec![]);
        assert_eq!(r.unwrap_err(), SchedError::EmptyProgram);
    }

    #[test]
    #[should_panic(expected = "never appears")]
    fn from_slots_rejects_sparse_pages() {
        // Page 1 missing while page 2 present.
        let slots = vec![Slot::Page(PageId(0)), Slot::Page(PageId(2))];
        let _ = BroadcastProgram::from_slots(slots, None, vec![]);
    }

    #[test]
    fn render_small_program() {
        assert_eq!(abac().render(), "A B A C");
        let slots = vec![Slot::Page(PageId(0)), Slot::Empty];
        let p = BroadcastProgram::from_slots(slots, None, vec![]).unwrap();
        assert_eq!(p.render(), "A -");
    }

    #[test]
    fn repair_slots_counted_and_rendered() {
        let slots = vec![
            Slot::Page(PageId(0)),
            Slot::Page(PageId(1)),
            Slot::Repair(RepairId(0)),
            Slot::Page(PageId(0)),
            Slot::Empty,
        ];
        let p = BroadcastProgram::from_slots(slots, None, vec![]).unwrap();
        assert_eq!(p.repair_slots(), 1);
        assert_eq!(p.empty_slots(), 1);
        assert_eq!(p.num_pages(), 2);
        assert_eq!(p.render(), "A B + A -");
        assert_eq!(p.slot_at(2), Slot::Repair(RepairId(0)));
    }

    #[test]
    fn coverage_window_dedupes_pages_most_recent_first() {
        // A B A B + : window of size 2 at offset 4 covers B's *latest*
        // airing (offset 3) then A's (offset 2) — one entry per distinct
        // page, most-recent-first.
        let slots = vec![
            Slot::Page(PageId(0)),
            Slot::Page(PageId(1)),
            Slot::Page(PageId(0)),
            Slot::Page(PageId(1)),
            Slot::Repair(RepairId(0)),
        ];
        let p = BroadcastProgram::from_slots(slots, None, vec![]).unwrap();
        assert_eq!(p.coverage_window(4, 2), vec![3, 2]);
        // A window larger than the coded-page count saturates.
        assert_eq!(p.coverage_window(4, 8), vec![3, 2]);
        // A B A + : B airs once per period — a cold page the code cannot
        // protect — so the window skips it and covers A alone.
        let slots = vec![
            Slot::Page(PageId(0)),
            Slot::Page(PageId(1)),
            Slot::Page(PageId(0)),
            Slot::Repair(RepairId(0)),
        ];
        let p = BroadcastProgram::from_slots(slots, None, vec![]).unwrap();
        assert_eq!(p.coverage_window(3, 2), vec![2]);
        assert_eq!(p.coverage_window(3, 8), vec![2]);
        // Wrap-around in a flat program: every page airs exactly once, so
        // all pages participate and the window walks back across the
        // period end.
        let slots = vec![
            Slot::Repair(RepairId(0)),
            Slot::Page(PageId(0)),
            Slot::Page(PageId(1)),
        ];
        let p = BroadcastProgram::from_slots(slots, None, vec![]).unwrap();
        assert_eq!(p.coverage_window(0, 2), vec![2, 1]);
    }

    #[test]
    fn disk_labels_from_closure() {
        let slots = vec![
            Slot::Page(PageId(0)),
            Slot::Page(PageId(1)),
            Slot::Page(PageId(0)),
            Slot::Page(PageId(2)),
        ];
        let f = |p: PageId| if p.0 == 0 { 0u16 } else { 1u16 };
        let p = BroadcastProgram::from_slots(slots, Some(&f), vec![2, 1]).unwrap();
        assert_eq!(p.disk_of(PageId(0)), 0);
        assert_eq!(p.disk_of(PageId(2)), 1);
        assert_eq!(p.disk_frequencies(), &[2, 1]);
        assert_eq!(p.num_disks(), 2);
    }
}

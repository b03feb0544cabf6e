//! Disk layouts: how pages are partitioned across broadcast "disks".
//!
//! A [`DiskLayout`] captures steps 1–3 of the Section 2.2 algorithm: pages
//! (already ordered hottest to coldest) are partitioned into ranges — the
//! *disks* — and each disk is given an integer relative broadcast
//! frequency. Disk 1 is the fastest (most frequently broadcast), disk N the
//! slowest, matching the paper's numbering.
//!
//! The paper's experiments organize the space of layouts with the Δ
//! ("Delta") knob of Section 4.2:
//!
//! ```text
//! rel_freq(i) = (N - i)·Δ + 1        (disks numbered 1..=N)
//! ```
//!
//! Δ = 0 is a flat broadcast; larger Δ skews bandwidth toward fast disks.
//! [`DiskLayout::with_delta`] builds exactly this family.

use crate::error::SchedError;
use crate::program::PageId;

/// The most pages a layout may hold: the wire carries a page id in a
/// 32-bit field whose top bit marks a coded repair symbol, so page ids are
/// `0..MAX_PAGES`.
pub const MAX_PAGES: usize = 1 << 31;

/// Partition of the page set into disks with integer relative frequencies.
///
/// Pages `0..sizes[0]` live on disk 1 (fastest), the next `sizes[1]` pages
/// on disk 2, and so on. Page numbers are *broadcast-order* ranks: the
/// server puts what it believes to be the hottest pages first (the mapping
/// from client-perceived heat to these ranks is `bdisk-workload`'s job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskLayout {
    sizes: Vec<usize>,
    freqs: Vec<u64>,
    /// Cumulative page-count boundaries; `bounds[i]` is the first page of
    /// disk `i`, with a final sentinel equal to the total page count.
    bounds: Vec<usize>,
}

impl DiskLayout {
    /// Creates a layout from explicit disk sizes and relative frequencies.
    ///
    /// `sizes[i]` is the number of pages on disk `i+1`; `freqs[i]` its
    /// relative broadcast frequency. Frequencies must be positive and
    /// non-increasing (disk 1 is the fastest). More than [`MAX_PAGES`]
    /// pages in total are rejected.
    pub fn new(sizes: Vec<usize>, freqs: Vec<u64>) -> Result<Self, SchedError> {
        if sizes.is_empty() {
            return Err(SchedError::NoDisks);
        }
        if sizes.len() != freqs.len() {
            return Err(SchedError::LengthMismatch {
                sizes: sizes.len(),
                freqs: freqs.len(),
            });
        }
        for (i, &s) in sizes.iter().enumerate() {
            if s == 0 {
                return Err(SchedError::EmptyDisk { disk: i });
            }
        }
        for (i, &q) in freqs.iter().enumerate() {
            if q == 0 {
                return Err(SchedError::ZeroFrequency { disk: i });
            }
        }
        if freqs.windows(2).any(|w| w[0] < w[1]) {
            return Err(SchedError::UnorderedFrequencies);
        }
        let mut bounds = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0usize;
        bounds.push(0);
        for &s in &sizes {
            acc = acc.saturating_add(s);
            bounds.push(acc);
        }
        if acc > MAX_PAGES {
            return Err(SchedError::TooManyPages { pages: acc });
        }
        Ok(Self {
            sizes,
            freqs,
            bounds,
        })
    }

    /// Creates a layout using the paper's Δ knob:
    /// `rel_freq(i) = (N − i)·Δ + 1` for disks `i = 1..=N`.
    ///
    /// Δ = 0 yields a flat broadcast (all frequencies 1).
    pub fn with_delta(sizes: &[usize], delta: u64) -> Result<Self, SchedError> {
        let n = sizes.len() as u64;
        let freqs = (1..=n).map(|i| (n - i) * delta + 1).collect();
        Self::new(sizes.to_vec(), freqs)
    }

    /// Number of disks (the paper anticipates 2–5).
    pub fn num_disks(&self) -> usize {
        self.sizes.len()
    }

    /// Total number of distinct pages across all disks (`ServerDBSize`).
    pub fn total_pages(&self) -> usize {
        *self.bounds.last().expect("bounds is never empty")
    }

    /// Pages per disk.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Relative broadcast frequency per disk (fastest first).
    pub fn freqs(&self) -> &[u64] {
        &self.freqs
    }

    /// The disk (0-based) holding `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the layout.
    pub fn disk_of(&self, page: PageId) -> usize {
        let p = page.index();
        assert!(p < self.total_pages(), "page {p} outside layout");
        // bounds is sorted; partition_point gives the count of boundaries <= p.
        self.bounds.partition_point(|&b| b <= p) - 1
    }

    /// The half-open page range `[start, end)` stored on `disk` (0-based).
    pub fn page_range(&self, disk: usize) -> std::ops::Range<usize> {
        self.bounds[disk]..self.bounds[disk + 1]
    }

    /// Relative frequency of the disk holding `page`.
    pub fn freq_of(&self, page: PageId) -> u64 {
        self.freqs[self.disk_of(page)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_layout() {
        let l = DiskLayout::new(vec![1, 2, 8], vec![4, 2, 1]).unwrap();
        assert_eq!(l.num_disks(), 3);
        assert_eq!(l.total_pages(), 11);
        assert_eq!(l.sizes(), &[1, 2, 8]);
        assert_eq!(l.freqs(), &[4, 2, 1]);
    }

    #[test]
    fn disk_of_respects_boundaries() {
        let l = DiskLayout::new(vec![1, 2, 8], vec![4, 2, 1]).unwrap();
        assert_eq!(l.disk_of(PageId(0)), 0);
        assert_eq!(l.disk_of(PageId(1)), 1);
        assert_eq!(l.disk_of(PageId(2)), 1);
        assert_eq!(l.disk_of(PageId(3)), 2);
        assert_eq!(l.disk_of(PageId(10)), 2);
    }

    #[test]
    #[should_panic(expected = "outside layout")]
    fn disk_of_out_of_range_panics() {
        let l = DiskLayout::new(vec![1, 2], vec![2, 1]).unwrap();
        let _ = l.disk_of(PageId(3));
    }

    #[test]
    fn page_ranges() {
        let l = DiskLayout::new(vec![3, 4], vec![2, 1]).unwrap();
        assert_eq!(l.page_range(0), 0..3);
        assert_eq!(l.page_range(1), 3..7);
    }

    #[test]
    fn delta_formula_matches_paper() {
        // Section 4.2: 3-disk broadcast, Δ=1 → speeds 3,2,1; Δ=3 → 7,4,1.
        let l = DiskLayout::with_delta(&[10, 10, 10], 1).unwrap();
        assert_eq!(l.freqs(), &[3, 2, 1]);
        let l = DiskLayout::with_delta(&[10, 10, 10], 3).unwrap();
        assert_eq!(l.freqs(), &[7, 4, 1]);
        // Δ=0 is flat.
        let l = DiskLayout::with_delta(&[10, 10, 10], 0).unwrap();
        assert_eq!(l.freqs(), &[1, 1, 1]);
    }

    #[test]
    fn delta_two_disks() {
        let l = DiskLayout::with_delta(&[500, 4500], 3).unwrap();
        assert_eq!(l.freqs(), &[4, 1]);
        assert_eq!(l.total_pages(), 5000);
    }

    #[test]
    fn freq_of_page() {
        let l = DiskLayout::with_delta(&[2, 3, 5], 2).unwrap();
        assert_eq!(l.freqs(), &[5, 3, 1]);
        assert_eq!(l.freq_of(PageId(0)), 5);
        assert_eq!(l.freq_of(PageId(2)), 3);
        assert_eq!(l.freq_of(PageId(9)), 1);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(DiskLayout::new(vec![], vec![]), Err(SchedError::NoDisks));
        assert_eq!(
            DiskLayout::new(vec![1], vec![1, 2]),
            Err(SchedError::LengthMismatch { sizes: 1, freqs: 2 })
        );
        assert_eq!(
            DiskLayout::new(vec![1, 0], vec![2, 1]),
            Err(SchedError::EmptyDisk { disk: 1 })
        );
        assert_eq!(
            DiskLayout::new(vec![1, 1], vec![2, 0]),
            Err(SchedError::ZeroFrequency { disk: 1 })
        );
        assert_eq!(
            DiskLayout::new(vec![1, 1], vec![1, 2]),
            Err(SchedError::UnorderedFrequencies)
        );
    }

    #[test]
    fn pages_past_the_wire_limit_rejected() {
        // The layout stores disk sizes only, so the limit itself is cheap
        // to construct.
        let l = DiskLayout::new(vec![MAX_PAGES - 1, 1], vec![2, 1]).unwrap();
        assert_eq!(l.total_pages(), MAX_PAGES);
        assert_eq!(
            DiskLayout::new(vec![MAX_PAGES, 1], vec![2, 1]),
            Err(SchedError::TooManyPages {
                pages: MAX_PAGES + 1
            })
        );
        // A sum that would overflow is rejected, not wrapped.
        assert_eq!(
            DiskLayout::new(vec![usize::MAX, 2], vec![1, 1]),
            Err(SchedError::TooManyPages { pages: usize::MAX })
        );
    }

    #[test]
    fn equal_frequencies_are_allowed() {
        // Non-increasing, not strictly decreasing: a "flat" two-disk layout
        // is legal (it is what Δ=0 produces).
        assert!(DiskLayout::new(vec![5, 5], vec![1, 1]).is_ok());
    }

    #[test]
    fn single_disk_is_flat() {
        let l = DiskLayout::new(vec![7], vec![1]).unwrap();
        assert_eq!(l.num_disks(), 1);
        assert_eq!(l.disk_of(PageId(6)), 0);
    }
}

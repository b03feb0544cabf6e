//! # bdisk-sched — broadcast program generation
//!
//! Implements Section 2 of *Broadcast Disks* (Acharya et al., SIGMOD 1995):
//! the server-side algorithm that superimposes multiple "disks" spinning at
//! different speeds on a single broadcast channel.
//!
//! The central object is the [`BroadcastProgram`]: a periodic sequence of
//! page-broadcast slots. Programs are generated from a [`DiskLayout`] (how
//! many disks, how many pages on each, and each disk's integer relative
//! broadcast frequency) by the chunk-interleaving algorithm of Section 2.2,
//! which guarantees
//!
//! 1. **fixed inter-arrival times** for every page (no Bus Stop Paradox),
//! 2. a **well-defined period** after which the broadcast repeats, and
//! 3. maximal use of the available bandwidth subject to 1 and 2.
//!
//! Baseline generators for a *flat* program (every page once per cycle), a
//! *skewed* program (repeat broadcasts clustered back-to-back, program (b)
//! of Figure 2), and a *random* bandwidth-allocation program are provided
//! for the paper's comparisons.
//!
//! ## Example: the Figure 3 worked example
//!
//! ```
//! use bdisk_sched::{BroadcastProgram, DiskLayout, PageId};
//!
//! // Three disks holding 1, 2, and 8 pages, spinning at 4:2:1.
//! let layout = DiskLayout::new(vec![1, 2, 8], vec![4, 2, 1]).unwrap();
//! let program = BroadcastProgram::generate(&layout).unwrap();
//!
//! assert_eq!(program.period(), 16); // 4 minor cycles of 4 slots
//! assert_eq!(program.frequency(PageId(0)), 4); // hottest page, every minor cycle
//! assert_eq!(program.gap(PageId(0)), Some(4.0)); // evenly spaced
//! ```

#![warn(missing_docs)]

pub mod disk;
pub mod error;
pub mod generate;
pub mod index;
pub mod optimizer;
pub mod plan;
pub mod program;

pub use disk::DiskLayout;
pub use error::SchedError;
pub use generate::{flat_program, random_program, skewed_program};
pub use index::IndexedBroadcast;
pub use optimizer::{optimize_layout, OptimizedLayout, OptimizerConfig};
pub use plan::{BroadcastPlan, ChannelId, ChannelStats, CodecKind, CodingConfig, MAX_CHANNELS};
pub use program::{BroadcastProgram, PageId, RepairId, Slot};

/// Least common multiple of two positive integers.
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Greatest common divisor (Euclid).
pub(crate) fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(7, 4), 28);
        assert_eq!(lcm(1, 1), 1);
    }
}

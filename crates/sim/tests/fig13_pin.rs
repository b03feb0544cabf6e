//! Bit-exact pin of one Figure 13 point per policy: D5 at Δ = 3,
//! CacheSize 500, Offset 500, Noise 30%, 2000 warm-up and 4000 measured
//! requests, one fixed seed per policy.
//!
//! The expected bits were recorded at commit
//! 2324038c384ef1d0c5d68d2f8347250556b07572, before the cache policies and
//! the broadcast program moved to dense page-indexed tables, by copying
//! this file into that tree and running
//!
//! ```text
//! cargo test --release -p bdisk-sim --test fig13_pin
//! ```
//!
//! A change to a policy's victims, to the arrival arithmetic, or to the
//! order of random draws moves at least one of these bits; a failure
//! prints the new values in the same hex form.

use bdisk_sched::DiskLayout;
use bdisk_sim::{simulate, PolicyKind, SimConfig};

/// `mean_response_time`, `hit_rate`, `p99`, `end_time` and
/// `access_fractions`, as `f64::to_bits`.
struct Pin {
    policy: PolicyKind,
    seed: u64,
    bits: [u64; 4],
    access_fractions: [u64; 4],
}

const PINS: [Pin; 5] = [
    Pin {
        policy: PolicyKind::P,
        seed: 1995,
        bits: [
            0x4082f21e353f7ce9,
            0x3fe9916872b020c5,
            0x40c6198000000000,
            0x415ad2dd40000000,
        ],
        access_fractions: [
            0x3fe9916872b020c5,
            0x3fb15810624dd2f2,
            0x3fb0b4395810624e,
            0x3fb16872b020c49c,
        ],
    },
    Pin {
        policy: PolicyKind::Pix,
        seed: 1996,
        bits: [
            0x4080edf4bc6a7ef2,
            0x3fe7f7ced916872b,
            0x40c39c8000000000,
            0x4158838540000000,
        ],
        access_fractions: [
            0x3fe7f7ced916872b,
            0x3fb8000000000000,
            0x3fc072b020c49ba6,
            0x3f9d70a3d70a3d71,
        ],
    },
    Pin {
        policy: PolicyKind::Lru,
        seed: 1997,
        bits: [
            0x40960b3ba5e35403,
            0x3fe6bc6a7ef9db23,
            0x40ca688000000000,
            0x416573e220000000,
        ],
        access_fractions: [
            0x3fe6bc6a7ef9db23,
            0x3fa78d4fdf3b645a,
            0x3fb3d70a3d70a3d7,
            0x3fc53f7ced916873,
        ],
    },
    Pin {
        policy: PolicyKind::L,
        seed: 1998,
        bits: [
            0x409036276c8b4391,
            0x3fe7810624dd2f1b,
            0x40ca310000000000,
            0x4161e22440000000,
        ],
        access_fractions: [
            0x3fe7810624dd2f1b,
            0x3fb3f7ced916872b,
            0x3fb1ba5e353f7cee,
            0x3fbe45a1cac08312,
        ],
    },
    Pin {
        policy: PolicyKind::Lix,
        seed: 1999,
        bits: [
            0x408d4448b439580e,
            0x3fe7353f7ced9168,
            0x40c9b18000000000,
            0x4160c3af00000000,
        ],
        access_fractions: [
            0x3fe7353f7ced9168,
            0x3fb5c28f5c28f5c3,
            0x3fb916872b020c4a,
            0x3fb77ced916872b0,
        ],
    },
];

#[test]
fn figure13_points_match_the_recorded_bits() {
    let layout = DiskLayout::with_delta(&[500, 2000, 2500], 3).unwrap();
    for pin in &PINS {
        let cfg = SimConfig {
            cache_size: 500,
            offset: 500,
            noise: 0.30,
            policy: pin.policy,
            requests: 4_000,
            warmup_requests: 2_000,
            ..SimConfig::default()
        };
        let o = simulate(&cfg, &layout, pin.seed).unwrap();
        let bits = [
            o.mean_response_time.to_bits(),
            o.hit_rate.to_bits(),
            o.p99.to_bits(),
            o.end_time.to_bits(),
        ];
        let fractions: Vec<u64> = o.access_fractions.iter().map(|f| f.to_bits()).collect();
        assert_eq!(
            (bits, fractions.as_slice()),
            (pin.bits, &pin.access_fractions[..]),
            "{}: got mean/hit/p99/end {bits:#018x?} fractions {fractions:#018x?}",
            pin.policy
        );
    }
}

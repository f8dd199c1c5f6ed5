//! How fast the machine runs right now.
//!
//! On a shared host, the same binary's run time swings by tens of percent
//! for minutes at a time as neighbours come and go. A pass therefore times
//! a fixed loop that never touches the simulator, every [`SAMPLE_EVERY`]
//! throughout, and scales its host times by the loop's median measured
//! time ÷ its reference time. Machine speed cancels out; a change to the
//! simulator does not, because the loop does not run it.
//!
//! The loop is shaped like the workload's dominant host work, because
//! neighbours slow different work differently: a core-bound loop tracks
//! block hashing, and only a cache- and allocator-bound loop tracks the
//! event-driven simulations. Measured on the reference machine over 15 s
//! windows, the matched loop cut the spread of the median run time from
//! 11% to 2% (`serve`), 4% to 2% (`contention`) and 5% to 2%
//! (`distribute`).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Least time between two samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// A calibration loop. Each takes about 1.3 ms on the reference machine,
/// a 2-vCPU Intel Xeon container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// A serial FNV-1a multiply chain of 2^20 steps, which no compiler can
    /// shorten or vectorise: core speed only.
    Chain,
    /// 10,000 pseudo-random pushes onto a binary heap and inserts into a
    /// B-tree map, with their allocations: core, cache and allocator.
    Churn,
}

impl Loop {
    /// Median time of the loop on the reference machine, ns.
    fn reference_ns(self) -> f64 {
        match self {
            Loop::Chain => 1.35e6,
            Loop::Churn => 1.25e6,
        }
    }

    fn run(self) -> u64 {
        match self {
            Loop::Chain => {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for i in 0..black_box(1u64 << 20) {
                    h ^= i & 0xff;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                h
            }
            Loop::Churn => {
                let mut heap = BinaryHeap::new();
                let mut map = BTreeMap::new();
                let mut x = 0x9e37_79b9_7f4a_7c15u64;
                for i in 0..black_box(10_000u64) {
                    // xorshift64
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    heap.push(Reverse((x % 1_000_000, i)));
                    map.insert(x % 65_536, i);
                }
                heap.peek().map_or(0, |r| r.0 .0) + map.len() as u64
            }
        }
    }
}

/// Samples a calibration loop through a pass.
#[derive(Debug)]
pub struct Speedometer {
    kind: Loop,
    samples: Vec<f64>,
    last: Option<Instant>,
    spent: Duration,
}

impl Speedometer {
    /// A speedometer timing `kind`.
    pub fn new(kind: Loop) -> Speedometer {
        Speedometer {
            kind,
            samples: Vec::new(),
            last: None,
            spent: Duration::ZERO,
        }
    }

    /// Times the loop if [`SAMPLE_EVERY`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < SAMPLE_EVERY) {
            return;
        }
        let t = Instant::now();
        black_box(self.kind.run());
        let took = t.elapsed();
        self.samples.push(took.as_nanos() as f64);
        self.spent += took;
        self.last = Some(Instant::now());
    }

    /// Wall time spent in the loop so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Measured ÷ reference loop time: above 1 when the machine runs slower
    /// than the reference. Host times divide by it.
    ///
    /// # Panics
    ///
    /// Panics before the first sample.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / self.kind.reference_ns()
    }
}

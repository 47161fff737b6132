//! The three metric primitives: monotone [`Counter`]s, free-moving
//! [`Gauge`]s, and log-bucketed [`Histogram`]s.
//!
//! All three are lock-free bundles of relaxed atomics, safe to hammer from
//! any number of threads: recording is a handful of `fetch_add`s with no
//! allocation, no branch on contention, and no synchronization with
//! readers. A concurrent exposition scrape observes each atomic
//! individually — values may be mutually out-of-date by a few events (a
//! histogram's `count` can momentarily run ahead of its bucket sum), but a
//! read is never *torn*: every loaded number was genuinely written by some
//! `record`/`add` call.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter (Prometheus `counter`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` that can move both ways (Prometheus `gauge`).
/// The value is stored as its bit pattern in an `AtomicU64`, so `set` and
/// `get` are single atomic operations.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution of the histogram: each power-of-two octave is
/// split into `2^SUB_BITS` linear sub-buckets (HDR-histogram style), so
/// the relative bucket-boundary error is bounded by `1/2^SUB_BITS` while
/// the whole `u64` range still fits in [`BUCKETS`] slots.
const SUB_BITS: u32 = 2;
const SUB: usize = 1 << SUB_BITS;

/// Number of buckets a [`Histogram`] carries. Index layout: values below
/// `SUB` map to their own bucket; a larger value with top bit `exp` lands
/// in octave `exp - SUB_BITS + 1`, sub-bucket = the `SUB_BITS` bits below
/// the top bit.
pub const BUCKETS: usize = ((63 - SUB_BITS as usize) << SUB_BITS) + SUB + SUB;

/// The bucket index of `value`. Total over `u64` (the last bucket ends at
/// `u64::MAX`), monotone, and allocation-free.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros();
        let sub = ((value >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (((exp - SUB_BITS + 1) as usize) << SUB_BITS) + sub
    }
}

/// The largest value that lands in bucket `index` — the inclusive upper
/// bound rendered as the Prometheus `le` label.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
pub fn bucket_upper(index: usize) -> u64 {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    if index < SUB {
        index as u64
    } else {
        let octave = (index >> SUB_BITS) as u32;
        let exp = octave + SUB_BITS - 1;
        let sub = (index & (SUB - 1)) as u64;
        let width = 1u64 << (exp - SUB_BITS);
        // The top bucket's bound is 2^63 + 2^63 - 1: the intermediate sum
        // wraps to exactly 0 before the -1, so wrapping ops land on
        // u64::MAX as intended.
        (1u64 << exp)
            .wrapping_add((sub + 1) * width)
            .wrapping_sub(1)
    }
}

/// A log-bucketed latency/size histogram (Prometheus `histogram`).
///
/// Values are unit-free `u64`s (this workspace records nanoseconds);
/// [`Histogram::record`] touches exactly three relaxed atomics and never
/// allocates — the bucket array is fixed at construction. Buckets are
/// power-of-two octaves with four linear sub-buckets each, bounding the
/// boundary quantization error at 25%.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The per-bucket counts (not cumulative), loaded bucket by bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_total_and_monotone_at_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 4);
        // Every bucket's upper bound round-trips, and the next value up
        // lands in the next bucket.
        for index in 0..BUCKETS {
            let upper = bucket_upper(index);
            assert_eq!(bucket_index(upper), index, "upper({index}) = {upper}");
            if upper < u64::MAX {
                assert_eq!(bucket_index(upper + 1), index + 1);
            } else {
                assert_eq!(index, BUCKETS - 1);
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_records_count_and_sum() {
        let h = Histogram::new();
        for v in [0, 1, 7, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), u64::MAX.wrapping_add(1008));
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 5);
    }
}

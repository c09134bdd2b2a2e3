//! A small log₂-bucketed histogram for latency- and staleness-like values.
//!
//! Values are `u64` (nanoseconds, iterations, bytes — the unit is the
//! caller's business). Bucket `i` holds values whose bit length is `i`,
//! i.e. bucket 0 is exactly `{0}`, bucket 1 is `{1}`, bucket 2 is `{2, 3}`,
//! bucket 3 is `{4..=7}`, and so on — 65 buckets cover the full `u64`
//! range. Recording is O(1) and allocation-free after construction, so the
//! hub can keep histograms exact even when it has to drop raw events.
//!
//! A report carries one as JSON: exact `count/sum/min/max`, derived
//! `mean/p50/p99` and the populated `(bucket_upper, count)` pairs, which
//! [`Histogram::from_json`] turns back into the histogram — how
//! `nscc inspect` reports p90 and a CDF the report does not pin.

use std::fmt::Write as _;

use crate::json::{Json, ToJson};

/// Number of log₂ buckets needed to cover `u64` (bit lengths 0..=64).
pub const BUCKETS: usize = 65;

/// A mergeable log₂ histogram with exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }
}

/// Bucket index of a value: its bit length.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket.
fn bucket_upper(idx: usize) -> u64 {
    match idx {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the first bucket whose
    /// cumulative count reaches `q` (0.0..=1.0) of the total, clamped to
    /// the exact observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(bucket_upper_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper(i), n))
    }

    /// The CDF as `(value_upper_bound, cumulative_fraction)` points, one
    /// per populated bucket, each bound clamped to the observed maximum.
    /// Empty when nothing was recorded.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut seen = 0u64;
        self.nonzero_buckets()
            .map(|(upper, n)| {
                seen += n;
                (upper.min(self.max), seen as f64 / self.count as f64)
            })
            .collect()
    }

    /// Rebuild a histogram from its JSON form. `None` when the value is
    /// not shaped like one or names a bucket bound no bucket has; the
    /// derived `mean/p50/p99` members are not read.
    pub fn from_json(v: &Json) -> Option<Histogram> {
        let field = |k: &str| v.get(k).and_then(Json::as_u64);
        let count = field("count")?;
        let mut h = Histogram {
            count,
            sum: field("sum")?,
            // An empty histogram writes its `u64::MAX` sentinel as 0.
            min: if count == 0 { u64::MAX } else { field("min")? },
            max: field("max")?,
            buckets: vec![0; BUCKETS],
        };
        for pair in v.get("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            let (upper, n) = (pair.first()?.as_u64()?, pair.get(1)?.as_u64()?);
            let idx = bucket_of(upper);
            if bucket_upper(idx) != upper {
                return None;
            }
            h.buckets[idx] += n;
        }
        Some(h)
    }
}

// Stable binary form for checkpoints: the raw fields, including the
// `u64::MAX` min sentinel of an empty histogram, so decode∘encode is the
// identity and re-serialized JSON reports match byte-for-byte.
impl crate::Snapshot for Histogram {
    fn encode(&self, enc: &mut crate::Enc) {
        enc.put_u64(self.count);
        enc.put_u64(self.sum);
        enc.put_u64(self.min);
        enc.put_u64(self.max);
        for &b in &self.buckets {
            enc.put_u64(b);
        }
    }

    fn decode(dec: &mut crate::Dec<'_>) -> Result<Self, crate::CkptError> {
        let count = dec.u64()?;
        let sum = dec.u64()?;
        let min = dec.u64()?;
        let max = dec.u64()?;
        let mut buckets = vec![0u64; BUCKETS];
        for b in &mut buckets {
            *b = dec.u64()?;
        }
        Ok(Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        })
    }
}

// Hand-written so the JSON form carries derived stats and only the
// populated buckets (65 mostly-zero entries would dominate the report).
impl ToJson for Histogram {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
            self.count,
            self.sum,
            self.min(),
            self.max()
        );
        self.mean().write_json(out);
        let _ = write!(
            out,
            ",\"p50\":{},\"p99\":{},\"buckets\":[",
            self.quantile(0.50),
            self.quantile(0.99)
        );
        for (i, (upper, n)) in self.nonzero_buckets().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}[{upper},{n}]");
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, to_json};

    fn hist(doc: &str) -> Histogram {
        Histogram::from_json(&parse(doc).unwrap()).unwrap()
    }

    #[test]
    fn empty() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn records_and_stats() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1000);
        assert_eq!(h.quantile(0.5), 1);
        // p100 lands in the 1000 bucket [512, 1023], clamped to max.
        assert_eq!(h.quantile(1.0), 1000);
        // Quantiles never exceed the observed max.
        assert!(h.quantile(0.999) <= 1000);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [5, 9, 13] {
            a.record(v);
            all.record(v);
        }
        for v in [2, 70000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = hist(r#"{"count":0,"sum":0,"min":0,"max":0,"mean":0.0,"buckets":[]}"#);
        assert!(h.is_empty());
        assert_eq!(h, Histogram::new());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn quantiles_match_writer_semantics() {
        // 99 values of 1 plus one value of 1000: p50 = 1 (bucket upper 1),
        // p100 = bucket [512,1023] clamped to max 1000, as
        // `quantiles_are_bucket_upper_bounds` records it.
        let h = hist(
            r#"{"count":100,"sum":1099,"min":1,"max":1000,"mean":10.99,
                "buckets":[[1,99],[1023,1]]}"#,
        );
        assert_eq!(h.quantile(0.50), 1);
        assert_eq!(h.quantile(0.99), 1);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.cdf(), vec![(1, 0.99), (1000, 1.0)]);
    }

    #[test]
    fn p90_interpolates_between_pinned_percentiles() {
        // 8 of value ≤3, 2 of value ≤7: p90 needs the second bucket.
        let h = hist(
            r#"{"count":10,"sum":30,"min":2,"max":6,"mean":3.0,
                "buckets":[[3,8],[7,2]]}"#,
        );
        assert_eq!(h.quantile(0.80), 3);
        assert_eq!(h.quantile(0.90), 6); // 7 clamped to max
    }

    #[test]
    fn malformed_histograms_are_rejected() {
        for doc in [
            "null",
            r#"{"count":1}"#,
            r#"{"count":1,"sum":1,"min":1,"max":1,"mean":1.0,"buckets":[[1]]}"#,
            r#"{"count":1,"sum":1,"min":1,"max":1,"mean":1.0,"buckets":{}}"#,
            r#"{"count":1,"sum":1,"min":1,"max":1,"mean":1.0,"buckets":[[1,-1]]}"#,
            // 2 is inside bucket [2, 3], not a bound of it.
            r#"{"count":1,"sum":2,"min":2,"max":2,"mean":2.0,"buckets":[[2,1]]}"#,
            r#"{"count":1,"sum":4,"min":4,"max":4,"mean":4.0,"buckets":[[4,1]]}"#,
        ] {
            assert!(
                Histogram::from_json(&parse(doc).unwrap()).is_none(),
                "{doc}"
            );
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        // SplitMix64 record sets: small values, wide values, and the
        // extremes of the range, so every bucket bound is written.
        let mut state = 0u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..200 {
            let mut h = Histogram::new();
            let len = next() % 50;
            for _ in 0..len {
                let v = next();
                h.record(match case % 4 {
                    0 => v % 16,
                    1 => v >> (v % 64),
                    2 => [0, 1, u64::MAX][(v % 3) as usize],
                    _ => v,
                });
            }
            let text = to_json(&h);
            let back = hist(&text);
            assert_eq!(back, h, "case {case}: {text}");
            assert_eq!(to_json(&back), text);
        }
    }
}

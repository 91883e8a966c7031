//! Owned metric snapshots: the mergeable fleet view and its two
//! exposition formats.
//!
//! A [`MetricsSnapshot`] is plain data copied out of a live
//! [`crate::MetricsRegistry`]. It travels two ways: a **versioned binary
//! codec** (magic `FXOB`, total decoding with typed errors — the wire
//! `Stats` frame carries exactly this blob) and a **Prometheus text
//! rendering** for humans and scrapers. Snapshots merge exactly
//! (counters and gauges add, histograms add bucket-wise), and
//! [`MetricsSnapshot::with_label`] stamps a label onto every key so
//! per-shard snapshots stay distinguishable inside one merged view.

use crate::cursor::{ByteCursor, OutOfBytes};
use crate::metrics::{bucket_upper, HistogramSnapshot, HIST_BUCKETS};
use std::fmt;

/// Codec magic: identifies a serialized snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FXOB";
/// Current codec version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Why a snapshot blob failed to decode. Decoding is total: every
/// byte-level malformation maps to one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Ran out of bytes: needed `need` more, had `have`.
    Truncated {
        /// Bytes the decoder needed next.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// First four bytes were not [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 4]),
    /// Version newer than this decoder understands.
    UnsupportedVersion(u16),
    /// A metric key was not UTF-8.
    BadKey,
    /// A histogram bucket index at or above [`HIST_BUCKETS`].
    BucketOutOfRange(u16),
    /// Bytes left over after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { need, have } => {
                write!(f, "snapshot truncated: needed {need} bytes, had {have}")
            }
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:02x?}"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadKey => write!(f, "snapshot key is not valid UTF-8"),
            SnapshotError::BucketOutOfRange(i) => write!(f, "histogram bucket {i} out of range"),
            SnapshotError::TrailingBytes(n) => write!(f, "{n} trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Sorted, owned copy of every metric in a registry at one instant.
///
/// Entries are sorted by key; all constructors and transformations
/// preserve that invariant, which is what makes equality comparisons
/// (and the `scrape_all == merge of shards` acceptance check)
/// meaningful.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(key, total)` pairs, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// `(key, value)` pairs, sorted by key.
    pub gauges: Vec<(String, f64)>,
    /// `(key, histogram)` pairs, sorted by key.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter total by exact key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Gauge value by exact key.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Histogram by exact key.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// Folds `other` into `self`: counters and gauges **add** on key
    /// collision, histograms merge bucket-wise. Addition keeps merging
    /// associative and commutative; where summing a gauge would be
    /// meaningless (say, two shards' drift scores), give the sources
    /// distinct labels first — see [`MetricsSnapshot::with_label`].
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            match self.counters.binary_search_by(|(s, _)| s.cmp(k)) {
                Ok(i) => self.counters[i].1 = self.counters[i].1.wrapping_add(*v),
                Err(i) => self.counters.insert(i, (k.clone(), *v)),
            }
        }
        for (k, v) in &other.gauges {
            match self.gauges.binary_search_by(|(s, _)| s.cmp(k)) {
                Ok(i) => self.gauges[i].1 += *v,
                Err(i) => self.gauges.insert(i, (k.clone(), *v)),
            }
        }
        for (k, h) in &other.histograms {
            match self.histograms.binary_search_by(|(s, _)| s.cmp(k)) {
                Ok(i) => self.histograms[i].1.merge(h),
                Err(i) => self.histograms.insert(i, (k.clone(), h.clone())),
            }
        }
    }

    /// Returns a copy with `label="value"` appended to every key's label
    /// set (`m` → `m{shard="0"}`, `m{f="g"}` → `m{f="g",shard="0"}`),
    /// re-sorted.
    pub fn with_label(&self, label: &str, value: &str) -> MetricsSnapshot {
        fn relabel(key: &str, label: &str, value: &str) -> String {
            match key.strip_suffix('}') {
                Some(open) => format!("{open},{label}=\"{value}\"}}"),
                None => format!("{key}{{{label}=\"{value}\"}}"),
            }
        }
        let mut out = MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (relabel(k, label, value), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (relabel(k, label, value), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (relabel(k, label, value), h.clone()))
                .collect(),
        };
        out.counters.sort_by(|a, b| a.0.cmp(&b.0));
        out.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        out.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Serializes to the `FXOB` binary form (the payload of the wire
    /// `Stats` frame). Histogram buckets are sparse-encoded: only
    /// nonzero buckets travel.
    pub fn encode(&self) -> Vec<u8> {
        fn put_key(out: &mut Vec<u8>, key: &str) {
            assert!(key.len() <= u16::MAX as usize, "metric key too long");
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
        }
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (k, v) in &self.counters {
            put_key(&mut out, k);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (k, v) in &self.gauges {
            put_key(&mut out, k);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.histograms.len() as u32).to_le_bytes());
        for (k, h) in &self.histograms {
            put_key(&mut out, k);
            out.extend_from_slice(&h.sum.to_le_bytes());
            let nonzero: Vec<(usize, u64)> = h
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| (i, c))
                .collect();
            out.extend_from_slice(&(nonzero.len() as u16).to_le_bytes());
            for (i, c) in nonzero {
                out.extend_from_slice(&(i as u16).to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// Total decoder for [`MetricsSnapshot::encode`]'s output.
    ///
    /// # Errors
    ///
    /// Any malformed input yields a [`SnapshotError`]; trailing bytes
    /// after a complete snapshot are rejected.
    pub fn decode(bytes: &[u8]) -> Result<MetricsSnapshot, SnapshotError> {
        let mut c = ByteCursor::new(bytes);
        let magic = c.array::<4>()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = c.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }

        let n = c.count(2 + 8)?;
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            counters.push((read_key(&mut c)?, c.u64()?));
        }
        let n = c.count(2 + 8)?;
        let mut gauges = Vec::with_capacity(n);
        for _ in 0..n {
            gauges.push((read_key(&mut c)?, f64::from_bits(c.u64()?)));
        }
        let n = c.count(2 + 8 + 2)?;
        let mut histograms = Vec::with_capacity(n);
        for _ in 0..n {
            let k = read_key(&mut c)?;
            let mut h = HistogramSnapshot::new();
            h.sum = c.u64()?;
            let nonzero = c.u16()? as usize;
            for _ in 0..nonzero {
                let idx = c.u16()?;
                let cnt = c.u64()?;
                if idx as usize >= HIST_BUCKETS {
                    return Err(SnapshotError::BucketOutOfRange(idx));
                }
                h.counts[idx as usize] = h.counts[idx as usize].wrapping_add(cnt);
            }
            histograms.push((k, h));
        }
        finish(&c)?;
        let mut out = MetricsSnapshot {
            counters,
            gauges,
            histograms,
        };
        // Re-establish the sort invariant even for blobs a foreign
        // encoder emitted unsorted.
        out.counters.sort_by(|a, b| a.0.cmp(&b.0));
        out.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        out.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Renders the snapshot in Prometheus text exposition format:
    /// `# TYPE` comments, one sample line per metric, histograms as
    /// cumulative `_bucket{le=…}` series plus `_sum`/`_count`.
    /// Output is deterministic (keys sorted, buckets ascending), which
    /// the golden-format test relies on.
    pub fn render_prometheus(&self) -> String {
        use std::collections::BTreeMap;
        // Split `name{labels}` into (name, Some(labels)) so samples can
        // be grouped under one TYPE comment per base name.
        fn split(key: &str) -> (&str, Option<&str>) {
            match key.find('{') {
                Some(i) => (&key[..i], Some(&key[i + 1..key.len() - 1])),
                None => (key, None),
            }
        }
        fn line(out: &mut String, base: &str, labels: Option<&str>, value: &str) {
            out.push_str(base);
            if let Some(l) = labels {
                out.push('{');
                out.push_str(&escape_labels(l));
                out.push('}');
            }
            out.push(' ');
            out.push_str(value);
            out.push('\n');
        }

        let mut out = String::new();
        let mut groups: BTreeMap<&str, Vec<(Option<&str>, &u64)>> = BTreeMap::new();
        for (k, v) in &self.counters {
            let (base, labels) = split(k);
            groups.entry(base).or_default().push((labels, v));
        }
        for (base, samples) in &groups {
            out.push_str(&format!("# TYPE {base} counter\n"));
            for (labels, v) in samples {
                line(&mut out, base, *labels, &v.to_string());
            }
        }

        let mut groups: BTreeMap<&str, Vec<(Option<&str>, &f64)>> = BTreeMap::new();
        for (k, v) in &self.gauges {
            let (base, labels) = split(k);
            groups.entry(base).or_default().push((labels, v));
        }
        for (base, samples) in &groups {
            out.push_str(&format!("# TYPE {base} gauge\n"));
            for (labels, v) in samples {
                line(&mut out, base, *labels, &v.to_string());
            }
        }

        let mut groups: BTreeMap<&str, Vec<(Option<&str>, &HistogramSnapshot)>> = BTreeMap::new();
        for (k, h) in &self.histograms {
            let (base, labels) = split(k);
            groups.entry(base).or_default().push((labels, h));
        }
        for (base, samples) in &groups {
            out.push_str(&format!("# TYPE {base} histogram\n"));
            for (labels, h) in samples {
                let bucket = |le: &str| match labels {
                    Some(l) => format!("{l},le=\"{le}\""),
                    None => format!("le=\"{le}\""),
                };
                let mut cum = 0u64;
                for (i, &c) in h.counts.iter().enumerate() {
                    if c != 0 {
                        cum = cum.wrapping_add(c);
                        line(
                            &mut out,
                            &format!("{base}_bucket"),
                            Some(&bucket(&bucket_upper(i).to_string())),
                            &cum.to_string(),
                        );
                    }
                }
                line(
                    &mut out,
                    &format!("{base}_bucket"),
                    Some(&bucket("+Inf")),
                    &cum.to_string(),
                );
                line(
                    &mut out,
                    &format!("{base}_sum"),
                    *labels,
                    &h.sum.to_string(),
                );
                line(
                    &mut out,
                    &format!("{base}_count"),
                    *labels,
                    &h.count().to_string(),
                );
            }
        }
        out
    }
}

/// Escapes label *values* for the Prometheus text format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
///
/// Registry keys embed label values raw (`name{k="v"}` — the rendered
/// string *is* the handle identity, so construction never rewrites it);
/// the text exposition is where escaping is required, so the renderer
/// re-parses the label block here. A value's closing quote is the `"`
/// that ends the block or is followed by a `,key="` pair boundary —
/// unambiguous for every value a single hostile label can produce
/// (embedded quotes, trailing backslashes, newlines).
fn escape_labels(labels: &str) -> String {
    fn push_escaped(out: &mut String, value: &str) {
        for ch in value.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
    }
    /// Does `rest` (the text after a candidate closing quote) start a
    /// new `,key="` pair (or end the block)?
    fn pair_boundary(rest: &str) -> bool {
        let b = rest.as_bytes();
        if b.first() != Some(&b',') {
            return false;
        }
        let mut k = 1;
        while k < b.len() && b[k] != b'=' && b[k] != b',' && b[k] != b'"' {
            k += 1;
        }
        k > 1 && k + 1 < b.len() && b[k] == b'=' && b[k + 1] == b'"'
    }

    let mut out = String::with_capacity(labels.len());
    let mut rest = labels;
    loop {
        // Copy `key="` through verbatim.
        let Some(eq) = rest.find("=\"") else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..eq + 2]);
        let value_and_on = &rest[eq + 2..];
        // Find the closing quote of this value.
        let mut probe = 0;
        let close = loop {
            match value_and_on[probe..].find('"') {
                // Unterminated (malformed key): treat the remainder as
                // the value and close it ourselves.
                None => break value_and_on.len(),
                Some(off) => {
                    let q = probe + off;
                    if q + 1 == value_and_on.len() || pair_boundary(&value_and_on[q + 1..]) {
                        break q;
                    }
                    probe = q + 1;
                }
            }
        };
        push_escaped(&mut out, &value_and_on[..close]);
        out.push('"');
        if close >= value_and_on.len().saturating_sub(1) {
            return out;
        }
        rest = &value_and_on[close + 1..];
    }
}

impl From<OutOfBytes> for SnapshotError {
    fn from(e: OutOfBytes) -> Self {
        SnapshotError::Truncated {
            need: e.need,
            have: e.have,
        }
    }
}

/// A `u16`-length-prefixed UTF-8 string.
pub(crate) fn read_key(c: &mut ByteCursor<'_>) -> Result<String, SnapshotError> {
    let len = c.u16()? as usize;
    let s = std::str::from_utf8(c.bytes(len)?).map_err(|_| SnapshotError::BadKey)?;
    Ok(s.to_string())
}

/// Rejects trailing bytes after a complete value.
pub(crate) fn finish(c: &ByteCursor<'_>) -> Result<(), SnapshotError> {
    match c.remaining() {
        0 => Ok(()),
        n => Err(SnapshotError::TrailingBytes(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{bucket_index, MetricsRegistry};

    fn sample() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter("req_total").add(42);
        r.counter("req_total{function=\"gelu\"}").add(12);
        r.gauge("queue_depth").set(3.0);
        let h = r.histogram("eval_ns");
        h.record(100);
        h.record(100);
        h.record(5000);
        r.snapshot()
    }

    #[test]
    fn codec_round_trips() {
        let s = sample();
        let bytes = s.encode();
        assert_eq!(MetricsSnapshot::decode(&bytes).unwrap(), s);
        // Empty snapshot round-trips too.
        let empty = MetricsSnapshot::new();
        assert_eq!(MetricsSnapshot::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_malformed_blobs() {
        let good = sample().encode();
        assert_eq!(
            MetricsSnapshot::decode(b"NOPE"),
            Err(SnapshotError::BadMagic(*b"NOPE"))
        );
        let mut wrong_ver = good.clone();
        wrong_ver[4] = 0xff;
        assert!(matches!(
            MetricsSnapshot::decode(&wrong_ver),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            MetricsSnapshot::decode(&trailing),
            Err(SnapshotError::TrailingBytes(1))
        );
        // Every truncation point decodes to an error, never a panic.
        for cut in 0..good.len() {
            assert!(MetricsSnapshot::decode(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn hostile_count_does_not_allocate() {
        let mut blob = Vec::new();
        blob.extend_from_slice(&SNAPSHOT_MAGIC);
        blob.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        blob.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd count
        assert!(matches!(
            MetricsSnapshot::decode(&blob),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn merge_adds_and_inserts() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter("req_total"), Some(84));
        assert_eq!(a.gauge("queue_depth"), Some(6.0));
        assert_eq!(a.histogram("eval_ns").unwrap().count(), 6);
        let mut base = MetricsSnapshot::new();
        base.merge(&b);
        assert_eq!(base, b);
    }

    #[test]
    fn with_label_rewrites_every_key() {
        let s = sample().with_label("shard", "1");
        assert_eq!(s.counter("req_total{shard=\"1\"}"), Some(42));
        assert_eq!(
            s.counter("req_total{function=\"gelu\",shard=\"1\"}"),
            Some(12)
        );
        assert_eq!(s.gauge("queue_depth{shard=\"1\"}"), Some(3.0));
        assert!(s.histogram("eval_ns{shard=\"1\"}").is_some());
    }

    /// Golden test for the escaping satellite: hostile label values
    /// (embedded quote, backslash — including a trailing one — and a
    /// newline) must render as valid Prometheus text, escaped exactly.
    #[test]
    fn prometheus_escapes_hostile_label_values() {
        let r = MetricsRegistry::new();
        r.counter("req_total{path=\"a\\b\"c\nd\"}").add(7);
        r.counter("req_total{trail=\"x\\\"}").add(1);
        r.gauge("depth{f=\"he said \"hi\"\",shard=\"0\"}").set(2.0);
        let h = r.histogram("lat_ns{name=\"q\"uote\"}");
        h.record(100);
        let text = r.snapshot().render_prometheus();
        let b100 = bucket_upper(bucket_index(100)).to_string();
        let expect = format!(
            "# TYPE req_total counter\n\
             req_total{{path=\"a\\\\b\\\"c\\nd\"}} 7\n\
             req_total{{trail=\"x\\\\\"}} 1\n\
             # TYPE depth gauge\n\
             depth{{f=\"he said \\\"hi\\\"\",shard=\"0\"}} 2\n\
             # TYPE lat_ns histogram\n\
             lat_ns_bucket{{name=\"q\\\"uote\",le=\"{b100}\"}} 1\n\
             lat_ns_bucket{{name=\"q\\\"uote\",le=\"+Inf\"}} 1\n\
             lat_ns_sum{{name=\"q\\\"uote\"}} 100\n\
             lat_ns_count{{name=\"q\\\"uote\"}} 1\n"
        );
        assert_eq!(text, expect);
        // The hostile newline was escaped, not emitted: the exposition
        // has exactly one line per sample/TYPE comment.
        assert_eq!(text.lines().count(), 10);
    }

    #[test]
    fn prometheus_rendering_is_stable() {
        let text = sample().render_prometheus();
        let b100 = bucket_upper(bucket_index(100)).to_string();
        let b5000 = bucket_upper(bucket_index(5000)).to_string();
        let expect = format!(
            "# TYPE req_total counter\n\
             req_total 42\n\
             req_total{{function=\"gelu\"}} 12\n\
             # TYPE queue_depth gauge\n\
             queue_depth 3\n\
             # TYPE eval_ns histogram\n\
             eval_ns_bucket{{le=\"{b100}\"}} 2\n\
             eval_ns_bucket{{le=\"{b5000}\"}} 3\n\
             eval_ns_bucket{{le=\"+Inf\"}} 3\n\
             eval_ns_sum 5200\n\
             eval_ns_count 3\n"
        );
        assert_eq!(text, expect);
    }
}

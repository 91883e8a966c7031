//! Compact binary trace format: record once, replay bit-for-bit.
//!
//! A [`Trace`] is the full workload — every request's virtual arrival
//! time, target function and payload, with payload values stored as raw
//! `f64` bit patterns so a decoded trace is *bitwise* identical to the
//! recorded one. The layout (all integers little-endian):
//!
//! ```text
//! magic "FXTR" | version u16 | nfuncs u32
//! nfuncs × { name_len u16 | name bytes (utf-8) }
//! nevents u64
//! nevents × { at_ns u64 | func u32 | len u32 | len × f64-bits u64 }
//! ```
//!
//! Decoding is strict and total: every malformed input — truncated at
//! any byte, wrong magic, unknown version, oversized payload,
//! out-of-range function index, time running backwards, or trailing
//! garbage — yields a typed [`TraceError`], never a panic.

use crate::clock::VirtualNs;
use flexsfu_obs::{ByteCursor, OutOfBytes};

/// File magic, `b"FXTR"`.
pub const TRACE_MAGIC: [u8; 4] = *b"FXTR";
/// Current (and only) format version.
pub const TRACE_VERSION: u16 = 1;
/// Hard cap on a single event's payload length — rejects absurd
/// allocations from corrupt length fields before any allocation
/// happens.
pub const MAX_EVENT_ELEMS: u32 = 1 << 20;

/// One recorded request.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual arrival instant.
    pub at_ns: VirtualNs,
    /// Index into [`Trace::functions`].
    pub func: u32,
    /// Request payload, preserved bit-for-bit.
    pub payload: Vec<f64>,
}

/// A recorded workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Function names, indexed by [`TraceEvent::func`].
    pub functions: Vec<String>,
    /// Events in non-decreasing virtual-time order.
    pub events: Vec<TraceEvent>,
}

/// Everything that can be wrong with trace bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The first four bytes are not [`TRACE_MAGIC`].
    BadMagic([u8; 4]),
    /// A version this decoder does not speak.
    UnsupportedVersion(u16),
    /// The input ended before a declared field.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// An event declared a payload above [`MAX_EVENT_ELEMS`].
    OversizedPayload {
        /// Event index.
        index: usize,
        /// Declared element count.
        elems: u32,
    },
    /// An event referenced a function index outside the name table.
    BadFunctionIndex {
        /// Event index.
        index: usize,
        /// The out-of-range function index.
        func: u32,
        /// Number of declared functions.
        functions: u32,
    },
    /// Virtual time ran backwards between consecutive events.
    NonMonotoneTime {
        /// Index of the offending event.
        index: usize,
        /// The previous event's timestamp.
        prev: VirtualNs,
        /// The offending timestamp.
        now: VirtualNs,
    },
    /// A function name was not valid UTF-8.
    BadFunctionName {
        /// Index in the name table.
        index: usize,
    },
    /// Bytes remained after the last declared event.
    TrailingBytes(usize),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic(m) => write!(f, "bad trace magic {m:02x?}"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated { needed, have } => {
                write!(f, "trace truncated: needed {needed} bytes, have {have}")
            }
            TraceError::OversizedPayload { index, elems } => write!(
                f,
                "event {index} declares {elems} elements (cap {MAX_EVENT_ELEMS})"
            ),
            TraceError::BadFunctionIndex {
                index,
                func,
                functions,
            } => write!(f, "event {index} references function {func} of {functions}"),
            TraceError::NonMonotoneTime { index, prev, now } => {
                write!(f, "event {index} at {now} ns precedes {prev} ns")
            }
            TraceError::BadFunctionName { index } => {
                write!(f, "function name {index} is not valid UTF-8")
            }
            TraceError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last event"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<OutOfBytes> for TraceError {
    fn from(e: OutOfBytes) -> Self {
        TraceError::Truncated {
            needed: e.need,
            have: e.have,
        }
    }
}

impl Trace {
    /// Serializes to the binary format. Deterministic: equal traces
    /// encode to equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let payload_bytes: usize = self.events.iter().map(|e| 16 + 8 * e.payload.len()).sum();
        let mut out = Vec::with_capacity(4 + 2 + 4 + 8 + payload_bytes);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.functions.len() as u32).to_le_bytes());
        for name in &self.functions {
            let bytes = name.as_bytes();
            assert!(bytes.len() <= u16::MAX as usize, "function name too long");
            out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            assert!(
                e.payload.len() <= MAX_EVENT_ELEMS as usize,
                "payload exceeds the format cap"
            );
            out.extend_from_slice(&e.at_ns.to_le_bytes());
            out.extend_from_slice(&e.func.to_le_bytes());
            out.extend_from_slice(&(e.payload.len() as u32).to_le_bytes());
            for &v in &e.payload {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Decodes trace bytes, validating everything the format promises.
    ///
    /// # Errors
    ///
    /// A [`TraceError`] describing the first defect found. Arbitrary
    /// input never panics and never allocates more than the declared,
    /// capped sizes.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = ByteCursor::new(bytes);
        let magic = r.array::<4>()?;
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let nfuncs = r.u32()?;
        let mut functions = Vec::new();
        for index in 0..nfuncs as usize {
            let len = r.u16()? as usize;
            let raw = r.bytes(len)?;
            let name =
                std::str::from_utf8(raw).map_err(|_| TraceError::BadFunctionName { index })?;
            functions.push(name.to_string());
        }
        let nevents = r.u64()?;
        let mut events = Vec::new();
        let mut prev = 0u64;
        for index in 0..nevents as usize {
            let at_ns = r.u64()?;
            if at_ns < prev {
                return Err(TraceError::NonMonotoneTime {
                    index,
                    prev,
                    now: at_ns,
                });
            }
            prev = at_ns;
            let func = r.u32()?;
            if func >= nfuncs {
                return Err(TraceError::BadFunctionIndex {
                    index,
                    func,
                    functions: nfuncs,
                });
            }
            let len = r.u32()?;
            if len > MAX_EVENT_ELEMS {
                return Err(TraceError::OversizedPayload { index, elems: len });
            }
            let raw = r.bytes(8 * len as usize)?;
            let payload: Vec<f64> = raw
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                .collect();
            events.push(TraceEvent {
                at_ns,
                func,
                payload,
            });
        }
        if r.remaining() != 0 {
            return Err(TraceError::TrailingBytes(r.remaining()));
        }
        Ok(Self { functions, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            functions: vec!["gelu".into(), "exp".into()],
            events: vec![
                TraceEvent {
                    at_ns: 10,
                    func: 0,
                    payload: vec![0.5, -1.25, f64::MIN_POSITIVE],
                },
                TraceEvent {
                    at_ns: 10, // equal timestamps are legal
                    func: 1,
                    payload: vec![-3.0],
                },
                TraceEvent {
                    at_ns: 99,
                    func: 0,
                    payload: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_bitwise_identity() {
        let t = sample_trace();
        let bytes = t.encode();
        let back = Trace::decode(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn every_strict_prefix_is_rejected_typed() {
        let bytes = sample_trace().encode();
        for n in 0..bytes.len() {
            let err = Trace::decode(&bytes[..n]).unwrap_err();
            assert!(
                matches!(err, TraceError::Truncated { .. }),
                "prefix {n}: {err:?}"
            );
        }
    }

    #[test]
    fn header_defects_are_named() {
        let good = sample_trace().encode();

        let mut bad = good.clone();
        bad[0] = b'Z';
        assert!(matches!(
            Trace::decode(&bad).unwrap_err(),
            TraceError::BadMagic(_)
        ));

        let mut bad = good.clone();
        bad[4] = 0xFF;
        assert!(matches!(
            Trace::decode(&bad).unwrap_err(),
            TraceError::UnsupportedVersion(_)
        ));

        let mut bad = good.clone();
        bad.push(0);
        assert_eq!(
            Trace::decode(&bad).unwrap_err(),
            TraceError::TrailingBytes(1)
        );
    }

    #[test]
    fn corrupt_bodies_are_named() {
        // Function index beyond the table.
        let mut t = sample_trace();
        t.events[1].func = 7;
        let bytes = t.encode();
        assert!(matches!(
            Trace::decode(&bytes).unwrap_err(),
            TraceError::BadFunctionIndex {
                index: 1,
                func: 7,
                ..
            }
        ));

        // Time running backwards.
        let mut t = sample_trace();
        t.events[2].at_ns = 3;
        assert!(matches!(
            Trace::decode(&t.encode()).unwrap_err(),
            TraceError::NonMonotoneTime { index: 2, .. }
        ));

        // An absurd length field must be rejected *before* allocation:
        // craft bytes by hand with len = u32::MAX.
        let mut bytes = sample_trace().encode();
        // Last event has an empty payload; its len field is the final
        // 4 bytes.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Trace::decode(&bytes).unwrap_err(),
            TraceError::OversizedPayload { index: 2, .. }
        ));
    }

    #[test]
    fn payload_bits_survive_exactly() {
        let t = Trace {
            functions: vec!["f".into()],
            events: vec![TraceEvent {
                at_ns: 0,
                func: 0,
                payload: vec![
                    -0.0,
                    f64::MAX,
                    1e-300,
                    f64::from_bits(0x0000_0000_0000_0001),
                ],
            }],
        };
        let back = Trace::decode(&t.encode()).unwrap();
        for (a, b) in back.events[0].payload.iter().zip(&t.events[0].payload) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

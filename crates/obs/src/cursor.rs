//! The bounds-checked little-endian byte cursor under every binary
//! codec of the stack: the snapshot and telemetry-batch codecs here,
//! the wire frame codec and the traffic trace format.
//!
//! A read past the end is an [`OutOfBytes`] value, never a panic, which
//! is what makes those decoders total; each codec maps it onto its own
//! truncation error.

/// A read that ran past the end of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBytes {
    /// Bytes the read needed.
    pub need: usize,
    /// Bytes that remained.
    pub have: usize,
}

/// A cursor over a byte slice. A failed field read consumes nothing.
#[derive(Debug, Clone)]
pub struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`OutOfBytes`] if fewer than `n` remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], OutOfBytes> {
        let have = self.remaining();
        if have < n {
            return Err(OutOfBytes { need: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// As [`Self::bytes`].
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], OutOfBytes> {
        Ok(self.bytes(N)?.try_into().expect("exactly N bytes"))
    }

    /// The next byte.
    ///
    /// # Errors
    ///
    /// As [`Self::bytes`].
    pub fn u8(&mut self) -> Result<u8, OutOfBytes> {
        Ok(self.array::<1>()?[0])
    }

    /// The next little-endian `u16`.
    ///
    /// # Errors
    ///
    /// As [`Self::bytes`].
    pub fn u16(&mut self) -> Result<u16, OutOfBytes> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`Self::bytes`].
    pub fn u32(&mut self) -> Result<u32, OutOfBytes> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`Self::bytes`].
    pub fn u64(&mut self) -> Result<u64, OutOfBytes> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` entry count, checked against the bytes that remain after
    /// it (each entry needs at least `min_entry`), so a hostile count
    /// cannot force a huge allocation.
    ///
    /// # Errors
    ///
    /// As [`Self::bytes`], or [`OutOfBytes`] naming the bytes `count`
    /// entries would need.
    pub fn count(&mut self, min_entry: usize) -> Result<usize, OutOfBytes> {
        let n = self.u32()? as usize;
        let have = self.remaining();
        if n.saturating_mul(min_entry) > have {
            return Err(OutOfBytes {
                need: n * min_entry,
                have,
            });
        }
        Ok(n)
    }
}

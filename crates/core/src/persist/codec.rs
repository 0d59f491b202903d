//! Binary encoding primitives for snapshots and WAL records.
//!
//! Everything is little-endian and fixed-width; floats are stored as raw
//! IEEE-754 bits so a round trip is *bit-exact* — the property the
//! kill-and-recover tests depend on. Integrity is guarded by CRC-32
//! (IEEE/ISO-HDLC polynomial, the same checksum zlib uses), computed over
//! whole frames by the snapshot and WAL layers.

use cce_dataset::{Binning, FeatureDef, FeatureKind, Instance, Label, Schema};

use super::PersistError;

/// The slicing-by-16 tables: `CRC_TABLES[0]` is the classic byte table
/// for the reflected polynomial `0xEDB88320`, and `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE, reflected polynomial `0xEDB88320`), slicing-by-16:
/// sixteen bytes per step through sixteen table lookups, and the byte
/// loop for the tail. The one CRC behind every stored and wire frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// An append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, borrowed.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes with no framing.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its raw bit pattern (bit-exact round trip,
    /// NaN payloads and signed zeros included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.usize(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }

    /// Writes a length-prefixed `f64` slice (bit-exact).
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    /// Writes a length-prefixed `usize` slice.
    pub fn usizes(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
    }

    /// Writes an instance as its length-prefixed value row.
    pub fn instance(&mut self, x: &Instance) {
        self.u32s(x.values());
    }

    /// Writes a label.
    pub fn label(&mut self, l: Label) {
        self.u32(l.0);
    }

    /// Writes a full schema: per feature its name plus either the
    /// categorical dictionary or the numeric binning (edges/lo/hi stored
    /// as exact `f64` bits).
    pub fn schema(&mut self, s: &Schema) {
        self.usize(s.n_features());
        for f in s.features() {
            self.str(&f.name);
            match &f.kind {
                FeatureKind::Categorical { names } => {
                    self.u8(0);
                    self.usize(names.len());
                    for n in names {
                        self.str(n);
                    }
                }
                FeatureKind::Numeric { binning } => {
                    self.u8(1);
                    self.f64s(binning.edges());
                    self.f64(binning.lo());
                    self.f64(binning.hi());
                }
            }
        }
    }
}

/// A cursor-based decoder over a byte slice. Every read is bounds-checked
/// and returns [`PersistError::Corrupt`] instead of panicking, so torn or
/// tampered inputs degrade into clean errors.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::corrupt("unexpected end of input"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads `n` raw bytes with no framing.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        self.take(n)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that overflow
    /// the native word.
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| PersistError::corrupt("length overflows usize"))
    }

    /// Reads a length that is about to drive an allocation, sanity-bounded
    /// by the bytes actually remaining (each element needs at least one
    /// encoded byte) so corrupt lengths cannot trigger huge allocations.
    // Not a size accessor (it consumes input); the paired predicate is
    // `is_exhausted`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, PersistError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(PersistError::corrupt("length exceeds remaining input"));
        }
        Ok(n)
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::corrupt("invalid bool byte")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, PersistError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::corrupt("invalid UTF-8"))
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn u32s(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.len()?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads a length-prefixed `f64` vector (bit-exact).
    pub fn f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.len()?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, PersistError> {
        let n = self.len()?;
        (0..n).map(|_| self.usize()).collect()
    }

    /// Reads an instance.
    pub fn instance(&mut self) -> Result<Instance, PersistError> {
        Ok(Instance::new(self.u32s()?))
    }

    /// Reads a label.
    pub fn label(&mut self) -> Result<Label, PersistError> {
        Ok(Label(self.u32()?))
    }

    /// Reads a schema written by [`Enc::schema`], re-validating binning
    /// invariants so hostile bytes cannot trip downstream panics.
    pub fn schema(&mut self) -> Result<Schema, PersistError> {
        let n = self.len()?;
        let mut features = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.str()?;
            let kind = match self.u8()? {
                0 => {
                    let k = self.len()?;
                    let names = (0..k).map(|_| self.str()).collect::<Result<Vec<_>, _>>()?;
                    FeatureKind::Categorical { names }
                }
                1 => {
                    let edges = self.f64s()?;
                    let lo = self.f64()?;
                    let hi = self.f64()?;
                    // `Binning::from_parts` panics on these; report
                    // corruption instead.
                    if !edges.windows(2).all(|w| w[0] < w[1])
                        || !edges.iter().all(|&e| e > lo && e <= hi)
                    {
                        return Err(PersistError::corrupt("invalid binning edges"));
                    }
                    FeatureKind::Numeric {
                        binning: Binning::from_parts(edges, lo, hi),
                    }
                }
                _ => return Err(PersistError::corrupt("unknown feature kind")),
            };
            features.push(FeatureDef { name, kind });
        }
        Ok(Schema::new(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// `len` pseudo-random bytes from a fixed xorshift64 stream.
    fn xorshift_bytes(len: usize) -> Vec<u8> {
        let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_of_a_64k_page_is_pinned() {
        // Recorded from the byte-at-a-time implementation: every stored
        // and wire frame keeps its checksum bytes.
        assert_eq!(crc32(&xorshift_bytes(64 * 1024)), 0x7BDF_89FA);
    }

    /// The textbook bit-at-a-time CRC-32: no tables at all.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_matches_the_bitwise_reference(len in 0usize..=1100, salt in any::<u64>()) {
            // One shared buffer, read at every start offset 0..16, so the
            // 16-byte blocks and the byte tail fall at every alignment.
            let buf: Vec<u8> = xorshift_bytes(len + 16)
                .into_iter()
                .enumerate()
                .map(|(i, b)| b ^ (salt >> (8 * (i % 8))) as u8)
                .collect();
            for off in 0..16 {
                let s = &buf[off..off + len];
                prop_assert_eq!(crc32(s), crc32_bitwise(s), "len {} offset {}", len, off);
            }
        }
    }

    #[test]
    fn scalars_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.bool(true);
        e.str("héllo");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert!(d.is_exhausted());
    }

    #[test]
    fn vectors_and_instances_round_trip() {
        let mut e = Enc::new();
        e.u32s(&[1, 2, 3]);
        e.f64s(&[0.5, f64::INFINITY]);
        e.usizes(&[9, 0]);
        e.instance(&Instance::new(vec![4, 5]));
        e.label(Label(3));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.f64s().unwrap(), vec![0.5, f64::INFINITY]);
        assert_eq!(d.usizes().unwrap(), vec![9, 0]);
        assert_eq!(d.instance().unwrap(), Instance::new(vec![4, 5]));
        assert_eq!(d.label().unwrap(), Label(3));
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut e = Enc::new();
        e.u64(42);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..5]);
        assert!(d.u64().is_err());
    }

    #[test]
    fn hostile_length_is_rejected_before_allocating() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // a length claiming ~2^64 elements
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.u32s().is_err());
    }

    #[test]
    fn bad_bool_and_utf8_are_corrupt() {
        let mut d = Dec::new(&[9]);
        assert!(d.bool().is_err());
        let mut e = Enc::new();
        e.usize(2);
        let mut bytes = e.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Dec::new(&bytes).str().is_err());
    }
}

//! The shard wire protocol: length-framed, CRC'd binary messages over a
//! local socket, built on the `persist` codec.
//!
//! ```text
//! frame := magic:u32 ("CCES") | len:u32 | payload[len] | crc32(payload):u32
//! ```
//!
//! Every decode path is bounds-checked and returns a [`WireError`] — a
//! hostile or corrupt peer can never panic the process (the proptest
//! suite in `tests/shard_wire.rs` throws truncations, byte flips, and
//! oversized length fields at it). Requests are **stateless**: the router
//! may retry or hedge any of them without coordination.

use std::io::{self, Read, Write};

use cce_core::persist::{crc32, Dec, Enc};

/// Frame magic: `CCES` in ASCII, little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"CCES");

/// Hard cap on one frame's payload. A counts response carries two `u64`
/// per feature; even a 100k-feature schema fits in ~1.6 MiB, so 16 MiB
/// is pure headroom — anything larger is a corrupt or hostile length.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Why a frame or message failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not the protocol magic.
    BadMagic(u32),
    /// The length field exceeded [`MAX_FRAME_BYTES`].
    OversizedFrame(usize),
    /// The payload CRC did not match.
    BadCrc {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
    /// The payload was well-framed but its message body did not decode
    /// (truncated field, unknown tag, hostile inner length).
    BadMessage(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::OversizedFrame(n) => {
                write!(f, "frame of {n} bytes exceeds {MAX_FRAME_BYTES}")
            }
            WireError::BadCrc { expected, got } => {
                write!(
                    f,
                    "frame crc mismatch: frame says {expected:#010x}, payload is {got:#010x}"
                )
            }
            WireError::BadMessage(m) => write!(f, "bad message: {m}"),
        }
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Wraps `payload` in a frame.
#[must_use]
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Decodes one frame from the front of `buf`.
///
/// Returns `Ok(Some((payload, consumed)))` on a complete valid frame,
/// `Ok(None)` when `buf` is a valid prefix that needs more bytes, and
/// `Err` on any violation. Never panics, whatever the bytes.
///
/// # Errors
/// [`WireError`] on bad magic, an oversized length field, or a CRC
/// mismatch.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, WireError> {
    if buf.len() < 4 {
        // Partial magic: only a prefix check is possible.
        return if MAGIC.to_le_bytes().starts_with(buf) {
            Ok(None)
        } else {
            Err(WireError::BadMagic(u32::from_le_bytes({
                let mut m = [0u8; 4];
                m[..buf.len()].copy_from_slice(buf);
                m
            })))
        };
    }
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::OversizedFrame(len));
    }
    let total = 8 + len + 4;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[8..8 + len];
    let expected = u32::from_le_bytes([
        buf[8 + len],
        buf[8 + len + 1],
        buf[8 + len + 2],
        buf[8 + len + 3],
    ]);
    let got = crc32(payload);
    if expected != got {
        return Err(WireError::BadCrc { expected, got });
    }
    Ok(Some((payload.to_vec(), total)))
}

/// Writes one framed payload to a stream.
///
/// # Errors
/// Propagates transport failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// Reads one framed payload off a stream, validating magic, length cap,
/// and CRC.
///
/// # Errors
/// `UnexpectedEof` at a clean frame boundary means the peer closed;
/// `InvalidData` wraps a [`WireError`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; 8];
    r.read_exact(&mut buf)?;
    // The header alone checks the magic and the length cap.
    decode_frame(&buf)?;
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    buf.resize(8 + len + 4, 0);
    r.read_exact(&mut buf[8..])?;
    let frame = decode_frame(&buf)?;
    frame
        .map(|(payload, _)| payload)
        .ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
}

/// A request to a shard worker. All variants are idempotent reads except
/// [`Req::Push`], which is keyed by the global row index so a retried
/// push lands exactly once.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// Liveness probe.
    Ping,
    /// Fetch the row with this **global** index (the owner answers
    /// [`Resp::Row`], anyone else [`Resp::NotOwned`]).
    Fetch {
        /// Global row index.
        global: u64,
    },
    /// One greedy round's statistics against this shard's partition.
    Counts {
        /// The target instance's value codes.
        x: Vec<u32>,
        /// The target's predicted label.
        pred: u32,
        /// Features already picked, in pick order.
        picked: Vec<u32>,
    },
    /// Join an ingested row to this shard's partition (idempotent by
    /// `global`).
    Push {
        /// Global row index assigned by the router.
        global: u64,
        /// Value codes.
        x: Vec<u32>,
        /// Predicted label.
        pred: u32,
    },
    /// Graceful worker shutdown.
    Exit,
}

impl Req {
    /// Encodes the request body (unframed).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Req::Ping => e.u8(0),
            Req::Fetch { global } => {
                e.u8(1);
                e.u64(*global);
            }
            Req::Counts { x, pred, picked } => {
                e.u8(2);
                e.u32s(x);
                e.u32(*pred);
                e.u32s(picked);
            }
            Req::Push { global, x, pred } => {
                e.u8(3);
                e.u64(*global);
                e.u32s(x);
                e.u32(*pred);
            }
            Req::Exit => e.u8(4),
        }
        e.into_bytes()
    }

    /// Decodes a request body.
    ///
    /// # Errors
    /// [`WireError::BadMessage`] on truncation, trailing bytes, or an
    /// unknown tag.
    pub fn decode(bytes: &[u8]) -> Result<Req, WireError> {
        let mut d = Dec::new(bytes);
        let bad = |e: cce_core::persist::PersistError| WireError::BadMessage(e.to_string());
        let req = match d.u8().map_err(bad)? {
            0 => Req::Ping,
            1 => Req::Fetch {
                global: d.u64().map_err(bad)?,
            },
            2 => Req::Counts {
                x: d.u32s().map_err(bad)?,
                pred: d.u32().map_err(bad)?,
                picked: d.u32s().map_err(bad)?,
            },
            3 => Req::Push {
                global: d.u64().map_err(bad)?,
                x: d.u32s().map_err(bad)?,
                pred: d.u32().map_err(bad)?,
            },
            4 => Req::Exit,
            t => return Err(WireError::BadMessage(format!("unknown request tag {t}"))),
        };
        whole(&d, req, "request")
    }
}

/// A shard worker's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Resp {
    /// Liveness answer: shard id and current partition row count.
    Pong {
        /// The worker's shard index.
        shard: u32,
        /// Rows currently in the partition.
        rows: u64,
    },
    /// The fetched row.
    Row {
        /// Value codes.
        x: Vec<u32>,
        /// Predicted label.
        pred: u32,
    },
    /// The requested global row does not hash to this shard.
    NotOwned,
    /// One greedy round's partition-local statistics. `surv[f]` /
    /// `cover[f]` are only meaningful for features not already picked.
    Counts {
        /// Rows in the partition (for live-total bookkeeping).
        rows: u64,
        /// Violators surviving the key-so-far in this partition.
        violators: u64,
        /// Rows identical to the target with a different prediction: the
        /// violators no key can remove, summed into the router's
        /// certificate.
        twins: u64,
        /// Surviving violators per candidate feature.
        surv: Vec<u64>,
        /// Covered supporters per candidate feature.
        cover: Vec<u64>,
    },
    /// Push applied (or already present); new partition row count.
    Pushed {
        /// Rows now in the partition.
        rows: u64,
    },
    /// Exit acknowledged.
    Bye,
    /// The worker rejected the request (width mismatch, bad message).
    Err {
        /// Human-readable reason.
        msg: String,
    },
}

/// `msg`, unless its decoder `d` has bytes left over.
fn whole<T>(d: &Dec, msg: T, what: &str) -> Result<T, WireError> {
    match d.remaining() {
        0 => Ok(msg),
        n => Err(WireError::BadMessage(format!(
            "{n} trailing bytes after {what}"
        ))),
    }
}

fn enc_u64s(e: &mut Enc, vs: &[u64]) {
    e.usize(vs.len());
    for &v in vs {
        e.u64(v);
    }
}

fn dec_u64s(d: &mut Dec) -> Result<Vec<u64>, WireError> {
    let bad = |e: cce_core::persist::PersistError| WireError::BadMessage(e.to_string());
    // `Dec::len` guards the element count against the remaining bytes, so
    // a hostile length cannot trigger a huge allocation.
    let n = d.len().map_err(bad)?;
    let mut out = Vec::with_capacity(n.min(d.remaining() / 8 + 1));
    for _ in 0..n {
        out.push(d.u64().map_err(bad)?);
    }
    Ok(out)
}

impl Resp {
    /// Encodes the response body (unframed).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Resp::Pong { shard, rows } => {
                e.u8(0);
                e.u32(*shard);
                e.u64(*rows);
            }
            Resp::Row { x, pred } => {
                e.u8(1);
                e.u32s(x);
                e.u32(*pred);
            }
            Resp::NotOwned => e.u8(2),
            Resp::Counts {
                rows,
                violators,
                twins,
                surv,
                cover,
            } => {
                e.u8(3);
                e.u64(*rows);
                e.u64(*violators);
                e.u64(*twins);
                enc_u64s(&mut e, surv);
                enc_u64s(&mut e, cover);
            }
            Resp::Pushed { rows } => {
                e.u8(4);
                e.u64(*rows);
            }
            Resp::Bye => e.u8(5),
            Resp::Err { msg } => {
                e.u8(6);
                e.str(msg);
            }
        }
        e.into_bytes()
    }

    /// Decodes a response body.
    ///
    /// # Errors
    /// [`WireError::BadMessage`] on truncation, trailing bytes, or an
    /// unknown tag.
    pub fn decode(bytes: &[u8]) -> Result<Resp, WireError> {
        let mut d = Dec::new(bytes);
        let bad = |e: cce_core::persist::PersistError| WireError::BadMessage(e.to_string());
        let resp = match d.u8().map_err(bad)? {
            0 => Resp::Pong {
                shard: d.u32().map_err(bad)?,
                rows: d.u64().map_err(bad)?,
            },
            1 => Resp::Row {
                x: d.u32s().map_err(bad)?,
                pred: d.u32().map_err(bad)?,
            },
            2 => Resp::NotOwned,
            3 => Resp::Counts {
                rows: d.u64().map_err(bad)?,
                violators: d.u64().map_err(bad)?,
                twins: d.u64().map_err(bad)?,
                surv: dec_u64s(&mut d)?,
                cover: dec_u64s(&mut d)?,
            },
            4 => Resp::Pushed {
                rows: d.u64().map_err(bad)?,
            },
            5 => Resp::Bye,
            6 => Resp::Err {
                msg: d.str().map_err(bad)?,
            },
            t => return Err(WireError::BadMessage(format!("unknown response tag {t}"))),
        };
        whole(&d, resp, "response")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let payload = b"hello shard".to_vec();
        let framed = encode_frame(&payload);
        let (got, consumed) = decode_frame(&framed).unwrap().unwrap();
        assert_eq!(got, payload);
        assert_eq!(consumed, framed.len());
        // A second frame behind the first is untouched.
        let mut two = framed.clone();
        two.extend_from_slice(&framed);
        let (_, c1) = decode_frame(&two).unwrap().unwrap();
        assert_eq!(c1, framed.len());
    }

    #[test]
    fn messages_round_trip() {
        let reqs = [
            Req::Ping,
            Req::Fetch { global: 42 },
            Req::Counts {
                x: vec![1, 0, 3],
                pred: 1,
                picked: vec![2],
            },
            Req::Push {
                global: 7,
                x: vec![9, 9],
                pred: 0,
            },
            Req::Exit,
        ];
        for r in reqs {
            assert_eq!(Req::decode(&r.encode()).unwrap(), r);
        }
        let resps = [
            Resp::Pong { shard: 3, rows: 10 },
            Resp::Row {
                x: vec![1, 2],
                pred: 1,
            },
            Resp::NotOwned,
            Resp::Counts {
                rows: 100,
                violators: 5,
                twins: 2,
                surv: vec![1, 2, 3],
                cover: vec![4, 5, 6],
            },
            Resp::Pushed { rows: 101 },
            Resp::Bye,
            Resp::Err {
                msg: "width mismatch".into(),
            },
        ];
        for r in resps {
            assert_eq!(Resp::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            decode_frame(&buf),
            Err(WireError::OversizedFrame(_))
        ));
    }

    #[test]
    fn crc_catches_payload_flips() {
        let framed = encode_frame(&Req::Fetch { global: 9 }.encode());
        for pos in 8..framed.len() {
            let mut bad = framed.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_frame(&bad).is_err(),
                "flip at {pos} must not validate"
            );
        }
    }

    #[test]
    fn prefixes_ask_for_more_bytes() {
        let framed = encode_frame(b"abc");
        for cut in 0..framed.len() {
            assert_eq!(decode_frame(&framed[..cut]).unwrap(), None);
        }
    }
}

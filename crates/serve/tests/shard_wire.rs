//! Property fuzzing of the shard wire decoder: arbitrary bytes,
//! truncations, byte flips, and hostile length fields must all land in
//! clean [`WireError`]s — the decoders sit on a socket facing worker
//! processes that can die mid-write, so "never panic, never
//! mis-validate" is the contract the router's fault handling stands on.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use cce_dataset::{csv, schema_io, synth, BinSpec, Dataset};
use cce_serve::shard::wire::{read_frame, write_frame};
use cce_serve::shard::{decode_frame, encode_frame, Req, Resp, WireError, MAX_FRAME_BYTES};
use proptest::prelude::*;

/// Deterministic splitmix64 stream for deriving positions from a seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sample_req(seed: u64, xs: Vec<u32>, picked: Vec<u32>) -> Req {
    match seed % 5 {
        0 => Req::Ping,
        1 => Req::Fetch { global: mix(seed) },
        2 => Req::Counts {
            x: xs,
            pred: (seed % 7) as u32,
            picked,
        },
        3 => Req::Push {
            global: mix(seed) % 1_000_000,
            x: xs,
            pred: (seed % 3) as u32,
        },
        _ => Req::Exit,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary garbage never panics either decoder and never yields a
    /// frame (the odds of random bytes carrying the magic AND a valid
    /// CRC are negligible; asserting "no panic + some Result" is the
    /// real property).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame(&bytes);
        let _ = Req::decode(&bytes);
        let _ = Resp::decode(&bytes);
    }

    /// Every strict prefix of a valid frame is "need more bytes", never
    /// an error and never a bogus success — the stream reader depends on
    /// this to resume cleanly across short reads.
    #[test]
    fn truncated_frames_ask_for_more(seed in any::<u64>(), xs in proptest::collection::vec(any::<u32>(), 0..16), picked in proptest::collection::vec(0u32..16, 0..4)) {
        let framed = encode_frame(&sample_req(seed, xs, picked).encode());
        for cut in 0..framed.len() {
            prop_assert_eq!(
                decode_frame(&framed[..cut]).unwrap(),
                None,
                "prefix of {} bytes must ask for more",
                cut
            );
        }
    }

    /// Any single byte flip anywhere in a frame is detected: magic flips
    /// fail the magic check, length flips either truncate (Ok(None)) or
    /// trip the cap/CRC, payload and CRC flips fail the CRC. What must
    /// never happen is a *successful* decode of different bytes.
    #[test]
    fn byte_flips_never_validate(seed in any::<u64>(), flip in any::<u8>(), xs in proptest::collection::vec(any::<u32>(), 0..16)) {
        let flip = if flip == 0 { 0xA5 } else { flip };
        let payload = sample_req(seed, xs.clone(), Vec::new()).encode();
        let framed = encode_frame(&payload);
        for pos in 0..framed.len() {
            let mut bad = framed.clone();
            bad[pos] ^= flip;
            if let Ok(Some((got, _))) = decode_frame(&bad) {
                prop_assert_eq!(
                    &got, &payload,
                    "flip at {} validated as a different payload", pos
                );
            }
        }
    }

    /// Hostile length fields beyond the cap are rejected before any
    /// allocation, whatever the rest of the frame claims.
    #[test]
    fn oversized_lengths_are_rejected(extra in 1u64..u64::from(u32::MAX - MAX_FRAME_BYTES as u32), tail in proptest::collection::vec(any::<u8>(), 0..64)) {
        let len = MAX_FRAME_BYTES as u32 + u32::try_from(extra).unwrap_or(1);
        let mut buf = u32::from_le_bytes(*b"CCES").to_le_bytes().to_vec();
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&tail);
        prop_assert!(matches!(
            decode_frame(&buf),
            Err(WireError::OversizedFrame(_))
        ));
    }

    /// Truncating a message *body* (after the frame layer) always
    /// decodes to a clean error, never a panic and never a wrong
    /// message. Tag-preserving truncation is the nasty case: the decoder
    /// starts down the right variant and must bail on the missing field.
    #[test]
    fn truncated_bodies_error_cleanly(seed in any::<u64>(), xs in proptest::collection::vec(any::<u32>(), 0..16), picked in proptest::collection::vec(0u32..16, 0..4)) {
        let body = sample_req(seed, xs, picked).encode();
        for cut in 0..body.len() {
            prop_assert!(
                Req::decode(&body[..cut]).is_err(),
                "truncated body of {} bytes must not decode",
                cut
            );
        }
        let resp = Resp::Counts {
            rows: mix(seed),
            violators: seed % 100,
            twins: seed % 7,
            surv: vec![seed % 5; 8],
            cover: vec![seed % 3; 8],
        };
        let body = resp.encode();
        for cut in 0..body.len() {
            prop_assert!(Resp::decode(&body[..cut]).is_err());
        }
    }

    /// Counts responses, the twin count included, round-trip exactly.
    #[test]
    fn counts_responses_round_trip(rows in any::<u64>(), violators in any::<u64>(), twins in any::<u64>(), surv in proptest::collection::vec(any::<u64>(), 0..16), cover in proptest::collection::vec(any::<u64>(), 0..16)) {
        let resp = Resp::Counts { rows, violators, twins, surv, cover };
        prop_assert_eq!(Resp::decode(&resp.encode()).unwrap(), resp);
    }

    /// Round trip with trailing garbage: exact bytes decode, any
    /// appended bytes are a hard error (a stream that framed two
    /// messages into one payload is corrupt, not "close enough").
    #[test]
    fn trailing_bytes_are_rejected(seed in any::<u64>(), xs in proptest::collection::vec(any::<u32>(), 0..16), junk in proptest::collection::vec(any::<u8>(), 1..16)) {
        let req = sample_req(seed, xs, Vec::new());
        let mut body = req.encode();
        prop_assert_eq!(Req::decode(&body).unwrap(), req);
        body.extend_from_slice(&junk);
        prop_assert!(Req::decode(&body).is_err());
    }
}

/// A one-shard worker process over `ds`, and a connection to it.
struct LiveWorker {
    child: Child,
    stream: TcpStream,
    dir: PathBuf,
}

impl LiveWorker {
    fn spawn(tag: &str, ds: &Dataset) -> Self {
        let dir = std::env::temp_dir().join(format!("cce_shard_wire_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        std::fs::write(&data, csv::to_csv(ds)).unwrap();
        std::fs::write(
            data.with_extension("csv.schema"),
            schema_io::sidecar_to_text(ds.schema(), ds.label_names()),
        )
        .unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_cce-shard-worker"))
            .args([
                "--data",
                data.to_str().unwrap(),
                "--shard-index",
                "0",
                "--shards",
                "1",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let addr = line.trim().rsplit(' ').next().unwrap().to_string();
        let stream = TcpStream::connect(addr).unwrap();
        Self { child, stream, dir }
    }

    fn ask(&mut self, req: &Req) -> Resp {
        write_frame(&mut self.stream, &req.encode()).unwrap();
        Resp::decode(&read_frame(&mut self.stream).unwrap()).unwrap()
    }
}

impl Drop for LiveWorker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A live worker answers hostile `Counts` requests — value codes at or
/// past a feature's cardinality, wrong widths, picked features out of
/// range, unknown predictions — with a `Resp::Err` or well-formed
/// counts on the same connection: never a panic, never a dropped
/// connection.
#[test]
fn a_worker_answers_hostile_counts_on_the_same_connection() {
    let ds = synth::loan::generate(64, 42).encode(&BinSpec::uniform(6));
    let mut worker = LiveWorker::spawn("hostile", &ds);
    let n = ds.schema().n_features();
    let cards: Vec<u32> = (0..n)
        .map(|f| ds.schema().feature(f).cardinality() as u32)
        .collect();
    let valid: Vec<u32> = ds.instance(0).values().to_vec();
    for seed in 0..400u64 {
        let z = mix(seed);
        let f = (z % n as u64) as usize;
        let mut x = valid.clone();
        let mut picked = vec![(z >> 8) as u32 % n as u32];
        let expect_err = match seed % 4 {
            0 => {
                x[f] = cards[f] + (z >> 16) as u32 % 3;
                true
            }
            1 => {
                x.truncate(f);
                true
            }
            2 => {
                picked.push(n as u32 + (z >> 24) as u32 % 5);
                true
            }
            _ => false,
        };
        let pred = (z >> 32) as u32 % 4;
        match worker.ask(&Req::Counts { x, pred, picked }) {
            Resp::Err { .. } => assert!(expect_err, "seed {seed}: a valid request was rejected"),
            Resp::Counts { rows, surv, .. } => {
                assert!(!expect_err, "seed {seed}: a hostile request was counted");
                assert_eq!((rows, surv.len()), (ds.len() as u64, n));
            }
            other => panic!("seed {seed}: unexpected answer {other:?}"),
        }
    }
    assert!(matches!(worker.ask(&Req::Ping), Resp::Pong { .. }));
}

/// Pushed rows arrive in global order, and a worker holds them so: a
/// repeated push is a no-op, a new row below one already held is
/// refused, and every held row is fetched by its global index.
#[test]
fn a_worker_keeps_pushed_rows_in_global_order() {
    let ds = synth::loan::generate(16, 42).encode(&BinSpec::uniform(6));
    let mut worker = LiveWorker::spawn("push_order", &ds);
    let row = |g: usize| (ds.instance(g % 16).values().to_vec(), ds.label(g % 16).0);
    let push = |w: &mut LiveWorker, global: u64| {
        let (x, pred) = row(global as usize);
        w.ask(&Req::Push { global, x, pred })
    };
    assert_eq!(push(&mut worker, 20), Resp::Pushed { rows: 17 });
    assert_eq!(push(&mut worker, 20), Resp::Pushed { rows: 17 }, "retry");
    assert_eq!(push(&mut worker, 7), Resp::Pushed { rows: 17 }, "base row");
    assert!(
        matches!(push(&mut worker, 18), Resp::Err { .. }),
        "18 after 20"
    );
    assert_eq!(push(&mut worker, 25), Resp::Pushed { rows: 18 });
    for global in (0..16).chain([20, 25]) {
        let (x, pred) = row(global as usize);
        assert_eq!(worker.ask(&Req::Fetch { global }), Resp::Row { x, pred });
    }
    for global in [16, 18, 21, 26] {
        assert_eq!(worker.ask(&Req::Fetch { global }), Resp::NotOwned);
    }
}

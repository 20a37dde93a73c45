//! Seeded fuzz / property tests for the wire codec.
//!
//! The ISSUE's contract: round-trip every frame type under a seeded
//! generator, and assert that truncated, oversized, garbage and
//! wrong-version frames are rejected with *typed errors* — never a panic.
//! Well over 1000 cases run per suite execution, all deterministic per seed,
//! so a failure reproduces exactly.

use bytes::{BufMut, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use star_common::{FieldValue, Operation, Row, Tid};
use star_proto::{
    decode_entries, decode_frame_header, encode_frame_header, read_message, AdminQuery,
    DecodeError, Request, Response, Role, WireElection, WireMessage, WirePhase, WireRecord,
    WireStatus, WireTxn, FRAME_HEADER_LEN, MAX_BODY_LEN,
};
use star_replication::{check_entry_block, LogEntry, Payload};

// ---------------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------------

fn gen_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..24usize);
    (0..len).map(|_| char::from(rng.gen_range(b' '..=b'~'))).collect()
}

fn gen_field(rng: &mut StdRng) -> FieldValue {
    match rng.gen_range(0..5u8) {
        0 => FieldValue::U64(rng.gen_range(0..u64::MAX)),
        1 => FieldValue::I64(rng.gen_range(i64::MIN..i64::MAX)),
        // Finite floats only: NaN would break the round-trip equality the
        // property asserts (the codec itself is bit-exact either way).
        2 => FieldValue::F64(rng.gen_range(-1.0e12..1.0e12)),
        3 => FieldValue::Str(gen_string(rng)),
        _ => {
            let len = rng.gen_range(0..32usize);
            let mut bytes = vec![0u8; len];
            rng.fill(&mut bytes[..]);
            FieldValue::Bytes(bytes)
        }
    }
}

fn gen_row(rng: &mut StdRng) -> Row {
    let n = rng.gen_range(0..6usize);
    Row::new((0..n).map(|_| gen_field(rng)).collect())
}

fn gen_operation(rng: &mut StdRng, depth: usize) -> Operation {
    let max = if depth == 0 { 5 } else { 6 };
    match rng.gen_range(0..max as u8) {
        0 => Operation::SetField { field: rng.gen_range(0..8usize), value: gen_field(rng) },
        1 => {
            Operation::AddI64 { field: rng.gen_range(0..8usize), delta: rng.gen_range(-1000..1000) }
        }
        2 => Operation::AddF64 {
            field: rng.gen_range(0..8usize),
            delta: rng.gen_range(-100.0..100.0),
        },
        3 => Operation::ConcatStr {
            field: rng.gen_range(0..8usize),
            prefix: gen_string(rng),
            max_len: rng.gen_range(0..500usize),
        },
        4 => Operation::SetRow { row: gen_row(rng) },
        _ => {
            let n = rng.gen_range(0..3usize);
            Operation::Multi { ops: (0..n).map(|_| gen_operation(rng, depth + 1)).collect() }
        }
    }
}

fn gen_log_entry(rng: &mut StdRng) -> LogEntry {
    LogEntry {
        table: rng.gen_range(0..4u32),
        partition: rng.gen_range(0..8usize),
        key: rng.gen_range(0..1_000_000u64),
        tid: Tid::new(rng.gen_range(0..1000u32), rng.gen_range(0..1000u64)),
        payload: if rng.gen_bool(0.5) {
            Payload::Value(gen_row(rng))
        } else {
            Payload::Operation(gen_operation(rng, 0))
        },
    }
}

fn gen_wire_txn(rng: &mut StdRng) -> WireTxn {
    let n_reads = rng.gen_range(0..4usize);
    let n_writes = rng.gen_range(0..4usize);
    WireTxn {
        epoch: rng.gen_range(0..1000u32),
        phase: if rng.gen_bool(0.5) { WirePhase::Partitioned } else { WirePhase::SingleMaster },
        executor: rng.gen_range(0..u64::MAX),
        tid: rng.gen_range(0..u64::MAX),
        reads: (0..n_reads)
            .map(|_| {
                (
                    rng.gen_range(0..4u32),
                    rng.gen_range(0..8u32),
                    rng.gen_range(0..1_000_000u64),
                    rng.gen_range(0..u64::MAX),
                )
            })
            .collect(),
        writes: (0..n_writes)
            .map(|_| {
                (
                    rng.gen_range(0..4u32),
                    rng.gen_range(0..8u32),
                    rng.gen_range(0..1_000_000u64),
                    gen_row(rng),
                )
            })
            .collect(),
    }
}

fn gen_node_ids(rng: &mut StdRng) -> Vec<u32> {
    let n = rng.gen_range(0..4usize);
    (0..n).map(|_| rng.gen_range(0..8u32)).collect()
}

fn gen_wire_record(rng: &mut StdRng) -> WireRecord {
    WireRecord {
        table: rng.gen_range(0..4u32),
        partition: rng.gen_range(0..8u32),
        key: rng.gen_range(0..1_000_000u64),
        tid: rng.gen_range(0..u64::MAX),
        row: gen_row(rng),
    }
}

fn gen_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..10u8) {
        0 => Request::Ping,
        1 => Request::Get {
            table: rng.gen_range(0..4u32),
            partition: rng.gen_range(0..8u32),
            key: rng.gen_range(0..u64::MAX),
        },
        2 => Request::Run {
            iterations: rng.gen_range(0..100u32),
            partitioned_txns: rng.gen_range(0..10_000u64),
            single_master_txns: rng.gen_range(0..10_000u64),
        },
        3 => {
            let n = rng.gen_range(0..5usize);
            Request::RunPhase {
                phase: if rng.gen_bool(0.5) {
                    WirePhase::Partitioned
                } else {
                    WirePhase::SingleMaster
                },
                epoch: rng.gen_range(0..1000u32),
                txns: rng.gen_range(0..10_000u64),
                baselines: (0..n).map(|_| rng.gen_range(0..100_000u64)).collect(),
                failed: gen_node_ids(rng),
            }
        }
        4 => {
            let n = rng.gen_range(0..5usize);
            Request::Fence {
                epoch: rng.gen_range(0..1000u32),
                expected: (0..n).map(|_| rng.gen_range(0..100u64)).collect(),
                failed: gen_node_ids(rng),
            }
        }
        5 => Request::Admin(match rng.gen_range(0..4u8) {
            0 => AdminQuery::Status,
            1 => AdminQuery::Elections,
            2 => AdminQuery::History,
            _ => AdminQuery::ReplicaDigest,
        }),
        6 => {
            // `start` derives from the one draw, so the seeded streams below
            // draw the same messages they drew before the field existed.
            let partition = rng.gen_range(0..8u32);
            Request::FetchPartition { partition, start: u64::from(partition) << 33 }
        }
        7 => {
            let n = rng.gen_range(0..4usize);
            Request::InstallRecords { records: (0..n).map(|_| gen_wire_record(rng)).collect() }
        }
        8 => {
            let n = rng.gen_range(0..4usize);
            let m = rng.gen_range(0..5usize);
            Request::Rejoin {
                epoch: rng.gen_range(0..1000u32),
                last_committed: rng.gen_range(0..1000u32),
                failed: gen_node_ids(rng),
                elections: (0..n)
                    .map(|_| WireElection {
                        epoch: rng.gen_range(0..1000u32),
                        master: rng.gen_range(-1..8i64),
                        generation: rng.gen_range(0..100u64),
                    })
                    .collect(),
                recv_base: (0..m).map(|_| rng.gen_range(0..100u64)).collect(),
            }
        }
        _ => Request::Shutdown,
    }
}

fn gen_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..13u8) {
        0 => Response::Ok,
        1 => Response::Error(gen_string(rng)),
        2 => Response::Pong,
        3 => Response::Record {
            tid: rng.gen_range(0..u64::MAX),
            row: if rng.gen_bool(0.5) { Some(gen_row(rng)) } else { None },
        },
        4 => Response::RunDone {
            committed: rng.gen_range(0..u64::MAX),
            epochs: rng.gen_range(0..1000u32),
        },
        5 => {
            let n = rng.gen_range(0..5usize);
            Response::PhaseDone {
                committed: rng.gen_range(0..10_000u64),
                sent: (0..n).map(|_| rng.gen_range(0..100u64)).collect(),
            }
        }
        6 => Response::FenceDone {
            epoch: rng.gen_range(0..1000u32),
            applied: rng.gen_range(0..10_000u64),
        },
        7 => Response::Status(WireStatus {
            node: rng.gen_range(0..8u32),
            epoch: rng.gen_range(0..1000u32),
            last_committed: rng.gen_range(0..1000u32),
            master: rng.gen_range(-1..8i64),
            generation: rng.gen_range(0..100u64),
            committed: rng.gen_range(0..u64::MAX),
            full_replica: rng.gen_bool(0.5),
        }),
        8 => {
            let n = rng.gen_range(0..4usize);
            Response::Elections(
                (0..n)
                    .map(|_| WireElection {
                        epoch: rng.gen_range(0..1000u32),
                        master: rng.gen_range(-1..8i64),
                        generation: rng.gen_range(0..100u64),
                    })
                    .collect(),
            )
        }
        9 => {
            let n = rng.gen_range(0..3usize);
            Response::History((0..n).map(|_| gen_wire_txn(rng)).collect())
        }
        10 => Response::Digest {
            records: rng.gen_range(0..u64::MAX),
            digest: rng.gen_range(0..u64::MAX),
        },
        11 => {
            let n = rng.gen_range(0..4usize);
            Response::Records((0..n).map(|_| gen_wire_record(rng)).collect())
        }
        _ => Response::InstallDone { installed: rng.gen_range(0..10_000u64) },
    }
}

fn gen_message(rng: &mut StdRng) -> WireMessage {
    match rng.gen_range(0..5u8) {
        0 => WireMessage::Hello {
            role: match rng.gen_range(0..4u8) {
                0 => Role::Client,
                1 => Role::Peer,
                2 => Role::Admin,
                _ => Role::Coordinator,
            },
            node: rng.gen_range(0..8u32),
        },
        1 => WireMessage::HelloAck {
            node: rng.gen_range(0..8u32),
            num_nodes: rng.gen_range(1..9u32),
        },
        2 => WireMessage::Request { id: rng.gen_range(0..u64::MAX), body: gen_request(rng) },
        3 => WireMessage::Response { id: rng.gen_range(0..u64::MAX), body: gen_response(rng) },
        _ => {
            let n = rng.gen_range(0..4usize);
            let entries: Vec<LogEntry> = (0..n).map(|_| gen_log_entry(rng)).collect();
            star_proto::replication_frame(
                rng.gen_range(0..8usize),
                rng.gen_range(0..1000u32),
                &entries,
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// 1500 random messages covering every frame kind and every request/response
/// tag round-trip exactly, including with trailing bytes after the frame.
#[test]
fn random_messages_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for case in 0..1500 {
        let msg = gen_message(&mut rng);
        let frame = msg.encode();
        let (decoded, consumed) =
            WireMessage::decode(&frame).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(consumed, frame.len(), "case {case}");
        assert_eq!(decoded, msg, "case {case}");

        // A streaming buffer usually holds the next frame's bytes too; the
        // decoder must consume exactly one frame and ignore the rest.
        let mut stream = frame.to_vec();
        stream.extend_from_slice(b"NEXTFRAME");
        let (decoded2, consumed2) = WireMessage::decode(&stream).expect("prefix decode");
        assert_eq!((decoded2, consumed2), (decoded, consumed), "case {case}");
    }
}

/// Replication entry blocks round-trip through the standalone block codec.
#[test]
fn entry_blocks_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for case in 0..300 {
        let n = rng.gen_range(0..6usize);
        let entries: Vec<LogEntry> = (0..n).map(|_| gen_log_entry(&mut rng)).collect();
        let block = star_proto::encode_entries(&entries);
        let decoded = decode_entries(&block).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(decoded, entries, "case {case}");
    }
}

/// The allocation-free check a replication frame's entry block gets at the
/// frame boundary accepts exactly the blocks the full decode accepts: every
/// truncation of 200 seeded blocks, and 10 000 seeded single-bit flips.
#[test]
fn the_entry_block_check_accepts_exactly_what_the_decode_accepts() {
    let mut rng = StdRng::seed_from_u64(0xC4EC);
    let blocks: Vec<Vec<u8>> = (0..200)
        .map(|_| {
            let n = rng.gen_range(0..6usize);
            let entries: Vec<LogEntry> = (0..n).map(|_| gen_log_entry(&mut rng)).collect();
            star_proto::encode_entries(&entries).to_vec()
        })
        .collect();
    let agree = |raw: &[u8], what: &str| {
        let checked = check_entry_block(raw).is_ok();
        assert_eq!(checked, decode_entries(raw).is_ok(), "{what}: the check said {checked}");
        checked
    };
    let mut truncations = 0usize;
    for (case, block) in blocks.iter().enumerate() {
        assert!(agree(block, &format!("block {case}")), "block {case} is valid");
        for cut in 0..block.len() {
            assert!(!agree(&block[..cut], &format!("block {case} cut at {cut}")));
            truncations += 1;
        }
    }
    let mut accepted = 0usize;
    for flip in 0..10_000 {
        let mut raw = blocks[rng.gen_range(0..blocks.len())].clone();
        let at = rng.gen_range(0..raw.len());
        raw[at] ^= 1 << rng.gen_range(0..8u8);
        accepted += agree(&raw, &format!("flip {flip} at byte {at}")) as usize;
    }
    assert!(truncations >= 1000, "only {truncations} truncations ran");
    // Both outcomes occur: payload flips survive, length and tag flips do not.
    assert!(accepted > 0 && accepted < 10_000, "{accepted} of 10000 flips accepted");
}

/// Every strict prefix of a valid frame is rejected as `Truncated` — never a
/// panic, never a bogus success.
#[test]
fn every_truncation_is_rejected() {
    let mut rng = StdRng::seed_from_u64(0x7124);
    let mut cases = 0usize;
    for _ in 0..150 {
        let frame = gen_message(&mut rng).encode();
        let cuts: Vec<usize> = if frame.len() <= 64 {
            (0..frame.len()).collect()
        } else {
            // Long frame: every header boundary plus a sample of body cuts.
            let mut cuts: Vec<usize> = (0..=FRAME_HEADER_LEN).collect();
            cuts.extend((0..48).map(|_| rng.gen_range(FRAME_HEADER_LEN..frame.len())));
            cuts
        };
        for cut in cuts {
            cases += 1;
            match WireMessage::decode(&frame[..cut]) {
                Err(DecodeError::Truncated { .. }) => {}
                other => panic!("cut {cut}/{}: expected Truncated, got {other:?}", frame.len()),
            }
        }
    }
    assert!(cases >= 1000, "only {cases} truncation cases ran");
}

/// Pure garbage of every length decodes to a typed error or (vanishingly
/// rarely) a valid message — it never panics and never over-reads.
#[test]
fn garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x6AB6);
    for case in 0..1200 {
        let len = rng.gen_range(0..200usize);
        let mut raw = vec![0u8; len];
        rng.fill(&mut raw[..]);
        if let Ok((_, consumed)) = WireMessage::decode(&raw) {
            assert!(consumed <= raw.len(), "case {case} over-read");
        }
        // The header decoder alone must hold the same property.
        let _ = decode_frame_header(&raw);
    }
}

/// Single-byte corruptions of valid frames decode to a typed error or a
/// (different) valid message — never a panic.
#[test]
fn mutated_frames_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x0DD5);
    for case in 0..1000 {
        let frame = gen_message(&mut rng).encode();
        let mut raw = frame.to_vec();
        let at = rng.gen_range(0..raw.len());
        raw[at] ^= 1 << rng.gen_range(0..8u8);
        if let Ok((_, consumed)) = WireMessage::decode(&raw) {
            assert!(consumed <= raw.len(), "case {case} over-read");
        }
    }
}

/// A frame claiming a different protocol version is rejected with
/// `UnsupportedVersion` before its body is interpreted.
#[test]
fn wrong_version_is_typed() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..200 {
        let mut raw = gen_message(&mut rng).encode().to_vec();
        let bad: u16 = loop {
            let v = rng.gen_range(0..u16::MAX);
            if v != star_proto::PROTOCOL_VERSION {
                break v;
            }
        };
        raw[4..6].copy_from_slice(&bad.to_le_bytes());
        assert_eq!(WireMessage::decode(&raw), Err(DecodeError::UnsupportedVersion(bad)));
    }
}

/// A frame not opening with the `STAR` magic is rejected with `BadMagic`.
#[test]
fn bad_magic_is_typed() {
    let mut rng = StdRng::seed_from_u64(0xA61C);
    for _ in 0..200 {
        let mut raw = gen_message(&mut rng).encode().to_vec();
        let at = rng.gen_range(0..4usize);
        raw[at] ^= 0xff;
        assert!(matches!(WireMessage::decode(&raw), Err(DecodeError::BadMagic(_))));
    }
}

/// A body length above the protocol bound is rejected as `Oversized` without
/// the decoder ever trusting it as an allocation size.
#[test]
fn oversized_lengths_are_typed() {
    let mut rng = StdRng::seed_from_u64(0x0B16);
    for _ in 0..200 {
        let mut raw = gen_message(&mut rng).encode().to_vec();
        let len = rng.gen_range((MAX_BODY_LEN as u64 + 1)..=u32::MAX as u64) as u32;
        raw[8..12].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            WireMessage::decode(&raw),
            Err(DecodeError::Oversized { len: len as usize, max: MAX_BODY_LEN })
        );
    }
}

/// A reader that hands over one byte per `read` call: the most chunked
/// stream a socket can produce.
struct Dribble<'a>(&'a [u8]);

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let (Some(slot), Some((&byte, rest))) = (buf.first_mut(), self.0.split_first()) else {
            return Ok(0);
        };
        *slot = byte;
        self.0 = rest;
        Ok(1)
    }
}

/// Byte-dribble lane: every generated frame read one byte at a time through
/// the blocking reader decodes to exactly the all-at-once result, and the
/// reader stops at the frame's last byte.
#[test]
fn byte_dribble_matches_whole_frame_decode() {
    let mut rng = StdRng::seed_from_u64(0xD81B);
    for case in 0..300 {
        let frame = gen_message(&mut rng).encode();
        let (whole, _) = WireMessage::decode(&frame).unwrap();
        let mut dribble = Dribble(&frame);
        let got = read_message(&mut dribble).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(got, whole, "case {case}");
        assert!(dribble.0.is_empty(), "case {case}: bytes left over");
    }
}

/// Mid-frame EOF through the blocking reader: any strict prefix of a valid
/// frame, dribbled, ends in `UnexpectedEof` — never a message, never a panic.
#[test]
fn dribbled_prefixes_never_yield_or_panic() {
    let mut rng = StdRng::seed_from_u64(0xE0F);
    for case in 0..120 {
        let frame = gen_message(&mut rng).encode();
        let cut = rng.gen_range(0..frame.len());
        match read_message(&mut Dribble(&frame[..cut])) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "case {case}"),
            Ok(message) => panic!("case {case} cut {cut}: a strict prefix yielded {message:?}"),
        }
    }
}

/// Unknown frame kinds and unknown body tags map to their own variants, so a
/// newer peer can be told apart from a corrupt one.
#[test]
fn unknown_kinds_and_tags_are_typed() {
    for kind in [0u8, 6, 7, 42, 255] {
        let mut buf = BytesMut::new();
        encode_frame_header(kind, 0, &mut buf);
        assert_eq!(WireMessage::decode(buf.as_slice()), Err(DecodeError::UnknownKind(kind)));
    }
    for tag in [11u8, 100, 255] {
        let mut body = BytesMut::new();
        body.put_u64_le(1);
        body.put_u8(tag);
        let mut frame = BytesMut::new();
        encode_frame_header(3, body.len(), &mut frame); // kind 3 = Request
        frame.put_slice(body.as_slice());
        assert_eq!(
            WireMessage::decode(frame.as_slice()),
            Err(DecodeError::UnknownTag { context: "request", tag })
        );
    }
}

// ---------------------------------------------------------------------------
// Canonical bytes
// ---------------------------------------------------------------------------

use star_core::history::CommittedTxn;
use star_core::MasterElection;
use star_proto::{encode_elections, encode_history};

/// FNV-1a 64 of `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Round trips pass for any codec that agrees with itself; this pins the
/// bytes. The constants are the hashes the hand-written codec the
/// declaration table replaced produced for the same streams: the 1500 frames
/// of `random_messages_round_trip`, the 300 blocks of
/// `entry_blocks_round_trip`, and a seeded history and election log. The
/// frames' hash was re-pinned once, for protocol version 3: every header's
/// version and `FetchPartition`'s new `start` changed those bytes.
#[test]
fn encodings_match_the_parent_byte_for_byte() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let frames = (0..1500).fold(FNV_OFFSET, |h, _| fnv1a(h, &gen_message(&mut rng).encode()));
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let blocks = (0..300).fold(FNV_OFFSET, |h, _| {
        let n = rng.gen_range(0..6usize);
        let entries: Vec<LogEntry> = (0..n).map(|_| gen_log_entry(&mut rng)).collect();
        fnv1a(h, &star_proto::encode_entries(&entries))
    });
    let mut rng = StdRng::seed_from_u64(0x4157);
    let txns: Vec<CommittedTxn> = (0..64).map(|_| gen_wire_txn(&mut rng).to_committed()).collect();
    let log: Vec<MasterElection> = (0..16)
        .map(|_| {
            WireElection {
                epoch: rng.gen_range(0..1000u32),
                master: rng.gen_range(-1..8i64),
                generation: rng.gen_range(0..100u64),
            }
            .to_election()
        })
        .collect();
    let history = fnv1a(fnv1a(FNV_OFFSET, &encode_history(&txns)), &encode_elections(&log));
    assert_eq!(
        [frames, blocks, history],
        [0xbdad_83f1_226a_8d51, 0x8371_46ea_f4bb_f915, 0x13d6_b204_3ac9_9b83]
    );
}

/// Decoding is canonical: every value has exactly one encoding. Each bit of
/// 200 seeded frames is flipped in turn (the stream holds a `Status`
/// response, so its `full_replica` byte is among them), and whatever
/// `WireMessage::decode` still accepts must re-encode to exactly the bytes
/// it consumed.
#[test]
fn accepted_bit_flips_re_encode_to_their_input() {
    let mut rng = StdRng::seed_from_u64(0xB17F);
    let mut mutants = 0usize;
    for case in 0..200 {
        let frame = gen_message(&mut rng).encode().to_vec();
        for bit in 0..frame.len() * 8 {
            let mut raw = frame.clone();
            raw[bit / 8] ^= 1 << (bit % 8);
            mutants += 1;
            if let Ok((decoded, consumed)) = WireMessage::decode(&raw) {
                assert_eq!(
                    decoded.encode().as_slice(),
                    &raw[..consumed],
                    "case {case}, bit {bit}: {decoded:?}"
                );
            }
        }
    }
    assert!(mutants >= 1000, "only {mutants} mutated frames ran");
}

//! Property tests for the halo wire format (vendored `proptest`).
//!
//! 1. Encode→decode identity for arbitrary frames.
//! 2. Truncation at any point (a torn write) surfaces a typed
//!    [`WireError`] — never a panic, never a silent accept.
//! 3. A single bit flip anywhere in a frame is rejected (CRC-32 catches
//!    every 1-bit error).

use proptest::prelude::*;
use sya_shard::wire::{encode_frame, read_frame, Frame, WireError};

/// Materialises one of the thirteen frame variants from generated raw
/// material (the vendored proptest has no `prop_oneof!`, so variant
/// choice is an explicit selector).
#[allow(clippy::too_many_arguments)]
fn build_frame(
    variant: usize,
    a: u64,
    b: u64,
    small: u32,
    flag: bool,
    writes: Vec<(u32, u32)>,
    epochs: Vec<u64>,
    report: Vec<u8>,
) -> Frame {
    match variant % 13 {
        0 => Frame::Hello { shard: small % 64, of: small % 64 + 1, fingerprint: a, epochs },
        1 => Frame::Welcome { start_epoch: a, epochs_total: b, run_id: a ^ b },
        2 => Frame::Publish { epoch: a, phase: small % 32, writes },
        3 => Frame::Halo { epoch: a, phase: small % 32, writes },
        4 => Frame::EpochEnd { epoch: a },
        5 => Frame::Proceed { stop: flag.then_some((b % 256) as u8) },
        6 => Frame::Rollback,
        7 => Frame::ShardLost { shard: small % 64 },
        8 => Frame::Done { report },
        9 => Frame::Stop { outcome: (b % 256) as u8 },
        10 => Frame::Ping { nonce: a },
        11 => Frame::Pong { nonce: a },
        _ => Frame::Telemetry { shard: small % 64, epoch: a, payload: report },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_is_the_identity(
        variant in 0usize..13,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        small in 0u32..1024,
        flag in prop::bool::ANY,
        writes in prop::collection::vec((0u32..10_000, 0u32..4), 0..40),
        epochs in prop::collection::vec(0u64..1_000_000, 0..10),
        report in prop::collection::vec(0u8..255, 0..200),
    ) {
        let frame = build_frame(variant, a, b, small, flag, writes, epochs, report);
        let bytes = encode_frame(&frame);
        match read_frame(&mut &bytes[..]) {
            Ok(decoded) => prop_assert_eq!(decoded, frame),
            Err(e) => prop_assert!(false, "decode of {} failed: {}", frame.name(), e),
        }
    }

    #[test]
    fn truncation_is_a_typed_error_never_a_panic(
        variant in 0usize..13,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        small in 0u32..1024,
        flag in prop::bool::ANY,
        writes in prop::collection::vec((0u32..10_000, 0u32..4), 0..40),
        epochs in prop::collection::vec(0u64..1_000_000, 0..10),
        report in prop::collection::vec(0u8..255, 0..200),
        cut_seed in 0usize..usize::MAX,
    ) {
        let frame = build_frame(variant, a, b, small, flag, writes, epochs, report);
        let bytes = encode_frame(&frame);
        let cut = cut_seed % bytes.len(); // 0 ≤ cut < len: always torn
        match read_frame(&mut &bytes[..cut]) {
            Err(WireError::Closed) => prop_assert_eq!(cut, 0, "Closed only at a frame boundary"),
            Err(WireError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {}", other),
            Ok(got) => prop_assert!(false, "torn frame accepted as {:?}", got),
        }
    }

    #[test]
    fn single_bit_flip_is_always_rejected(
        variant in 0usize..13,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        small in 0u32..1024,
        flag in prop::bool::ANY,
        writes in prop::collection::vec((0u32..10_000, 0u32..4), 0..40),
        epochs in prop::collection::vec(0u64..1_000_000, 0..10),
        report in prop::collection::vec(0u8..255, 0..200),
        byte_seed in 0usize..usize::MAX,
        bit in 0usize..8,
    ) {
        let frame = build_frame(variant, a, b, small, flag, writes, epochs, report);
        let mut bytes = encode_frame(&frame);
        let at = byte_seed % bytes.len();
        bytes[at] ^= 1 << bit;
        match read_frame(&mut &bytes[..]) {
            // A flip in the length field can also make the reader see a
            // short stream (Corrupt) or an oversized claim (Corrupt);
            // either way it must be typed, never accepted.
            Err(WireError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {}", other),
            Ok(got) => prop_assert!(
                false,
                "bit flip at byte {} bit {} accepted as {:?}",
                at, bit, got
            ),
        }
    }
}

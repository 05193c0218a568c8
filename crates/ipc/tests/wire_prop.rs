//! Property tests for the wire codec primitives: every value
//! round-trips bit-exactly, and every truncation of a valid encoding is
//! rejected instead of mis-decoding.

use approxhadoop_ipc::{read_frame, write_frame, Wire, WireError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn u64_roundtrips(v in 0u64..u64::MAX) {
        prop_assert_eq!(u64::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn f64_roundtrips_bit_exactly(v in -1.0e12..1.0e12f64) {
        let back = f64::from_bytes(&v.to_bytes()).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn pair_vectors_roundtrip(ks in prop::collection::vec(0u32..1000, 0..40),
                              vs in prop::collection::vec(-5.0..5.0f64, 0..40)) {
        let v: Vec<(u32, f64)> = ks.into_iter().zip(vs).collect();
        let bytes = v.to_bytes();
        let back = Vec::<(u32, f64)>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.len(), v.len());
        for (a, b) in back.iter().zip(v.iter()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn strings_roundtrip(s in "[a-z0-9 ]{0,32}") {
        prop_assert_eq!(String::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn every_truncation_is_rejected(v in prop::collection::vec(0u64..u64::MAX, 1..8)) {
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            let r = Vec::<u64>::from_bytes(&bytes[..cut]);
            prop_assert!(r.is_err(), "truncation at {cut} of {} decoded", bytes.len());
        }
    }

    #[test]
    fn flipped_length_prefixes_never_panic(v in prop::collection::vec(0u8..255, 4..64), bit in 0usize..32) {
        // Corrupt the leading length prefix of a Vec<u8> encoding and
        // check decoding fails cleanly (no panic, no huge allocation).
        let mut bytes = v.to_bytes();
        let byte = bit / 8;
        bytes[byte] ^= 1 << (bit % 8);
        match Vec::<u8>::from_bytes(&bytes) {
            Ok(decoded) => prop_assert!(decoded.len() <= v.len() + bytes.len()),
            Err(WireError::Truncated { .. }) | Err(WireError::Corrupt { .. }) => {}
        }
    }

    // Tagged records: a `(tag, payload)` tuple, the shape of every
    // shuffle batch pair. (No job ships dataset-tagged input records —
    // the dataset rides on the split.) The tag must survive next to the
    // payload bit-exactly, and a stream of tagged records must reject
    // every truncation rather than resynchronise on the wrong record.
    #[test]
    fn tagged_records_roundtrip(tags in prop::collection::vec(0u32..4, 1..24),
                                xs in prop::collection::vec(0u64..1_000_000, 1..24),
                                ys in prop::collection::vec(-1.0e6..1.0e6f64, 1..24)) {
        let records: Vec<(u32, (u64, f64))> = tags
            .iter()
            .zip(xs.iter().zip(ys.iter()))
            .map(|(&t, (&x, &y))| (t, (x, y)))
            .collect();
        let bytes = records.to_bytes();
        let back = Vec::<(u32, (u64, f64))>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.len(), records.len());
        for (a, b) in back.iter().zip(records.iter()) {
            prop_assert_eq!(a.0, b.0, "dataset tag changed in flight");
            prop_assert_eq!(a.1.0, b.1.0);
            prop_assert_eq!(a.1.1.to_bits(), b.1.1.to_bits());
        }
    }

    #[test]
    fn tagged_record_truncations_are_rejected(tags in prop::collection::vec(0u32..4, 1..8),
                                              vals in prop::collection::vec(0u64..u64::MAX, 1..8)) {
        let records: Vec<(u32, u64)> = tags.into_iter().zip(vals).collect();
        let bytes = records.to_bytes();
        for cut in 0..bytes.len() {
            let r = Vec::<(u32, u64)>::from_bytes(&bytes[..cut]);
            prop_assert!(r.is_err(), "truncation at {cut} of {} decoded", bytes.len());
        }
    }

    #[test]
    fn corrupt_tagged_frames_never_panic(tags in prop::collection::vec(0u32..4, 1..8),
                                         vals in prop::collection::vec(0u64..u64::MAX, 1..8),
                                         flip in 0usize..64) {
        // Flip one bit anywhere in a tagged-record stream: decoding may
        // succeed (the flip hit a payload), but it must never panic,
        // over-allocate, or silently change the record count on a
        // length-prefix hit without erroring.
        let records: Vec<(u32, u64)> = tags.into_iter().zip(vals).collect();
        let mut bytes = records.to_bytes();
        let pos = flip % (bytes.len() * 8);
        bytes[pos / 8] ^= 1 << (pos % 8);
        match Vec::<(u32, u64)>::from_bytes(&bytes) {
            Ok(decoded) => prop_assert!(decoded.len() <= records.len() + bytes.len()),
            Err(WireError::Truncated { .. }) | Err(WireError::Corrupt { .. }) => {}
        }
    }

    #[test]
    fn frame_streams_roundtrip(frames in prop::collection::vec(prop::collection::vec(0u8..255, 0..64), 0..8)) {
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = std::io::Cursor::new(buf);
        for f in &frames {
            prop_assert_eq!(&read_frame(&mut r).unwrap().unwrap(), f);
        }
        prop_assert!(read_frame(&mut r).unwrap().is_none());
    }
}

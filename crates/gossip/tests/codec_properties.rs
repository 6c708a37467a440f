//! Property tests for the wire codec: roundtrips on random classifications
//! and robustness against corrupted input.

use distclass_core::{Classification, Collection, GaussianSummary, Weight};
use distclass_gossip::codec::{self, CodecError};
use distclass_linalg::{Matrix, Vector};
use proptest::prelude::*;

prop_compose! {
    fn arb_gaussian(d: usize)(
        mean in proptest::collection::vec(-1e6f64..1e6, d..=d),
        diag in proptest::collection::vec(0.0f64..1e4, d..=d),
        off in -10.0f64..10.0,
    ) -> GaussianSummary {
        let mut cov = Matrix::diagonal(&diag);
        if d >= 2 {
            cov[(0, 1)] = off;
            cov[(1, 0)] = off;
        }
        GaussianSummary::new(Vector::from(mean), cov)
    }
}

prop_compose! {
    fn arb_classification(d: usize)(
        entries in proptest::collection::vec(
            (arb_gaussian(d), 1u64..u64::MAX / 1024),
            1..12,
        ),
    ) -> Classification<GaussianSummary> {
        entries
            .into_iter()
            .map(|(g, w)| Collection::new(g, Weight::from_grains(w)))
            .collect()
    }
}

proptest! {
    #[test]
    fn gm_roundtrip_2d(c in arb_classification(2)) {
        let bytes = codec::encode_gm(&c).expect("valid classification");
        prop_assert_eq!(bytes.len(), codec::gm_message_size(c.len(), 2));
        let back = codec::decode_gm(&bytes).expect("own output decodes");
        prop_assert_eq!(back, c);
    }

    #[test]
    fn gm_roundtrip_5d(c in arb_classification(5)) {
        let bytes = codec::encode_gm(&c).expect("valid classification");
        let back = codec::decode_gm(&bytes).expect("own output decodes");
        prop_assert_eq!(back, c);
    }

    #[test]
    fn centroid_roundtrip(
        entries in proptest::collection::vec(
            (proptest::collection::vec(-1e9f64..1e9, 3..=3), 1u64..1u64 << 40),
            1..10,
        ),
    ) {
        let c: Classification<Vector> = entries
            .into_iter()
            .map(|(v, w)| Collection::new(Vector::from(v), Weight::from_grains(w)))
            .collect();
        let bytes = codec::encode_centroid(&c).expect("valid classification");
        prop_assert_eq!(bytes.len(), codec::centroid_message_size(c.len(), 3));
        let back = codec::decode_centroid(&bytes).expect("own output decodes");
        prop_assert_eq!(back, c);
    }

    #[test]
    fn any_suffix_after_a_valid_encoding_is_refused(
        gm in arb_classification(2),
        centroids in proptest::collection::vec(
            (proptest::collection::vec(-1e9f64..1e9, 2..=2), 1u64..1u64 << 40),
            1..10,
        ),
        suffix in proptest::collection::vec(0u8..=255, 1..64),
    ) {
        let trailing = Some(CodecError::TrailingBytes { extra: suffix.len() });
        let mut bytes = codec::encode_gm(&gm).expect("valid classification").to_vec();
        bytes.extend_from_slice(&suffix);
        prop_assert_eq!(codec::decode_gm(&bytes).err(), trailing.clone());

        let centroids: Classification<Vector> = centroids
            .into_iter()
            .map(|(v, w)| Collection::new(Vector::from(v), Weight::from_grains(w)))
            .collect();
        let mut bytes = codec::encode_centroid(&centroids).expect("valid classification").to_vec();
        bytes.extend_from_slice(&suffix);
        prop_assert_eq!(codec::decode_centroid(&bytes).err(), trailing);
    }

    #[test]
    fn truncation_never_panics(c in arb_classification(2), cut_frac in 0.0f64..1.0) {
        let bytes = codec::encode_gm(&c).expect("valid classification");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Either decodes (cut == len) or errors cleanly — never panics.
        let result = codec::decode_gm(&bytes[..cut]);
        if cut == bytes.len() {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }

    #[test]
    fn single_byte_corruption_never_panics(
        c in arb_classification(2),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let bytes = codec::encode_gm(&c).expect("valid classification");
        let mut corrupted = bytes.to_vec();
        let pos = ((corrupted.len() - 1) as f64 * pos_frac) as usize;
        corrupted[pos] ^= 1 << bit;
        // Must not panic; may decode to something else or error.
        let _ = codec::decode_gm(&corrupted);
    }

    #[test]
    fn corrupted_magic_is_always_wrong_magic(c in arb_classification(2), bit in 0u8..8) {
        let mut bytes = codec::encode_gm(&c).expect("valid classification").to_vec();
        bytes[0] ^= 1 << bit;
        let found = bytes[0];
        prop_assert_eq!(
            codec::decode_gm(&bytes),
            Err(CodecError::WrongMagic { found, expected: 0x47 })
        );
    }

    #[test]
    fn unknown_version_is_always_rejected(c in arb_classification(3), version in 0u8..=255) {
        // Remap the one valid version onto another invalid one.
        let version = if version == 1 { 0 } else { version };
        let mut bytes = codec::encode_gm(&c).expect("valid classification").to_vec();
        bytes[1] = version;
        prop_assert_eq!(
            codec::decode_gm(&bytes),
            Err(CodecError::UnsupportedVersion { found: version })
        );
    }

    #[test]
    fn truncation_reports_exact_missing_bytes(c in arb_classification(2), cut_frac in 0.0f64..1.0) {
        let bytes = codec::encode_gm(&c).expect("valid classification");
        let cut = (((bytes.len() as f64) * cut_frac) as usize).min(bytes.len() - 1);
        match codec::decode_gm(&bytes[..cut]) {
            Err(CodecError::Truncated { needed }) => {
                // The reported shortfall never exceeds what is actually
                // missing, and is never zero.
                prop_assert!(needed > 0);
                prop_assert!(needed <= bytes.len() - cut);
            }
            other => prop_assert!(false, "expected Truncated, got {other:?}"),
        }
    }
}

/// The four header bytes after the magic: version, dimension, count (BE).
fn gm_frame(version: u8, d: u8, count: u16, payload: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0x47, version, d];
    bytes.extend_from_slice(&count.to_be_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn header_truncation_reports_shortfall() {
    // An empty buffer is five header bytes short; each added byte
    // reduces the reported shortfall by one.
    for have in 0..5usize {
        let bytes = vec![0x47; have];
        assert_eq!(
            codec::decode_gm(&bytes),
            Err(CodecError::Truncated { needed: 5 - have }),
            "header with {have} bytes"
        );
    }
}

#[test]
fn zero_dimension_is_invalid_shape() {
    assert_eq!(
        codec::decode_gm(&gm_frame(1, 0, 1, &[0u8; 64])),
        Err(CodecError::InvalidShape)
    );
    let mut centroid = gm_frame(1, 0, 1, &[0u8; 64]);
    centroid[0] = 0x43;
    assert_eq!(
        codec::decode_centroid(&centroid),
        Err(CodecError::InvalidShape)
    );
}

#[test]
fn zero_weight_on_the_wire_is_rejected() {
    // d = 1, one record: 8 zero grain bytes, then mean and variance.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_be_bytes());
    payload.extend_from_slice(&1.0f64.to_be_bytes());
    payload.extend_from_slice(&1.0f64.to_be_bytes());
    assert_eq!(
        codec::decode_gm(&gm_frame(1, 1, 1, &payload)),
        Err(CodecError::ZeroWeight)
    );
}

#[test]
fn non_finite_payload_is_rejected() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_be_bytes());
        payload.extend_from_slice(&bad.to_be_bytes());
        payload.extend_from_slice(&1.0f64.to_be_bytes());
        assert_eq!(
            codec::decode_gm(&gm_frame(1, 1, 1, &payload)),
            Err(CodecError::NonFinite),
            "mean {bad}"
        );
    }
}

#[test]
fn overstated_count_is_truncated_not_panic() {
    // Header claims 500 records but carries none: the first record read
    // must fail cleanly with the full record size as the shortfall.
    let record = 8 + 8 + 8; // grains + mean + cov for d = 1
    assert_eq!(
        codec::decode_gm(&gm_frame(1, 1, 500, &[])),
        Err(CodecError::Truncated { needed: record })
    );
}

#[test]
fn empty_classification_does_not_encode() {
    let c: Classification<GaussianSummary> = Classification::new();
    assert_eq!(codec::encode_gm(&c), Err(CodecError::InvalidShape));
    let c: Classification<Vector> = Classification::new();
    assert_eq!(codec::encode_centroid(&c), Err(CodecError::InvalidShape));
}

#[test]
fn gm_and_centroid_frames_are_mutually_exclusive() {
    let gm: Classification<GaussianSummary> = std::iter::once(Collection::new(
        GaussianSummary::new(Vector::from([1.0]), Matrix::identity(1)),
        Weight::from_grains(3),
    ))
    .collect();
    let bytes = codec::encode_gm(&gm).expect("valid classification");
    assert_eq!(
        codec::decode_centroid(&bytes),
        Err(CodecError::WrongMagic {
            found: 0x47,
            expected: 0x43,
        })
    );

    let cent: Classification<Vector> =
        std::iter::once(Collection::new(Vector::from([1.0]), Weight::from_grains(3))).collect();
    let bytes = codec::encode_centroid(&cent).expect("valid classification");
    assert_eq!(
        codec::decode_gm(&bytes),
        Err(CodecError::WrongMagic {
            found: 0x43,
            expected: 0x47,
        })
    );
}

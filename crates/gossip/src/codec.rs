//! Compact wire format for classifications.
//!
//! A key property the paper claims over centralized collection: the message
//! size “is similar to ours, dependent only on the parameters of the
//! dataset, and not on the number of nodes”. This codec makes the claim
//! concrete: an encoded classification costs a fixed header plus a fixed
//! per-collection record determined by the dimension `d` — independent of
//! `n`, the round number, or how much weight the message carries.
//!
//! Covariance matrices are symmetric, so only the upper triangle is
//! encoded (`d(d+1)/2` floats instead of `d²`). Auxiliary mixture vectors
//! are never encoded — they are audit-only instrumentation that a real
//! deployment does not ship.
//!
//! # Example
//!
//! ```
//! use distclass_core::{Classification, Collection, GaussianSummary, Weight};
//! use distclass_gossip::codec;
//! use distclass_linalg::Vector;
//!
//! let mut c = Classification::new();
//! c.push(Collection::new(
//!     GaussianSummary::from_point(&Vector::from(vec![1.0, 2.0])),
//!     Weight::from_grains(77),
//! ));
//! let bytes = codec::encode_gm(&c)?;
//! assert_eq!(bytes.len(), codec::gm_message_size(1, 2));
//! let back = codec::decode_gm(&bytes)?;
//! assert_eq!(back.len(), 1);
//! assert_eq!(back.collection(0).weight.grains(), 77);
//! # Ok::<(), distclass_gossip::codec::CodecError>(())
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use distclass_core::{Classification, Collection, GaussianSummary, Weight};
use distclass_linalg::{Matrix, Vector};
use std::error::Error;
use std::fmt;

const MAGIC_GM: u8 = 0x47; // 'G'
const MAGIC_CENTROID: u8 = 0x43; // 'C'
const VERSION: u8 = 1;

/// Errors from decoding a classification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer is shorter than the format requires.
    Truncated {
        /// Bytes needed beyond what was available.
        needed: usize,
    },
    /// The magic byte does not identify the expected summary type.
    WrongMagic {
        /// The magic byte found.
        found: u8,
        /// The magic byte expected.
        expected: u8,
    },
    /// Unsupported format version.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// A collection declared zero weight (invalid on the wire).
    ZeroWeight,
    /// The value dimension would overflow the encoding (`d > 255`) or be
    /// zero; or too many collections for the `u16` count field.
    InvalidShape,
    /// A decoded float is non-finite.
    NonFinite,
    /// Bytes follow the last collection the header declares.
    TrailingBytes {
        /// How many bytes follow it.
        extra: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed } => {
                write!(f, "buffer truncated, need {needed} more bytes")
            }
            CodecError::WrongMagic { found, expected } => {
                write!(f, "wrong magic byte {found:#04x}, expected {expected:#04x}")
            }
            CodecError::UnsupportedVersion { found } => {
                write!(f, "unsupported codec version {found}")
            }
            CodecError::ZeroWeight => write!(f, "collection with zero weight on the wire"),
            CodecError::InvalidShape => write!(f, "invalid dimension or collection count"),
            CodecError::NonFinite => write!(f, "non-finite value decoded"),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} bytes after the declared collections")
            }
        }
    }
}

impl Error for CodecError {}

/// The exact encoded size of a Gaussian-Mixture classification with
/// `collections` collections in dimension `d` — a function of `k` and `d`
/// only, never of `n`.
pub fn gm_message_size(collections: usize, d: usize) -> usize {
    // magic + version + d + count
    1 + 1 + 1 + 2 + collections * (8 + 8 * d + 8 * (d * (d + 1) / 2))
}

/// The exact encoded size of a centroid classification.
pub fn centroid_message_size(collections: usize, d: usize) -> usize {
    1 + 1 + 1 + 2 + collections * (8 + 8 * d)
}

/// Encodes a Gaussian-Mixture classification.
///
/// # Errors
///
/// Returns [`CodecError::InvalidShape`] for empty classifications,
/// dimensions above 255, more than 65535 collections or a covariance that
/// is not `d × d`, and [`CodecError::ZeroWeight`] /
/// [`CodecError::NonFinite`] for invalid contents.
pub fn encode_gm(c: &Classification<GaussianSummary>) -> Result<Bytes, CodecError> {
    let d = validate_shape(
        c.len(),
        c.collections().first().map(|col| col.summary.dim()),
    )?;
    let mut buf = BytesMut::with_capacity(gm_message_size(c.len(), d));
    buf.put_u8(MAGIC_GM);
    buf.put_u8(VERSION);
    buf.put_u8(d as u8);
    buf.put_u16(c.len() as u16);
    for col in c.iter() {
        if col.weight.is_zero() {
            return Err(CodecError::ZeroWeight);
        }
        let cov = &col.summary.cov;
        if col.summary.dim() != d || cov.rows() != d || cov.cols() != d {
            return Err(CodecError::InvalidShape);
        }
        if !col.summary.mean.is_finite() || !cov.is_finite() {
            return Err(CodecError::NonFinite);
        }
        buf.put_u64(col.weight.grains());
        for &x in col.summary.mean.iter() {
            buf.put_f64(x);
        }
        for i in 0..d {
            for j in i..d {
                buf.put_f64(col.summary.cov[(i, j)]);
            }
        }
    }
    Ok(buf.freeze())
}

/// Decodes a Gaussian-Mixture classification.
///
/// # Errors
///
/// Any [`CodecError`] variant, as appropriate.
pub fn decode_gm(mut buf: &[u8]) -> Result<Classification<GaussianSummary>, CodecError> {
    let (d, count) = decode_header(&mut buf, MAGIC_GM)?;
    let mut out = Classification::new();
    for _ in 0..count {
        let record = 8 + 8 * d + 8 * (d * (d + 1) / 2);
        ensure(buf.len() >= record, record - buf.len().min(record))?;
        let grains = buf.get_u64();
        if grains == 0 {
            return Err(CodecError::ZeroWeight);
        }
        let mean: Vector = (0..d).map(|_| buf.get_f64()).collect();
        let mut cov = Matrix::zeros(d, d);
        for i in 0..d {
            for j in i..d {
                let x = buf.get_f64();
                cov[(i, j)] = x;
                cov[(j, i)] = x;
            }
        }
        if !mean.is_finite() || !cov.is_finite() {
            return Err(CodecError::NonFinite);
        }
        out.push(Collection::new(
            GaussianSummary::new(mean, cov),
            Weight::from_grains(grains),
        ));
    }
    ensure_consumed(buf)?;
    Ok(out)
}

/// Encodes a centroid classification.
///
/// # Errors
///
/// Same classes of failure as [`encode_gm`].
pub fn encode_centroid(c: &Classification<Vector>) -> Result<Bytes, CodecError> {
    let d = validate_shape(
        c.len(),
        c.collections().first().map(|col| col.summary.dim()),
    )?;
    let mut buf = BytesMut::with_capacity(centroid_message_size(c.len(), d));
    buf.put_u8(MAGIC_CENTROID);
    buf.put_u8(VERSION);
    buf.put_u8(d as u8);
    buf.put_u16(c.len() as u16);
    for col in c.iter() {
        if col.weight.is_zero() {
            return Err(CodecError::ZeroWeight);
        }
        if col.summary.dim() != d {
            return Err(CodecError::InvalidShape);
        }
        if !col.summary.is_finite() {
            return Err(CodecError::NonFinite);
        }
        buf.put_u64(col.weight.grains());
        for &x in col.summary.iter() {
            buf.put_f64(x);
        }
    }
    Ok(buf.freeze())
}

/// Decodes a centroid classification.
///
/// # Errors
///
/// Any [`CodecError`] variant, as appropriate.
pub fn decode_centroid(mut buf: &[u8]) -> Result<Classification<Vector>, CodecError> {
    let (d, count) = decode_header(&mut buf, MAGIC_CENTROID)?;
    let mut out = Classification::new();
    for _ in 0..count {
        let record = 8 + 8 * d;
        ensure(buf.len() >= record, record - buf.len().min(record))?;
        let grains = buf.get_u64();
        if grains == 0 {
            return Err(CodecError::ZeroWeight);
        }
        let centroid: Vector = (0..d).map(|_| buf.get_f64()).collect();
        if !centroid.is_finite() {
            return Err(CodecError::NonFinite);
        }
        out.push(Collection::new(centroid, Weight::from_grains(grains)));
    }
    ensure_consumed(buf)?;
    Ok(out)
}

fn validate_shape(count: usize, dim: Option<usize>) -> Result<usize, CodecError> {
    let d = dim.ok_or(CodecError::InvalidShape)?;
    if d == 0 || d > 255 || count > u16::MAX as usize {
        return Err(CodecError::InvalidShape);
    }
    Ok(d)
}

fn decode_header(buf: &mut &[u8], magic: u8) -> Result<(usize, usize), CodecError> {
    ensure(buf.len() >= 5, 5 - buf.len().min(5))?;
    let found = buf.get_u8();
    if found != magic {
        return Err(CodecError::WrongMagic {
            found,
            expected: magic,
        });
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion { found: version });
    }
    let d = buf.get_u8() as usize;
    let count = buf.get_u16() as usize;
    if d == 0 {
        return Err(CodecError::InvalidShape);
    }
    Ok((d, count))
}

fn ensure_consumed(rest: &[u8]) -> Result<(), CodecError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(CodecError::TrailingBytes { extra: rest.len() })
    }
}

fn ensure(ok: bool, needed: usize) -> Result<(), CodecError> {
    if ok {
        Ok(())
    } else {
        Err(CodecError::Truncated { needed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gm_classification(k: usize, d: usize) -> Classification<GaussianSummary> {
        (0..k)
            .map(|i| {
                let mean: Vector = (0..d).map(|j| (i * d + j) as f64 * 0.5).collect();
                let mut cov = Matrix::identity(d);
                cov.add_diagonal(i as f64 * 0.1);
                cov[(0, d - 1)] = 0.25;
                cov[(d - 1, 0)] = 0.25;
                Collection::new(
                    GaussianSummary::new(mean, cov),
                    Weight::from_grains(i as u64 + 1),
                )
            })
            .collect()
    }

    #[test]
    fn gm_roundtrip() {
        let c = gm_classification(7, 3);
        let bytes = encode_gm(&c).unwrap();
        assert_eq!(bytes.len(), gm_message_size(7, 3));
        let back = decode_gm(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn centroid_roundtrip() {
        let c: Classification<Vector> = (0..4)
            .map(|i| {
                Collection::new(
                    Vector::from([i as f64, -(i as f64)]),
                    Weight::from_grains(9),
                )
            })
            .collect();
        let bytes = encode_centroid(&c).unwrap();
        assert_eq!(bytes.len(), centroid_message_size(4, 2));
        assert_eq!(decode_centroid(&bytes).unwrap(), c);
    }

    #[test]
    fn size_depends_only_on_k_and_d() {
        // The paper's claim, verified: same k and d ⇒ same byte count,
        // regardless of the weights (i.e. of n or the round).
        let mut heavy = gm_classification(5, 2);
        heavy = heavy
            .into_iter()
            .map(|mut c| {
                c.weight = Weight::from_grains(u64::MAX / 2);
                c
            })
            .collect();
        let light = gm_classification(5, 2);
        assert_eq!(
            encode_gm(&heavy).unwrap().len(),
            encode_gm(&light).unwrap().len()
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let c = gm_classification(2, 2);
        let bytes = encode_gm(&c).unwrap();
        for cut in [0, 3, 8, bytes.len() - 1] {
            assert!(matches!(
                decode_gm(&bytes[..cut]),
                Err(CodecError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn decode_rejects_wrong_magic() {
        let c = gm_classification(1, 1);
        let bytes = encode_gm(&c).unwrap();
        assert!(matches!(
            decode_centroid(&bytes),
            Err(CodecError::WrongMagic { .. })
        ));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let c = gm_classification(1, 1);
        let mut bytes = encode_gm(&c).unwrap().to_vec();
        bytes[1] = 9;
        assert_eq!(
            decode_gm(&bytes),
            Err(CodecError::UnsupportedVersion { found: 9 })
        );
    }

    #[test]
    fn decode_rejects_zero_weight() {
        let c = gm_classification(1, 1);
        let mut bytes = encode_gm(&c).unwrap().to_vec();
        // Zero the weight field (bytes 5..13).
        for b in &mut bytes[5..13] {
            *b = 0;
        }
        assert_eq!(decode_gm(&bytes), Err(CodecError::ZeroWeight));
    }

    #[test]
    fn decode_rejects_non_finite() {
        let c = gm_classification(1, 1);
        let mut bytes = encode_gm(&c).unwrap().to_vec();
        // Overwrite the mean float with NaN.
        bytes[13..21].copy_from_slice(&f64::NAN.to_be_bytes());
        assert_eq!(decode_gm(&bytes), Err(CodecError::NonFinite));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let centroid: Classification<Vector> = std::iter::once(Collection::new(
            Vector::from([1.0, 2.0]),
            Weight::from_grains(3),
        ))
        .collect();
        let mut bytes = encode_centroid(&centroid).unwrap().to_vec();
        bytes.extend_from_slice(&[0; 7]);
        assert_eq!(
            decode_centroid(&bytes),
            Err(CodecError::TrailingBytes { extra: 7 })
        );
        let mut bytes = encode_gm(&gm_classification(2, 2)).unwrap().to_vec();
        bytes.push(0x47);
        assert_eq!(
            decode_gm(&bytes),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn encode_rejects_a_covariance_that_is_not_d_by_d() {
        // The fields are public, so `GaussianSummary::new`'s check can be
        // bypassed: a larger covariance must not encode as its top-left
        // block, nor a smaller one panic.
        for cov in [
            Matrix::identity(3),
            Matrix::identity(1),
            Matrix::zeros(2, 3),
        ] {
            let shape = (cov.rows(), cov.cols());
            let summary = GaussianSummary {
                mean: Vector::zeros(2),
                cov,
            };
            let c: Classification<GaussianSummary> =
                std::iter::once(Collection::new(summary, Weight::from_grains(1))).collect();
            assert_eq!(encode_gm(&c), Err(CodecError::InvalidShape), "{shape:?}");
        }
    }

    #[test]
    fn encode_rejects_empty() {
        let c: Classification<GaussianSummary> = Classification::new();
        assert_eq!(encode_gm(&c), Err(CodecError::InvalidShape));
    }

    #[test]
    fn error_display_nonempty() {
        let errors: Vec<CodecError> = vec![
            CodecError::Truncated { needed: 4 },
            CodecError::WrongMagic {
                found: 0,
                expected: MAGIC_GM,
            },
            CodecError::UnsupportedVersion { found: 2 },
            CodecError::ZeroWeight,
            CodecError::InvalidShape,
            CodecError::NonFinite,
            CodecError::TrailingBytes { extra: 7 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}

//! Summary-generic access to the wire codec.
//!
//! The [`codec`] module exposes one encode/decode pair per
//! summary type. Transports that are generic over the
//! [`Instance`](distclass_core::Instance) — the deployment runtime, the
//! byte-accounting simulators — need a single trait to call instead, which
//! is what [`WireSummary`] provides: every summary type that can go on the
//! wire knows how to encode and decode a classification of itself, and how
//! many bytes that costs.
//!
//! # Example
//!
//! ```
//! use distclass_core::{Classification, Collection, Weight};
//! use distclass_gossip::wire::WireSummary;
//! use distclass_linalg::Vector;
//!
//! let mut c = Classification::new();
//! c.push(Collection::new(Vector::from(vec![1.0, 2.0]), Weight::from_grains(3)));
//! let bytes = Vector::encode(&c)?;
//! assert_eq!(bytes.len(), Vector::encoded_size(1, 2));
//! assert_eq!(Vector::decode(&bytes)?, c);
//! # Ok::<(), distclass_gossip::codec::CodecError>(())
//! ```

use bytes::Bytes;
use distclass_core::{Classification, GaussianSummary};
use distclass_linalg::Vector;

use crate::codec::{self, CodecError};
use crate::message::GossipMessage;

/// A collection summary with a wire representation.
///
/// Implemented for the two summary domains of the paper:
/// [`GaussianSummary`] (Gaussian-Mixture instance, §5.2) and [`Vector`]
/// (centroid instance, §5.1). The encoded size depends only on the number
/// of collections and the value dimension — never on `n` or time — which is
/// the paper's message-size claim.
pub trait WireSummary: Clone + std::fmt::Debug + Sized {
    /// The dimension of the underlying value space.
    fn dim(&self) -> usize;

    /// Encodes a classification of this summary type.
    ///
    /// # Errors
    ///
    /// See [`codec::encode_gm`] / [`codec::encode_centroid`].
    fn encode(c: &Classification<Self>) -> Result<Bytes, CodecError>;

    /// Decodes a classification of this summary type.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] variant, as appropriate.
    fn decode(buf: &[u8]) -> Result<Classification<Self>, CodecError>;

    /// The exact encoded size of a classification with `collections`
    /// collections in dimension `d`.
    fn encoded_size(collections: usize, d: usize) -> usize;

    /// The summary's location (mean / centroid) as a flat coordinate
    /// slice — the quantity a Byzantine poisoner shifts and a defender's
    /// drift check compares.
    fn location(&self) -> &[f64];

    /// Shifts the summary's location by `delta` (elementwise; extra
    /// components of `delta` are ignored, missing ones treated as zero).
    /// Used by the adversary model to generate poisoned wire summaries.
    fn shift_location(&mut self, delta: &[f64]);

    /// Whether every numeric component of the summary is finite. A
    /// defender rejects classifications carrying `NaN`/`±inf` outright.
    fn is_wire_finite(&self) -> bool;
}

impl WireSummary for GaussianSummary {
    fn dim(&self) -> usize {
        GaussianSummary::dim(self)
    }

    fn encode(c: &Classification<Self>) -> Result<Bytes, CodecError> {
        codec::encode_gm(c)
    }

    fn decode(buf: &[u8]) -> Result<Classification<Self>, CodecError> {
        codec::decode_gm(buf)
    }

    fn encoded_size(collections: usize, d: usize) -> usize {
        codec::gm_message_size(collections, d)
    }

    fn location(&self) -> &[f64] {
        self.mean.as_slice()
    }

    fn shift_location(&mut self, delta: &[f64]) {
        for (m, d) in self.mean.as_mut_slice().iter_mut().zip(delta) {
            *m += d;
        }
    }

    fn is_wire_finite(&self) -> bool {
        self.mean.is_finite() && self.cov.is_finite()
    }
}

impl WireSummary for Vector {
    fn dim(&self) -> usize {
        Vector::dim(self)
    }

    fn encode(c: &Classification<Self>) -> Result<Bytes, CodecError> {
        codec::encode_centroid(c)
    }

    fn decode(buf: &[u8]) -> Result<Classification<Self>, CodecError> {
        codec::decode_centroid(buf)
    }

    fn encoded_size(collections: usize, d: usize) -> usize {
        codec::centroid_message_size(collections, d)
    }

    fn location(&self) -> &[f64] {
        self.as_slice()
    }

    fn shift_location(&mut self, delta: &[f64]) {
        for (m, d) in self.as_mut_slice().iter_mut().zip(delta) {
            *m += d;
        }
    }

    fn is_wire_finite(&self) -> bool {
        self.is_finite()
    }
}

/// The codec header cost — what an empty or payload-free message (a pull
/// request, an empty split) would occupy on the wire.
pub const HEADER_SIZE: usize = 5;

/// The exact wire size of a classification — [`HEADER_SIZE`] when it is
/// empty (nothing but the header would be sent).
pub fn classification_size<S: WireSummary>(c: &Classification<S>) -> usize {
    match c.collections().first() {
        Some(first) => S::encoded_size(c.len(), first.summary.dim()),
        None => HEADER_SIZE,
    }
}

/// Whether every summary in `c` is finite on the wire. Weights are exact
/// integer grains and cannot be non-finite, so the summaries are the only
/// poisoning surface.
pub fn classification_is_finite<S: WireSummary>(c: &Classification<S>) -> bool {
    c.iter().all(|col| col.summary.is_wire_finite())
}

/// The per-collection locations of a classification, flattened for
/// defense-side drift checks (ordering follows the collection order).
pub fn classification_locations<S: WireSummary>(c: &Classification<S>) -> Vec<Vec<f64>> {
    c.iter()
        .map(|col| col.summary.location().to_vec())
        .collect()
}

/// The exact wire size of a gossip message, for byte-level accounting in
/// the simulators: data and push-pull payloads cost their encoded size,
/// and control messages (pull requests) cost one codec header.
pub fn gossip_message_size<S: WireSummary>(msg: &GossipMessage<S>) -> usize {
    match msg {
        GossipMessage::Data(c) | GossipMessage::PushPullRequest(c) => classification_size(c),
        GossipMessage::PullRequest => HEADER_SIZE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distclass_core::{Collection, Weight};
    use distclass_linalg::Matrix;

    fn centroid_classification(k: usize, d: usize) -> Classification<Vector> {
        (0..k)
            .map(|i| {
                let v: Vector = (0..d).map(|j| (i + j) as f64).collect();
                Collection::new(v, Weight::from_grains(i as u64 + 1))
            })
            .collect()
    }

    #[test]
    fn centroid_roundtrip_via_trait() {
        let c = centroid_classification(3, 2);
        let bytes = Vector::encode(&c).unwrap();
        assert_eq!(bytes.len(), Vector::encoded_size(3, 2));
        assert_eq!(Vector::decode(&bytes).unwrap(), c);
    }

    #[test]
    fn gaussian_roundtrip_via_trait() {
        let mut c = Classification::new();
        c.push(Collection::new(
            GaussianSummary::new(Vector::from([1.0, 2.0]), Matrix::identity(2)),
            Weight::from_grains(5),
        ));
        let bytes = GaussianSummary::encode(&c).unwrap();
        assert_eq!(bytes.len(), GaussianSummary::encoded_size(1, 2));
        assert_eq!(GaussianSummary::decode(&bytes).unwrap(), c);
    }

    #[test]
    fn sizes_match_codec() {
        let c = centroid_classification(4, 3);
        assert_eq!(classification_size(&c), codec::centroid_message_size(4, 3));
        assert_eq!(
            classification_size(&Classification::<Vector>::new()),
            HEADER_SIZE
        );
    }

    #[test]
    fn location_hooks_shift_and_screen() {
        let mut g = GaussianSummary::new(Vector::from([1.0, 2.0]), Matrix::identity(2));
        assert_eq!(g.location(), &[1.0, 2.0]);
        g.shift_location(&[0.5, -0.5]);
        assert_eq!(g.location(), &[1.5, 1.5]);
        assert!(g.is_wire_finite());
        g.shift_location(&[f64::NAN, 0.0]);
        assert!(!g.is_wire_finite());

        let mut v = Vector::from([3.0]);
        v.shift_location(&[1.0]);
        assert_eq!(v.location(), &[4.0]);
        assert!(v.is_wire_finite());

        let mut c = Classification::new();
        c.push(Collection::new(Vector::from([0.0]), Weight::from_grains(1)));
        assert!(classification_is_finite(&c));
        assert_eq!(classification_locations(&c), vec![vec![0.0]]);
        c.push(Collection::new(
            Vector::from([f64::INFINITY]),
            Weight::from_grains(1),
        ));
        assert!(!classification_is_finite(&c));
    }

    #[test]
    fn message_sizes() {
        let c = centroid_classification(2, 2);
        let data_size = classification_size(&c);
        assert_eq!(
            gossip_message_size(&GossipMessage::Data(c.clone())),
            data_size
        );
        assert_eq!(
            gossip_message_size(&GossipMessage::PushPullRequest(c)),
            data_size
        );
        assert_eq!(
            gossip_message_size::<Vector>(&GossipMessage::PullRequest),
            HEADER_SIZE
        );
    }
}

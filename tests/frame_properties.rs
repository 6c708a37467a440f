//! The runtime's frame decoder under generated and hostile datagrams.
//!
//! `decode_frame` reads every datagram a peer receives, so any bytes must
//! decode to a frame or a typed `FrameError`, never a panic, and to the
//! one the documented layout says. `encode_frame` followed by
//! `stamp_times` must decode field for field to what went in. A frame
//! cut inside its header must report exactly the bytes missing, and one
//! cut inside its payload, or with bytes appended, a length mismatch.

use distclass::runtime::frame::{
    decode_frame, encode_frame, stamp_times, Frame, FrameError, FrameKind, HEADER_LEN, MAGIC,
    VERSION,
};
use proptest::prelude::*;

/// Every kind, indexed by its wire byte.
const KINDS: [FrameKind; 6] = [
    FrameKind::Data,
    FrameKind::Ack,
    FrameKind::AuditProbe,
    FrameKind::AuditReply,
    FrameKind::Join,
    FrameKind::Handoff,
];

/// What `decode_frame` must return for `buf`, read straight off the
/// layout in the frame module's docs.
fn expected(buf: &[u8]) -> Result<Frame<'_>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            needed: HEADER_LEN - buf.len(),
        });
    }
    if buf[0] != MAGIC {
        return Err(FrameError::BadMagic { found: buf[0] });
    }
    if buf[1] != VERSION {
        return Err(FrameError::BadVersion { found: buf[1] });
    }
    let kind = *KINDS
        .get(usize::from(buf[2]))
        .ok_or(FrameError::BadKind { found: buf[2] })?;
    let be = |at: usize, len: usize| {
        buf[at..at + len]
            .iter()
            .fold(0u64, |acc, &b| acc << 8 | u64::from(b))
    };
    let (declared, payload) = (be(39, 4) as usize, &buf[HEADER_LEN..]);
    if declared != payload.len() {
        return Err(FrameError::LengthMismatch {
            declared,
            actual: payload.len(),
        });
    }
    Ok(Frame {
        kind,
        sender: be(3, 2) as u16,
        incarnation: be(5, 2) as u16,
        seq: be(7, 8),
        lamport: be(15, 8),
        enqueue_us: be(23, 8),
        sent_us: be(31, 8),
        payload,
    })
}

prop_compose! {
    /// A `u64` from the edges (zero, the maximum, a small value) as often
    /// as from the whole range.
    fn wide()(pick in 0u8..4, x in 0..=u64::MAX) -> u64 {
        match pick {
            0 => 0,
            1 => u64::MAX,
            2 => x % 256,
            _ => x,
        }
    }
}

prop_compose! {
    /// An encoded frame of any kind with any header values and payload,
    /// stamped, and the payload it carries.
    fn stamped()(
        kind in 0usize..KINDS.len(),
        ids in (0..=u16::MAX, 0..=u16::MAX),
        clocks in (wide(), wide(), wide(), wide()),
        payload in collection::vec(0..=u8::MAX, 0..200),
    ) -> (Vec<u8>, FrameKind, (u16, u16), (u64, u64, u64, u64), Vec<u8>) {
        let (seq, lamport, enqueue_us, sent_us) = clocks;
        let mut buf = encode_frame(KINDS[kind], ids.0, ids.1, seq, lamport, &payload);
        stamp_times(&mut buf, enqueue_us, sent_us);
        (buf, KINDS[kind], ids, clocks, payload)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Any bytes decode to what the layout says, a frame or a typed error.
    /// Random bytes rarely get past the magic byte, so `shape` writes a
    /// valid magic and version (1), then a kind byte that may be unknown
    /// (2), then a declared length equal to the bytes present (3).
    #[test]
    fn any_bytes_decode_to_what_the_layout_says(bytes in collection::vec(0..=u8::MAX, 0..96), shape in 0u8..4, kind in 0u8..8) {
        let mut buf = bytes;
        if shape >= 1 && buf.len() >= 2 {
            buf[0] = MAGIC;
            buf[1] = VERSION;
        }
        if shape >= 2 && buf.len() >= 3 {
            buf[2] = kind;
        }
        if shape == 3 && buf.len() >= HEADER_LEN {
            let declared = (buf.len() - HEADER_LEN) as u32;
            buf[39..HEADER_LEN].copy_from_slice(&declared.to_be_bytes());
        }
        prop_assert_eq!(decode_frame(&buf), expected(&buf));
    }

    /// A stamped frame decodes field for field to what was encoded.
    #[test]
    fn encoded_and_stamped_frames_round_trip(frame in stamped()) {
        let (buf, kind, (sender, incarnation), (seq, lamport, enqueue_us, sent_us), payload) = frame;
        prop_assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let want = Frame {
            kind,
            sender,
            incarnation,
            seq,
            lamport,
            enqueue_us,
            sent_us,
            payload: &payload,
        };
        prop_assert_eq!(decode_frame(&buf), Ok(want));
    }

    /// A frame cut short is missing exactly the header bytes cut, or has
    /// fewer payload bytes than its header declares. One with bytes
    /// appended has more: trailing bytes are an error, not padding.
    #[test]
    fn cut_and_padded_frames_report_their_length(frame in stamped(), cut in 0usize..1024, pad in collection::vec(0..=u8::MAX, 1..8)) {
        let (buf, _, _, _, payload) = frame;
        let cut = cut % buf.len();
        let want = if cut < HEADER_LEN {
            FrameError::Truncated { needed: HEADER_LEN - cut }
        } else {
            FrameError::LengthMismatch { declared: payload.len(), actual: cut - HEADER_LEN }
        };
        prop_assert_eq!(decode_frame(&buf[..cut]), Err(want));
        let padded = [buf.as_slice(), &pad].concat();
        let want = FrameError::LengthMismatch { declared: payload.len(), actual: payload.len() + pad.len() };
        prop_assert_eq!(decode_frame(&padded), Err(want));
    }
}

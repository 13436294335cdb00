//! Frame construction and header parsing for both media.
//!
//! The packet filter deals in *complete* packets: "the user presents a
//! buffer containing a complete packet, including data-link header" (§3),
//! and received packets are returned "including the data-link layer
//! header". So frames here are plain byte vectors; this module provides
//! the header encode/decode for each [`MediumKind`].

use crate::medium::{Medium, MediumKind};

/// Errors constructing or parsing frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is shorter than the medium's data-link header.
    TooShort {
        /// Actual length in bytes.
        len: usize,
        /// Required minimum (the header length).
        need: usize,
    },
    /// The frame exceeds the medium's maximum packet size.
    TooLong {
        /// Actual length in bytes.
        len: usize,
        /// The medium's maximum.
        max: usize,
    },
    /// An address does not fit the medium's address width.
    BadAddress {
        /// The offending address value.
        addr: u64,
    },
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::TooShort { len, need } => {
                write!(f, "frame of {len} bytes shorter than {need}-byte header")
            }
            FrameError::TooLong { len, max } => {
                write!(f, "frame of {len} bytes exceeds medium maximum {max}")
            }
            FrameError::BadAddress { addr } => {
                write!(
                    f,
                    "address {addr:#x} does not fit the medium's address width"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Decoded data-link header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Destination link address.
    pub dst: u64,
    /// Source link address.
    pub src: u64,
    /// The Ethernet type field.
    pub ethertype: u16,
}

/// What [`build`] demands of a frame of `len` bytes between `src` and
/// `dst`: both addresses fit the medium's width, and the frame its
/// maximum packet size.
fn check(medium: &Medium, dst: u64, src: u64, len: usize) -> Result<(), FrameError> {
    let addr_bits = medium.addr_len * 8;
    let fits = |a: u64| addr_bits >= 64 || a < (1u64 << addr_bits);
    if !fits(dst) {
        return Err(FrameError::BadAddress { addr: dst });
    }
    if !fits(src) {
        return Err(FrameError::BadAddress { addr: src });
    }
    if len > medium.max_packet {
        return Err(FrameError::TooLong {
            len,
            max: medium.max_packet,
        });
    }
    Ok(())
}

/// Builds a complete frame: header followed by `payload`.
///
/// # Errors
///
/// Returns [`FrameError::BadAddress`] if an address does not fit the
/// medium, or [`FrameError::TooLong`] if the frame would exceed its maximum
/// packet size.
pub fn build(
    medium: &Medium,
    dst: u64,
    src: u64,
    ethertype: u16,
    payload: &[u8],
) -> Result<Vec<u8>, FrameError> {
    build_with(medium, dst, src, ethertype, payload.len(), |f| {
        f.extend(payload)
    })
}

/// Builds a complete frame in one buffer: writes the header, lets `body`
/// append the payload after it, then makes [`build`]'s checks on the
/// whole. `body_len` is what `body` is expected to append, reserved up
/// front so that the buffer is allocated once.
///
/// # Errors
///
/// Exactly [`build`]'s, for the frame `body` wrote.
pub fn build_with(
    medium: &Medium,
    dst: u64,
    src: u64,
    ethertype: u16,
    body_len: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> Result<Vec<u8>, FrameError> {
    let mut f = Vec::with_capacity(medium.header_len + body_len);
    match medium.kind {
        MediumKind::Experimental3Mb => {
            f.push(dst as u8);
            f.push(src as u8);
        }
        MediumKind::Standard10Mb => {
            f.extend_from_slice(&dst.to_be_bytes()[2..8]);
            f.extend_from_slice(&src.to_be_bytes()[2..8]);
        }
    }
    f.extend_from_slice(&ethertype.to_be_bytes());
    body(&mut f);
    check(medium, dst, src, f.len())?;
    Ok(f)
}

/// Overwrites the link addresses of a complete frame where they stand,
/// leaving type and payload alone: what a store-and-forward hop does to a
/// frame it re-emits on a medium of the same encapsulation.
///
/// # Errors
///
/// Exactly [`build`]'s, for a frame of this length between these
/// addresses, plus [`FrameError::TooShort`] if the frame cannot hold the
/// header. The frame is untouched on error.
pub fn readdress(medium: &Medium, frame: &mut [u8], dst: u64, src: u64) -> Result<(), FrameError> {
    payload(medium, frame)?;
    check(medium, dst, src, frame.len())?;
    match medium.kind {
        MediumKind::Experimental3Mb => {
            frame[0] = dst as u8;
            frame[1] = src as u8;
        }
        MediumKind::Standard10Mb => {
            frame[0..6].copy_from_slice(&dst.to_be_bytes()[2..8]);
            frame[6..12].copy_from_slice(&src.to_be_bytes()[2..8]);
        }
    }
    Ok(())
}

/// Parses a frame's data-link header.
///
/// # Errors
///
/// Returns [`FrameError::TooShort`] if the frame cannot hold the header.
pub fn parse(medium: &Medium, frame: &[u8]) -> Result<Header, FrameError> {
    if frame.len() < medium.header_len {
        return Err(FrameError::TooShort {
            len: frame.len(),
            need: medium.header_len,
        });
    }
    Ok(match medium.kind {
        MediumKind::Experimental3Mb => Header {
            dst: u64::from(frame[0]),
            src: u64::from(frame[1]),
            ethertype: u16::from_be_bytes([frame[2], frame[3]]),
        },
        MediumKind::Standard10Mb => {
            let mut dst = [0u8; 8];
            dst[2..8].copy_from_slice(&frame[0..6]);
            let mut src = [0u8; 8];
            src[2..8].copy_from_slice(&frame[6..12]);
            Header {
                dst: u64::from_be_bytes(dst),
                src: u64::from_be_bytes(src),
                ethertype: u16::from_be_bytes([frame[12], frame[13]]),
            }
        }
    })
}

/// Pads a frame in place with zero bytes to `total_len`, clamped to the
/// medium's maximum packet size; frames already that long are unchanged.
/// Returns how many bytes were appended.
///
/// The data-link header and every existing word are untouched, so
/// word-offset filters demultiplex the padded frame identically — which
/// is exactly why padding alone does not evade them; only
/// length-sensitive consumers (and per-byte costs) see the difference.
/// Adversarial traffic shaping pads to probe both.
pub fn pad(medium: &Medium, frame: &mut Vec<u8>, total_len: usize) -> usize {
    let target = total_len.min(medium.max_packet).max(frame.len());
    let added = target - frame.len();
    frame.resize(target, 0);
    added
}

/// The payload portion of a frame (after the data-link header).
///
/// # Errors
///
/// Returns [`FrameError::TooShort`] if the frame cannot hold the header.
pub fn payload<'a>(medium: &Medium, frame: &'a [u8]) -> Result<&'a [u8], FrameError> {
    if frame.len() < medium.header_len {
        return Err(FrameError::TooShort {
            len: frame.len(),
            need: medium.header_len,
        });
    }
    Ok(&frame[medium.header_len..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_3mb() {
        let m = Medium::experimental_3mb();
        let f = build(&m, 0x0B, 0x0C, 2, &[1, 2, 3]).unwrap();
        assert_eq!(f.len(), 7);
        let h = parse(&m, &f).unwrap();
        assert_eq!(
            h,
            Header {
                dst: 0x0B,
                src: 0x0C,
                ethertype: 2
            }
        );
        assert_eq!(payload(&m, &f).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn padding_grows_payload_without_touching_the_header() {
        let m = Medium::experimental_3mb();
        let mut f = build(&m, 0x0B, 0x0C, 2, &[1, 2, 3]).unwrap();
        let h = parse(&m, &f).unwrap();
        assert_eq!(pad(&m, &mut f, 64), 57);
        assert_eq!(f.len(), 64);
        assert_eq!(parse(&m, &f).unwrap(), h, "header survives padding");
        let p = payload(&m, &f).unwrap();
        assert_eq!(&p[..3], &[1, 2, 3]);
        assert!(p[3..].iter().all(|&b| b == 0));
        // Already long enough: no-op. Over the MTU: clamped.
        assert_eq!(pad(&m, &mut f, 10), 0);
        assert_eq!(f.len(), 64);
        pad(&m, &mut f, usize::MAX);
        assert_eq!(f.len(), m.max_packet);
    }

    #[test]
    fn round_trip_10mb() {
        let m = Medium::standard_10mb();
        let f = build(&m, 0xAABBCCDDEEFF, 0x010203040506, 0x0800, &[9; 10]).unwrap();
        assert_eq!(f.len(), 24);
        let h = parse(&m, &f).unwrap();
        assert_eq!(h.dst, 0xAABBCCDDEEFF);
        assert_eq!(h.src, 0x010203040506);
        assert_eq!(h.ethertype, 0x0800);
    }

    #[test]
    fn address_width_enforced() {
        let m = Medium::experimental_3mb();
        assert!(matches!(
            build(&m, 0x100, 1, 2, &[]),
            Err(FrameError::BadAddress { addr: 0x100 })
        ));
        assert!(matches!(
            build(&m, 1, 0x1FF, 2, &[]),
            Err(FrameError::BadAddress { .. })
        ));
    }

    #[test]
    fn max_packet_enforced() {
        let m = Medium::experimental_3mb();
        let too_big = vec![0u8; m.max_packet]; // + 4-byte header exceeds
        assert!(matches!(
            build(&m, 1, 2, 2, &too_big),
            Err(FrameError::TooLong { .. })
        ));
        let ok = vec![0u8; m.max_packet - m.header_len];
        assert!(build(&m, 1, 2, 2, &ok).is_ok());
    }

    #[test]
    fn short_frame_rejected() {
        let m = Medium::standard_10mb();
        assert!(matches!(
            parse(&m, &[0; 13]),
            Err(FrameError::TooShort { .. })
        ));
        assert!(matches!(
            payload(&m, &[0; 5]),
            Err(FrameError::TooShort { .. })
        ));
    }

    #[test]
    fn readdress_is_build_with_other_addresses_and_the_same_refusals() {
        for m in [Medium::experimental_3mb(), Medium::standard_10mb()] {
            let mut f = build(&m, 0x0B, 0x0C, 0x0800, &[1, 2, 3]).unwrap();
            readdress(&m, &mut f, 0x21, 0x22).unwrap();
            assert_eq!(f, build(&m, 0x21, 0x22, 0x0800, &[1, 2, 3]).unwrap());
            let before = f.clone();
            let wide = 1u64 << (m.addr_len * 8);
            for (dst, src) in [(wide, 1), (1, wide)] {
                assert_eq!(
                    readdress(&m, &mut f, dst, src),
                    build(&m, dst, src, 0x0800, &[1, 2, 3]).map(drop)
                );
            }
            let mut long = vec![0u8; m.max_packet + 1];
            assert!(matches!(
                readdress(&m, &mut long, 1, 2),
                Err(FrameError::TooLong { .. })
            ));
            let mut runt = vec![0u8; m.header_len - 1];
            assert!(matches!(
                readdress(&m, &mut runt, 1, 2),
                Err(FrameError::TooShort { .. })
            ));
            assert_eq!(f, before, "a refused frame is untouched");
        }
    }

    #[test]
    fn a_written_body_is_a_built_payload_in_one_buffer() {
        for m in [Medium::experimental_3mb(), Medium::standard_10mb()] {
            let f = build_with(&m, 0x0B, 0x0C, 0x0800, 3, |f| {
                f.extend_from_slice(&[1, 2]);
                f.push(3);
            })
            .unwrap();
            assert_eq!(f, build(&m, 0x0B, 0x0C, 0x0800, &[1, 2, 3]).unwrap());
            assert_eq!(f.capacity(), f.len(), "reserved once, exactly");
            let long = m.max_packet - m.header_len + 1;
            let wide = 1u64 << (m.addr_len * 8);
            for (dst, len) in [(1, long), (wide, 3)] {
                assert_eq!(
                    build_with(&m, dst, 2, 2, len, |f| f.resize(f.len() + len, 0)),
                    build(&m, dst, 2, 2, &vec![0; len])
                );
            }
        }
    }

    #[test]
    fn header_layout_matches_fig_3_7() {
        // On the 3 Mb Ethernet the type is the second 16-bit word.
        let m = Medium::experimental_3mb();
        let f = build(&m, 1, 2, 0x0002, &[0xAA]).unwrap();
        assert_eq!(u16::from_be_bytes([f[2], f[3]]), 2);
    }
}

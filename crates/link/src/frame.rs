//! The on-wire command protocol for code offload and data exchange.
//!
//! ## Wire format
//!
//! Every frame occupies `10 + payload` bytes:
//!
//! ```text
//! offset  size  field
//! 0       1     low nibble: command · high nibble: sequence number (mod 16)
//! 1       4     u32 LE: address (entry point for SetEntry, 0 for Ack/Nack)
//! 5       3     u24 LE: payload length (Write) or read length (Read)
//! 8       n     payload (Write only)
//! 8+n     2     CRC-16/CCITT-FALSE over bytes 0..8+n, big-endian
//! ```
//!
//! The 10-byte overhead is **identical** to the original
//! `cmd(1) addr(4) len(4) checksum(1)` framing: the sequence number rides
//! in the unused high nibble of the command byte and the length field
//! gives up its (never exercised) top byte to the second CRC byte. Every
//! transfer-cost figure in the evaluation is therefore unchanged by the
//! integrity upgrade.
//!
//! ## Reliability
//!
//! [`Frame::Ack`]/[`Frame::Nack`] close the loop: the receiver answers
//! every data frame with an ACK (CRC good) or NACK (CRC bad, truncated)
//! echoing the sequence number. Because SPI is full duplex, the ACK of
//! frame *n* shifts out during the command/turnaround phase of frame
//! *n + 1* — the protocol overhead bits the timing model already charges —
//! so acknowledgements cost **zero additional link time**. Only NACK-driven
//! *retransmissions* cost extra, and those are charged by the offload
//! runtime (`ulp-offload`) as resilience overhead. Sequence numbers let
//! the receiver discard duplicates when an ACK (rather than the data
//! frame) was lost.

use std::error::Error;
use std::fmt;

use crate::crc::crc16;

/// Largest payload a frame can carry (24-bit length field; the accelerator
/// memory window itself is only 16 MiB).
pub const MAX_PAYLOAD: usize = 0x00FF_FFFF;

/// Per-frame wire overhead: 8 header bytes + 2 CRC bytes.
pub const FRAME_OVERHEAD: usize = 10;

/// Most frames a sender may have unacknowledged at once: half the 4-bit
/// sequence space, the selective-repeat bound beyond which a
/// retransmitted frame is indistinguishable from a new one. The pipelined
/// offload engine clamps its staging ring to it.
pub const MAX_WINDOW: usize = 8;

const CMD_WRITE: u8 = 0x1;
const CMD_READ: u8 = 0x2;
const CMD_SET_ENTRY: u8 = 0x3;
const CMD_ACK: u8 = 0x4;
const CMD_NACK: u8 = 0x5;

/// Commands of the offload wire protocol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Frame {
    /// Write a block (binary or input data) into accelerator memory.
    Write {
        /// Destination address in the accelerator address space.
        addr: u32,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// Read a block (results) from accelerator memory.
    Read {
        /// Source address in the accelerator address space.
        addr: u32,
        /// Number of bytes to read.
        len: u32,
    },
    /// Set the accelerator entry point (boot address register).
    SetEntry {
        /// Entry address of the offloaded binary.
        entry: u32,
    },
    /// Receiver acknowledgement: the frame with this sequence number
    /// arrived with a good CRC.
    Ack {
        /// Sequence number being acknowledged.
        seq: u8,
    },
    /// Receiver negative acknowledgement: the frame with this sequence
    /// number failed its CRC (or arrived truncated) — retransmit.
    Nack {
        /// Sequence number being rejected.
        seq: u8,
    },
}

/// Error produced when parsing a wire frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The buffer is shorter than a frame header.
    Truncated,
    /// Unknown command nibble.
    BadCommand(u8),
    /// Payload length field disagrees with the buffer.
    BadLength {
        /// Length claimed by the header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// CRC-16 mismatch.
    BadChecksum,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("frame truncated"),
            FrameError::BadCommand(c) => write!(f, "unknown command nibble {c:#03x}"),
            FrameError::BadLength { expected, actual } => {
                write!(
                    f,
                    "length mismatch: header says {expected}, buffer has {actual}"
                )
            }
            FrameError::BadChecksum => f.write_str("CRC-16 mismatch"),
        }
    }
}

impl Error for FrameError {}

impl Frame {
    /// Serializes the frame with sequence number 0.
    ///
    /// # Panics
    ///
    /// Panics if a `Write` payload or `Read` length exceeds
    /// [`MAX_PAYLOAD`] (the accelerator memory window is smaller than
    /// that, so hitting this is a programming error).
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        self.to_wire_seq(0)
    }

    /// Serializes the frame carrying the given sequence number (taken
    /// modulo 16 — the field is 4 bits wide).
    ///
    /// # Panics
    ///
    /// Panics if a `Write` payload or `Read` length exceeds
    /// [`MAX_PAYLOAD`].
    #[must_use]
    pub fn to_wire_seq(&self, seq: u8) -> Vec<u8> {
        let (cmd, addr, len, payload): (u8, u32, usize, &[u8]) = match self {
            Frame::Write { addr, data } => {
                assert!(
                    data.len() <= MAX_PAYLOAD,
                    "Write payload exceeds 24-bit length field"
                );
                (CMD_WRITE, *addr, data.len(), data)
            }
            Frame::Read { addr, len } => {
                assert!(
                    (*len as usize) <= MAX_PAYLOAD,
                    "Read length exceeds 24-bit length field"
                );
                (CMD_READ, *addr, *len as usize, &[])
            }
            Frame::SetEntry { entry } => (CMD_SET_ENTRY, *entry, 0, &[]),
            Frame::Ack { seq: s } => (CMD_ACK, u32::from(*s), 0, &[]),
            Frame::Nack { seq: s } => (CMD_NACK, u32::from(*s), 0, &[]),
        };
        let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        out.push(cmd | (seq & 0x0F) << 4);
        out.extend_from_slice(&addr.to_le_bytes());
        out.extend_from_slice(&(len as u32).to_le_bytes()[..3]);
        out.extend_from_slice(payload);
        let crc = crc16(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Parses a frame from wire bytes, discarding the sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on malformed input. Never panics and never
    /// allocates more than the input buffer holds, whatever the bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<Frame, FrameError> {
        Self::from_wire_seq(bytes).map(|(_, frame)| frame)
    }

    /// Parses a frame and its sequence number from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on malformed input.
    pub fn from_wire_seq(bytes: &[u8]) -> Result<(u8, Frame), FrameError> {
        if bytes.len() < FRAME_OVERHEAD {
            return Err(FrameError::Truncated);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 2);
        if crc16(body) != u16::from_be_bytes([crc_bytes[0], crc_bytes[1]]) {
            return Err(FrameError::BadChecksum);
        }
        let cmd = body[0] & 0x0F;
        let seq = body[0] >> 4;
        let addr = u32::from_le_bytes([body[1], body[2], body[3], body[4]]);
        let len = usize::from(body[5]) | usize::from(body[6]) << 8 | usize::from(body[7]) << 16;
        let payload = &body[8..];
        match cmd {
            CMD_WRITE => {
                if payload.len() != len {
                    return Err(FrameError::BadLength {
                        expected: len,
                        actual: payload.len(),
                    });
                }
                Ok((
                    seq,
                    Frame::Write {
                        addr,
                        data: payload.to_vec(),
                    },
                ))
            }
            CMD_READ | CMD_SET_ENTRY | CMD_ACK | CMD_NACK => {
                if !payload.is_empty() {
                    return Err(FrameError::BadLength {
                        expected: 0,
                        actual: payload.len(),
                    });
                }
                let frame = match cmd {
                    CMD_READ => Frame::Read {
                        addr,
                        len: len as u32,
                    },
                    CMD_SET_ENTRY => Frame::SetEntry { entry: addr },
                    CMD_ACK => Frame::Ack {
                        seq: (addr & 0x0F) as u8,
                    },
                    _ => Frame::Nack {
                        seq: (addr & 0x0F) as u8,
                    },
                };
                Ok((seq, frame))
            }
            other => Err(FrameError::BadCommand(other)),
        }
    }

    /// Bytes this frame occupies on the wire.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        match self {
            Frame::Write { data, .. } => FRAME_OVERHEAD + data.len(),
            _ => FRAME_OVERHEAD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_write() {
        let f = Frame::Write {
            addr: 0x1000_0000,
            data: vec![1, 2, 3, 4, 5],
        };
        let wire = f.to_wire();
        assert_eq!(wire.len(), f.wire_bytes());
        assert_eq!(Frame::from_wire(&wire).unwrap(), f);
    }

    #[test]
    fn frame_roundtrip_all_commands() {
        for f in [
            Frame::Read {
                addr: 0x1C00_0000,
                len: 4096,
            },
            Frame::SetEntry { entry: 0x1C00_0100 },
            Frame::Ack { seq: 7 },
            Frame::Nack { seq: 15 },
        ] {
            let wire = f.to_wire();
            assert_eq!(wire.len(), f.wire_bytes());
            assert_eq!(Frame::from_wire(&wire).unwrap(), f);
        }
    }

    #[test]
    fn sequence_number_survives_the_roundtrip() {
        let f = Frame::Write {
            addr: 0x10,
            data: vec![0xAB; 8],
        };
        for seq in 0..16u8 {
            let wire = f.to_wire_seq(seq);
            let (got, frame) = Frame::from_wire_seq(&wire).unwrap();
            assert_eq!(got, seq);
            assert_eq!(frame, f);
        }
        // Sequence numbers wrap at 16.
        assert_eq!(f.to_wire_seq(16), f.to_wire_seq(0));
    }

    #[test]
    fn overhead_is_ten_bytes_like_the_legacy_format() {
        assert_eq!(FRAME_OVERHEAD, 10);
        assert_eq!(Frame::Read { addr: 0, len: 1 }.to_wire().len(), 10);
        assert_eq!(
            Frame::Write {
                addr: 0,
                data: vec![0; 5]
            }
            .to_wire()
            .len(),
            15
        );
    }

    #[test]
    fn corrupted_frame_detected() {
        let f = Frame::Write {
            addr: 0x10,
            data: vec![9; 16],
        };
        for byte in 0..f.wire_bytes() {
            let mut wire = f.to_wire();
            wire[byte] ^= 0x40;
            assert_eq!(
                Frame::from_wire(&wire),
                Err(FrameError::BadChecksum),
                "byte {byte}"
            );
        }
    }

    #[test]
    fn truncated_and_bad_command_detected() {
        assert_eq!(Frame::from_wire(&[1, 2, 3]), Err(FrameError::Truncated));
        assert_eq!(Frame::from_wire(&[]), Err(FrameError::Truncated));
        // A well-formed CRC over an unknown command nibble.
        let mut bogus = vec![0x0Fu8, 0, 0, 0, 0, 0, 0, 0];
        let crc = crc16(&bogus);
        bogus.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(Frame::from_wire(&bogus), Err(FrameError::BadCommand(0x0F)));
    }

    #[test]
    fn length_field_lies_detected() {
        let f = Frame::Write {
            addr: 0,
            data: vec![1, 2, 3],
        };
        let mut wire = f.to_wire();
        // Claim 4 bytes but carry 3, with a recomputed (valid) CRC.
        wire[5] = 4;
        let body_end = wire.len() - 2;
        let crc = crc16(&wire[..body_end]);
        wire[body_end..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            Frame::from_wire(&wire),
            Err(FrameError::BadLength {
                expected: 4,
                actual: 3
            })
        );
    }

    #[test]
    fn trailing_garbage_on_payloadless_frames_detected() {
        let mut wire = Frame::Ack { seq: 3 }.to_wire();
        wire.truncate(8);
        wire.push(0xEE);
        let crc = crc16(&wire);
        wire.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(
            Frame::from_wire(&wire),
            Err(FrameError::BadLength {
                expected: 0,
                actual: 1
            })
        );
    }

    #[test]
    fn errors_display_and_compose() {
        let err: Box<dyn std::error::Error> = Box::new(Frame::from_wire(&[0u8; 3]).unwrap_err());
        assert_eq!(err.to_string(), "frame truncated");
        fn parse(bytes: &[u8]) -> Result<Frame, Box<dyn std::error::Error>> {
            Ok(Frame::from_wire(bytes)?)
        }
        assert!(parse(&[0u8; 12]).is_err());
    }
}

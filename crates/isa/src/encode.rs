//! Binary encoding and decoding of UIR instructions.
//!
//! Every instruction encodes to one 32-bit little-endian word. The opcode
//! occupies bits `[31:24]`; remaining fields depend on the format:
//!
//! | format | fields |
//! |---|---|
//! | R (ALU)      | `rd[23:19] ra[18:14] rb[13:9]` |
//! | R4 (mull)    | `rd_hi[23:19] ra[18:14] rb[13:9] rd_lo[8:4] signed[0]` |
//! | I (imm)      | `rd[23:19] ra[18:14] imm14[13:0]` |
//! | SH (shift)   | `rd[23:19] ra[18:14] sh[13:9]` |
//! | U (lui)      | `rd[23:19] imm18[17:0]` |
//! | B (branch)   | `ra[23:19] rb[18:14] off14[13:0]` (word offset) |
//! | J (jal)      | `rd[23:19] off19[18:0]` (word offset) |
//! | L (lp.setup) | `idx[23] count[18:14] off14[13:0]` (word offset) |
//!
//! Binary size reported in the paper's Table I is the byte length of this
//! encoding plus read-only data, and is also what travels over the SPI link
//! during a code offload.

use std::error::Error;
use std::fmt;

use crate::insn::{Csr, Insn, MemSize};
use crate::reg::Reg;

/// Error produced when an instruction's operands do not fit its encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EncodeError {
    /// An immediate or offset does not fit the field width.
    ImmOutOfRange {
        /// Value that failed to fit.
        value: i64,
        /// Field width in bits (after any word-offset scaling).
        bits: u8,
        /// Whether the field is signed.
        signed: bool,
    },
    /// A branch/jump/loop offset is not a multiple of 4.
    MisalignedOffset {
        /// Offending byte offset.
        offset: i32,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange {
                value,
                bits,
                signed,
            } => write!(
                f,
                "immediate {value} does not fit {} {bits}-bit field",
                if *signed { "signed" } else { "unsigned" }
            ),
            EncodeError::MisalignedOffset { offset } => {
                write!(f, "control-flow offset {offset} is not a multiple of 4")
            }
        }
    }
}

impl Error for EncodeError {}

/// Error produced when a word does not decode to a valid instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// The undecodable word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.word)
    }
}

impl Error for DecodeError {}

// Opcode space. Grouped by format for legibility.
mod op {
    pub const ADD: u8 = 0x01;
    pub const SUB: u8 = 0x02;
    pub const AND: u8 = 0x03;
    pub const OR: u8 = 0x04;
    pub const XOR: u8 = 0x05;
    pub const SLL: u8 = 0x06;
    pub const SRL: u8 = 0x07;
    pub const SRA: u8 = 0x08;
    pub const SLT: u8 = 0x09;
    pub const SLTU: u8 = 0x0A;
    pub const MIN: u8 = 0x0B;
    pub const MAX: u8 = 0x0C;
    pub const MUL: u8 = 0x0D;
    pub const DIV: u8 = 0x0E;
    pub const DIVU: u8 = 0x0F;
    pub const MAC: u8 = 0x10;
    pub const MULL: u8 = 0x11;
    pub const MLAL: u8 = 0x12;
    pub const SDOTV4: u8 = 0x13;
    pub const SDOTV2: u8 = 0x14;
    pub const ADDV4: u8 = 0x15;
    pub const ADDV2: u8 = 0x16;
    pub const SUBV4: u8 = 0x17;
    pub const SUBV2: u8 = 0x18;

    pub const ADDI: u8 = 0x20;
    pub const ANDI: u8 = 0x21;
    pub const ORI: u8 = 0x22;
    pub const XORI: u8 = 0x23;
    pub const SLLI: u8 = 0x24;
    pub const SRLI: u8 = 0x25;
    pub const SRAI: u8 = 0x26;
    pub const LUI: u8 = 0x27;

    pub const LB: u8 = 0x30;
    pub const LBU: u8 = 0x31;
    pub const LH: u8 = 0x32;
    pub const LHU: u8 = 0x33;
    pub const LW: u8 = 0x34;
    pub const SB: u8 = 0x35;
    pub const SH: u8 = 0x36;
    pub const SW: u8 = 0x37;
    pub const LB_PI: u8 = 0x38;
    pub const LBU_PI: u8 = 0x39;
    pub const LH_PI: u8 = 0x3A;
    pub const LHU_PI: u8 = 0x3B;
    pub const LW_PI: u8 = 0x3C;
    pub const SB_PI: u8 = 0x3D;
    pub const SH_PI: u8 = 0x3E;
    pub const SW_PI: u8 = 0x3F;
    pub const TAS: u8 = 0x40;

    pub const BEQ: u8 = 0x50;
    pub const BNE: u8 = 0x51;
    pub const BLT: u8 = 0x52;
    pub const BGE: u8 = 0x53;
    pub const BLTU: u8 = 0x54;
    pub const BGEU: u8 = 0x55;
    pub const JAL: u8 = 0x56;
    pub const JALR: u8 = 0x57;
    pub const LP_SETUP: u8 = 0x58;

    pub const CSRR: u8 = 0x60;
    pub const NOP: u8 = 0x61;
    pub const HALT: u8 = 0x62;
    pub const WFE: u8 = 0x63;
    pub const SEV: u8 = 0x64;
    pub const BARRIER: u8 = 0x65;
}

fn fit_signed(value: i64, bits: u8) -> Result<u32, EncodeError> {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    if value < min || value > max {
        return Err(EncodeError::ImmOutOfRange {
            value,
            bits,
            signed: true,
        });
    }
    Ok((value as u32) & ((1u32 << bits) - 1))
}

fn fit_unsigned(value: u32, bits: u8) -> Result<u32, EncodeError> {
    if u64::from(value) >= (1u64 << bits) {
        return Err(EncodeError::ImmOutOfRange {
            value: i64::from(value),
            bits,
            signed: false,
        });
    }
    Ok(value)
}

fn word_offset(offset: i32, bits: u8) -> Result<u32, EncodeError> {
    if offset % 4 != 0 {
        return Err(EncodeError::MisalignedOffset { offset });
    }
    fit_signed(i64::from(offset / 4), bits)
}

fn r(op: u8, rd: Reg, ra: Reg, rb: Reg) -> u32 {
    (u32::from(op) << 24)
        | (u32::from(rd.index()) << 19)
        | (u32::from(ra.index()) << 14)
        | (u32::from(rb.index()) << 9)
}

fn i_signed(op: u8, rd: Reg, ra: Reg, imm: i16) -> Result<u32, EncodeError> {
    let field = fit_signed(i64::from(imm), 14)?;
    Ok((u32::from(op) << 24)
        | (u32::from(rd.index()) << 19)
        | (u32::from(ra.index()) << 14)
        | field)
}

fn i_unsigned(op: u8, rd: Reg, ra: Reg, imm: u16) -> Result<u32, EncodeError> {
    let field = fit_unsigned(u32::from(imm), 14)?;
    Ok((u32::from(op) << 24)
        | (u32::from(rd.index()) << 19)
        | (u32::from(ra.index()) << 14)
        | field)
}

fn sh(op: u8, rd: Reg, ra: Reg, amount: u8) -> Result<u32, EncodeError> {
    let field = fit_unsigned(u32::from(amount), 5)?;
    Ok((u32::from(op) << 24)
        | (u32::from(rd.index()) << 19)
        | (u32::from(ra.index()) << 14)
        | (field << 9))
}

fn branch(op: u8, ra: Reg, rb: Reg, offset: i32) -> Result<u32, EncodeError> {
    let field = word_offset(offset, 14)?;
    Ok((u32::from(op) << 24)
        | (u32::from(ra.index()) << 19)
        | (u32::from(rb.index()) << 14)
        | field)
}

/// Encodes one instruction into its 32-bit word.
///
/// # Errors
///
/// Returns [`EncodeError`] when an immediate or offset does not fit its
/// field, or when a control-flow offset is not word-aligned.
pub fn encode(insn: &Insn) -> Result<u32, EncodeError> {
    use Insn::*;
    Ok(match *insn {
        Add(d, a, b) => r(op::ADD, d, a, b),
        Sub(d, a, b) => r(op::SUB, d, a, b),
        And(d, a, b) => r(op::AND, d, a, b),
        Or(d, a, b) => r(op::OR, d, a, b),
        Xor(d, a, b) => r(op::XOR, d, a, b),
        Sll(d, a, b) => r(op::SLL, d, a, b),
        Srl(d, a, b) => r(op::SRL, d, a, b),
        Sra(d, a, b) => r(op::SRA, d, a, b),
        Slt(d, a, b) => r(op::SLT, d, a, b),
        Sltu(d, a, b) => r(op::SLTU, d, a, b),
        Min(d, a, b) => r(op::MIN, d, a, b),
        Max(d, a, b) => r(op::MAX, d, a, b),
        Mul(d, a, b) => r(op::MUL, d, a, b),
        Div(d, a, b) => r(op::DIV, d, a, b),
        Divu(d, a, b) => r(op::DIVU, d, a, b),
        Mac(d, a, b) => r(op::MAC, d, a, b),
        Mull {
            rd_hi,
            rd_lo,
            ra,
            rb,
            signed,
        } => r(op::MULL, rd_hi, ra, rb) | (u32::from(rd_lo.index()) << 4) | u32::from(signed),
        Mlal {
            rd_hi,
            rd_lo,
            ra,
            rb,
            signed,
        } => r(op::MLAL, rd_hi, ra, rb) | (u32::from(rd_lo.index()) << 4) | u32::from(signed),
        SdotV4(d, a, b) => r(op::SDOTV4, d, a, b),
        SdotV2(d, a, b) => r(op::SDOTV2, d, a, b),
        AddV4(d, a, b) => r(op::ADDV4, d, a, b),
        AddV2(d, a, b) => r(op::ADDV2, d, a, b),
        SubV4(d, a, b) => r(op::SUBV4, d, a, b),
        SubV2(d, a, b) => r(op::SUBV2, d, a, b),
        Addi(d, a, imm) => i_signed(op::ADDI, d, a, imm)?,
        Andi(d, a, imm) => i_unsigned(op::ANDI, d, a, imm)?,
        Ori(d, a, imm) => i_unsigned(op::ORI, d, a, imm)?,
        Xori(d, a, imm) => i_unsigned(op::XORI, d, a, imm)?,
        Slli(d, a, s) => sh(op::SLLI, d, a, s)?,
        Srli(d, a, s) => sh(op::SRLI, d, a, s)?,
        Srai(d, a, s) => sh(op::SRAI, d, a, s)?,
        Lui(d, imm) => {
            let field = fit_unsigned(imm, 18)?;
            (u32::from(op::LUI) << 24) | (u32::from(d.index()) << 19) | field
        }
        Load {
            rd,
            base,
            offset,
            size,
            signed,
        } => {
            let opcode = match (size, signed) {
                (MemSize::Byte, true) => op::LB,
                (MemSize::Byte, false) => op::LBU,
                (MemSize::Half, true) => op::LH,
                (MemSize::Half, false) => op::LHU,
                (MemSize::Word, _) => op::LW,
            };
            i_signed(opcode, rd, base, offset)?
        }
        LoadPi {
            rd,
            base,
            inc,
            size,
            signed,
        } => {
            let opcode = match (size, signed) {
                (MemSize::Byte, true) => op::LB_PI,
                (MemSize::Byte, false) => op::LBU_PI,
                (MemSize::Half, true) => op::LH_PI,
                (MemSize::Half, false) => op::LHU_PI,
                (MemSize::Word, _) => op::LW_PI,
            };
            i_signed(opcode, rd, base, inc)?
        }
        Store {
            rs,
            base,
            offset,
            size,
        } => {
            let opcode = match size {
                MemSize::Byte => op::SB,
                MemSize::Half => op::SH,
                MemSize::Word => op::SW,
            };
            i_signed(opcode, rs, base, offset)?
        }
        StorePi {
            rs,
            base,
            inc,
            size,
        } => {
            let opcode = match size {
                MemSize::Byte => op::SB_PI,
                MemSize::Half => op::SH_PI,
                MemSize::Word => op::SW_PI,
            };
            i_signed(opcode, rs, base, inc)?
        }
        Tas(d, a) => r(op::TAS, d, a, Reg::ZERO),
        Beq(a, b, o) => branch(op::BEQ, a, b, o)?,
        Bne(a, b, o) => branch(op::BNE, a, b, o)?,
        Blt(a, b, o) => branch(op::BLT, a, b, o)?,
        Bge(a, b, o) => branch(op::BGE, a, b, o)?,
        Bltu(a, b, o) => branch(op::BLTU, a, b, o)?,
        Bgeu(a, b, o) => branch(op::BGEU, a, b, o)?,
        Jal(d, o) => {
            let field = word_offset(o, 19)?;
            (u32::from(op::JAL) << 24) | (u32::from(d.index()) << 19) | field
        }
        Jalr(d, a, imm) => i_signed(op::JALR, d, a, imm)?,
        LpSetup {
            idx,
            count,
            body_end,
        } => {
            let field = word_offset(body_end, 14)?;
            let idx = fit_unsigned(u32::from(idx), 1)?;
            (u32::from(op::LP_SETUP) << 24) | (idx << 23) | (u32::from(count.index()) << 14) | field
        }
        Csrr(d, csr) => {
            (u32::from(op::CSRR) << 24) | (u32::from(d.index()) << 19) | u32::from(csr.id())
        }
        Nop => u32::from(op::NOP) << 24,
        Halt => u32::from(op::HALT) << 24,
        Wfe => u32::from(op::WFE) << 24,
        Sev(id) => (u32::from(op::SEV) << 24) | u32::from(id),
        Barrier => u32::from(op::BARRIER) << 24,
    })
}

fn f_rd(w: u32) -> Reg {
    Reg::new(((w >> 19) & 0x1F) as u8)
}
fn f_ra(w: u32) -> Reg {
    Reg::new(((w >> 14) & 0x1F) as u8)
}
fn f_rb(w: u32) -> Reg {
    Reg::new(((w >> 9) & 0x1F) as u8)
}
fn f_imm14_s(w: u32) -> i16 {
    (((w & 0x3FFF) << 2) as i16) >> 2
}
fn f_imm14_u(w: u32) -> u16 {
    (w & 0x3FFF) as u16
}
fn f_off14(w: u32) -> i32 {
    i32::from(f_imm14_s(w)) * 4
}
fn f_off19(w: u32) -> i32 {
    ((((w & 0x7FFFF) << 13) as i32) >> 13) * 4
}
fn f_sh(w: u32) -> u8 {
    ((w >> 9) & 0x1F) as u8
}

/// Decodes a 32-bit word into an instruction.
///
/// # Errors
///
/// Returns [`DecodeError`] if the opcode or a sub-field is invalid.
pub fn decode(word: u32) -> Result<Insn, DecodeError> {
    use Insn::*;
    let opcode = (word >> 24) as u8;
    let err = || DecodeError { word };
    Ok(match opcode {
        op::ADD => Add(f_rd(word), f_ra(word), f_rb(word)),
        op::SUB => Sub(f_rd(word), f_ra(word), f_rb(word)),
        op::AND => And(f_rd(word), f_ra(word), f_rb(word)),
        op::OR => Or(f_rd(word), f_ra(word), f_rb(word)),
        op::XOR => Xor(f_rd(word), f_ra(word), f_rb(word)),
        op::SLL => Sll(f_rd(word), f_ra(word), f_rb(word)),
        op::SRL => Srl(f_rd(word), f_ra(word), f_rb(word)),
        op::SRA => Sra(f_rd(word), f_ra(word), f_rb(word)),
        op::SLT => Slt(f_rd(word), f_ra(word), f_rb(word)),
        op::SLTU => Sltu(f_rd(word), f_ra(word), f_rb(word)),
        op::MIN => Min(f_rd(word), f_ra(word), f_rb(word)),
        op::MAX => Max(f_rd(word), f_ra(word), f_rb(word)),
        op::MUL => Mul(f_rd(word), f_ra(word), f_rb(word)),
        op::DIV => Div(f_rd(word), f_ra(word), f_rb(word)),
        op::DIVU => Divu(f_rd(word), f_ra(word), f_rb(word)),
        op::MAC => Mac(f_rd(word), f_ra(word), f_rb(word)),
        op::MULL | op::MLAL => {
            let rd_hi = f_rd(word);
            let ra = f_ra(word);
            let rb = f_rb(word);
            let rd_lo = Reg::new(((word >> 4) & 0x1F) as u8);
            let signed = word & 1 != 0;
            if opcode == op::MULL {
                Mull {
                    rd_hi,
                    rd_lo,
                    ra,
                    rb,
                    signed,
                }
            } else {
                Mlal {
                    rd_hi,
                    rd_lo,
                    ra,
                    rb,
                    signed,
                }
            }
        }
        op::SDOTV4 => SdotV4(f_rd(word), f_ra(word), f_rb(word)),
        op::SDOTV2 => SdotV2(f_rd(word), f_ra(word), f_rb(word)),
        op::ADDV4 => AddV4(f_rd(word), f_ra(word), f_rb(word)),
        op::ADDV2 => AddV2(f_rd(word), f_ra(word), f_rb(word)),
        op::SUBV4 => SubV4(f_rd(word), f_ra(word), f_rb(word)),
        op::SUBV2 => SubV2(f_rd(word), f_ra(word), f_rb(word)),
        op::ADDI => Addi(f_rd(word), f_ra(word), f_imm14_s(word)),
        op::ANDI => Andi(f_rd(word), f_ra(word), f_imm14_u(word)),
        op::ORI => Ori(f_rd(word), f_ra(word), f_imm14_u(word)),
        op::XORI => Xori(f_rd(word), f_ra(word), f_imm14_u(word)),
        op::SLLI => Slli(f_rd(word), f_ra(word), f_sh(word)),
        op::SRLI => Srli(f_rd(word), f_ra(word), f_sh(word)),
        op::SRAI => Srai(f_rd(word), f_ra(word), f_sh(word)),
        op::LUI => Lui(f_rd(word), word & 0x3FFFF),
        op::LB | op::LBU | op::LH | op::LHU | op::LW => {
            let (size, signed) = match opcode {
                op::LB => (MemSize::Byte, true),
                op::LBU => (MemSize::Byte, false),
                op::LH => (MemSize::Half, true),
                op::LHU => (MemSize::Half, false),
                _ => (MemSize::Word, true),
            };
            Load {
                rd: f_rd(word),
                base: f_ra(word),
                offset: f_imm14_s(word),
                size,
                signed,
            }
        }
        op::LB_PI | op::LBU_PI | op::LH_PI | op::LHU_PI | op::LW_PI => {
            let (size, signed) = match opcode {
                op::LB_PI => (MemSize::Byte, true),
                op::LBU_PI => (MemSize::Byte, false),
                op::LH_PI => (MemSize::Half, true),
                op::LHU_PI => (MemSize::Half, false),
                _ => (MemSize::Word, true),
            };
            LoadPi {
                rd: f_rd(word),
                base: f_ra(word),
                inc: f_imm14_s(word),
                size,
                signed,
            }
        }
        op::SB | op::SH | op::SW => {
            let size = match opcode {
                op::SB => MemSize::Byte,
                op::SH => MemSize::Half,
                _ => MemSize::Word,
            };
            Store {
                rs: f_rd(word),
                base: f_ra(word),
                offset: f_imm14_s(word),
                size,
            }
        }
        op::SB_PI | op::SH_PI | op::SW_PI => {
            let size = match opcode {
                op::SB_PI => MemSize::Byte,
                op::SH_PI => MemSize::Half,
                _ => MemSize::Word,
            };
            StorePi {
                rs: f_rd(word),
                base: f_ra(word),
                inc: f_imm14_s(word),
                size,
            }
        }
        op::TAS => Tas(f_rd(word), f_ra(word)),
        op::BEQ => Beq(f_rd(word), f_ra(word), f_off14(word)),
        op::BNE => Bne(f_rd(word), f_ra(word), f_off14(word)),
        op::BLT => Blt(f_rd(word), f_ra(word), f_off14(word)),
        op::BGE => Bge(f_rd(word), f_ra(word), f_off14(word)),
        op::BLTU => Bltu(f_rd(word), f_ra(word), f_off14(word)),
        op::BGEU => Bgeu(f_rd(word), f_ra(word), f_off14(word)),
        op::JAL => Jal(f_rd(word), f_off19(word)),
        op::JALR => Jalr(f_rd(word), f_ra(word), f_imm14_s(word)),
        op::LP_SETUP => LpSetup {
            idx: ((word >> 23) & 1) as u8,
            count: f_ra(word),
            body_end: f_off14(word),
        },
        op::CSRR => Csrr(
            f_rd(word),
            Csr::from_id((word & 0xFFFF) as u16).ok_or_else(err)?,
        ),
        op::NOP => Nop,
        op::HALT => Halt,
        op::WFE => Wfe,
        op::SEV => Sev((word & 0xFF) as u8),
        op::BARRIER => Barrier,
        _ => return Err(err()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::named::*;

    fn roundtrip(insn: Insn) {
        let word = encode(&insn).expect("encodable");
        let back = decode(word).expect("decodable");
        assert_eq!(insn, back, "roundtrip failed for word {word:#010x}");
    }

    #[test]
    fn roundtrip_representative_sample() {
        let sample = [
            Insn::Add(R1, R2, R3),
            Insn::Sub(R31, R30, R29),
            Insn::Mul(R4, R5, R6),
            Insn::Mac(R7, R8, R9),
            Insn::Mull {
                rd_hi: R10,
                rd_lo: R11,
                ra: R12,
                rb: R13,
                signed: true,
            },
            Insn::Mlal {
                rd_hi: R14,
                rd_lo: R15,
                ra: R16,
                rb: R17,
                signed: false,
            },
            Insn::SdotV4(R1, R2, R3),
            Insn::SdotV2(R1, R2, R3),
            Insn::Addi(R1, R2, -8191),
            Insn::Addi(R1, R2, 8191),
            Insn::Andi(R1, R2, 0x3FFF),
            Insn::Slli(R1, R2, 31),
            Insn::Srai(R1, R2, 13),
            Insn::Lui(R5, 0x3FFFF),
            Insn::Load {
                rd: R1,
                base: R2,
                offset: -4,
                size: MemSize::Half,
                signed: false,
            },
            Insn::LoadPi {
                rd: R1,
                base: R2,
                inc: 2,
                size: MemSize::Byte,
                signed: true,
            },
            Insn::Store {
                rs: R1,
                base: R2,
                offset: 100,
                size: MemSize::Word,
            },
            Insn::StorePi {
                rs: R1,
                base: R2,
                inc: -4,
                size: MemSize::Half,
            },
            Insn::Tas(R3, R4),
            Insn::Beq(R1, R2, -32),
            Insn::Bgeu(R1, R2, 32764),
            Insn::Jal(R31, -1048576),
            Insn::Jalr(R0, R31, 0),
            Insn::LpSetup {
                idx: 1,
                count: R5,
                body_end: 64,
            },
            Insn::Csrr(R1, Csr::CoreId),
            Insn::Nop,
            Insn::Halt,
            Insn::Wfe,
            Insn::Sev(33),
            Insn::Barrier,
        ];
        for insn in sample {
            roundtrip(insn);
        }
    }

    #[test]
    fn imm_out_of_range_is_rejected() {
        assert!(matches!(
            encode(&Insn::Addi(R1, R2, 8192)),
            Err(EncodeError::ImmOutOfRange { .. })
        ));
        assert!(matches!(
            encode(&Insn::Lui(R1, 0x40000)),
            Err(EncodeError::ImmOutOfRange { .. })
        ));
    }

    #[test]
    fn misaligned_offsets_are_rejected() {
        assert!(matches!(
            encode(&Insn::Beq(R1, R2, 6)),
            Err(EncodeError::MisalignedOffset { offset: 6 })
        ));
        assert!(matches!(
            encode(&Insn::Jal(R0, 2)),
            Err(EncodeError::MisalignedOffset { .. })
        ));
    }

    #[test]
    fn branch_offset_extremes() {
        roundtrip(Insn::Beq(R0, R0, -32768));
        roundtrip(Insn::Beq(R0, R0, 32764));
        assert!(encode(&Insn::Beq(R0, R0, 32768)).is_err());
        assert!(encode(&Insn::Beq(R0, R0, -32772)).is_err());
    }

    /// Random 32-bit words per unit of `ULP_BATTERY_SCALE` in
    /// [`random_words_decode_totally_and_round_trip`].
    const RANDOM_WORDS: usize = 100_000;

    /// `decode` is total on random words, and every word it accepts
    /// round-trips three ways: `encode` → `decode`, `Display` →
    /// `parse_insn`, and a listing of the accepted instructions
    /// re-assembling bit-identically through `parse_program`.
    #[test]
    fn random_words_decode_totally_and_round_trip() {
        const SEED: u64 = 0x0C01;
        let scale = ulp_par::battery_scale();
        let words = RANDOM_WORDS * scale;
        let mut rng = ulp_rng::XorShiftRng::seed_from_u64(SEED);
        let mut accepted = Vec::new();
        for case in 0..words {
            let word = rng.next_u32();
            let repro = format!(
                "random_words_decode_totally_and_round_trip: seed={SEED:#x} \
                 word={case} ({word:#010x}) ULP_BATTERY_SCALE={scale}"
            );
            let insn = ulp_par::battery_case("isa_roundtrip", &repro, || {
                let insn = decode(word).ok()?;
                let word2 = encode(&insn)
                    .unwrap_or_else(|e| panic!("{word:#010x} decodes to `{insn}` but: {e}"));
                assert_eq!(decode(word2), Ok(insn), "{word:#010x} -> {word2:#010x}");
                let text = insn.to_string();
                let parsed = crate::parse_insn(&text)
                    .unwrap_or_else(|e| panic!("{word:#010x}: `{text}` does not parse: {e}"));
                assert_eq!(parsed, insn, "{word:#010x}: `{text}`");
                Some(insn)
            });
            accepted.extend(insn);
        }
        // About a quarter of random words decode; a collapse of the
        // accepted share means the battery stopped testing anything.
        assert!(
            accepted.len() * 8 >= words,
            "only {} of {words} random words decoded",
            accepted.len()
        );
        for (n, chunk) in accepted.chunks(32).enumerate() {
            let repro = format!(
                "random_words_decode_totally_and_round_trip: seed={SEED:#x} \
                 listing={n} ULP_BATTERY_SCALE={scale}"
            );
            ulp_par::battery_case("isa_roundtrip", &repro, || {
                let mut a = crate::Asm::new();
                for insn in chunk {
                    a.insn(*insn);
                }
                let prog = a.finish().expect("decoded instructions assemble");
                let listing = prog.listing();
                let reparsed = crate::parse_program(&listing)
                    .unwrap_or_else(|e| panic!("listing {n} does not parse: {e}\n{listing}"));
                assert_eq!(reparsed.insns(), prog.insns(), "listing {n}");
                assert_eq!(reparsed.words(), prog.words(), "listing {n}");
            });
        }
    }

    #[test]
    fn invalid_opcode_fails_decode() {
        assert!(decode(0xFF00_0000).is_err());
        assert!(decode(0x0000_0000).is_err()); // opcode 0 reserved
    }

    #[test]
    fn invalid_csr_fails_decode() {
        // CSRR with csr id 0xFFFF.
        let word = (u32::from(0x60u8) << 24) | 0xFFFF;
        assert!(decode(word).is_err());
    }
}

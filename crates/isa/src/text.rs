//! Textual UIR assembly: a parser for the syntax [`Insn`]'s `Display`
//! implementation emits, plus labels and comments for whole programs.
//!
//! The grammar (one instruction per line):
//!
//! ```text
//! # comment                     ; also a comment
//! loop:                         # label definition
//!     addi r1, r0, 10
//!     lw   r2, 8(r3)            # offset addressing
//!     lb.pi r2, (r3)+1          # post-increment
//!     sdot.v4 r4, r2, r5
//!     smull r6:r7, r8, r9       # 64-bit multiply, hi:lo
//!     lp.setup l0, r1, +16      # HW loop (byte offset to last body insn)
//!     bne  r1, r0, loop         # label or numeric offset (+8 / -8)
//!     csrr r10, CoreId
//!     halt
//! ```
//!
//! Every instruction round-trips: `parse_insn(&insn.to_string())` returns
//! the identical [`Insn`] (verified by property tests). [`parse_program`]
//! additionally resolves labels and tolerates the `0x0000:` address
//! prefixes produced by [`Program::listing`], so a listing re-assembles
//! into the same program.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::asm::{Asm, Program};
use crate::insn::{Csr, Insn, MemSize};
use crate::reg::Reg;

/// Error produced while parsing assembly text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based source line (0 for single-instruction parsing).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "parse error: {}", self.message)
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseError {}

fn err(message: impl Into<String>) -> ParseError {
    ParseError {
        line: 0,
        message: message.into(),
    }
}

fn strip_comment(line: &str) -> &str {
    let end = line.find(['#', ';']).unwrap_or(line.len());
    line[..end].trim()
}

fn parse_reg(tok: &str) -> Result<Reg, ParseError> {
    let rest = tok
        .strip_prefix('r')
        .ok_or_else(|| err(format!("expected register, found `{tok}`")))?;
    let idx: u8 = rest
        .parse()
        .map_err(|_| err(format!("bad register `{tok}`")))?;
    Reg::try_new(idx).ok_or_else(|| err(format!("register `{tok}` out of range")))
}

fn parse_int(tok: &str) -> Result<i64, ParseError> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, tok.strip_prefix('+').unwrap_or(tok)),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse()
    }
    .map_err(|_| err(format!("bad integer `{tok}`")))?;
    Ok(if neg { -v } else { v })
}

fn to_i16(v: i64) -> Result<i16, ParseError> {
    i16::try_from(v).map_err(|_| err(format!("immediate {v} does not fit 16 bits")))
}

fn to_u16(v: i64) -> Result<u16, ParseError> {
    u16::try_from(v).map_err(|_| err(format!("immediate {v} is not a valid u16")))
}

fn to_i32(v: i64) -> Result<i32, ParseError> {
    i32::try_from(v).map_err(|_| err(format!("offset {v} does not fit 32 bits")))
}

/// Splits an operand list on commas, trimming whitespace.
fn operands(rest: &str) -> Vec<&str> {
    rest.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// Parses `offset(base)` memory operands.
fn parse_mem_operand(tok: &str) -> Result<(Reg, i16), ParseError> {
    let open = tok
        .find('(')
        .ok_or_else(|| err(format!("expected `off(reg)`, found `{tok}`")))?;
    let close = tok
        .find(')')
        .ok_or_else(|| err(format!("missing `)` in operand `{tok}`")))?;
    let off_txt = tok[..open].trim();
    let offset = if off_txt.is_empty() {
        0
    } else {
        to_i16(parse_int(off_txt)?)?
    };
    let base = parse_reg(tok[open + 1..close].trim())?;
    Ok((base, offset))
}

/// Parses `(base)+inc` post-increment operands.
fn parse_pi_operand(tok: &str) -> Result<(Reg, i16), ParseError> {
    let inner = tok
        .strip_prefix('(')
        .ok_or_else(|| err(format!("expected `(reg)+inc`, found `{tok}`")))?;
    let close = inner
        .find(')')
        .ok_or_else(|| err(format!("missing `)` in `{tok}`")))?;
    let base = parse_reg(inner[..close].trim())?;
    let inc_txt = inner[close + 1..].trim();
    let inc = to_i16(parse_int(inc_txt)?)?;
    Ok((base, inc))
}

/// Parses `hi:lo` register pairs.
fn parse_pair(tok: &str) -> Result<(Reg, Reg), ParseError> {
    let (hi, lo) = tok
        .split_once(':')
        .ok_or_else(|| err(format!("expected `hi:lo`, found `{tok}`")))?;
    Ok((parse_reg(hi.trim())?, parse_reg(lo.trim())?))
}

/// A branch/jump/loop target: numeric offset or symbolic label.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Target {
    Offset(i32),
    Label(String),
}

fn parse_target(tok: &str) -> Result<Target, ParseError> {
    if tok.starts_with(['+', '-']) || tok.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        Ok(Target::Offset(to_i32(parse_int(tok)?)?))
    } else {
        Ok(Target::Label(tok.to_owned()))
    }
}

fn parse_csr(tok: &str) -> Result<Csr, ParseError> {
    match tok {
        "CoreId" => Ok(Csr::CoreId),
        "NumCores" => Ok(Csr::NumCores),
        "CycleLo" => Ok(Csr::CycleLo),
        "InstRetLo" => Ok(Csr::InstRetLo),
        other => Err(err(format!("unknown CSR `{other}`"))),
    }
}

/// An instruction whose control-flow target may still be symbolic.
#[derive(Clone, Debug)]
enum Parsed {
    Ready(Insn),
    Branch {
        mnemonic: String,
        a: Reg,
        b: Reg,
        target: Target,
    },
    Jal {
        rd: Reg,
        target: Target,
    },
    LpSetup {
        idx: u8,
        count: Reg,
        target: Target,
    },
}

#[allow(clippy::too_many_lines)]
fn parse_line(text: &str) -> Result<Parsed, ParseError> {
    let text = text.trim();
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    let ops = operands(rest);
    let nops = ops.len();
    let want = |n: usize| -> Result<(), ParseError> {
        if nops == n {
            Ok(())
        } else {
            Err(err(format!(
                "`{mnemonic}` expects {n} operands, found {nops}"
            )))
        }
    };
    let rrr = |f: fn(Reg, Reg, Reg) -> Insn| -> Result<Parsed, ParseError> {
        want(3)?;
        Ok(Parsed::Ready(f(
            parse_reg(ops[0])?,
            parse_reg(ops[1])?,
            parse_reg(ops[2])?,
        )))
    };

    use Insn::*;
    match mnemonic {
        "add" => rrr(Add),
        "sub" => rrr(Sub),
        "and" => rrr(And),
        "or" => rrr(Or),
        "xor" => rrr(Xor),
        "sll" => rrr(Sll),
        "srl" => rrr(Srl),
        "sra" => rrr(Sra),
        "slt" => rrr(Slt),
        "sltu" => rrr(Sltu),
        "min" => rrr(Min),
        "max" => rrr(Max),
        "mul" => rrr(Mul),
        "div" => rrr(Div),
        "divu" => rrr(Divu),
        "mac" => rrr(Mac),
        "sdot.v4" => rrr(SdotV4),
        "sdot.v2" => rrr(SdotV2),
        "add.v4" => rrr(AddV4),
        "add.v2" => rrr(AddV2),
        "sub.v4" => rrr(SubV4),
        "sub.v2" => rrr(SubV2),
        "smull" | "umull" | "smlal" | "umlal" => {
            want(3)?;
            let (rd_hi, rd_lo) = parse_pair(ops[0])?;
            let ra = parse_reg(ops[1])?;
            let rb = parse_reg(ops[2])?;
            let signed = mnemonic.starts_with('s');
            Ok(Parsed::Ready(if mnemonic.ends_with("mull") {
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
            }))
        }
        "addi" => {
            want(3)?;
            Ok(Parsed::Ready(Addi(
                parse_reg(ops[0])?,
                parse_reg(ops[1])?,
                to_i16(parse_int(ops[2])?)?,
            )))
        }
        "andi" | "ori" | "xori" => {
            want(3)?;
            let (d, a) = (parse_reg(ops[0])?, parse_reg(ops[1])?);
            let imm = to_u16(parse_int(ops[2])?)?;
            Ok(Parsed::Ready(match mnemonic {
                "andi" => Andi(d, a, imm),
                "ori" => Ori(d, a, imm),
                _ => Xori(d, a, imm),
            }))
        }
        "slli" | "srli" | "srai" => {
            want(3)?;
            let (d, a) = (parse_reg(ops[0])?, parse_reg(ops[1])?);
            let sh = u8::try_from(parse_int(ops[2])?)
                .ok()
                .filter(|s| *s < 32)
                .ok_or_else(|| err("shift amount must be 0..32"))?;
            Ok(Parsed::Ready(match mnemonic {
                "slli" => Slli(d, a, sh),
                "srli" => Srli(d, a, sh),
                _ => Srai(d, a, sh),
            }))
        }
        "lui" => {
            want(2)?;
            let d = parse_reg(ops[0])?;
            let imm = u32::try_from(parse_int(ops[1])?)
                .ok()
                .filter(|v| *v < (1 << 18))
                .ok_or_else(|| err("lui immediate must fit 18 bits"))?;
            Ok(Parsed::Ready(Lui(d, imm)))
        }
        "lw" | "lh" | "lhu" | "lb" | "lbu" => {
            want(2)?;
            let rd = parse_reg(ops[0])?;
            let (base, offset) = parse_mem_operand(ops[1])?;
            let (size, signed) = match mnemonic {
                "lw" => (MemSize::Word, true),
                "lh" => (MemSize::Half, true),
                "lhu" => (MemSize::Half, false),
                "lb" => (MemSize::Byte, true),
                _ => (MemSize::Byte, false),
            };
            Ok(Parsed::Ready(Load {
                rd,
                base,
                offset,
                size,
                signed,
            }))
        }
        "lw.pi" | "lh.pi" | "lhu.pi" | "lb.pi" | "lbu.pi" => {
            want(2)?;
            let rd = parse_reg(ops[0])?;
            let (base, inc) = parse_pi_operand(ops[1])?;
            let (size, signed) = match mnemonic {
                "lw.pi" => (MemSize::Word, true),
                "lh.pi" => (MemSize::Half, true),
                "lhu.pi" => (MemSize::Half, false),
                "lb.pi" => (MemSize::Byte, true),
                _ => (MemSize::Byte, false),
            };
            Ok(Parsed::Ready(LoadPi {
                rd,
                base,
                inc,
                size,
                signed,
            }))
        }
        "sw" | "sh" | "sb" => {
            want(2)?;
            let rs = parse_reg(ops[0])?;
            let (base, offset) = parse_mem_operand(ops[1])?;
            let size = match mnemonic {
                "sw" => MemSize::Word,
                "sh" => MemSize::Half,
                _ => MemSize::Byte,
            };
            Ok(Parsed::Ready(Store {
                rs,
                base,
                offset,
                size,
            }))
        }
        "sw.pi" | "sh.pi" | "sb.pi" => {
            want(2)?;
            let rs = parse_reg(ops[0])?;
            let (base, inc) = parse_pi_operand(ops[1])?;
            let size = match mnemonic {
                "sw.pi" => MemSize::Word,
                "sh.pi" => MemSize::Half,
                _ => MemSize::Byte,
            };
            Ok(Parsed::Ready(StorePi {
                rs,
                base,
                inc,
                size,
            }))
        }
        "tas" => {
            want(2)?;
            let rd = parse_reg(ops[0])?;
            let (base, offset) = parse_mem_operand(ops[1])?;
            if offset != 0 {
                return Err(err("tas takes a plain (reg) operand"));
            }
            Ok(Parsed::Ready(Tas(rd, base)))
        }
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
            want(3)?;
            Ok(Parsed::Branch {
                mnemonic: mnemonic.to_owned(),
                a: parse_reg(ops[0])?,
                b: parse_reg(ops[1])?,
                target: parse_target(ops[2])?,
            })
        }
        "jal" => {
            want(2)?;
            Ok(Parsed::Jal {
                rd: parse_reg(ops[0])?,
                target: parse_target(ops[1])?,
            })
        }
        "jalr" => {
            want(3)?;
            Ok(Parsed::Ready(Jalr(
                parse_reg(ops[0])?,
                parse_reg(ops[1])?,
                to_i16(parse_int(ops[2])?)?,
            )))
        }
        "lp.setup" => {
            want(3)?;
            let idx = match ops[0] {
                "l0" => 0u8,
                "l1" => 1,
                other => return Err(err(format!("loop unit must be l0/l1, found `{other}`"))),
            };
            Ok(Parsed::LpSetup {
                idx,
                count: parse_reg(ops[1])?,
                target: parse_target(ops[2])?,
            })
        }
        "csrr" => {
            want(2)?;
            Ok(Parsed::Ready(Csrr(parse_reg(ops[0])?, parse_csr(ops[1])?)))
        }
        "nop" => {
            want(0)?;
            Ok(Parsed::Ready(Nop))
        }
        "halt" => {
            want(0)?;
            Ok(Parsed::Ready(Halt))
        }
        "wfe" => {
            want(0)?;
            Ok(Parsed::Ready(Wfe))
        }
        "barrier" => {
            want(0)?;
            Ok(Parsed::Ready(Barrier))
        }
        "sev" => {
            want(1)?;
            let id = u8::try_from(parse_int(ops[0])?).map_err(|_| err("event id must be 0-255"))?;
            Ok(Parsed::Ready(Sev(id)))
        }
        other => Err(err(format!("unknown mnemonic `{other}`"))),
    }
}

fn make_branch(mnemonic: &str, a: Reg, b: Reg, off: i32) -> Insn {
    match mnemonic {
        "beq" => Insn::Beq(a, b, off),
        "bne" => Insn::Bne(a, b, off),
        "blt" => Insn::Blt(a, b, off),
        "bge" => Insn::Bge(a, b, off),
        "bltu" => Insn::Bltu(a, b, off),
        _ => Insn::Bgeu(a, b, off),
    }
}

/// Parses a single instruction (no labels).
///
/// # Errors
///
/// Returns [`ParseError`] on unknown mnemonics, malformed operands, or a
/// symbolic target (use [`parse_program`] for labels).
pub fn parse_insn(text: &str) -> Result<Insn, ParseError> {
    let text = strip_comment(text);
    match parse_line(text)? {
        Parsed::Ready(i) => Ok(i),
        Parsed::Branch {
            mnemonic,
            a,
            b,
            target: Target::Offset(o),
        } => Ok(make_branch(&mnemonic, a, b, o)),
        Parsed::Jal {
            rd,
            target: Target::Offset(o),
        } => Ok(Insn::Jal(rd, o)),
        Parsed::LpSetup {
            idx,
            count,
            target: Target::Offset(o),
        } => Ok(Insn::LpSetup {
            idx,
            count,
            body_end: o,
        }),
        _ => Err(err("symbolic labels need parse_program")),
    }
}

/// Strips an optional `0xNNNN:` address prefix (as emitted by
/// [`Program::listing`]).
fn strip_address(line: &str) -> &str {
    if let Some((head, rest)) = line.split_once(':') {
        let h = head.trim();
        if h.starts_with("0x") && h[2..].chars().all(|c| c.is_ascii_hexdigit()) {
            return rest.trim();
        }
    }
    line
}

/// Parses a whole program: instructions, `label:` definitions, comments,
/// and the address-prefixed lines of [`Program::listing`].
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line number on any syntax
/// error or unresolved label; assembly errors (offset ranges, hardware-
/// loop constraints) surface through the embedded [`Asm::finish`].
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    // First pass: instruction index of every label.
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut index = 0usize;
    for (lineno, raw) in source.lines().enumerate() {
        let mut line = strip_address(strip_comment(raw));
        while let Some(colon) = line.find(':') {
            let head = line[..colon].trim();
            if head.is_empty()
                || !head
                    .chars()
                    .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
                || head.starts_with("0x")
            {
                break;
            }
            if labels.insert(head.to_owned(), index).is_some() {
                return Err(ParseError {
                    line: lineno + 1,
                    message: format!("label `{head}` defined twice"),
                });
            }
            line = line[colon + 1..].trim();
        }
        if !line.is_empty() {
            index += 1;
        }
    }

    // Second pass: parse and resolve.
    let mut asm = Asm::new();
    let mut index = 0usize;
    for (lineno, raw) in source.lines().enumerate() {
        let mut line = strip_address(strip_comment(raw));
        // Skip any label definitions at the head of the line.
        while let Some(colon) = line.find(':') {
            let head = line[..colon].trim();
            if labels.contains_key(head) && !head.starts_with("0x") {
                line = line[colon + 1..].trim();
            } else {
                break;
            }
        }
        if line.is_empty() {
            continue;
        }
        let at = (index * 4) as i64;
        let resolve = |target: &Target, lp: bool| -> Result<i32, ParseError> {
            match target {
                Target::Offset(o) => Ok(*o),
                Target::Label(name) => {
                    let tgt = labels.get(name).ok_or_else(|| ParseError {
                        line: lineno + 1,
                        message: format!("unknown label `{name}`"),
                    })?;
                    let mut off = (*tgt as i64) * 4 - at;
                    if lp {
                        // lp.setup labels point after the last body insn.
                        off -= 4;
                    }
                    Ok(off as i32)
                }
            }
        };
        let insn = match parse_line(line).map_err(|e| ParseError {
            line: lineno + 1,
            ..e
        })? {
            Parsed::Ready(i) => i,
            Parsed::Branch {
                mnemonic,
                a,
                b,
                target,
            } => make_branch(&mnemonic, a, b, resolve(&target, false)?),
            Parsed::Jal { rd, target } => Insn::Jal(rd, resolve(&target, false)?),
            Parsed::LpSetup { idx, count, target } => Insn::LpSetup {
                idx,
                count,
                body_end: resolve(&target, true)?,
            },
        };
        asm.insn(insn);
        index += 1;
    }

    asm.finish().map_err(|e| ParseError {
        line: 0,
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::named::*;

    #[test]
    fn single_instructions_parse() {
        assert_eq!(parse_insn("add r1, r2, r3").unwrap(), Insn::Add(R1, R2, R3));
        assert_eq!(
            parse_insn("addi r1, r0, -42").unwrap(),
            Insn::Addi(R1, R0, -42)
        );
        assert_eq!(
            parse_insn("andi r1, r2, 0x3fff").unwrap(),
            Insn::Andi(R1, R2, 0x3FFF)
        );
        assert_eq!(
            parse_insn("lw r2, 8(r3)").unwrap(),
            Insn::Load {
                rd: R2,
                base: R3,
                offset: 8,
                size: MemSize::Word,
                signed: true
            }
        );
        assert_eq!(
            parse_insn("lbu r2, -4(r3)").unwrap(),
            Insn::Load {
                rd: R2,
                base: R3,
                offset: -4,
                size: MemSize::Byte,
                signed: false
            }
        );
        assert_eq!(
            parse_insn("lb.pi r2, (r3)+1").unwrap(),
            Insn::LoadPi {
                rd: R2,
                base: R3,
                inc: 1,
                size: MemSize::Byte,
                signed: true
            }
        );
        assert_eq!(
            parse_insn("smull r6:r7, r8, r9").unwrap(),
            Insn::Mull {
                rd_hi: R6,
                rd_lo: R7,
                ra: R8,
                rb: R9,
                signed: true
            }
        );
        assert_eq!(parse_insn("beq r1, r0, +8").unwrap(), Insn::Beq(R1, R0, 8));
        assert_eq!(
            parse_insn("lp.setup l0, r5, +16").unwrap(),
            Insn::LpSetup {
                idx: 0,
                count: R5,
                body_end: 16
            }
        );
        assert_eq!(
            parse_insn("csrr r4, NumCores").unwrap(),
            Insn::Csrr(R4, Csr::NumCores)
        );
        assert_eq!(parse_insn("sev 33").unwrap(), Insn::Sev(33));
        assert_eq!(parse_insn("nop # with comment").unwrap(), Insn::Nop);
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse_insn("frobnicate r1")
            .unwrap_err()
            .message
            .contains("unknown mnemonic"));
        assert!(parse_insn("add r1, r2")
            .unwrap_err()
            .message
            .contains("expects 3"));
        assert!(parse_insn("add r1, r2, r99")
            .unwrap_err()
            .message
            .contains("out of range"));
        assert!(parse_insn("lw r1, r2")
            .unwrap_err()
            .message
            .contains("off(reg)"));
        assert!(parse_insn("csrr r1, Bogus")
            .unwrap_err()
            .message
            .contains("unknown CSR"));
    }

    /// The parser never panics: neither on random bytes (as lossy UTF-8,
    /// one line and several) nor on mnemonic-shaped garbage that gets past
    /// the mnemonic lookup into the operand parsers.
    #[test]
    fn parser_is_total_on_random_and_mnemonic_shaped_input() {
        const SEED: u64 = 0x0C02;
        const MNEMONICS: [&str; 12] = [
            "add", "lw", "lw.pi", "sw", "beq", "jal", "jalr", "lp.setup", "smull", "csrr", "sev",
            "lui",
        ];
        const JUNK: &[u8] = b"abcdlrxz0123456789 ,():+-#";
        let scale = ulp_par::battery_scale();
        let mut rng = ulp_rng::XorShiftRng::seed_from_u64(SEED);
        for case in 0..20_000 * scale {
            let text = if case % 2 == 0 {
                let bytes = ulp_rng::gen::byte_vec(&mut rng, 0..=200);
                String::from_utf8_lossy(&bytes).into_owned()
            } else {
                let mut line = (*ulp_rng::gen::choose(&mut rng, &MNEMONICS)).to_owned();
                line.push(' ');
                for _ in 0..rng.gen_range(0usize..=40) {
                    line.push(char::from(*ulp_rng::gen::choose(&mut rng, JUNK)));
                }
                line
            };
            let repro = format!(
                "parser_is_total_on_random_and_mnemonic_shaped_input: seed={SEED:#x} \
                 case={case} ULP_BATTERY_SCALE={scale} input={text:?}"
            );
            ulp_par::battery_case("isa_parser", &repro, || {
                let _ = parse_insn(&text);
                let _ = parse_program(&text);
            });
        }
    }

    #[test]
    fn program_with_labels() {
        let src = "
            # sum 1..=10
            addi r1, r0, 10
            addi r3, r0, 0
        top:
            add  r3, r3, r1
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.insns().len(), 6);
        assert_eq!(prog.insns()[4], Insn::Bne(R1, R0, -8));

        // And it actually runs.
        let mut mem = crate::FlatMemory::new(0, 4096);
        mem.load_program(&prog, 0).unwrap();
        let mut core = crate::Core::new(0, crate::CoreModel::risc_baseline());
        core.reset(0);
        core.run(&mut mem, 100_000).unwrap();
        assert_eq!(core.reg(R3), 55);
    }

    #[test]
    fn hw_loop_label_points_after_body() {
        let src = "
            addi r1, r0, 4
            lp.setup l0, r1, end
            addi r2, r2, 1
            nop
        end:
            halt
        ";
        let prog = parse_program(src).unwrap();
        // Setup at index 1; body = insns 2..=3; end label at 4 → offset 8.
        assert_eq!(
            prog.insns()[1],
            Insn::LpSetup {
                idx: 0,
                count: R1,
                body_end: 8
            }
        );
    }

    #[test]
    fn forward_labels_and_unknown_labels() {
        let ok = "beq r0, r0, done\nnop\ndone: halt";
        assert_eq!(parse_program(ok).unwrap().insns()[0], Insn::Beq(R0, R0, 8));
        let bad = "beq r0, r0, nowhere\nhalt";
        let e = parse_program(bad).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = parse_program("x: nop\nx: halt").unwrap_err();
        assert!(e.message.contains("defined twice"));
    }

    #[test]
    fn listing_reassembles_identically() {
        let mut a = Asm::new();
        a.li(R1, 300000);
        let top = a.new_label();
        a.bind(top);
        a.mac(R3, R1, R1);
        a.addi(R1, R1, -1);
        a.bne(R1, R0, top);
        a.insn(Insn::SdotV4(R4, R1, R3));
        a.halt();
        let prog = a.finish().unwrap();
        let reparsed = parse_program(&prog.listing()).unwrap();
        assert_eq!(reparsed.insns(), prog.insns());
    }
}

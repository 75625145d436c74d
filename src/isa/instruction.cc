#include "isa/instruction.hh"

#include "common/logging.hh"

namespace tpre
{

namespace
{

constexpr std::uint32_t opShift = 26;
constexpr std::uint32_t rdShift = 21;
constexpr std::uint32_t rs1Shift = 16;
constexpr std::uint32_t rs2Shift = 11;
constexpr std::uint32_t regMask = 0x1f;
constexpr std::uint32_t imm16Mask = 0xffff;
constexpr std::uint32_t off21Mask = 0x1fffff;

enum class Format { R, I, B, J, None };

Format
formatOf(Opcode op)
{
    switch (op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::And:
      case Opcode::Or: case Opcode::Xor: case Opcode::Sll:
      case Opcode::Srl: case Opcode::Sra: case Opcode::Slt:
      case Opcode::Sltu: case Opcode::Mul: case Opcode::Div:
        return Format::R;
      case Opcode::Addi: case Opcode::Andi: case Opcode::Ori:
      case Opcode::Xori: case Opcode::Slli: case Opcode::Srli:
      case Opcode::Slti: case Opcode::Lui: case Opcode::Ld:
      case Opcode::Sd: case Opcode::Jalr:
        return Format::I;
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge:
        return Format::B;
      case Opcode::Jal:
        return Format::J;
      case Opcode::Halt:
        return Format::None;
      default:
        return Format::None;
    }
}

std::int32_t
signExtend(std::uint32_t value, unsigned bits)
{
    const std::uint32_t sign = 1u << (bits - 1);
    return static_cast<std::int32_t>((value ^ sign)) -
           static_cast<std::int32_t>(sign);
}

} // namespace

InstWord
encode(const Instruction &inst)
{
    tpre_assert(inst.op != Opcode::Fused,
                "Fused ops exist only inside traces");
    tpre_assert(inst.op < Opcode::NumOpcodes);

    InstWord word = static_cast<InstWord>(inst.op) << opShift;
    switch (formatOf(inst.op)) {
      case Format::R:
        word |= (inst.rd & regMask) << rdShift;
        word |= (inst.rs1 & regMask) << rs1Shift;
        word |= (inst.rs2 & regMask) << rs2Shift;
        break;
      case Format::I:
        tpre_assert(inst.imm >= -32768 && inst.imm <= 32767,
                    "imm16 overflow");
        // Stores carry their data register (rs2 in decoded form)
        // in the rd field slot, since they write no register.
        word |= ((inst.op == Opcode::Sd ? inst.rs2 : inst.rd) &
                 regMask) << rdShift;
        word |= (inst.rs1 & regMask) << rs1Shift;
        word |= static_cast<std::uint32_t>(inst.imm) & imm16Mask;
        break;
      case Format::B:
        tpre_assert(inst.imm >= -32768 && inst.imm <= 32767,
                    "branch offset overflow");
        word |= (inst.rs1 & regMask) << rdShift;
        word |= (inst.rs2 & regMask) << rs1Shift;
        word |= static_cast<std::uint32_t>(inst.imm) & imm16Mask;
        break;
      case Format::J:
        tpre_assert(inst.imm >= -(1 << 20) && inst.imm < (1 << 20),
                    "jump offset overflow");
        word |= (inst.rd & regMask) << rdShift;
        word |= static_cast<std::uint32_t>(inst.imm) & off21Mask;
        break;
      case Format::None:
        break;
    }
    return word;
}

Instruction
decode(InstWord word)
{
    Instruction inst;
    const std::uint8_t raw_op = word >> opShift;
    if (raw_op >= static_cast<std::uint8_t>(Opcode::NumOpcodes)) {
        warn("decoding unknown opcode %u as Halt", raw_op);
        inst.op = Opcode::Halt;
        return inst;
    }
    inst.op = static_cast<Opcode>(raw_op);
    switch (formatOf(inst.op)) {
      case Format::R:
        inst.rd = (word >> rdShift) & regMask;
        inst.rs1 = (word >> rs1Shift) & regMask;
        inst.rs2 = (word >> rs2Shift) & regMask;
        break;
      case Format::I:
        if (inst.op == Opcode::Sd)
            inst.rs2 = (word >> rdShift) & regMask;
        else
            inst.rd = (word >> rdShift) & regMask;
        inst.rs1 = (word >> rs1Shift) & regMask;
        inst.imm = signExtend(word & imm16Mask, 16);
        break;
      case Format::B:
        inst.rs1 = (word >> rdShift) & regMask;
        inst.rs2 = (word >> rs1Shift) & regMask;
        inst.imm = signExtend(word & imm16Mask, 16);
        break;
      case Format::J:
        inst.rd = (word >> rdShift) & regMask;
        inst.imm = signExtend(word & off21Mask, 21);
        break;
      case Format::None:
        break;
    }
    return inst;
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Sll: return "sll";
      case Opcode::Srl: return "srl";
      case Opcode::Sra: return "sra";
      case Opcode::Slt: return "slt";
      case Opcode::Sltu: return "sltu";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Addi: return "addi";
      case Opcode::Andi: return "andi";
      case Opcode::Ori: return "ori";
      case Opcode::Xori: return "xori";
      case Opcode::Slli: return "slli";
      case Opcode::Srli: return "srli";
      case Opcode::Slti: return "slti";
      case Opcode::Lui: return "lui";
      case Opcode::Ld: return "ld";
      case Opcode::Sd: return "sd";
      case Opcode::Beq: return "beq";
      case Opcode::Bne: return "bne";
      case Opcode::Blt: return "blt";
      case Opcode::Bge: return "bge";
      case Opcode::Jal: return "jal";
      case Opcode::Jalr: return "jalr";
      case Opcode::Halt: return "halt";
      case Opcode::Fused: return "fused";
      default: return "???";
    }
}

} // namespace tpre

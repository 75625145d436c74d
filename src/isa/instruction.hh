/**
 * @file
 * The tracepre ISA: a fixed-width 32-bit RISC instruction set with
 * exactly the control-flow constructs trace preconstruction cares
 * about (conditional branches, direct calls, indirect jumps and
 * returns). See DESIGN.md section 1 for why this substitutes for the
 * paper's SimpleScalar ISA.
 *
 * Encoding (32 bits):
 *   R-type:  op[31:26] rd[25:21] rs1[20:16] rs2[15:11] sh[10:0]
 *   I-type:  op[31:26] rd[25:21] rs1[20:16] imm16[15:0]
 *   B-type:  op[31:26] rs1[25:21] rs2[20:16] off16[15:0]
 *   J-type:  op[31:26] rd[25:21]  off21[20:0]
 * Branch and jump offsets are signed counts of 4-byte instructions
 * relative to the *next* instruction (PC + 4).
 */

#ifndef TPRE_ISA_INSTRUCTION_HH
#define TPRE_ISA_INSTRUCTION_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "mem/checkpoint.hh"

namespace tpre
{

/** Operation codes. Values are stable; they are the encoded opcode. */
enum class Opcode : std::uint8_t
{
    // ALU register-register
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Mul, Div,
    // ALU register-immediate
    Addi, Andi, Ori, Xori, Slli, Srli, Slti, Lui,
    // Memory (64-bit)
    Ld, Sd,
    // Conditional branches
    Beq, Bne, Blt, Bge,
    // Jumps: Jal = direct jump-and-link, Jalr = indirect
    Jal, Jalr,
    // Program end
    Halt,
    // Fused shift-add ALU op produced by trace preprocessing only:
    //   rd = (rs1 << sh1) + (rs2 << sh2) + imm
    // It has no binary encoding; it exists only inside traces.
    Fused,

    NumOpcodes
};

/** Decoded instruction, the working representation everywhere. */
struct Instruction
{
    Opcode op = Opcode::Halt;
    RegIndex rd = 0;
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    /**
     * Immediate operand. For branches and Jal it is the signed
     * offset in instructions relative to PC + 4.
     */
    std::int32_t imm = 0;
    /** Shift amounts for Opcode::Fused. */
    std::uint8_t sh1 = 0;
    std::uint8_t sh2 = 0;

    bool operator==(const Instruction &other) const = default;

    // The classification predicates below run for every simulated
    // instruction on every hot path (functional core, trace
    // selection, preconstruction path walking), tens of millions
    // of calls per simulated second — they are defined inline here
    // rather than in instruction.cc so they compile down to a
    // compare or two at the call site.

    /** Conditional branch? */
    bool
    isCondBranch() const
    {
        return op >= Opcode::Beq && op <= Opcode::Bge;
    }

    /**
     * Any control transfer (branch, Jal, Jalr, Halt)? The control
     * opcodes are contiguous (Beq .. Halt), so this is one range
     * compare; the constructors' straight-line walk runs it on
     * every instruction it scans.
     */
    bool
    isControl() const
    {
        static_assert(static_cast<int>(Opcode::Jal) ==
                          static_cast<int>(Opcode::Bge) + 1 &&
                      static_cast<int>(Opcode::Jalr) ==
                          static_cast<int>(Opcode::Jal) + 1 &&
                      static_cast<int>(Opcode::Halt) ==
                          static_cast<int>(Opcode::Jalr) + 1,
                      "control opcodes must be contiguous");
        return op >= Opcode::Beq && op <= Opcode::Halt;
    }

    /** Direct jump (Jal)? */
    bool isDirectJump() const { return op == Opcode::Jal; }

    /** Indirect jump (Jalr)? */
    bool isIndirectJump() const { return op == Opcode::Jalr; }

    /** Procedure call: a jump that writes the link register. */
    bool
    isCall() const
    {
        return (op == Opcode::Jal || op == Opcode::Jalr) &&
               rd == linkReg;
    }

    /** Procedure return: Jalr through the link register, no link. */
    bool
    isReturn() const
    {
        return op == Opcode::Jalr && rd == zeroReg &&
               rs1 == linkReg;
    }

    bool isLoad() const { return op == Opcode::Ld; }
    bool isStore() const { return op == Opcode::Sd; }

    /** Conditional branch with a negative offset (loop-closing). */
    bool
    isBackwardBranch() const
    {
        return isCondBranch() && imm < 0;
    }

    /** Taken target of a branch/Jal at address @p pc. */
    Addr
    targetOf(Addr pc) const
    {
        tpre_assert(isCondBranch() || op == Opcode::Jal);
        return pc + instBytes +
               static_cast<Addr>(static_cast<std::int64_t>(imm) *
                                 static_cast<std::int64_t>(instBytes));
    }

    /** Address of the sequentially next instruction. */
    static Addr fallThrough(Addr pc) { return pc + instBytes; }

    /** Does this instruction write @p rd (i.e. rd != r0 and writes)? */
    bool
    writesReg() const
    {
        if (rd == zeroReg)
            return false;
        switch (op) {
          case Opcode::Sd: case Opcode::Beq: case Opcode::Bne:
          case Opcode::Blt: case Opcode::Bge: case Opcode::Halt:
            return false;
          default:
            return true;
        }
    }

    /** Does the instruction read rs2 as a register operand? */
    bool
    readsRs2() const
    {
        switch (op) {
          case Opcode::Add: case Opcode::Sub: case Opcode::And:
          case Opcode::Or: case Opcode::Xor: case Opcode::Sll:
          case Opcode::Srl: case Opcode::Sra: case Opcode::Slt:
          case Opcode::Sltu: case Opcode::Mul: case Opcode::Div:
          case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
          case Opcode::Bge: case Opcode::Sd: case Opcode::Fused:
            return true;
          default:
            return false;
        }
    }

    /** Number of register sources actually read (0-2). */
    unsigned
    numSources() const
    {
        switch (op) {
          case Opcode::Lui: case Opcode::Jal: case Opcode::Halt:
            return 0;
          default:
            return readsRs2() ? 2 : 1;
        }
    }
};

/**
 * Checkpoint codec for a padded record: its in-memory layout
 * (12 bytes) with the two trailing padding bytes written as zeros.
 */
inline void
putRecord(mem::ByteWriter &w, const Instruction &inst)
{
    static_assert(sizeof(Instruction) == 12, "wire layout changed");
    w.put(inst.op);
    w.put(inst.rd);
    w.put(inst.rs1);
    w.put(inst.rs2);
    w.put(inst.imm);
    w.put(inst.sh1);
    w.put(inst.sh2);
    w.pad(2);
}

inline void
getRecord(mem::ByteReader &r, Instruction &inst)
{
    inst.op = r.get<Opcode>();
    inst.rd = r.get<RegIndex>();
    inst.rs1 = r.get<RegIndex>();
    inst.rs2 = r.get<RegIndex>();
    inst.imm = r.get<std::int32_t>();
    inst.sh1 = r.get<std::uint8_t>();
    inst.sh2 = r.get<std::uint8_t>();
    r.skip(2);
}

/** Encode a decoded instruction into its 32-bit word. */
InstWord encode(const Instruction &inst);

/** Decode a 32-bit word. Unknown opcodes decode to Halt with a warn. */
Instruction decode(InstWord word);

/** Human-readable opcode mnemonic. */
const char *opcodeName(Opcode op);

} // namespace tpre

#endif // TPRE_ISA_INSTRUCTION_HH

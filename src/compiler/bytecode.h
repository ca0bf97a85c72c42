//===- compiler/bytecode.h - Instruction set -------------------*- C++ -*-===//
///
/// \file
/// The VM's bytecode instruction set. Encoding: one opcode byte followed by
/// little-endian fixed-width operands (u16 unless noted). Jump targets are
/// absolute byte offsets (u32).
///
/// The attachment opcodes implement the three position categories of paper
/// section 7.2: MarksPush/MarksPop/MarksSetTop/MarksTop are the "no function
/// call involved" category that operates directly on the marks register;
/// Reify/AttachSet/AttachGet/AttachConsume are the tail-position category
/// that must consult the underflow record; and CallAttach is the
/// "non-tail with a tail call in the body" category that installs the
/// popped marks list in a fresh underflow record at the call.
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_COMPILER_BYTECODE_H
#define CMARKS_COMPILER_BYTECODE_H

#include <cstdint>
#include <cstring>
#include <vector>

namespace cmk {

enum class Op : uint8_t {
  // Stack and variable access.
  PushConst,    ///< u16 const-pool index.
  PushLocal,    ///< u16 local slot.
  SetLocal,     ///< u16 local slot; pops.
  PushLocalBox, ///< u16 local slot holding a box; pushes box contents.
  SetLocalBox,  ///< u16; pops into box contents.
  PushFree,     ///< u16 closure free-slot.
  PushFreeBox,  ///< u16; free slot holds a box; pushes contents.
  SetFreeBox,   ///< u16; pops into box contents.
  BoxLocal,     ///< u16; wraps slot value in a fresh box.
  PushGlobal,   ///< u16 const index of the global cell; error if unbound.
  SetGlobal,    ///< u16 const index of the global cell; pops.
  DefineGlobal, ///< u16 const index of the global cell; pops; always binds.
  Pop,
  MakeClosure, ///< u16 const index of code, u16 free count; pops free values.

  // Control.
  Jump,        ///< u32 absolute target.
  JumpIfFalse, ///< u32 absolute target; pops.
  Frame,       ///< Pushes the 3 header slots of a new frame.
  Call,        ///< u16 argc. Stack: header, fn, args...
  TailCall,    ///< u16 argc. Reuses the current frame.
  CallAttach,  ///< u16 argc. Category-(b) call: reifies the continuation at
               ///< the new frame and installs (rest marks) in the record.
  Return,

  // Continuation attachments (paper 7.1/7.2).
  Reify,         ///< Ensure the current frame's continuation is reified.
  AttachSet,     ///< Pops v; marks := cons(v, nextk.marks). Frame is reified.
  AttachGet,     ///< Pops dflt; pushes frame attachment or dflt.
  AttachConsume, ///< Like AttachGet but also pops the attachment.
  MarksPush,     ///< Pops v; marks := cons(v, marks).
  MarksPop,      ///< marks := cdr(marks).
  MarksSetTop,   ///< Pops v; marks := cons(v, cdr(marks)).
  MarksTop,      ///< Pushes car(marks).

  // Old-Racket-style mark stack (MarkStackMode comparator).
  MstkSet,  ///< Pops val, key; replaces the current frame's entry for key
            ///< or pushes a new entry tagged with the frame.
  MstkPush, ///< Pops val, key; always pushes a new entry.
  MstkPop,  ///< Pops the newest mark-stack entry.

  // Inlined primitives. All pop operands and push the result.
  Add,
  Sub,
  Mul,
  NumLt,
  NumLe,
  NumGt,
  NumGe,
  NumEq,
  Cons,
  Car,
  Cdr,
  SetCarBang,
  SetCdrBang,
  NullP,
  PairP,
  Not,
  EqP,
  ZeroP,
  Add1,
  Sub1,
  VectorRef,
  VectorSet,

  Halt, ///< Used only by the toplevel driver.

  // Superinstructions (compiler/peephole.cpp). The code generator never
  // emits these directly; the peephole pass fuses the dominant opcode
  // sequences of the bench suite after codegen. Fusion never crosses a
  // jump target or a category-(a)/(b) attachment boundary (Reify/
  // AttachSet/AttachGet/AttachConsume/CallAttach), so fused code is
  // observationally identical to unfused.
  LocalLocal,    ///< u16 a, u16 b: push local a, then local b.
  LocalConst,    ///< u16 slot, u16 const: push local, then constant.
  AddLocalConst, ///< u16 slot, u16 const: push (+ local const).
  SubLocalConst, ///< u16 slot, u16 const: push (- local const).
  LocalPrim,     ///< u16 slot, u8 prim opcode: push local, run the
                 ///< embedded inlined primitive in the same dispatch.
  ConstCall,     ///< u16 const, u16 argc: push constant (the callee's last
                 ///< argument), then Call argc.
  JumpIfNotZeroLocal, ///< u16 slot, u32 target: the (zero? local) branch
                      ///< of a loop header; jumps when local is non-zero.
  MarksEnterElided,   ///< Pops v, discards it: a MarksPush whose extent
                      ///< provably contains no call, jump, or attachment
                      ///< operation, so the cons is elided (paper 7.2
                      ///< category (c) driven to zero allocations). Still
                      ///< records the MarksPush trace event.
  MarksExitElided,    ///< The matching MarksPop: no register change.

  OpCount, ///< Sentinel: number of opcodes (dispatch-table size).
};

/// Returns a human-readable opcode name for the disassembler.
const char *opName(Op O);

/// Operand byte counts for decoding: 0, 2 (u16), 3 (u16+u8), 4 (u32 or
/// 2xu16), or 6 (u16+u32).
int opOperandBytes(Op O);

/// Append-only instruction buffer used by the code generator.
class BytecodeBuffer {
public:
  size_t size() const { return Bytes.size(); }
  const std::vector<uint8_t> &bytes() const { return Bytes; }

  void emitOp(Op O) { Bytes.push_back(static_cast<uint8_t>(O)); }

  void emitU16(uint16_t V) {
    Bytes.push_back(V & 0xFF);
    Bytes.push_back(V >> 8);
  }

  void emitU32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Bytes.push_back((V >> (8 * I)) & 0xFF);
  }

  /// Emits a u32 placeholder and returns its offset for later patching.
  size_t emitJumpSlot() {
    size_t At = Bytes.size();
    emitU32(0);
    return At;
  }

  void patchU32(size_t At, uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Bytes[At + I] = (V >> (8 * I)) & 0xFF;
  }

private:
  std::vector<uint8_t> Bytes;
};

inline uint16_t readU16(const uint8_t *P) {
  uint16_t V;
  std::memcpy(&V, P, 2);
  return V;
}

inline uint32_t readU32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

} // namespace cmk

#endif // CMARKS_COMPILER_BYTECODE_H

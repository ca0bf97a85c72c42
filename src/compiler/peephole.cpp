//===- compiler/peephole.cpp - Bytecode superinstruction fusion -*- C++ -*-===//
///
/// \file
/// Post-codegen peephole pass: fuses the dominant opcode sequences of the
/// bench suite into superinstructions (bytecode.h, after Halt) and elides
/// the marks-register cons for category-(c) attachment extents whose body
/// is provably free of calls, jumps, and attachment operations.
///
/// Two safety rules bound every rewrite:
///
///  1. No fused group may contain a jump target anywhere but its first
///     byte: jump operands are absolute offsets, and landing inside a
///     superinstruction would decode operand bytes as opcodes.
///  2. No rewrite crosses a safe-point or attachment-category boundary.
///     The fusible sets below exclude every call, jump, Reify/AttachSet/
///     AttachGet/AttachConsume (category (a)), and CallAttach (category
///     (b)) opcode, so the attachment pass's category decisions — and the
///     VM safe points hoisted onto calls and backward branches — are
///     preserved bit-for-bit in observable behaviour.
///
/// Jump operands are remapped through an old-offset -> new-offset table
/// after fusion changes instruction sizes. Return PCs are runtime values
/// computed against the rewritten code, so they need no fixup.
///
//===----------------------------------------------------------------------===//

#include "compiler/bytecode.h"
#include "compiler/compiler.h"
#include "support/debug.h"

#include <unordered_map>

using namespace cmk;

namespace {

struct PInstr {
  Op O;
  uint32_t Off;     ///< Offset in the input stream.
  uint32_t A = 0;   ///< First operand (u16, or u32 for jumps).
  uint32_t B = 0;   ///< Second operand (u16) or embedded prim opcode.
  bool IsTarget = false;
};

/// Inlined primitives a LocalPrim superinstruction may embed. All are
/// straight-line register/stack operations: no calls, no jumps, and no
/// attachment-category side: exactly the set isInlinablePrim guarantees
/// cannot observe or change continuation attachments.
bool isFusiblePrim(Op O) {
  switch (O) {
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::NumLt:
  case Op::NumLe:
  case Op::NumGt:
  case Op::NumGe:
  case Op::NumEq:
  case Op::Cons:
  case Op::Car:
  case Op::Cdr:
  case Op::NullP:
  case Op::PairP:
  case Op::Not:
  case Op::EqP:
  case Op::ZeroP:
  case Op::Add1:
  case Op::Sub1:
    return true;
  default:
    return false;
  }
}

/// Opcodes allowed between MarksPush and MarksPop for the elision rewrite:
/// pure stack/slot traffic and inlined primitives. Everything that could
/// reify, capture, jump, call, poll a safe point, or touch the marks
/// register is excluded — in particular the whole category-(a)/(b) set
/// (Reify, AttachSet, AttachGet, AttachConsume, CallAttach) and the plain
/// call/jump opcodes.
bool isElisionSafe(Op O) {
  switch (O) {
  case Op::PushConst:
  case Op::PushLocal:
  case Op::SetLocal:
  case Op::PushLocalBox:
  case Op::SetLocalBox:
  case Op::PushFree:
  case Op::PushFreeBox:
  case Op::SetFreeBox:
  case Op::BoxLocal:
  case Op::PushGlobal:
  case Op::Pop:
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::NumLt:
  case Op::NumLe:
  case Op::NumGt:
  case Op::NumGe:
  case Op::NumEq:
  case Op::Cons:
  case Op::Car:
  case Op::Cdr:
  case Op::SetCarBang:
  case Op::SetCdrBang:
  case Op::NullP:
  case Op::PairP:
  case Op::Not:
  case Op::EqP:
  case Op::ZeroP:
  case Op::Add1:
  case Op::Sub1:
  case Op::VectorRef:
  case Op::VectorSet:
    return true;
  default:
    return false;
  }
}

/// Longest straight-line extent considered for mark elision; wcm bodies
/// the attachment pass classified as category (c) are short by
/// construction, and a bound keeps the scan linear.
constexpr size_t MaxElisionSpan = 12;

std::vector<PInstr> decode(const std::vector<uint8_t> &In) {
  std::vector<PInstr> Is;
  uint32_t Pc = 0;
  while (Pc < In.size()) {
    PInstr I;
    I.O = static_cast<Op>(In[Pc]);
    I.Off = Pc;
    int Operands = opOperandBytes(I.O);
    CMK_CHECK(Pc + 1 + Operands <= In.size(), "truncated bytecode");
    switch (Operands) {
    case 2:
      I.A = readU16(&In[Pc + 1]);
      break;
    case 3: // LocalPrim: u16 slot + u8 embedded opcode.
      I.A = readU16(&In[Pc + 1]);
      I.B = In[Pc + 3];
      break;
    case 4:
      if (I.O == Op::Jump || I.O == Op::JumpIfFalse) {
        I.A = readU32(&In[Pc + 1]);
      } else { // MakeClosure and the 2xu16 superinstructions.
        I.A = readU16(&In[Pc + 1]);
        I.B = readU16(&In[Pc + 3]);
      }
      break;
    case 6: // JumpIfNotZeroLocal: u16 slot + u32 target.
      I.A = readU16(&In[Pc + 1]);
      I.B = readU32(&In[Pc + 3]);
      break;
    default:
      break;
    }
    Is.push_back(I);
    Pc += 1 + Operands;
  }
  return Is;
}

bool isJump(Op O) { return O == Op::Jump || O == Op::JumpIfFalse; }

void markJumpTargets(std::vector<PInstr> &Is) {
  std::unordered_map<uint32_t, size_t> ByOff;
  for (size_t I = 0; I < Is.size(); ++I)
    ByOff[Is[I].Off] = I;
  for (const PInstr &I : Is) {
    uint32_t T = 0;
    if (isJump(I.O))
      T = I.A;
    else if (I.O == Op::JumpIfNotZeroLocal)
      T = I.B;
    else
      continue;
    auto It = ByOff.find(T);
    // A target may legitimately equal the code size (an If whose join is
    // the end of the emitted body); nothing to mark there.
    if (It != ByOff.end())
      Is[It->second].IsTarget = true;
  }
}

/// Rewrites MarksPush ... MarksPop pairs whose extent is straight-line and
/// attachment-free into the elided forms (same encoded size, so this is an
/// in-place opcode swap on the decoded list).
void elideMarkExtents(std::vector<PInstr> &Is, PeepholeStats &Stats) {
  for (size_t I = 0; I < Is.size(); ++I) {
    if (Is[I].O != Op::MarksPush)
      continue;
    size_t J = I + 1;
    bool Safe = true;
    while (J < Is.size() && J - I <= MaxElisionSpan) {
      if (Is[J].IsTarget) {
        Safe = false;
        break;
      }
      if (Is[J].O == Op::MarksPop)
        break;
      if (!isElisionSafe(Is[J].O)) {
        Safe = false;
        break;
      }
      ++J;
    }
    if (!Safe || J >= Is.size() || J - I > MaxElisionSpan ||
        Is[J].O != Op::MarksPop)
      continue;
    Is[I].O = Op::MarksEnterElided;
    Is[J].O = Op::MarksExitElided;
    ++Stats.MarkExtentsElided;
    I = J;
  }
}

int encodedSize(const PInstr &I) { return 1 + opOperandBytes(I.O); }

void emit(std::vector<uint8_t> &Out, const PInstr &I) {
  Out.push_back(static_cast<uint8_t>(I.O));
  auto U16 = [&](uint32_t V) {
    Out.push_back(V & 0xFF);
    Out.push_back((V >> 8) & 0xFF);
  };
  auto U32 = [&](uint32_t V) {
    for (int K = 0; K < 4; ++K)
      Out.push_back((V >> (8 * K)) & 0xFF);
  };
  switch (opOperandBytes(I.O)) {
  case 2:
    U16(I.A);
    break;
  case 3:
    U16(I.A);
    Out.push_back(static_cast<uint8_t>(I.B));
    break;
  case 4:
    if (isJump(I.O))
      U32(I.A);
    else {
      U16(I.A);
      U16(I.B);
    }
    break;
  case 6:
    U16(I.A);
    U32(I.B);
    break;
  default:
    break;
  }
}

} // namespace

std::vector<uint8_t> cmk::runPeephole(const std::vector<uint8_t> &In,
                                      PeepholeStats *StatsOut) {
  PeepholeStats Stats;
  std::vector<PInstr> Is = decode(In);
  markJumpTargets(Is);
  elideMarkExtents(Is, Stats);

  // Greedy left-to-right fusion. A pattern applies only when every
  // consumed instruction after the first is not a jump target.
  std::vector<PInstr> Fused;
  Fused.reserve(Is.size());
  auto Free = [&](size_t I) { return I < Is.size() && !Is[I].IsTarget; };
  size_t I = 0;
  while (I < Is.size()) {
    const PInstr &A = Is[I];
    PInstr Out = A;
    size_t Consumed = 1;

    if (A.O == Op::PushLocal && Free(I + 1)) {
      Op N1 = Is[I + 1].O;
      if (N1 == Op::PushConst && Free(I + 2) && Is[I + 2].O == Op::Add) {
        Out.O = Op::AddLocalConst;
        Out.B = Is[I + 1].A;
        Consumed = 3;
      } else if (N1 == Op::PushConst && Free(I + 2) &&
                 Is[I + 2].O == Op::Sub) {
        Out.O = Op::SubLocalConst;
        Out.B = Is[I + 1].A;
        Consumed = 3;
      } else if (N1 == Op::ZeroP && Free(I + 2) &&
                 Is[I + 2].O == Op::JumpIfFalse) {
        Out.O = Op::JumpIfNotZeroLocal;
        Out.B = Is[I + 2].A; // Target, remapped below.
        Consumed = 3;
      } else if (N1 == Op::PushLocal) {
        Out.O = Op::LocalLocal;
        Out.B = Is[I + 1].A;
        Consumed = 2;
      } else if (N1 == Op::PushConst) {
        Out.O = Op::LocalConst;
        Out.B = Is[I + 1].A;
        Consumed = 2;
      } else if (isFusiblePrim(N1)) {
        Out.O = Op::LocalPrim;
        Out.B = static_cast<uint32_t>(Is[I + 1].O);
        Consumed = 2;
      }
    } else if (A.O == Op::PushConst && Free(I + 1) &&
               Is[I + 1].O == Op::Call) {
      Out.O = Op::ConstCall;
      Out.B = Is[I + 1].A;
      Consumed = 2;
    }

    if (Consumed > 1)
      ++Stats.PairsFused;
    Fused.push_back(Out);
    I += Consumed;
  }

  // Lay out the fused stream and remap jump operands (absolute offsets).
  std::unordered_map<uint32_t, uint32_t> OffMap;
  uint32_t NewOff = 0;
  for (PInstr &P : Fused) {
    OffMap[P.Off] = NewOff;
    NewOff += encodedSize(P);
  }
  OffMap[static_cast<uint32_t>(In.size())] = NewOff; // End-of-code joins.

  std::vector<uint8_t> Out;
  Out.reserve(NewOff);
  for (PInstr &P : Fused) {
    if (isJump(P.O)) {
      auto It = OffMap.find(P.A);
      CMK_CHECK(It != OffMap.end(), "jump into a fused instruction");
      P.A = It->second;
    } else if (P.O == Op::JumpIfNotZeroLocal) {
      auto It = OffMap.find(P.B);
      CMK_CHECK(It != OffMap.end(), "jump into a fused instruction");
      P.B = It->second;
    }
    emit(Out, P);
  }
  if (StatsOut)
    *StatsOut = Stats;
  return Out;
}

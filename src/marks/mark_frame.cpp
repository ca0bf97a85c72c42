//===- marks/mark_frame.cpp - Mark frames and first-lookup -----*- C++ -*-===//
///
/// \file
/// The representation of paper section 7.5: "a specific attachment uses a
/// representation that makes common cases inexpensive and evolves to
/// support more complex cases: no marks, one mark, multiple marks, and
/// caching". Here: no attachment / a MarkFrame with a small inline entry
/// array / the same plus a validated cache entry implementing the N/2
/// path compression.
///
//===----------------------------------------------------------------------===//

#include "marks/marks.h"

#include "runtime/heap.h"
#include "vm/vm.h"

using namespace cmk;

namespace {
// Aux bit 0 on a MarkFrameObj: cache fields are valid.
constexpr uint16_t CacheValidBit = 1;
} // namespace

Value cmk::markFrameUpdate(Heap &H, Value FrameOrFalse, Value Key, Value Val) {
  GCRoot Old(H, FrameOrFalse), KeyRoot(H, Key), ValRoot(H, Val);

  if (!FrameOrFalse.isMarkFrame()) {
    // First mark on this frame: the one-mark representation.
    CMK_STAT_DETAIL(H.vmStats(), MarkFrameCreates);
    CMK_TRACE_EV_P(H.traceBuf(), MarkFrameCreate);
    Value NewV = H.makeMarkFrame(1);
    MarkFrameObj *New = asMarkFrame(NewV);
    New->Entries[0] = KeyRoot.get();
    New->Entries[1] = ValRoot.get();
    return NewV;
  }

  MarkFrameObj *OldF = asMarkFrame(Old.get());
  uint32_t N = OldF->NumEntries;
  // Does the key already have a binding?
  int32_t Existing = -1;
  for (uint32_t I = 0; I < N; ++I)
    if (OldF->Entries[2 * I] == KeyRoot.get())
      Existing = static_cast<int32_t>(I);

  if (Existing >= 0) {
    CMK_STAT_DETAIL(H.vmStats(), MarkFrameRebinds);
    CMK_TRACE_EV_P(H.traceBuf(), MarkFrameRebind);
  } else {
    CMK_STAT_DETAIL(H.vmStats(), MarkFrameExtends);
    CMK_TRACE_EV_P(H.traceBuf(), MarkFrameExtend);
  }
  uint32_t NewN = Existing >= 0 ? N : N + 1;
  Value NewV = H.makeMarkFrame(NewN);
  MarkFrameObj *New = asMarkFrame(NewV);
  OldF = asMarkFrame(Old.get());
  for (uint32_t I = 0; I < N; ++I) {
    New->Entries[2 * I] = OldF->Entries[2 * I];
    New->Entries[2 * I + 1] = OldF->Entries[2 * I + 1];
  }
  uint32_t Slot = Existing >= 0 ? static_cast<uint32_t>(Existing) : N;
  New->Entries[2 * Slot] = KeyRoot.get();
  New->Entries[2 * Slot + 1] = ValRoot.get();
  return NewV;
}

Value cmk::markFrameLookup(Value Frame, Value Key) {
  if (!Frame.isMarkFrame())
    return Value::undefined();
  MarkFrameObj *F = asMarkFrame(Frame);
  for (uint32_t I = 0; I < F->NumEntries; ++I)
    if (F->Entries[2 * I] == Key)
      return F->Entries[2 * I + 1];
  return Value::undefined();
}

Value cmk::markListFirst(Heap &H, Value Marks, Value Key, Value Dflt,
                         Value UntilTail) {
  // Walk the attachment list. A cache hit at a cell is valid only when it
  // was computed against the same tail (frames can be shared between
  // chains by composable-continuation splicing).
  int64_t Depth = 0;
  Value P = Marks;
  Value Result = Value::undefined();
  bool Found = false;
  bool CacheHit = false;
  CMK_STAT_DETAIL(H.vmStats(), MarkFirstLookups);

  while (P.isPair() && P != UntilTail) {
    Value Att = car(P);
    if (Att.isMarkFrame()) {
      MarkFrameObj *F = asMarkFrame(Att);
      // The cache is only sound for undelimited searches: a delimited
      // query must not see results from (or cache misses over) frames
      // below its prompt boundary.
      if (UntilTail.isUndefined() && (F->H.Aux & CacheValidBit) &&
          F->CacheKey == Key && F->CacheTail == cdr(P)) {
        CacheHit = true;
        // Cached answer for "first mark for Key from here down".
        Value Direct = markFrameLookup(Att, Key);
        if (!Direct.isUndefined()) {
          Result = Direct;
        } else if (!F->CacheVal.isUndefined()) {
          Result = F->CacheVal;
        } else {
          break; // Cached not-found.
        }
        Found = true;
        break;
      }
      Value V = markFrameLookup(Att, Key);
      if (!V.isUndefined()) {
        Result = V;
        Found = true;
        break;
      }
    }
    P = cdr(P);
    ++Depth;
  }

  CMK_STAT_DETAIL_ADD(H.vmStats(), MarkFirstCellsWalked,
                      static_cast<uint64_t>(Depth));
  if (UntilTail.isUndefined()) {
    if (CacheHit) {
      CMK_STAT_DETAIL(H.vmStats(), MarkFirstCacheHits);
      CMK_TRACE_EV_P(H.traceBuf(), MarkCacheHit);
    } else {
      CMK_STAT_DETAIL(H.vmStats(), MarkFirstCacheMisses);
    }
  }

  // Path compression (paper 7.5): cache the answer at depth N/2 so repeated
  // queries converge to amortized constant time.
  if (Depth >= 4 && UntilTail.isUndefined()) {
    Value Q = Marks;
    for (int64_t I = 0; I < Depth / 2; ++I)
      Q = cdr(Q);
    if (Q.isPair() && car(Q).isMarkFrame()) {
      MarkFrameObj *F = asMarkFrame(car(Q));
      F->CacheKey = Key;
      F->CacheVal = Found ? Result : Value::undefined();
      F->CacheTail = cdr(Q);
      F->H.Aux |= CacheValidBit;
      CMK_STAT_DETAIL(H.vmStats(), MarkFirstCacheInstalls);
      CMK_TRACE_EV_P(H.traceBuf(), MarkCacheInstall);
    }
  }
  return Found ? Result : Dflt;
}

Value cmk::markListAll(Heap &H, Value Marks, Value Key, Value UntilTail) {
  GCRoot KeyRoot(H, Key), MarksRoot(H, Marks), Until(H, UntilTail);
  RootedValues Vals(H);
  for (Value P = MarksRoot.get(); P.isPair() && P != Until.get(); P = cdr(P)) {
    Value Att = car(P);
    if (!Att.isMarkFrame())
      continue;
    Value V = markFrameLookup(Att, KeyRoot.get());
    if (!V.isUndefined())
      Vals.push(V);
  }
  GCRoot Acc(H, Value::nil());
  for (size_t I = Vals.size(); I > 0; --I)
    Acc.set(H.makePair(Vals[I - 1], Acc.get()));
  return Acc.get();
}

Value cmk::parameterLookup(VM &M, Value Param) {
  ParameterObj *P = asParameter(Param);
  if (M.config().MarkStackMode) {
    for (size_t I = M.MarkStack.size(); I > 0; --I)
      if (M.MarkStack[I - 1].Key == P->Key)
        return M.MarkStack[I - 1].Val;
    return P->Default;
  }
  return markListFirst(M.heap(), M.currentMarksList(), P->Key, P->Default);
}

//===- vm/stacks.cpp - Stack segments, reification, underflow --*- C++ -*-===//
///
/// \file
/// The heart of the paper's runtime support (sections 5 and 6): splitting
/// stacks into underflow records when a continuation is reified, fusing
/// opportunistic one-shot splits back together on underflow, and copying
/// captured frames on continuation application.
///
//===----------------------------------------------------------------------===//

#include "vm/vm.h"

#include <algorithm>
#include <cstring>

using namespace cmk;

namespace {

/// The underflow handler consumed \p K: drop its counted segment
/// reference. Full/promoted records keep their pin instead (the guarded
/// decrement makes a promotion after minting harmless either way).
void consumeRecordRef(ContObj *K) {
  if (K->shot() != ContShot::Opportunistic ||
      !K->Seg.isKind(ObjKind::StackSeg))
    return;
  StackSegObj *S = asStackSeg(K->Seg);
  if (S->RecordRefs > 0)
    --S->RecordRefs;
}

} // namespace

Value VM::mintRecord(Value Seg, uint32_t Lo, uint32_t Hi, uint32_t RetFp,
                     Value RetCode, Value RetPc, Value Marks, Value Next,
                     ContShot Shot) {
  Value KV = H.makeCont();
  ContObj *K = asCont(KV);
  K->Seg = Seg;
  K->Lo = Lo;
  K->Hi = Hi;
  K->RetFp = RetFp;
  K->RetCode = RetCode;
  K->RetPc = RetPc;
  K->Marks = Marks;
  K->Winders = Regs.Winders;
  K->Next = Next;
  K->MarkHeight = static_cast<uint32_t>(MarkStack.size());
  K->setShot(Shot); // A full record pins its segment.
  // An opportunistic record holds a counted reference to its segment,
  // released when the underflow handler consumes the record.
  if (Shot == ContShot::Opportunistic && Seg.isKind(ObjKind::StackSeg))
    ++asStackSeg(Seg)->RecordRefs;
  return KV;
}

Value VM::makeHaltRecord() {
  Value KV = H.makeCont();
  ContObj *K = asCont(KV);
  // The record covers no slots, so it references no segment: a real Seg
  // here would pin the base segment against recycling for the whole run.
  K->RetCode = HaltCode;
  K->setShot(ContShot::Full);
  return KV;
}

void cmk::copySlice(const ContObj *K, StackSegObj *Dst) {
  uint32_t Len = K->Hi - K->Lo;
  if (Len == 0)
    return; // Empty slices (e.g. a halt record, whose Seg is nil).
  std::memcpy(Dst->Slots, asStackSeg(K->Seg)->Slots + K->Lo,
              sizeof(Value) * Len);
  // Rewrite the saved-fp chain to slot-0-relative indices.
  uint32_t F = K->RetFp - K->Lo;
  while (F > 0) {
    uint32_t OldSaved = static_cast<uint32_t>(Dst->Slots[F + 0].asFixnum());
    CMK_CHECK(OldSaved >= K->Lo && OldSaved < K->Hi,
              "frame chain escapes the captured slice");
    Dst->Slots[F + 0] = Value::fixnum(OldSaved - K->Lo);
    F = OldSaved - K->Lo;
  }
}

void VM::maybeRecycleSegment(Value SegV) {
  if (!Cfg.EnableSegmentRecycling || Cfg.MarkStackMode)
    return;
  if (!SegV.isKind(ObjKind::StackSeg) || SegV == Regs.Seg)
    return;
  StackSegObj *S = asStackSeg(SegV);
  if (S->RecordRefs != 0 ||
      (S->H.Flags & (objflags::SegPinned | objflags::SegPooled)))
    return;
  H.recycleStackSeg(SegV);
}

void VM::reifyCurrentFrame() {
  StackSegObj *S = asStackSeg(Regs.Seg);
  if (S->Slots[Regs.Fp + 1].isUnderflowSentinel())
    return; // Already reified; NextK is this frame's record.

  // Failing fault site: exhaust the heap budget exactly at a reification,
  // the paper's most delicate allocation point (the record and the frame
  // split must both complete out of headroom).
  if (CMK_FAULT(H.faults(), ReifyOom))
    H.injectHeapTrip();

  ++Stats.Reifications;
  ++Stats.ReifyTailFrame;
  CMK_TRACE_EV(Trace, ReifyTailFrame);
  Value KV = mintRecord(
      Regs.Seg, Regs.Base, Regs.Fp,
      static_cast<uint32_t>(S->Slots[Regs.Fp + 0].asFixnum()),
      S->Slots[Regs.Fp + 1], S->Slots[Regs.Fp + 2], Regs.Marks, Regs.NextK,
      Cfg.EnableOneShots ? ContShot::Opportunistic : ContShot::Full);

  S->Slots[Regs.Fp + 1] = Value::underflowSentinel();
  S->Slots[Regs.Fp + 2] = Value::fixnum(0);
  Regs.Base = Regs.Fp;
  Regs.NextK = KV;
}

Value VM::reifyAtSp(ContShot Shot) {
  if (Regs.Sp == Regs.Base && Regs.NextK.isCont()) {
    // Nothing above the stack base: the continuation is exactly the
    // existing record chain (this happens when a native runs in a frame
    // scheduled at a fresh base). Minting a record here would capture an
    // empty slice with a stale resume point.
    return Regs.NextK;
  }
  if (CMK_FAULT(H.faults(), ReifyOom))
    H.injectHeapTrip();
  ++Stats.Reifications;
  ++Stats.ReifySplit;
  CMK_TRACE_EV(Trace, ReifySplit);
  Value KV = mintRecord(Regs.Seg, Regs.Base, Regs.Sp, Regs.Fp, Regs.CurCode,
                        Value::fixnum(Regs.Pc), Regs.Marks, Regs.NextK,
                        Cfg.EnableOneShots ? Shot : ContShot::Full);

  Regs.Base = Regs.Sp;
  Regs.NextK = KV;
  return KV;
}

Value VM::reifyNativeCall(bool Tail) {
  if (!Tail)
    return reifyAtSp(ContShot::Opportunistic);
  // The chain always ends in the run's halt record, so NextK is a valid
  // continuation even at the stack bottom.
  reifyCurrentFrame();
  return Regs.NextK;
}

void VM::moveToFreshSegment(uint32_t Need) {
  ++Stats.SegmentOverflows;
  CMK_TRACE_EV(Trace, SegmentOverflow, Need);
  // Heap-frame mode emulates frame-per-segment allocation (Pycket-like),
  // so its segments are sized to the frame instead of the regular chunk.
  uint32_t Cap = Cfg.HeapFrameMode ? Need + 64
                                   : std::max(Cfg.SegmentSlots, Need + 1024);
  uint32_t Len = Regs.Sp - Regs.Base;
  Value OldSegV = Regs.Seg; // Stays a root until Regs.Seg moves on.
  Value NewSegV = H.makeStackSeg(Cap);
  std::memcpy(asStackSeg(NewSegV)->Slots,
              asStackSeg(OldSegV)->Slots + Regs.Base, sizeof(Value) * Len);
  Regs.Seg = NewSegV;
  Regs.Base = 0;
  Regs.Fp = 0;
  Regs.Sp = Len;
  // The record the caller reified usually still holds the old segment; it
  // is vacated when the reification found nothing above the base.
  maybeRecycleSegment(OldSegV);
}

/// Copies the captured slice of \p K onto a fresh segment and points the
/// registers at it. Restores Fp/Sp from the record; the caller sets the
/// code/pc/marks/winders registers.
static void restoreByCopy(VM &M, ContObj *K) {
  CMK_CHECK(K->Hi >= K->Lo, "corrupt continuation record (hi < lo)");
  // Restored segments are sized to the slice plus a little headroom:
  // underflow copies are on the hot path once the collector has promoted
  // one-shot records (paper 6), so a return through a promoted record must
  // not pay for a full segment. Execution that grows past the headroom
  // overflows into regular segments.
  uint32_t Len = K->Hi - K->Lo;
  // K stays reachable via Regs.
  Value NewSegV = M.heap().makeStackSeg(Len + 128);
  copySlice(K, asStackSeg(NewSegV));

  Value VacatedSegV = M.Regs.Seg;
  M.Regs.Seg = NewSegV;
  M.Regs.Base = 0;
  M.Regs.Fp = K->RetFp - K->Lo;
  M.Regs.Sp = Len;
  // The segment just abandoned is finished with unless some record still
  // holds a slice of it (checked inside).
  M.maybeRecycleSegment(VacatedSegV);
}

/// Loads the resume point, marks, winders and next record of \p K, whose
/// slice is now the live stack.
static void loadRecordRegisters(VM &M, ContObj *K) {
  M.Regs.CurCode = K->RetCode;
  M.Regs.Pc = static_cast<uint32_t>(K->RetPc.asFixnum());
  M.Regs.Marks = K->Marks;
  M.Regs.Winders = K->Winders;
  M.Regs.NextK = K->Next;
  if (M.config().MarkStackMode && M.MarkStack.size() > K->MarkHeight)
    M.MarkStack.resize(K->MarkHeight);
}

bool VM::underflow(Value Result) {
  // Pass-through records (prompt metadata) only restore the marks and
  // winder registers; the value continues to the next record directly.
  while (Regs.NextK.isCont() &&
         asCont(Regs.NextK)->RetCode == ReturnCode) {
    ContObj *K = asCont(Regs.NextK);
    Regs.Marks = K->Marks;
    Regs.Winders = K->Winders;
    if (Cfg.MarkStackMode && MarkStack.size() > K->MarkHeight)
      MarkStack.resize(K->MarkHeight);
    Regs.NextK = K->Next;
  }

  if (Regs.NextK.isNil()) {
    // Process bottom: the run is complete.
    Regs.Marks = Value::nil();
    setSlot(Regs.Sp, Result); // Keep the result traceable.
    ++Regs.Sp;
    return false;
  }

  GCRoot ResultRoot(H, Result);
  Value KV = Regs.NextK;
  ContObj *K = asCont(KV);
  if (K->isExplicitOneShot())
    K->setUsed(); // Returning through a one-shot consumes it.

  if (K->shot() == ContShot::Opportunistic && K->Seg == Regs.Seg &&
      K->Hi == Regs.Base && !CMK_FAULT(H.faults(), NoFuse)) {
    // Paper section 6: the split stack is still contiguous with the current
    // one; fuse them back without copying.
    ++Stats.UnderflowFusions;
    CMK_TRACE_EV(Trace, UnderflowFuse);
    consumeRecordRef(K);
    Regs.Base = K->Lo;
    Regs.Fp = K->RetFp;
    Regs.Sp = K->Hi;
  } else {
    ++Stats.UnderflowCopies;
    CMK_TRACE_EV(Trace, UnderflowCopy);
    // Returning through the record consumes it: its reference is released
    // before the copy so both the vacated segment (inside restoreByCopy)
    // and the record's own source segment can rejoin the pool.
    consumeRecordRef(K);
    restoreByCopy(*this, K);
    maybeRecycleSegment(K->Seg);
  }

  if (Trace.Enabled) {
    // Returning through the record pops every attachment the register
    // holds beyond the record's marks: the end of those wcm extents
    // (categories whose pop is implicit in the reified return).
    for (Value P = Regs.Marks; P.isPair() && !(P == K->Marks); P = cdr(P))
      Trace.record(TraceEv::MarksPop);
  }
  loadRecordRegisters(*this, K);

  setSlot(Regs.Sp, ResultRoot.get());
  ++Regs.Sp;
  return true;
}

/// Makes record \p KV the live continuation for an explicit restore
/// (continuation application, prompt abort): promotes it (which pins its
/// segment), since the record may be restored again and so must never
/// fuse; copies its slice; and loads the registers.
static void restoreRecord(VM &M, Value KV) {
  GCRoot KRoot(M.heap(), KV);
  ContObj *K = asCont(KV);
  if (K->shot() == ContShot::Opportunistic)
    K->setShot(ContShot::Full);
  restoreByCopy(M, K);
  loadRecordRegisters(M, asCont(KRoot.get()));
}

void VM::applyContinuation(Value KV, Value Result) {
  ++Stats.ContinuationApplies;
  CMK_TRACE_EV(Trace, ContApply);
  NativeJumped = true; // A native driving this replaced the continuation.
  GCRoot KRoot(H, KV), ResultRoot(H, Result);
  ContObj *K = asCont(KV);
  // A one-shot continuation (call/1cc) may be used only once, unless a
  // later call/cc promoted it to a full continuation (paper section 6;
  // promotion clears the one-shot marking).
  if (K->isExplicitOneShot()) {
    if (K->isUsed()) {
      raiseError("one-shot continuation used more than once");
      return;
    }
    K->setUsed();
  }
  restoreRecord(*this, KV);
  K = asCont(KRoot.get());
  if (Cfg.MarkStackMode && K->MarkStackCopy.isVector()) {
    // Old-Racket comparator: a captured record carries the whole mark
    // stack, which replaces the live one.
    VectorObj *V = asVector(K->MarkStackCopy);
    MarkStack.clear();
    for (uint32_t I = 0; I + 4 <= V->Len; I += 4)
      MarkStack.push_back({V->Elems[I],
                           static_cast<uint32_t>(V->Elems[I + 1].asFixnum()),
                           V->Elems[I + 2], V->Elems[I + 3]});
  }

  setSlot(Regs.Sp, ResultRoot.get());
  ++Regs.Sp;
}

void VM::jumpToContinuation(Value KV) {
  ++Stats.ContinuationApplies;
  CMK_TRACE_EV(Trace, ContJump);
  NativeJumped = true;
  restoreRecord(*this, KV);
}

Value VM::makePassThroughRecord() {
  // A 4-slot slice holding one frame that returns to the underflow
  // sentinel; resuming runs a lone Return, which forwards the value to the
  // record's Next.
  ++Stats.PassThroughRecords;
  Value SegV = H.makeStackSeg(8);
  GCRoot SegRoot(H, SegV);
  StackSegObj *S = asStackSeg(SegRoot.get());
  S->Slots[0] = Value::fixnum(0);
  S->Slots[1] = Value::underflowSentinel();
  S->Slots[2] = Value::fixnum(0);
  S->Slots[3] = Value::False();
  return mintRecord(SegRoot.get(), 0, FrameHeaderSlots, 0, ReturnCode,
                    Value::fixnum(0), Regs.Marks, Regs.NextK, ContShot::Full);
}

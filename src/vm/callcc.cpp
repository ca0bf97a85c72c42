//===- vm/callcc.cpp - First-class continuation capture --------*- C++ -*-===//
///
/// \file
/// The raw call/cc primitive (paper section 5): capture reifies the
/// current continuation into an underflow-record chain and promotes every
/// one-shot record in the tail to a full continuation (section 6). The
/// winder-aware call/cc that user code sees is defined in the prelude on
/// top of this primitive.
///
//===----------------------------------------------------------------------===//

#include "vm/vm.h"

using namespace cmk;

namespace cmk {

void promoteOneShots(VM &M, Value K) {
  // Chain invariant: once a record is Full, its entire tail is Full, so
  // the walk is amortized constant. Promotion also clears explicit
  // one-shot markings: a promoted one-shot is a full continuation
  // (paper section 6).
  while (K.isCont() && (asCont(K)->shot() == ContShot::Opportunistic ||
                        asCont(K)->isExplicitOneShot())) {
    ++M.stats().OneShotPromotions;
    CMK_TRACE_EV(M.trace(), OneShotPromote);
    asCont(K)->setShot(ContShot::Full);
    asCont(K)->H.Aux &= ~uint16_t(0x300); // Clear one-shot + used bits.
    K = asCont(K)->Next;
  }
}

} // namespace cmk

Value VM::captureOneShot() {
  Value KV = reifyNativeCall(NativeTailCall);
  // Do not demote a record that a previous call/cc already promoted to a
  // full continuation (it may legitimately be used many times).
  if (asCont(KV)->shot() == ContShot::Opportunistic)
    asCont(KV)->setExplicitOneShot();
  return KV;
}

namespace {

/// Deep-copies the record chain and its stack slices: the copy-on-capture
/// (Gambit/CHICKEN-like) strategy used for the ctak strategy comparison.
Value copyChainEagerly(VM &M, Value KV) {
  Heap &H = M.heap();
  GCRoot Orig(H, KV);
  RootedValues Copies(H);
  for (Value P = KV; P.isCont(); P = asCont(P)->Next) {
    GCRoot PRoot(H, P);
    uint32_t Len = asCont(P)->Hi - asCont(P)->Lo;
    GCRoot SegRoot(H, H.makeStackSeg(Len == 0 ? 1 : Len));
    copySlice(asCont(P), asStackSeg(SegRoot.get()));
    Value NewKV = H.makeCont();
    ContObj *K = asCont(PRoot.get());
    ContObj *NewK = asCont(NewKV);
    NewK->Seg = SegRoot.get();
    NewK->Lo = 0;
    NewK->Hi = Len;
    NewK->RetFp = K->RetFp - K->Lo;
    NewK->MarkHeight = K->MarkHeight;
    NewK->RetCode = K->RetCode;
    NewK->RetPc = K->RetPc;
    NewK->Marks = K->Marks;
    NewK->Winders = K->Winders;
    NewK->PromptTag = K->PromptTag;
    NewK->MarkStackCopy = K->MarkStackCopy;
    NewK->setShot(ContShot::Full);
    Copies.push(NewKV);
  }
  // Link the copies.
  Value Next = Value::nil();
  for (size_t I = Copies.size(); I > 0; --I) {
    asCont(Copies[I - 1])->Next = Next;
    Next = Copies[I - 1];
  }
  return Copies.size() ? Copies[0] : Orig.get();
}

/// (#%call/cc f): captures the current continuation, promotes one-shots,
/// and tail-calls f with the continuation record as a procedure.
Value nativeRawCallCC(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isProcedure())
    return typeError(M, "#%call/cc", "procedure", Args[0]);
  GCRoot Proc(M.heap(), Args[0]);
  ++M.stats().ContinuationCaptures;
  CMK_TRACE_EV(M.trace(), Capture, 0);
  uint64_t ReifiedBefore = M.stats().Reifications;

  // Reify opportunistically and promote the whole chain below: creating a
  // Full record directly would break the "Full implies tail Full"
  // invariant that makes promotion amortized constant.
  Value KV = M.reifyNativeCall(M.NativeTailCall);
  M.stats().ReifyForCapture += M.stats().Reifications - ReifiedBefore;
  promoteOneShots(M, KV);

  if (M.config().MarkStackMode) {
    // Old-Racket comparator: capturing copies the whole mark stack.
    GCRoot KRoot(M.heap(), KV);
    uint32_t N = static_cast<uint32_t>(M.MarkStack.size());
    Value Copy = M.heap().makeVector(4 * N, Value::fixnum(0));
    for (uint32_t I = 0; I < N; ++I) {
      VectorObj *V = asVector(Copy);
      V->Elems[4 * I + 0] = M.MarkStack[I].Seg;
      V->Elems[4 * I + 1] = Value::fixnum(M.MarkStack[I].Fp);
      V->Elems[4 * I + 2] = M.MarkStack[I].Key;
      V->Elems[4 * I + 3] = M.MarkStack[I].Val;
    }
    KV = KRoot.get();
    asCont(KV)->MarkStackCopy = Copy;
  }

  if (M.config().CopyOnCapture)
    KV = copyChainEagerly(M, KV);

  Value CallArgs[1] = {KV};
  M.scheduleTailCall(Proc.get(), CallArgs, 1);
  return Value::voidValue();
}

/// (#%call/1cc f): captures a one-shot continuation (paper section 6 /
/// Bruggeman et al.). The capture does not promote the record chain;
/// using the continuation more than once is an error. call/cc promotes
/// captured one-shots to full continuations, after which multiple returns
/// through them are legal again.
Value nativeCallOneShot(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isProcedure())
    return typeError(M, "#%call/1cc", "procedure", Args[0]);
  GCRoot Proc(M.heap(), Args[0]);
  ++M.stats().ContinuationCaptures;
  CMK_TRACE_EV(M.trace(), Capture, 1);
  uint64_t ReifiedBefore = M.stats().Reifications;

  Value KV = M.captureOneShot();
  M.stats().ReifyForCapture += M.stats().Reifications - ReifiedBefore;

  Value CallArgs[1] = {KV};
  M.scheduleTailCall(Proc.get(), CallArgs, 1);
  return Value::voidValue();
}

Value nativeContinuationP(VM &M, Value *Args, uint32_t NArgs) {
  return Value::boolean(Args[0].isCont() || Args[0].isCompositeCont());
}

Value nativeOneShotP(VM &M, Value *Args, uint32_t NArgs) {
  return Value::boolean(Args[0].isCont() &&
                        asCont(Args[0])->isExplicitOneShot());
}

Value nativeContinuationMarksOf(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isCont())
    return typeError(M, "#%continuation-marks-list", "continuation", Args[0]);
  return asCont(Args[0])->Marks;
}

Value nativeContinuationWinders(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isCont())
    return typeError(M, "#%continuation-winders", "continuation", Args[0]);
  return asCont(Args[0])->Winders;
}

} // namespace

void cmk::installControlPrimitives(VM &M) {
  M.defineNative("#%call/cc", nativeRawCallCC, 1, 1);
  M.defineNative("#%call/1cc", nativeCallOneShot, 1, 1);
  M.defineNative("continuation?", nativeContinuationP, 1, 1);
  M.defineNative("one-shot-continuation?", nativeOneShotP, 1, 1);
  M.defineNative("#%continuation-marks-list", nativeContinuationMarksOf, 1, 1);
  M.defineNative("#%continuation-winders", nativeContinuationWinders, 1, 1);
}

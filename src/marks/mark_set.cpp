//===- marks/mark_set.cpp - Mark sets, ->list, -first, iterator -*- C++ -*-==//
///
/// \file
/// The user-facing continuation-mark operations of paper section 2:
/// current-continuation-marks, continuation-marks,
/// continuation-mark-set->list, continuation-mark-set-first (amortized
/// constant time via mark_frame.cpp's caching), and
/// continuation-mark-set->iterator. Each operation also has a mark-stack
/// path for the old-Racket comparator mode.
///
//===----------------------------------------------------------------------===//

#include "marks/marks.h"

#include "runtime/heap.h"
#include "vm/vm.h"

using namespace cmk;

namespace {

Value markSetTag(VM &M) { return M.wellKnown().MarkSet; }
Value markIterTag(VM &M) { return M.wellKnown().MarkIterator; }

bool isMarkSet(VM &M, Value V) {
  return V.isRecord() && asRecord(V)->TypeTag == markSetTag(M);
}

/// Builds a mark set from an explicit marks list (attachment mode).
/// \p Boundary is a shared list tail delimiting the set at a prompt, or
/// nil for an undelimited set.
Value makeMarkSetFromList(VM &M, Value Marks, Value Boundary) {
  GCRoot Root(M.heap(), Marks), BRoot(M.heap(), Boundary);
  Value R = M.heap().makeRecord(markSetTag(M), 2, Value::nil());
  asRecord(R)->Fields[0] = Root.get();
  asRecord(R)->Fields[1] = BRoot.get();
  return R;
}

/// Captures the current marks as a set. In mark-stack mode this copies the
/// whole stack (the old-Racket cost model); in attachment mode it shares
/// the immutable marks list (amortized constant time, paper 2.2).
Value captureCurrentMarks(VM &M, Value Boundary = Value::nil()) {
  CMK_STAT_DETAIL(&M.stats(), MarkSetCaptures);
  CMK_TRACE_EV_P(&M.trace(), MarkSetCapture);
  if (!M.config().MarkStackMode)
    return makeMarkSetFromList(M, M.currentMarksList(), Boundary);
  uint32_t N = static_cast<uint32_t>(M.MarkStack.size());
  Value Copy = M.heap().makeVector(2 * N, Value::fixnum(0));
  for (uint32_t I = 0; I < N; ++I) {
    // Newest first in the snapshot.
    const MarkStackEntry &E = M.MarkStack[N - 1 - I];
    asVector(Copy)->Elems[2 * I] = E.Key;
    asVector(Copy)->Elems[2 * I + 1] = E.Val;
  }
  GCRoot CopyRoot(M.heap(), Copy);
  Value R = M.heap().makeRecord(markSetTag(M), 2, Value::nil());
  asRecord(R)->Fields[0] = CopyRoot.get();
  asRecord(R)->Fields[1] = Value::nil();
  return R;
}

/// The prompt-delimiting boundary tail of a set (nil when undelimited).
Value setBoundary(VM &M, Value SetOrFalse) {
  if (SetOrFalse.isFalse() || !isMarkSet(M, SetOrFalse))
    return Value::nil();
  RecordObj *R = asRecord(SetOrFalse);
  return R->NumFields > 1 ? R->Fields[1] : Value::nil();
}

Value setContents(VM &M, Value SetOrFalse) {
  if (SetOrFalse.isFalse()) {
    // #f is shorthand for (current-continuation-marks), paper 2.2.
    if (M.config().MarkStackMode) {
      Value Set = captureCurrentMarks(M);
      return asRecord(Set)->Fields[0];
    }
    return M.currentMarksList();
  }
  if (!isMarkSet(M, SetOrFalse)) {
    typeError(M, "continuation-mark-set", "mark set or #f", SetOrFalse);
    return Value::undefined();
  }
  return asRecord(SetOrFalse)->Fields[0];
}

Value nativeCurrentMarks(VM &M, Value *Args, uint32_t NArgs) {
  Value Boundary = Value::nil();
  if (NArgs > 0 && !Args[0].isFalse()) {
    // Delimit the set at the innermost prompt with the given tag.
    Value P = M.Regs.NextK;
    Value Found = Value::undefined();
    for (; P.isCont(); P = asCont(P)->Next) {
      Value Meta = asCont(P)->PromptTag;
      if (Meta.isPair() && car(Meta) == Args[0]) {
        Found = asCont(P)->Marks;
        break;
      }
    }
    if (Found.isUndefined())
      return M.raiseError(
          "current-continuation-marks: no prompt with the given tag");
    Boundary = Found;
  }
  return captureCurrentMarks(M, Boundary);
}

Value nativeContinuationMarks(VM &M, Value *Args, uint32_t) {
  if (Args[0].isCont()) {
    ContObj *K = asCont(Args[0]);
    if (M.config().MarkStackMode && K->MarkStackCopy.isVector()) {
      // Convert the 4-wide mark-stack snapshot into a 2-wide set snapshot.
      GCRoot KRoot(M.heap(), Args[0]);
      VectorObj *Src = asVector(K->MarkStackCopy);
      uint32_t N = Src->Len / 4;
      Value Copy = M.heap().makeVector(2 * N, Value::fixnum(0));
      Src = asVector(asCont(KRoot.get())->MarkStackCopy);
      for (uint32_t I = 0; I < N; ++I) {
        asVector(Copy)->Elems[2 * I] = Src->Elems[4 * (N - 1 - I) + 2];
        asVector(Copy)->Elems[2 * I + 1] = Src->Elems[4 * (N - 1 - I) + 3];
      }
      GCRoot CopyRoot(M.heap(), Copy);
      Value R = M.heap().makeRecord(markSetTag(M), 2, Value::nil());
      asRecord(R)->Fields[0] = CopyRoot.get();
      asRecord(R)->Fields[1] = Value::nil();
      return R;
    }
    return makeMarkSetFromList(M, K->Marks, Value::nil());
  }
  return typeError(M, "continuation-marks", "continuation", Args[0]);
}

Value nativeMarkSetP(VM &M, Value *Args, uint32_t) {
  return Value::boolean(isMarkSet(M, Args[0]));
}

Value nativeMarkSetToList(VM &M, Value *Args, uint32_t) {
  Value Contents = setContents(M, Args[0]);
  if (M.failed())
    return Value::undefined();
  if (Contents.isVector()) {
    // Mark-stack snapshot: entries are (key, val) newest first.
    GCRoot Snap(M.heap(), Contents), Key(M.heap(), Args[1]);
    RootedValues Vals(M.heap());
    VectorObj *V = asVector(Snap.get());
    for (uint32_t I = 0; I < V->Len; I += 2)
      if (asVector(Snap.get())->Elems[I] == Key.get())
        Vals.push(asVector(Snap.get())->Elems[I + 1]);
    GCRoot Acc(M.heap(), Value::nil());
    for (size_t I = Vals.size(); I > 0; --I)
      Acc.set(M.heap().makePair(Vals[I - 1], Acc.get()));
    return Acc.get();
  }
  return markListAll(M.heap(), Contents, Args[1], setBoundary(M, Args[0]));
}

Value nativeMarkSetFirst(VM &M, Value *Args, uint32_t NArgs) {
  Value Dflt = NArgs > 2 ? Args[2] : Value::False();
  if (Args[0].isFalse() && !M.config().MarkStackMode)
    return markListFirst(M.heap(), M.currentMarksList(), Args[1], Dflt);
  if (Args[0].isFalse() && M.config().MarkStackMode) {
    // Old-Racket mode: walk the live mark stack newest-first.
    for (size_t I = M.MarkStack.size(); I > 0; --I)
      if (M.MarkStack[I - 1].Key == Args[1])
        return M.MarkStack[I - 1].Val;
    return Dflt;
  }
  Value Contents = setContents(M, Args[0]);
  if (M.failed())
    return Value::undefined();
  if (Contents.isVector()) {
    VectorObj *V = asVector(Contents);
    for (uint32_t I = 0; I < V->Len; I += 2)
      if (V->Elems[I] == Args[1])
        return V->Elems[I + 1];
    return Dflt;
  }
  Value Boundary = setBoundary(M, Args[0]);
  return markListFirst(M.heap(), Contents, Args[1], Dflt,
                       Boundary.isNil() ? Value::undefined() : Boundary);
}

/// (continuation-mark-set->iterator set keys) -> iterator record holding
/// the remaining marks chain and the key list.
Value nativeMarkSetToIterator(VM &M, Value *Args, uint32_t) {
  Value Contents = setContents(M, Args[0]);
  if (M.failed())
    return Value::undefined();
  if (listLength(Args[1]) < 0)
    return typeError(M, "continuation-mark-set->iterator", "list of keys",
                     Args[1]);
  GCRoot ContentsRoot(M.heap(), Contents), Keys(M.heap(), Args[1]);
  GCRoot Boundary(M.heap(), setBoundary(M, Args[0]));
  Value It = M.heap().makeRecord(markIterTag(M), 3, Value::nil());
  asRecord(It)->Fields[0] = ContentsRoot.get();
  asRecord(It)->Fields[1] = Keys.get();
  asRecord(It)->Fields[2] = Boundary.get();
  return It;
}

/// (#%mark-iterator-next it) -> #f when exhausted, else
/// (vector-of-values . next-iterator); absent keys yield #f in the vector.
/// Cost is proportional to the continuation prefix explored (paper 2.2).
Value nativeMarkIteratorNext(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isRecord() || asRecord(Args[0])->TypeTag != markIterTag(M))
    return typeError(M, "#%mark-iterator-next", "mark iterator", Args[0]);
  GCRoot It(M.heap(), Args[0]);
  Value Keys = asRecord(It.get())->Fields[1];
  int64_t NKeys = listLength(Keys);

  Value P = asRecord(It.get())->Fields[0];
  if (P.isVector()) {
    // Mark-stack snapshots do not support frame grouping; treat each entry
    // as its own frame. Fields[0] holds the vector plus an index encoded
    // in Fields[1]... keep it simple: not supported in mark-stack mode.
    return M.raiseError(
        "#%mark-iterator-next: iterators require attachment mode");
  }

  Value Boundary = asRecord(It.get())->Fields[2];
  while (P.isPair() && P != Boundary) {
    Value Att = car(P);
    if (Att.isMarkFrame()) {
      bool Any = false;
      for (Value K = Keys; K.isPair(); K = cdr(K))
        if (!markFrameLookup(Att, car(K)).isUndefined())
          Any = true;
      if (Any) {
        GCRoot Cell(M.heap(), P);
        Value Vec = M.heap().makeVector(static_cast<uint32_t>(NKeys),
                                        Value::False());
        Value K = asRecord(It.get())->Fields[1];
        Value AttNow = car(Cell.get());
        for (int64_t I = 0; I < NKeys; ++I, K = cdr(K)) {
          Value V = markFrameLookup(AttNow, car(K));
          asVector(Vec)->Elems[I] = V.isUndefined() ? Value::False() : V;
        }
        GCRoot VecRoot(M.heap(), Vec);
        Value NextIt = M.heap().makeRecord(markIterTag(M), 3, Value::nil());
        asRecord(NextIt)->Fields[0] = cdr(Cell.get());
        asRecord(NextIt)->Fields[1] = asRecord(It.get())->Fields[1];
        asRecord(NextIt)->Fields[2] = asRecord(It.get())->Fields[2];
        return M.heap().makePair(VecRoot.get(), NextIt);
      }
    }
    P = cdr(P);
  }
  return Value::False();
}

/// (call-with-immediate-continuation-mark key proc [default]): delivers the
/// current frame's mark for key (or the default) to proc in tail position
/// (paper 2.2: a primitive that returned the value directly would be
/// useless, since calling it non-tail would create a new frame).
Value nativeCallWithImmediateMark(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[1].isProcedure())
    return typeError(M, "call-with-immediate-continuation-mark", "procedure",
                     Args[1]);
  Value Dflt = NArgs > 2 ? Args[2] : Value::False();
  Value Result = Dflt;

  if (M.config().MarkStackMode) {
    if (M.NativeTailCall) {
      for (size_t I = M.MarkStack.size(); I > 0; --I) {
        const MarkStackEntry &E = M.MarkStack[I - 1];
        if (!(E.Seg == M.Regs.Seg) || E.Fp != M.Regs.Fp)
          break;
        if (E.Key == Args[0]) {
          Result = E.Val;
          break;
        }
      }
    }
  } else if (M.NativeTailCall &&
             M.frameHasAttachment(asStackSeg(M.Regs.Seg)->Slots, M.Regs.Fp) &&
             car(M.Regs.Marks).isMarkFrame()) {
    // The conceptual frame is the caller's frame (tail call).
    Value V = markFrameLookup(car(M.Regs.Marks), Args[0]);
    if (!V.isUndefined())
      Result = V;
  }
  // Non-tail: the conceptual frame is fresh and has no marks.

  Value CallArgs[1] = {Result};
  M.scheduleTailCall(Args[1], CallArgs, 1);
  return Value::voidValue();
}

Value nativeMarkFrameUpdate(VM &M, Value *Args, uint32_t) {
  return markFrameUpdate(M.heap(), Args[0], Args[1], Args[2]);
}

Value nativeMstkWcmDynamic(VM &M, Value *Args, uint32_t) {
  // Support for dynamic (non-compiled) with-continuation-mark in
  // mark-stack mode, used by the library layer: pushes an entry for the
  // caller's frame, runs the thunk, and relies on frame return to pop.
  if (!Args[2].isProcedure())
    return typeError(M, "#%mstk-wcm", "procedure", Args[2]);
  M.MarkStack.push_back({M.Regs.Seg, M.Regs.Fp, Args[0], Args[1]});
  M.scheduleTailCall(Args[2], nullptr, 0);
  return Value::voidValue();
}

} // namespace

void cmk::installMarkPrimitives(VM &M) {
  M.defineNative("current-continuation-marks", nativeCurrentMarks, 0, 1);
  M.defineNative("continuation-marks", nativeContinuationMarks, 1, 1);
  M.defineNative("continuation-mark-set?", nativeMarkSetP, 1, 1);
  M.defineNative("continuation-mark-set->list", nativeMarkSetToList, 2, 2);
  M.defineNative("continuation-mark-set-first", nativeMarkSetFirst, 2, 3);
  M.defineNative("continuation-mark-set->iterator", nativeMarkSetToIterator,
                 2, 2);
  M.defineNative("#%mark-iterator-next", nativeMarkIteratorNext, 1, 1);
  M.defineNative("call-with-immediate-continuation-mark",
                 nativeCallWithImmediateMark, 2, 3);
  M.defineNative("#%mark-frame-update", nativeMarkFrameUpdate, 3, 3);
  M.defineNative("#%mstk-wcm", nativeMstkWcmDynamic, 3, 3);
}

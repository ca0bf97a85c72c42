//===- control/prompts.cpp - Tagged prompts and composable k's -*- C++ -*-===//
///
/// \file
/// Racket-style delimited control on top of the underflow-record chain:
/// call-with-continuation-prompt marks a record with a (tag . handler)
/// pair; abort walks the chain, restores the prompt's resume point, and
/// invokes the handler there; call-with-composable-continuation captures
/// the record slice between the current point and the prompt, and applying
/// the resulting CompositeCont splices rebased copies of those records
/// onto the current continuation (marks re-consed onto the current marks
/// list, which is what makes delimited continuations "capture and splice
/// subchains of exception handlers in a natural way", paper section 2.3).
///
//===----------------------------------------------------------------------===//

#include "vm/vm.h"

#include "runtime/printer.h"

using namespace cmk;

namespace cmk {
void promoteOneShots(VM &M, Value K); // vm/callcc.cpp
}

namespace {

Value promptTagType(VM &M) { return M.wellKnown().PromptTag; }

bool isPromptTag(VM &M, Value V) {
  return V.isRecord() && asRecord(V)->TypeTag == promptTagType(M);
}

Value nativeMakePromptTag(VM &M, Value *Args, uint32_t NArgs) {
  GCRoot Name(M.heap(),
              NArgs > 0 && Args[0].isSymbol() ? Args[0]
                                              : M.heap().intern("prompt"));
  Value Tag = M.heap().makeRecord(promptTagType(M), 1, Value::False());
  asRecord(Tag)->Fields[0] = Name.get();
  return Tag;
}

Value defaultTag(VM &M) {
  Value Tag = asPair(M.globalCell(M.wellKnown().DefaultPromptTag))->Car;
  CMK_CHECK(Tag.isRecord(), "default prompt tag not installed");
  return Tag;
}

Value nativeDefaultPromptTag(VM &M, Value *, uint32_t) {
  return defaultTag(M);
}

Value nativePromptTagP(VM &M, Value *Args, uint32_t) {
  return Value::boolean(isPromptTag(M, Args[0]));
}

/// (call-with-continuation-prompt thunk [tag] [handler])
Value nativeCallWithPrompt(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isProcedure())
    return typeError(M, "call-with-continuation-prompt", "procedure",
                     Args[0]);
  GCRoot Thunk(M.heap(), Args[0]);
  GCRoot Tag(M.heap(), NArgs > 1 ? Args[1] : defaultTag(M));
  GCRoot Handler(M.heap(), NArgs > 2 ? Args[2] : Value::False());
  if (!isPromptTag(M, Tag.get()))
    return typeError(M, "call-with-continuation-prompt", "prompt tag",
                     Tag.get());

  Value KV;
  if (M.NativeTailCall || M.Regs.Sp == M.Regs.Base) {
    // Tail position (or a frame scheduled at a fresh base): never mutate
    // the frame's (possibly shared) record; push a fresh pass-through
    // record carrying the prompt metadata. The thunk reuses the (reified)
    // frame and returns through the record.
    if (M.NativeTailCall)
      M.reifyCurrentFrame();
    KV = M.makePassThroughRecord();
    M.Regs.NextK = KV;
  } else {
    KV = M.reifyAtSp(ContShot::Opportunistic);
  }
  Value Meta = M.heap().makePair(Tag.get(), Handler.get());
  asCont(KV)->PromptTag = Meta;

  M.scheduleTailCall(Thunk.get(), nullptr, 0);
  return Value::voidValue();
}

/// Finds the innermost record whose PromptTag matches \p Tag; returns
/// undefined if none.
Value findPrompt(VM &M, Value Tag) {
  for (Value P = M.Regs.NextK; P.isCont(); P = asCont(P)->Next) {
    Value Meta = asCont(P)->PromptTag;
    if (Meta.isPair() && car(Meta) == Tag)
      return P;
  }
  return Value::undefined();
}

/// (#%abort-to-prompt tag val): restores the prompt's continuation and
/// invokes its handler with val there. Winders between here and the prompt
/// must already have been unwound by the prelude's abort wrapper.
Value nativeAbortToPrompt(VM &M, Value *Args, uint32_t) {
  Value P = findPrompt(M, Args[0]);
  if (P.isUndefined())
    return M.raiseError("abort-current-continuation: no matching prompt for " +
                        writeToString(Args[0]));
  GCRoot Val(M.heap(), Args[1]);
  Value Meta = asCont(P)->PromptTag;
  Value Handler = cdr(Meta);
  if (Handler.isFalse())
    return M.raiseError(
        "abort-current-continuation: prompt has no abort handler");
  GCRoot HandlerRoot(M.heap(), Handler);

  M.jumpToContinuation(P);
  Value CallArgs[1] = {Val.get()};
  M.scheduleTailCall(HandlerRoot.get(), CallArgs, 1);
  return Value::voidValue();
}

Value nativePromptAvailableP(VM &M, Value *Args, uint32_t) {
  return Value::boolean(!findPrompt(M, Args[0]).isUndefined());
}

/// (#%prompt-winders tag): the winder chain at the innermost matching
/// prompt, used by the prelude's abort wrapper to unwind correctly.
Value nativePromptWinders(VM &M, Value *Args, uint32_t) {
  Value P = findPrompt(M, Args[0]);
  if (P.isUndefined())
    return M.raiseError("abort: no matching prompt for " +
                        writeToString(Args[0]));
  return asCont(P)->Winders;
}

/// (call-with-composable-continuation proc [tag])
Value nativeCallWithComposable(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isProcedure())
    return typeError(M, "call-with-composable-continuation", "procedure",
                     Args[0]);
  GCRoot Proc(M.heap(), Args[0]);
  GCRoot Tag(M.heap(), NArgs > 1 ? Args[1] : defaultTag(M));

  M.reifyNativeCall(M.NativeTailCall); // Promoted with the chain below.

  // Collect the records between here and the prompt (exclusive).
  RootedValues Records(M.heap());
  Value Boundary = Value::undefined();
  for (Value P = M.Regs.NextK; P.isCont(); P = asCont(P)->Next) {
    Value Meta = asCont(P)->PromptTag;
    if (Meta.isPair() && car(Meta) == Tag.get()) {
      Boundary = P;
      break;
    }
    Records.push(P);
  }
  if (Boundary.isUndefined())
    return M.raiseError(
        "call-with-composable-continuation: no matching prompt");
  promoteOneShots(M, M.Regs.NextK);

  GCRoot BoundaryRoot(M.heap(), Boundary);
  Value Comp =
      M.heap().makeCompositeCont(static_cast<uint32_t>(Records.size()));
  for (size_t I = 0; I < Records.size(); ++I)
    asCompositeCont(Comp)->Records[I] = Records[I];
  asCompositeCont(Comp)->BoundaryMarks = asCont(BoundaryRoot.get())->Marks;
  // Record the winder-chain slice the captured extent sits inside, so the
  // prelude's composable wrapper can re-enter those dynamic-winds (run
  // before thunks, push fresh winders) on every application.
  asCompositeCont(Comp)->Winders = M.Regs.Winders;
  asCompositeCont(Comp)->BoundaryWinders = asCont(BoundaryRoot.get())->Winders;

  Value CallArgs[1] = {Comp};
  M.scheduleTailCall(Proc.get(), CallArgs, 1);
  return Value::voidValue();
}

/// (#%composite-winders k) / (#%composite-boundary-winders k): the winder
/// chain at the capture point and at the prompt boundary. The slice
/// between them is what the prelude's composable wrapper re-enters.
Value nativeCompositeWinders(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isCompositeCont())
    return typeError(M, "#%composite-winders", "composable continuation",
                     Args[0]);
  return asCompositeCont(Args[0])->Winders;
}

Value nativeCompositeBoundaryWinders(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isCompositeCont())
    return typeError(M, "#%composite-boundary-winders",
                     "composable continuation", Args[0]);
  return asCompositeCont(Args[0])->BoundaryWinders;
}

/// Re-conses the cells of \p List down to (but excluding) \p Boundary onto
/// \p NewTail.
Value rebaseList(Heap &H, Value List, Value Boundary, Value NewTail) {
  RootedValues Cells(H);
  for (Value P = List; P.isPair() && P != Boundary; P = cdr(P))
    Cells.push(car(P));
  GCRoot Acc(H, NewTail);
  for (size_t I = Cells.size(); I > 0; --I)
    Acc.set(H.makePair(Cells[I - 1], Acc.get()));
  return Acc.get();
}

} // namespace

void cmk::applyCompositeCont(VM &M, Value KV, Value Arg, bool TailMode) {
  Heap &H = M.heap();
  GCRoot KRoot(H, KV), ArgRoot(H, Arg);

  if (asCompositeCont(KV)->NumRecords == 0) {
    // Empty delimited continuation: applying it is the identity in the
    // current continuation.
    if (TailMode) {
      // Deliver Arg as the return value of the current frame: reuse the
      // continuation machinery by reifying and underflowing.
      M.reifyCurrentFrame();
      M.Regs.Sp = M.Regs.Fp;
      M.underflow(ArgRoot.get());
      M.NativeJumped = true;
      return;
    }
    asStackSeg(M.Regs.Seg)->Slots[M.Regs.Sp++] = ArgRoot.get();
    M.NativeJumped = true;
    return;
  }

  // Reify the current point so the spliced records sit on a record
  // boundary.
  M.reifyNativeCall(TailMode);

  GCRoot Boundary(H, asCompositeCont(KRoot.get())->BoundaryMarks);
  GCRoot CurMarks(H, M.Regs.Marks);
  GCRoot NewNext(H, M.Regs.NextK);

  // Clone and rebase outermost..second-innermost records.
  uint32_t N = asCompositeCont(KRoot.get())->NumRecords;
  for (uint32_t I = N; I > 0; --I) {
    Value SrcV = asCompositeCont(KRoot.get())->Records[I - 1];
    GCRoot SrcRoot(H, SrcV);
    Value Rebased =
        rebaseList(H, asCont(SrcRoot.get())->Marks, Boundary.get(),
                   CurMarks.get());
    GCRoot RebasedRoot(H, Rebased);
    ContObj *Src = asCont(SrcRoot.get());
    Value CloneV = M.mintRecord(Src->Seg, Src->Lo, Src->Hi, Src->RetFp,
                                Src->RetCode, Src->RetPc, RebasedRoot.get(),
                                NewNext.get(), ContShot::Full);
    asCont(CloneV)->PromptTag = Src->PromptTag;
    NewNext.set(CloneV);
  }

  // The innermost clone is applied directly: its slice becomes the live
  // stack and Arg is delivered to the capture's resume point.
  M.applyContinuation(NewNext.get(), ArgRoot.get());
}

void cmk::installPromptPrimitives(VM &M) {
  M.defineNative("make-continuation-prompt-tag", nativeMakePromptTag, 0, 1);
  M.defineNative("default-continuation-prompt-tag", nativeDefaultPromptTag, 0,
                 0);
  M.defineNative("continuation-prompt-tag?", nativePromptTagP, 1, 1);
  M.defineNative("call-with-continuation-prompt", nativeCallWithPrompt, 1, 3);
  M.defineNative("#%abort-to-prompt", nativeAbortToPrompt, 2, 2);
  M.defineNative("#%prompt-winders", nativePromptWinders, 1, 1);
  M.defineNative("continuation-prompt-available?", nativePromptAvailableP, 1,
                 1);
  // Raw capture; the prelude wraps it as call-with-composable-continuation
  // so applications re-enter dynamic-wind extents captured in the slice.
  M.defineNative("#%call-with-composable-continuation",
                 nativeCallWithComposable, 1, 2);
  M.defineNative("#%composite-winders", nativeCompositeWinders, 1, 1);
  M.defineNative("#%composite-boundary-winders",
                 nativeCompositeBoundaryWinders, 1, 1);

  Value Tag = M.heap().makeRecord(promptTagType(M), 1,
                                  M.heap().intern("default"));
  M.setGlobal("#%default-prompt-tag", Tag);
}

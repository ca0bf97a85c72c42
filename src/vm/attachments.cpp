//===- vm/attachments.cpp - Generic attachment primitives ------*- C++ -*-===//
///
/// \file
/// The four continuation-attachment primitives of paper section 7.1 as
/// ordinary natives. The compiler recognizes applications with immediate
/// lambda arguments and emits specialized code (codegen.cpp); any other use
/// — including every use under the "no opt" ablation — lands here
/// (footnote 5: "other uses are treated as regular function references").
///
/// A native's conceptual frame depends on how it was called: in tail
/// position it shares the caller's frame (reify splits at the frame), in
/// non-tail position the conceptual frame is fresh (reify splits at the
/// resume point and a fresh frame never has an attachment).
///
//===----------------------------------------------------------------------===//

#include "vm/vm.h"

using namespace cmk;

namespace {

/// True if the running native's conceptual frame currently carries an
/// attachment; *AttOut receives it. A non-tail call's conceptual frame is
/// fresh and has none.
bool currentFrameAttachment(VM &M, Value &AttOut) {
  if (!M.NativeTailCall ||
      !M.frameHasAttachment(asStackSeg(M.Regs.Seg)->Slots, M.Regs.Fp))
    return false;
  AttOut = car(M.Regs.Marks);
  return true;
}

Value nativeCallSetting(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[1].isProcedure())
    return typeError(M, "call-setting-continuation-attachment", "procedure",
                     Args[1]);
  GCRoot Val(M.heap(), Args[0]), Proc(M.heap(), Args[1]);
  CMK_TRACE_EV(M.trace(), AttachOpReify);
  uint64_t ReifiedBefore = M.stats().Reifications;
  M.reifyNativeCall(M.NativeTailCall);
  M.stats().ReifyForAttachOp += M.stats().Reifications - ReifiedBefore;
  CMK_TRACE_EV(M.trace(), AttachSet);
  M.Regs.Marks = M.heap().makePair(Val.get(), M.recordMarks());
  M.scheduleTailCall(Proc.get(), nullptr, 0);
  return Value::voidValue();
}

Value nativeCallGetting(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[1].isProcedure())
    return typeError(M, "call-getting-continuation-attachment", "procedure",
                     Args[1]);
  Value Att = Args[0];
  currentFrameAttachment(M, Att);
  Value CallArgs[1] = {Att};
  M.scheduleTailCall(Args[1], CallArgs, 1);
  return Value::voidValue();
}

Value nativeCallConsuming(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[1].isProcedure())
    return typeError(M, "call-consuming-continuation-attachment", "procedure",
                     Args[1]);
  Value Att = Args[0];
  if (currentFrameAttachment(M, Att)) {
    CMK_TRACE_EV(M.trace(), AttachConsume);
    M.Regs.Marks = M.recordMarks();
  }
  Value CallArgs[1] = {Att};
  M.scheduleTailCall(Args[1], CallArgs, 1);
  return Value::voidValue();
}

Value nativeCurrentAttachments(VM &M, Value *Args, uint32_t NArgs) {
  // The marks register already is a Scheme list (paper 7.1).
  return M.Regs.Marks;
}

} // namespace

namespace cmk {

void installAttachmentPrimitives(VM &M) {
  M.defineNative("call-setting-continuation-attachment", nativeCallSetting, 2,
                 2);
  M.defineNative("call-getting-continuation-attachment", nativeCallGetting, 2,
                 2);
  M.defineNative("call-consuming-continuation-attachment",
                 nativeCallConsuming, 2, 2);
  M.defineNative("current-continuation-attachments",
                 nativeCurrentAttachments, 0, 0);
}

} // namespace cmk

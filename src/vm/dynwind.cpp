//===- vm/dynwind.cpp - dynamic-wind support natives -----------*- C++ -*-===//
///
/// \file
/// Native support for dynamic-wind, which is itself implemented in the
/// prelude (as in Chez Scheme). A winder record carries the marks of the
/// dynamic-wind call's continuation (paper footnote 4): those marks are
/// restored while running one of the winder thunks, via #%call-with-marks.
///
//===----------------------------------------------------------------------===//

#include "vm/vm.h"

using namespace cmk;

namespace {

Value nativePushWinder(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isProcedure() || !Args[1].isProcedure())
    return typeError(M, "#%push-winder", "procedure", Args[0]);
  // Footnote 4: record the marks of the dynamic-wind call's continuation.
  CMK_TRACE_EV(M.trace(), WindEnter);
  M.Regs.Winders =
      M.heap().makeWinder(Args[0], Args[1], M.Regs.Marks, M.Regs.Winders);
  return Value::voidValue();
}

Value nativePopWinder(VM &M, Value *Args, uint32_t NArgs) {
  if (!M.Regs.Winders.isKind(ObjKind::Winder))
    return M.raiseError("#%pop-winder: no winders");
  CMK_TRACE_EV(M.trace(), WindExit);
  M.Regs.Winders = asWinder(M.Regs.Winders)->Next;
  return Value::voidValue();
}

Value nativeWinders(VM &M, Value *Args, uint32_t NArgs) {
  return M.Regs.Winders;
}

Value nativeSetWinders(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isNil() && !Args[0].isKind(ObjKind::Winder))
    return typeError(M, "#%set-winders!", "winder chain", Args[0]);
  M.Regs.Winders = Args[0];
  return Value::voidValue();
}

Value nativeMakeWinder(VM &M, Value *Args, uint32_t NArgs) {
  // (#%make-winder before after marks next): a fresh winder record that is
  // NOT installed in the winder register. The composable-continuation
  // wrapper builds its rebased chain functionally with this, because a
  // #%push-winder inside a helper would not survive the helper's return:
  // underflowing through a reified record restores the caller's winder
  // snapshot (and heap-frame mode reifies at every call).
  if (!Args[0].isProcedure() || !Args[1].isProcedure())
    return typeError(M, "#%make-winder", "procedure", Args[0]);
  if (!Args[3].isNil() && !Args[3].isKind(ObjKind::Winder))
    return typeError(M, "#%make-winder", "winder chain", Args[3]);
  return M.heap().makeWinder(Args[0], Args[1], Args[2], Args[3]);
}

Value winderField(VM &M, Value W, int Field) {
  if (!W.isKind(ObjKind::Winder)) {
    typeError(M, "winder accessor", "winder", W);
    return Value::undefined();
  }
  WinderObj *Obj = asWinder(W);
  switch (Field) {
  case 0:
    return Obj->Before;
  case 1:
    return Obj->After;
  case 2:
    return Obj->Marks;
  default:
    return Obj->Next;
  }
}

Value nativeWinderBefore(VM &M, Value *Args, uint32_t NArgs) {
  return winderField(M, Args[0], 0);
}
Value nativeWinderAfter(VM &M, Value *Args, uint32_t NArgs) {
  return winderField(M, Args[0], 1);
}
Value nativeWinderMarks(VM &M, Value *Args, uint32_t NArgs) {
  return winderField(M, Args[0], 2);
}
Value nativeWinderNext(VM &M, Value *Args, uint32_t NArgs) {
  return winderField(M, Args[0], 3);
}

/// (#%call-with-marks marks thunk): reifies the continuation of this call,
/// installs \p marks as the marks register, and tail-calls the thunk; the
/// underflow on return restores the previous marks. Used to run winder
/// thunks with the marks of the dynamic-wind call (footnote 4).
Value nativeCallWithMarks(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[1].isProcedure())
    return typeError(M, "#%call-with-marks", "procedure", Args[1]);
  GCRoot Marks(M.heap(), Args[0]), Thunk(M.heap(), Args[1]);
  M.reifyNativeCall(M.NativeTailCall);
  M.Regs.Marks = Marks.get();
  M.scheduleTailCall(Thunk.get(), nullptr, 0);
  return Value::voidValue();
}

} // namespace

void cmk::installWinderPrimitives(VM &M) {
  M.defineNative("#%push-winder", nativePushWinder, 2, 2);
  M.defineNative("#%pop-winder", nativePopWinder, 0, 0);
  M.defineNative("#%winders", nativeWinders, 0, 0);
  M.defineNative("#%set-winders!", nativeSetWinders, 1, 1);
  M.defineNative("#%make-winder", nativeMakeWinder, 4, 4);
  M.defineNative("#%winder-before", nativeWinderBefore, 1, 1);
  M.defineNative("#%winder-after", nativeWinderAfter, 1, 1);
  M.defineNative("#%winder-marks", nativeWinderMarks, 1, 1);
  M.defineNative("#%winder-next", nativeWinderNext, 1, 1);
  M.defineNative("#%call-with-marks", nativeCallWithMarks, 2, 2);
}

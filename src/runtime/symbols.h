//===- runtime/symbols.h - Pre-interned well-known symbols ----*- C++ -*-===//
///
/// \file
/// A table of symbols the reader, expander, compiler, and runtime consult
/// on hot paths (core-form keywords, primitive names, record type tags,
/// fiber statuses). Interning them once at startup turns keyword
/// recognition into pointer comparison and keeps interning off every
/// prompt, mark-set, and slice operation.
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_RUNTIME_SYMBOLS_H
#define CMARKS_RUNTIME_SYMBOLS_H

#include "runtime/value.h"

namespace cmk {

class Heap;

/// Well-known symbols, interned eagerly when a VM is created.
struct WellKnown {
  void init(Heap &H);

  // Core forms.
  Value Quote, Lambda, If, Set, Begin, Let, Letrec, LetStar, Define, Else,
      Arrow;
  // Derived forms handled by the expander.
  Value Cond, Case, And, Or, When, Unless, Do, NamedLambda, Quasiquote,
      Unquote, UnquoteSplicing, DefineSyntaxRule, LetValues, WhenDebug;
  // Attachment primitives recognized by the compiler (paper 7.1).
  Value CallSettingAttachment, CallGettingAttachment, CallConsumingAttachment,
      CurrentAttachments;
  // Marks layer forms.
  Value WithContinuationMark;
  // Misc runtime names.
  Value QuoteDot, Ellipsis;
  // Record type tags and the global read on every prompt operation.
  Value PromptTag, DefaultPromptTag, MarkSet, MarkIterator;
  // Fiber slice statuses handed back to the host once per slice.
  Value Timeout, Idle, Retire;
};

} // namespace cmk

#endif // CMARKS_RUNTIME_SYMBOLS_H

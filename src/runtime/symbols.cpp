//===- runtime/symbols.cpp ------------------------------------*- C++ -*-===//

#include "runtime/symbols.h"

#include "runtime/heap.h"

using namespace cmk;

void WellKnown::init(Heap &H) {
  Quote = H.intern("quote");
  Lambda = H.intern("lambda");
  If = H.intern("if");
  Set = H.intern("set!");
  Begin = H.intern("begin");
  Let = H.intern("let");
  Letrec = H.intern("letrec");
  LetStar = H.intern("let*");
  Define = H.intern("define");
  Else = H.intern("else");
  Arrow = H.intern("=>");
  Cond = H.intern("cond");
  Case = H.intern("case");
  And = H.intern("and");
  Or = H.intern("or");
  When = H.intern("when");
  Unless = H.intern("unless");
  Do = H.intern("do");
  NamedLambda = H.intern("named-lambda");
  Quasiquote = H.intern("quasiquote");
  Unquote = H.intern("unquote");
  UnquoteSplicing = H.intern("unquote-splicing");
  DefineSyntaxRule = H.intern("define-syntax-rule");
  LetValues = H.intern("let-values");
  WhenDebug = H.intern("when-debug");
  CallSettingAttachment = H.intern("call-setting-continuation-attachment");
  CallGettingAttachment = H.intern("call-getting-continuation-attachment");
  CallConsumingAttachment = H.intern("call-consuming-continuation-attachment");
  CurrentAttachments = H.intern("current-continuation-attachments");
  WithContinuationMark = H.intern("with-continuation-mark");
  QuoteDot = H.intern(".");
  Ellipsis = H.intern("...");
  PromptTag = H.intern("#%prompt-tag");
  DefaultPromptTag = H.intern("#%default-prompt-tag");
  MarkSet = H.intern("#%mark-set");
  MarkIterator = H.intern("#%mark-iterator");
  Timeout = H.intern("timeout");
  Idle = H.intern("idle");
  Retire = H.intern("retire");
}

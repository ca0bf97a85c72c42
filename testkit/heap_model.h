//===- testkit/heap_model.h - Section 4 reference semantics ----*- C++ -*-===//
///
/// \file
/// An executable reference model of continuations and marks following
/// paper sections 3 and 4 directly: continuation frames are heap-allocated
/// links (a CEK-style machine), and every reference to a frame is paired
/// with a reference to the frame's marks, so capture and application never
/// copy. Attachment operations follow the definitional semantics:
///
///   - a frame's attachment is present iff the current marks chain differs
///     from the chain recorded in the continuation;
///   - setting in tail position replaces the frame's attachment;
///   - a non-tail body runs in a fresh conceptual frame.
///
/// The model interprets the same core AST the compiler consumes (expander
/// output, no optimization passes) and produces ordinary runtime Values,
/// which makes it a direct differential-testing oracle for the optimized
/// stack-based VM (tests/test_heap_model.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_TESTKIT_HEAP_MODEL_H
#define CMARKS_TESTKIT_HEAP_MODEL_H

#include "compiler/ast.h"
#include "runtime/value.h"

#include <memory>
#include <string>
#include <vector>

namespace cmk {

class Heap;

/// Result of a model evaluation.
struct ModelResult {
  bool Ok;
  Value V;            ///< Valid when Ok.
  std::string Error;  ///< Valid when !Ok.
};

/// Interprets \p Toplevel (a zero-argument lambda from the expander) under
/// the section 4 model. Supports the core forms, the four attachment
/// primitives, first-class continuations (capture and reapply), and the
/// basic pure primitives used by the fuzz grammar. The collector is paused
/// for the duration of the run, so programs must be bounded.
ModelResult runHeapModel(Heap &H, LambdaNode *Toplevel, uint64_t StepLimit);

} // namespace cmk

#endif // CMARKS_TESTKIT_HEAP_MODEL_H

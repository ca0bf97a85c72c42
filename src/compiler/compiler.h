//===- compiler/compiler.h - Compiler driver and options ------*- C++ -*-===//
///
/// \file
/// The compilation pipeline: expand -> cp0 -> attachment pass -> free-var
/// analysis -> codegen. CompilerOptions carries the variant switches used
/// throughout the paper's evaluation:
///
///  - EnableAttachments  off = the "no opt" variant of figure 6 (attachment
///    primitives compile as ordinary calls to the generic natives);
///  - EnablePrimRecognition  off = the "no prim" variant (inlined primitive
///    applications no longer enable the direct push/pop category);
///  - AttachmentConstraint  off = pre-attachment cp0 behaviour (the "unmod"
///    compiler of section 8.2, which may elide observable frames).
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_COMPILER_COMPILER_H
#define CMARKS_COMPILER_COMPILER_H

#include "compiler/ast.h"
#include "runtime/value.h"

#include <string>

namespace cmk {

class Heap;
class WellKnown;

struct CompilerOptions {
  bool EnableAttachments = true;
  bool EnablePrimRecognition = true;
  bool AttachmentConstraint = true;
  /// Compile with-continuation-mark onto the old-Racket-style eager mark
  /// stack instead of attachments (the figure 5 comparator). Must match
  /// VMConfig::MarkStackMode.
  bool MarkStackWcm = false;
  /// Route attachment operations through the figure 3 call/cc-based
  /// imitation library instead of the built-in support (the "imitate"
  /// columns of figure 4 and section 8.4). The engine loads the library
  /// and points the marks layer at its attachment stack.
  bool UseImitationAttachments = false;
  /// Run the post-codegen peephole pass (compiler/peephole.cpp): fuses
  /// dominant opcode pairs into superinstructions and elides the marks
  /// cons for straight-line category-(c) extents. Off = the exact
  /// codegen output, used by the differential tests.
  bool EnablePeephole = true;
};

/// Resolves toplevel names to mutable global cells (boxes). Implemented by
/// the VM; the code generator embeds the cells in constant pools.
class GlobalEnv {
public:
  virtual ~GlobalEnv() = default;
  virtual Value globalCell(Value Sym) = 0;
};

/// Statistics the attachment pass reports, used by tests to pin down which
/// category (paper 7.2) each attachment operation landed in.
struct AttachPassStats {
  int TailOps = 0;
  int NonTailWithCallOps = 0;
  int NonTailNoCallOps = 0;
  int FusedConsumeSet = 0;
};

class Compiler {
public:
  Compiler(Heap &H, WellKnown &WK, GlobalEnv &Globals, CompilerOptions Opts);
  ~Compiler();

  /// Compiles one toplevel form to a zero-argument closure (as a Value).
  /// Returns undefined and fills *ErrOut on a compile error.
  Value compileToplevel(Value Form, std::string *ErrOut);

  /// Defines a pattern macro: (define-syntax-rule (name . pattern) template).
  /// The expander consults the macro table on every head position.
  bool defineSyntaxRule(Value Spec, std::string *ErrOut);

  const CompilerOptions &options() const { return Opts; }
  const AttachPassStats &lastAttachStats() const { return LastStats; }

  /// Disassembles compiled code for tests and debugging.
  static std::string disassemble(Value CodeVal);

private:
  friend class Expander;

  Heap &H;
  WellKnown &WK;
  GlobalEnv &Globals;
  CompilerOptions Opts;
  AttachPassStats LastStats;

  // Macro table: list of (pattern . template) pairs, rooted.
  struct MacroDef {
    Value Pattern;  ///< (name . pattern-forms)
    Value Template;
  };
  std::vector<MacroDef> Macros;
  class MacroRoots;
  std::unique_ptr<MacroRoots> MacroRootSource;

  const MacroDef *findMacro(Value NameSym) const;
};

// --- Pass entry points (exposed for unit tests) -----------------------------

/// cp0: source-level simplification with the section 7.4 constraint.
Node *runCp0(AstContext &Ctx, Node *N, const CompilerOptions &Opts,
             const WellKnown &WK);

/// Assigns attachment categories (paper 7.2) and detects consume-set fusion.
void runAttachmentPass(const WellKnown &WK, Node *N,
                       const CompilerOptions &Opts, AttachPassStats &Stats);

/// True if some tail position of \p N is a call that is not an inlinable
/// primitive application (shared between the attachment pass and codegen).
bool bodyHasTailCall(const WellKnown &WK, Node *N, const CompilerOptions &Opts);

/// Computes free variables and capture flags for every lambda.
void runFreeVarsPass(LambdaNode *Toplevel);

/// Generates code for a toplevel (zero-argument) lambda.
Value runCodegen(Heap &H, GlobalEnv &Globals, const WellKnown &WK,
                 LambdaNode *Toplevel, const CompilerOptions &Opts,
                 std::string *ErrOut);

/// True if \p Sym names a primitive the code generator can inline and that
/// is known not to inspect or change continuation attachments (paper 7.2).
bool isInlinablePrim(const WellKnown &WK, Value Sym);

/// Counters the peephole pass reports (exposed for tests).
struct PeepholeStats {
  int PairsFused = 0;
  int MarkExtentsElided = 0;
};

/// Post-codegen peephole pass: superinstruction fusion and category-(c)
/// mark-extent elision over one function's bytecode. Pure function of the
/// input bytes; jump operands are remapped to the rewritten layout.
std::vector<uint8_t> runPeephole(const std::vector<uint8_t> &In,
                                 PeepholeStats *StatsOut = nullptr);

} // namespace cmk

#endif // CMARKS_COMPILER_COMPILER_H

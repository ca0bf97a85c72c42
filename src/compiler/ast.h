//===- compiler/ast.h - Core-language AST ---------------------*- C++ -*-===//
///
/// \file
/// The core language the expander lowers to and that cp0, the attachment
/// pass, and the code generator operate on. Nodes are arena-owned by an
/// AstContext; variables are unique Var objects resolved during expansion.
///
/// Continuation-attachment operations (paper 7.1) appear as dedicated
/// AttachNode forms when the compiler recognizes a primitive applied to an
/// immediate lambda; other uses stay ordinary calls to the generic natives
/// (footnote 5).
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_COMPILER_AST_H
#define CMARKS_COMPILER_AST_H

#include "runtime/value.h"

#include <memory>
#include <string>
#include <vector>

namespace cmk {

enum class NodeKind : uint8_t {
  Const,
  LocalRef,  ///< Reference to a lexical variable.
  GlobalRef, ///< Reference to a toplevel binding.
  LocalSet,
  GlobalSet,
  If,
  Begin,
  Let,    ///< Parallel let (letrec is lowered to let + set!).
  Lambda,
  Call,
  Attach, ///< Recognized call-*-continuation-attachment with immediate lambda.
};

/// Attachment operation kinds (paper 7.1). MStkWcm is not an attachment
/// operation at all: it is with-continuation-mark compiled for the
/// old-Racket-style mark-stack mode (the figure 5 comparator).
enum class AttachOp : uint8_t {
  Set,     ///< call-setting-continuation-attachment
  Get,     ///< call-getting-continuation-attachment
  Consume, ///< call-consuming-continuation-attachment
  MStkWcm, ///< with-continuation-mark on the eager mark stack.
};

/// Position category assigned by the attachment pass (paper 7.2).
enum class AttachCategory : uint8_t {
  Unassigned,
  Tail,              ///< In tail position of the enclosing function.
  NonTailWithCall,   ///< Not tail, but body contains a (true) tail call.
  NonTailNoCall,     ///< Not tail, body has no tail call: pure push/pop.
};

/// Static knowledge about whether the current conceptual frame already has
/// an attachment at a program point (paper 7.2: "the compiler will be able
/// to tell statically whether an attachment is present").
enum class AttachState : uint8_t {
  Unknown,
  Absent,
  Present,
};

/// A unique lexical variable binding.
struct Var {
  Value Name;        ///< Symbol, for diagnostics.
  bool Mutated = false;  ///< Target of set!; mutated vars are boxed.
  bool Captured = false; ///< Appears free in a nested lambda.
  int Slot = -1;         ///< Local slot index, assigned by codegen.
  int FreeIndex = -1;    ///< Index in the enclosing closure, when free.

  bool boxed() const { return Mutated; }
};

struct Node {
  explicit Node(NodeKind K) : K(K) {}
  virtual ~Node() = default; // Nodes are owned as Node* by AstContext.
  NodeKind K;
};

struct ConstNode : Node {
  explicit ConstNode(Value V) : Node(NodeKind::Const), V(V) {}
  Value V;
};

struct LocalRefNode : Node {
  explicit LocalRefNode(Var *V) : Node(NodeKind::LocalRef), V(V) {}
  Var *V;
};

struct GlobalRefNode : Node {
  explicit GlobalRefNode(Value Sym) : Node(NodeKind::GlobalRef), Sym(Sym) {}
  Value Sym;
};

struct LocalSetNode : Node {
  LocalSetNode(Var *V, Node *Rhs) : Node(NodeKind::LocalSet), V(V), Rhs(Rhs) {}
  Var *V;
  Node *Rhs;
};

struct GlobalSetNode : Node {
  GlobalSetNode(Value Sym, Node *Rhs, bool IsDefine)
      : Node(NodeKind::GlobalSet), Sym(Sym), Rhs(Rhs), IsDefine(IsDefine) {}
  Value Sym;
  Node *Rhs;
  bool IsDefine; ///< define creates the binding; set! requires it.
};

struct IfNode : Node {
  IfNode(Node *Test, Node *Then, Node *Else)
      : Node(NodeKind::If), Test(Test), Then(Then), Else(Else) {}
  Node *Test;
  Node *Then;
  Node *Else;
};

struct BeginNode : Node {
  explicit BeginNode(std::vector<Node *> Body)
      : Node(NodeKind::Begin), Body(std::move(Body)) {}
  std::vector<Node *> Body; ///< Non-empty; last expression is the value.
};

struct LetNode : Node {
  LetNode(std::vector<Var *> Vars, std::vector<Node *> Inits, Node *Body)
      : Node(NodeKind::Let), Vars(std::move(Vars)), Inits(std::move(Inits)),
        Body(Body) {}
  std::vector<Var *> Vars;
  std::vector<Node *> Inits;
  Node *Body;
};

struct LambdaNode : Node {
  LambdaNode(std::vector<Var *> Params, bool HasRest, Node *Body, Value Name)
      : Node(NodeKind::Lambda), Params(std::move(Params)), HasRest(HasRest),
        Body(Body), Name(Name) {}
  std::vector<Var *> Params; ///< Includes the rest parameter last, if any.
  bool HasRest;
  Node *Body;
  Value Name;

  /// Free variables, filled by the free-variable pass (outermost lambda
  /// excluded); order defines closure slot layout.
  std::vector<Var *> FreeVars;
};

struct CallNode : Node {
  CallNode(Node *Fn, std::vector<Node *> Args)
      : Node(NodeKind::Call), Fn(Fn), Args(std::move(Args)) {}
  Node *Fn;
  std::vector<Node *> Args;
};

struct AttachNode : Node {
  AttachNode(AttachOp Op, Node *ValOrDflt, Var *BodyVar, Node *Body)
      : Node(NodeKind::Attach), Op(Op), ValOrDflt(ValOrDflt), BodyVar(BodyVar),
        Body(Body) {}
  AttachOp Op;
  Node *ValOrDflt; ///< The value (Set) or default (Get/Consume) expression.
  Var *BodyVar;    ///< Get/Consume bind the attachment here; null for Set.
  Node *Body;      ///< Evaluated in tail position of the attach form.
  Node *Key = nullptr; ///< MStkWcm only: the mark key expression.

  // Filled by the attachment pass (paper 7.2).
  AttachCategory Category = AttachCategory::Unassigned;
  AttachState StateBefore = AttachState::Unknown;
};

/// Owns every node and variable of one compilation unit.
class AstContext {
public:
  template <typename T, typename... Args> T *make(Args &&...As) {
    auto Owned = std::make_unique<T>(std::forward<Args>(As)...);
    T *Raw = Owned.get();
    Nodes.push_back(std::move(Owned));
    return Raw;
  }

  Var *makeVar(Value Name) {
    auto Owned = std::make_unique<Var>();
    Owned->Name = Name;
    Var *Raw = Owned.get();
    Vars.push_back(std::move(Owned));
    return Raw;
  }

private:
  std::vector<std::unique_ptr<Node>> Nodes;
  std::vector<std::unique_ptr<Var>> Vars;
};

// Checked downcasts, LLVM-style.
template <typename T> T *nodeCast(Node *N, NodeKind K) {
  assert(N && N->K == K && "node kind mismatch");
  return static_cast<T *>(N);
}

inline GlobalRefNode *asGlobalRef(Node *N) {
  return nodeCast<GlobalRefNode>(N, NodeKind::GlobalRef);
}
inline LambdaNode *asLambda(Node *N) {
  return nodeCast<LambdaNode>(N, NodeKind::Lambda);
}

} // namespace cmk

#endif // CMARKS_COMPILER_AST_H

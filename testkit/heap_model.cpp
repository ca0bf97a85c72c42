//===- testkit/heap_model.cpp - Section 4 reference semantics --*- C++ -*-===//

#include "testkit/heap_model.h"

#include "marks/marks.h"
#include "runtime/equal.h"
#include "runtime/heap.h"
#include "runtime/numbers.h"
#include "runtime/printer.h"

#include <unordered_map>

using namespace cmk;

namespace {

// --- Machine structure --------------------------------------------------------

struct ModelEnv {
  ModelEnv *Parent = nullptr;
  std::vector<std::pair<Var *, Value>> Slots;

  Value *lookup(Var *V) {
    for (ModelEnv *E = this; E; E = E->Parent)
      for (auto &S : E->Slots)
        if (S.first == V)
          return &S.second;
    return nullptr;
  }
};

enum class ContKind : uint8_t {
  Halt,
  If,        ///< Waiting for the test value.
  Begin,     ///< Waiting for a non-final body value.
  LetBind,   ///< Waiting for a binding's init value.
  SetLocal,
  SetGlobal,
  CallFn,    ///< Waiting for the callee value.
  CallArg,   ///< Waiting for an argument value.
  AttachVal, ///< Waiting for an attachment op's value/default.
};

/// A heap-allocated continuation frame (paper section 4): every frame
/// pairs the link to the next frame with the marks of the rest of the
/// continuation, so capture/apply never copies and returning through a
/// frame restores its marks.
struct Cont {
  ContKind Kind;
  Cont *Next = nullptr;
  Value Marks = Value::nil(); ///< Marks at frame creation.

  ModelEnv *Env = nullptr;
  Node *ThenNode = nullptr;
  Node *ElseNode = nullptr;
  Var *Binder = nullptr;
  Value GlobalName;
  size_t Index = 0;
  Value Callee;
  std::vector<Value> Args;
  const CallNode *Call = nullptr;
  const LetNode *Let = nullptr;
  const BeginNode *Seq = nullptr;
  const AttachNode *Attach = nullptr;
};

struct ModelClosure {
  const LambdaNode *Fn;
  ModelEnv *Env;
};

struct CapturedK {
  Cont *K;
  Value Marks;
};

enum class Prim : int {
  Add,
  Sub,
  Mul,
  NumEq,
  NumLt,
  Cons,
  Car,
  Cdr,
  SetCar,
  SetCdr,
  NullP,
  PairP,
  EqP,
  Not,
  List,
  ZeroP,
  EvenP,
  Length,
  Reverse,
  MarkFrameUpdate,
  MarkFirst,
  CurrentMarks,
  MarkSetToList,
  CurrentAttachments,
  CallCC,
  CallSetting,
  CallGetting,
  CallConsuming,
};

class HeapModel {
public:
  HeapModel(Heap &H, uint64_t StepLimit) : H(H), StepLimit(StepLimit) {
    installGlobals();
  }

  ModelResult run(LambdaNode *Toplevel);

private:
  ModelEnv *newEnv(ModelEnv *Parent) {
    Envs.push_back(std::make_unique<ModelEnv>());
    Envs.back()->Parent = Parent;
    return Envs.back().get();
  }

  Cont *newCont(ContKind Kind, Cont *Next, Value MarksNow) {
    Conts.push_back(std::make_unique<Cont>());
    Cont *K = Conts.back().get();
    K->Kind = Kind;
    K->Next = Next;
    K->Marks = MarksNow;
    return K;
  }

  Value boxClosure(const LambdaNode *Fn, ModelEnv *Env) {
    Closures.push_back({Fn, Env});
    Value R = H.makeRecord(H.intern("#%model-closure"), 1, Value::nil());
    asRecord(R)->Fields[0] = Value::fixnum(
        static_cast<int64_t>(Closures.size() - 1));
    return R;
  }

  Value boxContinuation(Cont *K, Value MarksAtCapture) {
    Captured.push_back({K, MarksAtCapture});
    Value R = H.makeRecord(H.intern("#%model-k"), 1, Value::nil());
    asRecord(R)->Fields[0] = Value::fixnum(
        static_cast<int64_t>(Captured.size() - 1));
    return R;
  }

  Value primMarker(Prim P) {
    Value R = H.makeRecord(H.intern("#%model-prim"), 1, Value::nil());
    asRecord(R)->Fields[0] = Value::fixnum(static_cast<int64_t>(P));
    return R;
  }

  bool isTagged(Value V, const char *Tag) {
    return V.isRecord() && asRecord(V)->TypeTag == H.intern(Tag);
  }

  void installGlobals();
  ModelResult applyPure(Prim P, const std::vector<Value> &Args, Value Marks);

  static ModelResult failure(const std::string &Msg) {
    return {false, Value::undefined(), Msg};
  }

  Heap &H;
  uint64_t StepLimit;

  std::vector<std::unique_ptr<ModelEnv>> Envs;
  std::vector<std::unique_ptr<Cont>> Conts;
  std::vector<ModelClosure> Closures;
  std::vector<CapturedK> Captured;
  std::unordered_map<uint64_t, Value> Globals;
};

void HeapModel::installGlobals() {
  struct Entry {
    const char *Name;
    Prim P;
  };
  const Entry Entries[] = {
      {"+", Prim::Add},
      {"-", Prim::Sub},
      {"*", Prim::Mul},
      {"=", Prim::NumEq},
      {"<", Prim::NumLt},
      {"cons", Prim::Cons},
      {"car", Prim::Car},
      {"cdr", Prim::Cdr},
      {"set-car!", Prim::SetCar},
      {"set-cdr!", Prim::SetCdr},
      {"null?", Prim::NullP},
      {"pair?", Prim::PairP},
      {"eq?", Prim::EqP},
      {"not", Prim::Not},
      {"list", Prim::List},
      {"zero?", Prim::ZeroP},
      {"even?", Prim::EvenP},
      {"length", Prim::Length},
      {"reverse", Prim::Reverse},
      {"#%mark-frame-update", Prim::MarkFrameUpdate},
      {"continuation-mark-set-first", Prim::MarkFirst},
      {"current-continuation-marks", Prim::CurrentMarks},
      {"continuation-mark-set->list", Prim::MarkSetToList},
      {"current-continuation-attachments", Prim::CurrentAttachments},
      {"#%call/cc", Prim::CallCC},
      {"call-setting-continuation-attachment", Prim::CallSetting},
      {"call-getting-continuation-attachment", Prim::CallGetting},
      {"call-consuming-continuation-attachment", Prim::CallConsuming},
  };
  for (const Entry &E : Entries)
    Globals[H.intern(E.Name).raw()] = primMarker(E.P);
}

ModelResult HeapModel::applyPure(Prim P, const std::vector<Value> &Args,
                                 Value Marks) {
  auto Arity = [&](size_t N) { return Args.size() == N; };
  switch (P) {
  case Prim::Add:
  case Prim::Sub:
  case Prim::Mul: {
    if (Args.empty())
      return {true, Value::fixnum(P == Prim::Mul ? 1 : 0), ""};
    Value Acc = Args[0];
    for (size_t I = 1; I < Args.size(); ++I) {
      NumResult R = P == Prim::Add   ? numAdd(H, Acc, Args[I])
                    : P == Prim::Sub ? numSub(H, Acc, Args[I])
                                     : numMul(H, Acc, Args[I]);
      if (!R.Ok)
        return failure("model: arithmetic type error");
      Acc = R.V;
    }
    if (P == Prim::Sub && Args.size() == 1) {
      NumResult R = numSub(H, Value::fixnum(0), Args[0]);
      if (!R.Ok)
        return failure("model: arithmetic type error");
      Acc = R.V;
    }
    return {true, Acc, ""};
  }
  case Prim::NumEq:
  case Prim::NumLt: {
    if (!Arity(2))
      return failure("model: comparison arity");
    int Cmp;
    if (!numCompare(Args[0], Args[1], Cmp))
      return failure("model: comparison type error");
    return {true,
            Value::boolean(P == Prim::NumEq ? Cmp == 0 : Cmp < 0), ""};
  }
  case Prim::Cons:
    if (!Arity(2))
      return failure("model: cons arity");
    return {true, H.makePair(Args[0], Args[1]), ""};
  case Prim::Car:
    if (!Arity(1) || !Args[0].isPair())
      return failure("model: car type error");
    return {true, car(Args[0]), ""};
  case Prim::Cdr:
    if (!Arity(1) || !Args[0].isPair())
      return failure("model: cdr type error");
    return {true, cdr(Args[0]), ""};
  case Prim::SetCar:
  case Prim::SetCdr:
    if (!Arity(2) || !Args[0].isPair())
      return failure("model: set-car!/set-cdr! type error");
    if (P == Prim::SetCar)
      asPair(Args[0])->Car = Args[1];
    else
      asPair(Args[0])->Cdr = Args[1];
    return {true, Value::voidValue(), ""};
  case Prim::NullP:
    return {true, Value::boolean(Args[0].isNil()), ""};
  case Prim::PairP:
    return {true, Value::boolean(Args[0].isPair()), ""};
  case Prim::EqP:
    if (!Arity(2))
      return failure("model: eq? arity");
    return {true, Value::boolean(Args[0] == Args[1]), ""};
  case Prim::Not:
    return {true, Value::boolean(Args[0].isFalse()), ""};
  case Prim::List: {
    Value Acc = Value::nil();
    for (size_t I = Args.size(); I > 0; --I)
      Acc = H.makePair(Args[I - 1], Acc);
    return {true, Acc, ""};
  }
  case Prim::ZeroP:
    return {true,
            Value::boolean(Args[0].isFixnum() && Args[0].asFixnum() == 0),
            ""};
  case Prim::EvenP:
    if (!Args[0].isFixnum())
      return failure("model: even? type error");
    return {true, Value::boolean(Args[0].asFixnum() % 2 == 0), ""};
  case Prim::Length: {
    int64_t N = listLength(Args[0]);
    if (N < 0)
      return failure("model: length type error");
    return {true, Value::fixnum(N), ""};
  }
  case Prim::Reverse: {
    Value Acc = Value::nil();
    for (Value P2 = Args[0]; P2.isPair(); P2 = cdr(P2))
      Acc = H.makePair(car(P2), Acc);
    return {true, Acc, ""};
  }
  case Prim::MarkFrameUpdate:
    if (!Arity(3))
      return failure("model: mark-frame-update arity");
    return {true, markFrameUpdate(H, Args[0], Args[1], Args[2]), ""};
  case Prim::MarkFirst: {
    // (continuation-mark-set-first #f key [dflt])
    if (Args.size() < 2 || !Args[0].isFalse())
      return failure("model: mark-first supports only the #f shorthand");
    Value Dflt = Args.size() > 2 ? Args[2] : Value::False();
    return {true, markListFirst(H, Marks, Args[1], Dflt), ""};
  }
  case Prim::CurrentMarks: {
    Value R = H.makeRecord(H.intern("#%mark-set"), 2, Value::nil());
    asRecord(R)->Fields[0] = Marks;
    return {true, R, ""};
  }
  case Prim::MarkSetToList: {
    if (!Arity(2) || !isTagged(Args[0], "#%mark-set"))
      return failure("model: mark-set->list type error");
    return {true,
            markListAll(H, asRecord(Args[0])->Fields[0], Args[1],
                        Value::nil()),
            ""};
  }
  default:
    return failure("model: primitive is not pure");
  }
}

ModelResult HeapModel::run(LambdaNode *Toplevel) {
  enum class Mode { Eval, Continue, Apply };

  Node *Expr = Toplevel->Body;
  ModelEnv *Env = newEnv(nullptr);
  Value Marks = Value::nil();
  Cont *K = newCont(ContKind::Halt, nullptr, Marks);
  Mode M = Mode::Eval;
  Value V = Value::voidValue();
  bool RestoreMarksOnContinue = true;
  Value ApplyFn = Value::undefined();
  std::vector<Value> ApplyArgs;

  // The current conceptual frame has an attachment iff the register
  // differs from the continuation's recorded marks (paper sections 3/4).
  auto FrameHasAttachment = [&]() { return Marks != K->Marks; };

  for (uint64_t Steps = 0;; ++Steps) {
    if (Steps > StepLimit)
      return failure("model: step limit exceeded");

    if (M == Mode::Eval) {
      switch (Expr->K) {
      case NodeKind::Const:
        V = static_cast<ConstNode *>(Expr)->V;
        M = Mode::Continue;
        break;
      case NodeKind::LocalRef: {
        Value *Cell = Env->lookup(static_cast<LocalRefNode *>(Expr)->V);
        if (!Cell)
          return failure("model: unbound local");
        V = *Cell;
        M = Mode::Continue;
        break;
      }
      case NodeKind::GlobalRef: {
        auto It =
            Globals.find(static_cast<GlobalRefNode *>(Expr)->Sym.raw());
        if (It == Globals.end() || It->second.isUndefined())
          return failure(
              "model: unbound global " +
              displayToString(static_cast<GlobalRefNode *>(Expr)->Sym));
        V = It->second;
        M = Mode::Continue;
        break;
      }
      case NodeKind::LocalSet: {
        auto *S = static_cast<LocalSetNode *>(Expr);
        Cont *NK = newCont(ContKind::SetLocal, K, Marks);
        NK->Binder = S->V;
        NK->Env = Env;
        K = NK;
        Expr = S->Rhs;
        break;
      }
      case NodeKind::GlobalSet: {
        auto *S = static_cast<GlobalSetNode *>(Expr);
        Cont *NK = newCont(ContKind::SetGlobal, K, Marks);
        NK->GlobalName = S->Sym;
        K = NK;
        Expr = S->Rhs;
        break;
      }
      case NodeKind::If: {
        auto *I = static_cast<IfNode *>(Expr);
        Cont *NK = newCont(ContKind::If, K, Marks);
        NK->ThenNode = I->Then;
        NK->ElseNode = I->Else;
        NK->Env = Env;
        K = NK;
        Expr = I->Test;
        break;
      }
      case NodeKind::Begin: {
        auto *B = static_cast<BeginNode *>(Expr);
        if (B->Body.size() == 1) {
          Expr = B->Body[0];
          break;
        }
        Cont *NK = newCont(ContKind::Begin, K, Marks);
        NK->Seq = B;
        NK->Index = 0;
        NK->Env = Env;
        K = NK;
        Expr = B->Body[0];
        break;
      }
      case NodeKind::Let: {
        auto *L = static_cast<LetNode *>(Expr);
        if (L->Vars.empty()) {
          Expr = L->Body;
          break;
        }
        ModelEnv *Inner = newEnv(Env);
        Cont *NK = newCont(ContKind::LetBind, K, Marks);
        NK->Let = L;
        NK->Index = 0;
        NK->Env = Inner;
        K = NK;
        Expr = L->Inits[0];
        Env = Inner; // Inits never reference the new bindings.
        break;
      }
      case NodeKind::Lambda:
        V = boxClosure(static_cast<LambdaNode *>(Expr), Env);
        M = Mode::Continue;
        break;
      case NodeKind::Call: {
        auto *C = static_cast<CallNode *>(Expr);
        Cont *NK = newCont(ContKind::CallFn, K, Marks);
        NK->Call = C;
        NK->Env = Env;
        K = NK;
        Expr = C->Fn;
        break;
      }
      case NodeKind::Attach: {
        auto *A = static_cast<AttachNode *>(Expr);
        if (A->Op == AttachOp::MStkWcm)
          return failure("model: mark-stack forms are out of scope");
        Cont *NK = newCont(ContKind::AttachVal, K, Marks);
        NK->Attach = A;
        NK->Env = Env;
        K = NK;
        Expr = A->ValOrDflt;
        break;
      }
      }
      continue;
    }

    if (M == Mode::Continue) {
      // Returning through a frame restores its marks (the section 4
      // frame/marks pairing) — except when a captured continuation was
      // applied, which restored the captured marks itself.
      if (RestoreMarksOnContinue)
        Marks = K->Marks;
      RestoreMarksOnContinue = true;

      switch (K->Kind) {
      case ContKind::Halt:
        return {true, V, ""};
      case ContKind::If: {
        Cont *Frame = K;
        K = Frame->Next; // Branches are tail positions of the If.
        Expr = V.isTruthy() ? Frame->ThenNode : Frame->ElseNode;
        Env = Frame->Env;
        M = Mode::Eval;
        break;
      }
      case ContKind::Begin: {
        // Frames are immutable (paper section 4): progressing through the
        // sequence creates a fresh frame so captured continuations can be
        // re-entered safely.
        Cont *Frame = K;
        size_t Next = Frame->Index + 1;
        if (Next + 1 == Frame->Seq->Body.size()) {
          K = Frame->Next; // Final expression: tail position.
        } else {
          Cont *NK = newCont(ContKind::Begin, Frame->Next, Frame->Marks);
          NK->Seq = Frame->Seq;
          NK->Index = Next;
          NK->Env = Frame->Env;
          K = NK;
        }
        Expr = Frame->Seq->Body[Next];
        Env = Frame->Env;
        M = Mode::Eval;
        break;
      }
      case ContKind::LetBind: {
        Cont *Frame = K;
        const LetNode *L = Frame->Let;
        // Overwrite on re-entry (the VM reuses let slots the same way).
        bool Found = false;
        for (auto &S : Frame->Env->Slots)
          if (S.first == L->Vars[Frame->Index]) {
            S.second = V;
            Found = true;
          }
        if (!Found)
          Frame->Env->Slots.push_back({L->Vars[Frame->Index], V});
        size_t Next = Frame->Index + 1;
        if (Next < L->Vars.size()) {
          Cont *NK = newCont(ContKind::LetBind, Frame->Next, Frame->Marks);
          NK->Let = L;
          NK->Index = Next;
          NK->Env = Frame->Env;
          K = NK;
          Expr = L->Inits[Next];
        } else {
          K = Frame->Next; // Body is in tail position.
          Expr = L->Body;
        }
        Env = Frame->Env;
        M = Mode::Eval;
        break;
      }
      case ContKind::SetLocal: {
        Value *Cell = K->Env->lookup(K->Binder);
        if (!Cell)
          return failure("model: set! of unbound local");
        *Cell = V;
        V = Value::voidValue();
        K = K->Next;
        break;
      }
      case ContKind::SetGlobal:
        Globals[K->GlobalName.raw()] = V;
        V = Value::voidValue();
        K = K->Next;
        break;
      case ContKind::CallFn: {
        Cont *Frame = K;
        if (Frame->Call->Args.empty()) {
          ApplyFn = V;
          ApplyArgs.clear();
          K = Frame->Next;
          M = Mode::Apply;
          break;
        }
        Cont *NK = newCont(ContKind::CallArg, Frame->Next, Frame->Marks);
        NK->Call = Frame->Call;
        NK->Env = Frame->Env;
        NK->Callee = V;
        NK->Index = 0;
        K = NK;
        Expr = Frame->Call->Args[0];
        Env = Frame->Env;
        M = Mode::Eval;
        break;
      }
      case ContKind::CallArg: {
        // Immutable progression: each completed argument yields a fresh
        // frame holding one more done-value.
        Cont *Frame = K;
        size_t DoneCount = Frame->Index + 1;
        if (DoneCount < Frame->Call->Args.size()) {
          Cont *NK = newCont(ContKind::CallArg, Frame->Next, Frame->Marks);
          NK->Call = Frame->Call;
          NK->Env = Frame->Env;
          NK->Callee = Frame->Callee;
          NK->Args = Frame->Args;
          NK->Args.push_back(V);
          NK->Index = DoneCount;
          K = NK;
          Expr = Frame->Call->Args[DoneCount];
          Env = Frame->Env;
          M = Mode::Eval;
          break;
        }
        ApplyFn = Frame->Callee;
        ApplyArgs = Frame->Args; // Copy: the frame may be re-entered.
        ApplyArgs.push_back(V);
        K = Frame->Next;
        M = Mode::Apply;
        break;
      }
      case ContKind::AttachVal: {
        Cont *Frame = K;
        const AttachNode *A = Frame->Attach;
        K = Frame->Next;
        Env = Frame->Env;
        switch (A->Op) {
        case AttachOp::Set:
          Marks = FrameHasAttachment() ? H.makePair(V, cdr(Marks))
                                       : H.makePair(V, Marks);
          break;
        case AttachOp::Get:
        case AttachOp::Consume: {
          Value AttVal = FrameHasAttachment() ? car(Marks) : V;
          if (A->Op == AttachOp::Consume && FrameHasAttachment())
            Marks = K->Marks;
          ModelEnv *Inner = newEnv(Frame->Env);
          Inner->Slots.push_back({A->BodyVar, AttVal});
          Env = Inner;
          break;
        }
        case AttachOp::MStkWcm:
          return failure("model: mark-stack forms are out of scope");
        }
        Expr = A->Body; // Tail position of the attach form.
        M = Mode::Eval;
        break;
      }
      }
      continue;
    }

    // Mode::Apply — apply ApplyFn to ApplyArgs with continuation K.
    M = Mode::Continue;
    if (isTagged(ApplyFn, "#%model-closure")) {
      const ModelClosure &C =
          Closures[asRecord(ApplyFn)->Fields[0].asFixnum()];
      const LambdaNode *L = C.Fn;
      size_t Required = L->HasRest ? L->Params.size() - 1 : L->Params.size();
      if (L->HasRest ? ApplyArgs.size() < Required
                     : ApplyArgs.size() != Required)
        return failure("model: arity mismatch");
      ModelEnv *Inner = newEnv(C.Env);
      for (size_t I = 0; I < Required; ++I)
        Inner->Slots.push_back({L->Params[I], ApplyArgs[I]});
      if (L->HasRest) {
        Value Rest = Value::nil();
        for (size_t I = ApplyArgs.size(); I > Required; --I)
          Rest = H.makePair(ApplyArgs[I - 1], Rest);
        Inner->Slots.push_back({L->Params[Required], Rest});
      }
      Expr = L->Body;
      Env = Inner;
      M = Mode::Eval;
      continue;
    }
    if (isTagged(ApplyFn, "#%model-k")) {
      if (ApplyArgs.size() != 1)
        return failure("model: continuation expects 1 argument");
      const CapturedK &CK = Captured[asRecord(ApplyFn)->Fields[0].asFixnum()];
      K = CK.K;
      Marks = CK.Marks; // Section 4: a continuation is a frame paired
                        // with its marks; applying restores both.
      V = ApplyArgs[0];
      RestoreMarksOnContinue = false;
      continue;
    }
    if (!isTagged(ApplyFn, "#%model-prim"))
      return failure("model: application of non-procedure");

    Prim P = static_cast<Prim>(asRecord(ApplyFn)->Fields[0].asFixnum());
    switch (P) {
    case Prim::CallCC: {
      if (ApplyArgs.size() != 1)
        return failure("model: #%call/cc expects 1 argument");
      // The capture pairs the continuation with *its* marks: a frame being
      // exited by a tail call is not part of the captured continuation, so
      // neither is its attachment (paper section 3, last paragraph).
      Value KV = boxContinuation(K, K->Marks);
      ApplyFn = ApplyArgs[0];
      ApplyArgs = {KV};
      M = Mode::Apply; // Tail call: same continuation, same marks.
      break;
    }
    case Prim::CallSetting: {
      if (ApplyArgs.size() != 2)
        return failure("model: call-setting expects 2 arguments");
      Marks = FrameHasAttachment() ? H.makePair(ApplyArgs[0], cdr(Marks))
                                   : H.makePair(ApplyArgs[0], Marks);
      ApplyFn = ApplyArgs[1];
      ApplyArgs = {};
      M = Mode::Apply;
      break;
    }
    case Prim::CallGetting:
    case Prim::CallConsuming: {
      if (ApplyArgs.size() != 2)
        return failure("model: attachment primitive expects 2 arguments");
      Value AttVal = FrameHasAttachment() ? car(Marks) : ApplyArgs[0];
      if (P == Prim::CallConsuming && FrameHasAttachment())
        Marks = K->Marks;
      ApplyFn = ApplyArgs[1];
      ApplyArgs = {AttVal};
      M = Mode::Apply;
      break;
    }
    case Prim::CurrentAttachments:
      V = Marks;
      break;
    default: {
      ModelResult R = applyPure(P, ApplyArgs, Marks);
      if (!R.Ok)
        return R;
      V = R.V;
      break;
    }
    }
  }
}

} // namespace

ModelResult cmk::runHeapModel(Heap &H, LambdaNode *Toplevel,
                              uint64_t StepLimit) {
  GCPauseScope Pause(H); // C++-side machine state is invisible to the GC.
  HeapModel Model(H, StepLimit);
  return Model.run(Toplevel);
}

//===- api/scheme.cpp - Embedding API implementation -----------*- C++ -*-===//

#include "api/scheme.h"

#include "lib/prelude.h"
#include "reader/reader.h"
#include "runtime/printer.h"
#include "support/metrics.h"

#include <cstdio>

using namespace cmk;

namespace {

/// Fault injection targets the *running program*: hits accumulated while
/// reading or compiling would make site numbering depend on source size
/// and compiler internals. RAII so a real exhaustion mid-compile unwinds
/// cleanly through the pause.
struct FaultPause {
  FaultInjector &F;
  explicit FaultPause(FaultInjector &Inj) : F(Inj) { F.suspend(); }
  ~FaultPause() { F.resume(); }
};

/// A failed fiber's kind symbol (the prelude's #%exn-kind names, which
/// match tripKindName's spellings) and back.
const char *kindSymbolName(ErrorKind K) {
  switch (K) {
  case ErrorKind::HeapLimit:
    return "heap-limit";
  case ErrorKind::StackLimit:
    return "stack-limit";
  case ErrorKind::Timeout:
    return "timeout";
  case ErrorKind::Interrupt:
    return "interrupt";
  case ErrorKind::None:
  case ErrorKind::Runtime:
    break;
  }
  return "error";
}

ErrorKind errorKindOfSymbolName(const std::string &Name) {
  for (ErrorKind K : {ErrorKind::HeapLimit, ErrorKind::StackLimit,
                      ErrorKind::Timeout, ErrorKind::Interrupt})
    if (Name == kindSymbolName(K))
      return K;
  return ErrorKind::Runtime;
}

} // namespace

EngineOptions EngineOptions::forVariant(EngineVariant V) {
  EngineOptions Opts;
  switch (V) {
  case EngineVariant::Builtin:
    break;
  case EngineVariant::NoOpt:
    Opts.CompilerOpts.EnableAttachments = false;
    break;
  case EngineVariant::NoPrim:
    Opts.CompilerOpts.EnablePrimRecognition = false;
    break;
  case EngineVariant::No1cc:
    Opts.VmCfg.EnableOneShots = false;
    break;
  case EngineVariant::Unmod:
    Opts.CompilerOpts.EnableAttachments = false;
    Opts.CompilerOpts.AttachmentConstraint = false;
    break;
  case EngineVariant::Imitate:
    Opts.CompilerOpts.UseImitationAttachments = true;
    break;
  case EngineVariant::MarkStack:
    Opts.VmCfg.MarkStackMode = true;
    Opts.CompilerOpts.MarkStackWcm = true;
    Opts.VmCfg.EnableOneShots = false;
    break;
  case EngineVariant::HeapFrames:
    Opts.VmCfg.HeapFrameMode = true;
    break;
  case EngineVariant::CopyOnCapture:
    Opts.VmCfg.CopyOnCapture = true;
    break;
  }
  return Opts;
}

SchemeEngine::SchemeEngine(const EngineOptions &Opts)
    : Machine(Opts.VmCfg),
      Comp(Machine.heap(), Machine.wellKnown(), Machine, Opts.CompilerOpts) {
  // Fault injection (CMARKS_FAULT_SPEC) targets user programs, not the
  // engine's own bootstrap: suspend it until the prelude is resident.
  Machine.faults().configureFromEnv();
  Machine.faults().suspend();
  if (Opts.CompilerOpts.UseImitationAttachments) {
    // The imitation library must exist before the prelude compiles, since
    // the prelude's with-continuation-mark forms expand into its calls.
    eval(imitationSource());
    CMK_CHECK(ok(), "imitation library failed to load");
    Machine.ImitationAtts =
        Machine.globalCell(Machine.heap().intern("#%imitate-atts"));
  }
  if (Opts.LoadPrelude) {
    eval(preludeSource());
    CMK_CHECK(ok(), "prelude failed to load");
  }
  Machine.faults().resume();
}

SchemeEngine::~SchemeEngine() = default;

std::string SchemeEngine::readForms(const std::string &Source,
                                    RootedValues &Forms) {
  FaultPause Pause(Machine.faults());
  std::string Err;
  std::vector<Value> Raw = readAllFromString(Machine.heap(), Source, &Err);
  if (!Err.empty())
    return "read error: " + Err;
  for (Value V : Raw)
    Forms.push(V);
  return "";
}

Value SchemeEngine::compileForm(Value Form, std::string &Err) {
  FaultPause Pause(Machine.faults());
  std::string CompileError;
  Value Code = Comp.compileToplevel(Form, &CompileError);
  if (!CompileError.empty()) {
    Err = "compile error: " + CompileError;
    return Value::undefined();
  }
  GCRoot CodeRoot(Machine.heap(), Code);
  return Machine.heap().makeClosure(CodeRoot.get(), 0);
}

Value SchemeEngine::fail(const std::string &Msg, ErrorKind Kind, bool Fatal) {
  LastError = Msg;
  LastErrKind = Kind;
  LastErrFatal = Fatal;
  return Value::undefined();
}

Value SchemeEngine::failFromVM() {
  fail(Machine.errorMessage(), Machine.errorKind(), Machine.errorFatal());
  Machine.clearError();
  return Value::undefined();
}

Value SchemeEngine::failExhausted(const ResourceExhausted &Ex) {
  Machine.clearError();
  return fail(Ex.What, errorKindOf(Ex.Kind), /*Fatal=*/true);
}

Value SchemeEngine::eval(const std::string &Source) {
  LastError.clear();
  LastErrKind = ErrorKind::None;
  LastErrFatal = false;
  Heap &H = Machine.heap();

  // The reader and compiler allocate outside applyProcedure's recovery
  // scope, so a heap budget exhausted during read/compile surfaces here.
  try {
    // Read all forms up front (rooted), then compile and run one at a
    // time: a form's compile error leaves the earlier forms' effects.
    RootedValues Forms(H);
    std::string Err = readForms(Source, Forms);
    if (!Err.empty())
      return fail(Err, ErrorKind::Runtime);
    GCRoot Result(H, Value::voidValue());
    for (size_t I = 0; I < Forms.size(); ++I) {
      GCRoot Closure(H, compileForm(Forms[I], Err));
      if (!Err.empty())
        return fail(Err, ErrorKind::Runtime);
      bool Ok = false;
      Value V = Machine.applyProcedure(Closure.get(), nullptr, 0, Ok);
      if (!Ok)
        return failFromVM();
      Result.set(V);
    }
    return Result.get();
  } catch (const ResourceExhausted &Ex) {
    return failExhausted(Ex);
  }
}

std::string SchemeEngine::evalToString(const std::string &Source) {
  Value V = eval(Source);
  if (!ok())
    return "";
  return writeToString(V);
}

Value SchemeEngine::evalOrDie(const std::string &Source) {
  Value V = eval(Source);
  if (!ok()) {
    std::fprintf(stderr, "cmarks eval failed: %s\n", LastError.c_str());
    std::abort();
  }
  return V;
}

bool SchemeEngine::dumpTrace(const std::string &Path) {
  return writeFile(Path, Machine.trace().toJson());
}

bool SchemeEngine::dumpProfile(const std::string &Path) {
  return writeFile(Path, Machine.profiler().toCollapsed());
}

std::string SchemeEngine::metricsText() const {
  MetricsRegistry R;
  Machine.fillMetrics(R);
  return R.prometheusText();
}

std::string SchemeEngine::metricsJson() const {
  MetricsRegistry R;
  Machine.fillMetrics(R);
  return R.json("engine");
}

uint64_t SchemeEngine::spawnFiberJob(const std::string &Source,
                                     const EngineLimits &L, uint64_t JobId,
                                     uint64_t DeadlineNs, uint64_t DelayNs,
                                     std::string *CompileErr) {
  // Like eval, a host out-of-memory while reading or compiling fails the
  // job rather than unwinding into the worker.
  try {
    Heap &H = Machine.heap();
    FaultPause Pause(Machine.faults());
    RootedValues Forms(H);
    std::string Err = readForms(Source, Forms);
    // Compile every toplevel form up front to a closure; the fiber runs the
    // list through the prelude's #%run-thunks when it is first scheduled.
    RootedValues Thunks(H);
    for (size_t I = 0; Err.empty() && I < Forms.size(); ++I)
      Thunks.push(compileForm(Forms[I], Err));
    if (!Err.empty()) {
      if (CompileErr)
        *CompileErr = Err;
      return 0;
    }
    GCRoot ThunkList(H, Value::nil());
    for (size_t I = Thunks.size(); I > 0; --I)
      ThunkList.set(H.makePair(Thunks[I - 1], ThunkList.get()));
    Value Runner = Machine.getGlobal("#%run-thunks");
    if (!Runner.isClosure()) {
      if (CompileErr)
        *CompileErr = "#%run-thunks is not defined (prelude not loaded)";
      return 0;
    }
    GCRoot ArgsList(H, H.makePair(ThunkList.get(), Value::nil()));
    Value FV = Machine.Fibers.spawnJob(Machine, Runner, ArgsList.get(), L,
                                       JobId, DeadlineNs, DelayNs);
    return asFiber(FV)->Id;
  } catch (const ResourceExhausted &Ex) {
    if (CompileErr)
      *CompileErr = Ex.What;
    return 0;
  }
}

Value SchemeEngine::runFiberSlice() {
  LastError.clear();
  LastErrKind = ErrorKind::None;
  LastErrFatal = false;
  Value Slice = Machine.getGlobal("#%fiber-slice");
  if (!Slice.isClosure())
    return fail("#%fiber-slice is not defined (prelude not loaded)",
                ErrorKind::Runtime);
  bool Ok = false;
  Value V;
  try {
    // The slice glue needs a handful of slots; fibers boot and resume on
    // segments of their own.
    V = Machine.applyProcedure(Slice, nullptr, 0, Ok, /*BaseSlots=*/256);
  } catch (const ResourceExhausted &Ex) {
    return failExhausted(Ex);
  }
  return Ok ? V : failFromVM();
}

void SchemeEngine::failCurrentFiber() {
  Value KindSym = Machine.heap().intern(kindSymbolName(LastErrKind));
  Machine.Fibers.failCurrent(Machine, LastError, KindSym);
}

std::vector<FiberJobInfo> SchemeEngine::takeFinishedFiberJobs() {
  std::vector<FiberJobInfo> Out;
  Value ExnSym = Machine.heap().intern("#%exn");
  for (Value FV : Machine.Fibers.takeDoneJobs()) {
    FiberObj *F = asFiber(FV);
    FiberJobInfo Info;
    Info.Id = F->Id;
    Info.Ok = !F->erred();
    Info.RunNs = F->RunNs;
    if (ResourceAccount *A = F->Account) {
      Info.FaultsInjected = A->FaultsInjected;
      Machine.heap().releaseAccount(A);
      F->Account = nullptr;
    }
    if (F->erred()) {
      // Thrown exn records carry their message at slot 1; anything else
      // thrown is reported by its written form.
      Value R = F->Result;
      if (R.isVector() && asVector(R)->Len > 1 &&
          asVector(R)->Elems[0] == ExnSym)
        Info.Output = displayToString(asVector(R)->Elems[1]);
      else if (R.isString())
        Info.Output = displayToString(R);
      else
        Info.Output = writeToString(R);
      Info.Kind = errorKindOfSymbolName(
          F->ErrKindSym.isSymbol() ? displayToString(F->ErrKindSym) : "error");
    } else {
      Info.Output = writeToString(F->Result);
    }
    Out.push_back(std::move(Info));
  }
  return Out;
}

Value SchemeEngine::apply(Value Fn, const std::vector<Value> &Args) {
  LastError.clear();
  LastErrKind = ErrorKind::None;
  LastErrFatal = false;
  bool Ok = false;
  Value V = Machine.applyProcedure(Fn, Args.data(),
                                   static_cast<uint32_t>(Args.size()), Ok);
  return Ok ? V : failFromVM();
}

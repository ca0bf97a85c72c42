//===- tools/cmarks_repl.cpp - Interactive driver --------------*- C++ -*-===//
///
/// \file
/// A command-line driver for the cmarks Scheme system:
///
///   cmarks_repl                      interactive REPL
///   cmarks_repl file.scm ...         run files
///   cmarks_repl -e '(+ 1 2)'         evaluate an expression
///   cmarks_repl --variant=no-opt     pick a system variant (see --help)
///   cmarks_repl --disasm -e '...'    show compiled bytecode instead
///
//===----------------------------------------------------------------------===//

#include "api/scheme.h"
#include "reader/reader.h"
#include "runtime/printer.h"
#include "support/pool.h"
#include "support/timing.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace cmk;

namespace {

struct CliOptions {
  EngineVariant Variant = EngineVariant::Builtin;
  bool Disasm = false;
  bool ShowHelp = false;
  bool ShowStats = false;
  bool FaultReport = false; ///< --fault-report: injector summary on exit.
  std::string TraceFile;    ///< --trace=FILE: record and dump on exit.
  std::string MetricsFile;  ///< --metrics=FILE: export on exit (.prom =>
                            ///< Prometheus text, else cmarks-metrics-v1 JSON).
  std::string ProfileFile;  ///< --profile=FILE: collapsed stacks on exit.
  uint32_t ProfileHz = 0;   ///< --profile-hz=N (0 = profiler default).
  EngineLimits Limits;      ///< --heap-limit / --stack-limit / --timeout.
  uint64_t DeadlineMs = 0;  ///< --deadline: whole-run wall-clock budget.
  std::vector<std::string> Files;
  std::vector<std::string> Exprs;
};

/// Exit codes: 0 success, 1 ordinary error, 2 usage, 3 resource-limit
/// trip, 130 interrupt (matching the shell convention for SIGINT).
/// The serving outcomes reuse the pool's table (jobOutcomeExitCode):
/// 5 = deadline expired before the work ran, 4 = shed by admission
/// control (pool-only; reserved here so the two tables stay aligned).
enum ExitCode {
  ExitOk = 0,
  ExitError = 1,
  ExitUsage = 2,
  ExitLimit = 3,
  ExitInterrupt = 130,
};

int exitCodeFor(const SchemeEngine &E) {
  switch (E.lastErrorKind()) {
  case ErrorKind::HeapLimit:
  case ErrorKind::StackLimit:
  case ErrorKind::Timeout:
    return ExitLimit;
  case ErrorKind::Interrupt:
    return ExitInterrupt;
  default:
    return ExitError;
  }
}

/// Parses "8M", "512k", "1G", "65536" into bytes; false on junk.
bool parseByteSize(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  unsigned long long N = std::strtoull(S.c_str(), &End, 10);
  if (End == S.c_str())
    return false;
  uint64_t Mult = 1;
  if (*End == 'k' || *End == 'K')
    Mult = 1ull << 10;
  else if (*End == 'm' || *End == 'M')
    Mult = 1ull << 20;
  else if (*End == 'g' || *End == 'G')
    Mult = 1ull << 30;
  else if (*End != '\0')
    return false;
  if (Mult > 1)
    ++End;
  if (*End != '\0')
    return false;
  Out = static_cast<uint64_t>(N) * Mult;
  return true;
}

bool parseCount(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoull(S.c_str(), &End, 10);
  return End != S.c_str() && *End == '\0';
}

/// The engine the SIGINT handler pokes; requestInterrupt is a single
/// atomic store, so it is safe from a signal context.
SchemeEngine *InterruptTarget = nullptr;

void onSigInt(int) {
  if (InterruptTarget)
    InterruptTarget->requestInterrupt();
}

bool parseVariant(const std::string &Name, EngineVariant &Out) {
  struct Entry {
    const char *Name;
    EngineVariant V;
  };
  const Entry Entries[] = {
      {"builtin", EngineVariant::Builtin},
      {"no-opt", EngineVariant::NoOpt},
      {"no-prim", EngineVariant::NoPrim},
      {"no-1cc", EngineVariant::No1cc},
      {"unmod", EngineVariant::Unmod},
      {"imitate", EngineVariant::Imitate},
      {"mark-stack", EngineVariant::MarkStack},
      {"heap-frames", EngineVariant::HeapFrames},
      {"copy-on-capture", EngineVariant::CopyOnCapture},
  };
  for (const Entry &E : Entries)
    if (Name == E.Name) {
      Out = E.V;
      return true;
    }
  return false;
}

void printHelp() {
  std::printf(
      "cmarks: compiler and runtime support for continuation marks\n"
      "usage: cmarks_repl [options] [file.scm ...]\n"
      "  -e EXPR            evaluate EXPR (may be repeated)\n"
      "  --variant=NAME     builtin | no-opt | no-prim | no-1cc | unmod |\n"
      "                     imitate | mark-stack | heap-frames |\n"
      "                     copy-on-capture\n"
      "  --disasm           print bytecode for -e expressions and exit\n"
      "  --stats            print runtime event counters to stderr on exit\n"
      "  --trace=FILE       record VM events; write Chrome trace-event\n"
      "                     JSON (load in ui.perfetto.dev) to FILE on exit\n"
      "  --metrics=FILE     write a metrics snapshot on exit: Prometheus\n"
      "                     text when FILE ends in .prom, else\n"
      "                     cmarks-metrics-v1 JSON\n"
      "  --profile=FILE     run the safe-point sampling profiler; write\n"
      "                     collapsed stacks (flamegraph.pl/speedscope)\n"
      "                     to FILE on exit\n"
      "  --profile-hz=N     sampling rate for --profile (default 97)\n"
      "  --heap-limit=N     heap budget in bytes (K/M/G suffixes ok);\n"
      "                     exceeding it raises a catchable exn:heap-limit?\n"
      "  --stack-limit=N    max live stack segments; deep recursion raises\n"
      "                     a catchable exn:stack-limit?\n"
      "  --timeout=MS       per-evaluation wall-clock budget; raises a\n"
      "                     catchable exn:timeout?\n"
      "  --deadline=MS      wall-clock deadline for the whole batch run;\n"
      "                     each file/-e gets at most the remaining time\n"
      "                     (folded into --timeout), and work not started\n"
      "                     by the deadline is shed with exit code 5\n"
      "  --fault-report     print fault-injection site summary on exit\n"
      "                     (sites armed via CMARKS_FAULT_SPEC)\n"
      "  -h, --help         this message\n"
      "With no files or -e options, starts an interactive REPL.\n"
      "Ctrl-C interrupts the running evaluation (catchable as\n"
      "exn:interrupt?). Exit codes: 0 ok, 1 error, 2 usage, 3 resource\n"
      "limit, 4 shed (serving pool only), 5 deadline expired,\n"
      "130 interrupted.\n");
}

/// Counts unclosed parens/brackets outside strings and comments, so the
/// REPL knows when a form is complete.
int parenBalance(const std::string &S) {
  int Depth = 0;
  bool InString = false;
  for (size_t I = 0; I < S.size(); ++I) {
    char C = S[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == ';') {
      while (I < S.size() && S[I] != '\n')
        ++I;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '(' || C == '[')
      ++Depth;
    else if (C == ')' || C == ']')
      --Depth;
  }
  return Depth;
}

int runRepl(SchemeEngine &Engine) {
  std::printf("cmarks repl; (exit) or Ctrl-D to quit\n");
  std::string Pending;
  std::string Line;
  for (;;) {
    std::printf("%s", Pending.empty() ? "> " : "  ");
    std::fflush(stdout);
    if (!std::getline(std::cin, Line))
      break;
    Pending += Line + "\n";
    if (parenBalance(Pending) > 0)
      continue;
    std::string Form = Pending;
    Pending.clear();
    if (Form.find("(exit)") != std::string::npos)
      break;
    Value V = Engine.eval(Form);
    if (!Engine.ok()) {
      std::printf("error: %s\n", Engine.lastError().c_str());
      continue;
    }
    if (!V.isVoid())
      std::printf("%s\n", writeToString(V).c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "-h" || Arg == "--help") {
      Opts.ShowHelp = true;
    } else if (Arg == "-e" && I + 1 < Argc) {
      Opts.Exprs.push_back(Argv[++I]);
    } else if (Arg.rfind("--variant=", 0) == 0) {
      if (!parseVariant(Arg.substr(10), Opts.Variant)) {
        std::fprintf(stderr, "unknown variant: %s\n", Arg.c_str());
        return ExitUsage;
      }
    } else if (Arg == "--disasm") {
      Opts.Disasm = true;
    } else if (Arg == "--stats") {
      Opts.ShowStats = true;
    } else if (Arg == "--fault-report") {
      Opts.FaultReport = true;
    } else if (Arg.rfind("--heap-limit=", 0) == 0) {
      if (!parseByteSize(Arg.substr(13), Opts.Limits.HeapBytes)) {
        std::fprintf(stderr, "bad --heap-limit (want BYTES, K/M/G ok): %s\n",
                     Arg.c_str());
        return ExitUsage;
      }
    } else if (Arg.rfind("--stack-limit=", 0) == 0) {
      uint64_t N = 0;
      if (!parseCount(Arg.substr(14), N) || N == 0) {
        std::fprintf(stderr, "bad --stack-limit (want a positive count): %s\n",
                     Arg.c_str());
        return ExitUsage;
      }
      Opts.Limits.MaxLiveSegments = static_cast<uint32_t>(N);
    } else if (Arg.rfind("--timeout=", 0) == 0) {
      if (!parseCount(Arg.substr(10), Opts.Limits.TimeoutMs) ||
          Opts.Limits.TimeoutMs == 0) {
        std::fprintf(stderr, "bad --timeout (want milliseconds): %s\n",
                     Arg.c_str());
        return ExitUsage;
      }
    } else if (Arg.rfind("--deadline=", 0) == 0) {
      if (!parseCount(Arg.substr(11), Opts.DeadlineMs) ||
          Opts.DeadlineMs == 0) {
        std::fprintf(stderr, "bad --deadline (want milliseconds): %s\n",
                     Arg.c_str());
        return ExitUsage;
      }
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Opts.TraceFile = Arg.substr(8);
      if (Opts.TraceFile.empty()) {
        std::fprintf(stderr, "--trace needs a file name (--trace=FILE)\n");
        return ExitUsage;
      }
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      Opts.MetricsFile = Arg.substr(10);
      if (Opts.MetricsFile.empty()) {
        std::fprintf(stderr, "--metrics needs a file name (--metrics=FILE)\n");
        return ExitUsage;
      }
    } else if (Arg.rfind("--profile=", 0) == 0) {
      Opts.ProfileFile = Arg.substr(10);
      if (Opts.ProfileFile.empty()) {
        std::fprintf(stderr, "--profile needs a file name (--profile=FILE)\n");
        return ExitUsage;
      }
    } else if (Arg.rfind("--profile-hz=", 0) == 0) {
      uint64_t N = 0;
      if (!parseCount(Arg.substr(13), N) || N == 0 || N > 100000) {
        std::fprintf(stderr, "bad --profile-hz (want 1..100000): %s\n",
                     Arg.c_str());
        return ExitUsage;
      }
      Opts.ProfileHz = static_cast<uint32_t>(N);
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s (try --help)\n", Arg.c_str());
      return ExitUsage;
    } else {
      Opts.Files.push_back(Arg);
    }
  }
  if (Opts.ShowHelp) {
    printHelp();
    return 0;
  }

  EngineOptions EngineOpts = EngineOptions::forVariant(Opts.Variant);
  EngineOpts.VmCfg.Limits = Opts.Limits;
  SchemeEngine Engine(EngineOpts);
  InterruptTarget = &Engine;
  std::signal(SIGINT, onSigInt);
  // Tracing starts after the prelude loads so the timeline shows the
  // user's program, not engine startup. Same for the sampling profiler.
  if (!Opts.TraceFile.empty())
    Engine.startTrace();
  if (!Opts.ProfileFile.empty())
    Engine.startProfiler(Opts.ProfileHz ? Opts.ProfileHz
                                        : SamplingProfiler::DefaultHz);
  // Dump even when a program fails: a trace of the run up to the error is
  // exactly what a profiling user wants to look at.
  auto DumpTrace = [&]() {
    if (Opts.TraceFile.empty())
      return;
    Engine.stopTrace();
    if (!Engine.dumpTrace(Opts.TraceFile))
      std::fprintf(stderr, "cannot write trace to %s\n",
                   Opts.TraceFile.c_str());
    else
      std::fprintf(stderr, "trace (%llu events) written to %s\n",
                   static_cast<unsigned long long>(Engine.trace().size()),
                   Opts.TraceFile.c_str());
  };

  if (Opts.Disasm) {
    for (const std::string &Expr : Opts.Exprs) {
      std::vector<Value> Forms = readAllFromString(Engine.heap(), Expr);
      for (Value Form : Forms) {
        std::string Err;
        Value Code = Engine.compiler().compileToplevel(Form, &Err);
        if (!Err.empty()) {
          std::fprintf(stderr, "compile error: %s\n", Err.c_str());
          return 1;
        }
        std::printf("%s", Compiler::disassemble(Code).c_str());
      }
    }
    return 0;
  }

  auto Epilogue = [&](int Ret) {
    DumpTrace();
    if (!Opts.ProfileFile.empty()) {
      Engine.stopProfiler();
      if (!Engine.dumpProfile(Opts.ProfileFile))
        std::fprintf(stderr, "cannot write profile to %s\n",
                     Opts.ProfileFile.c_str());
      else
        std::fprintf(stderr, "profile (%llu samples) written to %s\n",
                     static_cast<unsigned long long>(
                         Engine.profiler().sampleCount()),
                     Opts.ProfileFile.c_str());
    }
    if (!Opts.MetricsFile.empty()) {
      bool Prom = Opts.MetricsFile.size() >= 5 &&
                  Opts.MetricsFile.compare(Opts.MetricsFile.size() - 5, 5,
                                           ".prom") == 0;
      if (!writeFile(Opts.MetricsFile,
                     Prom ? Engine.metricsText() : Engine.metricsJson()))
        std::fprintf(stderr, "cannot write metrics to %s\n",
                     Opts.MetricsFile.c_str());
    }
    if (Opts.ShowStats) {
      printStatsTable(Engine.stats(), stderr);
      const HeapStats &HS = Engine.heap().stats();
      std::fprintf(stderr, "  %-26s %12llu\n", "gc-collections",
                   static_cast<unsigned long long>(HS.Collections));
      std::fprintf(stderr, "  %-26s %12llu\n", "gc-one-shot-promotions",
                   static_cast<unsigned long long>(HS.OneShotPromotions));
      std::fprintf(stderr, "  %-26s %12llu\n", "gc-bytes-allocated",
                   static_cast<unsigned long long>(HS.BytesAllocated));
    }
    if (Opts.FaultReport)
      std::fprintf(stderr, "%s", Engine.faults().report().c_str());
    return Ret;
  };

  // Whole-run deadline (--deadline): the same policy the serving pool
  // applies per job — work that has not started by the deadline is shed
  // (typed Expired, exit 5), and work that does start gets at most the
  // remaining time folded into its timeout, so an over-budget unit trips
  // exn:timeout? (exit 3) instead of overshooting the deadline.
  uint64_t DeadlineNs =
      Opts.DeadlineMs ? nowNanos() + Opts.DeadlineMs * 1000000ull : 0;
  auto DeadlineExpired = [&](const char *What) {
    if (!DeadlineNs || nowNanos() < DeadlineNs)
      return false;
    std::fprintf(stderr,
                 "deadline expired (%llu ms): %s shed without running\n",
                 static_cast<unsigned long long>(Opts.DeadlineMs), What);
    return true;
  };
  auto ApplyRemainingBudget = [&]() {
    if (!DeadlineNs)
      return;
    uint64_t Now = nowNanos();
    uint64_t RemainMs =
        Now < DeadlineNs ? (DeadlineNs - Now + 999999) / 1000000 : 1;
    Engine.limits().TimeoutMs =
        Opts.Limits.TimeoutMs
            ? std::min<uint64_t>(Opts.Limits.TimeoutMs, RemainMs)
            : RemainMs;
  };

  for (const std::string &File : Opts.Files) {
    if (DeadlineExpired(File.c_str()))
      return Epilogue(jobOutcomeExitCode(JobOutcome::Expired));
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", File.c_str());
      return Epilogue(ExitError);
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    ApplyRemainingBudget();
    Engine.eval(Buf.str());
    if (!Engine.ok()) {
      std::fprintf(stderr, "%s: %s\n", File.c_str(),
                   Engine.lastError().c_str());
      return Epilogue(exitCodeFor(Engine));
    }
  }

  for (const std::string &Expr : Opts.Exprs) {
    if (DeadlineExpired("expression"))
      return Epilogue(jobOutcomeExitCode(JobOutcome::Expired));
    ApplyRemainingBudget();
    Value V = Engine.eval(Expr);
    if (!Engine.ok()) {
      std::fprintf(stderr, "error: %s\n", Engine.lastError().c_str());
      return Epilogue(exitCodeFor(Engine));
    }
    std::printf("%s\n", writeToString(V).c_str());
  }

  int Ret = ExitOk;
  if (Opts.Files.empty() && Opts.Exprs.empty())
    Ret = runRepl(Engine);

  return Epilogue(Ret);
}

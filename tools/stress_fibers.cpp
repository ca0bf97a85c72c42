//===- tools/stress_fibers.cpp - Fiber scheduler stress harness -*- C++ -*-===//
///
/// \file
/// Floods a fiber-mode EnginePool (PoolOptions::EnableFibers) with a
/// seeded mix of many more jobs than workers — compute thunks, short
/// sleepers, channel ping-pongs, sub-fiber fan-outs, and yield loops —
/// and asserts the cooperative-scheduling invariants:
///
///   - no hangs: a watchdog thread turns a stuck run into diagnostics
///     plus exit 2 instead of a wedged CI job,
///   - every job resolves Ok with exactly the deterministic value its
///     archetype computes (a lost unpark or a cross-fiber state leak
///     shows up as a wrong answer, not just a slowdown),
///   - the pool's aggregated engine counters account for the work: at
///     least one fiber spawn per job and at least one park per sleeper/
///     channel/fan-out job.
///
/// The default shape is the issue's stress target — 10000 jobs over 4
/// workers — and doubles as the ctest smoke (`stress_fibers --smoke`).
///
/// Exit codes: 0 all invariants held, 1 an invariant failed, 2 usage or
/// watchdog timeout.
///
//===----------------------------------------------------------------------===//

#include "support/pool.h"
#include "support/rng.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cmk;

namespace {

struct StressOptions {
  uint64_t Jobs = 10000;
  unsigned Workers = 4;
  uint32_t MaxFibersPerWorker = 512;
  uint64_t Seed = 1;
  uint64_t WatchdogSec = 180;
};

/// Job archetypes. Every archetype's result is a pure function of the
/// job id, so the checker recomputes it without coordination.
enum Kind : int { Compute = 0, Sleeper, Channel, FanOut, Yielder, NumKinds };

std::string sourceFor(int K, uint64_t Id) {
  std::string I = std::to_string(Id % 1000);
  switch (K) {
  case Compute:
    return "(fiber-join (spawn (lambda () (+ " + I + " 1))))";
  case Sleeper:
    return "(begin (sleep-ms " + std::to_string(1 + Id % 3) + ") 'slept)";
  case Channel:
    return "(let ((ch (make-channel " + std::to_string(Id % 2) + ")))"
           "  (spawn (lambda () (channel-put ch " + I + ")))"
           "  (channel-get ch))";
  case FanOut:
    return "(let ((a (spawn (lambda () (yield) " + I + ")))"
           "      (b (spawn (lambda () " + I + "))))"
           "  (+ (fiber-join a) (fiber-join b)))";
  default:
    return "(let loop ((n 5) (acc " + I + "))"
           "  (if (zero? n) acc (begin (yield) (loop (- n 1) acc))))";
  }
}

std::string expectFor(int K, uint64_t Id) {
  uint64_t I = Id % 1000;
  switch (K) {
  case Compute:
    return std::to_string(I + 1);
  case Sleeper:
    return "slept";
  case Channel:
    return std::to_string(I);
  case FanOut:
    return std::to_string(2 * I);
  default:
    return std::to_string(I);
  }
}

int usage(const char *Msg) {
  std::fprintf(stderr, "stress_fibers: %s (see tools/stress_fibers.cpp)\n",
               Msg);
  return 2;
}

bool argValue(const char *Arg, const char *Name, std::string &Out) {
  size_t N = std::strlen(Name);
  if (std::strncmp(Arg, Name, N) != 0 || Arg[N] != '=')
    return false;
  Out = Arg + N + 1;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  StressOptions O;
  for (int I = 1; I < argc; ++I) {
    std::string V;
    if (argValue(argv[I], "--jobs", V))
      O.Jobs = std::strtoull(V.c_str(), nullptr, 10);
    else if (argValue(argv[I], "--workers", V))
      O.Workers = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (argValue(argv[I], "--max-fibers", V))
      O.MaxFibersPerWorker = static_cast<uint32_t>(std::atoi(V.c_str()));
    else if (argValue(argv[I], "--seed", V))
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (argValue(argv[I], "--watchdog-sec", V))
      O.WatchdogSec = std::strtoull(V.c_str(), nullptr, 10);
    else if (std::strcmp(argv[I], "--smoke") == 0)
      ; // The defaults ARE the smoke: 10k jobs over 4 workers.
    else
      return usage((std::string("unknown option ") + argv[I]).c_str());
  }

  PoolOptions PO;
  PO.Workers = O.Workers;
  PO.EnableFibers = true;
  PO.MaxFibersPerWorker = O.MaxFibersPerWorker;
  PO.QueueCapacity = 1024;
  PO.DefaultJobLimits.TimeoutMs = 10000; // On-CPU budget; parks excluded.

  std::atomic<bool> Done{false};
  std::thread Watchdog([&] {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(O.WatchdogSec);
    while (!Done.load()) {
      if (std::chrono::steady_clock::now() >= Deadline) {
        std::fprintf(stderr,
                     "stress_fibers: WATCHDOG: no completion after %llu s\n",
                     static_cast<unsigned long long>(O.WatchdogSec));
        _exit(2);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });

  uint64_t Mismatches = 0, NotOk = 0, ParkKinds = 0;
  {
    EnginePool Pool(PO);
    Rng R(O.Seed);
    std::vector<std::pair<int, std::future<JobResult>>> Futures;
    Futures.reserve(O.Jobs);
    for (uint64_t J = 0; J < O.Jobs; ++J) {
      int K = static_cast<int>(R.nextBelow(NumKinds));
      if (K != Compute)
        ++ParkKinds;
      Futures.emplace_back(K, Pool.submit(sourceFor(K, J)));
    }
    for (uint64_t J = 0; J < O.Jobs; ++J) {
      JobResult Res = Futures[J].second.get();
      if (Res.Outcome != JobOutcome::Ok) {
        if (++NotOk <= 5)
          std::fprintf(stderr, "stress_fibers: job %llu (%s): %s: %s\n",
                       static_cast<unsigned long long>(J),
                       sourceFor(Futures[J].first, J).c_str(),
                       jobOutcomeName(Res.Outcome), Res.Error.c_str());
        continue;
      }
      std::string Want = expectFor(Futures[J].first, J);
      if (Res.Output != Want) {
        if (++Mismatches <= 5)
          std::fprintf(stderr,
                       "stress_fibers: job %llu: got %s, want %s\n",
                       static_cast<unsigned long long>(J), Res.Output.c_str(),
                       Want.c_str());
      }
    }

    PoolStats S = Pool.stats();
    std::printf("stress_fibers: %llu jobs over %u workers: %llu ok, "
                "%llu failed, %llu wrong; %llu fiber spawns, %llu parks\n",
                static_cast<unsigned long long>(O.Jobs), O.Workers,
                static_cast<unsigned long long>(
                    S.ByOutcome[static_cast<int>(JobOutcome::Ok)]),
                static_cast<unsigned long long>(NotOk),
                static_cast<unsigned long long>(Mismatches),
                static_cast<unsigned long long>(S.Engines.FiberSpawns),
                static_cast<unsigned long long>(S.Engines.FiberParks));
    if (S.Engines.FiberSpawns < O.Jobs) {
      std::fprintf(stderr, "stress_fibers: FAIL: fewer fiber spawns (%llu) "
                           "than jobs (%llu)\n",
                   static_cast<unsigned long long>(S.Engines.FiberSpawns),
                   static_cast<unsigned long long>(O.Jobs));
      ++Mismatches;
    }
    if (ParkKinds > 0 && S.Engines.FiberParks == 0) {
      std::fprintf(stderr,
                   "stress_fibers: FAIL: parking archetypes ran but the "
                   "pool recorded zero fiber parks\n");
      ++Mismatches;
    }
  }

  Done.store(true);
  Watchdog.join();
  return (Mismatches == 0 && NotOk == 0) ? 0 : 1;
}

//===- perfbench/src/programs.h - Workload programs and generators -*- C++ -*-===//
///
/// \file
/// The Scheme programs and seeded operation generators behind the four
/// perfbench workloads. The engine workloads load the evaluation programs
/// of bench/programs/ as they are; run.py folds those headers into the
/// source digest it files with every result, so an edit to them shows in
/// the provenance.
///
/// Every operation carries the answer it must produce, computed without
/// the VM under test: C++ closed forms (tak, n-queens, triple, the request
/// classes), or a fixed table for the two applications whose answers have
/// no short closed form (xsmith-lite, markdown) at the sizes drawn here.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include "support/limits.h"
#include "support/pool.h"
#include "support/rng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One operation: a source text, the expected result, and for pool
/// requests the expected outcome class and per-job limits.
struct Op {
  std::string Source;
  std::string Expected;    ///< write-style result ("" for failing classes).
  const char *Class = "";  ///< Program or request class name.
  cmk::JobOutcome Outcome = cmk::JobOutcome::Ok;
  cmk::EngineLimits Limits;
  bool Healthy = true;     ///< Expected to return a value.
};

/// A seeded operation stream in rounds: each round runs every variant
/// once, in a seeded order, so runs of equal length do the same mix of
/// work whatever the seed.
class RoundStream {
public:
  RoundStream(std::vector<Op> Variants, uint64_t Seed);
  const Op &next();

private:
  std::vector<Op> Variants;
  std::vector<size_t> Order;
  size_t Pos = 0;
  cmk::Rng R;
};

// --- apps: the section 8.4 application analogues plus contracts (E7) --------

/// Definitions loaded once per engine. Each application's entry point is
/// renamed app:<name> so all six coexist in one engine.
const char *appsDefinitions();
/// Every program at each of its three sizes (variant 3p + 0 is the
/// smallest size of program p).
std::vector<Op> appsVariants();

// --- continuations: capture, prompts, effects, fibers ------------------------

const char *continuationsDefinitions();
std::vector<Op> continuationsVariants();

// --- serve / serve-fibers: short requests compiled per job -------------------

/// Request \p Index of the blocking-pool stream: mostly mark churn,
/// parameterize, and with-handlers, with a stratified hostile fraction at
/// fixed positions within every block of 3000 requests: 4 timeout
/// spinners, 5 heap eaters and 3 reserve escalators (bench_pool's
/// chaos-mix proportions, 40:50:30, at 0.4% of the stream).
Op nextServeOp(cmk::Rng &R, uint64_t Index);
/// A healthy fiber-pool request: mark churn around 1-3 backend waits of
/// 2-8 ms each, or of 0 ms for a \p WarmUp request (set-up must not
/// include sleeps).
Op nextServeFibersOp(cmk::Rng &R, bool WarmUp);

/// Reference results (exposed for the self-check).
int64_t takRef(int64_t X, int64_t Y, int64_t Z);
int64_t queensRef(int N);
int64_t tripleRef(int64_t N);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H

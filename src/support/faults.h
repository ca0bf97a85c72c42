//===- support/faults.h - Deterministic fault injection -------*- C++ -*-===//
///
/// \file
/// A seeded, site-counted fault injector for exercising the engine's rare
/// paths on demand. The paper's design is judged on what happens at
/// segment overflow (§5), reification (§7.2), and underflow fuse-vs-copy
/// (§6) — paths a normal workload may never hit. Each injection site is a
/// named hook compiled into the runtime when the `CMARKS_FAULTS` CMake
/// option is ON; a trigger schedule (nth hit, every Kth hit, or a seeded
/// coin flip) decides when the hook fires.
///
/// Two site families:
///
///  - *Semantics-preserving* sites force a legal-but-rare path: `gc`
///    (collect before an allocation), `overflow` (treat a frame push as a
///    segment overflow, forcing the split/reify machinery), `nofuse`
///    (disable the opportunistic underflow fuse, forcing the copy path).
///    Running the full test suite under these must not change any result —
///    that is what `tools/fault_sweep.py` verifies.
///  - *Failing* sites simulate exhaustion: `oom` (allocation trips the
///    heap budget) and `reify-oom` (the trip lands exactly at a
///    reification site). These surface as the same catchable limit
///    exceptions real exhaustion produces, so recovery tests can force
///    OOM-during-reify without a multi-gigabyte workload.
///
/// Hooks are free when `CMARKS_FAULTS` is OFF (the macro folds to
/// `false`); the class itself is always compiled so the embedding API is
/// build-independent. Configuration comes from the API
/// (`configureFromSpec`) or the `CMARKS_FAULT_SPEC` environment variable;
/// the seeded trigger reuses `cmk::Rng` so schedules are reproducible
/// across platforms. Hit counting pauses while suspended (engine startup
/// loads the prelude suspended, so `at=N` is deterministic relative to
/// the user's program, not the prelude).
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_SUPPORT_FAULTS_H
#define CMARKS_SUPPORT_FAULTS_H

#include "support/rng.h"
#include "support/stats.h"

#include <cstdint>
#include <string>

#ifndef CMARKS_FAULTS
#define CMARKS_FAULTS 0
#endif

namespace cmk {

/// The compiled-in injection sites. Keep in sync with siteName().
enum class FaultSite : uint8_t {
  Gc,       ///< Force a collection at allocRaw entry (preserving).
  Overflow, ///< Force the segment-overflow slow path on a call (preserving).
  NoFuse,   ///< Force underflow copy instead of one-shot fuse (preserving).
  Oom,      ///< Trip the heap budget at an allocation (failing, catchable).
  ReifyOom, ///< Trip the heap budget at a reification site (failing).
};
constexpr int NumFaultSites = 5;

const char *faultSiteName(FaultSite S);

/// Deterministic per-site trigger schedules. One instance per engine.
class FaultInjector {
public:
  /// When an armed site fires relative to its hit counter.
  enum class Mode : uint8_t {
    Off,   ///< Never fires.
    At,    ///< Fires exactly once, on hit number N (1-based).
    Every, ///< Fires on every Kth hit (hit K, 2K, 3K, ...).
    Prob,  ///< Fires on each hit with probability Pct/100, seeded.
  };

  FaultInjector() = default;

  /// Parses a schedule spec and replaces the current configuration.
  /// Grammar (entries separated by ';', spaces ignored):
  ///
  ///   spec    := entry (';' entry)*
  ///   entry   := site ':' trigger
  ///   site    := gc | overflow | nofuse | oom | reify-oom
  ///   trigger := 'at=' N | 'every=' K | 'p=' PCT [',seed=' S]
  ///
  /// e.g. "overflow:every=7;oom:at=120" or "nofuse:p=50,seed=3".
  /// Returns false (and fills \p Err when non-null) on a malformed spec;
  /// the previous configuration is kept on failure.
  bool configureFromSpec(const std::string &Spec, std::string *Err = nullptr);

  /// Applies $CMARKS_FAULT_SPEC if set and non-empty. Returns false only
  /// when the variable is set but malformed (reported to stderr).
  bool configureFromEnv();

  /// Arms one site directly (tests use this instead of spec strings).
  void arm(FaultSite S, Mode M, uint64_t N, uint64_t Seed = 0);
  /// Mixes \p Salt into every probabilistic site's stream (keeping the
  /// configured seeds, so the whole schedule is still a pure function of
  /// spec + salt). EnginePool salts each worker engine with its worker
  /// index and restart count: a fleet of engines sharing one
  /// CMARKS_FAULT_SPEC then draws distinct — but reproducible — fault
  /// schedules instead of injecting in lockstep.
  void reseed(uint64_t Salt);
  /// Disarms every site; counters keep their values.
  void disarmAll();

  /// True if the site should fail/divert now. Counts a hit (and consults
  /// the schedule) only when the site is armed and the injector is not
  /// suspended, so `at=N` schedules are stable under engine-internal
  /// work that runs suspended.
  bool shouldFail(FaultSite S);

  /// Suspend/resume hook evaluation (nested). Engine startup runs
  /// suspended so prelude loading can never trip a fault.
  void suspend() { ++SuspendDepth; }
  void resume() {
    if (SuspendDepth > 0)
      --SuspendDepth;
  }
  bool suspended() const { return SuspendDepth > 0; }

  bool anyArmed() const;
  uint64_t hits(FaultSite S) const { return Sites[idx(S)].Hits; }
  uint64_t injected(FaultSite S) const { return Sites[idx(S)].Injected; }

  /// Routes FaultsInjected increments into an engine's counters.
  void attachVMStats(VMStats *S) { Stats = S; }

  /// Multi-line human-readable per-site report (REPL --fault-report).
  std::string report() const;

private:
  struct Site {
    Mode M = Mode::Off;
    uint64_t N = 0;    ///< At: target hit. Every: period. Prob: percent.
    uint64_t Seed = 0; ///< Prob only.
    Rng R{0};
    uint64_t Hits = 0;
    uint64_t Injected = 0;
  };

  static int idx(FaultSite S) { return static_cast<int>(S); }

  Site Sites[NumFaultSites];
  int SuspendDepth = 0;
  VMStats *Stats = nullptr;
};

} // namespace cmk

// The hook: true when the build compiles fault injection in, the injector
// is attached, and this site's schedule fires on this hit.
#if CMARKS_FAULTS
#define CMK_FAULT(InjPtr, SITE)                                                \
  ((InjPtr) != nullptr &&                                                      \
   (InjPtr)->shouldFail(::cmk::FaultSite::SITE))
#else
#define CMK_FAULT(InjPtr, SITE) false
#endif

#endif // CMARKS_SUPPORT_FAULTS_H

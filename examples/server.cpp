//===- examples/server.cpp - EnginePool request-loop demo ------*- C++ -*-===//
///
/// \file
/// A miniature "Scheme evaluation service" on top of EnginePool
/// (support/pool.h): four client threads fire requests at a pool of
/// worker engines, every request runs under a per-request timeout, and
/// the pool's aggregated statistics are printed at the end.
///
/// The demo exercises the properties a serving deployment cares about:
///
///   * requests from different clients interleave across workers and
///     all produce their expected answers;
///   * a hostile request (an infinite loop) trips its timeout budget
///     and fails alone — the worker that ran it recovers and keeps
///     serving ordinary requests;
///   * a request whose deadline expires in the queue is shed without
///     running, and a request refused by admission control under
///     overload is shed at the door — each resolving to its own typed
///     JobOutcome (and distinct client exit code), not a string match
///     on the error message;
///   * per-request continuation-mark state (parameterize) never leaks
///     between requests, because every worker evaluates in its own
///     engine and marks are rewound between jobs;
///   * the serving telemetry holds up: latency histograms cover every
///     retired job and both metrics exports validate.
///
/// `--metrics=FILE` writes the pool's cmarks-metrics-v1 JSON (.prom for
/// Prometheus text) and `--profile=FILE` writes a pool-wide collapsed
/// profile, so the demo doubles as the CI smoke test for the
/// observability pipeline.
///
/// Exits 0 when every expectation holds, 1 otherwise (it doubles as a
/// ctest smoke test, like the other examples).
///
//===----------------------------------------------------------------------===//

#include "support/pool.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace cmk;

namespace {

std::atomic<int> Failures{0};

/// One client: submits Rounds requests tagged with its id and checks
/// each answer. The request parameterizes a per-request "user" binding
/// and reads it back through continuation marks — if engines shared
/// mark state across workers or requests, the read-back would mismatch.
void client(EnginePool &Pool, int Id, int Rounds) {
  for (int R = 0; R < Rounds; ++R) {
    int N = Id * 100 + R;
    std::string Src =
        "(define p (make-parameter 'nobody))\n"
        "(parameterize ([p " + std::to_string(N) + "])\n"
        "  (with-continuation-mark 'req " + std::to_string(Id) + "\n"
        "    (list (p) (continuation-mark-set-first\n"
        "               (current-continuation-marks) 'req))))";
    JobResult JR = Pool.submit(Src).get();
    std::string Expected =
        "(" + std::to_string(N) + " " + std::to_string(Id) + ")";
    if (!JR.Ok || JR.Output != Expected) {
      std::printf("FAIL client %d round %d: got %s (%s)\n", Id, R,
                  JR.Output.c_str(), JR.Error.c_str());
      ++Failures;
    }
  }
}

bool writeFile(const std::string &Path, const std::string &Body) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Body.data(), 1, Body.size(), F) == Body.size();
  return std::fclose(F) == 0 && Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string MetricsFile, ProfileFile, TraceFile;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--metrics=", 0) == 0) {
      MetricsFile = Arg.substr(10);
    } else if (Arg.rfind("--profile=", 0) == 0) {
      ProfileFile = Arg.substr(10);
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TraceFile = Arg.substr(8);
    } else {
      std::fprintf(stderr, "usage: server [--metrics=FILE] [--profile=FILE] "
                           "[--trace=FILE]\n");
      return 1;
    }
  }

  PoolOptions Opts;
  Opts.Workers = 4;
  // Every request runs under a 250 ms deadline: a stuck request is
  // evicted at the next safe point and only its own future fails.
  Opts.DefaultJobLimits.TimeoutMs = 250;
  // Full observability: per-worker trace rings (merged into one Perfetto
  // timeline with named job spans) and the sampling profiler.
  Opts.TraceCapacity = 32 * 1024;
  if (!ProfileFile.empty())
    Opts.ProfileHz = 97;
  EnginePool Pool(Opts);

  // A hostile request alongside the regular traffic. Submitted first so
  // it occupies a worker while the clients run.
  auto Hostile = Pool.submit("(let loop () (loop))");

  std::vector<std::thread> Clients;
  for (int Id = 1; Id <= 4; ++Id)
    Clients.emplace_back([&Pool, Id] { client(Pool, Id, 25); });
  for (std::thread &T : Clients)
    T.join();

  // Outcomes are typed: dispatch on JobOutcome (and map to the shared
  // exit-code table), never on error-message strings.
  JobResult HR = Hostile.get();
  if (HR.Outcome != JobOutcome::TrippedTimeout) {
    std::printf("FAIL hostile request: outcome=%s (%s)\n",
                jobOutcomeName(HR.Outcome), HR.Error.c_str());
    ++Failures;
  } else {
    std::printf("hostile request evicted by its timeout: outcome=%s "
                "exit-code=%d (%s)\n",
                jobOutcomeName(HR.Outcome), jobOutcomeExitCode(HR.Outcome),
                HR.Error.c_str());
  }

  // Deadline expiry: park four spinners on the four workers, then submit
  // a request that is only willing to wait 30 ms. The first worker frees
  // up at the ~250 ms timeout, long past the deadline, so the request is
  // shed from the queue without ever running.
  std::vector<std::future<JobResult>> Hogs;
  for (int I = 0; I < 4; ++I)
    Hogs.push_back(Pool.submit("(let loop () (loop))"));
  JobResult ER =
      Pool.submit("'too-patient", SubmitOptions().deadlineMs(30)).get();
  if (ER.Outcome != JobOutcome::Expired || ER.Attempts != 0) {
    std::printf("FAIL deadline request: outcome=%s attempts=%u (%s)\n",
                jobOutcomeName(ER.Outcome), ER.Attempts, ER.Error.c_str());
    ++Failures;
  } else {
    std::printf("deadline request expired in queue: outcome=%s "
                "exit-code=%d (%s)\n",
                jobOutcomeName(ER.Outcome), jobOutcomeExitCode(ER.Outcome),
                ER.Error.c_str());
  }
  for (auto &H : Hogs)
    if (H.get().Outcome != JobOutcome::TrippedTimeout)
      ++Failures;

  Pool.shutdown();

  // Load shedding: a one-worker pool with a 10 ms queue-wait budget.
  // A burst of 25 ms requests drives the observed queue-wait p99 far
  // over budget, and the next request is refused at the door.
  {
    PoolOptions ShedOpts;
    ShedOpts.Workers = 1;
    ShedOpts.QueueWaitBudgetMs = 10;
    ShedOpts.AdmissionWindow = 16;
    EnginePool ShedPool(ShedOpts);
    ShedPool.submit("'warm").get();
    std::vector<std::future<JobResult>> Burst;
    for (int I = 0; I < 10; ++I)
      Burst.push_back(ShedPool.submit("(begin (sleep-ms 25) 'slow)"));
    for (auto &F : Burst)
      F.get();
    JobResult SR = ShedPool.submit("'one-too-many").get();
    if (SR.Outcome != JobOutcome::Shed) {
      std::printf("FAIL overload request: outcome=%s (%s)\n",
                  jobOutcomeName(SR.Outcome), SR.Error.c_str());
      ++Failures;
    } else {
      std::printf("overload request shed by admission control: outcome=%s "
                  "exit-code=%d\n",
                  jobOutcomeName(SR.Outcome), jobOutcomeExitCode(SR.Outcome));
    }
  }

  PoolTelemetry T = Pool.telemetry();
  const PoolStats &S = T.Stats;
  auto Jobs = [&S](JobOutcome O) { return S.ByOutcome[static_cast<int>(O)]; };
  std::printf("served %llu jobs on %u workers: ok=%llu "
              "tripped-timeout=%llu expired=%llu queue-high-water=%llu "
              "mark-creates=%llu\n",
              static_cast<unsigned long long>(S.JobsSubmitted),
              Pool.workerCount(),
              static_cast<unsigned long long>(Jobs(JobOutcome::Ok)),
              static_cast<unsigned long long>(Jobs(JobOutcome::TrippedTimeout)),
              static_cast<unsigned long long>(Jobs(JobOutcome::Expired)),
              static_cast<unsigned long long>(S.QueueHighWater),
              static_cast<unsigned long long>(S.Engines.MarkFrameCreates));
  // 100 client requests completed; the hostile request and the four hogs
  // tripped their timeouts; the 30 ms-deadline request expired unrun.
  if (Jobs(JobOutcome::Ok) != 100 || Jobs(JobOutcome::TrippedTimeout) != 5 ||
      Jobs(JobOutcome::Expired) != 1)
    ++Failures;

  // Telemetry sanity: the histograms must cover every retired job (the
  // queue-wait histogram also covers jobs that expired in the queue), the
  // retirement path must agree with the outcome counts, and both export
  // formats must carry the schema markers tooling keys on.
  uint64_t Retired = Jobs(JobOutcome::Ok) + Jobs(JobOutcome::Error) +
                     Jobs(JobOutcome::TrippedHeap) +
                     Jobs(JobOutcome::TrippedStack) +
                     Jobs(JobOutcome::TrippedTimeout) +
                     Jobs(JobOutcome::TrippedInterrupt);
  std::printf("latency: run p50=%lluus p99=%lluus  queue-wait p99=%lluus\n",
              static_cast<unsigned long long>(T.RunUs.percentile(50)),
              static_cast<unsigned long long>(T.RunUs.percentile(99)),
              static_cast<unsigned long long>(T.QueueWaitUs.percentile(99)));
  if (T.RunUs.count() != Retired ||
      T.QueueWaitUs.count() != Retired + Jobs(JobOutcome::Expired)) {
    std::printf("FAIL histogram coverage: run=%llu wait=%llu retired=%llu\n",
                static_cast<unsigned long long>(T.RunUs.count()),
                static_cast<unsigned long long>(T.QueueWaitUs.count()),
                static_cast<unsigned long long>(Retired));
    ++Failures;
  }
  std::string Json = Pool.metricsJson();
  std::string Prom = Pool.metricsText();
  if (Json.find("\"schema\": \"cmarks-metrics-v1\"") == std::string::npos ||
      Json.find("cmarks_pool_job_run_seconds") == std::string::npos) {
    std::printf("FAIL metrics JSON missing schema or histogram\n");
    ++Failures;
  }
  if (Prom.find("# TYPE cmarks_pool_job_run_seconds summary") ==
      std::string::npos) {
    std::printf("FAIL metrics text missing summary type\n");
    ++Failures;
  }

  if (!MetricsFile.empty()) {
    bool IsProm = MetricsFile.size() >= 5 &&
                  MetricsFile.compare(MetricsFile.size() - 5, 5, ".prom") == 0;
    if (!writeFile(MetricsFile, IsProm ? Prom : Json)) {
      std::printf("FAIL cannot write metrics to %s\n", MetricsFile.c_str());
      ++Failures;
    }
  }
  if (!ProfileFile.empty() && !Pool.dumpProfile(ProfileFile)) {
    std::printf("FAIL cannot write profile to %s\n", ProfileFile.c_str());
    ++Failures;
  }
  if (!TraceFile.empty() && !Pool.dumpTrace(TraceFile)) {
    std::printf("FAIL cannot write trace to %s\n", TraceFile.c_str());
    ++Failures;
  }

  return Failures.load() == 0 ? 0 : 1;
}

//===- perfbench/src/programs.cpp - Workload programs and generators ------===//

#include "programs.h"

#include "programs/apps.h"
#include "programs/control.h"
#include "programs/effects.h"

#include <utility>

using cmk::JobOutcome;
using cmk::Rng;

namespace perfbench {

namespace {

int64_t pick(Rng &R, int64_t Lo, int64_t Hi) {
  return Lo + static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(Hi - Lo + 1)));
}

std::string str(int64_t V) { return std::to_string(V); }

Op call(const char *Class, const std::string &Fn, const std::string &Args,
        std::string Expected) {
  Op O;
  O.Class = Class;
  O.Source = "(" + Fn + " " + Args + ")";
  O.Expected = std::move(Expected);
  return O;
}

// --- apps ---------------------------------------------------------------------

/// The E7 checked contract: bench_contracts.cpp keeps its three-line
/// program inside a .cpp, so it is restated here as an app:contracts loop.
const char *ContractsSource = R"SCM(
(define plain-id (lambda (x) x))
(define checked-id (contract-wrap (-> integer/c integer/c) plain-id 'bench))
(define (app:contracts n)
  (let loop ([i n] [acc 0])
    (if (zero? i) acc (loop (- i 1) (+ 1 (checked-id acc))))))
)SCM";

std::string replaceAll(std::string S, const std::string &From,
                       const std::string &To) {
  for (size_t At = S.find(From); At != std::string::npos;
       At = S.find(From, At + To.size()))
    S.replace(At, From.size(), To);
  return S;
}

/// The five application analogues of bench/programs/apps.h, each entry
/// point renamed from app-main to app:<name> so all of them (and the
/// contract loop) load into one engine.
const std::string &appsSource() {
  static const std::string Src = [] {
    int N = 0;
    const cmkbench::AppBenchmark *Apps = cmkbench::appBenchmarks(N);
    std::string Out;
    for (int I = 0; I < N; ++I)
      Out += replaceAll(Apps[I].Source, "app-main",
                        std::string("app:") + Apps[I].Name);
    return Out + ContractsSource;
  }();
  return Src;
}

int64_t activityDistance(int64_t N) {
  int64_t S = 0;
  for (int64_t I = 0; I < N; ++I)
    S += 3 + I % 7;
  return S;
}

int64_t activityMinutes(int64_t N) {
  int64_t S = 0;
  for (int64_t I = 0; I < N; ++I)
    S += 20 + I % 40;
  return S;
}

/// Answers with no short closed form, at the three sizes drawn.
struct TableRow {
  int64_t N;
  const char *Expected;
};
const TableRow XsmithTable[] = {{15, "358441"}, {25, "744463"}, {35, "998539"}};
const TableRow MarkdownTable[] = {{20, "282"}, {35, "280"}, {50, "278"}};

Op appsOp(int Program, int SizeIdx) {
  static const int64_t ActivityN[] = {300, 500, 700};
  static const int64_t JsonN[] = {15, 25, 35};
  static const int64_t SolverN[] = {1, 2, 3};
  static const int64_t ContractN[] = {6000, 10000, 14000};
  switch (Program) {
  case 0: {
    int64_t N = ActivityN[SizeIdx];
    return call("activity-log", "app:activity-log", str(N),
                "(" + str(activityDistance(N)) + " . " +
                    str(activityMinutes(N)) + ")");
  }
  case 1:
    return call("xsmith-lite", "app:xsmith-lite", str(XsmithTable[SizeIdx].N),
                XsmithTable[SizeIdx].Expected);
  case 2: {
    // sample-json weighs 64: 1+2+3+42 + 1+2+3 + "benchmark" + "x".
    int64_t N = JsonN[SizeIdx];
    return call("json-parsack", "app:json-parsack", str(N), str(64 * N));
  }
  case 3:
    return call("markdown", "app:markdown", str(MarkdownTable[SizeIdx].N),
                MarkdownTable[SizeIdx].Expected);
  case 4: {
    // Every solve assigns all 10 variables.
    int64_t N = SolverN[SizeIdx];
    return call("solver", "app:solver", str(N), str(10 * N));
  }
  default: {
    int64_t N = ContractN[SizeIdx];
    return call("contracts", "app:contracts", str(N), str(N));
  }
  }
}

// --- continuations ------------------------------------------------------------

/// The bench_fibers programs (kept inside bench/bench_fibers.cpp, so
/// restated here): spawn/join, yield ping-pong, a bounded channel, a
/// spawn tree.
const char *FibersSource = R"SCM(
(define (spawn-join n)
  (let loop ((i n) (acc 0))
    (if (zero? i) acc (loop (- i 1) (+ acc (fiber-join (spawn (lambda () 1))))))))
(define (hopper m)
  (lambda () (let loop ((i m)) (if (zero? i) i (begin (yield) (loop (- i 1)))))))
(define (pingpong m)
  (let ((a (spawn (hopper m))) (b (spawn (hopper m)))) (+ (fiber-join a) (fiber-join b) m)))
(define (chan-stream n)
  (let ((ch (make-channel 1)))
    (spawn (lambda ()
      (let loop ((i 0))
        (if (< i n) (begin (channel-put ch i) (loop (+ i 1))) (channel-put ch 'done)))))
    (let loop ((acc 0))
      (let ((v (channel-get ch))) (if (eq? v 'done) acc (loop (+ acc v)))))))
(define (tree d)
  (if (zero? d) 1
      (let ((a (spawn (lambda () (tree (- d 1))))) (b (spawn (lambda () (tree (- d 1))))))
        (+ (fiber-join a) (fiber-join b)))))
)SCM";

/// ctak (wrapped and raw) and triple from bench/programs/control.h, the
/// effect-handler, generator and backtracking programs from
/// bench/programs/effects.h, and the fiber programs.
const std::string &continuationsSource() {
  static const std::string Src =
      std::string(cmkbench::ctakSource()) + cmkbench::ctakRawSource() +
      cmkbench::tripleNativeSource() + cmkbench::effectHandlersSource() +
      cmkbench::generatorPipelineSource() + cmkbench::backtrackingSource() +
      FibersSource;
  return Src;
}

std::string ctakArgs(int64_t X, int64_t Y, int64_t Z) {
  return str(X) + " " + str(Y) + " " + str(Z);
}

/// Variant \p V (0..2) of continuations program \p Program.
Op continuationsOp(int Program, int V) {
  static const int64_t Ctak[][3] = {{11, 7, 2}, {11, 7, 4}, {12, 8, 3}};
  static const int64_t Sizes[][3] = {
      {0, 0, 0},        {0, 0, 0},         {40, 55, 70},    {300, 450, 600},
      {250, 400, 600},  {5, 6, 7},         {300, 550, 800}, {300, 550, 800},
      {800, 1400, 2000}, {7, 8, 9}};
  int64_t N = Sizes[Program][V];
  switch (Program) {
  case 0:
  case 1: {
    const int64_t *C = Ctak[V];
    return call(Program == 0 ? "ctak" : "ctak-raw",
                Program == 0 ? "ctak" : "ctak-raw", ctakArgs(C[0], C[1], C[2]),
                str(takRef(C[0], C[1], C[2])));
  }
  case 2:
    return call("triple", "triple-native", str(N), str(tripleRef(N)));
  case 3:
    return call("effect-handlers", "eff-counter", str(N),
                "(" + str(N) + " " + str(N) + " " + str(N / 16) + ")");
  case 4: {
    int64_t Sum = 0;
    for (int64_t I = 0; I < N; I += 2)
      Sum += I * I;
    return call("generator-pipeline", "pipeline", str(N), str(Sum));
  }
  case 5:
    return call("queens", "queens", str(N),
                str(queensRef(static_cast<int>(N))));
  case 6:
    return call("fiber-spawn-join", "spawn-join", str(N), str(N));
  case 7:
    return call("fiber-pingpong", "pingpong", str(N), str(N));
  case 8:
    return call("fiber-channel", "chan-stream", str(N), str(N * (N - 1) / 2));
  default:
    return call("fiber-tree", "tree", str(N), str(int64_t(1) << N));
  }
}

constexpr int NumContinuationsPrograms = 10;

// --- serve ----------------------------------------------------------------------

/// Mark churn: a tail-position wcm loop reading its own mark back. Each
/// iteration replaces the frame's mark, so the read-back is i.
std::string markChurn(int64_t N, int64_t C) {
  return "(let loop ((i 0) (acc " + str(C) + "))"
         " (if (= i " + str(N) + ") acc"
         " (with-continuation-mark 'k i"
         " (loop (+ i 1) (+ acc (car (continuation-mark-set->list"
         " (current-continuation-marks) 'k)))))))";
}

int64_t markChurnRef(int64_t N, int64_t C) { return C + N * (N - 1) / 2; }

cmk::EngineLimits healthyLimits() {
  cmk::EngineLimits L;
  L.TimeoutMs = 1000;
  return L;
}

} // namespace

int64_t takRef(int64_t X, int64_t Y, int64_t Z) {
  if (!(Y < X))
    return Z;
  return takRef(takRef(X - 1, Y, Z), takRef(Y - 1, Z, X), takRef(Z - 1, X, Y));
}

int64_t queensRef(int N) {
  struct Search {
    int N;
    int64_t place(int Row, unsigned Cols, unsigned D1, unsigned D2) const {
      if (Row == N)
        return 1;
      int64_t Count = 0;
      for (int C = 0; C < N; ++C) {
        unsigned A = 1u << C, B = 1u << (Row + C), D = 1u << (Row - C + N);
        if (!(Cols & A) && !(D1 & B) && !(D2 & D))
          Count += place(Row + 1, Cols | A, D1 | B, D2 | D);
      }
      return Count;
    }
  };
  return Search{N}.place(0, 0, 0, 0);
}

int64_t tripleRef(int64_t N) {
  // Non-decreasing triples summing to N = partitions of N into at most 3
  // parts = round((N+3)^2 / 12); 3434 at N = 200.
  return ((N + 3) * (N + 3) + 6) / 12;
}

const char *appsDefinitions() { return appsSource().c_str(); }

std::vector<Op> appsVariants() {
  std::vector<Op> Ops;
  for (int P = 0; P < 6; ++P)
    for (int V = 0; V < 3; ++V)
      Ops.push_back(appsOp(P, V));
  return Ops;
}

const char *continuationsDefinitions() { return continuationsSource().c_str(); }

std::vector<Op> continuationsVariants() {
  std::vector<Op> Ops;
  for (int P = 0; P < NumContinuationsPrograms; ++P)
    for (int V = 0; V < 3; ++V)
      Ops.push_back(continuationsOp(P, V));
  return Ops;
}

RoundStream::RoundStream(std::vector<Op> Vs, uint64_t Seed)
    : Variants(std::move(Vs)), R(Seed) {
  for (size_t I = 0; I < Variants.size(); ++I)
    Order.push_back(I);
  Pos = Order.size();
}

const Op &RoundStream::next() {
  if (Pos == Order.size()) {
    // Fisher-Yates shuffle of the next round.
    for (size_t I = Order.size() - 1; I > 0; --I)
      std::swap(Order[I], Order[R.nextBelow(I + 1)]);
    Pos = 0;
  }
  return Variants[Order[Pos++]];
}

Op nextServeOp(Rng &R, uint64_t Index) {
  Op O;
  uint64_t Pos = Index % 3000;
  int64_t C = pick(R, 0, 999);
  if (Pos % 750 == 17) {
    O.Class = "spinner";
    O.Source = "(let loop ((i " + str(C) + ")) (loop (+ i 1)))";
    O.Limits.TimeoutMs = 5;
    O.Outcome = JobOutcome::TrippedTimeout;
    O.Healthy = false;
  } else if (Pos % 600 == 101) {
    O.Class = "heap-eater";
    O.Source = "(let loop ((a '())) (loop (cons (make-vector 1024 " + str(C) +
               ") a)))";
    O.Limits.HeapBytes = 4u << 20;
    O.Limits.TimeoutMs = 2000;
    O.Outcome = JobOutcome::TrippedHeap;
    O.Healthy = false;
  } else if (Pos % 1000 == 555) {
    O.Class = "escalator";
    O.Source = "(define sink '())"
               "(with-handlers ([exn:heap-limit? (lambda (e)"
               "   (let loop ()"
               "     (set! sink (cons (make-vector 4096 " + str(C) + ") sink))"
               "     (loop)))])"
               "  (let loop ()"
               "    (set! sink (cons (make-vector 4096 0) sink))"
               "    (loop)))";
    O.Limits.HeapBytes = 4u << 20;
    O.Limits.HeapHeadroomBytes = 256u << 10;
    O.Limits.TimeoutMs = 5000;
    O.Outcome = JobOutcome::TrippedHeap;
    O.Healthy = false;
  } else {
    O.Limits = healthyLimits();
    uint64_t Kind = R.nextBelow(3);
    if (Kind == 0) {
      int64_t N = pick(R, 60, 180);
      O.Class = "mark-churn";
      O.Source = markChurn(N, C);
      O.Expected = str(markChurnRef(N, C));
    } else if (Kind == 1) {
      int64_t N = pick(R, 40, 120);
      O.Class = "parameterize";
      O.Source = "(let ((p (make-parameter " + str(C) + ")))"
                 " (let loop ((i 0) (acc 0))"
                 "  (if (= i " + str(N) + ") (+ acc (p))"
                 "   (loop (+ i 1) (+ acc (parameterize ((p (+ i (p)))) (p)))))))";
      O.Expected = str(N * (N - 1) / 2 + N * C + C);
    } else {
      int64_t N = pick(R, 30, 90), M = pick(R, 3, 7), Sum = 0;
      for (int64_t I = 0; I < N; ++I)
        Sum += I % M == 0 ? 2 * I : I + C;
      O.Class = "with-handlers";
      O.Source = "(let loop ((i 0) (acc 0))"
                 " (if (= i " + str(N) + ") acc"
                 "  (loop (+ i 1)"
                 "   (+ acc (with-handlers ((number? (lambda (e) (* 2 e))))"
                 "     (if (= 0 (modulo i " + str(M) + ")) (throw i) (+ i " +
                 str(C) + ")))))))";
      O.Expected = str(Sum);
    }
  }
  return O;
}

Op nextServeFibersOp(Rng &R, bool WarmUp) {
  Op O;
  O.Class = "churn-with-waits";
  O.Limits = healthyLimits();
  int Waits = static_cast<int>(pick(R, 1, 3));
  int64_t Sum = 0;
  std::string Body = "(let ((acc 0))";
  for (int W = 0; W < Waits; ++W) {
    int64_t K = WarmUp ? 0 : pick(R, 2, 8), N = pick(R, 40, 120),
            C = pick(R, 0, 999);
    Body += " (sleep-ms " + str(K) + ") (set! acc (+ acc " + markChurn(N, C) +
            "))";
    Sum += markChurnRef(N, C);
  }
  O.Source = Body + " acc)";
  O.Expected = str(Sum);
  return O;
}

} // namespace perfbench

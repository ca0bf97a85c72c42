//===- support/faults.cpp - Deterministic fault injection -----------------===//

#include "support/faults.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

namespace cmk {

const char *faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::Gc:
    return "gc";
  case FaultSite::Overflow:
    return "overflow";
  case FaultSite::NoFuse:
    return "nofuse";
  case FaultSite::Oom:
    return "oom";
  case FaultSite::ReifyOom:
    return "reify-oom";
  }
  return "?";
}

namespace {

bool parseSiteName(const std::string &Name, FaultSite &Out) {
  for (int I = 0; I < NumFaultSites; ++I) {
    FaultSite S = static_cast<FaultSite>(I);
    if (Name == faultSiteName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

std::string stripSpaces(const std::string &S) {
  std::string Out;
  for (char C : S)
    if (!std::isspace(static_cast<unsigned char>(C)))
      Out.push_back(C);
  return Out;
}

} // namespace

bool FaultInjector::configureFromSpec(const std::string &RawSpec,
                                      std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };

  std::string Spec = stripSpaces(RawSpec);
  // Parse into a scratch config first so a malformed spec leaves the
  // current schedules untouched.
  struct Parsed {
    FaultSite S;
    Mode M;
    uint64_t N;
    uint64_t Seed;
  };
  std::vector<Parsed> Entries;

  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Semi = Spec.find(';', Pos);
    std::string Entry = Spec.substr(
        Pos, Semi == std::string::npos ? std::string::npos : Semi - Pos);
    Pos = Semi == std::string::npos ? Spec.size() : Semi + 1;
    if (Entry.empty())
      continue;

    size_t Colon = Entry.find(':');
    if (Colon == std::string::npos)
      return Fail("fault spec entry missing ':': " + Entry);
    Parsed P{FaultSite::Gc, Mode::Off, 0, 0};
    if (!parseSiteName(Entry.substr(0, Colon), P.S))
      return Fail("unknown fault site: " + Entry.substr(0, Colon) +
                  " (want gc|overflow|nofuse|oom|reify-oom)");

    std::string Trigger = Entry.substr(Colon + 1);
    // Trigger params are comma-separated key=val pairs.
    uint64_t Pct = 0, Seed = 0;
    bool HavePct = false;
    size_t TPos = 0;
    while (TPos < Trigger.size()) {
      size_t Comma = Trigger.find(',', TPos);
      std::string KV = Trigger.substr(
          TPos, Comma == std::string::npos ? std::string::npos : Comma - TPos);
      TPos = Comma == std::string::npos ? Trigger.size() : Comma + 1;
      size_t Eq = KV.find('=');
      if (Eq == std::string::npos)
        return Fail("fault trigger missing '=': " + KV);
      std::string Key = KV.substr(0, Eq);
      uint64_t Val = 0;
      if (!parseU64(KV.substr(Eq + 1), Val))
        return Fail("bad fault trigger value: " + KV);
      if (Key == "at") {
        if (Val == 0)
          return Fail("at=N is 1-based; at=0 never fires");
        P.M = Mode::At;
        P.N = Val;
      } else if (Key == "every") {
        if (Val == 0)
          return Fail("every=0 is not a schedule");
        P.M = Mode::Every;
        P.N = Val;
      } else if (Key == "p") {
        if (Val > 100)
          return Fail("p=PCT is a percentage (0..100)");
        HavePct = true;
        Pct = Val;
      } else if (Key == "seed") {
        Seed = Val;
      } else {
        return Fail("unknown fault trigger key: " + Key +
                    " (want at|every|p|seed)");
      }
    }
    if (HavePct) {
      P.M = Mode::Prob;
      P.N = Pct;
      P.Seed = Seed;
    }
    if (P.M == Mode::Off)
      return Fail("fault entry has no trigger (want at=|every=|p=): " + Entry);
    Entries.push_back(P);
  }

  disarmAll();
  for (const Parsed &P : Entries)
    arm(P.S, P.M, P.N, P.Seed);
  return true;
}

bool FaultInjector::configureFromEnv() {
  const char *Spec = std::getenv("CMARKS_FAULT_SPEC");
  if (!Spec || !*Spec)
    return true;
  std::string Err;
  if (!configureFromSpec(Spec, &Err)) {
    std::fprintf(stderr, "CMARKS_FAULT_SPEC: %s\n", Err.c_str());
    return false;
  }
  return true;
}

void FaultInjector::arm(FaultSite S, Mode M, uint64_t N, uint64_t Seed) {
  Site &St = Sites[idx(S)];
  St.M = M;
  St.N = N;
  St.Seed = Seed;
  // Mix the site index into the seed so sites armed with the same seed
  // still draw independent streams.
  St.R = Rng(Seed * 0x100 + static_cast<uint64_t>(idx(S)) + 1);
}

void FaultInjector::reseed(uint64_t Salt) {
  for (Site &St : Sites)
    St.R = Rng((St.Seed * 0x100 + static_cast<uint64_t>(&St - Sites) + 1) ^
               (Salt * 0x9e3779b97f4a7c15ULL));
}

void FaultInjector::disarmAll() {
  for (Site &St : Sites) {
    St.M = Mode::Off;
    St.N = 0;
    St.Seed = 0;
  }
}

bool FaultInjector::shouldFail(FaultSite S) {
  Site &St = Sites[idx(S)];
  if (St.M == Mode::Off || SuspendDepth > 0)
    return false;
  ++St.Hits;
  bool Fire = false;
  switch (St.M) {
  case Mode::Off:
    break;
  case Mode::At:
    Fire = St.Hits == St.N;
    break;
  case Mode::Every:
    Fire = St.Hits % St.N == 0;
    break;
  case Mode::Prob:
    Fire = St.R.chance(St.N, 100);
    break;
  }
  if (Fire) {
    ++St.Injected;
    // Cheap tier: injections are rare by construction.
    if (Stats)
      ++Stats->FaultsInjected;
  }
  return Fire;
}

bool FaultInjector::anyArmed() const {
  for (const Site &St : Sites)
    if (St.M != Mode::Off)
      return true;
  return false;
}

std::string FaultInjector::report() const {
  std::ostringstream Out;
  Out << "fault injection report:\n";
  for (int I = 0; I < NumFaultSites; ++I) {
    const Site &St = Sites[I];
    const char *ModeName = St.M == Mode::Off     ? "off"
                           : St.M == Mode::At    ? "at"
                           : St.M == Mode::Every ? "every"
                                                 : "p";
    Out << "  " << faultSiteName(static_cast<FaultSite>(I)) << ": mode="
        << ModeName;
    if (St.M != Mode::Off)
      Out << " n=" << St.N;
    if (St.M == Mode::Prob)
      Out << " seed=" << St.Seed;
    Out << " hits=" << St.Hits << " injected=" << St.Injected << "\n";
  }
  return Out.str();
}

} // namespace cmk

#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "analytic/curve.h"
#include "analytic/footprint.h"
#include "analytic/symbolic_hist.h"
#include "hierarchy/enumerate.h"
#include "hierarchy/pareto.h"
#include "loopir/normalize.h"
#include "report/report.h"
#include "simcore/folded_curve.h"
#include "simcore/reuse_curve.h"
#include "trace/address_map.h"
#include "trace/period.h"
#include "trace/stream.h"

namespace drb {

namespace an = dr::analytic;
namespace ex = dr::explorer;
namespace hi = dr::hierarchy;
namespace sc = dr::simcore;

namespace {

std::string hexf(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string pointsText(const std::vector<an::AnalyticPoint>& pts) {
  std::string s;
  for (const an::AnalyticPoint& p : pts)
    s += std::to_string(p.size) + "," + std::to_string(p.FRExact.num()) +
         "/" + std::to_string(p.FRExact.den()) + "," + hexf(p.FR) + "," +
         std::to_string(p.CjTotal) + "," + std::to_string(p.CtotCopyTotal) +
         "," + std::to_string(p.CtotBypassTotal) + "," +
         std::to_string(p.level) + "," + std::to_string(p.gamma) + "," +
         (p.bypass ? "b" : "-") + (p.exact ? "e" : "-") + "," + p.label + "\n";
  return s;
}

std::string multiLevelText(const std::vector<an::MultiLevelPoint>& pts) {
  std::string s;
  for (const an::MultiLevelPoint& p : pts)
    s += std::to_string(p.level) + "," + std::to_string(p.size) + "," +
         std::to_string(p.misses) + "," + std::to_string(p.Ctot) + "," +
         std::to_string(p.FR.num()) + "/" + std::to_string(p.FR.den()) + "," +
         (p.exact ? "e" : "-") + "\n";
  return s;
}

std::string kneesText(const std::vector<std::vector<an::LevelKnee>>& all) {
  std::string s;
  for (const auto& knees : all) {
    for (const an::LevelKnee& k : knees)
      s += std::to_string(k.level) + "," + std::to_string(k.workingSetMax) +
           "," + std::to_string(k.misses) + "," + std::to_string(k.Ctot) +
           "," + hexf(k.FR) + ";";
    s += "\n";
  }
  return s;
}

std::string chainsText(const std::vector<hi::ChainDesign>& designs) {
  std::string s;
  for (const hi::ChainDesign& d : designs) {
    s += d.label + "|" + std::to_string(d.cost.onChipSize) + "|" +
         hexf(d.cost.energyPerFrame) + "|" + hexf(d.cost.power) + "|" +
         hexf(d.cost.normalizedPower) + "|" + hexf(d.cost.onChipArea) + "|" +
         hexf(d.cost.weighted) + "|";
    for (const hi::ChainLevel& l : d.chain.levels)
      s += std::to_string(l.size) + ":" + std::to_string(l.writes) + ":" +
           std::to_string(l.directReads) + ";";
    s += "\n";
  }
  return s;
}

}  // namespace

std::string explorationText(const ex::SignalExploration& e) {
  return dr::report::curveCsv(e.signalName, e.simulatedCurve) + "#pareto\n" +
         chainsText(e.pareto) + "#chains " + std::to_string(e.chains.size()) +
         "\n";
}

std::string withoutFidelity(const std::string& advisorCsv) {
  std::istringstream in(advisorCsv);
  std::string line, out;
  while (std::getline(in, line)) {
    std::stringstream ls(line);
    std::string c;
    for (int i = 0; std::getline(ls, c, ','); ++i)
      if (i != 3) out += c + ",";
    out += "\n";
  }
  return out;
}

ReplayResult replayExplore(const dr::loopir::Program& p, int signal,
                           const ex::SignalExploration* monolith,
                           const std::string* expectedCsv, Tracer* tracer) {
  using dr::loopir::AccessKind;
  const ex::ExploreOptions opts;  // the defaults every caller here uses
  ReplayResult out;
  // The whole replay span covers the stages only; the comparison against
  // the reference and the teardown after it are not part of the request.
  std::optional<ScopedSpan> whole;
  whole.emplace(tracer, "explorer.replay");
  ex::SignalExploration r;
  r.signal = signal;
  r.signalName = p.signals[static_cast<std::size_t>(signal)].name;

  // Normalize, map addresses and size the signal's read stream.
  std::optional<dr::loopir::Program> pnHolder;
  std::optional<dr::trace::AddressMap> mapHolder;
  dr::trace::TraceFilter filter;
  filter.signal = signal;
  {
    ScopedSpan s(tracer, "explorer.prepare");
    pnHolder.emplace(dr::loopir::normalized(p));
    mapHolder.emplace(*pnHolder);
    dr::trace::TraceCursor cursor(*pnHolder, *mapHolder, filter);
    r.Ctot = cursor.length();
  }
  const dr::loopir::Program& pn = *pnHolder;
  const dr::trace::AddressMap& map = *mapHolder;
  out.eventsTotal = r.Ctot;

  // Analytic points per merged access group, then the combined curve.
  {
    ScopedSpan s(tracer, "analytic.points");
    for (std::size_t n = 0; n < pn.nests.size(); ++n) {
      const dr::loopir::LoopNest& nest = pn.nests[n];
      for (std::size_t a = 0; a < nest.body.size(); ++a) {
        const dr::loopir::ArrayAccess& acc = nest.body[a];
        if (acc.signal != signal || acc.kind != AccessKind::Read) continue;
        bool merged = false;
        for (ex::AccessAnalysis& prev : r.accesses) {
          if (prev.nest != static_cast<int>(n)) continue;
          if (nest.body[static_cast<std::size_t>(prev.accessIndex)].indices !=
              acc.indices)
            continue;
          ++prev.occurrences;
          prev.Ctot += nest.iterationCount();
          merged = true;
          break;
        }
        if (merged) continue;
        ex::AccessAnalysis analysis;
        analysis.nest = static_cast<int>(n);
        analysis.accessIndex = static_cast<int>(a);
        analysis.Ctot = nest.iterationCount();
        r.accesses.push_back(std::move(analysis));
      }
    }
    for (ex::AccessAnalysis& a : r.accesses) {
      const dr::loopir::LoopNest& nest = pn.nests[static_cast<std::size_t>(a.nest)];
      if (nest.depth() >= 2)
        a.points = an::analyticReusePoints(
            nest, nest.body[static_cast<std::size_t>(a.accessIndex)],
            opts.analyticOptions);
    }
  }
  {
    ScopedSpan s(tracer, "analytic.multilevel");
    for (ex::AccessAnalysis& a : r.accesses) {
      const dr::loopir::LoopNest& nest = pn.nests[static_cast<std::size_t>(a.nest)];
      a.multiLevel = an::multiLevelPoints(
          nest, nest.body[static_cast<std::size_t>(a.accessIndex)]);
    }
  }
  {
    ScopedSpan s(tracer, "analytic.points");
    for (ex::AccessAnalysis& a : r.accesses) {
      if (a.occurrences == 1) continue;
      for (an::AnalyticPoint& pt : a.points) {
        pt.CtotCopyTotal *= a.occurrences;
        pt.CtotBypassTotal *= a.occurrences;
        pt.FRExact = dr::support::Rational(pt.CtotCopyTotal, pt.CjTotal);
        pt.FR = pt.FRExact.toDouble();
      }
      for (an::MultiLevelPoint& pt : a.multiLevel) {
        pt.Ctot *= a.occurrences;
        pt.FR = dr::support::Rational(pt.Ctot, pt.misses);
      }
    }
    r.combinedPoints = ex::combineAccessPoints(r.accesses);
  }

  // Working-set knees: one walk of each reading nest's iteration space.
  {
    ScopedSpan s(tracer, "analytic.knees");
    for (std::size_t n = 0; n < pn.nests.size(); ++n) {
      std::vector<int> indices;
      for (std::size_t a = 0; a < pn.nests[n].body.size(); ++a)
        if (pn.nests[n].body[a].signal == signal &&
            pn.nests[n].body[a].kind == AccessKind::Read)
          indices.push_back(static_cast<int>(a));
      if (indices.empty()) continue;
      r.kneesPerNest.push_back(
          an::workingSetKnees(pn, map, static_cast<int>(n), indices));
      out.kneePointsWalked += pn.nests[n].iterationCount();
    }
  }

  auto plannedSizes = [&] {
    std::vector<i64> sizes = sc::sizeGrid(
        std::max<i64>(1, r.distinctElements), opts.denseGridUpTo);
    for (const an::AnalyticPoint& pt : r.combinedPoints)
      if (pt.size > 0) sizes.push_back(pt.size);
    for (const auto& knees : r.kneesPerNest)
      for (const an::LevelKnee& knee : knees)
        if (knee.workingSetMax > 0) sizes.push_back(knee.workingSetMax);
    for (const ex::AccessAnalysis& a : r.accesses)
      for (const an::MultiLevelPoint& pt : a.multiLevel)
        if (pt.size > 0) sizes.push_back(pt.size);
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    return sizes;
  };
  auto assemble = [&](const sc::StackHistogram& h, sc::Fidelity fid) {
    r.distinctElements = h.distinct();
    r.curveFidelity = fid;
    for (i64 size : plannedSizes()) {
      const sc::SimResult res = h.resultAt(size);
      sc::ReusePoint pt;
      pt.size = size;
      pt.writes = res.misses;
      pt.reads = res.accesses;
      pt.reuseFactor = res.reuseFactor();
      pt.fidelity = fid;
      r.simulatedCurve.points.push_back(pt);
    }
  };

  // The curve: the symbolic closed form when it covers the stream, else
  // the folded/streamed stack engine.
  {
    std::optional<dr::support::Expected<an::SymbolicResult>> sym;
    {
      ScopedSpan s(tracer, "analytic.symbolic");
      sym.emplace(an::symbolicStackHistogram(pn, signal, sc::Policy::Opt));
      if (sym->hasValue()) assemble((*sym)->hist, sc::Fidelity::Symbolic);
    }
    out.symbolicAccepted = sym->hasValue();
    if (!out.symbolicAccepted) {
      out.symbolicReason = sym->status().message();
      ScopedSpan s(tracer, "simcore.curve");
      dr::trace::TraceCursor cursor(pn, map, filter);
      const dr::trace::PeriodInfo period =
          dr::trace::detectPeriod(cursor.nests());
      sc::FoldedCurveOptions foldOpts;
      foldOpts.runGranularity = opts.runGranularity;
      sc::FoldedStats stats;
      const sc::StackHistogram h = sc::foldedStackHistogram(
          cursor, period, sc::Policy::Opt, &stats, foldOpts);
      r.simulationStats = stats;
      out.eventsSimulated = stats.simulatedEvents;
      assemble(h, stats.fidelity);
    }
  }

  // Copy-candidate chains over analytic, knee, multi-level and selected
  // simulated points, then the Pareto filter.
  {
    ScopedSpan s(tracer, "hierarchy.chains");
    i64 modeledCtot = 0;
    for (const ex::AccessAnalysis& a : r.accesses)
      if (!a.points.empty()) modeledCtot += a.Ctot;
    std::vector<hi::CandidatePoint> candidates;
    if (modeledCtot > 0)
      candidates = ex::toCandidates(r.combinedPoints, modeledCtot);
    hi::EnumerateOptions chainOpts = opts.chainOptions;
    chainOpts.directBackgroundReads = r.Ctot - modeledCtot;
    if (r.kneesPerNest.size() == 1 && modeledCtot == r.Ctot) {
      for (const an::LevelKnee& knee : r.kneesPerNest.front()) {
        if (knee.workingSetMax <= 0 || knee.misses <= 0) continue;
        candidates.push_back({knee.workingSetMax, knee.misses, r.Ctot, 0,
                              "WS L" + std::to_string(knee.level)});
      }
    }
    if (r.accesses.size() == 1 && modeledCtot == r.Ctot &&
        r.accesses.front().Ctot == r.Ctot) {
      for (const an::MultiLevelPoint& pt : r.accesses.front().multiLevel) {
        if (!pt.exact || pt.misses >= pt.Ctot || pt.size <= 0) continue;
        candidates.push_back({pt.size, pt.misses, r.Ctot, 0,
                              "ML L" + std::to_string(pt.level)});
      }
    }
    if (opts.includeSimulatedCandidates && chainOpts.directBackgroundReads == 0 &&
        !r.simulatedCurve.points.empty()) {
      const double maxFr = r.simulatedCurve.maxReuseFactor();
      double lastKept = 1.0;
      std::vector<const sc::ReusePoint*> picked;
      for (const sc::ReusePoint& pt : r.simulatedCurve.points) {
        if (pt.writes <= 0 || pt.reuseFactor <= 1.0) continue;
        const bool saturated = pt.reuseFactor >= maxFr * (1.0 - 1e-9);
        if (pt.reuseFactor >= lastKept * 1.4 || saturated) {
          picked.push_back(&pt);
          lastKept = pt.reuseFactor;
          if (saturated) break;
        }
      }
      while (static_cast<i64>(picked.size()) > opts.maxSimulatedCandidates)
        picked.erase(picked.begin() + 1);
      for (const sc::ReusePoint* pt : picked)
        candidates.push_back({pt->size, pt->writes, r.Ctot, 0,
                              "sim A=" + std::to_string(pt->size)});
    }
    if (chainOpts.directBackgroundReads < r.Ctot && !candidates.empty())
      r.chains = hi::enumerateChains(
          r.Ctot, candidates, opts.library,
          p.signals[static_cast<std::size_t>(signal)].elementBits, chainOpts);
  }
  {
    ScopedSpan s(tracer, "hierarchy.pareto");
    if (!r.chains.empty()) r.pareto = hi::paretoChains(r.chains);
  }
  out.chainsEnumerated = static_cast<i64>(r.chains.size());
  out.paretoKept = static_cast<i64>(r.pareto.size());

  {
    ScopedSpan s(tracer, "report.csv");
    out.curveCsv = dr::report::curveCsv(r.signalName, r.simulatedCurve);
  }
  whole.reset();

  if (monolith) {
    const ex::SignalExploration& m = *monolith;
    if (m.Ctot != r.Ctot || m.distinctElements != r.distinctElements)
      out.mismatch = "trace totals";
    else if (pointsText(m.combinedPoints) != pointsText(r.combinedPoints))
      out.mismatch = "analytic points";
    else if (m.accesses.size() != r.accesses.size())
      out.mismatch = "access groups";
    else if (kneesText(m.kneesPerNest) != kneesText(r.kneesPerNest))
      out.mismatch = "working-set knees";
    else if (dr::report::curveCsv(m.signalName, m.simulatedCurve) != out.curveCsv ||
             m.curveFidelity != r.curveFidelity)
      out.mismatch = "simulated curve";
    else if (chainsText(m.chains) != chainsText(r.chains))
      out.mismatch = "chains";
    else if (chainsText(m.pareto) != chainsText(r.pareto))
      out.mismatch = "pareto";
    for (std::size_t i = 0; out.mismatch.empty() && i < m.accesses.size(); ++i)
      if (pointsText(m.accesses[i].points) != pointsText(r.accesses[i].points) ||
          multiLevelText(m.accesses[i].multiLevel) !=
              multiLevelText(r.accesses[i].multiLevel))
        out.mismatch = "per-access points";
  }
  if (expectedCsv && out.mismatch.empty() && *expectedCsv != out.curveCsv)
    out.mismatch = "simulated curve vs reference";
  return out;
}

}  // namespace drb

// explore_zoo: one in-process caller in a closed loop over a fixed set of
// Explore and Advise requests. No service code runs here.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>

#include "common.h"
#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "items.h"
#include "partition/advisor.h"
#include "replay.h"
#include "report/report.h"
#include "support/hash.h"
#include "support/parallel.h"

namespace drb {

namespace {

namespace ex = dr::explorer;
namespace pa = dr::partition;

struct Outcome {
  bool ok = false;
  std::string text;  ///< canonical reply content (digested)
  ex::SignalExploration exploration;  ///< Explore items
  i64 solveUs = 0;                    ///< Advise items
};

Outcome call(const ZooItem& it, ex::SimEngine engine = ex::SimEngine::Auto) {
  Outcome o;
  if (it.advise) {
    pa::AdvisorOptions opts;
    opts.solve.mode = it.mode;
    opts.solve.capacity = kAdviseCapacity;
    opts.solve.ways = kAdviseWays;
    opts.explore.engine = engine;
    auto r = pa::adviseKernelChecked(it.program, opts);
    if (!r.hasValue()) return o;
    o.ok = true;
    o.text = dr::report::advisorCsv(*r);
    o.solveUs = r->solveMicros;
    return o;
  }
  ex::ExploreOptions opts;
  opts.engine = engine;
  auto r = ex::exploreSignalChecked(it.program, it.signal, opts);
  if (!r.hasValue()) return o;
  o.ok = true;
  o.text = explorationText(*r);
  o.exploration = std::move(*r);
  return o;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string digestOf(const Outcome& o) {
  return hex64(dr::support::fnv1a(o.text));
}

/// Writes fresh expected digests after checking each item against the
/// materialized-trace reference engine.
int emitDigests(const std::vector<ZooItem>& items) {
  int bad = 0;
  for (const ZooItem& it : items) {
    const Outcome fast = call(it);
    const Outcome ref = call(it, ex::SimEngine::Materialized);
    bool same = fast.ok && ref.ok;
    if (same && it.advise)
      same = withoutFidelity(fast.text) == withoutFidelity(ref.text);
    else if (same)
      same = dr::report::curveCsv(fast.exploration.signalName,
                                  fast.exploration.simulatedCurve) ==
             dr::report::curveCsv(ref.exploration.signalName,
                                  ref.exploration.simulatedCurve);
    if (!same) {
      std::fprintf(stderr, "%s: reply differs from the materialized reference\n",
                   it.name.c_str());
      ++bad;
      continue;
    }
    std::printf("%s %s\n", it.name.c_str(), digestOf(fast).c_str());
  }
  return bad == 0 ? 0 : 1;
}

std::map<std::string, std::string> loadDigests(const std::string& path) {
  std::map<std::string, std::string> d;
  std::ifstream in(path);
  std::string name, digest;
  while (in >> name >> digest) d[name] = digest;
  return d;
}

/// The zoo's cold requests: small kernels of the five families, the kind
/// routed_mix sends as cold misses, each explored once. The explorer keeps
/// no cache in process, so an item's first call is no colder than its
/// later ones; a kernel the process has not seen is what "cold" can mean
/// here. The set is fixed, like the items; `seed` only orders it.
/// `expected` holds each kernel's curve CSV from the materialized-trace
/// engine.
struct ColdKernel {
  ZooItem item;
  std::string expected;
};

std::vector<ColdKernel> coldKernels(std::uint64_t seed, int count, bool& ok) {
  Rng rng(0x636f6c64ULL);
  std::set<std::string> used;
  std::vector<ColdKernel> out;
  for (int i = 0; i < count; ++i) {
    const KernelSpec k =
        randomKernel(rng, families()[static_cast<std::size_t>(i) % families().size()], used);
    auto p = dr::frontend::compileKernelChecked(k.source);
    if (!p.hasValue()) {
      ok = false;
      continue;
    }
    ColdKernel c;
    c.item.name = k.key;
    c.item.program = std::move(*p);
    c.item.signal = signalIndex(c.item.program, k.signal);
    const Outcome ref = call(c.item, ex::SimEngine::Materialized);
    ok = ok && ref.ok;
    c.expected = dr::report::curveCsv(ref.exploration.signalName,
                                      ref.exploration.simulatedCurve);
    out.push_back(std::move(c));
  }
  Rng order(seed ^ 0x636f6c64ULL);
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[static_cast<std::size_t>(order.below(static_cast<i64>(i)))]);
  return out;
}

}  // namespace

int runExploreZoo(const RunArgs& args, Clock::time_point processStart) {
  const std::vector<ZooItem> items = zooItems();
  if (args.emitDigests) return emitDigests(items);
  const std::map<std::string, std::string> expected =
      loadDigests(args.digestsPath);
  if (expected.size() != items.size()) {
    std::fprintf(stderr, "expected-digest file %s lists %zu of %zu items\n",
                 args.digestsPath.c_str(), expected.size(), items.size());
    return 1;
  }
  std::printf("explore_zoo: %zu items, explorer threads %d (DR_THREADS unset)\n",
              items.size(), dr::support::parallelThreads());

  Tally tally;
  auto check = [&](const ZooItem& it, const Outcome& o) {
    auto e = expected.find(it.name);
    const bool ok = o.ok && e != expected.end() && e->second == digestOf(o);
    tally.record(it.advise ? "advise" : "explore", ok);
    return ok;
  };

  // Reference replies for the cold kernels, before any timed call.
  constexpr int kColdKernels = 300;
  const Clock::time_point refStart = Clock::now();
  bool warmOk = true;
  const std::vector<ColdKernel> cold = coldKernels(args.seed, kColdKernels, warmOk);
  const double refMs = msBetween(refStart, Clock::now());
  std::printf("reference replies for %zu cold kernels took %.3f s (not in setup_s)\n",
              cold.size(), refMs / 1000.0);

  // Set-up: a fixed number of calls of a small request outside the item
  // set brings the process (thread pool, allocator, a host waking the
  // virtual CPUs) to steady state; then one untimed warm-up pass over the
  // items. setup_s is everything before the first timed request except
  // the reference replies and the primer, which are the benchmark's own
  // work and printed on their own.
  constexpr int kPrimerCalls = 300;
  const Clock::time_point primerStart = Clock::now();
  {
    const ZooItem primer = primerItem();
    for (int i = 0; i < kPrimerCalls; ++i) (void)call(primer);
  }
  const Clock::time_point warmStart = Clock::now();
  std::printf("primer: %d calls in %.3f s (not in setup_s)\n", kPrimerCalls,
              msBetween(primerStart, warmStart) / 1000.0);
  std::map<std::string, double> firstMs;
  for (const ZooItem& it : items) {
    const Clock::time_point t0 = Clock::now();
    const Outcome o = call(it);
    const double ms = msBetween(t0, Clock::now());
    firstMs[it.name] = ms;
    auto e = expected.find(it.name);
    if (!o.ok || e == expected.end() || e->second != digestOf(o)) {
      std::printf("warm-up: %s reply does not match its expected digest\n",
                  it.name.c_str());
      warmOk = false;
    }
  }
  const double setupS =
      (msBetween(processStart, Clock::now()) - refMs - msBetween(primerStart, warmStart)) /
      1000.0;

  // Seeded request order: a fresh shuffle of the item set per pass.
  Rng rng(args.seed);
  std::uint64_t streamDigest = dr::support::kFnvOffset64;
  for (const ColdKernel& c : cold) streamDigest = dr::support::fnv1a(c.item.name, streamDigest);
  auto passOrder = [&] {
    std::vector<int> order(items.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(static_cast<i64>(i)))]);
    for (int idx : order) streamDigest = dr::support::fnv1aU64(streamDigest, static_cast<std::uint64_t>(idx));
    return order;
  };

  std::map<std::string, std::vector<double>> perItemMs;
  std::vector<double> allMs;
  i64 okCount = 0;
  const double budgetMs = args.seconds * 1000.0;

  Metrics m;
  if (!args.trace) {
    // A whole number of rounds fixed by --seconds (one per nominal 6.5 s, a
    // round's length on a 4-core machine), not by the clock: every run then
    // has the same sample count, and with it the same tail percentile. At
    // 7 rounds that is p95, which falls in the middle of me_qcif_New's
    // samples (me_qcif_Old's 7 are above it).
    const int rounds = std::max(3, static_cast<int>(std::lround(args.seconds / 6.5)));
    const std::size_t totalCalls = static_cast<std::size_t>(rounds) * items.size();
    // The cold kernels are interleaved with the item calls, in proportion,
    // so that they sample the whole run rather than a few moments of it
    // (the shared host has slow spells of a few seconds); their time is
    // not part of the item loop's throughput.
    std::vector<double> coldMs;
    double coldWallMs = 0;
    std::size_t calls = 0;
    auto coldUpTo = [&](std::size_t target) {
      while (coldMs.size() < target) {
        const ColdKernel& c = cold[coldMs.size()];
        const Clock::time_point t0 = Clock::now();
        const Outcome o = call(c.item);
        const double ms = msBetween(t0, Clock::now());
        coldMs.push_back(ms);
        coldWallMs += ms;
        tally.record("cold", o.ok && dr::report::curveCsv(o.exploration.signalName,
                                                          o.exploration.simulatedCurve) ==
                                         c.expected);
      }
    };
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      for (int idx : passOrder()) {
        const ZooItem& it = items[static_cast<std::size_t>(idx)];
        const Clock::time_point t0 = Clock::now();
        const Outcome o = call(it);
        const double ms = msBetween(t0, Clock::now());
        if (check(it, o)) ++okCount;
        perItemMs[it.name].push_back(ms);
        allMs.push_back(ms);
        ++calls;
        coldUpTo(cold.size() * calls / totalCalls);
      }
    }
    coldUpTo(cold.size());
    const double wallS = (msBetween(start, Clock::now()) - coldWallMs) / 1000.0;
    // Medians are taken item by item first: every item is called equally
    // often, spread over the run, so an item's median shrugs off the calls
    // a slow spell of the host hit, where a median pooled over the items
    // would shift with the share of the run the spells covered. The items
    // respond unequally to the host's state, so the ones near the middle
    // swap places between runs; the median over the items is therefore the
    // Harrell-Davis estimate, which moves smoothly when they do.
    std::vector<double> itemMedians, exploreMedians, adviseMedians;
    for (const ZooItem& it : items) {
      const double med = median(perItemMs[it.name]);
      itemMedians.push_back(med);
      (it.advise ? adviseMedians : exploreMedians).push_back(med);
    }
    const Tail tail = ladderTail(allMs);
    std::printf("rounds %d, requests %zu, cold kernels %zu, stream digest %016llx\n",
                rounds, allMs.size(), coldMs.size(),
                static_cast<unsigned long long>(streamDigest));
    std::printf("tail_ms is p%g of %zu samples\n", tail.percentile, tail.samples);
    for (const ZooItem& it : items) {
      const std::vector<double>& v = perItemMs[it.name];
      std::printf("  %-26s median %10.3f ms (min %.3f, max %.3f, %zu calls; "
                  "first call %.3f)\n",
                  it.name.c_str(), median(v), *std::min_element(v.begin(), v.end()),
                  *std::max_element(v.begin(), v.end()), v.size(), firstMs[it.name]);
    }
    m.set("setup_s", setupS, "s");
    m.set("p50_ms", harrellDavisMedian(itemMedians), "ms");
    m.set("tail_ms", tail.value, "ms");
    m.set("throughput_rps", static_cast<double>(okCount) / wallS, "1/s");
    m.set("explore_geomean_ms", geomean(exploreMedians), "ms");
    m.set("advise_p50_ms", harrellDavisMedian(adviseMedians), "ms");
    m.set("hot_p50_ms", harrellDavisMedian(exploreMedians), "ms");
    m.set("cold_p50_ms", median(coldMs), "ms");
  } else {
    // Traced run: untraced and traced passes alternate, the untraced ones
    // giving the baseline for the tracing overhead. A traced pass times
    // each library call in a span, then replays each Explore stage by
    // stage and checks the stage outputs against the call's result.
    std::map<std::string, double> untracedMs;
    const char* stages[] = {"explorer.prepare", "analytic.points",
                            "analytic.multilevel", "analytic.knees",
                            "analytic.symbolic", "simcore.curve",
                            "hierarchy.chains", "hierarchy.pareto",
                            "report.csv"};
    Tracer tracer;
    std::map<std::string, double> tracedCallMs;
    std::map<std::string, std::map<std::string, double>> itemStageUs;
    std::map<std::string, i64> rejectReasons;
    std::map<std::string, double> counts;
    std::vector<double> solveUs;
    double csvBytes = 0;
    std::string mismatch;
    i64 exploreRequests = 0, adviseRequests = 0;
    int passes = 0;
    const Clock::time_point start = Clock::now();
    while (passes < 1 || msBetween(start, Clock::now()) < budgetMs) {
      for (int idx : passOrder()) {
        const ZooItem& it = items[static_cast<std::size_t>(idx)];
        const Clock::time_point t0 = Clock::now();
        const Outcome o = call(it);
        untracedMs[it.name] += msBetween(t0, Clock::now());
        if (check(it, o)) ++okCount;
      }
      for (int idx : passOrder()) {
        const ZooItem& it = items[static_cast<std::size_t>(idx)];
        Outcome o;
        {
          ScopedSpan s(&tracer, it.advise ? "partition.advise" : "explorer.monolith");
          const Clock::time_point t0 = Clock::now();
          o = call(it);
          tracedCallMs[it.name] += msBetween(t0, Clock::now());
        }
        if (it.advise) {
          ++adviseRequests;
          solveUs.push_back(static_cast<double>(o.solveUs));
        } else {
          ++exploreRequests;
          const std::map<std::string, double> before = tracer.totalUs();
          const ReplayResult rr = replayExplore(it.program, it.signal,
                                                &o.exploration, nullptr, &tracer);
          for (const auto& [name, us] : tracer.totalUs()) {
            auto b = before.find(name);
            itemStageUs[it.name][name] += us - (b == before.end() ? 0.0 : b->second);
          }
          if (!rr.mismatch.empty() && mismatch.empty())
            mismatch = it.name + ": " + rr.mismatch;
          counts["analytic.knees_points_walked"] += static_cast<double>(rr.kneePointsWalked);
          counts["simcore.events_total"] += static_cast<double>(rr.eventsTotal);
          counts["simcore.events_simulated"] += static_cast<double>(rr.eventsSimulated);
          counts["hierarchy.chains_enumerated"] += static_cast<double>(rr.chainsEnumerated);
          counts["hierarchy.pareto_kept"] += static_cast<double>(rr.paretoKept);
          csvBytes += static_cast<double>(rr.curveCsv.size());
          counts[rr.symbolicAccepted ? "analytic.symbolic_accepted"
                                     : "analytic.symbolic_rejected"] += 1;
          if (!rr.symbolicAccepted) ++rejectReasons[rr.symbolicReason];
        }
        if (check(it, o)) ++okCount;
      }
      ++passes;
    }

    const std::map<std::string, double> self = tracer.selfUs();
    const std::map<std::string, double> total = tracer.totalUs();
    auto at = [](const std::map<std::string, double>& mp, const std::string& k) {
      auto it = mp.find(k);
      return it == mp.end() ? 0.0 : it->second;
    };
    double stagesSum = 0, stagesSelf = 0;
    for (const char* stage : stages) {
      stagesSum += at(total, stage);
      stagesSelf += at(self, stage);
    }
    // The stages' self times must account for the whole replay.
    const double selfSumRatio = stagesSelf / std::max(1e-9, at(total, "explorer.replay"));

    double tracedSum = 0, untracedSum = 0;
    for (const auto& [name, ms] : tracedCallMs) {
      tracedSum += ms;
      untracedSum += untracedMs[name];
    }
    const double ex = static_cast<double>(std::max<i64>(1, exploreRequests));
    std::map<std::string, double> v;
    for (const char* stage : stages)
      v[std::string(stage) + "_us"] = at(self, stage) / ex;
    // The library call's time not accounted for by its replayed stages.
    v["explorer.glue_us"] = (at(total, "explorer.monolith") - stagesSum) / ex;
    for (const auto& [name, c] : counts) v[name] = c / passes;
    v["report.csv_bytes"] = csvBytes / ex;
    v["simcore.simulated_ratio"] =
        counts["simcore.events_total"] > 0
            ? counts["simcore.events_simulated"] / counts["simcore.events_total"]
            : 0;
    v["hierarchy.pareto_ratio"] =
        counts["hierarchy.chains_enumerated"] > 0
            ? counts["hierarchy.pareto_kept"] / counts["hierarchy.chains_enumerated"]
            : 0;
    v["partition.solve_us"] = mean(solveUs);
    v["trace.overhead_ratio"] = untracedSum > 0 ? tracedSum / untracedSum : 0;
    v["trace.self_sum_ratio"] = selfSumRatio;

    std::printf("traced passes %d (%lld explore, %lld advise requests)\n", passes,
                static_cast<long long>(exploreRequests),
                static_cast<long long>(adviseRequests));
    std::printf("per-item split, ms per request (stage self times):\n");
    for (const ZooItem& it : items) {
      if (it.advise) continue;
      const auto& st = itemStageUs[it.name];
      std::printf("  %-18s call %9.2f |", it.name.c_str(),
                  tracedCallMs[it.name] / passes);
      for (const char* stage : stages)
        std::printf(" %s %.2f", stage, at(st, stage) / 1000.0 / passes);
      std::printf("\n");
    }
    {
      const double knees = at(itemStageUs["me_qcif_New"], "analytic.knees");
      std::printf("me_qcif_New: analytic.knees is %.1f%% of the call\n",
                  100.0 * knees / 1000.0 / std::max(1e-9, tracedCallMs["me_qcif_New"]));
    }
    for (const auto& [reason, n] : rejectReasons)
      std::printf("symbolic rejected x%lld: %s\n", static_cast<long long>(n),
                  reason.c_str());
    std::printf("trace: stage self times sum to %.4f of explorer.replay "
                "(tolerance 0.02); overhead ratio %.4f\n",
                selfSumRatio, v["trace.overhead_ratio"]);
    if (!mismatch.empty()) {
      std::printf("replay mismatch: %s\n", mismatch.c_str());
      warmOk = false;
    }
    if (std::abs(selfSumRatio - 1.0) > 0.02) {
      std::printf("trace invalid: stage self times do not cover the replay\n");
      warmOk = false;
    }
    fillPerLayer(m, v);
  }
  if (!args.trace) {
    m.set("ok_ratio",
          static_cast<double>(tally.attempted() - tally.failed()) /
              static_cast<double>(std::max<i64>(1, tally.attempted())),
          "ratio");
    m.set("peak_rss_mb", peakRssMb(), "MiB");
  }
  tally.print();
  const bool correct = warmOk && tally.failed() == 0;
  printResult(correct, tally.attempted(), tally.failed(), m);
  return 0;
}

}  // namespace drb

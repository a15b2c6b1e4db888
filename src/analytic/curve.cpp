#include "analytic/curve.h"

#include <algorithm>
#include <unordered_set>

#include "analytic/footprint.h"
#include "simcore/stream_stack.h"
#include "support/contracts.h"
#include "support/strings.h"

namespace dr::analytic {

using dr::support::checkedMul;
using dr::support::i64;

namespace {

AnalyticPoint fromMax(const MaxReuse& max) {
  AnalyticPoint pt;
  pt.size = max.AMax;
  pt.FRExact = max.FRmax;
  pt.FR = max.FRmax.toDouble();
  pt.CjTotal = max.CjTotal();
  pt.CtotCopyTotal = max.CtotTotal();
  pt.CtotBypassTotal = 0;
  pt.level = max.pairOuterLevel;
  pt.gamma = -1;
  pt.bypass = false;
  pt.exact = max.exact;
  pt.label = "L" + std::to_string(max.pairOuterLevel) + " max";
  return pt;
}

AnalyticPoint fromPartial(const MaxReuse& max, const PartialPoint& pp) {
  AnalyticPoint pt;
  pt.size = pp.A;
  pt.FRExact = pp.FR;
  pt.FR = pp.FR.toDouble();
  pt.CjTotal =
      dr::support::checkedMul(pp.missesPerOuter, max.outerIterations);
  pt.CtotCopyTotal =
      dr::support::checkedMul(pp.CtotCopyPerOuter, max.outerIterations);
  pt.CtotBypassTotal =
      dr::support::checkedMul(pp.CtotBypassPerOuter, max.outerIterations);
  pt.level = max.pairOuterLevel;
  pt.gamma = pp.gamma;
  pt.bypass = pp.bypass;
  pt.exact = max.exact;
  pt.label = "L" + std::to_string(max.pairOuterLevel) +
             " g=" + std::to_string(pp.gamma) + (pp.bypass ? " bypass" : "");
  return pt;
}

}  // namespace

std::vector<AnalyticPoint> analyticReusePoints(
    const LoopNest& nest, const ArrayAccess& access,
    const AnalyticCurveOptions& opts) {
  DR_REQUIRE(opts.partialStride >= 1);
  DR_REQUIRE(opts.maxPartialPointsPerLevel >= 1);
  std::vector<AnalyticPoint> out;
  for (int p = nest.depth() - 2; p >= 0; --p) {
    MaxReuse max = analyzePair(nest, access, p);
    if (!max.hasReuse) continue;
    out.push_back(fromMax(max));
    GammaRange range = gammaRange(max);
    if (range.empty() || max.reuseRepeat != 1) continue;
    i64 stride = opts.partialStride;
    while ((range.count() + stride - 1) / stride >
           opts.maxPartialPointsPerLevel)
      ++stride;
    for (const PartialPoint& pp :
         partialCurve(max, stride, opts.withBypass))
      out.push_back(fromPartial(max, pp));
  }
  std::sort(out.begin(), out.end(),
            [](const AnalyticPoint& a, const AnalyticPoint& b) {
              if (a.size != b.size) return a.size < b.size;
              return a.FR < b.FR;
            });
  return out;
}

namespace {

/// Flat address of `acc` as an affine function of the loop counters
/// k_d in [0, trip_d): the map is row-major over padded extents, so
/// probing the first iteration and one step of each loop recovers it.
struct AffineAddress {
  i64 base = 0;
  std::vector<i64> step;  ///< per loop
};

AffineAddress affineAddress(const loopir::LoopNest& nest,
                            const loopir::ArrayAccess& acc,
                            const dr::trace::AddressMap& map) {
  const std::size_t depth = nest.loops.size();
  std::vector<i64> iter(depth);
  for (std::size_t d = 0; d < depth; ++d) iter[d] = nest.loops[d].begin;
  auto addressAt = [&] {
    std::vector<i64> index;
    index.reserve(acc.indices.size());
    for (const loopir::AffineExpr& e : acc.indices)
      index.push_back(e.evaluate(iter));
    return map.address(acc.signal, index);
  };
  AffineAddress out;
  out.base = addressAt();
  out.step.assign(depth, 0);
  for (std::size_t d = 0; d < depth; ++d) {
    if (nest.loops[d].tripCount() < 2) continue;
    iter[d] += nest.loops[d].step;
    out.step[d] = addressAt() - out.base;
    iter[d] = nest.loops[d].begin;
  }
  return out;
}

/// |W0| for every level in [0, levels): the window of level l at the first
/// outer iteration is the first prod_{d>=l} trip_d iterations of the nest
/// in lexicographic order, so one pass over the level-0 box, sampling the
/// distinct count at each prefix boundary, serves all of them.
std::vector<i64> firstWindowSizes(const loopir::LoopNest& nest,
                                  const std::vector<AffineAddress>& addrs,
                                  const std::vector<i64>& trip, int levels) {
  const int depth = nest.depth();
  i64 lo = 0, hi = 0;
  for (std::size_t a = 0; a < addrs.size(); ++a) {
    i64 aLo = addrs[a].base, aHi = addrs[a].base;
    for (int d = 0; d < depth; ++d) {
      const i64 reach = checkedMul(addrs[a].step[static_cast<std::size_t>(d)],
                                   trip[static_cast<std::size_t>(d)] - 1);
      (reach < 0 ? aLo : aHi) += reach;
    }
    lo = a == 0 ? aLo : std::min(lo, aLo);
    hi = a == 0 ? aHi : std::max(hi, aHi);
  }
  simcore::StreamingDensifier seen(lo, hi);

  // boxEnd[l]: iterations in one level-l window.
  std::vector<i64> boxEnd(static_cast<std::size_t>(levels));
  i64 box = 1;
  for (int d = depth - 1; d >= 0; --d) {
    box = checkedMul(box, trip[static_cast<std::size_t>(d)]);
    if (d < levels) boxEnd[static_cast<std::size_t>(d)] = box;
  }

  std::vector<i64> sizes(static_cast<std::size_t>(levels));
  std::vector<i64> cur(addrs.size());
  for (std::size_t a = 0; a < addrs.size(); ++a) cur[a] = addrs[a].base;
  std::vector<i64> k(static_cast<std::size_t>(depth), 0);
  int next = levels - 1;  // deepest level not yet sampled
  for (i64 t = 1;; ++t) {
    for (i64 addr : cur) seen.idOf(addr);
    while (next >= 0 && t == boxEnd[static_cast<std::size_t>(next)])
      sizes[static_cast<std::size_t>(next--)] = seen.distinct();
    if (next < 0) break;
    int d = depth - 1;
    for (;; --d) {
      auto ud = static_cast<std::size_t>(d);
      if (++k[ud] < trip[ud]) {
        for (std::size_t a = 0; a < addrs.size(); ++a)
          cur[a] += addrs[a].step[ud];
        break;
      }
      k[ud] = 0;
      for (std::size_t a = 0; a < addrs.size(); ++a)
        cur[a] -= addrs[a].step[ud] * (trip[ud] - 1);
    }
  }
  return sizes;
}

/// The counting walk over the whole iteration space, restricted to levels
/// [fromLevel, depth): one window set per level, cleared whenever a loop
/// above it advances. Only levels whose windows are not translates of each
/// other need it.
void walkKnees(const loopir::LoopNest& nest, const dr::trace::AddressMap& map,
               const std::vector<int>& accessIndices, int fromLevel,
               std::vector<LevelKnee>& knees) {
  const int depth = nest.depth();
  std::vector<std::unordered_set<i64>> window(static_cast<std::size_t>(depth));
  std::vector<i64> iter(static_cast<std::size_t>(depth));
  std::vector<i64> trip(static_cast<std::size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    iter[static_cast<std::size_t>(d)] =
        nest.loops[static_cast<std::size_t>(d)].begin;
    trip[static_cast<std::size_t>(d)] =
        nest.loops[static_cast<std::size_t>(d)].tripCount();
  }
  std::vector<i64> k(static_cast<std::size_t>(depth), 0);

  auto flushWindows = [&](int from) {
    for (int l = std::max(from, fromLevel); l < depth; ++l) {
      auto ul = static_cast<std::size_t>(l);
      knees[ul].workingSetMax = std::max(
          knees[ul].workingSetMax, static_cast<i64>(window[ul].size()));
      window[ul].clear();
    }
  };

  std::vector<i64> index;
  for (;;) {
    for (int a : accessIndices) {
      const loopir::ArrayAccess& acc = nest.body[static_cast<std::size_t>(a)];
      index.clear();
      for (const loopir::AffineExpr& e : acc.indices)
        index.push_back(e.evaluate(iter));
      i64 addr = map.address(acc.signal, index);
      for (int l = fromLevel; l < depth; ++l)
        if (window[static_cast<std::size_t>(l)].insert(addr).second)
          ++knees[static_cast<std::size_t>(l)].misses;
    }
    int d = depth - 1;
    for (; d >= 0; --d) {
      auto ud = static_cast<std::size_t>(d);
      if (++k[ud] < trip[ud]) {
        iter[ud] += nest.loops[ud].step;
        break;
      }
      k[ud] = 0;
      iter[ud] = nest.loops[ud].begin;
    }
    if (d < 0) break;
    // Levels deeper than d start fresh windows.
    flushWindows(d + 1);
  }
  flushWindows(0);
}

}  // namespace

std::vector<KneeMethod> kneeMethods(const loopir::LoopNest& nest,
                                    const std::vector<int>& accessIndices) {
  DR_REQUIRE(!accessIndices.empty());
  for (int a : accessIndices)
    DR_REQUIRE(a >= 0 && a < static_cast<int>(nest.body.size()));
  const int depth = nest.depth();
  const loopir::ArrayAccess& first =
      nest.body[static_cast<std::size_t>(accessIndices.front())];

  // Level l's windows are translates of the first one when every access
  // has the same coefficients on the loops above l: a window is the image
  // of the inner box shifted by the outer iterators, and the address map
  // is injective. That holds for l <= sameUpTo.
  auto sameCoeffs = [&](int d) {
    for (int a : accessIndices)
      for (std::size_t k = 0; k < first.indices.size(); ++k)
        if (nest.body[static_cast<std::size_t>(a)].indices[k].coeff(d) !=
            first.indices[k].coeff(d))
          return false;
    return true;
  };
  int sameUpTo = 0;
  while (sameUpTo < depth && sameCoeffs(sameUpTo)) ++sameUpTo;
  bool identical = true;
  for (int a : accessIndices)
    identical = identical &&
                nest.body[static_cast<std::size_t>(a)].indices == first.indices;

  std::vector<KneeMethod> out;
  for (int l = 0; l < depth; ++l)
    out.push_back(l > sameUpTo ? KneeMethod::Walk
                  : identical && factorsPerDimension(first, l, depth)
                      ? KneeMethod::Product
                      : KneeMethod::WindowCount);
  return out;
}

std::vector<LevelKnee> workingSetKnees(const loopir::Program& p,
                                       const dr::trace::AddressMap& map,
                                       int nestIdx,
                                       const std::vector<int>& accessIndices) {
  DR_REQUIRE(nestIdx >= 0 && nestIdx < static_cast<int>(p.nests.size()));
  const loopir::LoopNest& nest = p.nests[static_cast<std::size_t>(nestIdx)];
  const std::vector<KneeMethod> how = kneeMethods(nest, accessIndices);
  const int depth = nest.depth();
  const i64 iterations = nest.iterationCount();
  DR_REQUIRE(iterations > 0);
  const i64 Ctot =
      checkedMul(iterations, static_cast<i64>(accessIndices.size()));
  std::vector<i64> trip(static_cast<std::size_t>(depth));
  for (int d = 0; d < depth; ++d)
    trip[static_cast<std::size_t>(d)] =
        nest.loops[static_cast<std::size_t>(d)].tripCount();

  int counted = 0;  // levels [0, counted) share one window count
  for (int l = 0; l < depth; ++l)
    if (how[static_cast<std::size_t>(l)] == KneeMethod::WindowCount)
      counted = l + 1;
  std::vector<i64> firstWindow;
  if (counted > 0) {
    std::vector<AffineAddress> addrs;
    for (int a : accessIndices)
      addrs.push_back(
          affineAddress(nest, nest.body[static_cast<std::size_t>(a)], map));
    firstWindow = firstWindowSizes(nest, addrs, trip, counted);
  }

  const loopir::ArrayAccess& first =
      nest.body[static_cast<std::size_t>(accessIndices.front())];
  std::vector<LevelKnee> knees(static_cast<std::size_t>(depth));
  i64 outerTuples = 1;  // prod_{d<l} trip_d
  int walkFrom = depth;
  for (int l = 0; l < depth; ++l) {
    LevelKnee& knee = knees[static_cast<std::size_t>(l)];
    knee.level = l;
    knee.Ctot = Ctot;
    switch (how[static_cast<std::size_t>(l)]) {
      case KneeMethod::Walk:
        walkFrom = std::min(walkFrom, l);
        break;
      case KneeMethod::WindowCount:
        knee.workingSetMax = firstWindow[static_cast<std::size_t>(l)];
        break;
      case KneeMethod::Product:
        knee.workingSetMax = 1;
        for (const loopir::AffineExpr& e : first.indices) {
          std::vector<std::pair<i64, i64>> terms;
          for (int d = l; d < depth; ++d)
            terms.emplace_back(
                checkedMul(e.coeff(d),
                           nest.loops[static_cast<std::size_t>(d)].step),
                trip[static_cast<std::size_t>(d)]);
          knee.workingSetMax = checkedMul(knee.workingSetMax,
                                          offsetShape(std::move(terms)).count);
        }
        break;
    }
    knee.misses = checkedMul(outerTuples, knee.workingSetMax);
    outerTuples = checkedMul(outerTuples, trip[static_cast<std::size_t>(l)]);
  }
  if (walkFrom < depth) walkKnees(nest, map, accessIndices, walkFrom, knees);

  for (LevelKnee& knee : knees)
    knee.FR = knee.misses == 0 ? static_cast<double>(knee.Ctot)
                               : static_cast<double>(knee.Ctot) /
                                     static_cast<double>(knee.misses);
  return knees;
}

}  // namespace dr::analytic

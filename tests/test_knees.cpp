// Closed-form working-set knees and multi-level footprints pinned against
// the counting walks they replace. The oracles below are the original
// implementations: a walk of the whole iteration space with one window set
// per level, and a walk of every outer tuple accumulating shifted-overlap
// fills over a bitset-swept offset shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "analytic/curve.h"
#include "analytic/footprint.h"
#include "explorer/explorer.h"
#include "kernels/conv2d.h"
#include "kernels/matmul.h"
#include "kernels/motion_estimation.h"
#include "kernels/susan.h"
#include "kernels/wavelet.h"
#include "loopir/normalize.h"
#include "loopir/validate.h"
#include "support/rng.h"
#include "trace/address_map.h"

namespace {

using namespace dr::analytic;
namespace loopir = dr::loopir;
using dr::support::i64;
using dr::trace::AddressMap;

// ---------------------------------------------------------------------------
// Oracles.

std::vector<LevelKnee> walkedKnees(const loopir::Program& p,
                                   const AddressMap& map, int nestIdx,
                                   const std::vector<int>& accessIndices) {
  const loopir::LoopNest& nest = p.nests[static_cast<std::size_t>(nestIdx)];
  const auto depth = static_cast<std::size_t>(nest.depth());
  std::vector<std::unordered_set<i64>> window(depth);
  std::vector<LevelKnee> knees(depth);
  for (std::size_t l = 0; l < depth; ++l) knees[l].level = static_cast<int>(l);
  std::vector<i64> iter(depth), trip(depth), k(depth, 0);
  for (std::size_t d = 0; d < depth; ++d) {
    iter[d] = nest.loops[d].begin;
    trip[d] = nest.loops[d].tripCount();
  }
  auto flush = [&](std::size_t from) {
    for (std::size_t l = from; l < depth; ++l) {
      knees[l].workingSetMax =
          std::max(knees[l].workingSetMax, static_cast<i64>(window[l].size()));
      window[l].clear();
    }
  };
  std::vector<i64> index;
  for (;;) {
    for (int a : accessIndices) {
      const loopir::ArrayAccess& acc = nest.body[static_cast<std::size_t>(a)];
      index.clear();
      for (const loopir::AffineExpr& e : acc.indices)
        index.push_back(e.evaluate(iter));
      const i64 addr = map.address(acc.signal, index);
      for (std::size_t l = 0; l < depth; ++l) {
        ++knees[l].Ctot;
        if (window[l].insert(addr).second) ++knees[l].misses;
      }
    }
    std::size_t d = depth;
    bool done = true;
    while (d-- > 0) {
      if (++k[d] < trip[d]) {
        iter[d] += nest.loops[d].step;
        done = false;
        break;
      }
      k[d] = 0;
      iter[d] = nest.loops[d].begin;
    }
    if (done) break;
    flush(d + 1);
  }
  flush(0);
  for (LevelKnee& knee : knees)
    knee.FR = knee.misses == 0 ? static_cast<double>(knee.Ctot)
                               : static_cast<double>(knee.Ctot) /
                                     static_cast<double>(knee.misses);
  return knees;
}

/// Offset shape by sweeping a reachable bitset through every term in
/// loop order (no interval shortcut).
DimShape sweptShape(const loopir::AffineExpr& expr,
                    const loopir::LoopNest& nest, int level) {
  i64 span = 1;
  std::vector<std::pair<i64, i64>> terms;
  for (int d = level; d < nest.depth(); ++d) {
    i64 c = expr.coeff(d);
    if (c == 0) continue;
    if (c < 0) c = -c;
    const i64 trip = nest.loops[static_cast<std::size_t>(d)].tripCount();
    span += c * (trip - 1);
    terms.emplace_back(c, trip);
  }
  DimShape shape;
  shape.span = span;
  shape.reachable.assign(static_cast<std::size_t>(span), false);
  shape.reachable[0] = true;
  for (auto [c, trip] : terms) {
    std::vector<bool> next(static_cast<std::size_t>(span), false);
    for (i64 x = 0; x < trip; ++x)
      for (i64 i = 0; i + c * x < span; ++i)
        if (shape.reachable[static_cast<std::size_t>(i)])
          next[static_cast<std::size_t>(i + c * x)] = true;
    shape.reachable = std::move(next);
  }
  shape.count = static_cast<i64>(
      std::count(shape.reachable.begin(), shape.reachable.end(), true));
  shape.contiguous = shape.count == shape.span;
  return shape;
}

i64 sweptOverlap(const DimShape& s, i64 delta) {
  if (delta < 0) delta = -delta;
  i64 n = 0;
  for (i64 i = 0; i + delta < s.span; ++i)
    if (s.reachable[static_cast<std::size_t>(i)] &&
        s.reachable[static_cast<std::size_t>(i + delta)])
      ++n;
  return n;
}

std::vector<MultiLevelPoint> walkedMultiLevel(const loopir::LoopNest& nest,
                                              const loopir::ArrayAccess& acc) {
  const int depth = nest.depth();
  const std::size_t dims = acc.indices.size();
  std::vector<MultiLevelPoint> out;
  for (int level = 0; level < depth; ++level) {
    MultiLevelPoint pt;
    pt.level = level;
    pt.Ctot = nest.iterationCount();
    for (int d = level; d < depth; ++d) {
      int users = 0;
      for (const loopir::AffineExpr& e : acc.indices)
        if (e.dependsOn(d)) ++users;
      if (users > 1) pt.exact = false;
    }
    std::vector<DimShape> shapes;
    pt.size = 1;
    for (const loopir::AffineExpr& e : acc.indices) {
      shapes.push_back(sweptShape(e, nest, level));
      pt.size *= shapes.back().count;
    }
    // Every outer tuple in order; each one's footprint overlaps the
    // previous one's by the per-dimension shifted overlap.
    std::vector<i64> iter(static_cast<std::size_t>(level), 0);
    std::vector<i64> prev(dims);
    auto base = [&](const loopir::AffineExpr& e) {
      i64 v = 0;
      for (int d = 0; d < level; ++d)
        v += e.coeff(d) * iter[static_cast<std::size_t>(d)];
      return v;
    };
    pt.misses = pt.size;
    for (std::size_t d = 0; d < dims; ++d) prev[d] = base(acc.indices[d]);
    for (;;) {
      int d = level - 1;
      for (; d >= 0; --d) {
        auto ud = static_cast<std::size_t>(d);
        if (++iter[ud] < nest.loops[ud].tripCount()) break;
        iter[ud] = 0;
      }
      if (d < 0) break;
      i64 overlap = 1;
      for (std::size_t k = 0; k < dims; ++k) {
        const i64 b = base(acc.indices[k]);
        overlap *= sweptOverlap(shapes[k], b - prev[k]);
        prev[k] = b;
      }
      pt.misses += pt.size - overlap;
    }
    pt.FR = dr::support::Rational(pt.Ctot, pt.misses);
    out.push_back(pt);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Field-by-field comparisons.

void expectSameKnees(const std::vector<LevelKnee>& got,
                     const std::vector<LevelKnee>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t l = 0; l < got.size(); ++l) {
    EXPECT_EQ(got[l].level, want[l].level) << where << " level " << l;
    EXPECT_EQ(got[l].workingSetMax, want[l].workingSetMax)
        << where << " level " << l;
    EXPECT_EQ(got[l].misses, want[l].misses) << where << " level " << l;
    EXPECT_EQ(got[l].Ctot, want[l].Ctot) << where << " level " << l;
    EXPECT_EQ(got[l].FR, want[l].FR) << where << " level " << l;
  }
}

void expectSameMultiLevel(const std::vector<MultiLevelPoint>& got,
                          const std::vector<MultiLevelPoint>& want,
                          const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t l = 0; l < got.size(); ++l) {
    EXPECT_EQ(got[l].level, want[l].level) << where << " level " << l;
    EXPECT_EQ(got[l].size, want[l].size) << where << " level " << l;
    EXPECT_EQ(got[l].misses, want[l].misses) << where << " level " << l;
    EXPECT_EQ(got[l].Ctot, want[l].Ctot) << where << " level " << l;
    EXPECT_EQ(got[l].FR, want[l].FR) << where << " level " << l;
    EXPECT_EQ(got[l].exact, want[l].exact) << where << " level " << l;
  }
}

/// Read accesses of `signal` in nest `n`.
std::vector<int> readsOf(const loopir::Program& p, std::size_t n, int signal) {
  std::vector<int> out;
  for (std::size_t a = 0; a < p.nests[n].body.size(); ++a)
    if (p.nests[n].body[a].signal == signal &&
        p.nests[n].body[a].kind == loopir::AccessKind::Read)
      out.push_back(static_cast<int>(a));
  return out;
}

/// Checks knees (on the program as built and normalized) and multi-level
/// points of every read signal x nest of `p` against the oracles.
void checkProgramAgainstOracles(const loopir::Program& p,
                                const std::string& name) {
  const loopir::Program pn = loopir::normalized(p);
  const AddressMap map(p);
  const AddressMap mapN(pn);
  for (std::size_t s = 0; s < p.signals.size(); ++s) {
    for (std::size_t n = 0; n < p.nests.size(); ++n) {
      const std::vector<int> reads = readsOf(p, n, static_cast<int>(s));
      if (reads.empty()) continue;
      const std::string where = name + " " + p.signals[s].name + " nest " +
                                std::to_string(n);
      expectSameKnees(workingSetKnees(p, map, static_cast<int>(n), reads),
                      walkedKnees(p, map, static_cast<int>(n), reads), where);
      expectSameKnees(workingSetKnees(pn, mapN, static_cast<int>(n), reads),
                      walkedKnees(pn, mapN, static_cast<int>(n), reads),
                      where + " normalized");
      for (int a : reads) {
        const loopir::ArrayAccess& acc =
            pn.nests[n].body[static_cast<std::size_t>(a)];
        expectSameMultiLevel(multiLevelPoints(pn.nests[n], acc),
                             walkedMultiLevel(pn.nests[n], acc),
                             where + " access " + std::to_string(a));
      }
    }
  }
}

std::vector<std::pair<std::string, loopir::Program>> builtInKernels() {
  namespace k = dr::kernels;
  return {
      {"me 32x32", k::motionEstimation({32, 32, 8, 8})},
      {"me 16x16", k::motionEstimation({16, 16, 4, 2})},
      {"me 12x18", k::motionEstimation({12, 18, 6, 3})},
      {"susan 16x16", k::susan({16, 16})},
      {"susan 12x14", k::susan({12, 14})},
      {"matmul", k::matmul({6, 5})},
      {"conv2d R1", k::conv2d({12, 12, 1})},
      {"conv2d R2", k::conv2d({12, 11, 2})},
      {"wavelet", k::waveletLifting({8, 10})},
  };
}

TEST(KneeOracle, BuiltInKernelsMatchTheWalks) {
  for (const auto& [name, p] : builtInKernels())
    checkProgramAgainstOracles(p, name);
}

TEST(KneeOracle, BuiltInKernelsTakeTheExpectedPaths) {
  // One index expression per group everywhere except wavelet's three reads
  // of x (same coefficients, different constants): those count one window.
  for (const auto& [name, p] : builtInKernels()) {
    const loopir::Program pn = loopir::normalized(p);
    for (std::size_t s = 0; s < pn.signals.size(); ++s)
      for (std::size_t n = 0; n < pn.nests.size(); ++n) {
        const std::vector<int> reads = readsOf(pn, n, static_cast<int>(s));
        if (reads.empty()) continue;
        const KneeMethod want = reads.size() > 1 ? KneeMethod::WindowCount
                                                 : KneeMethod::Product;
        for (KneeMethod m : kneeMethods(pn.nests[n], reads))
          EXPECT_EQ(m, want) << name << " " << pn.signals[s].name;
      }
  }
}

// ---------------------------------------------------------------------------
// Random rectangular affine nests.

struct RandomNest {
  loopir::Program program;
  std::vector<int> reads;  ///< body indices of the reads of signal 0
};

RandomNest randomNest(dr::support::Rng& rng) {
  RandomNest out;
  loopir::Program& p = out.program;
  p.name = "random";
  const int depth = static_cast<int>(rng.uniform(1, 5));
  const int dims = static_cast<int>(rng.uniform(1, 3));
  const int reads = static_cast<int>(rng.uniform(1, 3));
  loopir::addSignal(p, "A", std::vector<i64>(static_cast<std::size_t>(dims), 4),
                    8);
  loopir::LoopNest nest;
  for (int d = 0; d < depth; ++d) {
    const i64 trip = rng.uniform(1, 7);
    const i64 begin = rng.uniform(-2, 2);
    // Mostly unit steps; a few strided and decrementing loops exercise the
    // knees on programs that are not normalized.
    const i64 step = rng.uniform(0, 5) == 0 ? (rng.uniform(0, 1) ? 2 : -1) : 1;
    nest.loops.push_back(loopir::Loop{"i" + std::to_string(d), begin,
                                      begin + step * (trip - 1), step});
  }
  auto randomExpr = [&] {
    loopir::AffineExpr e(rng.uniform(-3, 3));
    for (int d = 0; d < depth; ++d) e.setCoeff(d, rng.uniform(-3, 3));
    return e;
  };
  for (int r = 0; r < reads; ++r) {
    loopir::ArrayAccess acc;
    acc.signal = 0;
    acc.kind = loopir::AccessKind::Read;
    // Later reads repeat the first one, shift it by a constant, or draw
    // fresh coefficients: one of each knee method per family.
    const i64 kind = r == 0 ? 2 : rng.uniform(0, 2);
    for (int k = 0; k < dims; ++k) {
      if (kind == 2) {
        acc.indices.push_back(randomExpr());
        continue;
      }
      loopir::AffineExpr e =
          nest.body.front().indices[static_cast<std::size_t>(k)];
      if (kind == 1) e.setConstantTerm(e.constantTerm() + rng.uniform(-2, 2));
      acc.indices.push_back(e);
    }
    out.reads.push_back(static_cast<int>(nest.body.size()));
    nest.body.push_back(std::move(acc));
  }
  p.nests.push_back(std::move(nest));
  loopir::validateOrThrow(p);
  return out;
}

/// The method each level should take, stated from the definitions.
std::vector<KneeMethod> expectedMethods(const loopir::LoopNest& nest,
                                        const std::vector<int>& reads) {
  const int depth = nest.depth();
  const auto& first = nest.body[static_cast<std::size_t>(reads.front())];
  std::vector<KneeMethod> out;
  for (int l = 0; l < depth; ++l) {
    bool translates = true, identical = true;
    for (int a : reads) {
      const auto& acc = nest.body[static_cast<std::size_t>(a)];
      identical = identical && acc.indices == first.indices;
      for (std::size_t k = 0; k < first.indices.size(); ++k)
        for (int d = 0; d < l; ++d)
          translates = translates &&
                       acc.indices[k].coeff(d) == first.indices[k].coeff(d);
    }
    bool sharedInner = false;
    for (int d = l; d < depth; ++d) {
      int users = 0;
      for (const auto& e : first.indices) users += e.coeff(d) != 0;
      sharedInner = sharedInner || users > 1;
    }
    out.push_back(!translates ? KneeMethod::Walk
                  : identical && !sharedInner ? KneeMethod::Product
                                              : KneeMethod::WindowCount);
  }
  return out;
}

TEST(KneeOracle, RandomAffineNestsMatchTheWalksOnEveryPath) {
  dr::support::Rng rng(20261020);
  int byMethod[3] = {0, 0, 0};
  for (int trial = 0; trial < 400; ++trial) {
    const RandomNest rn = randomNest(rng);
    const loopir::Program& p = rn.program;
    const std::string where = "trial " + std::to_string(trial);
    const AddressMap map(p);
    const std::vector<KneeMethod> methods = kneeMethods(p.nests[0], rn.reads);
    expectSameKnees(workingSetKnees(p, map, 0, rn.reads),
                    walkedKnees(p, map, 0, rn.reads), where);
    EXPECT_EQ(methods, expectedMethods(p.nests[0], rn.reads)) << where;
    for (KneeMethod m : methods) ++byMethod[static_cast<int>(m)];

    const loopir::Program pn = loopir::normalized(p);
    const loopir::LoopNest& nest = pn.nests[0];
    for (int a : rn.reads) {
      const loopir::ArrayAccess& acc = nest.body[static_cast<std::size_t>(a)];
      expectSameMultiLevel(multiLevelPoints(nest, acc),
                           walkedMultiLevel(nest, acc),
                           where + " access " + std::to_string(a));
      for (int level = 0; level < nest.depth(); ++level)
        for (const loopir::AffineExpr& e : acc.indices) {
          const DimShape got = dimShape(e, nest, level);
          const DimShape want = sweptShape(e, nest, level);
          ASSERT_EQ(got.span, want.span) << where;
          ASSERT_EQ(got.count, want.count) << where;
          ASSERT_EQ(got.contiguous, want.contiguous) << where;
          for (i64 delta = -want.span; delta <= want.span; ++delta)
            ASSERT_EQ(got.overlapWithShift(delta), sweptOverlap(want, delta))
                << where << " delta " << delta;
        }
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(byMethod[static_cast<int>(KneeMethod::Product)], 0);
  EXPECT_GT(byMethod[static_cast<int>(KneeMethod::WindowCount)], 0);
  EXPECT_GT(byMethod[static_cast<int>(KneeMethod::Walk)], 0);
}

TEST(DimShapeTest, WideContiguousShapeKeepsNoBitset) {
  // An 8K row sweep: one term per loop, each coefficient within the span
  // reached so far, so the shape is an interval with no offset bitset.
  loopir::LoopNest nest;
  nest.loops = {loopir::Loop{"y", 0, 4319, 1}, loopir::Loop{"x", 0, 7679, 1}};
  loopir::AffineExpr e;
  e.setCoeff(0, 7680);
  e.setCoeff(1, 1);
  const DimShape s = dimShape(e, nest, 0);
  EXPECT_EQ(s.span, i64{4320} * 7680);
  EXPECT_EQ(s.count, s.span);
  EXPECT_TRUE(s.contiguous);
  EXPECT_TRUE(s.reachable.empty());
  EXPECT_EQ(s.overlapWithShift(7680), s.span - 7680);
  EXPECT_EQ(s.overlapWithShift(-s.span), 0);
}

TEST(KneeOracle, EightKMotionEstimationKneesAreExact) {
  // 8K frames: the walk would visit 8.5e9 accesses; the closed form is
  // immediate and every count passes 32 bits exactly.
  const auto p = dr::kernels::motionEstimation({4320, 7680, 8, 8});
  const AddressMap map(p);
  const std::vector<int> reads{dr::kernels::newAccessIndex()};
  const std::vector<KneeMethod> methods = kneeMethods(p.nests[0], reads);
  const auto knees = workingSetKnees(p, map, 0, reads);
  const i64 blocks = i64{540} * 960;
  const i64 total = blocks * 16 * 16 * 64;  // 8,493,465,600
  ASSERT_EQ(knees.size(), 6u);
  const i64 size[6] = {i64{4320} * 7680, 8 * 7680, 64, 64, 64, 8};
  const i64 misses[6] = {i64{4320} * 7680, i64{4320} * 7680,
                         blocks * 64,       blocks * 16 * 64,
                         total,             total};
  for (int l = 0; l < 6; ++l) {
    EXPECT_EQ(methods[static_cast<std::size_t>(l)], KneeMethod::Product);
    EXPECT_EQ(knees[static_cast<std::size_t>(l)].workingSetMax, size[l])
        << "level " << l;
    EXPECT_EQ(knees[static_cast<std::size_t>(l)].misses, misses[l])
        << "level " << l;
    EXPECT_EQ(knees[static_cast<std::size_t>(l)].Ctot, total);
  }
  // The Old frame's whole-run window is its padded footprint, the same
  // count the multi-level model gives.
  const auto old = workingSetKnees(p, map, 0, {dr::kernels::oldAccessIndex()});
  const auto pn = loopir::normalized(p);
  const auto ml = multiLevelPoints(
      pn.nests[0], pn.nests[0].body[static_cast<std::size_t>(
                       dr::kernels::oldAccessIndex())]);
  EXPECT_EQ(old[0].workingSetMax, i64{4335} * 7695);
  EXPECT_EQ(old[0].workingSetMax, ml[0].size);
}

// ---------------------------------------------------------------------------
// The analytic-only explorer path takes its distinct count from the
// level-0 knee when one nest reads the signal.

TEST(AnalyticOnly, DistinctElementsMatchTheSimulatedRunOnEveryBuiltInSignal) {
  for (const auto& [name, p] : builtInKernels()) {
    for (std::size_t s = 0; s < p.signals.size(); ++s) {
      bool read = false;
      for (std::size_t n = 0; n < p.nests.size(); ++n)
        read = read || !readsOf(p, n, static_cast<int>(s)).empty();
      if (!read) continue;
      dr::explorer::ExploreOptions analyticOnly;
      analyticOnly.runSimulation = false;
      const auto a =
          dr::explorer::exploreSignal(p, static_cast<int>(s), analyticOnly);
      const auto sim = dr::explorer::exploreSignal(p, static_cast<int>(s));
      EXPECT_EQ(a.distinctElements, sim.distinctElements)
          << name << " " << p.signals[s].name;
      EXPECT_EQ(a.Ctot, sim.Ctot) << name << " " << p.signals[s].name;
      EXPECT_EQ(a.simulationStats.totalEvents, a.Ctot);
      EXPECT_EQ(a.simulationStats.simulatedEvents, 0);
    }
  }
}

}  // namespace

#include "analytic/footprint.h"

#include <algorithm>

#include "support/contracts.h"

namespace dr::analytic {

using dr::support::checkedAdd;
using dr::support::checkedMul;
using dr::support::checkedSub;
using loopir::AffineExpr;
using loopir::ArrayAccess;
using loopir::LoopNest;

i64 DimShape::overlapWithShift(i64 delta) const {
  if (delta < 0) delta = -delta;
  if (delta >= span) return 0;
  if (contiguous) return span - delta;
  i64 n = 0;
  for (i64 i = 0; i + delta < span; ++i)
    if (reachable[static_cast<std::size_t>(i)] &&
        reachable[static_cast<std::size_t>(i + delta)])
      ++n;
  return n;
}

DimShape offsetShape(std::vector<std::pair<i64, i64>> terms) {
  // The sign of a coefficient only mirrors the set, which changes neither
  // counts nor shifted overlaps; zero coefficients and single-trip loops
  // add nothing.
  for (auto& [c, trip] : terms) {
    DR_REQUIRE(trip >= 1);
    if (c < 0) c = -c;
  }
  std::erase_if(terms,
                [](const auto& t) { return t.first == 0 || t.second == 1; });
  std::sort(terms.begin(), terms.end());

  // Ascending coefficients: while each one is at most the span reached so
  // far, the translates [k*c, k*c + span) tile without gaps and the offset
  // set stays the whole interval. Only the terms after the first gap need
  // the reachable-offset sweep.
  DimShape shape;
  std::size_t t = 0;
  for (; t < terms.size() && terms[t].first <= shape.span; ++t)
    shape.span = checkedAdd(
        shape.span, checkedMul(terms[t].first, terms[t].second - 1));
  if (t == terms.size()) {
    shape.count = shape.span;
    return shape;
  }

  i64 span = shape.span;
  for (std::size_t r = t; r < terms.size(); ++r)
    span = checkedAdd(span, checkedMul(terms[r].first, terms[r].second - 1));
  std::vector<bool> reachable(static_cast<std::size_t>(span), false);
  std::fill_n(reachable.begin(), shape.span, true);
  for (; t < terms.size(); ++t) {
    const auto [c, trip] = terms[t];
    std::vector<bool> next = reachable;
    for (i64 x = 1; x < trip; ++x) {
      const i64 shift = c * x;  // <= span - 1, checked above
      for (i64 i = 0; i + shift < span; ++i)
        if (reachable[static_cast<std::size_t>(i)])
          next[static_cast<std::size_t>(i + shift)] = true;
    }
    reachable = std::move(next);
  }
  shape.span = span;
  shape.count =
      static_cast<i64>(std::count(reachable.begin(), reachable.end(), true));
  shape.contiguous = shape.count == shape.span;
  DR_ENSURE(reachable.front() && reachable.back());
  if (!shape.contiguous) shape.reachable = std::move(reachable);
  return shape;
}

DimShape dimShape(const AffineExpr& expr, const LoopNest& nest, int level) {
  DR_REQUIRE(level >= 0 && level <= nest.depth());
  for (const loopir::Loop& l : nest.loops) DR_REQUIRE(l.isNormalized());
  std::vector<std::pair<i64, i64>> terms;  // (coeff, trip)
  for (int d = level; d < nest.depth(); ++d)
    terms.emplace_back(expr.coeff(d),
                       nest.loops[static_cast<std::size_t>(d)].tripCount());
  return offsetShape(std::move(terms));
}

bool factorsPerDimension(const ArrayAccess& access, int level, int depth) {
  for (int d = level; d < depth; ++d) {
    int users = 0;
    for (const AffineExpr& e : access.indices)
      if (e.dependsOn(d)) ++users;
    if (users > 1) return false;
  }
  return true;
}

std::vector<MultiLevelPoint> multiLevelPoints(const LoopNest& nest,
                                              const ArrayAccess& access) {
  for (const loopir::Loop& l : nest.loops) DR_REQUIRE(l.isNormalized());
  const int depth = nest.depth();
  const i64 Ctot = nest.iterationCount();

  std::vector<MultiLevelPoint> out;
  for (int level = 0; level < depth; ++level) {
    MultiLevelPoint pt;
    pt.level = level;
    pt.Ctot = Ctot;
    // The per-dimension factorization needs every inner iterator to drive
    // at most one dimension.
    pt.exact = factorsPerDimension(access, level, depth);

    std::vector<DimShape> shapes;
    shapes.reserve(access.indices.size());
    pt.size = 1;
    for (const AffineExpr& e : access.indices) {
      shapes.push_back(dimShape(e, nest, level));
      pt.size = checkedMul(pt.size, shapes.back().count);
    }

    // The first outer tuple fills the whole footprint. After that,
    // consecutive tuples differ in one way per loop d < level: d steps by
    // one and the outer loops below it reset, so each dimension's footprint
    // translates by c_d - sum_{d<f<level} c_f (trip_f - 1). That transition
    // happens prod_{e<d} trip_e * (trip_d - 1) times.
    pt.misses = pt.size;
    i64 tuplesAbove = 1;  // prod_{e<d} trip_e
    for (int d = 0; d < level; ++d) {
      const i64 trip = nest.loops[static_cast<std::size_t>(d)].tripCount();
      const i64 transitions = checkedMul(tuplesAbove, trip - 1);
      tuplesAbove = checkedMul(tuplesAbove, trip);
      if (transitions == 0) continue;
      i64 overlap = 1;
      for (std::size_t k = 0; k < shapes.size(); ++k) {
        const AffineExpr& e = access.indices[k];
        i64 delta = e.coeff(d);
        for (int f = d + 1; f < level; ++f)
          delta = checkedSub(
              delta,
              checkedMul(e.coeff(f),
                         nest.loops[static_cast<std::size_t>(f)].tripCount() -
                             1));
        overlap = checkedMul(overlap, shapes[k].overlapWithShift(delta));
      }
      pt.misses =
          checkedAdd(pt.misses, checkedMul(transitions, pt.size - overlap));
    }

    DR_CHECK(pt.misses >= 1);
    pt.FR = dr::support::Rational(pt.Ctot, pt.misses);
    out.push_back(std::move(pt));
  }
  return out;
}

}  // namespace dr::analytic

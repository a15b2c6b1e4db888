#pragma once

#include <utility>
#include <vector>

#include "analytic/pair_analysis.h"
#include "loopir/program.h"
#include "support/intmath.h"

/// \file footprint.h
/// Closed-form multi-level reuse analysis — the paper's declared follow-up
/// ("Currently we are extending the model to characterize multiple level
/// hierarchies", Section 7). The pair model of Sections 5-6 covers the
/// inner knee of the reuse curve; the outer knees (A_1..A_3 of Fig. 4a)
/// correspond to copies holding the *footprint* of deeper loop subsets.
/// Both the footprint sizes and the transfer counts have closed forms for
/// affine accesses:
///
///  * per array dimension, the image of the index expression over the
///    inner loop box is a fixed shape translated by the outer iterators;
///    its element count comes from an exact reachable-offset set,
///  * the copy for level l holds that footprint for one iteration of the
///    outer loops; its fills are sum over consecutive outer iterations of
///    |S_t \ S_{t-1}|, and the overlap |S_t ^ S_{t-1}| factors per
///    dimension into shifted-set intersections of the same fixed shape.
///    Consecutive outer tuples differ in only `level` ways (loop d steps,
///    the outer loops below it reset), so the sum has `level` terms.
///
/// Everything is computed without touching the trace or enumerating outer
/// tuples: one level costs O(depth * dims) overlap queries plus the
/// shapes, and a shape whose offsets tile an interval costs
/// O(depth log depth) (see offsetShape).

namespace dr::analytic {

using dr::support::i64;

/// Reachable-offset shape of one dimension's index expression over the
/// loops [level, depth): offsets relative to the minimal value.
struct DimShape {
  i64 span = 1;      ///< hi - lo + 1 of the offset range
  i64 count = 1;     ///< reachable offsets (== span when contiguous)
  bool contiguous = true;
  /// Size span with reachable[0] and back true when the shape has gaps;
  /// empty when contiguous (every offset in the span is reachable).
  std::vector<bool> reachable;

  /// |S ^ (S + delta)| for this shape; O(1) when contiguous.
  i64 overlapWithShift(i64 delta) const;
};

/// Shape of sum_t c_t * x_t with x_t in [0, trip_t), from (c_t, trip_t)
/// terms of any sign. Terms are added in ascending |c|: while each is at
/// most the span reached so far the set stays an interval, so no offset
/// bitset is built; only terms after the first gap pay O(trip * span).
/// Precondition: every trip >= 1.
DimShape offsetShape(std::vector<std::pair<i64, i64>> terms);

/// Shape of `expr` restricted to loops [level, depth) of `nest` (the
/// outer iterators only translate it). Precondition: normalized nest.
DimShape dimShape(const loopir::AffineExpr& expr,
                  const loopir::LoopNest& nest, int level);

/// One multi-level analytic design point: a copy at loop level `level`
/// holding the inner footprint for one outer iteration.
struct MultiLevelPoint {
  int level = 0;
  i64 size = 0;     ///< footprint elements (A)
  i64 misses = 0;   ///< fills over the whole nest (C_j)
  i64 Ctot = 0;     ///< reads of the access over the whole nest
  dr::support::Rational FR = 1;
  /// False when the per-dimension factorization does not apply (two
  /// dimensions sharing an inner iterator): size/misses are then not
  /// exact and callers should fall back to counting (workingSetKnees).
  bool exact = true;
};

/// True when every loop in [level, depth) drives at most one index
/// dimension of `access`: the inner footprint is then the product of the
/// per-dimension shapes.
bool factorsPerDimension(const loopir::ArrayAccess& access, int level,
                         int depth);

/// Closed-form points for every loop level of `access` (level 0 =
/// whole-signal copy). O(depth^2 * dims) overlap queries, independent of
/// the trip counts for contiguous shapes. Precondition: normalized nest.
std::vector<MultiLevelPoint> multiLevelPoints(const loopir::LoopNest& nest,
                                              const loopir::ArrayAccess& access);

}  // namespace dr::analytic

#pragma once

#include <string>
#include <vector>

#include "analytic/pair_analysis.h"
#include "analytic/partial.h"
#include "trace/address_map.h"

/// \file curve.h
/// Assembles the analytically computed points of the data-reuse-factor
/// curve for one access (paper Fig. 10a): for every loop level that
/// carries reuse under the pair model, the maximum-reuse point (Section
/// 6.1) plus the partial-reuse points with and without bypass (Section
/// 6.2). Levels the closed-form model cannot see (multi-loop interactions,
/// the paper's listed future work) are covered by the working-set knees,
/// exact per-level footprints that stand in for the paper's simulation
/// fallback ("for other kind of expressions we will rely on simulation",
/// §5.1).

namespace dr::analytic {

/// One analytically derived copy-candidate design point.
struct AnalyticPoint {
  dr::support::i64 size = 0;     ///< copy-candidate size A, elements
  Rational FRExact = 1;          ///< reuse factor of the copy level
  double FR = 1.0;
  dr::support::i64 CjTotal = 0;  ///< writes into the copy over the program
  dr::support::i64 CtotCopyTotal = 0;    ///< reads arriving at the copy
  dr::support::i64 CtotBypassTotal = 0;  ///< reads bypassing the copy
  int level = -1;                ///< pair outer loop p
  dr::support::i64 gamma = -1;   ///< -1 for the maximum-reuse point
  bool bypass = false;
  bool exact = true;             ///< closed form valid (see pair_analysis.h)
  std::string label;             ///< e.g. "L4 max", "L4 g=3 bypass"
};

struct AnalyticCurveOptions {
  dr::support::i64 partialStride = 1;  ///< gamma step between partial points
  bool withBypass = true;
  /// Cap on partial points per level; the stride is widened to respect it.
  dr::support::i64 maxPartialPointsPerLevel = 64;
};

/// All analytic points for `access` of `nest` (which must be normalized),
/// sorted ascending by size.
std::vector<AnalyticPoint> analyticReusePoints(
    const LoopNest& nest, const ArrayAccess& access,
    const AnalyticCurveOptions& opts = {});

/// A per-loop-level working-set knee: holding the full working set of
/// loops [level..innermost] for one iteration of the outer loops yields
/// `misses` compulsory transfers. Exact counts, no replacement model.
struct LevelKnee {
  int level = 0;
  dr::support::i64 workingSetMax = 0;  ///< knee size A (max over windows)
  dr::support::i64 misses = 0;         ///< C_j at that size
  dr::support::i64 Ctot = 0;
  double FR = 1.0;
};

/// How workingSetKnees derived one level's knee.
enum class KneeMethod {
  /// Product of the per-dimension offset-shape counts: one index
  /// expression, no inner loop driving two dimensions. O(depth log depth).
  Product,
  /// One pass over the first window, shared by every such level (several
  /// index expressions, windows still translates of the first).
  WindowCount,
  /// Full walk of the iteration space with one window set per level: the
  /// accesses' coefficients differ on a loop above the level, so the
  /// windows are not translates of each other.
  Walk,
};

/// The method workingSetKnees uses for each level of `nest` on the group
/// of read accesses `accessIndices` (one signal).
std::vector<KneeMethod> kneeMethods(const loopir::LoopNest& nest,
                                    const std::vector<int>& accessIndices);

/// Working-set knees of one access (or several accesses of one signal —
/// pass all their indices) of one nest. The address map is injective, so
/// when every access has the same coefficients on the loops above level l
/// each outer iteration's window is a translate of the first: then
/// workingSetMax = |W0| and misses = (outer iterations) * |W0|, with |W0|
/// in closed form (Product) or counted over one window (WindowCount).
/// Only levels where the windows differ in shape walk the iteration space.
std::vector<LevelKnee> workingSetKnees(const loopir::Program& p,
                                       const dr::trace::AddressMap& map,
                                       int nestIdx,
                                       const std::vector<int>& accessIndices);

}  // namespace dr::analytic

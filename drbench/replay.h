#pragma once

// Stage-by-stage replay of one Explore request through the library's
// public stage functions, in the order explorer::exploreSignal runs them,
// so a traced run can say where a request's time goes.

#include <string>

#include "common.h"
#include "explorer/explorer.h"
#include "loopir/program.h"

namespace drb {

struct ReplayResult {
  std::string curveCsv;  ///< report::curveCsv of the replayed curve
  /// Empty when every stage output equals the reference byte for byte;
  /// otherwise names the first stage that differs.
  std::string mismatch;
  bool symbolicAccepted = false;
  std::string symbolicReason;  ///< rejection reason when not accepted
  i64 kneePointsWalked = 0;    ///< iteration points the knee walk visits
  i64 eventsTotal = 0;         ///< read events of the signal's stream
  i64 eventsSimulated = 0;     ///< events pushed through a stack engine
  i64 chainsEnumerated = 0;
  i64 paretoKept = 0;
};

/// Replays the explore flow for `signal` of `p` with default options,
/// recording an "explorer.replay" span with one child span per stage into
/// `tracer` (may be null). With a
/// `monolith` result every stage output is checked against it; with only
/// an `expectedCsv` the curve is.
ReplayResult replayExplore(const dr::loopir::Program& p, int signal,
                           const dr::explorer::SignalExploration* monolith,
                           const std::string* expectedCsv, Tracer* tracer);

/// Canonical text of an exploration's reply content (curve CSV plus the
/// Pareto designs and the chain count); digests hash this.
std::string explorationText(const dr::explorer::SignalExploration& e);

/// An advisor CSV without its fidelity column: the materialized reference
/// reports every curve as exact-stream, whatever rung served it.
std::string withoutFidelity(const std::string& advisorCsv);

}  // namespace drb

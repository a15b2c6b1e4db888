#pragma once

// The benchmark's inputs: the fixed explore_zoo item set and the seeded
// small kernels the service workloads send.

#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "loopir/program.h"
#include "partition/partition.h"

namespace drb {

/// One fixed in-process request of explore_zoo.
struct ZooItem {
  std::string name;
  bool advise = false;
  dr::loopir::Program program;
  int signal = -1;  ///< Explore items
  dr::partition::Mode mode = dr::partition::Mode::WayPartition;  ///< Advise
};

inline constexpr i64 kAdviseCapacity = 1024;  ///< datareuse_advise default
inline constexpr i64 kAdviseWays = 8;

std::vector<ZooItem> zooItems();

/// A small Explore request outside the item set, used to bring a fresh
/// process to steady state before the warm-up pass.
ZooItem primerItem();

/// Index of the signal called `name`, or -1.
int signalIndex(const dr::loopir::Program& p, const std::string& name);

/// The five kernel families, by name.
inline const std::vector<std::string>& families() {
  static const std::vector<std::string> f = {"me", "conv2d", "matmul",
                                             "susan", "wavelet"};
  return f;
}

/// A seeded small kernel as a service request sees it: source text and a
/// read signal.
struct KernelSpec {
  std::string family;
  std::string source;
  std::string signal;
  std::string key;  ///< family + parameters + signal; unique per spec
};

/// A small kernel of `family` whose key is not yet in `used` (and is
/// added to it).
KernelSpec randomKernel(Rng& rng, const std::string& family,
                        std::set<std::string>& used);

/// A syntactically or semantically broken variant of `source` that the
/// frontend rejects.
std::string corruptSource(Rng& rng, const std::string& source);

}  // namespace drb

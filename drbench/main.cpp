// End-to-end benchmark of the data-reuse explorer: one workload per
// process, selected with --workload, inputs derived from --seed. The last
// line of standard output is the JSON result (see README.md).
//
//   drbench --workload explore_zoo|routed_mix --seed N
//           --seconds S --trace 0|1 [--digests FILE] [--emit-digests]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  const drb::Clock::time_point processStart = drb::Clock::now();
  drb::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--workload" && hasValue) args.workload = argv[++i];
    else if (a == "--seed" && hasValue) args.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && hasValue) args.seconds = std::atof(argv[++i]);
    else if (a == "--trace" && hasValue) args.trace = std::atoi(argv[++i]) != 0;
    else if (a == "--digests" && hasValue) args.digestsPath = argv[++i];
    else if (a == "--emit-digests") args.emitDigests = true;
    else {
      std::fprintf(stderr, "unknown or incomplete option '%s'\n", a.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  if (args.workload == "explore_zoo") return drb::runExploreZoo(args, processStart);
  if (args.workload == "routed_mix") return drb::runRoutedMix(args, processStart);
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}

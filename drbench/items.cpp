#include "items.h"

#include "kernels/conv2d.h"
#include "kernels/matmul.h"
#include "kernels/motion_estimation.h"
#include "kernels/susan.h"
#include "kernels/wavelet.h"

namespace drb {

namespace k = dr::kernels;
using dr::partition::Mode;

int signalIndex(const dr::loopir::Program& p, const std::string& name) {
  for (std::size_t i = 0; i < p.signals.size(); ++i)
    if (p.signals[i].name == name) return static_cast<int>(i);
  return -1;
}

std::vector<ZooItem> zooItems() {
  // Each Explore item is here because one explorer stage dominates it:
  // the knee walk (ME New), the run engine after a symbolic rejection (ME
  // Old, conv2d img), the multi-nest stream curve (SUSAN), chain
  // enumeration (matmul), the fold rung (wavelet). Nineteen Explore and
  // fourteen Advise items; the middle of their cost range is dense, so
  // run-to-run noise in one item moves a median only a little, and the
  // p95 of seven rounds falls inside one item's samples (ME QCIF New).
  const dr::loopir::Program meQcif = k::motionEstimation({});
  const dr::loopir::Program me32 = k::motionEstimation({32, 32, 8, 8});
  const dr::loopir::Program susan = k::susan({});
  const dr::loopir::Program matmul = k::matmul({});
  const dr::loopir::Program conv256 = k::conv2d({256, 256, 1});
  const dr::loopir::Program wavelet = k::waveletLifting({});
  std::vector<ZooItem> items;
  auto explore = [&](std::string name, const dr::loopir::Program& p,
                     const std::string& sig) {
    ZooItem it;
    it.name = std::move(name);
    it.program = p;
    it.signal = signalIndex(p, sig);
    items.push_back(std::move(it));
  };
  explore("me_qcif_New", meQcif, "New");
  explore("me_qcif_Old", meQcif, "Old");
  explore("susan_qcif_image", susan, "image");
  explore("matmul32_A", matmul, "A");
  explore("matmul32_B", matmul, "B");
  explore("conv2d256_img", conv256, "img");
  explore("conv2d256_w", conv256, "w");
  explore("wavelet64_x", wavelet, "x");
  explore("me32_New", me32, "New");
  explore("me32_Old", me32, "Old");
  // Mid-cost items of the same stages.
  explore("conv2d128_img", k::conv2d({128, 128, 1}), "img");
  explore("me24_Old", k::motionEstimation({24, 24, 8, 8}), "Old");
  explore("me40_New", k::motionEstimation({40, 40, 8, 8}), "New");
  explore("me48_New", k::motionEstimation({48, 48, 8, 8}), "New");
  explore("matmul48_A", k::matmul({48, 48}), "A");
  explore("matmul40_A", k::matmul({40, 40}), "A");
  explore("matmul40_B", k::matmul({40, 40}), "B");
  explore("conv2d192_w", k::conv2d({192, 192, 1}), "w");
  explore("conv2d224_w", k::conv2d({224, 224, 1}), "w");
  auto advise = [&](const std::string& name, const dr::loopir::Program& p,
                    Mode mode) {
    ZooItem it;
    it.name = "advise_" + name + "_" + dr::partition::modeName(mode);
    it.advise = true;
    it.program = p;
    it.mode = mode;
    items.push_back(std::move(it));
  };
  const std::pair<std::string, dr::loopir::Program> bothModes[] = {
      {"conv2d64", k::conv2d({})},
      {"matmul32", matmul},
      {"me32", me32},
      {"wavelet64", wavelet}};
  for (const auto& [name, p] : bothModes) {
    advise(name, p, Mode::WayPartition);
    advise(name, p, Mode::Scratchpad);
  }
  advise("matmul16", k::matmul({16, 16}), Mode::WayPartition);
  advise("conv2d32", k::conv2d({32, 32, 1}), Mode::Scratchpad);
  advise("me16", k::motionEstimation({16, 16, 4, 4}), Mode::WayPartition);
  advise("wavelet32", k::waveletLifting({32, 32}), Mode::WayPartition);
  advise("conv2d48", k::conv2d({48, 48, 1}), Mode::WayPartition);
  advise("matmul24", k::matmul({24, 24}), Mode::Scratchpad);
  return items;
}

ZooItem primerItem() {
  ZooItem it;
  it.name = "primer_conv2d24_img";
  it.program = k::conv2d({24, 24, 1});
  it.signal = signalIndex(it.program, "img");
  return it;
}

KernelSpec randomKernel(Rng& rng, const std::string& family,
                        std::set<std::string>& used) {
  // Every family's parameter space holds several hundred distinct
  // kernels, more than a run draws.
  for (;;) {
    KernelSpec s;
    s.family = family;
    std::string params;
    if (family == "me") {
      const i64 n = rng.range(2, 4);
      const i64 m = rng.range(1, 3);
      const i64 H = n * rng.range(2, 8), W = n * rng.range(2, 8);
      s.source = k::motionEstimationSource({H, W, n, m});
      s.signal = rng.below(2) ? "New" : "Old";
      params = std::to_string(H) + "x" + std::to_string(W) + "n" +
               std::to_string(n) + "m" + std::to_string(m);
    } else if (family == "conv2d") {
      const i64 R = rng.range(1, 2);
      const i64 H = rng.range(2 * R + 2, 40), W = rng.range(2 * R + 2, 40);
      s.source = k::conv2dSource({H, W, R});
      s.signal = rng.below(2) ? "img" : "w";
      params = std::to_string(H) + "x" + std::to_string(W) + "r" +
               std::to_string(R);
    } else if (family == "matmul") {
      const i64 N = rng.range(2, 24), K = rng.range(2, 24);
      s.source = k::matmulSource({N, K});
      s.signal = rng.below(2) ? "A" : "B";
      params = std::to_string(N) + "x" + std::to_string(K);
    } else if (family == "susan") {
      const i64 H = rng.range(8, 40), W = rng.range(8, 40);
      s.source = k::susanSource({H, W});
      s.signal = "image";
      params = std::to_string(H) + "x" + std::to_string(W);
    } else {
      const i64 H = rng.range(1, 24), W = 2 * rng.range(2, 32);
      s.source = k::waveletLiftingSource({H, W});
      s.signal = "x";
      params = std::to_string(H) + "x" + std::to_string(W);
    }
    s.key = family + ":" + params + ":" + s.signal;
    if (used.insert(s.key).second) return s;
  }
}

std::string corruptSource(Rng& rng, const std::string& source) {
  switch (rng.below(3)) {
    case 0:  // unterminated kernel body
      return source.substr(0, source.rfind('}'));
    case 1: {  // read of an undeclared array
      const std::size_t at = source.find("read ");
      return source.substr(0, at) + "read undeclared_array[0];\n" +
             source.substr(at);
    }
    default: {  // a keyword misspelt
      std::string s = source;
      const std::size_t at = s.find("loop ");
      s.replace(at, 4, "lopo");
      return s;
    }
  }
}

}  // namespace drb

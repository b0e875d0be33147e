#include "calibrate.h"

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "spans.h"

namespace perfbench {

Slowdown MeasureSlowdown() {
  // Allocated and freed per call, so the kernels add nothing to the peak
  // RSS that the benchmark reports while a Testbed is alive.
  using Page = std::array<uint8_t, 4096>;
  constexpr size_t kPages = 8192;  // 32 MiB.
  std::deque<uint8_t> bytes;
  std::map<uint64_t, uint64_t> tree;
  std::vector<std::unique_ptr<Page>> pages;
  pages.reserve(kPages);
  uint64_t h = 1;
  const auto next = [&h] {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    return h;
  };
  const int64_t start = NowNs();
  // Core-bound, like the simulator's send buffers and registries.
  for (int i = 0; i < 2000000; ++i) {
    bytes.push_back(static_cast<uint8_t>(next() >> 56));
    if (bytes.size() > 4096) {
      bytes.pop_front();
    }
  }
  for (int i = 0; i < 50000; ++i) {
    tree[(next() >> 33) % 8192] += static_cast<uint64_t>(i);
  }
  const int64_t middle = NowNs();
  // Memory-bound, like boot and teardown: AddressSpace::Map allocates a
  // zeroed 4 KiB page per mapped page, and teardown frees them all.
  for (size_t i = 0; i < kPages; ++i) {
    pages.push_back(std::make_unique<Page>());
    (*pages.back())[next() >> 52] += static_cast<uint8_t>(h);
  }
  const uint8_t probe = (*pages[h % kPages])[(h >> 20) % 4096];
  pages.clear();
  const int64_t end = NowNs();
  // Keep the work observable so the compiler cannot drop it.
  volatile uint64_t sink = probe + bytes.front() + tree.size();
  (void)sink;
  Slowdown slowdown;
  slowdown.core =
      static_cast<double>(middle - start) * 1e-9 / kCoreNominalS;
  slowdown.memory = static_cast<double>(end - middle) * 1e-9 / kMemoryNominalS;
  return slowdown;
}

}  // namespace perfbench

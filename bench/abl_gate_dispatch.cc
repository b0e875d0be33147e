// Ablation: gate dispatch overhead on the simulator's own hot path —
// string-keyed lookup vs. a cached RouteHandle vs. batched crossings, per
// isolation backend. Two metrics per variant:
//   wall ns/call — real time the simulator spends dispatching (steady_clock);
//                  this is the cost the route cache eliminates.
//   model cyc/call — charged guest cycles; identical for string vs. cached
//                  (dispatch is free in the model), lower for batched on
//                  isolating backends (one entry/exit pair amortized over
//                  the whole batch). A `none` item already costs a direct
//                  call, so there is nothing to amortize there.
// The exit code checks those model-cycle claims for every backend on every
// run; wall-clock ratios move with host load, so they are only reported.
// Pass --smoke for a fast CI run with tiny iteration counts.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "core/image_builder.h"

int main(int argc, char** argv) {
  using namespace flexos;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const uint64_t kIters = smoke ? 2000 : 400000;
  const uint64_t kBatchLen = 64;

  std::printf("# Gate dispatch ablation: net -> app crossing, %llu calls "
              "per variant%s\n",
              static_cast<unsigned long long>(kIters),
              smoke ? " (smoke)" : "");
  std::printf("%-14s %10s %10s %10s %12s %12s %12s %9s %9s\n", "backend",
              "string", "cached", "batched", "string", "cached", "batched",
              "cache", "batch");
  std::printf("%-14s %10s %10s %10s %12s %12s %12s %9s %9s\n", "",
              "(ns/call)", "(ns/call)", "(ns/call)", "(cyc/call)",
              "(cyc/call)", "(cyc/call)", "speedup", "speedup");

  double min_cache_speedup = 1e30;
  std::string model_failures;  // Backends whose cycles break the claims.
  constexpr IsolationBackend kBackends[] = {
      IsolationBackend::kNone, IsolationBackend::kMpkSharedStack,
      IsolationBackend::kMpkSwitchedStack, IsolationBackend::kVmRpc};
  for (IsolationBackend backend : kBackends) {
    Machine machine;
    ImageBuilder builder(machine);
    auto image = builder.Build(bench::NetOnlyConfig(backend)).value();
    uint64_t sink = 0;
    const auto body = [&sink] { ++sink; };
    const RouteHandle route = image->Resolve(kLibNet, kLibApp);

    // Warm up caches (hash tables, branch predictors) before timing.
    for (int i = 0; i < 256; ++i) {
      image->Call(kLibNet, kLibApp, body);
      image->Call(route, body);
    }

    const bench::LoopSample by_name = bench::MeasureLoop(
        machine, kIters, [&] { image->Call(kLibNet, kLibApp, body); });
    const bench::LoopSample cached = bench::MeasureLoop(
        machine, kIters, [&] { image->Call(route, body); });
    bench::LoopSample batched =
        bench::MeasureLoop(machine, kIters / kBatchLen, [&] {
          GateBatch batch(*image, route);
          for (uint64_t j = 0; j < kBatchLen; ++j) {
            batch.Run(body);
          }
        });
    batched.wall_ns /= static_cast<double>(kBatchLen);
    // The batched loop ran (kIters / kBatchLen) * kBatchLen bodies.
    const uint64_t batched_bodies = (kIters / kBatchLen) * kBatchLen;

    const double cache_speedup = by_name.wall_ns / cached.wall_ns;
    const double batch_speedup = by_name.wall_ns / batched.wall_ns;
    min_cache_speedup = std::min(min_cache_speedup, cache_speedup);
    const std::string name(IsolationBackendName(backend));
    const double cached_cycles = cached.CyclesPerCall(kIters);
    const double batched_cycles = batched.CyclesPerCall(batched_bodies);
    if (by_name.model_cycles_total != cached.model_cycles_total ||
        (backend != IsolationBackend::kNone &&
         batched_cycles >= cached_cycles)) {
      model_failures += " " + name;
    }
    std::printf("%-14s %10.1f %10.1f %10.1f %12.1f %12.1f %12.1f %8.2fx "
                "%8.2fx\n",
                name.c_str(), by_name.wall_ns, cached.wall_ns,
                batched.wall_ns, by_name.CyclesPerCall(kIters), cached_cycles,
                batched_cycles, cache_speedup, batch_speedup);
  }

  std::printf("\n# Checks:\n");
  std::printf("  cached vs string wall-clock speedup (worst backend): "
              "%.2fx (reported, not gated)\n",
              min_cache_speedup);
  const std::string verdict =
      model_failures.empty() ? "yes" : "NO on" + model_failures;
  std::printf("  string and cached charge identical model cycles; batched "
              "amortizes one entry/exit pair over %llu bodies and charges "
              "fewer on isolating backends: %s\n",
              static_cast<unsigned long long>(kBatchLen), verdict.c_str());
  return model_failures.empty() ? 0 : 1;
}

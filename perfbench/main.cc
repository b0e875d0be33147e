// perfbench: the host cost and the modeled output of the FlexOS simulator,
// measured from outside through its public API on four workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --reference <file> [--spans <file>]
//   perfbench --self-test --reference <file>
//   perfbench --write-reference <file>
//
// Host times are wall-clock seconds of this process (steady clock), scaled
// by the host-speed calibration of calibrate.h; modeled values are
// virtual-time outputs of the simulator and are exact. Every run first
// replays the pinned seed and compares its modeled metrics with the stored
// reference. The last stdout line is the result object {"correct",
// "attempted", "failed", "metrics"}. See README.md.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "calibrate.h"
#include "rounds.h"
#include "spans.h"
#include "support/log.h"
#include "support/strings.h"

namespace perfbench {
namespace {

// The seed whose modeled metrics are stored in the reference file.
constexpr uint64_t kPinnedSeed = 1;
// A seed no run uses, for the self-test's clean-run check.
constexpr uint64_t kHeldOutSeed = 1000003;
// Fewest measured passes, whatever --seconds says; medians need several.
// Each third of a traced run needs fewer: per-layer metrics have no bound.
constexpr int kMinPasses = 5;
constexpr int kMinTracedPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = kPinnedSeed;
  double seconds = 10;
  bool trace = false;
  std::string reference;
  std::string spans_path;
  bool self_test = false;
  std::string write_reference;
};

// Correctness accounting across everything a run executes.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Add(const RoundResult& round) {
    attempted += round.attempted;
    failed += round.failed;
    failures.insert(failures.end(), round.failures.begin(),
                    round.failures.end());
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

using Pass = std::vector<RoundResult>;

// Times the calibration kernels before a round when the last timing is
// older than kEvery, so every measured round carries a slowdown taken at
// most that long before it: before each round of iperf-bulk and the Redis
// workloads, before every few short rounds of placement-sweep.
class Calibrator {
 public:
  static constexpr int64_t kEvery = 100'000'000;  // ns

  const Slowdown& Before() {
    if (NowNs() - last_ns_ >= kEvery) {
      current_ = MeasureSlowdown();
      last_ns_ = NowNs();
    }
    return current_;
  }

 private:
  Slowdown current_;
  int64_t last_ns_ = 0;
};

Pass RunPass(const std::vector<RoundSpec>& specs, Tally& tally,
             Calibrator* calibrator = nullptr, SpanRecorder* spans = nullptr,
             std::vector<int64_t>* completion_host_ns = nullptr) {
  Pass pass;
  for (const RoundSpec& spec : specs) {
    const Slowdown slowdown =
        calibrator == nullptr ? Slowdown{} : calibrator->Before();
    RoundOptions options;
    options.spans = spans;
    options.completion_host_ns = completion_host_ns;
    pass.push_back(RunRound(spec, options));
    pass.back().slowdown = slowdown;
    tally.Add(pass.back());
  }
  return pass;
}

std::string FormatModeled(const Modeled& modeled) {
  std::string out;
  for (const auto& [name, value] : modeled) {
    out += name + "=" + value + " ";
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Sum(const Pass& pass, double RoundResult::*field) {
  double total = 0;
  for (const RoundResult& round : pass) {
    total += round.*field;
  }
  return total;
}

uint64_t SumU(const Pass& pass, uint64_t RoundResult::*field) {
  uint64_t total = 0;
  for (const RoundResult& round : pass) {
    total += round.*field;
  }
  return total;
}

std::map<std::string, double> SumCounters(const Pass& pass) {
  std::map<std::string, double> total;
  for (const RoundResult& round : pass) {
    for (const auto& [name, value] : round.counters) {
      total[name] += value;
    }
  }
  return total;
}

// --- Reference file ---------------------------------------------------------
// Lines of "<workload> <metric> <value>"; '#' starts a comment.

using Reference = std::map<std::string, Modeled>;

bool LoadReference(const std::string& path, Reference* out) {
  std::ifstream file(path);
  if (!file) {
    return false;
  }
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload;
    std::string metric;
    std::string value;
    if (!(fields >> workload >> metric >> value)) {
      return false;
    }
    (*out)[workload].emplace_back(metric, value);
  }
  return true;
}

// redis-profiled replays redis-small's traffic, so it must reproduce
// redis-small's reference exactly.
const char* ReferenceKey(Workload workload) {
  return WorkloadName(workload == Workload::kRedisProfiled
                          ? Workload::kRedisSmall
                          : workload);
}

// --- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string kind;  // "host" or "modeled" (report only).
  std::string note;  // Base or sample count (report only).
};

std::string CounterUnit(std::string_view name) {
  if (name.find("_cycles") != std::string_view::npos) {
    return "cycles";
  }
  if (name.find("_ns") != std::string_view::npos) {
    return "ns";
  }
  if (name.find("bytes") != std::string_view::npos) {
    return "B";
  }
  return "count";
}

void PrintReport(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-8s %-34s %18.6f %-6s %s\n", metric.kind.c_str(),
                metric.name.c_str(), metric.value, metric.unit.c_str(),
                metric.note.c_str());
  }
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// --- Workload runs ---------------------------------------------------------

// Replays the pinned seed (also the warm-up) and checks its modeled
// metrics against the stored reference.
void CheckReference(Workload workload, const Reference& reference,
                    Tally& tally) {
  const Pass pass = RunPass(MakePass(workload, kPinnedSeed), tally);
  const Modeled modeled = SummarizeModeled(pass);
  const auto it = reference.find(ReferenceKey(workload));
  const bool ok = it != reference.end() && it->second == modeled;
  tally.Check(ok, "modeled metrics of pinned seed differ from reference: " +
                      FormatModeled(modeled));
}

// Whether a layer's host time scales with the memory kernel (boot and
// teardown: page zeroing, allocation) or the core kernel (traffic).
bool MemoryBound(Layer layer) {
  return layer == Layer::kBoot || layer == Layer::kConnect ||
         layer == Layer::kTeardown || layer == Layer::kImageBuild;
}

// A round's slowdown; none when host times are reported raw.
Slowdown Scale(const RoundResult& round, bool scaled) {
  return scaled ? round.slowdown : Slowdown{};
}

// A pass's wall time in reference-host seconds: each round's traffic
// phase scaled by its core slowdown, the rest by its memory slowdown.
double ReferenceWall(const Pass& pass, bool scaled = true) {
  double total = 0;
  for (const RoundResult& round : pass) {
    const Slowdown slowdown = Scale(round, scaled);
    total += round.run_s / slowdown.core +
             (round.round_s - round.run_s) / slowdown.memory;
  }
  return total;
}

// The passes of one phase of a run and, when traced, each pass's
// per-layer self seconds.
struct Phase {
  std::vector<Pass> passes;
  std::vector<std::array<double, kLayerCount>> self;

  // Median over passes of a layer's self time, in reference-host seconds
  // (scaled by the pass's mean slowdown).
  double MedianSelf(Layer layer) const {
    std::vector<double> values;
    for (size_t i = 0; i < passes.size(); ++i) {
      double scale = 0;
      for (const RoundResult& round : passes[i]) {
        scale += MemoryBound(layer) ? round.slowdown.memory
                                    : round.slowdown.core;
      }
      scale /= static_cast<double>(passes[i].size());
      values.push_back(self[i][static_cast<size_t>(layer)] / scale);
    }
    return Median(values);
  }
  double MedianWall() const {
    std::vector<double> values;
    for (const Pass& pass : passes) {
      values.push_back(ReferenceWall(pass));
    }
    return Median(values);
  }
};

// Runs passes of `specs` until `seconds` have elapsed (at least
// `min_passes`), checking that every pass reproduces the first one's
// modeled metrics.
Phase RunFor(const std::vector<RoundSpec>& specs, double seconds,
             int min_passes, Tally& tally, SpanRecorder* spans = nullptr) {
  Phase phase;
  Calibrator calibrator;
  const int64_t start = NowNs();
  while (phase.passes.size() < static_cast<size_t>(min_passes) ||
         static_cast<double>(NowNs() - start) * 1e-9 < seconds) {
    if (spans != nullptr) {
      spans->Clear();
    }
    phase.passes.push_back(RunPass(specs, tally, &calibrator, spans));
    if (spans != nullptr) {
      // Boot probe, outside the rounds: ImageBuilder::Build on a fresh
      // Machine for every round's image.
      for (const RoundSpec& spec : specs) {
        phase.passes.back().front().counters["vmem.mapped_pages"] +=
            static_cast<double>(ProbeImage(spec, spans));
      }
      phase.self.push_back(spans->SelfSeconds());
    }
    if (phase.passes.size() > 1) {
      tally.Check(SummarizeModeled(phase.passes.back()) ==
                      SummarizeModeled(phase.passes.front()),
                  "a repeated pass changed its modeled metrics");
    }
  }
  return phase;
}

std::vector<Metric> ModeledMetrics(const Pass& pass) {
  std::vector<Metric> metrics;
  std::string samples;
  for (const auto& [name, value] : SummarizeModeled(pass)) {
    if (name == "modeled_req_samples") {
      samples = value;
      continue;
    }
    const bool latency = name.find("_us") != std::string::npos;
    metrics.push_back({name, std::strtod(value.c_str(), nullptr),
                       latency ? "us" : (name == "modeled_gbps" ? "Gb/s"
                                                                : "kreq/s"),
                       "modeled", ""});
  }
  for (Metric& metric : metrics) {
    if (metric.unit == "us") {
      metric.note = "(" + samples + " samples)";
    }
  }
  return metrics;
}

// End-to-end host metrics: per-pass rates in reference-host seconds,
// median over the measured passes. Unscaled, they are the raw
// steady-clock figures, named with a ".raw" suffix (report only).
std::vector<Metric> HostMetrics(const Phase& phase, bool scaled = true) {
  std::vector<double> setup;
  std::vector<double> mb_per_s;
  std::vector<double> req_per_s;
  std::vector<double> runs_per_s;
  double peak_rss_mb = 0;
  size_t rounds = 0;
  for (const Pass& pass : phase.passes) {
    double run_s = 0;
    for (const RoundResult& round : pass) {
      const Slowdown slowdown = Scale(round, scaled);
      setup.push_back(round.setup_s / slowdown.memory);
      run_s += round.run_s / slowdown.core;
      peak_rss_mb = std::max(peak_rss_mb, round.rss_mb);
    }
    rounds += pass.size();
    mb_per_s.push_back(
        static_cast<double>(SumU(pass, &RoundResult::tcp_bytes_rx)) / 1e6 /
        run_s);
    req_per_s.push_back(
        static_cast<double>(SumU(pass, &RoundResult::app_requests)) / run_s);
    runs_per_s.push_back(static_cast<double>(pass.size()) /
                         ReferenceWall(pass, scaled));
  }
  const std::string over =
      "(median of " + std::to_string(phase.passes.size()) + " passes, " +
      std::to_string(rounds) + " runs)";
  const std::string suffix = scaled ? "" : ".raw";
  const std::string kind = scaled ? "host" : "raw";
  std::vector<Metric> metrics = {
      {"setup_s" + suffix, Median(setup), "s", kind,
       "(median of " + std::to_string(setup.size()) + " boots)"},
      {"sim_mb_per_host_s" + suffix, Median(mb_per_s), "MB/s", kind, over},
      {"sim_req_per_host_s" + suffix, Median(req_per_s), "1/s", kind, over},
      {"sim_runs_per_host_s" + suffix, Median(runs_per_s), "1/s", kind, over},
  };
  if (scaled) {
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB", "host",
                       "(max VmRSS after Run over the rounds; not scaled)"});
  }
  return metrics;
}

// The measured slowdowns, so a reader can undo the scaling.
std::vector<Metric> SlowdownMetrics(const Phase& phase) {
  std::vector<double> core;
  std::vector<double> memory;
  for (const Pass& pass : phase.passes) {
    for (const RoundResult& round : pass) {
      core.push_back(round.slowdown.core);
      memory.push_back(round.slowdown.memory);
    }
  }
  return {{"host.slowdown.core", Median(core), "ratio", "host",
           "(core kernel over nominal; traffic-phase times are divided by "
           "it)"},
          {"host.slowdown.memory", Median(memory), "ratio", "host",
           "(memory kernel over nominal; boot and teardown times are "
           "divided by it)"}};
}

int RunWorkload(const Args& args, Workload workload,
                const Reference& reference) {
  Tally tally;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  CheckReference(workload, reference, tally);
  const std::vector<RoundSpec> specs = MakePass(workload, args.seed);

  std::vector<Metric> report;
  std::vector<Metric> result;
  if (!args.trace) {
    const Phase phase = RunFor(specs, args.seconds, kMinPasses, tally);
    const Modeled modeled = SummarizeModeled(phase.passes.front());
    if (workload == Workload::kRedisProfiled) {
      // Observability must not move a modeled cycle: the same traffic with
      // obs off gives redis-small's modeled metrics.
      std::vector<RoundSpec> plain = specs;
      SetObservability(plain, false);
      tally.Check(SummarizeModeled(RunPass(plain, tally)) == modeled,
                  "redis-profiled modeled metrics differ from redis-small's");
    }
    result = HostMetrics(phase);
    report = result;
    for (const Metric& metric : HostMetrics(phase, /*scaled=*/false)) {
      report.push_back(metric);
    }
    for (const Metric& metric : SlowdownMetrics(phase)) {
      report.push_back(metric);
    }
    for (const Metric& metric : ModeledMetrics(phase.passes.front())) {
      report.push_back(metric);
    }
  } else {
    // A third of the time each: untraced, traced, and traced with
    // observability flipped (profile+watch on for the unprofiled
    // workloads, off for redis-profiled).
    const double third = args.seconds / 3;
    const Phase untraced = RunFor(specs, third, kMinTracedPasses, tally);
    SpanRecorder spans;
    const Phase traced =
        RunFor(specs, third, kMinTracedPasses, tally, &spans);
    if (!args.spans_path.empty() && !spans.WriteCsv(args.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
    }
    tally.Check(SummarizeModeled(traced.passes.front()) ==
                    SummarizeModeled(untraced.passes.front()),
                "traced run changed the modeled metrics");
    std::vector<RoundSpec> flipped = specs;
    const bool profiled = specs.front().config.profile;
    SetObservability(flipped, !profiled);
    SpanRecorder flipped_spans;
    const Phase flipped_phase =
        RunFor(flipped, third, kMinTracedPasses, tally, &flipped_spans);
    tally.Check(SummarizeModeled(flipped_phase.passes.front()) ==
                    SummarizeModeled(traced.passes.front()),
                "observability changed the modeled metrics");

    std::map<std::string, double> counters =
        SumCounters(traced.passes.front());
    // attrib.* and timeseries.* come from whichever variant had
    // observability on.
    const std::map<std::string, double> obs_counters = SumCounters(
        (profiled ? traced : flipped_phase).passes.front());
    for (const auto& [name, value] : obs_counters) {
      if (name.starts_with("attrib.") || name.starts_with("timeseries.")) {
        counters[name] = value;
      }
    }

    const double boot = traced.MedianSelf(Layer::kBoot);
    const double connect = traced.MedianSelf(Layer::kConnect);
    const double teardown = traced.MedianSelf(Layer::kTeardown);
    const double loadgen_rx = traced.MedianSelf(Layer::kLoadgenRx);
    const double loadgen_app = traced.MedianSelf(Layer::kLoadgenApp);
    const double nic = traced.MedianSelf(Layer::kNicRx);
    const double guest = traced.MedianSelf(Layer::kRun);
    const double traced_wall = traced.MedianWall();
    const double untraced_wall = untraced.MedianWall();
    // Share of each traced pass's wall time that the layer spans account
    // for; the rest is the benchmark's own checks and counter snapshots.
    std::vector<double> accounted;
    for (size_t i = 0; i < traced.passes.size(); ++i) {
      double layers = 0;
      for (Layer layer : {Layer::kBoot, Layer::kConnect, Layer::kLoadgenRx,
                          Layer::kLoadgenApp, Layer::kNicRx, Layer::kRun,
                          Layer::kTeardown}) {
        layers += traced.self[i][static_cast<size_t>(layer)];
      }
      accounted.push_back(layers /
                          Sum(traced.passes[i], &RoundResult::round_s));
    }
    const double frames = counters["loadgen.frames"];
    const double crossings = counters["gate.crossings.total"];
    const double requests = static_cast<double>(
        SumU(traced.passes.front(), &RoundResult::app_requests));
    const double flipped_guest = flipped_phase.MedianSelf(Layer::kRun);
    const double profiled_guest = profiled ? guest : flipped_guest;
    const double plain_guest = profiled ? flipped_guest : guest;
    const std::string per_pass =
        "(per pass of " + std::to_string(specs.size()) + " runs, median of " +
        std::to_string(traced.passes.size()) + ")";

    result = {
        {"testbed.boot_s", boot, "s", "host", per_pass},
        {"testbed.connect_s", connect, "s", "host", per_pass},
        {"core.image_build_s", traced.MedianSelf(Layer::kImageBuild), "s",
         "host", "(ImageBuilder::Build on a fresh Machine)"},
        {"testbed.teardown_s", teardown, "s", "host", per_pass},
        {"loadgen.rx_s", loadgen_rx, "s", "host", "(self)"},
        {"loadgen.app_s", loadgen_app, "s", "host", "(self)"},
        {"loadgen.ns_per_frame", (loadgen_rx + loadgen_app) * 1e9 / frames,
         "ns", "host",
         "(base: " + std::to_string(static_cast<uint64_t>(frames)) +
             " frames)"},
        {"nic.rx_s", nic, "s", "host", "(self)"},
        {"guest.self_s", guest, "s", "host", "(Run minus loadgen and nic)"},
        {"guest.ns_per_crossing", guest * 1e9 / crossings, "ns", "host",
         "(base: " + std::to_string(static_cast<uint64_t>(crossings)) +
             " crossings)"},
        {"obs.host_overhead",
         (profiled_guest / requests) / (plain_guest / requests), "ratio",
         "host",
         "(guest.self_s per request with profile+watch: " +
             std::to_string(profiled_guest / requests * 1e9) +
             " ns; without: " + std::to_string(plain_guest / requests * 1e9) +
             " ns; base: " + std::to_string(static_cast<uint64_t>(requests)) +
             " requests)"},
        {"trace.overhead", traced_wall / untraced_wall, "ratio", "host",
         "(traced " + std::to_string(traced_wall) + " s / untraced " +
             std::to_string(untraced_wall) + " s per pass)"},
        {"trace.accounted_share", Median(accounted), "ratio", "host",
         "(boot+connect+loadgen+nic+guest+teardown self over traced wall)"},
    };
    static const char* const kCounters[] = {
        "vmem.mapped_pages",
        "loadgen.frames",
        "loadgen.segments_tx",
        "loadgen.retransmits",
        "gate.crossings.total",
        "gate.crossings.none",
        "gate.crossings.mpk-shared",
        "gate.crossings.mpk-switched",
        "gate.crossings.vm-rpc",
        "gate.bytes.none",
        "gate.bytes.mpk-shared",
        "gate.bytes.mpk-switched",
        "gate.bytes.vm-rpc",
        "gate.modeled_ns.none",
        "gate.modeled_ns.mpk-shared",
        "gate.modeled_ns.mpk-switched",
        "gate.modeled_ns.vm-rpc",
        "hw.wrpkru",
        "hw.vmexits",
        "sched.context_switches",
        "sched.busy_cycles",
        "sched.idle_cycles",
        "net.tcp.segments_rx",
        "net.tcp.segments_tx",
        "net.tcp.retransmits",
        "net.frames_polled",
        "link.frames_dropped",
        "alloc.allocations",
        "alloc.frees",
        "alloc.bytes_allocated",
        "attrib.comp_cycles.platform",
        "attrib.comp_cycles.c0",
        "attrib.comp_cycles.c1",
        "attrib.comp_cycles.c2",
        "attrib.gate_cycles.none",
        "attrib.gate_cycles.mpk-shared",
        "attrib.gate_cycles.mpk-switched",
        "attrib.gate_cycles.vm-rpc",
        "timeseries.windows",
    };
    for (const char* name : kCounters) {
      result.push_back(
          {name, counters[name], CounterUnit(name), "modeled", "(per pass)"});
    }
    report = result;
    for (const auto& [name, value] : counters) {
      if (std::find_if(report.begin(), report.end(), [&](const Metric& m) {
            return m.name == name;
          }) == report.end()) {
        report.push_back(
            {name, value, CounterUnit(name), "modeled", "(per pass)"});
      }
    }
    for (const Metric& metric : SlowdownMetrics(traced)) {
      report.push_back(metric);
    }
    for (const Metric& metric : ModeledMetrics(traced.passes.front())) {
      report.push_back(metric);
    }
  }

  PrintReport(report);
  std::printf("  error_rate %.6g (%llu failed of %llu attempted)\n",
              tally.attempted == 0
                  ? 0.0
                  : static_cast<double>(tally.failed) /
                        static_cast<double>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  for (const std::string& failure : tally.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  PrintResult(tally, result);
  return 0;
}

// --- Self-test and reference regeneration ------------------------------------

int SelfTest(const Reference& reference) {
  bool ok = true;
  const auto expect = [&ok](bool cond, const std::string& what) {
    std::printf("  %s %s\n", cond ? "ok  " : "FAIL", what.c_str());
    ok = ok && cond;
  };
  for (Workload workload : kWorkloads) {
    const char* name = WorkloadName(workload);
    const auto describe = [workload](uint64_t seed) {
      std::string text;
      for (const RoundSpec& spec : MakePass(workload, seed)) {
        text += spec.Describe() + "\n";
      }
      return text;
    };
    expect(describe(7) == describe(7),
           std::string(name) + ": same seed, byte-identical inputs");
    expect(describe(7) != describe(8),
           std::string(name) + ": different seeds, different inputs");
    Tally tally;
    const std::vector<RoundSpec> specs = MakePass(workload, 7);
    // The modeled summary and every simulator counter, as text.
    const auto outputs = [&specs, &tally] {
      const Pass pass = RunPass(specs, tally);
      std::string text = FormatModeled(SummarizeModeled(pass));
      for (const auto& [counter, value] : SumCounters(pass)) {
        text += flexos::StrFormat("%s=%.17g ", counter.c_str(), value);
      }
      return text;
    };
    expect(outputs() == outputs(),
           std::string(name) + ": same seed, byte-identical modeled outputs");
    RunPass(MakePass(workload, kHeldOutSeed), tally);
    CheckReference(workload, reference, tally);
    expect(tally.failed == 0,
           std::string(name) + ": held-out and pinned seeds run clean (" +
               std::to_string(tally.attempted) + " operations)");
  }

  // Warm-up and growth: host cost per request in the first and last tenth
  // of one long Redis run. Host time only reports; it never fails.
  std::vector<RoundSpec> specs = MakePass(Workload::kRedisSmall, kPinnedSeed);
  for (flexos::RedisWorkload& conn : specs.front().redis) {
    conn.measured_ops *= 8;
  }
  std::vector<int64_t> stamps;
  Tally tally;
  RunPass(specs, tally, nullptr, nullptr, &stamps);
  const size_t tenth = stamps.size() / 10;
  if (tenth > 0) {
    const double first =
        static_cast<double>(stamps[tenth] - stamps[0]) / tenth;
    const double last = static_cast<double>(stamps.back() -
                                            stamps[stamps.size() - 1 - tenth]) /
                        tenth;
    std::printf("  info growth: %.0f ns/request in the first tenth, %.0f in "
                "the last (x%.3f, %zu requests)\n",
                first, last, last / first, stamps.size());
  }
  expect(tally.failed == 0, "long redis-small run clean");
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int WriteReference(const std::string& path) {
  std::string text =
      "# Modeled end-to-end metrics of the pinned seed (exact, %.17g).\n"
      "# Regenerate with: python3 perfbench/run.py --write-reference\n";
  for (Workload workload : kWorkloads) {
    if (workload == Workload::kRedisProfiled) {
      continue;  // Checked against redis-small's lines.
    }
    Tally tally;
    const Pass pass = RunPass(MakePass(workload, kPinnedSeed), tally);
    if (tally.failed != 0) {
      std::fprintf(stderr, "perfbench: %s failed, reference not written\n",
                   WorkloadName(workload));
      return 1;
    }
    for (const auto& [name, value] : SummarizeModeled(pass)) {
      text += std::string(WorkloadName(workload)) + " " + name + " " + value +
              "\n";
    }
  }
  std::ofstream file(path);
  file << text;
  return file.good() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <iperf-bulk|redis-small|"
               "redis-profiled|placement-sweep> --seed N --seconds S "
               "--trace 0|1 --reference FILE [--spans FILE]\n"
               "       perfbench --self-test --reference FILE\n"
               "       perfbench --write-reference FILE\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  flexos::SetLogLevel(flexos::LogLevel::kError);
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--self-test") {
      args.self_test = true;
    } else if (!has_value) {
      return Usage();
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--reference") {
      args.reference = argv[++i];
    } else if (flag == "--spans") {
      args.spans_path = argv[++i];
    } else if (flag == "--write-reference") {
      args.write_reference = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!args.write_reference.empty()) {
    return WriteReference(args.write_reference);
  }
  Reference reference;
  if (!LoadReference(args.reference, &reference)) {
    std::fprintf(stderr, "perfbench: cannot read reference '%s'\n",
                 args.reference.c_str());
    return 2;
  }
  if (args.self_test) {
    return SelfTest(reference);
  }
  const std::optional<Workload> workload = ParseWorkload(args.workload);
  if (!workload.has_value() || args.seconds <= 0) {
    return Usage();
  }
  return RunWorkload(args, *workload, reference);
}

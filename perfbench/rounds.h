// Workload inputs and the simulated run ("round") the benchmark repeats.
// A round boots a fresh Testbed, connects in-process remote clients,
// drives closed-loop traffic to completion, snapshots the simulator's
// counters and tears everything down. A pass is the workload's seeded
// list of rounds; the benchmark repeats passes for the measured time.
#ifndef FLEXOS_PERFBENCH_ROUNDS_H_
#define FLEXOS_PERFBENCH_ROUNDS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/redis_client.h"
#include "apps/testbed.h"
#include "calibrate.h"
#include "spans.h"

namespace perfbench {

enum class Workload {
  kIperfBulk,
  kRedisSmall,
  kRedisProfiled,
  kPlacementSweep,
};
inline constexpr Workload kWorkloads[] = {
    Workload::kIperfBulk, Workload::kRedisSmall, Workload::kRedisProfiled,
    Workload::kPlacementSweep};

const char* WorkloadName(Workload workload);
std::optional<Workload> ParseWorkload(std::string_view name);

// Simulated clients per Redis round. The clients are in-process objects on
// the benchmark's one thread; the count stays at or below a small host's
// core count.
inline constexpr int kRedisConnections = 4;

struct RoundSpec {
  std::string label;
  flexos::TestbedConfig config;
  uint64_t iperf_bytes = 0;  // > 0: one iperf connection streams this much.
  uint64_t recv_buffer = 0;
  std::vector<flexos::RedisWorkload> redis;  // One per Redis connection.

  // Canonical text of everything the seed chose for this round.
  std::string Describe() const;
};

// The workload's pass for `seed`. The same seed gives the same rounds.
std::vector<RoundSpec> MakePass(Workload workload, uint64_t seed);

// Turns the Attributor and flexwatch windows on or off for every round
// (what flexstat --flame --watch does); observes, never charges.
void SetObservability(std::vector<RoundSpec>& pass, bool on);

struct RoundOptions {
  SpanRecorder* spans = nullptr;  // Non-null: traced round.
  std::vector<int64_t>* completion_host_ns = nullptr;  // Growth check.
};

struct RoundResult {
  // Host seconds (steady clock).
  double setup_s = 0;  // Boot + connect: until the first packet is sent.
  double run_s = 0;    // Testbed::Run, the traffic phase.
  double round_s = 0;  // Boot through teardown.
  // Resident memory (VmRSS) right after Run, while the Testbed holds
  // everything it mapped: the round's peak. Sampled here rather than read
  // as the process's high-water mark so that the calibration kernels'
  // buffers, allocated between rounds, are not counted.
  double rss_mb = 0;
  // Host slowdown timed just before the round (calibrate.h); 1 when the
  // round was not calibrated.
  Slowdown slowdown;

  // Modeled outputs (virtual time; exact).
  uint64_t freq_hz = 0;
  uint64_t tcp_bytes_rx = 0;    // Payload delivered into the guest.
  uint64_t app_requests = 0;    // Redis commands, or iperf recv() calls.
  uint64_t iperf_bytes = 0;     // Bytes the guest iperf server received.
  uint64_t iperf_cycles = 0;    // Virtual cycles of the whole iperf run.
  uint64_t redis_ops = 0;       // Measured-phase ops, all connections.
  uint64_t redis_window_cycles = 0;  // First measured send to last reply.
  std::vector<uint64_t> latency_cycles;  // Measured-phase requests.

  // Correctness accounting (see README.md, "Correctness").
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  // Per-layer counters folded from MetricsRegistry::Entries(),
  // MachineStats, LinkStats and RemoteTcpStats.
  std::map<std::string, double> counters;
};

RoundResult RunRound(const RoundSpec& spec, const RoundOptions& options);

// Builds the round's image on a fresh Machine under a core.image_build span
// and counts its mapped pages with AddressSpace::IsMapped.
uint64_t ProbeImage(const RoundSpec& spec, SpanRecorder* spans);

// The modeled end-to-end metrics of a pass, formatted exactly ("%.17g") so
// equality is textual. Keys name the metric; "samples" counts latencies.
using Modeled = std::vector<std::pair<std::string, std::string>>;
Modeled SummarizeModeled(const std::vector<RoundResult>& pass);

}  // namespace perfbench

#endif  // FLEXOS_PERFBENCH_ROUNDS_H_

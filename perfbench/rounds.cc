#include "rounds.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>

#include "apps/iperf_client.h"
#include "apps/iperf_server.h"
#include "apps/redis_server.h"
#include "bench_util.h"
#include "core/image_builder.h"
#include "obs/names.h"
#include "support/rng.h"
#include "support/strings.h"
#include "vmem/address_space.h"

namespace perfbench {

using flexos::ImageConfig;
using flexos::IsolationBackend;

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kIperfBulk:
      return "iperf-bulk";
    case Workload::kRedisSmall:
      return "redis-small";
    case Workload::kRedisProfiled:
      return "redis-profiled";
    case Workload::kPlacementSweep:
      return "placement-sweep";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload workload : kWorkloads) {
    if (name == WorkloadName(workload)) {
      return workload;
    }
  }
  return std::nullopt;
}

namespace {

// The paper's three placements (Fig. 5).
enum class Placement { kNetOnly, kNetSchedRest, kNetPlusSched };
constexpr Placement kPlacements[] = {Placement::kNetOnly,
                                     Placement::kNetSchedRest,
                                     Placement::kNetPlusSched};
constexpr IsolationBackend kBackends[] = {
    IsolationBackend::kNone, IsolationBackend::kMpkSharedStack,
    IsolationBackend::kMpkSwitchedStack, IsolationBackend::kVmRpc};

const char* PlacementName(Placement placement) {
  switch (placement) {
    case Placement::kNetOnly:
      return "NW-only";
    case Placement::kNetSchedRest:
      return "NW/Sched/Rest";
    case Placement::kNetPlusSched:
      return "NW+Sched/Rest";
  }
  return "?";
}

// The figure benchmarks' image configurations (bench/bench_util.h).
ImageConfig PlacementConfig(Placement placement, IsolationBackend backend) {
  switch (placement) {
    case Placement::kNetOnly:
      return flexos::bench::NetOnlyConfig(backend);
    case Placement::kNetSchedRest:
      return flexos::bench::NetSchedRestConfig(backend);
    case Placement::kNetPlusSched:
      return flexos::bench::NetPlusSchedConfig(backend);
  }
  return {};
}

RoundSpec MakeRound(Placement placement, IsolationBackend backend,
                    bool harden_net) {
  RoundSpec spec;
  spec.label = flexos::StrFormat(
      "%s/%s/%s", PlacementName(placement),
      std::string(flexos::IsolationBackendName(backend)).c_str(),
      harden_net ? "sh" : "nosh");
  spec.config.image = PlacementConfig(placement, backend);
  if (harden_net) {
    spec.config.image.hardened_libs = {std::string(flexos::kLibNet)};
  }
  if (backend == IsolationBackend::kVmRpc) {
    // vm-rpc runs on the paper's Xen testbed, as in fig3's VM-RPC series.
    spec.config.costs = flexos::bench::XenPlatformCosts();
  }
  return spec;
}

// The process's resident memory (VmRSS) in MiB; 0 if unreadable.
double ResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmRSS:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>& items, flexos::Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBelow(i)]);
  }
}

// Closed-loop Redis connections: a GET-heavy mix (reads) beside one SET
// connection (writes). Keys are seeded so inputs differ between seeds.
std::vector<flexos::RedisWorkload> RedisMix(flexos::Rng& rng, int conns,
                                            uint64_t ops, uint64_t payload,
                                            uint64_t key_space) {
  std::vector<flexos::RedisWorkload> mix;
  const uint64_t tag = rng.NextBelow(10000);
  const int set_conn = static_cast<int>(rng.NextBelow(conns));
  for (int i = 0; i < conns; ++i) {
    flexos::RedisWorkload workload;
    workload.measure_gets = i != set_conn;
    workload.warmup_sets = workload.measure_gets ? key_space : 0;
    workload.key_space = key_space;
    workload.measured_ops = ops;
    workload.payload_bytes = payload;
    workload.key_prefix = flexos::StrFormat(
        "k%04llu-%d", static_cast<unsigned long long>(tag), i);
    mix.push_back(workload);
  }
  return mix;
}

}  // namespace

std::string RoundSpec::Describe() const {
  std::string out = label;
  out += flexos::StrFormat(" profile=%d watch=%d", config.profile ? 1 : 0,
                           config.watch ? 1 : 0);
  if (iperf_bytes > 0) {
    out += flexos::StrFormat(" iperf bytes=%llu recv_buffer=%llu",
                             static_cast<unsigned long long>(iperf_bytes),
                             static_cast<unsigned long long>(recv_buffer));
  }
  for (const flexos::RedisWorkload& workload : redis) {
    out += flexos::StrFormat(
        " redis{%s warmup=%llu ops=%llu keys=%llu payload=%llu prefix=%s}",
        workload.measure_gets ? "GET" : "SET",
        static_cast<unsigned long long>(workload.warmup_sets),
        static_cast<unsigned long long>(workload.measured_ops),
        static_cast<unsigned long long>(workload.key_space),
        static_cast<unsigned long long>(workload.payload_bytes),
        workload.key_prefix.c_str());
  }
  return out;
}

std::vector<RoundSpec> MakePass(Workload workload, uint64_t seed) {
  // Distinct streams per workload so seeds are not shared across them;
  // redis-profiled replays redis-small's stream, so its traffic is
  // identical.
  const Workload stream =
      workload == Workload::kRedisProfiled ? Workload::kRedisSmall : workload;
  flexos::Rng rng(seed * 4 + static_cast<uint64_t>(stream));
  std::vector<RoundSpec> pass;
  switch (workload) {
    case Workload::kIperfBulk: {
      // One long stream into the iperf sink: mpk-switched gates on the net
      // compartment, SH on net, 64 KiB recv buffer.
      RoundSpec spec = MakeRound(Placement::kNetOnly,
                                 IsolationBackend::kMpkSwitchedStack, true);
      spec.iperf_bytes = (24ull << 20) + (rng.NextBelow(5) << 16);
      spec.recv_buffer = 64 << 10;
      pass.push_back(spec);
      break;
    }
    case Workload::kRedisSmall:
    case Workload::kRedisProfiled: {
      RoundSpec spec = MakeRound(Placement::kNetSchedRest,
                                 IsolationBackend::kMpkSwitchedStack, false);
      const uint64_t ops = 2000 + rng.NextBelow(21);
      const uint64_t payload = 8 + rng.NextBelow(3);
      const uint64_t key_space = 32 + rng.NextBelow(33);
      spec.redis = RedisMix(rng, kRedisConnections, ops, payload, key_space);
      pass.push_back(spec);
      if (workload == Workload::kRedisProfiled) {
        SetObservability(pass, true);
      }
      break;
    }
    case Workload::kPlacementSweep: {
      // Every placement x backend x SH combination serves one short Redis
      // burst and one short iperf burst, in seeded order, with the figure
      // benchmarks' traffic. Recv buffers come from fig3's sweep (64 B to
      // 1 MiB in powers of 4), each size on 3 of the 24 iperf bursts. A
      // burst is 1024 recv buffers, at most 1 MiB (fig3 streams 4 MiB; the
      // bursts are shorter so that boot stays the main cost). Redis
      // payloads are fig4/5's 5, 50 and 500 B, each on 8 of the 24 Redis
      // bursts, with their 120 ops and 32 keys per connection. The seed
      // picks which combination gets which buffer and payload, the key
      // names, the SET connection and the order, not the mix.
      const size_t combos = std::size(kPlacements) * std::size(kBackends) * 2;
      std::vector<uint64_t> buffers;
      std::vector<uint64_t> payloads;
      for (size_t i = 0; i < combos; ++i) {
        buffers.push_back(64ull << (2 * (i % 8)));
        payloads.push_back(std::array<uint64_t, 3>{5, 50, 500}[i % 3]);
      }
      Shuffle(buffers, rng);
      Shuffle(payloads, rng);
      for (Placement placement : kPlacements) {
        for (IsolationBackend backend : kBackends) {
          for (bool harden : {false, true}) {
            RoundSpec redis = MakeRound(placement, backend, harden);
            redis.label += "/redis";
            redis.redis = RedisMix(rng, kRedisConnections, 120,
                                   payloads.back(), 32);
            payloads.pop_back();
            pass.push_back(redis);
            RoundSpec iperf = MakeRound(placement, backend, harden);
            iperf.label += "/iperf";
            iperf.recv_buffer = buffers.back();
            iperf.iperf_bytes = std::min<uint64_t>(1024 * iperf.recv_buffer,
                                                   1ull << 20);
            buffers.pop_back();
            pass.push_back(iperf);
          }
        }
      }
      Shuffle(pass, rng);
      break;
    }
  }
  return pass;
}

void SetObservability(std::vector<RoundSpec>& pass, bool on) {
  for (RoundSpec& spec : pass) {
    spec.config.profile = on;
    spec.config.watch = on;
  }
}

namespace {

void Check(RoundResult& result, bool ok, const std::string& what) {
  ++result.attempted;
  if (!ok) {
    ++result.failed;
    result.failures.push_back(what);
  }
}

// Folds the registry's per-boundary gate metrics into per-backend totals
// and copies the named counters each layer reports.
void SnapshotCounters(flexos::Testbed& bed, RoundResult& result) {
  flexos::Machine& machine = bed.machine();
  std::map<std::string, double>& out = result.counters;
  for (const flexos::obs::MetricsRegistry::Entry& entry :
       machine.metrics().Entries()) {
    flexos::obs::GateMetricParts parts;
    if (!flexos::obs::ParseGateMetricName(entry.name, &parts)) {
      continue;
    }
    const std::string backend(parts.backend);
    if (parts.family == "crossings" && entry.counter != nullptr) {
      out["gate.crossings." + backend] +=
          static_cast<double>(entry.counter->value());
      out["gate.crossings.total"] +=
          static_cast<double>(entry.counter->value());
    } else if (parts.family == "bytes" && entry.counter != nullptr) {
      out["gate.bytes." + backend] +=
          static_cast<double>(entry.counter->value());
    } else if (parts.family == "latency_ns" && entry.histogram != nullptr) {
      // Every gate.latency_ns.* histogram is named by GateMetricName and
      // parses, so this sum covers all of them by construction.
      out["gate.modeled_ns." + backend] +=
          static_cast<double>(entry.histogram->sum());
    }
  }

  const flexos::obs::MetricsRegistry& metrics = machine.metrics();
  for (std::string_view name :
       {flexos::obs::kMetricContextSwitches, flexos::obs::kMetricTcpSegmentsRx,
        flexos::obs::kMetricTcpSegmentsTx, flexos::obs::kMetricTcpRetransmits,
        flexos::obs::kMetricFramesPolled, flexos::obs::kMetricAllocCount,
        flexos::obs::kMetricFreeCount, flexos::obs::kMetricAllocBytes}) {
    out[std::string(name)] += static_cast<double>(metrics.CounterValue(name));
  }
  out["sched.busy_cycles"] += static_cast<double>(metrics.CounterValue(
      flexos::obs::SchedVCpuMetricName(0, flexos::obs::kVCpuBusyCycles)));
  out["sched.idle_cycles"] += static_cast<double>(metrics.CounterValue(
      flexos::obs::SchedVCpuMetricName(0, flexos::obs::kVCpuIdleCycles)));
  out["hw.wrpkru"] += static_cast<double>(machine.stats().wrpkru_count);
  out["hw.vmexits"] += static_cast<double>(machine.stats().vmexit_count);
  out["link.frames_dropped"] +=
      static_cast<double>(bed.link().stats().frames_dropped);
}

}  // namespace

RoundResult RunRound(const RoundSpec& spec, const RoundOptions& options) {
  RoundResult result;
  SpanRecorder* spans = options.spans;
  const int64_t round_start = NowNs();
  ScopedSpan round_span(spans, Layer::kRound);

  std::unique_ptr<flexos::Testbed> bed;
  uint64_t attrib_epoch = 0;
  {
    ScopedSpan span(spans, Layer::kBoot);
    bed = std::make_unique<flexos::Testbed>(spec.config);
    attrib_epoch = bed->machine().clock().cycles();
  }
  flexos::Machine& machine = bed->machine();

  // Connection objects. Declared so that teardown can destroy them, in
  // reverse dependency order, before the Testbed that owns the link.
  flexos::IperfServerResult iperf_server;
  flexos::RedisServerResult redis_server;
  std::unique_ptr<flexos::IperfRemoteClient> iperf_client;
  std::vector<std::unique_ptr<flexos::RedisRemoteClient>> redis_clients;
  std::vector<std::unique_ptr<ClientApp>> apps;
  std::vector<std::unique_ptr<flexos::RemoteTcpPeer>> peers;
  std::unique_ptr<flexos::RemoteHub> hub;
  std::unique_ptr<TimingEndpoint> side_a;
  std::unique_ptr<TimingEndpoint> side_b;
  uint32_t next_request_id = 0;
  {
    ScopedSpan span(spans, Layer::kConnect);
    flexos::LinkEndpoint* remote = nullptr;
    if (spec.iperf_bytes > 0) {
      flexos::IperfServerOptions server_options;
      server_options.recv_buffer_bytes = spec.recv_buffer;
      flexos::SpawnIperfServer(*bed, server_options, &iperf_server);
      iperf_client =
          std::make_unique<flexos::IperfRemoteClient>(spec.iperf_bytes);
      apps.push_back(std::make_unique<ClientApp>(
          *iperf_client, machine, nullptr, 0, spans, &next_request_id,
          nullptr, nullptr));
      peers.push_back(std::make_unique<flexos::RemoteTcpPeer>(
          machine, bed->link(), flexos::RemoteTcpConfig{}, *apps.back(),
          /*attach=*/false));
      remote = peers.back().get();
    } else {
      flexos::RedisServerOptions server_options;
      server_options.max_conns = static_cast<int>(spec.redis.size());
      flexos::SpawnRedisServer(*bed, server_options, &redis_server);
      hub = std::make_unique<flexos::RemoteHub>(bed->link());
      for (size_t i = 0; i < spec.redis.size(); ++i) {
        redis_clients.push_back(std::make_unique<flexos::RedisRemoteClient>(
            machine, spec.redis[i]));
        apps.push_back(std::make_unique<ClientApp>(
            *redis_clients.back(), machine, redis_clients.back().get(),
            spec.redis[i].warmup_sets, spans, &next_request_id,
            &result.latency_cycles, options.completion_host_ns));
        flexos::RemoteTcpConfig peer_config;
        peer_config.server_port = server_options.port;
        peer_config.local_port = static_cast<flexos::Port>(40000 + i);
        peers.push_back(std::make_unique<flexos::RemoteTcpPeer>(
            machine, bed->link(), peer_config, *apps.back(),
            /*attach=*/false));
        hub->Register(peers.back().get());
      }
      remote = hub.get();
    }
    if (spans != nullptr) {
      side_a = std::make_unique<TimingEndpoint>(bed->nic(), *spans,
                                                Layer::kNicRx);
      side_b = std::make_unique<TimingEndpoint>(*remote, *spans,
                                                Layer::kLoadgenRx);
      bed->link().AttachA(side_a.get());
      bed->link().AttachB(side_b.get());
    } else {
      bed->link().AttachB(remote);
    }
    for (const auto& peer : peers) {
      bed->AddPeer(peer.get());
      peer->Connect();
    }
  }
  result.setup_s = static_cast<double>(NowNs() - round_start) * 1e-9;

  flexos::Status status;
  {
    ScopedSpan span(spans, Layer::kRun);
    const int64_t run_start = NowNs();
    status = bed->Run();
    result.run_s = static_cast<double>(NowNs() - run_start) * 1e-9;
  }
  result.rss_mb = ResidentMb();

  // --- Outputs, checks and counters ---------------------------------------
  Check(result, status.ok(), "Testbed::Run: " + status.ToString());
  result.freq_hz = machine.clock().freq_hz();
  result.tcp_bytes_rx =
      machine.metrics().CounterValue(flexos::obs::kMetricTcpBytesRx);
  if (spec.iperf_bytes > 0) {
    result.iperf_bytes = iperf_server.bytes_received;
    result.iperf_cycles = machine.clock().cycles();
    result.app_requests = iperf_server.recv_calls;
    // One transfer: every byte sent arrives, and the guest's TCP counter
    // agrees with the app-level count.
    Check(result,
          iperf_server.bytes_received == spec.iperf_bytes &&
              result.tcp_bytes_rx == spec.iperf_bytes &&
              iperf_client->remaining() == 0,
          flexos::StrFormat(
              "iperf: server received %llu B, sent %llu B, tcp.bytes_rx %llu",
              static_cast<unsigned long long>(iperf_server.bytes_received),
              static_cast<unsigned long long>(spec.iperf_bytes),
              static_cast<unsigned long long>(result.tcp_bytes_rx)));
  } else {
    uint64_t min_start = UINT64_MAX;
    uint64_t max_end = 0;
    uint64_t measured_expected = 0;
    for (size_t i = 0; i < redis_clients.size(); ++i) {
      const flexos::RedisRemoteClient& client = *redis_clients[i];
      const flexos::RedisWorkload& workload = spec.redis[i];
      const uint64_t issued = workload.warmup_sets + workload.measured_ops;
      const uint64_t completed = client.completed_ops();
      // Every request is one operation; errors and requests that never
      // completed are its failures.
      result.attempted += issued;
      const uint64_t missing = completed < issued ? issued - completed : 0;
      result.failed += client.errors() + missing;
      if (client.errors() + missing > 0) {
        result.failures.push_back(flexos::StrFormat(
            "redis conn %zu: %llu errors, %llu/%llu completed", i,
            static_cast<unsigned long long>(client.errors()),
            static_cast<unsigned long long>(completed),
            static_cast<unsigned long long>(issued)));
      }
      result.app_requests += completed;
      result.redis_ops += client.measured_completed();
      measured_expected += workload.measured_ops;
      if (client.measure_start_cycles() != 0) {
        min_start = std::min(min_start, client.measure_start_cycles());
      }
      max_end = std::max(max_end, client.measure_end_cycles());
    }
    result.redis_window_cycles = max_end > min_start ? max_end - min_start : 0;
    Check(result, result.latency_cycles.size() == measured_expected,
          "redis: latency samples do not match measured requests");
  }

  if (spec.config.profile) {
    machine.SyncAttribution();
    const flexos::obs::Attributor& attrib = machine.attrib();
    // Conservation: every cycle since the attributor was enabled at boot
    // is attributed to exactly one frame.
    Check(result,
          attrib.attributed_cycles() == machine.clock().cycles() - attrib_epoch,
          flexos::StrFormat(
              "attributor conservation: %llu attributed, %llu elapsed",
              static_cast<unsigned long long>(attrib.attributed_cycles()),
              static_cast<unsigned long long>(machine.clock().cycles() -
                                              attrib_epoch)));
    for (const auto& [comp, cycles] : attrib.CompartmentCycles()) {
      result.counters["attrib.comp_cycles." +
                      flexos::obs::CompartmentLabel(comp)] +=
          static_cast<double>(cycles);
    }
    for (const auto& [backend, cycles] : attrib.BackendGateCycles()) {
      result.counters["attrib.gate_cycles." + backend] +=
          static_cast<double>(cycles);
    }
  }
  if (machine.timeseries().enabled()) {
    machine.timeseries().FinalizeTail(machine.max_cycles());
    result.counters["timeseries.windows"] +=
        static_cast<double>(machine.timeseries().windows_captured());
  }
  SnapshotCounters(*bed, result);
  for (const auto& peer : peers) {
    result.counters["loadgen.segments_tx"] +=
        static_cast<double>(peer->stats().segments_tx);
    result.counters["loadgen.retransmits"] +=
        static_cast<double>(peer->stats().retransmits);
  }
  if (side_b != nullptr) {
    result.counters["loadgen.frames"] += static_cast<double>(side_b->frames());
  }

  {
    ScopedSpan span(spans, Layer::kTeardown);
    peers.clear();
    hub.reset();
    apps.clear();
    redis_clients.clear();
    iperf_client.reset();
    bed.reset();
    side_a.reset();
    side_b.reset();
  }
  result.round_s = static_cast<double>(NowNs() - round_start) * 1e-9;
  return result;
}

uint64_t ProbeImage(const RoundSpec& spec, SpanRecorder* spans) {
  flexos::Machine machine(flexos::Clock::kDefaultFreqHz, spec.config.costs);
  std::unique_ptr<flexos::Image> image;
  {
    ScopedSpan span(spans, Layer::kImageBuild);
    flexos::Result<std::unique_ptr<flexos::Image>> built =
        flexos::ImageBuilder(machine).Build(spec.config.image);
    FLEXOS_CHECK(built.ok(), "image build failed: %s",
                 built.status().ToString().c_str());
    image = std::move(built).value();
  }
  std::set<const flexos::AddressSpace*> seen;
  uint64_t mapped = 0;
  for (int c = 0; c < image->compartment_count(); ++c) {
    const flexos::AddressSpace* space = image->compartment(c).space;
    if (space == nullptr || !seen.insert(space).second) {
      continue;
    }
    for (flexos::Gaddr addr = 0; addr < space->size_bytes();
         addr += flexos::kPageSize) {
      mapped += space->IsMapped(addr) ? 1 : 0;
    }
  }
  return mapped;
}

namespace {

std::string Exact(double value) { return flexos::StrFormat("%.17g", value); }

// Nearest-rank percentile of sorted samples.
uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  const size_t rank = static_cast<size_t>(
      std::max<double>(1.0, std::ceil(p / 100.0 * sorted.size())));
  return sorted[std::min(rank, sorted.size()) - 1];
}

}  // namespace

Modeled SummarizeModeled(const std::vector<RoundResult>& pass) {
  uint64_t iperf_bytes = 0;
  uint64_t iperf_cycles = 0;
  uint64_t redis_ops = 0;
  uint64_t redis_cycles = 0;
  uint64_t freq_hz = 0;
  std::vector<uint64_t> latency;
  for (const RoundResult& round : pass) {
    iperf_bytes += round.iperf_bytes;
    iperf_cycles += round.iperf_cycles;
    redis_ops += round.redis_ops;
    redis_cycles += round.redis_window_cycles;
    freq_hz = round.freq_hz;
    latency.insert(latency.end(), round.latency_cycles.begin(),
                   round.latency_cycles.end());
  }
  Modeled modeled;
  const double hz = static_cast<double>(freq_hz);
  if (iperf_cycles > 0) {
    modeled.emplace_back(
        "modeled_gbps",
        Exact(static_cast<double>(iperf_bytes) * 8.0 /
              (static_cast<double>(iperf_cycles) / hz) / 1e9));
  }
  if (redis_cycles > 0) {
    modeled.emplace_back(
        "modeled_kreq_s",
        Exact(static_cast<double>(redis_ops) /
              (static_cast<double>(redis_cycles) / hz) / 1e3));
  }
  if (!latency.empty()) {
    std::sort(latency.begin(), latency.end());
    const auto us = [hz](uint64_t cycles) {
      return Exact(static_cast<double>(cycles) * 1e6 / hz);
    };
    modeled.emplace_back("modeled_req_p50_us", us(Percentile(latency, 50)));
    modeled.emplace_back("modeled_req_p99_us", us(Percentile(latency, 99)));
    modeled.emplace_back("modeled_req_samples",
                         flexos::StrFormat("%zu", latency.size()));
  }
  return modeled;
}

}  // namespace perfbench

// Outside-in host-time tracing for the benchmark. Spans are recorded only
// from the benchmark's own code, around the calls it makes into the
// simulator's public API: the Testbed constructor, Run and destructor,
// ImageBuilder::Build, and the link-side and remote-app callbacks the
// simulator makes back into wrappers defined here. Nothing under src/
// knows about them.
#ifndef FLEXOS_PERFBENCH_SPANS_H_
#define FLEXOS_PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/redis_client.h"
#include "net/link.h"
#include "net/remote_tcp.h"

namespace perfbench {

// The layer a span times. Order is the report order.
enum class Layer : uint8_t {
  kRound,        // One simulated run: boot, connect, run, collect, teardown.
  kBoot,         // Testbed constructor.
  kConnect,      // Server spawn, client objects, peer Connect().
  kRun,          // Testbed::Run.
  kLoadgenRx,    // Side-B DeliverFrame into the remote peer or hub.
  kLoadgenApp,   // RemoteApp ProduceData / OnReceive.
  kNicRx,        // Side-A DeliverFrame into the guest NIC.
  kTeardown,     // Peers, clients and Testbed destructors.
  kImageBuild,   // ImageBuilder::Build on a fresh Machine (boot probe).
};
inline constexpr int kLayerCount = 9;

const char* LayerName(Layer layer);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer = Layer::kRound;
  int32_t parent = -1;   // Index into the recorder's span list; -1 = root.
  uint32_t request = 0;  // Redis request id (0 = none).
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span recorder. Single-threaded like the simulator: spans nest
// strictly, so the open-span stack gives each span its parent.
class SpanRecorder {
 public:
  int Begin(Layer layer, uint32_t request = 0);
  void End(int index);

  void Clear() { spans_.clear(); }

  // Per-layer self time in seconds: each span's duration minus the part
  // its direct children cover.
  std::array<double, kLayerCount> SelfSeconds() const;

  // Writes every span as CSV (index,name,parent,request,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for its lifetime; a no-op when the recorder is null
// (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer, uint32_t request = 0)
      : recorder_(recorder),
        index_(recorder == nullptr ? -1 : recorder->Begin(layer, request)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// Sits on one side of the Link in place of the real endpoint and times
// every frame delivery into it.
class TimingEndpoint final : public flexos::LinkEndpoint {
 public:
  TimingEndpoint(flexos::LinkEndpoint& inner, SpanRecorder& recorder,
                 Layer layer)
      : inner_(inner), recorder_(recorder), layer_(layer) {}

  void DeliverFrame(std::vector<uint8_t> frame) override {
    ++frames_;
    ScopedSpan span(&recorder_, layer_);
    inner_.DeliverFrame(std::move(frame));
  }

  uint64_t frames() const { return frames_; }

 private:
  flexos::LinkEndpoint& inner_;
  SpanRecorder& recorder_;
  Layer layer_;
  uint64_t frames_ = 0;
};

// Wraps one connection's client app. It times the app callbacks when a
// recorder is given, and for Redis clients it stamps each request's modeled
// latency from outside: from the virtual cycle its first byte is handed to
// the peer to the cycle its reply completes (one request in flight per
// connection, the closed loop's pipeline depth of 1).
class ClientApp final : public flexos::RemoteApp {
 public:
  // `redis` is the wrapped app when it is a Redis client, else null.
  // Requests at index < `skip` (warm-up SETs) are not sampled.
  ClientApp(flexos::RemoteApp& inner, flexos::Machine& machine,
            const flexos::RedisRemoteClient* redis, uint64_t skip,
            SpanRecorder* recorder, uint32_t* next_request_id,
            std::vector<uint64_t>* latency_cycles,
            std::vector<int64_t>* completion_host_ns);

  void OnConnected() override { inner_.OnConnected(); }
  size_t ProduceData(uint8_t* out, size_t max) override;
  bool Finished() const override { return inner_.Finished(); }
  void OnReceive(const uint8_t* data, size_t len) override;
  void OnClosed() override { inner_.OnClosed(); }

 private:
  flexos::RemoteApp& inner_;
  flexos::Machine& machine_;
  const flexos::RedisRemoteClient* redis_;
  uint64_t skip_;
  SpanRecorder* recorder_;
  uint32_t* next_request_id_;
  std::vector<uint64_t>* latency_cycles_;
  std::vector<int64_t>* completion_host_ns_;

  bool outstanding_ = false;
  uint32_t request_id_ = 0;
  uint64_t issued_at_cycles_ = 0;
};

}  // namespace perfbench

#endif  // FLEXOS_PERFBENCH_SPANS_H_

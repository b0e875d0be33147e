#include "spans.h"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRound:
      return "round";
    case Layer::kBoot:
      return "testbed.boot";
    case Layer::kConnect:
      return "testbed.connect";
    case Layer::kRun:
      return "testbed.run";
    case Layer::kLoadgenRx:
      return "loadgen.rx";
    case Layer::kLoadgenApp:
      return "loadgen.app";
    case Layer::kNicRx:
      return "nic.rx";
    case Layer::kTeardown:
      return "testbed.teardown";
    case Layer::kImageBuild:
      return "core.image_build";
  }
  return "?";
}

int SpanRecorder::Begin(Layer layer, uint32_t request) {
  const int index = static_cast<int>(spans_.size());
  Span span;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::array<double, kLayerCount> SpanRecorder::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::array<double, kLayerCount> self{};
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[static_cast<size_t>(span.layer)] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "index,name,parent,request,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%zu,%s,%d,%u,%lld,%lld\n", i, LayerName(span.layer),
                 span.parent, span.request,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

ClientApp::ClientApp(flexos::RemoteApp& inner, flexos::Machine& machine,
                     const flexos::RedisRemoteClient* redis, uint64_t skip,
                     SpanRecorder* recorder, uint32_t* next_request_id,
                     std::vector<uint64_t>* latency_cycles,
                     std::vector<int64_t>* completion_host_ns)
    : inner_(inner),
      machine_(machine),
      redis_(redis),
      skip_(skip),
      recorder_(recorder),
      next_request_id_(next_request_id),
      latency_cycles_(latency_cycles),
      completion_host_ns_(completion_host_ns) {}

size_t ClientApp::ProduceData(uint8_t* out, size_t max) {
  const bool starts_request = redis_ != nullptr && !outstanding_;
  const uint32_t id = starts_request ? *next_request_id_ + 1 : request_id_;
  size_t produced = 0;
  {
    ScopedSpan span(recorder_, Layer::kLoadgenApp, id);
    produced = inner_.ProduceData(out, max);
  }
  if (starts_request && produced > 0) {
    outstanding_ = true;
    request_id_ = ++*next_request_id_;
    issued_at_cycles_ = machine_.clock().cycles();
  }
  return produced;
}

void ClientApp::OnReceive(const uint8_t* data, size_t len) {
  const uint64_t before = redis_ == nullptr ? 0 : redis_->completed_ops();
  {
    ScopedSpan span(recorder_, Layer::kLoadgenApp, request_id_);
    inner_.OnReceive(data, len);
  }
  if (redis_ == nullptr) {
    return;
  }
  const uint64_t after = redis_->completed_ops();
  if (after == before) {
    return;
  }
  // One request in flight per connection: a completion closes it.
  outstanding_ = false;
  const uint64_t now = machine_.clock().cycles();
  for (uint64_t index = before; index < after; ++index) {
    if (index >= skip_ && latency_cycles_ != nullptr) {
      latency_cycles_->push_back(now - issued_at_cycles_);
    }
    if (completion_host_ns_ != nullptr) {
      completion_host_ns_->push_back(NowNs());
    }
  }
}

}  // namespace perfbench

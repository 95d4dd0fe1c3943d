#include "lxbench/src/spans.h"

#include <cstdio>

namespace lxbench {

Tracer* g_tracer = nullptr;

namespace {

struct NameInfo {
  const char* metric;
  const char* layer;
};

constexpr NameInfo kNames[kSpanNameCount] = {
    {"bench.op", "bench"},
    {"bench.event", "bench"},
    {"vfs.open", "vfs"},
    {"vfs.close", "vfs"},
    {"vfs.read", "vfs"},
    {"vfs.write", "vfs"},
    {"vfs.seek", "vfs"},
    {"vfs.stat", "vfs"},
    {"vfs.unlink", "vfs"},
    {"vfs.rename", "vfs"},
    {"vfs.fsync", "vfs"},
    {"vfs.mount", "vfs"},
    {"vfs.unmount", "vfs"},
    {"net.alloc_skb", "net"},
    {"net.xmit", "net"},
    {"net.tx_clean", "net"},
    {"net.rx_irq", "net"},
    {"net.softirq", "net"},
    {"module.load", "module"},
    {"module.unload", "module"},
    {"containment.trip", "containment"},
    {"containment.reboot", "containment"},
    {"trace.drain", "trace"},
};

}  // namespace

const char* SpanMetricName(SpanName name) { return kNames[name].metric; }
const char* SpanLayer(SpanName name) { return kNames[name].layer; }

int Tracer::Begin(SpanName name) {
  if (depth_ == kMaxDepth) {
    return -1;  // deeper than any call path here; left untraced
  }
  int depth = depth_++;
  Open& open = stack_[depth];
  open.name = name;
  open.child_ns = 0;
  if (depth == 0) {
    root_kind_ = name == kEvent ? 1 : 0;
    ++next_op_;
  }
  open.stored_id = -1;
  if (stored_.size() < kStoredSpans) {
    open.stored_id = static_cast<int64_t>(stored_.size());
    int64_t parent = depth == 0 ? -1 : stack_[depth - 1].stored_id;
    stored_.push_back(Record{parent, next_op_ - 1, 0, 0, name});
  }
  open.start = NowNs();
  return depth;
}

void Tracer::End(int depth) {
  uint64_t end = NowNs();
  Open& open = stack_[depth];
  uint64_t dur = end - open.start;
  Agg& a = agg_[root_kind_][open.name];
  ++a.calls;
  a.total_ns += dur;
  a.self_ns += dur > open.child_ns ? dur - open.child_ns : 0;
  if (depth > 0) {
    stack_[depth - 1].child_ns += dur;
  }
  if (open.stored_id >= 0) {
    Record& r = stored_[static_cast<size_t>(open.stored_id)];
    r.start = open.start;
    r.end = end;
  }
  depth_ = depth;
}

bool Tracer::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# id parent op name start_ns end_ns\n");
  for (size_t i = 0; i < stored_.size(); ++i) {
    const Record& r = stored_[i];
    std::fprintf(f, "%zu %lld %llu %s %llu %llu\n", i, static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.op), SpanMetricName(r.name),
                 static_cast<unsigned long long>(r.start), static_cast<unsigned long long>(r.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace lxbench

// Benchmark-side spans around calls into the system's public functions.
//
// A span has a name, a start and end time, the span that encloses it and
// the id of the op it belongs to. Every op is one root span (kOp); side
// events (trace drains, filter cycles, rogue injections) are root spans of
// their own (kEvent). While a Tracer is installed, spans are aggregated as
// they close: per name, the call count, inclusive time and self time (the
// span minus the part of it its child spans cover), kept separately for
// op-rooted and event-rooted spans. The first kStoredSpans spans are also
// kept in memory as records and written out when the run ends.
//
// With no Tracer installed a Span costs one predictable branch; the
// untraced run that measures the end-to-end metrics installs none.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lxbench/src/measure.h"

namespace lxbench {

enum SpanName : uint16_t {
  kOp = 0,
  kEvent,
  kVfsOpen,
  kVfsClose,
  kVfsRead,
  kVfsWrite,
  kVfsSeek,
  kVfsStat,
  kVfsUnlink,
  kVfsRename,
  kVfsFsync,
  kVfsMount,
  kVfsUnmount,
  kNetAllocSkb,
  kNetXmit,
  kNetTxClean,
  kNetRxIrq,
  kNetSoftirq,
  kModuleLoad,
  kModuleUnload,
  kContainmentTrip,
  kContainmentReboot,
  kTraceDrain,
  kSpanNameCount,
};

// Metric-style name ("vfs.stat") and owning layer ("vfs") of a span name.
const char* SpanMetricName(SpanName name);
const char* SpanLayer(SpanName name);

class Tracer {
 public:
  static constexpr size_t kStoredSpans = 200'000;
  static constexpr int kMaxDepth = 16;

  struct Agg {
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  Tracer() { stored_.reserve(kStoredSpans); }

  // Root kind: 0 = op-rooted, 1 = event-rooted.
  const Agg& agg(int root, SpanName name) const { return agg_[root][name]; }

  int Begin(SpanName name);
  void End(int depth);

  // Writes the stored span records, one per line:
  // "id parent op name start_ns end_ns" (parent -1 for a root).
  bool WriteSpans(const std::string& path) const;
  size_t stored() const { return stored_.size(); }

 private:
  struct Open {
    SpanName name;
    uint64_t start;
    uint64_t child_ns;
    int64_t stored_id;
  };
  struct Record {
    int64_t parent;
    uint64_t op;
    uint64_t start;
    uint64_t end;
    SpanName name;
  };

  Open stack_[kMaxDepth];
  int depth_ = 0;
  int root_kind_ = 0;
  uint64_t next_op_ = 0;
  Agg agg_[2][kSpanNameCount];
  std::vector<Record> stored_;
};

// The installed tracer, or null (untraced).
extern Tracer* g_tracer;

class Span {
 public:
  explicit Span(SpanName name) : depth_(g_tracer != nullptr ? g_tracer->Begin(name) : -1) {}
  ~Span() {
    if (depth_ >= 0) {
      g_tracer->End(depth_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int depth_;
};

// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto Traced(SpanName name, Fn&& fn) {
  Span span(name);
  return fn();
}

}  // namespace lxbench

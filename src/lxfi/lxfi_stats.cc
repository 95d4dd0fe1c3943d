#include "src/lxfi/lxfi_stats.h"

#include <algorithm>

#include "src/base/string_util.h"
#include "src/lxfi/principal.h"
#include "src/lxfi/runtime.h"

namespace lxfi {

std::vector<LxfiStats::PrincipalMetrics> LxfiStats::Collect(const Runtime& rt) {
  std::vector<PrincipalMetrics> out;
  rt.VisitPrincipals([&out](Principal* p) {
    PrincipalMetrics m;
    m.name = p->DebugName();
    m.id = p->trace_id();
    for (int shard = 0; shard < kMaxCpuShards; ++shard) {
      // const_cast-free: ctx(shard) is the non-const accessor, but the walk
      // only reads RelaxedCells (race-free single-writer counters).
      EnforcementContext& ec = p->ctx(shard);
      m.crossings += ec.crossings.value();
      m.crossing_ns += ec.crossing_ns.value();
      for (size_t b = 0; b < EnforcementContext::kCrossingHistBuckets; ++b) {
        m.hist[b] += ec.crossing_hist[b].value();
      }
      m.write_checks += ec.write_checks.value();
      m.write_memo_hits += ec.write_memo_hits.value();
      m.arena_span_hits += ec.arena_span_hits.value();
      m.call_checks += ec.call_checks.value();
      m.call_memo_hits += ec.call_memo_hits.value();
      m.pre_checks += ec.pre_checks.value();
      m.pre_memo_hits += ec.pre_memo_hits.value();
      m.arena_fallbacks += ec.arena_fallbacks.value();
      m.memo_invalidations += ec.memo_invalidations.value();
    }
    out.push_back(std::move(m));
  });
  // Deterministic order for golden output and stable JSON artifacts.
  std::sort(out.begin(), out.end(),
            [](const PrincipalMetrics& a, const PrincipalMetrics& b) { return a.name < b.name; });
  return out;
}

namespace {

// Minimal JSON string escape (principal names are module names + hex, but
// stay safe against anything a test throws at them).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

void AppendField(std::string* out, const char* key, uint64_t value, bool* first) {
  *out += StrFormat("%s\"%s\": %llu", *first ? "" : ", ", key,
                    static_cast<unsigned long long>(value));
  *first = false;
}

}  // namespace

std::string LxfiStats::DumpJson(const Runtime& rt, const std::string& tag) {
  // Same shape as bench/json_out.h ({"bench": ..., "results": [rows]}) so
  // --stats artifacts merge into bench_results.json beside throughput rows.
  std::string out = StrFormat("{\n  \"bench\": \"%s\",\n  \"results\": [", JsonEscape(tag).c_str());
  bool first_row = true;
  auto open_row = [&out, &first_row](const std::string& name) {
    out += StrFormat("%s\n    {\"name\": \"%s\"", first_row ? "" : ",",
                     JsonEscape(name).c_str());
    first_row = false;
  };
  for (const PrincipalMetrics& m : Collect(rt)) {
    open_row("principal:" + m.name);
    bool first = false;  // "name" already emitted
    AppendField(&out, "id", m.id, &first);
    AppendField(&out, "crossings", m.crossings, &first);
    AppendField(&out, "crossing_ns", m.crossing_ns, &first);
    AppendField(&out, "write_checks", m.write_checks, &first);
    AppendField(&out, "write_memo_hits", m.write_memo_hits, &first);
    AppendField(&out, "arena_span_hits", m.arena_span_hits, &first);
    AppendField(&out, "call_checks", m.call_checks, &first);
    AppendField(&out, "call_memo_hits", m.call_memo_hits, &first);
    AppendField(&out, "pre_checks", m.pre_checks, &first);
    AppendField(&out, "pre_memo_hits", m.pre_memo_hits, &first);
    AppendField(&out, "arena_fallbacks", m.arena_fallbacks, &first);
    AppendField(&out, "memo_invalidations", m.memo_invalidations, &first);
    for (size_t b = 0; b < EnforcementContext::kCrossingHistBuckets; ++b) {
      if (m.hist[b] != 0) {
        AppendField(&out, StrFormat("hist_2e%zu_ns", b).c_str(), m.hist[b], &first);
      }
    }
    out += "}";
  }
  // One row per registered counter set: "pagecache.hits" lands in the
  // "pagecache" row as "hits". The snapshot is sorted, so a row's counters
  // are adjacent.
  std::string row;
  for (const auto& [name, value] : rt.kernel()->counters().Snapshot()) {
    size_t dot = name.find('.');
    if (name.compare(0, dot, row) != 0) {
      out += row.empty() ? "" : "}";
      row = name.substr(0, dot);
      open_row(row);
    }
    bool first = false;  // "name" already emitted
    AppendField(&out, name.c_str() + dot + 1, value, &first);
  }
  out += row.empty() ? "" : "}";
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace lxfi

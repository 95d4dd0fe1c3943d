// Per-CPU counters and the named registry every counter owner joins.
//
// PerCpuCounters<Enum>: each simulated CPU (ThisShardIndex()) bumps its own
// cache-line-aligned row of RelaxedCells, so Count() is a TLS load plus a
// plain increment; count() sums the rows (race-free, not linearizable: read
// after a CpuSet barrier or a join for exact totals). `Enum` ends in kCount
// and has a name table `CounterName(Enum)`, found by argument-dependent lookup.
//
// CounterRegistry: an owner registers its sets under a prefix when built and
// unregisters first thing when it dies; Snapshot() returns "prefix.name" ->
// value for every live set, summing same-named sets. Cold path only.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/compiler.h"
#include "src/base/sync.h"

namespace lxfi {

template <typename Enum, size_t N>
const char* CounterNameIn(Enum e, const char* const (&names)[N]) {
  static_assert(N == static_cast<size_t>(Enum::kCount), "one name per counter");
  return names[static_cast<size_t>(e)];
}

template <typename Enum>
class PerCpuCounters {
 public:
  static constexpr size_t kSize = static_cast<size_t>(Enum::kCount);

  void Count(Enum e) { ++Local(e); }
  void Add(Enum e, uint64_t n) { Local(e).Add(n); }
  // The calling CPU's cell, for code that hands a counter to a callee.
  RelaxedCell& Local(Enum e) { return shards_[ThisShardIndex()][static_cast<size_t>(e)]; }
  uint64_t count(Enum e) const {
    uint64_t total = 0;
    for (const Row& row : shards_) {
      total += row[static_cast<size_t>(e)].value();
    }
    return total;
  }

 private:
  struct alignas(kCacheLineSize) Row : std::array<RelaxedCell, kSize> {};
  std::array<Row, kMaxCpuShards> shards_;
};

class CounterRegistry {
 public:
  using Sink = std::function<void(const char* name, uint64_t value)>;
  using Source = std::function<void(const Sink&)>;

  void Register(const void* owner, std::string prefix, Source source) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(Entry{owner, std::move(prefix), std::move(source)});
  }
  template <typename Enum>
  void Register(const void* owner, std::string prefix, const PerCpuCounters<Enum>* counters) {
    Register(owner, std::move(prefix), [counters](const Sink& sink) {
      for (size_t i = 0; i < PerCpuCounters<Enum>::kSize; ++i) {
        sink(CounterName(static_cast<Enum>(i)), counters->count(static_cast<Enum>(i)));
      }
    });
  }
  void Unregister(const void* owner) {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(entries_, [owner](const Entry& e) { return e.owner == owner; });
  }

  // Sources run under the lock, so an unregistering owner waits out a
  // running snapshot and none reads it dead.
  std::map<std::string, uint64_t> Snapshot() const {
    std::map<std::string, uint64_t> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      e.source([&](const char* name, uint64_t value) { out[e.prefix + "." + name] += value; });
    }
    return out;
  }

 private:
  struct Entry {
    const void* owner;
    std::string prefix;
    Source source;
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace lxfi

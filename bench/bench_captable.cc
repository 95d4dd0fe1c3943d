// Ablation (§5, DESIGN.md): WRITE-capability lookup — LXFI's paged hash
// buckets vs a balanced-tree interval map, and flat (open-addressing,
// src/base/flat_table.h) vs the node-based std::unordered_map layout the
// seed shipped. The paper argues the hash wins for the ≤page-sized objects
// kernel modules manipulate because lookups are O(1) instead of O(log n);
// the flat-vs-std rows show the same O(1) probe is then memory-layout-bound.
//
// Side-by-side ablation rows (benchmark output):
//   BM_CapTableFlatCheck  vs  BM_CapTableStdCheck  vs  BM_CapTableTreeCheck
//   BM_CallSetFlatCheck   vs  BM_CallSetStdCheck
//   BM_CapTableFlatGrantRevoke vs BM_CapTableStdGrantRevoke
#include <benchmark/benchmark.h>

#include <map>
#include <vector>
#include <unordered_set>

#include "bench/gbench_json.h"
#include "bench/std_baseline.h"
#include "src/base/rng.h"
#include "src/lxfi/cap_table.h"

namespace {

// The comparator: an ordered interval map (addr -> size), the structure the
// paper says it deliberately avoided.
class TreeIntervalTable {
 public:
  void Grant(uintptr_t addr, size_t size) { ranges_[addr] = size; }

  bool Check(uintptr_t addr, size_t size) const {
    auto it = ranges_.upper_bound(addr);
    if (it == ranges_.begin()) {
      return false;
    }
    --it;
    return it->first <= addr && addr + size <= it->first + it->second;
  }

 private:
  std::map<uintptr_t, size_t> ranges_;
};

constexpr int kObjects = 4096;
constexpr uintptr_t kBase = 0x100000000ull;

// Object sizes mimic slab classes (most << 1 page).
size_t ObjectSize(int i) {
  static constexpr size_t kSizes[] = {32, 64, 128, 256, 512, 1024, 2048};
  return kSizes[i % 7];
}

uintptr_t ObjectAddr(int i) { return kBase + static_cast<uintptr_t>(i) * 4096; }

// Precomputed random probe stream, shared by every lookup row so the timed
// loop is the table probe itself, not query generation. Lookup rows process
// kBatch independent probes per iteration — the shape of a real guard burst
// (a module initializing a struct issues a run of store checks back to
// back), and it amortizes the harness loop so the rows compare container
// throughput, not loop overhead. Reported time is per batch of 16.
constexpr size_t kBatch = 16;

const std::vector<uintptr_t>& QueryAddrs() {
  static const std::vector<uintptr_t> addrs = [] {
    std::vector<uintptr_t> v(1 << 16);
    lxfi::Rng rng(42);
    for (uintptr_t& a : v) {
      a = ObjectAddr(static_cast<int>(rng.Below(kObjects))) + 8;
    }
    return v;
  }();
  return addrs;
}

// --- hot-path lookup: flat vs std vs tree -----------------------------------

void BM_CapTableFlatCheck(benchmark::State& state) {
  lxfi::CapTable table;
  for (int i = 0; i < kObjects; ++i) {
    table.GrantWrite(ObjectAddr(i), ObjectSize(i));
  }
  const std::vector<uintptr_t>& queries = QueryAddrs();
  size_t q = 0;
  for (auto _ : state) {
    bool hit = false;
    for (size_t k = 0; k < kBatch; ++k) {
      hit |= table.CheckWrite(queries[q + k], 8);
    }
    benchmark::DoNotOptimize(hit);
    q = (q + kBatch) & (queries.size() - 1);
  }
}
BENCHMARK(BM_CapTableFlatCheck);

void BM_CapTableStdCheck(benchmark::State& state) {
  bench::StdCapTable table;
  for (int i = 0; i < kObjects; ++i) {
    table.GrantWrite(ObjectAddr(i), ObjectSize(i));
  }
  const std::vector<uintptr_t>& queries = QueryAddrs();
  size_t q = 0;
  for (auto _ : state) {
    bool hit = false;
    for (size_t k = 0; k < kBatch; ++k) {
      hit |= table.CheckWrite(queries[q + k], 8);
    }
    benchmark::DoNotOptimize(hit);
    q = (q + kBatch) & (queries.size() - 1);
  }
}
BENCHMARK(BM_CapTableStdCheck);

void BM_CapTableTreeCheck(benchmark::State& state) {
  TreeIntervalTable table;
  for (int i = 0; i < kObjects; ++i) {
    table.Grant(ObjectAddr(i), ObjectSize(i));
  }
  const std::vector<uintptr_t>& queries = QueryAddrs();
  size_t q = 0;
  for (auto _ : state) {
    bool hit = false;
    for (size_t k = 0; k < kBatch; ++k) {
      hit |= table.Check(queries[q + k], 8);
    }
    benchmark::DoNotOptimize(hit);
    q = (q + kBatch) & (queries.size() - 1);
  }
}
BENCHMARK(BM_CapTableTreeCheck);

// --- CALL-capability probe (kernel indirect-call slow path) -----------------

const std::vector<uintptr_t>& CallTargets() {
  static const std::vector<uintptr_t> targets = [] {
    std::vector<uintptr_t> v(1 << 16);
    lxfi::Rng rng(42);
    for (uintptr_t& t : v) {
      t = 0xffffffff81000000ull + rng.Below(kObjects) * 64;
    }
    return v;
  }();
  return targets;
}

void BM_CallSetFlatCheck(benchmark::State& state) {
  lxfi::CapTable table;
  for (int i = 0; i < kObjects; ++i) {
    table.GrantCall(0xffffffff81000000ull + static_cast<uintptr_t>(i) * 64);
  }
  const std::vector<uintptr_t>& targets = CallTargets();
  size_t q = 0;
  for (auto _ : state) {
    bool hit = false;
    for (size_t k = 0; k < kBatch; ++k) {
      hit |= table.CheckCall(targets[q + k]);
    }
    benchmark::DoNotOptimize(hit);
    q = (q + kBatch) & (targets.size() - 1);
  }
}
BENCHMARK(BM_CallSetFlatCheck);

void BM_CallSetStdCheck(benchmark::State& state) {
  bench::StdCapTable table;
  for (int i = 0; i < kObjects; ++i) {
    table.GrantCall(0xffffffff81000000ull + static_cast<uintptr_t>(i) * 64);
  }
  const std::vector<uintptr_t>& targets = CallTargets();
  size_t q = 0;
  for (auto _ : state) {
    bool hit = false;
    for (size_t k = 0; k < kBatch; ++k) {
      hit |= table.CheckCall(targets[q + k]);
    }
    benchmark::DoNotOptimize(hit);
    q = (q + kBatch) & (targets.size() - 1);
  }
}
BENCHMARK(BM_CallSetStdCheck);

// --- grant/revoke churn: flat vs std ----------------------------------------

void BM_CapTableFlatGrantRevoke(benchmark::State& state) {
  lxfi::CapTable table;
  lxfi::Rng rng(7);
  for (auto _ : state) {
    int i = static_cast<int>(rng.Below(kObjects));
    table.GrantWrite(ObjectAddr(i), ObjectSize(i));
    table.RevokeWriteOverlapping(ObjectAddr(i), ObjectSize(i));
  }
}
BENCHMARK(BM_CapTableFlatGrantRevoke);

void BM_CapTableStdGrantRevoke(benchmark::State& state) {
  bench::StdCapTable table;
  lxfi::Rng rng(7);
  for (auto _ : state) {
    int i = static_cast<int>(rng.Below(kObjects));
    table.GrantWrite(ObjectAddr(i), ObjectSize(i));
    table.RevokeWriteOverlapping(ObjectAddr(i), ObjectSize(i));
  }
}
BENCHMARK(BM_CapTableStdGrantRevoke);

// The degenerate case for the paged-hash layout: very large (multi-page)
// WRITE ranges must insert into every covered bucket. The paper accepts this
// because modules rarely own objects past a page.
void BM_CapTableHashGrantLarge(benchmark::State& state) {
  lxfi::CapTable table;
  size_t size = static_cast<size_t>(state.range(0)) * 4096;
  uintptr_t addr = kBase;
  for (auto _ : state) {
    table.GrantWrite(addr, size);
    table.RevokeWriteOverlapping(addr, size);
  }
}
BENCHMARK(BM_CapTableHashGrantLarge)->Arg(1)->Arg(16)->Arg(256);

}  // namespace

// Custom main: `--json FILE` mirrors every row into the shared bench schema
// (bench/gbench_json.h) alongside the normal google-benchmark output.
int main(int argc, char** argv) {
  return lxfibench::RunGbenchMain("bench_captable", argc, argv);
}

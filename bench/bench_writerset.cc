// Writer-set benchmarks (§4.1):
//  1. flat vs std page map: the Empty() probe every kernel indirect call
//     starts with, on the open-addressing WriterSet vs the node-based
//     std::unordered_map layout it replaced (bench/std_baseline.h).
//  2. unload teardown: per-object vs arena-span writer-set clears.
//  3. the fast-path elimination rate on the UDP_STREAM TX path: the share
//     of the kernel's indirect-call checks the empty-writer-set probe
//     settles without the full check.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/json_out.h"
#include "bench/std_baseline.h"
#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/eval/netperf.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/writer_set.h"

namespace {

// Probe-throughput ablation: same pages, same probe stream, flat vs std.
void RunEmptyProbeAblation(lxfibench::JsonWriter* json) {
  constexpr int kPages = 4096;
  constexpr uintptr_t kBase = 0x7f0000000000ull;
  constexpr uint64_t kProbes = 4u << 20;
  auto* writer = reinterpret_cast<lxfi::Principal*>(0x1000);

  lxfi::WriterSet flat;
  bench::StdWriterSet node;
  // One page in eight tracked (module-written); the rest are kernel-authored
  // and probe empty. That is the ratio the fast path exists for: §4.1's
  // point is that most function-pointer slots have no module writer.
  for (int i = 0; i < kPages; i += 8) {
    uintptr_t addr = kBase + static_cast<uintptr_t>(i) * 4096;
    flat.AddRange(writer, addr, 4096);
    node.AddRange(writer, addr, 4096);
  }
  std::vector<uintptr_t> probes(1 << 16);
  lxfi::Rng rng(42);
  for (uintptr_t& p : probes) {
    p = kBase + rng.Below(kPages) * 4096 + rng.Below(4096);
  }

  // 8 independent probes per round — the shape of a real interrupt burst
  // (several pending indirect calls), and it lets the memory system overlap
  // probes instead of timing a serial chain.
  auto run = [&](auto& ws) {
    uint64_t t0 = lxfi::MonotonicNowNs();
    uint64_t empties = 0;
    size_t q = 0;
    for (uint64_t n = 0; n < kProbes; n += 8) {
      uint64_t e = 0;
      for (int k = 0; k < 8; ++k) {
        e += ws.Empty(probes[q + k]);
      }
      empties += e;
      q = (q + 8) & (probes.size() - 1);
    }
    uint64_t elapsed = lxfi::MonotonicNowNs() - t0;
    return std::pair<double, uint64_t>(static_cast<double>(elapsed) / kProbes, empties);
  };
  // Warm both, then take the best of three measurements per config to damp
  // host scheduling noise, like any microbenchmark harness.
  auto best = [&](auto& ws) {
    auto result = run(ws);
    for (int rep = 0; rep < 2; ++rep) {
      auto again = run(ws);
      if (again.first < result.first) {
        result = again;
      }
    }
    return result;
  };
  run(flat);
  run(node);
  auto [flat_ns, flat_empties] = best(flat);
  auto [node_ns, node_empties] = best(node);

  std::printf("=== Ablation: page-map layout (Empty() probe, %d pages) ===\n", kPages);
  std::printf("%-22s %16s %16s\n", "config", "ns/probe", "empty hits");
  std::printf("%-22s %16.2f %16llu\n", "flat (open-addr)", flat_ns,
              static_cast<unsigned long long>(flat_empties));
  std::printf("%-22s %16.2f %16llu\n", "std::unordered_map", node_ns,
              static_cast<unsigned long long>(node_empties));
  std::printf("\nflat page map is %.2fx faster on the hot Empty() probe\n\n", node_ns / flat_ns);
  if (json != nullptr) {
    json->AddRow("empty_probe_flat").Set("ns_per_probe", flat_ns);
    json->AddRow("empty_probe_std").Set("ns_per_probe", node_ns);
  }
}

// Arena teardown ablation: clearing a dying module's write provenance from
// the writer set, per-object vs per-arena. Pre-partition unload walked every
// live allocation and issued one ClearRange per object (the kfree path) —
// and because clearing is page-granular-conservative, a sub-page object
// never covers a full page, so those 10k calls also leave every tracked
// page stale (costing a full check on each later indirect call that hits
// one). With partitioned heaps the whole arena slot is one contiguous span:
// unload issues a single arena-range ClearRange that is both faster and
// actually empties the pages.
void RunTeardownAblation(lxfibench::JsonWriter* json) {
  constexpr int kObjects = 10000;
  constexpr size_t kObjBytes = 64;
  constexpr uintptr_t kArenaLo = 0x7f5000000000ull;
  constexpr uintptr_t kArenaHi = kArenaLo + (1u << 20);
  auto* writer = reinterpret_cast<lxfi::Principal*>(0x1000);

  // The module wrote every one of its 10k live objects, packed in its arena
  // span the way the slot allocator lays them out.
  auto obj_addr = [](int i) { return kArenaLo + static_cast<uintptr_t>(i) * kObjBytes; };
  auto populate = [&](lxfi::WriterSet& ws) {
    for (int i = 0; i < kObjects; ++i) {
      ws.AddRange(writer, obj_addr(i), kObjBytes);
    }
  };

  lxfi::WriterSet per_object;
  populate(per_object);
  uint64_t t0 = lxfi::MonotonicNowNs();
  for (int i = 0; i < kObjects; ++i) {
    per_object.ClearRange(obj_addr(i), kObjBytes);
  }
  uint64_t per_object_ns = lxfi::MonotonicNowNs() - t0;

  lxfi::WriterSet per_arena;
  populate(per_arena);
  t0 = lxfi::MonotonicNowNs();
  per_arena.ClearRange(kArenaLo, kArenaHi - kArenaLo);
  uint64_t per_arena_ns = lxfi::MonotonicNowNs() - t0;

  // The arena-span clear must leave no stale provenance behind (the
  // per-object strategy demonstrably does — that is the stale_pages column).
  for (int i = 0; i < kObjects; i += 97) {
    if (!per_arena.Empty(obj_addr(i))) {
      std::fprintf(stderr, "FAILED: stale writer-set pages after arena teardown\n");
      std::exit(1);
    }
  }

  double ratio = per_arena_ns > 0 ? static_cast<double>(per_object_ns) / per_arena_ns : 0.0;
  std::printf("=== Ablation: unload teardown, %d live objects ===\n", kObjects);
  std::printf("%-28s %16s %14s\n", "strategy", "total ns", "stale pages");
  std::printf("%-28s %16llu %14zu\n", "per-object ClearRange",
              static_cast<unsigned long long>(per_object_ns), per_object.TrackedPages());
  std::printf("%-28s %16llu %14zu\n", "one arena-span ClearRange",
              static_cast<unsigned long long>(per_arena_ns), per_arena.TrackedPages());
  std::printf("\nbulk arena teardown is %.1fx faster than the per-object revoke storm and\n"
              "leaves zero stale pages\n\n",
              ratio);
  if (json != nullptr) {
    json->AddRow("teardown_per_object")
        .Set("objects", kObjects)
        .Set("total_ns", static_cast<double>(per_object_ns))
        .Set("stale_pages", static_cast<double>(per_object.TrackedPages()));
    json->AddRow("teardown_arena_span")
        .Set("objects", kObjects)
        .Set("total_ns", static_cast<double>(per_arena_ns))
        .Set("stale_pages", static_cast<double>(per_arena.TrackedPages()))
        .Set("speedup_vs_per_object", ratio);
  }
}

}  // namespace

int main(int argc, char** argv) {
  lxfi::SetLogLevel(lxfi::LogLevel::kError);
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json FILE]\n", argv[0]);
      return 2;
    }
  }
  lxfibench::JsonWriter json("bench_writerset");
  lxfibench::JsonWriter* jp = json_path != nullptr ? &json : nullptr;

  RunEmptyProbeAblation(jp);
  RunTeardownAblation(jp);
  constexpr uint64_t kPackets = 40000;

  eval::NetperfHarness harness(/*isolated=*/true);
  harness.Run({eval::NetWorkload::kUdpStreamTx, kPackets / 10});
  eval::NetperfMeasurement m = harness.Run({eval::NetWorkload::kUdpStreamTx, kPackets});
  uint64_t full = m.guard_counts[static_cast<int>(lxfi::GuardType::kIndCallFull)];
  uint64_t all = m.guard_counts[static_cast<int>(lxfi::GuardType::kIndCallAll)];

  std::printf("=== Writer-set fast path (UDP_STREAM TX) ===\n");
  std::printf("%16s %16s %16s\n", "indcalls", "full checks", "ns/packet");
  std::printf("%16llu %16llu %16.0f\n", static_cast<unsigned long long>(all),
              static_cast<unsigned long long>(full), m.PathNsPerPacket());
  double saved =
      all == 0 ? 0.0 : 100.0 * (1.0 - static_cast<double>(full) / static_cast<double>(all));
  std::printf("\nwriter-set tracking skipped %.0f%% of full checks (paper: ~2/3)\n", saved);
  if (jp != nullptr) {
    jp->AddRow("writer_set_on")
        .Set("indcalls", static_cast<double>(all))
        .Set("full_checks", static_cast<double>(full))
        .Set("ns_per_packet", m.PathNsPerPacket());
    jp->Meta("full_checks_skipped_pct", saved);
  }
  if (json_path != nullptr) {
    json.WriteFile(json_path);
  }
  return 0;
}

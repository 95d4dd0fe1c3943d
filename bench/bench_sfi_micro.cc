// Figure 11: SFI microbenchmarks (hotlist, lld, MD5) — code-size delta and
// slowdown under LXFI instrumentation. Paper: 1.14x/0%, 1.12x/11%, 1.15x/2%.
//
// Plus the dm-crypt sector row: crypt_map's payload transform with one
// store guard per byte (the rewriter's unhoisted output) against one ranged
// guard per sector payload (lxfi::StoreEach, the plugin's hoisting).
//
// And the store-guard ablation: the per-check cost of the WRITE-capability
// probe on a netperf-style working set (skb headers, payload buffers, device
// state), comparing the node-based std::unordered_map layout the seed
// shipped, the flat open-addressing CapTable, and the flat table fronted by
// the EnforcementContext 1-entry memo — the exact configuration the runtime
// store guard runs (src/lxfi/runtime.cc CheckWriteBody).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/json_out.h"
#include "bench/paired_timing.h"
#include "bench/std_baseline.h"
#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/trace.h"
#include "src/eval/netperf.h"
#include "src/eval/sfi_micro.h"
#include "src/kernel/kernel.h"
#include "src/kernel/module.h"
#include "src/lxfi/enforcement_context.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "src/modules/dm/dm_modules.h"

namespace {

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

void RunStoreGuardAblation(lxfibench::JsonWriter* json) {
  // Netperf-style working set: a ring of sk_buff-like objects — a small
  // header and a ~2 KiB payload each — plus device/socket state. Guard
  // traffic has strong temporal locality: each packet's header and payload
  // are checked several times (field stores, then the copy loop).
  constexpr int kRing = 64;
  constexpr uintptr_t kBase = 0x7f4200000000ull;
  constexpr size_t kHeader = 256;
  constexpr size_t kPayload = 2048;
  constexpr uint64_t kChecks = 4u << 20;

  lxfi::CapTable flat;
  bench::StdCapTable node;
  auto header_addr = [&](int i) { return kBase + static_cast<uintptr_t>(i) * 8192; };
  auto payload_addr = [&](int i) { return header_addr(i) + 4096; };
  for (int i = 0; i < kRing; ++i) {
    flat.GrantWrite(header_addr(i), kHeader);
    flat.GrantWrite(payload_addr(i), kPayload);
    node.GrantWrite(header_addr(i), kHeader);
    node.GrantWrite(payload_addr(i), kPayload);
  }

  // The shared principal holds the skb grants; the instance principal holds
  // its own (private device state) ranges, so every non-memoized skb check
  // walks the instance → shared fallback chain with a real miss probe first,
  // exactly like ModuleCtx::OwnsWrite on the real store-guard path.
  lxfi::CapTable flat_instance;
  bench::StdCapTable node_instance;
  constexpr uintptr_t kPrivBase = 0x7f4300000000ull;
  for (int i = 0; i < kRing; ++i) {
    uintptr_t priv = kPrivBase + static_cast<uintptr_t>(i) * 4096;
    flat_instance.GrantWrite(priv, 512);
    node_instance.GrantWrite(priv, 512);
  }

  // Per-packet guard stream (Figure 13 counts the guards per packet): two
  // header field stores, then the payload copy loop checking 256-byte
  // chunks — the same-object re-check pattern the 1-entry memo targets.
  struct Query {
    uintptr_t addr;
    size_t size;
  };
  std::vector<Query> stream;
  stream.reserve(1 << 16);
  lxfi::Rng rng(42);
  while (stream.size() + 10 <= (1 << 16)) {
    int i = static_cast<int>(rng.Below(kRing));
    stream.push_back({header_addr(i) + 16, 8});
    stream.push_back({header_addr(i) + 64, 8});
    for (size_t off = 0; off + 256 <= kPayload; off += 256) {
      stream.push_back({payload_addr(i) + off, 256});
    }
  }
  size_t n = stream.size();

  uint64_t sink = 0;
  auto time_ns = [&](auto&& check) {
    uint64_t t0 = lxfi::MonotonicNowNs();
    size_t q = 0;
    for (uint64_t c = 0; c < kChecks; ++c) {
      sink += check(stream[q]);
      q = q + 1 == n ? 0 : q + 1;
    }
    return static_cast<double>(lxfi::MonotonicNowNs() - t0) / kChecks;
  };

  auto std_check = [&](const Query& q) {
    return node_instance.CheckWrite(q.addr, q.size) || node.CheckWrite(q.addr, q.size);
  };
  auto flat_check = [&](const Query& q) {
    return flat_instance.CheckWrite(q.addr, q.size) || flat.CheckWrite(q.addr, q.size);
  };
  lxfi::EnforcementContext ec;
  auto memo_check = [&](const Query& q) {
    if (ec.WriteMemoHit(q.addr, q.size)) {
      return true;
    }
    uint64_t epoch = lxfi::RevocationEpoch::Current();
    uintptr_t lo, hi;
    if (!flat_instance.FindWriteRange(q.addr, q.size, &lo, &hi) &&
        !flat.FindWriteRange(q.addr, q.size, &lo, &hi)) {
      return false;
    }
    ec.FillWriteMemo(lo, hi, epoch);
    return true;
  };

  // Warm, then measure.
  time_ns(std_check);
  double t_std = time_ns(std_check);
  time_ns(flat_check);
  double t_flat = time_ns(flat_check);
  time_ns(memo_check);
  double t_memo = time_ns(memo_check);

  std::printf("=== Store-guard ablation (netperf-style WRITE checks) ===\n");
  std::printf("%-34s %12s %10s\n", "configuration", "ns/check", "speedup");
  std::printf("%-34s %12.2f %9.2fx\n", "std::unordered_map buckets", t_std, 1.0);
  std::printf("%-34s %12.2f %9.2fx\n", "flat table (open-addressing)", t_flat, t_std / t_flat);
  std::printf("%-34s %12.2f %9.2fx\n", "flat + EnforcementContext memo", t_memo, t_std / t_memo);
  std::printf("(sink %llu)\n\n", static_cast<unsigned long long>(sink % 7));

  if (json != nullptr) {
    struct {
      const char* name;
      double ns;
    } rows[] = {
        {"std_unordered_map", t_std},
        {"flat_table", t_flat},
        {"flat_memo", t_memo},
    };
    for (const auto& r : rows) {
      json->AddRow(r.name).Set("ns_per_check", r.ns).Set("speedup_vs_std", t_std / r.ns);
    }
  }
}

// Arena-vs-captable ablation: the same own-heap store stream resolved three
// ways — the partitioned-heap arena span compare (this PR's fast path), the
// PR 1/2 memo-fronted flat table, and the cold FlatRangeMap probe. Module
// stores into their own kmalloc'd objects are the common case the arena
// targets, and a real module touches *many* objects: a round-robin stream
// over 32 own-heap objects defeats the 1-entry memo every time (each object
// memoizes a different grant range), while the arena answers every one with
// the same two-word span compare. The single-object repeat stream is also
// reported so the pure memo-hit steady state is on the record. Both paths go
// through the real Runtime entry points, and the cap-table slow path is the
// differential reference: fast and slow must return identical allow/deny
// answers on every probe, including deny cases (span straddle, foreign
// address, unmapped) — asserted, not assumed.
void RunArenaAblation(lxfibench::JsonWriter* json) {
  constexpr int kObjects = 32;  // power of two: stream index is a mask
  constexpr size_t kObjBytes = 192;
  constexpr uint64_t kChecks = 4u << 20;

  // Partitioned runtime: the module's allocations land in its own arena slot.
  kern::Kernel arena_kernel;
  lxfi::RuntimeOptions popts;
  popts.partitioned_heaps = true;
  lxfi::Runtime arena_rt(&arena_kernel, popts);
  kern::ModuleDef adef;
  adef.name = "heapmod";
  kern::Module* amod = arena_kernel.LoadModule(std::move(adef));
  Require(amod != nullptr, "arena kernel failed to load heapmod");
  lxfi::Principal* ap = arena_rt.CtxOf(amod)->shared();
  std::vector<uintptr_t> arena_objs;
  {
    lxfi::ScopedPrincipal as(&arena_rt, ap);
    for (int i = 0; i < kObjects; ++i) {
      void* obj = arena_rt.PartitionedAlloc(kObjBytes);
      Require(obj != nullptr, "arena allocation failed");
      arena_objs.push_back(reinterpret_cast<uintptr_t>(obj));
    }
  }
  Require(ap->has_arena(), "partitioned runtime did not carve an arena");

  // Pre-partition runtime: same object population on the shared slab, one
  // per-object WRITE grant each — what kmalloc's transfer annotation left in
  // the flat table before this PR.
  kern::Kernel flat_kernel;
  lxfi::Runtime flat_rt(&flat_kernel, lxfi::RuntimeOptions{});
  kern::ModuleDef fdef;
  fdef.name = "heapmod";
  kern::Module* fmod = flat_kernel.LoadModule(std::move(fdef));
  Require(fmod != nullptr, "flat kernel failed to load heapmod");
  lxfi::Principal* fp = flat_rt.CtxOf(fmod)->shared();
  std::vector<uintptr_t> flat_objs;
  for (int i = 0; i < kObjects; ++i) {
    void* obj = flat_kernel.slab().Alloc(kObjBytes);
    uintptr_t addr = reinterpret_cast<uintptr_t>(obj);
    flat_objs.push_back(addr);
    flat_rt.Grant(fp, lxfi::Capability::Write(addr, kObjBytes));
  }

  // Differential reference first (before any timing warms a memo): the
  // arena fast path and the cap-table slow path must agree on every probe.
  struct Probe {
    uintptr_t addr;
    size_t size;
  };
  std::vector<Probe> probes;
  for (uintptr_t o : arena_objs) {
    probes.push_back({o + 8, 8});                     // own-heap object: allow
  }
  probes.push_back({ap->arena_lo(), 1});              // span start: allow
  probes.push_back({ap->arena_hi() - 8, 8});          // span end: allow
  probes.push_back({ap->arena_hi() - 4, 8});          // straddles span end: deny
  probes.push_back({ap->arena_hi() + 4096, 16});      // past the span: deny
  probes.push_back({0x4b1d00000000ull, 8});           // unmapped: deny
  bool saw_allow = false, saw_deny = false;
  for (const Probe& pr : probes) {
    bool fast = arena_rt.OwnsWriteFast(ap, pr.addr, pr.size);
    bool slow = arena_rt.Owns(ap, lxfi::Capability::Write(pr.addr, pr.size));
    Require(fast == slow, "arena fast path and cap-table slow path disagree");
    (fast ? saw_allow : saw_deny) = true;
  }
  Require(saw_allow && saw_deny, "differential probes must cover allow AND deny");

  uint64_t sink = 0;
  auto time_ns = [&](auto&& check) {
    uint64_t t0 = lxfi::MonotonicNowNs();
    for (uint64_t i = 0; i < kChecks; ++i) {
      sink += check(i);
    }
    return static_cast<double>(lxfi::MonotonicNowNs() - t0) / kChecks;
  };
  // Warm once, then best-of-three: the speedup line below is asserted, so
  // damp host scheduling noise the way the other microbenches do.
  auto best = [&](auto&& check) {
    time_ns(check);
    double t = time_ns(check);
    for (int rep = 0; rep < 2; ++rep) {
      t = std::min(t, time_ns(check));
    }
    return t;
  };

  auto arena_check = [&](uint64_t i) {
    return arena_rt.OwnsWriteFast(ap, arena_objs[i & (kObjects - 1)] + 16, 8);
  };
  auto memo_alternating = [&](uint64_t i) {
    return flat_rt.OwnsWriteFast(fp, flat_objs[i & (kObjects - 1)] + 16, 8);
  };
  auto memo_same_object = [&](uint64_t i) {
    return flat_rt.OwnsWriteFast(fp, flat_objs[(i >> 12) & (kObjects - 1)] + 16, 8);
  };
  auto cold_probe = [&](uint64_t i) {
    return flat_rt.Owns(fp, lxfi::Capability::Write(flat_objs[i & (kObjects - 1)] + 16, 8));
  };

  double t_arena = best(arena_check);
  double t_ping = best(memo_alternating);
  double t_hit = best(memo_same_object);
  double t_cold = best(cold_probe);
  for (uint64_t i = 0; i < 64; ++i) {  // the streams really do allow
    Require(arena_check(i) && memo_alternating(i) && memo_same_object(i) && cold_probe(i),
            "own-heap store stream must be allowed in every configuration");
  }

  std::printf("=== Arena-vs-captable ablation (own-heap stores, %d objects) ===\n", kObjects);
  std::printf("%-40s %12s %10s\n", "configuration", "ns/check", "speedup");
  std::printf("%-40s %12.2f %9.2fx\n", "arena span compare (this PR)", t_arena, t_ping / t_arena);
  std::printf("%-40s %12.2f %9.2fx\n", "memo + flat table, alternating objects", t_ping, 1.0);
  std::printf("%-40s %12.2f %9.2fx\n", "memo + flat table, same-object (memo hit)", t_hit,
              t_ping / t_hit);
  std::printf("%-40s %12.2f %9.2fx\n", "cold flat probe (no memo)", t_cold, t_ping / t_cold);
  std::printf("(speedups relative to the alternating-object memo path; sink %llu)\n",
              static_cast<unsigned long long>(sink % 7));
  std::printf("\narena fast path is %.2fx vs the PR 1/2 memo path on the same own-heap\n"
              "stream, %.2fx vs the pure memo-hit steady state (target: >= 1.5x)\n\n",
              t_ping / t_arena, t_hit / t_arena);
  Require(t_ping / t_arena >= 1.5,
          "arena fast path must be >= 1.5x vs the memoized cap-table path on own-heap stores");

  if (json != nullptr) {
    json->Meta("arena_objects", static_cast<double>(kObjects));
    json->AddRow("arena_span_compare")
        .Set("ns_per_check", t_arena)
        .Set("speedup_vs_memo_alternating", t_ping / t_arena)
        .Set("speedup_vs_memo_hit", t_hit / t_arena);
    json->AddRow("memo_flat_alternating").Set("ns_per_check", t_ping);
    json->AddRow("memo_flat_same_object").Set("ns_per_check", t_hit);
    json->AddRow("cold_flat_probe").Set("ns_per_check", t_cold);
  }
}

// Trace-overhead gate: the observability contract is that a compiled-in but
// *disabled* tracepoint costs one relaxed load and a predictable branch — so
// a real crossing (a wrapped import call plus the runtime store guards of
// the module code around it) with two more disabled TRACE_EVENTs must stay
// within 3% of the same crossing without them, read as the median paired
// ratio of alternating windows (bench/paired_timing.h). The crossing runs
// out of line through the runtime, so the two timing loops differ only by
// the tracepoints, not by how the compiler laid out an inlined body.
// Asserted here, not just reported, so CI fails the moment someone fattens
// the disabled path. The enabled row is reported alongside for the record.
void RunTraceOverheadGate(lxfibench::JsonWriter* json) {
  constexpr int kObjects = 16;
  constexpr size_t kObjBytes = 256;
  constexpr int kPairs = 41;
  constexpr uint64_t kCrossingsPerWindow = 20000;

  kern::Kernel kernel;
  lxfi::Runtime rt(&kernel);
  lxfi::InstallKernelApi(&kernel, &rt);
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kPrintk> printk;
  kern::ModuleDef def;
  def.name = "tracegate";
  def.imports = {kern::kKmalloc, kern::kPrintk};
  def.init = [&](kern::Module& m) -> int {
    kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    printk = lxfi::GetImport(m, kern::kPrintk);
    return 0;
  };
  kern::Module* module = kernel.LoadModule(std::move(def));
  lxfi::ScopedPrincipal as_module(&rt, rt.CtxOf(module)->shared());
  char* objs[kObjects];
  for (char*& obj : objs) {
    obj = static_cast<char*>(kmalloc(kObjBytes));
  }

  // One crossing: a couple of header-field stores, the wrapped call, then
  // two payload-chunk stores on the same object.
  auto body = [&](uint64_t i) {
    char* o = objs[i & (kObjects - 1)];
    rt.CheckWrite(o + 8, 8);
    rt.CheckWrite(o + 32, 8);
    printk("x");
    rt.CheckWrite(o + 64, 64);
    rt.CheckWrite(o + 128, 64);
  };
  auto plain_op = [&](uint64_t i) { body(i); };
  auto gated_op = [&](uint64_t i) {
    TRACE_EVENT(lxfi::TraceEvent::kGuardEnter, 1, i, 0);
    body(i);
    TRACE_EVENT(lxfi::TraceEvent::kGuardExit, 1, i, 0);
  };

  lxfi::TraceBuffer::SetEnabled(false);
  lxfi::TraceBuffer::Global().ResetForTest();
  lxfibench::PairedTiming disabled =
      lxfibench::TimePaired(kPairs, kCrossingsPerWindow, plain_op, gated_op);

  // Enabled row: same body with live emission, drained by the emitting
  // thread every ring's worth (the flight-recorder steady state).
  lxfi::TraceBuffer::SetEnabled(true);
  std::vector<lxfi::TraceRecord> scratch;
  auto enabled_op = [&](uint64_t i) {
    gated_op(i);
    if ((i & (lxfi::TraceBuffer::kRingCapacity / 2 - 1)) == 0) {
      scratch.clear();
      lxfi::TraceBuffer::Global().Drain(&scratch);
    }
  };
  double t_enabled = lxfibench::TimePaired(kPairs, kCrossingsPerWindow, plain_op, enabled_op).b_ns;
  lxfi::TraceBuffer::SetEnabled(false);
  lxfi::TraceBuffer::Global().ResetForTest();
  double t_plain = disabled.a_ns;
  double t_gated = disabled.b_ns;

  double overhead_pct = disabled.OverheadPct();
  std::printf("=== Trace-overhead gate (wrapped crossing + 4 store guards) ===\n");
  std::printf("%-40s %12s\n", "configuration", "ns/crossing");
  std::printf("%-40s %12.2f\n", "no tracepoints", t_plain);
  std::printf("%-40s %12.2f  (median paired %+.2f%%)\n", "2 tracepoints, disabled", t_gated,
              overhead_pct);
  std::printf("%-40s %12.2f\n", "2 tracepoints, enabled + drain", t_enabled);
  std::printf("(gate: disabled <= 3%%)\n\n");
  Require(disabled.ratio <= 1.03,
          "disabled tracepoints must stay within 3% of the untraced crossing");

  if (json != nullptr) {
    json->AddRow("trace_off_baseline").Set("ns_per_crossing", t_plain);
    json->AddRow("trace_compiled_disabled")
        .Set("ns_per_crossing", t_gated)
        .Set("overhead_pct", overhead_pct);
    json->AddRow("trace_enabled").Set("ns_per_crossing", t_enabled);
  }
}

// dm-crypt sector: one 512 B XOR transform per op, run as a module
// principal encrypting a plaintext sector into its kmalloc'd bounce buffer
// (crypt_map's write direction). The per-byte variant is the transform
// before hoisting, one lxfi::Store guard per byte; it exists only here, as
// the ablation. The ranged variant is the module's own
// mods::CryptXorTransform, one lxfi::StoreEach guard per payload. Gated:
// exactly one store guard per sector on the ranged side, and the ranged side
// at least 3x faster.
void RunDmCryptSectorGate(lxfibench::JsonWriter* json) {
  constexpr uint32_t kSector = 512;
  constexpr uint64_t kOps = 20000;
  constexpr uint8_t kKey = 0x5d;

  kern::Kernel kernel;
  lxfi::Runtime rt(&kernel);
  lxfi::InstallKernelApi(&kernel, &rt);
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ModuleDef def;
  def.name = "dm-crypt-sector";
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kPrintk};
  def.init = [&kmalloc](kern::Module& mod) -> int {
    kmalloc = lxfi::GetImport(mod, kern::kKmalloc);
    return 0;
  };
  kern::Module* m = kernel.LoadModule(std::move(def));
  Require(m != nullptr, "dm-crypt sector bench failed to load its module");
  lxfi::ScopedPrincipal as_module(&rt, rt.CtxOf(m)->shared());
  auto* plain = static_cast<uint8_t*>(kmalloc(kSector));
  auto* bounce = static_cast<uint8_t*>(kmalloc(kSector));
  Require(plain != nullptr && bounce != nullptr, "dm-crypt sector buffers");
  for (uint32_t i = 0; i < kSector; ++i) {
    plain[i] = static_cast<uint8_t>(i * 251);
  }

  auto per_byte = [&](uint64_t sector) {
    for (uint32_t i = 0; i < kSector; ++i) {
      lxfi::Store(*m, &bounce[i],
                  static_cast<uint8_t>(plain[i] ^ mods::CryptKeystream(kKey, sector, i)));
    }
  };
  auto ranged = [&](uint64_t sector) {
    mods::CryptXorTransform(*m, bounce, plain, kSector, kKey, sector);
  };

  // Both variants write the same ciphertext.
  std::vector<uint8_t> expect(kSector);
  per_byte(7);
  std::memcpy(expect.data(), bounce, kSector);
  std::memset(bounce, 0, kSector);
  ranged(7);
  Require(std::memcmp(expect.data(), bounce, kSector) == 0,
          "ranged and per-byte transforms must write the same ciphertext");

  uint64_t sink = 0;
  struct Side {
    double ns = 0;
    double guards = 0;
  };
  auto run = [&](auto&& transform) {
    uint64_t guards_before = rt.guards().count(lxfi::GuardType::kMemWrite);
    uint64_t t0 = lxfi::MonotonicNowNs();
    for (uint64_t op = 0; op < kOps; ++op) {
      transform(op);
      sink += bounce[op % kSector];
    }
    Side side;
    side.ns = static_cast<double>(lxfi::MonotonicNowNs() - t0) / kOps;
    side.guards =
        static_cast<double>(rt.guards().count(lxfi::GuardType::kMemWrite) - guards_before) /
        kOps;
    return side;
  };
  // Warm, then best of three per side, interleaved.
  run(per_byte);
  run(ranged);
  Side byte_side = run(per_byte);
  Side range_side = run(ranged);
  for (int rep = 0; rep < 2; ++rep) {
    byte_side.ns = std::min(byte_side.ns, run(per_byte).ns);
    range_side.ns = std::min(range_side.ns, run(ranged).ns);
  }

  std::printf("=== dm-crypt sector (one %u B XOR transform per op) ===\n", kSector);
  std::printf("%-40s %12s %14s\n", "configuration", "ns/sector", "guards/sector");
  std::printf("%-40s %12.1f %14.1f\n", "per-byte lxfi::Store", byte_side.ns, byte_side.guards);
  std::printf("%-40s %12.1f %14.1f\n", "ranged lxfi::StoreEach", range_side.ns,
              range_side.guards);
  std::printf("(ranged is %.1fx faster; gate: 1 guard/sector and >= 3x; sink %llu)\n\n",
              byte_side.ns / range_side.ns, static_cast<unsigned long long>(sink % 7));
  Require(range_side.guards == 1.0, "ranged dm-crypt transform must run one guard per sector");
  Require(byte_side.ns >= 3.0 * range_side.ns,
          "ranged dm-crypt transform must be >= 3x faster than per-byte guards");

  if (json != nullptr) {
    json->AddRow("dm_crypt_sector_per_byte")
        .Set("ns_per_sector", byte_side.ns)
        .Set("guards_per_sector", byte_side.guards);
    json->AddRow("dm_crypt_sector_ranged")
        .Set("ns_per_sector", range_side.ns)
        .Set("guards_per_sector", range_side.guards)
        .Set("speedup_vs_per_byte", byte_side.ns / range_side.ns);
  }
}

// Wrappers and checks are not free: the enforced per-packet path must cost
// more than the stock one (best of three per side, interleaved).
void RunNetperfPathGate(lxfibench::JsonWriter* json) {
  eval::NetperfHarness stock(/*isolated=*/false);
  eval::NetperfHarness isolated(/*isolated=*/true);
  const eval::NetperfConfig cfg{eval::NetWorkload::kUdpStreamTx, 4000};
  stock.Run({cfg.workload, 1000});
  isolated.Run({cfg.workload, 1000});
  double ms = stock.Run(cfg).PathNsPerPacket();
  double ml = isolated.Run(cfg).PathNsPerPacket();
  for (int rep = 0; rep < 2; ++rep) {
    ms = std::min(ms, stock.Run(cfg).PathNsPerPacket());
    ml = std::min(ml, isolated.Run(cfg).PathNsPerPacket());
  }
  std::printf("netperf path gate (UDP_STREAM TX): stock %.1f ns/pkt, enforced %.1f ns/pkt\n", ms,
              ml);
  Require(ml > ms, "enforced netperf path must cost more than stock");
  if (json != nullptr) {
    json->AddRow("netperf_path_gate").Set("stock_ns_per_pkt", ms).Set("lxfi_ns_per_pkt", ml);
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
  lxfibench::JsonWriter json("bench_sfi_micro");
  lxfibench::JsonWriter* jp = json_path != nullptr ? &json : nullptr;

  RunStoreGuardAblation(jp);
  RunArenaAblation(jp);
  RunTraceOverheadGate(jp);
  RunDmCryptSectorGate(jp);
  std::printf("=== Figure 11: SFI microbenchmarks ===\n");
  std::printf("%-10s %14s %10s %14s\n", "benchmark", "d-code-size", "slowdown", "paper");

  // Each run of a benchmark times its bare and instrumented variants back
  // to back (interleaved inside eval's harness), which makes it one pair;
  // the slowdown is the median paired ratio over a few runs, so one noisy
  // run cannot decide a gate.
  struct Row {
    eval::MicroResult result;
    double slowdown_pct;
    const char* paper;
  };
  auto paired = [](eval::MicroResult (*fn)(int), const char* paper) {
    Row row{{}, 0, paper};
    lxfibench::PairedTiming t = lxfibench::MedianPairedRatio(5, [&](int) {
      row.result = fn(1);
      return std::pair(row.result.base_ns, row.result.instrumented_ns);
    });
    row.slowdown_pct = t.OverheadPct();
    return row;
  };

  Row rows[] = {
      paired(eval::RunHotlist, "1.14x / 0%"),
      paired(eval::RunLld, "1.12x / 11%"),
      paired(eval::RunMd5, "1.15x / 2%"),
  };
  for (const Row& row : rows) {
    std::printf("%-10s %13.2fx %9.1f%% %14s\n", row.result.name.c_str(),
                row.result.code_size_ratio, row.slowdown_pct, row.paper);
    if (jp != nullptr) {
      jp->AddRow("figure11_" + row.result.name)
          .Set("code_size_ratio", row.result.code_size_ratio)
          .Set("slowdown_pct", row.slowdown_pct);
    }
  }
  std::printf("\nshape check: hotlist ~0%% (reads are uninstrumented) < MD5 (hoisted\n"
              "checks) < lld (per-store checks on pointer writes).\n");
  // Wall-clock gates (tier-1 asserts only the deterministic guard counts).
  Require(rows[0].slowdown_pct < 10.0, "hotlist slowdown must stay under 10%");
  Require(rows[1].slowdown_pct > -3.0 && rows[1].slowdown_pct < 60.0,
          "lld slowdown must stay within (-3%, 60%)");
  Require(rows[2].slowdown_pct < 8.0, "MD5 slowdown must stay under 8% (hoisted checks)");
  RunNetperfPathGate(jp);
  if (json_path != nullptr) {
    json.WriteFile(json_path);
  }
  return 0;
}

// Figure 13: guards executed per packet and time per guard for the
// UDP_STREAM TX workload, plus the writer-set fast-path effectiveness
// (the paper: fast path eliminates ~2/3 of full indirect-call checks).
//
// The runtime only counts guards. The per-packet counts come from one
// measured UDP_STREAM TX run; the ns-per-guard column is timed here, by a
// best-of-K loop over each guard's public entry point on the same warmed
// runtime under the e1000 principal, so no clock read sits inside a guard.
// The stock and enforced ns per packet of the same workload give the delta
// the rows should explain, and the table prints what they leave over.
//
// Exits nonzero when the writer-set fast path eliminates less than half of
// the full indirect-call checks (a count, so the gate does not flake).
// --json FILE writes the per-guard rows in the shared bench schema.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/json_out.h"
#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/eval/netperf.h"
#include "src/kernel/kernel.h"
#include "src/kernel/net/netdevice.h"
#include "src/kernel/net/skbuff.h"
#include "src/lxfi/guards.h"
#include "src/lxfi/lxfi_stats.h"
#include "src/lxfi/runtime.h"

namespace {

using lxfi::GuardType;

constexpr uint64_t kPackets = 50000;
constexpr int kReps = 7;  // timed passes after one warm-up pass

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

int Idx(GuardType t) { return static_cast<int>(t); }

// Best of kReps timed passes of `iters` calls to op(i), after one warm-up
// pass, in ns per call.
template <typename Op>
double BestNs(uint64_t iters, Op&& op) {
  auto pass = [&] {
    uint64_t t0 = lxfi::MonotonicNowNs();
    for (uint64_t i = 0; i < iters; ++i) {
      op(i);
    }
    return static_cast<double>(lxfi::MonotonicNowNs() - t0) / static_cast<double>(iters);
  };
  pass();
  double best = pass();
  for (int rep = 1; rep < kReps; ++rep) {
    best = std::min(best, pass());
  }
  return best;
}

// BestNs over one guard's entry point, checking by the counters that every
// call ran that guard once.
template <typename Op>
double TimedGuard(const lxfi::GuardStats& g, GuardType type, uint64_t iters, Op&& op) {
  uint64_t before = g.count(type);
  double ns = BestNs(iters, op);
  Require(g.count(type) - before == iters * (kReps + 1), lxfi::GuardTypeName(type));
  return ns;
}

struct WriteMix {
  uint64_t checks = 0;
  uint64_t memo_hits = 0;
};

WriteMix SumWriteMix(const lxfi::Runtime& rt) {
  WriteMix mix;
  for (const lxfi::LxfiStats::PrincipalMetrics& m : lxfi::LxfiStats::Collect(rt)) {
    mix.checks += m.write_checks;
    mix.memo_hits += m.write_memo_hits;
  }
  return mix;
}

struct GuardTimes {
  double ns[static_cast<int>(GuardType::kCount)] = {};
  double write_memo_hit = 0, write_memo_miss = 0;
  double indcall_fast = 0;
};

// Times every guard type's entry point under the e1000 principal. The two
// rows whose cost depends on the path taken are weighted by the workload's
// own mix: the store guard by its write-memo hit ratio, the indirect-call
// guard by its share of full (module-written slot) checks.
GuardTimes TimeGuards(lxfi::Runtime* rt, kern::Kernel* k, const eval::NetperfMeasurement& m,
                      double memo_hit_ratio) {
  kern::NetDevice* dev = kern::GetNetStack(k)->DevByIndex(1);
  kern::Module* e1000 = k->FindModule("e1000");
  Require(dev != nullptr && e1000 != nullptr, "harness has no e1000 device");
  lxfi::ModuleCtx* mc = rt->CtxOf(e1000);
  lxfi::Principal* p = mc->Lookup(reinterpret_cast<uintptr_t>(dev));
  Require(p != nullptr, "e1000 device has no principal");
  Require(rt->Owns(p, lxfi::Capability::Write(dev, sizeof(*dev))) && dev->priv != nullptr &&
              rt->Owns(p, lxfi::Capability::Write(dev->priv, 8)),
          "e1000 principal must own its net_device and private area");

  GuardTimes gt;
  const lxfi::GuardStats& g = rt->guards();
  constexpr uint64_t kIters = 200000;

  // Wrapper entry and exit: batches of pushes, then the matching pops, so
  // each is timed alone (three clock reads per batch).
  {
    constexpr int kDepth = 256;
    constexpr int kBatches = 400;
    std::vector<uint64_t> tokens(kDepth);
    double best_enter = 0, best_exit = 0;
    for (int rep = 0; rep <= kReps; ++rep) {  // pass 0 warms up
      uint64_t enter_ns = 0, exit_ns = 0;
      for (int b = 0; b < kBatches; ++b) {
        uint64_t t0 = lxfi::MonotonicNowNs();
        for (int d = 0; d < kDepth; ++d) {
          tokens[d] = rt->WrapperEnter(p, "bench_guards");
        }
        uint64_t t1 = lxfi::MonotonicNowNs();
        for (int d = kDepth - 1; d >= 0; --d) {
          rt->WrapperExit(tokens[d], "bench_guards");
        }
        uint64_t t2 = lxfi::MonotonicNowNs();
        enter_ns += t1 - t0;
        exit_ns += t2 - t1;
      }
      double n = static_cast<double>(kDepth) * kBatches;
      double e = static_cast<double>(enter_ns) / n, x = static_cast<double>(exit_ns) / n;
      best_enter = rep == 1 ? e : std::min(best_enter, e);
      best_exit = rep == 1 ? x : std::min(best_exit, x);
    }
    gt.ns[Idx(GuardType::kFunctionEntry)] = best_enter;
    gt.ns[Idx(GuardType::kFunctionExit)] = best_exit;
  }

  uint64_t token = rt->WrapperEnter(p, "bench_guards");

  // Store guard: the same 8 bytes (memo hit), and two granted ranges in
  // turn (each check misses the memo and probes the capability table).
  auto* dev_bytes = reinterpret_cast<char*>(dev);
  auto* priv_bytes = static_cast<char*>(dev->priv);
  gt.write_memo_hit = TimedGuard(g, GuardType::kMemWrite, kIters,
                                 [&](uint64_t) { rt->CheckWrite(dev_bytes, 8); });
  gt.write_memo_miss = TimedGuard(g, GuardType::kMemWrite, kIters, [&](uint64_t i) {
    rt->CheckWrite((i & 1) != 0 ? dev_bytes : priv_bytes, 8);
  });
  gt.ns[Idx(GuardType::kMemWrite)] =
      memo_hit_ratio * gt.write_memo_hit + (1 - memo_hit_ratio) * gt.write_memo_miss;

  // Kernel indirect calls. A host-heap slot no module ever wrote takes the
  // writer-set fast path; the driver's ndo_start_xmit slot, written by the
  // module at probe, takes the full check the transmit path pays.
  std::vector<uintptr_t> kernel_slots = {k->symtab().Find("kfree_skb"),
                                         dev->ops->ndo_start_xmit};
  Require(kernel_slots[0] != 0 && kernel_slots[0] < kern::kModuleTextBase &&
              kernel_slots[1] >= kern::kModuleTextBase,
          "indirect-call targets: kernel text and module text");
  uint64_t full_before = g.count(GuardType::kIndCallFull);
  gt.indcall_fast = TimedGuard(g, GuardType::kIndCallAll, kIters, [&](uint64_t) {
    rt->CheckKernelIndirectCall(&kernel_slots[0], "dst_ops::output", kernel_slots[0]);
  });
  gt.ns[Idx(GuardType::kIndCallModule)] =
      TimedGuard(g, GuardType::kIndCallModule, kIters, [&](uint64_t) {
        rt->CheckKernelIndirectCall(&kernel_slots[1], "net_device_ops::ndo_start_xmit",
                                    kernel_slots[1]);
      });
  Require(g.count(GuardType::kIndCallFull) == full_before, "host-heap slots take the fast path");
  double full_ns = TimedGuard(g, GuardType::kIndCallFull, kIters, [&](uint64_t) {
    rt->CheckKernelIndirectCall(&dev->ops->ndo_start_xmit, "net_device_ops::ndo_start_xmit",
                                dev->ops->ndo_start_xmit);
  });
  gt.ns[Idx(GuardType::kIndCallFull)] = full_ns;
  double all = static_cast<double>(m.guard_counts[Idx(GuardType::kIndCallAll)]);
  double full_share =
      all == 0 ? 0 : static_cast<double>(m.guard_counts[Idx(GuardType::kIndCallFull)]) / all;
  gt.ns[Idx(GuardType::kIndCallAll)] =
      full_share * full_ns + (1 - full_share) * gt.indcall_fast;

  // Annotation actions: what ndo_start_xmit and kfree_skb do to an skb's
  // header and payload capabilities — transfer to the driver, then back.
  kern::SkBuff* skb = kern::AllocSkb(k, 64);
  Require(skb != nullptr, "skb allocation failed");
  const lxfi::Capability caps[2] = {lxfi::Capability::Write(skb, sizeof(*skb)),
                                    lxfi::Capability::Write(skb->head, skb->capacity)};
  lxfi::CallEnv env;
  env.mc = mc;
  env.principal = p;
  env.what = "bench_guards";
  gt.ns[Idx(GuardType::kAnnotationAction)] =
      BestNs(kIters / 4, [&](uint64_t) {
        for (const lxfi::Capability& cap : caps) {
          rt->ApplyOneCap(lxfi::Action::Op::kTransfer, cap, env, /*from_module=*/false);
        }
        for (const lxfi::Capability& cap : caps) {
          rt->ApplyOneCap(lxfi::Action::Op::kTransfer, cap, env, /*from_module=*/true);
        }
      }) /
      4;
  kern::FreeSkb(k, skb);

  rt->WrapperExit(token, "bench_guards");
  Require(rt->violation_count() == 0, "timing loops must not violate");
  return gt;
}

// Best-of-K ns per packet for stock and enforced runs, interleaved.
void TimePaths(eval::NetperfHarness* isolated, double* stock_ns, double* enforced_ns) {
  eval::NetperfHarness stock(/*isolated=*/false);
  const eval::NetperfConfig cfg{eval::NetWorkload::kUdpStreamTx, kPackets};
  stock.Run({cfg.workload, kPackets / 10});
  for (int rep = 0; rep < 5; ++rep) {
    double s = stock.Run(cfg).PathNsPerPacket();
    double e = isolated->Run(cfg).PathNsPerPacket();
    *stock_ns = rep == 0 ? s : std::min(*stock_ns, s);
    *enforced_ns = rep == 0 ? e : std::min(*enforced_ns, e);
  }
}

}  // namespace

int main(int argc, char** argv) {
  lxfi::SetLogLevel(lxfi::LogLevel::kError);
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  eval::NetperfHarness harness(/*isolated=*/true);
  lxfi::Runtime* rt = harness.runtime();
  harness.Run({eval::NetWorkload::kUdpStreamTx, kPackets / 10});  // warm-up
  WriteMix mix_before = SumWriteMix(*rt);
  eval::NetperfMeasurement m = harness.Run({eval::NetWorkload::kUdpStreamTx, kPackets});
  WriteMix mix_after = SumWriteMix(*rt);
  uint64_t write_checks = mix_after.checks - mix_before.checks;
  double memo_hit_ratio =
      write_checks == 0
          ? 0
          : static_cast<double>(mix_after.memo_hits - mix_before.memo_hits) / write_checks;

  GuardTimes gt = TimeGuards(rt, harness.kernel(), m, memo_hit_ratio);
  double stock_ns = 0, enforced_ns = 0;
  TimePaths(&harness, &stock_ns, &enforced_ns);

  lxfibench::JsonWriter json("bench_guards");
  json.Meta("mode", "figure13_guards");
  json.Meta("workload", "UDP_STREAM TX");
  json.Meta("packets", static_cast<double>(m.packets));

  std::printf("=== Figure 13: LXFI guards for UDP_STREAM TX ===\n");
  std::printf("%-22s %10s %12s %14s %14s\n", "Guard type", "count", "per packet", "ns per guard",
              "ns per packet");
  double pkts = static_cast<double>(m.packets);
  double rows_sum = 0;
  for (int i = 0; i < Idx(GuardType::kCount); ++i) {
    auto t = static_cast<GuardType>(i);
    bool nested = t == GuardType::kIndCallFull || t == GuardType::kIndCallModule;
    double per_pkt = static_cast<double>(m.guard_counts[i]) / pkts;
    double ns_per_pkt = per_pkt * gt.ns[i];
    if (!nested) {
      rows_sum += ns_per_pkt;
    }
    std::printf("%-22s %10llu %12.3f %14.1f %14.1f%s\n", lxfi::GuardTypeName(t),
                static_cast<unsigned long long>(m.guard_counts[i]), per_pkt, gt.ns[i],
                ns_per_pkt, nested ? "  *" : "");
    json.AddRow(lxfi::GuardTypeName(t))
        .Set("count", static_cast<double>(m.guard_counts[i]))
        .Set("per_packet", per_pkt)
        .Set("ns_per_guard", gt.ns[i])
        .Set("ns_per_packet", ns_per_pkt)
        .Set("nested", nested ? 1 : 0);
  }
  double delta = enforced_ns - stock_ns;
  std::printf("* nested in kernel-indcall-all; left out of the sum below\n\n");
  std::printf("store guard: memo hit %.1f ns, memo miss %.1f ns, workload memo-hit ratio %.3f\n",
              gt.write_memo_hit, gt.write_memo_miss, memo_hit_ratio);
  std::printf("indirect call: fast path %.1f ns, full check %.1f ns\n\n", gt.indcall_fast,
              gt.ns[Idx(GuardType::kIndCallFull)]);
  std::printf("%-34s %10.1f\n", "stock ns per packet", stock_ns);
  std::printf("%-34s %10.1f\n", "enforced ns per packet", enforced_ns);
  std::printf("%-34s %10.1f\n", "delta (enforced - stock)", delta);
  std::printf("%-34s %10.1f\n", "guard rows (non-nested sum)", rows_sum);
  std::printf("%-34s %10.1f\n", "unattributed (delta - rows)", delta - rows_sum);
  json.Meta("stock_ns_per_packet", stock_ns);
  json.Meta("enforced_ns_per_packet", enforced_ns);
  json.Meta("guard_rows_ns_per_packet", rows_sum);
  json.Meta("unattributed_ns_per_packet", delta - rows_sum);

  uint64_t all = m.guard_counts[Idx(GuardType::kIndCallAll)];
  uint64_t full = m.guard_counts[Idx(GuardType::kIndCallFull)];
  double eliminated = all == 0 ? 0.0 : 100.0 * (1.0 - static_cast<double>(full) /
                                                           static_cast<double>(all));
  std::printf("\nwriter-set fast path eliminated %.0f%% of full indirect-call checks\n",
              eliminated);
  std::printf("(paper: ~2/3 eliminated; gate: >= 50%%)\n");
  json.Meta("fast_path_eliminated_pct", eliminated);
  if (json_path != nullptr) {
    json.WriteFile(json_path);
  }
  Require(eliminated >= 50.0, "writer-set fast path must eliminate >= 50% of full checks");
  return 0;
}

// Ablation (Figure 13 decomposition): cost of one kernel/module boundary
// crossing. Compares a direct dispatch, a wrapper with entry/exit only
// (annotation-free import), and wrappers whose annotations run capability
// actions — splitting control-transfer overhead from annotation-action
// overhead, the two biggest rows of Figure 13.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/gbench_json.h"
#include "src/base/clock.h"
#include "src/base/trace.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"

namespace {

struct Fixture {
  Fixture() {
    kernel = std::make_unique<kern::Kernel>();
    rt = std::make_unique<lxfi::Runtime>(kernel.get());
    lxfi::InstallKernelApi(kernel.get(), rt.get());
    kern::ModuleDef def;
    def.name = "benchmod";
    def.imports = {"printk", "kmalloc", "kfree", "spin_lock", "spin_unlock"};
    def.init = [this](kern::Module& m) -> int {
      module = &m;
      printk = lxfi::GetImport<void, const char*>(m, "printk");
      kmalloc = lxfi::GetImport<void*, size_t>(m, "kmalloc");
      kfree = lxfi::GetImport<void, void*>(m, "kfree");
      spin_lock = lxfi::GetImport<void, uintptr_t*>(m, "spin_lock");
      spin_unlock = lxfi::GetImport<void, uintptr_t*>(m, "spin_unlock");
      lock = static_cast<uintptr_t*>(kmalloc(sizeof(uintptr_t)));
      return 0;
    };
    kernel->LoadModule(std::move(def));
  }

  lxfi::Principal* shared() { return rt->CtxOf(module)->shared(); }

  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  kern::Module* module = nullptr;
  std::function<void(const char*)> printk;
  std::function<void*(size_t)> kmalloc;
  std::function<void(void*)> kfree;
  std::function<void(uintptr_t*)> spin_lock;
  std::function<void(uintptr_t*)> spin_unlock;
  uintptr_t* lock = nullptr;
};

Fixture& F() {
  static Fixture fixture;
  return fixture;
}

// Direct dispatch through the registry — no LXFI involvement (the trusted-
// context fast path inside the wrapper).
void BM_DirectDispatch(benchmark::State& state) {
  Fixture& f = F();
  for (auto _ : state) {
    f.printk("x");
  }
}
BENCHMARK(BM_DirectDispatch);

// Wrapper with shadow push/pop and CALL check, but an empty annotation set.
void BM_WrapperNoActions(benchmark::State& state) {
  Fixture& f = F();
  lxfi::ScopedPrincipal as_module(f.rt.get(), f.shared());
  for (auto _ : state) {
    f.printk("x");
  }
}
BENCHMARK(BM_WrapperNoActions);

// Wrapper with one check action (spin_lock's pre(check(write, lock, 8))).
void BM_WrapperCheckAction(benchmark::State& state) {
  Fixture& f = F();
  lxfi::ScopedPrincipal as_module(f.rt.get(), f.shared());
  for (auto _ : state) {
    f.spin_lock(f.lock);
    f.spin_unlock(f.lock);
  }
}
BENCHMARK(BM_WrapperCheckAction);

// Wrapper pair whose annotations grant and revoke capabilities
// (kmalloc/kfree transfer actions) — the most expensive row.
void BM_WrapperTransferActions(benchmark::State& state) {
  Fixture& f = F();
  lxfi::ScopedPrincipal as_module(f.rt.get(), f.shared());
  for (auto _ : state) {
    void* p = f.kmalloc(128);
    f.kfree(p);
  }
}
BENCHMARK(BM_WrapperTransferActions);

// The annotation-free crossing with tracing live: every WrapperEnter/Exit
// emits a record, and the emitting thread drains its ring every half
// capacity (the flight-recorder steady state). The delta vs
// BM_WrapperNoActions is the enabled-tracing cost per crossing.
void BM_WrapperNoActionsTracingEnabled(benchmark::State& state) {
  Fixture& f = F();
  lxfi::ScopedPrincipal as_module(f.rt.get(), f.shared());
  lxfi::TraceBuffer::Global().ResetForTest();
  lxfi::TraceBuffer::SetEnabled(true);
  std::vector<lxfi::TraceRecord> scratch;
  uint64_t i = 0;
  for (auto _ : state) {
    f.printk("x");
    if ((++i & (lxfi::TraceBuffer::kRingCapacity / 2 - 1)) == 0) {
      scratch.clear();
      lxfi::TraceBuffer::Global().Drain(&scratch);
    }
  }
  lxfi::TraceBuffer::SetEnabled(false);
  lxfi::TraceBuffer::Global().ResetForTest();
}
BENCHMARK(BM_WrapperNoActionsTracingEnabled);

// Baseline for the allocation pair without LXFI accounting.
void BM_DirectKmallocKfree(benchmark::State& state) {
  Fixture& f = F();
  for (auto _ : state) {
    void* p = f.kernel->slab().Alloc(128);
    f.kernel->slab().Free(p);
  }
}
BENCHMARK(BM_DirectKmallocKfree);

// Pre-gbench trace-overhead gate on a *real* crossing: a wrapped import call
// (which already carries the enforcement-path tracepoints, disabled) versus
// the same call bracketed by two more disabled TRACE_EVENTs. The marginal
// cost of disabled tracepoints on a genuine wrapper crossing must stay
// within 3%, asserted before the benchmark tables run so CI trips on it.
void RunDisabledTraceGate() {
  Fixture& f = F();
  lxfi::ScopedPrincipal as_module(f.rt.get(), f.shared());
  lxfi::TraceBuffer::SetEnabled(false);
  lxfi::TraceBuffer::Global().ResetForTest();
  constexpr uint64_t kCalls = 200000;

  auto plain_op = [&](uint64_t) { f.printk("x"); };
  auto gated_op = [&](uint64_t i) {
    TRACE_EVENT(lxfi::TraceEvent::kGuardEnter, 1, i, 0);
    f.printk("x");
    TRACE_EVENT(lxfi::TraceEvent::kGuardExit, 1, i, 0);
  };
  auto time_ns = [&](auto&& op) {
    uint64_t t0 = lxfi::MonotonicNowNs();
    for (uint64_t i = 0; i < kCalls; ++i) {
      op(i);
    }
    return static_cast<double>(lxfi::MonotonicNowNs() - t0) / kCalls;
  };
  auto best = [&](auto&& op) {
    time_ns(op);  // warm
    double t = time_ns(op);
    for (int rep = 0; rep < 7; ++rep) {
      t = std::min(t, time_ns(op));
    }
    return t;
  };

  double t_plain = best(plain_op);
  double t_gated = best(gated_op);
  double overhead_pct = (t_gated / t_plain - 1.0) * 100.0;
  std::printf("trace gate: wrapped crossing %.2f ns, +2 disabled tracepoints %.2f ns (%+.2f%%)\n",
              t_plain, t_gated, overhead_pct);
  if (t_gated > 1.03 * t_plain) {
    std::fprintf(stderr,
                 "FAILED: disabled tracepoints add %.2f%% to a wrapped crossing (gate: 3%%)\n",
                 overhead_pct);
    std::exit(1);
  }
}

}  // namespace

// Custom main: `--json FILE` mirrors every row into the shared bench schema
// (bench/gbench_json.h) alongside the normal google-benchmark output.
int main(int argc, char** argv) {
  RunDisabledTraceGate();
  return lxfibench::RunGbenchMain("bench_wrappers", argc, argv);
}

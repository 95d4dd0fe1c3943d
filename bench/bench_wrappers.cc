// Ablation (Figure 13 decomposition): cost of one kernel/module boundary
// crossing. Compares a direct dispatch, a wrapper with entry/exit only
// (annotation-free import), and wrappers whose annotations run capability
// actions — splitting control-transfer overhead from annotation-action
// overhead, the two biggest rows of Figure 13. The transfer pair is also
// measured with 0, 16, 128 and 512 unrelated modules loaded: revocation
// visits only the capability's holders, so the pair must not grow with the
// module count (gated before the tables run).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/gbench_json.h"
#include "bench/paired_timing.h"
#include "src/base/clock.h"
#include "src/base/trace.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"

namespace {

struct Fixture {
  explicit Fixture(int extra_modules) : extra_state(4 * static_cast<size_t>(extra_modules)) {
    kernel = std::make_unique<kern::Kernel>();
    rt = std::make_unique<lxfi::Runtime>(kernel.get());
    lxfi::InstallKernelApi(kernel.get(), rt.get());
    kern::ModuleDef def;
    def.name = "benchmod";
    def.imports = {kern::kPrintk, kern::kKmalloc, kern::kKfree, kern::kSpinLock, kern::kSpinUnlock};
    def.init = [this](kern::Module& m) -> int {
      module = &m;
      printk = lxfi::GetImport(m, kern::kPrintk);
      kmalloc = lxfi::GetImport(m, kern::kKmalloc);
      kfree = lxfi::GetImport(m, kern::kKfree);
      spin_lock = lxfi::GetImport(m, kern::kSpinLock);
      spin_unlock = lxfi::GetImport(m, kern::kSpinUnlock);
      lock = static_cast<uintptr_t*>(kmalloc(sizeof(uintptr_t)));
      return 0;
    };
    kernel->LoadModule(std::move(def));
    // Unrelated modules, shaped like a tenant's filter module: shared and
    // global principals plus two instances holding one WRITE apiece.
    for (int i = 0; i < extra_modules; ++i) {
      kern::ModuleDef extra;
      extra.name = "extra" + std::to_string(i);
      extra.imports = {kern::kPrintk};
      extra.init = [](kern::Module&) { return 0; };
      lxfi::ModuleCtx* mc = rt->CtxOf(kernel->LoadModule(std::move(extra)));
      for (uintptr_t name = 1; name <= 2; ++name) {
        rt->Grant(mc->GetOrCreate(name), lxfi::Capability::Write(&extra_state[4 * i + 2 * (name - 1)],
                                                                 2 * sizeof(uint64_t)));
      }
    }
  }

  lxfi::Principal* shared() { return rt->CtxOf(module)->shared(); }

  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  kern::Module* module = nullptr;
  kern::ImportFn<kern::kPrintk> printk;
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kSpinLock> spin_lock;
  kern::ImportFn<kern::kSpinUnlock> spin_unlock;
  uintptr_t* lock = nullptr;
  std::vector<uint64_t> extra_state;  // the extra instances' granted words
};

// One fixture per extra-module count, built on first use and never
// destroyed: teardown at exit would run after the process-wide reclaimer
// the fixtures retire into was itself destroyed.
Fixture& Loaded(int extra_modules) {
  static auto* fixtures = new std::map<int, std::unique_ptr<Fixture>>();
  std::unique_ptr<Fixture>& f = (*fixtures)[extra_modules];
  if (f == nullptr) {
    f = std::make_unique<Fixture>(extra_modules);
  }
  return *f;
}

Fixture& F() { return Loaded(0); }

constexpr int kExtraModules[] = {0, 16, 128, 512};

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

// The transfer pair with unrelated modules loaded (argument: how many).
void BM_WrapperTransferActionsLoaded(benchmark::State& state) {
  Fixture& f = Loaded(static_cast<int>(state.range(0)));
  lxfi::ScopedPrincipal as_module(f.rt.get(), f.shared());
  for (auto _ : state) {
    void* p = f.kmalloc(128);
    f.kfree(p);
  }
}
BENCHMARK(BM_WrapperTransferActionsLoaded)->Arg(0)->Arg(16)->Arg(128)->Arg(512);

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
// The two sides run in alternating short windows and the gate reads the
// median paired ratio (bench/paired_timing.h).
void RunDisabledTraceGate() {
  Fixture& f = F();
  lxfi::ScopedPrincipal as_module(f.rt.get(), f.shared());
  lxfi::TraceBuffer::SetEnabled(false);
  lxfi::TraceBuffer::Global().ResetForTest();
  constexpr int kPairs = 41;
  constexpr uint64_t kCallsPerWindow = 20000;

  auto plain_op = [&](uint64_t) { f.printk("x"); };
  auto gated_op = [&](uint64_t i) {
    TRACE_EVENT(lxfi::TraceEvent::kGuardEnter, 1, i, 0);
    f.printk("x");
    TRACE_EVENT(lxfi::TraceEvent::kGuardExit, 1, i, 0);
  };
  lxfibench::PairedTiming t = lxfibench::TimePaired(kPairs, kCallsPerWindow, plain_op, gated_op);
  std::printf(
      "trace gate: wrapped crossing %.2f ns, +2 disabled tracepoints %.2f ns "
      "(median paired %+.2f%%)\n",
      t.a_ns, t.b_ns, t.OverheadPct());
  if (t.ratio > 1.03) {
    std::fprintf(stderr,
                 "FAILED: disabled tracepoints add %.2f%% to a wrapped crossing (gate: 3%%)\n",
                 t.OverheadPct());
    std::exit(1);
  }
}

// Pre-gbench module-scaling gate: the kmalloc/kfree transfer pair with 512
// unrelated modules loaded may cost at most 1.2x the pair with none. Each
// column runs against N=0 in alternating short windows and reads the median
// paired ratio (bench/paired_timing.h), so a noisy window spoils one pair,
// not the verdict.
void RunModuleScalingGate() {
  constexpr int kPairs = 41;
  constexpr uint64_t kPairsPerWindow = 4000;
  for (int n : kExtraModules) {
    Loaded(n);  // build every fixture before any timing
  }
  Fixture& base = Loaded(0);
  lxfi::ScopedPrincipal base_as_module(base.rt.get(), base.shared());
  auto base_op = [&base](uint64_t) { base.kfree(base.kmalloc(128)); };
  std::printf("module-scaling gate: kmalloc/kfree pair with N unrelated modules loaded\n");
  double ratio = 1.0;
  for (int n : kExtraModules) {
    if (n == 0) {
      continue;
    }
    Fixture& f = Loaded(n);
    lxfi::ScopedPrincipal as_module(f.rt.get(), f.shared());
    auto op = [&f](uint64_t) { f.kfree(f.kmalloc(128)); };
    lxfibench::PairedTiming t = lxfibench::TimePaired(kPairs, kPairsPerWindow, base_op, op);
    std::printf("  N=%-4d %8.1f ns  vs N=0 %8.1f ns  (median paired %.3fx)\n", n, t.b_ns, t.a_ns,
                t.ratio);
    ratio = t.ratio;
  }
  constexpr int kMost = kExtraModules[sizeof(kExtraModules) / sizeof(kExtraModules[0]) - 1];
  if (ratio > 1.2) {
    std::fprintf(stderr, "FAILED: the pair costs %.2fx with %d modules loaded (gate: 1.2x)\n",
                 ratio, kMost);
    std::exit(1);
  }
}

}  // namespace

// Custom main: `--json FILE` mirrors every row into the shared bench schema
// (bench/gbench_json.h) alongside the normal google-benchmark output.
int main(int argc, char** argv) {
  RunDisabledTraceGate();
  RunModuleScalingGate();
  return lxfibench::RunGbenchMain("bench_wrappers", argc, argv);
}

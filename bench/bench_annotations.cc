// Annotation pipeline benchmarks.
//
// Part 1 — Figure 9: annotated functions / function-pointer types per
// module, all vs unique, plus the capability-iterator count (§8.2).
//
// Part 2 — pre-check memo ablation, done from the bench side: the same
// compiled guard programs run once with repeated argument values (every
// crossing after the first hits the per-principal pre-check memo) and once
// with arguments rotating over three values (the 2-entry memo never hits,
// so every crossing executes its program) — quantifying what the
// EnforcementContext memo buys on top of the registration-time compile
// pass. With --json PATH the ablation rows are also written as a JSON array
// (the CI bench-smoke job uploads that file as an artifact).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/json_out.h"
#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/eval/annotation_stats.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"

namespace {

// Rotation width of the memo-miss stream: one more than the memo entries.
constexpr size_t kRotate = 3;

struct Fixture {
  Fixture() {
    kernel = std::make_unique<kern::Kernel>();
    rt = std::make_unique<lxfi::Runtime>(kernel.get());
    lxfi::InstallKernelApi(kernel.get(), rt.get());
    kern::ModuleDef def;
    def.name = "benchmod";
    def.imports = {kern::kPrintk, kern::kKmalloc, kern::kSpinLock, kern::kSpinUnlock};
    def.init = [this](kern::Module& m) -> int {
      module = &m;
      auto kmalloc = lxfi::GetImport(m, kern::kKmalloc);
      spin_lock = lxfi::GetImport(m, kern::kSpinLock);
      spin_unlock = lxfi::GetImport(m, kern::kSpinUnlock);
      for (size_t i = 0; i < kRotate; ++i) {
        locks[i] = static_cast<uintptr_t*>(kmalloc(sizeof(uintptr_t)));
        objs[i] = kmalloc(128);
      }
      return 0;
    };
    kernel->LoadModule(std::move(def));
  }

  lxfi::Principal* shared() { return rt->CtxOf(module)->shared(); }

  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  kern::Module* module = nullptr;
  kern::ImportFn<kern::kSpinLock> spin_lock;
  kern::ImportFn<kern::kSpinUnlock> spin_unlock;
  uintptr_t* locks[kRotate] = {};
  void* objs[kRotate] = {};  // 128-byte targets the expr-heavy checks hit
};

// ns per iteration of `body`, best of 3 measured passes after one warmup.
template <typename Fn>
double TimeNs(uint64_t iters, Fn&& body) {
  double best = 0;
  for (int rep = 0; rep < 4; ++rep) {
    uint64_t t0 = lxfi::MonotonicNowNs();
    for (uint64_t i = 0; i < iters; ++i) {
      body(i);
    }
    double ns = static_cast<double>(lxfi::MonotonicNowNs() - t0) / static_cast<double>(iters);
    if (rep == 1 || (rep > 1 && ns < best)) {
      best = ns;
    }
  }
  return best;
}

struct Row {
  std::string name;
  double miss_ns = 0;  // arguments rotate: every crossing executes its program
  double hit_ns = 0;   // arguments repeat: the pre-check memo answers
};

// The per-workload streams. Each runs module-privileged so the wrappers take
// the full enforcement path; `rotate` picks the memo-miss argument stream.
double RunWorkload(Fixture& f, int which, bool rotate, uint64_t iters) {
  lxfi::ScopedPrincipal as_module(f.rt.get(), f.shared());
  auto pick = [rotate](uint64_t i) { return rotate ? static_cast<size_t>(i % kRotate) : 0; };
  if (which == 0) {  // check-action crossing pair: spin_lock's pre(check(write, lock, 8))
    return TimeNs(iters, [&](uint64_t i) {
      uintptr_t* lock = f.locks[pick(i)];
      f.spin_lock(lock);
      f.spin_unlock(lock);
    });
  }
  // Guard evaluation only: pre+post of an expression-heavy set.
  const lxfi::AnnotationSet* set = f.rt->annotations().Find("bench_expr_fn");
  uint64_t args[kRotate][3];
  for (size_t r = 0; r < kRotate; ++r) {
    args[r][0] = reinterpret_cast<uint64_t>(f.objs[r]);
    args[r][1] = 64;
    args[r][2] = 3;
  }
  lxfi::CallEnv env;
  env.mc = f.rt->CtxOf(f.module);
  env.principal = f.shared();
  env.kernel_to_module = false;
  env.nargs = 3;
  env.ret = 0;
  env.what = "bench_expr_fn";
  return TimeNs(iters, [&](uint64_t i) {
    env.args = args[pick(i)];
    f.rt->RunActions(set, env, /*post=*/false);
    f.rt->RunActions(set, env, /*post=*/true);
  });
}

std::vector<Row> RunAblation() {
  Fixture f;
  // An expression-heavy pure-check set for the action-only row: two
  // conditionals, arithmetic, and two inline checks per pre+post evaluation.
  const char* kExprText =
      "pre(if ((b + 8) > (c - 1)) check(write, a, 64)) "
      "pre(check(write, a + 8, 8)) "
      "post(if (return <= b) check(write, a, 16))";
  lxfi::Status st = f.rt->annotations().Register("bench_expr_fn", {"a", "b", "c"}, kExprText);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_expr_fn registration failed: %s\n", st.ToString().c_str());
  }

  const char* kNames[] = {
      "wrapper crossing: check action (spin_lock pair)",
      "guard eval only: expr-heavy pre+post",
  };
  constexpr uint64_t kIters = 400000;
  std::vector<Row> rows;
  for (int w = 0; w < 2; ++w) {
    Row row;
    row.name = kNames[w];
    row.miss_ns = RunWorkload(f, w, /*rotate=*/true, kIters);
    row.hit_ns = RunWorkload(f, w, /*rotate=*/false, kIters);
    rows.push_back(row);
  }
  return rows;
}

void PrintAblation(const std::vector<Row>& rows) {
  std::printf("=== Pre-check memo ablation ===\n");
  std::printf("%-52s %12s %12s %9s\n", "workload", "miss ns", "hit ns", "speedup");
  for (const Row& r : rows) {
    std::printf("%-52s %12.1f %12.1f %8.2fx\n", r.name.c_str(), r.miss_ns, r.hit_ns,
                r.miss_ns / r.hit_ns);
  }
  std::printf("(miss: arguments rotate over %zu values; hit: arguments repeat)\n\n", kRotate);
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  lxfibench::JsonWriter json("bench_annotations");
  json.Meta("mode", "memo_ablation");
  for (const Row& r : rows) {
    json.AddRow(r.name)
        .Set("memo_miss_ns", r.miss_ns)
        .Set("memo_hit_ns", r.hit_ns)
        .Set("speedup", r.miss_ns / r.hit_ns);
  }
  json.WriteFile(path);
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

  std::vector<Row> rows = RunAblation();
  PrintAblation(rows);
  if (json_path != nullptr) {
    WriteJson(rows, json_path);
  }

  eval::AnnotationSurvey survey = eval::RunAnnotationSurvey();
  std::printf("=== Figure 9: annotation effort per module ===\n");
  std::printf("%s", eval::FormatSurveyTable(survey).c_str());
  std::printf(
      "\nshape check: similar modules share most annotations (unique << all),\n"
      "matching the paper's observation that supporting a new module gets cheaper\n"
      "as more modules are annotated.\n");
  return 0;
}

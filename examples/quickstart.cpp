// Quickstart: isolate a brand-new kernel module with LXFI.
//
// Shows the full workflow from §3 of the paper:
//   1. stand up a simulated kernel and attach the LXFI runtime,
//   2. annotate a kernel interface (the §1 spin_lock_init example),
//   3. write a module whose stores and imports are instrumented,
//   4. watch a benign call succeed and a capability-violating call fail.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "src/base/log.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"

namespace {

struct HelloState {
  kern::Module* m = nullptr;
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kSpinLockInit> spin_lock_init;
  uintptr_t* my_lock = nullptr;
};

kern::ModuleDef HelloModuleDef(std::shared_ptr<HelloState> st) {
  kern::ModuleDef def;
  def.name = "hello";
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kSpinLockInit, kern::kPrintk};
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->spin_lock_init = lxfi::GetImport(m, kern::kSpinLockInit);
    // kmalloc's post annotation grants this module WRITE over the new
    // allocation, so initializing a lock inside it is fine.
    st->my_lock = static_cast<uintptr_t*>(st->kmalloc(sizeof(uintptr_t)));
    st->spin_lock_init(st->my_lock);
    return 0;
  };
  return def;
}

}  // namespace

int main() {
  lxfi::SetLogLevel(lxfi::LogLevel::kError);

  // 1. Kernel + runtime. InstallKernelApi registers the exported kernel
  //    functions together with their capability annotations (Figure 4
  //    style) and the capability iterators.
  kern::Kernel kernel;
  lxfi::Runtime rt(&kernel);
  lxfi::InstallKernelApi(&kernel, &rt);

  // 2. Load the module: LXFI grants its initial capabilities (CALL for each
  //    imported symbol, WRITE for its sections) and wraps every boundary.
  auto st = std::make_shared<HelloState>();
  kern::Module* m = kernel.LoadModule(HelloModuleDef(st));
  if (m == nullptr) {
    std::printf("module rejected by LXFI\n");
    return 1;
  }
  std::printf("module loaded; lock initialized inside module-owned memory: ok\n");

  // 3. Now replay the paper's §1 attack: trick spin_lock_init into zeroing
  //    memory the module does NOT own — the uid field of the current
  //    process. The annotation pre(check(write, lock, 8)) stops it.
  kern::Task* task = kernel.procs().CreateTask(1000);
  kernel.SetCurrentTask(task);
  auto* uid_as_lock = reinterpret_cast<uintptr_t*>(&task->cred);
  lxfi::ScopedPrincipal as_module(&rt, rt.CtxOf(m)->shared());
  try {
    st->spin_lock_init(uid_as_lock);  // would set uid=0 on a stock kernel
    std::printf("UNEXPECTED: the malicious spin_lock_init went through!\n");
    return 1;
  } catch (const lxfi::LxfiViolation& v) {
    std::printf("malicious spin_lock_init blocked: %s\n", v.what());
  }
  std::printf("task uid is still %u — privilege escalation prevented\n", task->cred.uid);
  return 0;
}

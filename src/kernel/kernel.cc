#include "src/kernel/kernel.h"

#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/kernel/panic.h"

namespace kern {

Kernel::Kernel(size_t arena_bytes) : arena_(arena_bytes), slab_(&arena_) {
  procs_ = std::make_unique<ProcessTable>(this);
  CreateKthread();  // boot context
  counters_.Register(this, "trace", [](const lxfi::CounterRegistry::Sink& sink) {
    sink("drops", lxfi::TraceBuffer::Global().TotalDrops());
    sink("enabled", lxfi::TraceBuffer::EnabledRelaxed() ? 1 : 0);
  });
}

Kernel::~Kernel() = default;

void Kernel::set_isolation(IsolationHooks* hooks) {
  isolation_ = hooks;
  if (isolation_ != nullptr) {
    for (auto& ctx : kthreads_) {
      isolation_->OnKthreadCreate(ctx.get());
    }
  }
}

KthreadContext* Kernel::CreateKthread() {
  auto ctx = std::make_unique<KthreadContext>();
  ctx->id = next_kthread_id_.fetch_add(1, std::memory_order_relaxed);
  KthreadContext* raw = ctx.get();
  {
    std::lock_guard<std::mutex> lock(kthreads_mu_);
    kthreads_.push_back(std::move(ctx));
    if (current_ctx_ == nullptr) {
      current_ctx_ = raw;
    }
  }
  if (isolation_ != nullptr) {
    isolation_->OnKthreadCreate(raw);
  }
  return raw;
}

void Kernel::DeliverInterrupt(const std::function<void()>& handler) {
  // Interrupts are delivered to the CPU the raising device belongs to, i.e.
  // the calling thread's current context.
  KthreadContext* ctx = current();
  ++ctx->irq_depth;
  if (isolation_ != nullptr) {
    isolation_->OnInterruptEnter(ctx);
  }
  handler();
  if (isolation_ != nullptr) {
    isolation_->OnInterruptExit(ctx);
  }
  --ctx->irq_depth;
}

Module* Kernel::LoadModule(ModuleDef def) {
  auto module = std::make_unique<Module>(this, std::move(def));
  Module* m = module.get();
  // Section layout: page-aligned so writer-set pages and capability ranges
  // never straddle another module's sections.
  if (m->def().data_size > 0) {
    m->data_ = arena_.Allocate((m->def().data_size + kPageSize - 1) & ~(kPageSize - 1), kPageSize);
    KERN_BUG_ON(m->data_ == nullptr);
  }
  if (m->def().rodata_size > 0) {
    m->rodata_ =
        arena_.Allocate((m->def().rodata_size + kPageSize - 1) & ~(kPageSize - 1), kPageSize);
    KERN_BUG_ON(m->rodata_ == nullptr);
  }
  if (m->def().init_sections) {
    m->def().init_sections(*m);
  }
  modules_.push_back(std::move(module));

  if (isolation_ != nullptr) {
    if (!isolation_->OnModuleLoad(m)) {
      LXFI_LOG_ERROR("module %s rejected by isolation runtime", m->name().c_str());
      modules_.pop_back();
      return nullptr;
    }
  } else {
    // Stock kernel: module functions dispatch directly with no wrappers. The
    // ahash stays 0 and no capability state exists.
    for (const FuncDecl& fd : m->def().functions) {
      uintptr_t addr = funcs_.RegisterAny(TextKind::kModuleText, fd.name, fd.invoker, 0, m);
      m->func_addrs_[fd.name] = addr;
    }
  }

  if (m->def().patch_relocs) {
    m->def().patch_relocs(*m);
  }

  int rc;
  if (m->def().init) {
    // A throwing init (e.g. a violation raised mid-init under an isolation
    // policy that throws) must not leak a half-loaded module: tear down the
    // isolation state and drop the module before propagating, exactly like
    // the rc != 0 path.
    try {
      if (isolation_ != nullptr) {
        rc = isolation_->CallModuleInit(m, [m] { return m->def().init(*m); });
      } else {
        rc = m->def().init(*m);
      }
    } catch (...) {
      LXFI_LOG_ERROR("module %s init threw", m->name().c_str());
      if (isolation_ != nullptr) {
        isolation_->OnModuleUnload(m);
      }
      modules_.pop_back();
      throw;
    }
  } else {
    rc = 0;
  }
  if (rc != 0) {
    LXFI_LOG_ERROR("module %s init failed: %d", m->name().c_str(), rc);
    if (isolation_ != nullptr) {
      isolation_->OnModuleUnload(m);
    }
    modules_.pop_back();
    return nullptr;
  }
  m->state_ = ModuleState::kLive;
  return m;
}

void Kernel::UnloadModule(Module* module) {
  if (module->state_ == ModuleState::kUnloaded) {
    return;
  }
  if (module->def().exit_fn) {
    if (isolation_ != nullptr) {
      isolation_->CallModuleExit(module, [module] { module->def().exit_fn(*module); });
    } else {
      module->def().exit_fn(*module);
    }
  }
  if (isolation_ != nullptr) {
    isolation_->OnModuleUnload(module);
  }
  module->state_ = ModuleState::kUnloaded;
}

void Kernel::ForceUnloadModule(Module* module) {
  if (module->state_ == ModuleState::kUnloaded) {
    return;
  }
  // Containment teardown: a quarantined module's exit_fn runs against a
  // sealed arena, so its own stores/frees may violate. Absorb the failure —
  // bulk isolation teardown below reclaims everything the exit would have
  // freed — instead of leaving the module half-unloaded and still kLive.
  if (module->def().exit_fn) {
    try {
      if (isolation_ != nullptr) {
        isolation_->CallModuleExit(module, [module] { module->def().exit_fn(*module); });
      } else {
        module->def().exit_fn(*module);
      }
    } catch (...) {
      LXFI_LOG_WARN("module %s exit threw during forced unload", module->name().c_str());
    }
  }
  if (isolation_ != nullptr) {
    isolation_->OnModuleUnload(module);
  }
  module->state_ = ModuleState::kUnloaded;
}

Module* Kernel::FindModule(const std::string& name) {
  for (auto& m : modules_) {
    if (m->name() == name && m->state() != ModuleState::kUnloaded) {
      return m.get();
    }
  }
  return nullptr;
}

}  // namespace kern

#include "src/lxfi/principal.h"

#include "src/base/string_util.h"
#include "src/kernel/module.h"
#include "src/lxfi/runtime.h"

namespace lxfi {

std::string Principal::DebugName() const {
  const std::string& mod = module_->name();
  switch (kind_) {
    case PrincipalKind::kShared:
      return mod + "::<shared>";
    case PrincipalKind::kGlobal:
      return mod + "::<global>";
    case PrincipalKind::kInstance:
      return StrFormat("%s::%#llx", mod.c_str(), static_cast<unsigned long long>(name_));
  }
  return mod + "::?";
}

ModuleCtx::ModuleCtx(Runtime* runtime, kern::Module* kmod)
    : runtime_(runtime),
      kmod_(kmod),
      shared_(this, PrincipalKind::kShared, 0),
      global_(this, PrincipalKind::kGlobal, 0) {
  PublishSnapshot();
}

ModuleCtx::~ModuleCtx() {
  // Unload runs from a quiescent context (no concurrent enforcement against
  // a module being torn down); the last snapshot can be freed in place.
  delete inst_snapshot_;
}

const std::string& ModuleCtx::name() const { return kmod_->name(); }

void ModuleCtx::PublishSnapshot() {
  auto* fresh = new InstanceSnapshot();
  fresh->items.reserve(instances_.size());
  for (const auto& inst : instances_) {
    fresh->items.push_back(inst.get());
  }
  InstanceSnapshot* old = inst_snapshot_;
  __atomic_store_n(&inst_snapshot_, fresh, __ATOMIC_RELEASE);
  if (old != nullptr) {
    EpochReclaimer::Global().Retire([old] { delete old; });
  }
}

Principal* ModuleCtx::GetOrCreate(uintptr_t name) {
  // Lock-free hit path: per-crossing principal() resolution lands here on
  // every kernel->module call, and the principal almost always exists.
  Principal* found = nullptr;
  if (by_name_.FindValueConcurrent(name, &found)) {
    return found;
  }
  SpinGuard guard(mu_);
  if (Principal* const* raced = by_name_.Find(name)) {
    return *raced;
  }
  instances_.push_back(std::make_unique<Principal>(this, PrincipalKind::kInstance, name));
  Principal* p = instances_.back().get();
  p->holder_keys().forgotten = holders_forgotten_;
  by_name_.Insert(name, p);
  PublishSnapshot();
  TRACE_EVENT(TraceEvent::kPrincipalCreate, p->trace_id(), name, 0);
  return p;
}

Principal* ModuleCtx::Lookup(uintptr_t name) const {
  Principal* const* found = by_name_.Find(name);
  return found == nullptr ? nullptr : *found;
}

bool ModuleCtx::Alias(uintptr_t existing, uintptr_t alias) {
  SpinGuard guard(mu_);
  Principal* const* found = by_name_.Find(existing);
  if (found == nullptr) {
    return false;
  }
  by_name_.Insert(alias, *found);
  return true;
}

void ModuleCtx::DropInstance(uintptr_t name) {
  std::unique_ptr<Principal> doomed;
  {
    SpinGuard guard(mu_);
    Principal* const* found = by_name_.Find(name);
    if (found == nullptr) {
      return;
    }
    Principal* p = *found;
    // Remove all names bound to this principal.
    by_name_.EraseIf([p](uint64_t, Principal* const& bound) { return bound == p; });
    for (auto it = instances_.begin(); it != instances_.end(); ++it) {
      if (it->get() == p) {
        doomed = std::move(*it);
        instances_.erase(it);
        break;
      }
    }
    PublishSnapshot();
  }
  if (doomed == nullptr) {
    return;
  }
  TRACE_EVENT(TraceEvent::kPrincipalDrop, doomed->trace_id(), name, 0);
  // Lock-free probes and revokers that copied a holder list naming the
  // principal may still hold it until their next quiescent state; leave the
  // holder index now, so no revoker picks it up after the grace period
  // starts. Its capability tables (whose destructor also bumps the
  // revocation epoch) die with it after the grace period.
  runtime_->holder_index().Forget(doomed.get());
  Principal* raw = doomed.release();
  EpochReclaimer::Global().Retire([raw] { delete raw; });
}

void ModuleCtx::ForgetHolders() {
  HolderIndex& index = runtime_->holder_index();
  index.Forget(&shared_);
  index.Forget(&global_);
  SpinGuard guard(mu_);
  holders_forgotten_ = true;
  for (const auto& inst : instances_) {
    index.Forget(inst.get());
  }
}

// The one copy of the ownership fallback chain (§3.1): the principal itself,
// then the module's shared principal, then — for the global principal — the
// union over every instance, iterated through the published snapshot so it
// cannot race instance creation. `probe` answers "does this table satisfy
// the query" for one principal.
template <typename Probe>
bool ModuleCtx::OwnsChain(const Principal* p, Probe&& probe) const {
  if (probe(*p)) {
    return true;
  }
  if (p != &shared_ && probe(shared_)) {
    return true;
  }
  if (p->kind() == PrincipalKind::kGlobal) {
    const InstanceSnapshot* snap = AcquireSnapshot();
    for (const Principal* inst : snap->items) {
      if (probe(*inst)) {
        return true;
      }
    }
  }
  return false;
}

// Heap-partition span as a chain step, with a definitive answer either way:
// a principal's unsealed partition span satisfies WRITE queries exactly like
// a granted range would (reported as the memo-fillable range [*lo, *hi)),
// and a *sealed* span denies without consulting the principal's table — the
// quarantined heap fails closed even where per-object kmalloc grants still
// sit in the table. Folding the span into the chain (not just the
// store-guard fast path) keeps the cap-table slow path and the arena fast
// path giving identical allow/deny answers by construction — the slow path
// is the differential reference.
enum class ArenaAnswer { kAllow, kDeny, kNotMine };

static ArenaAnswer ArenaWriteProbe(const Principal& q, uintptr_t addr, size_t size, uintptr_t* lo,
                                   uintptr_t* hi) {
  if (!q.ArenaContains(addr, size)) {
    return ArenaAnswer::kNotMine;
  }
  if (q.arena_sealed()) {
    return ArenaAnswer::kDeny;
  }
  if (lo != nullptr) {
    *lo = q.arena_lo();
    *hi = q.arena_hi();
  }
  return ArenaAnswer::kAllow;
}

bool ModuleCtx::Owns(const Principal* p, const Capability& cap) const {
  return OwnsChain(p, [&cap](const Principal& q) {
    if (cap.kind == CapKind::kWrite) {
      switch (ArenaWriteProbe(q, cap.addr, cap.size, nullptr, nullptr)) {
        case ArenaAnswer::kAllow:
          return true;
        case ArenaAnswer::kDeny:
          return false;
        case ArenaAnswer::kNotMine:
          break;
      }
    }
    return q.caps().Check(cap);
  });
}

bool ModuleCtx::OwnsWrite(const Principal* p, uintptr_t addr, size_t size, uintptr_t* lo,
                          uintptr_t* hi) const {
  return OwnsChain(p, [&](const Principal& q) {
    switch (ArenaWriteProbe(q, addr, size, lo, hi)) {
      case ArenaAnswer::kAllow:
        return true;
      case ArenaAnswer::kDeny:
        return false;
      case ArenaAnswer::kNotMine:
        break;
    }
    return q.caps().FindWriteRange(addr, size, lo, hi);
  });
}

bool ModuleCtx::OwnsCall(const Principal* p, uintptr_t target) const {
  return OwnsChain(p, [target](const Principal& q) { return q.caps().CheckCall(target); });
}

}  // namespace lxfi

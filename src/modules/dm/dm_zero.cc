#include "src/kernel/kernel.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/modules/dm/dm_common.h"

namespace mods {
namespace {

int Ctr(DmZeroState& st, kern::DmTarget* target, const char* params) { return 0; }

void Dtr(DmZeroState& st, kern::DmTarget* target) {}

// Reads return zeros; writes are discarded. The smallest possible target —
// it is in Figure 9 precisely because it needs almost no annotations beyond
// the shared dm interface.
int Map(DmZeroState& st, kern::DmTarget* target, kern::Bio* bio) {
  kern::Module& m = *st.m;
  if (!bio->write) {
    lxfi::MemSet(m, bio->data, 0, bio->size);
  }
  return 0;  // the core records success on the bio
}

}  // namespace

kern::ModuleDef DmZeroModuleDef() {
  auto st = std::make_shared<DmZeroState>();
  kern::ModuleDef def;
  def.name = "dm-zero";
  def.data_size = sizeof(kern::DmTargetType);
  def.imports = DmImportNames();
  def.functions = {
      lxfi::DeclareFunction("zero_ctr", kern::kDmCtr,
                            [st](kern::DmTarget* t, const char* p) { return Ctr(*st, t, p); }),
      lxfi::DeclareFunction("zero_dtr", kern::kDmDtr, [st](kern::DmTarget* t) { Dtr(*st, t); }),
      lxfi::DeclareFunction("zero_map", kern::kDmMap,
                            [st](kern::DmTarget* t, kern::Bio* bio) { return Map(*st, t, bio); }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    BindDmImports(m, &st->api);
    auto* type = static_cast<kern::DmTargetType*>(m.data());
    st->type = type;
    lxfi::Store(m, &type->name, static_cast<const char*>("zero"));
    lxfi::Store(m, &type->ctr, m.FuncAddr("zero_ctr"));
    lxfi::Store(m, &type->dtr, m.FuncAddr("zero_dtr"));
    lxfi::Store(m, &type->map, m.FuncAddr("zero_map"));
    lxfi::Store(m, &type->module, &m);
    return st->api.dm_register_target(type);
  };
  def.exit_fn = [st](kern::Module& m) { st->api.dm_unregister_target(st->type); };
  return def;
}

std::shared_ptr<DmZeroState> GetDmZero(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<DmZeroState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

}  // namespace mods

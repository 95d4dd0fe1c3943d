#include "src/kernel/kernel.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/modules/dm/dm_common.h"

namespace mods {

void CryptXorTransform(kern::Module& m, uint8_t* dst, const uint8_t* src, uint32_t n,
                       uint8_t key, uint64_t sector) {
  lxfi::StoreEach(m, dst, n, [&](size_t i) {
    return static_cast<uint8_t>(src[i] ^ CryptKeystream(key, sector, i));
  });
}

namespace {

int Ctr(DmCryptState& st, kern::DmTarget* target, const char* params) {
  kern::Module& m = *st.m;
  auto* priv = static_cast<DmCryptTarget*>(st.api.kmalloc(sizeof(DmCryptTarget)));
  if (priv == nullptr) {
    return -kern::kEnomem;
  }
  uint8_t key = 0;
  for (const char* p = params; p != nullptr && *p != '\0'; ++p) {
    key = static_cast<uint8_t>(key * 31 + static_cast<uint8_t>(*p));
  }
  lxfi::Store(m, &priv->key, key);
  lxfi::Store(m, &target->private_data, static_cast<void*>(priv));
  return 0;
}

void Dtr(DmCryptState& st, kern::DmTarget* target) {
  if (target->private_data != nullptr) {
    st.api.kfree(target->private_data);
  }
}

int Map(DmCryptState& st, kern::DmTarget* target, kern::Bio* bio) {
  kern::Module& m = *st.m;
  auto* priv = static_cast<DmCryptTarget*>(target->private_data);
  lxfi::Store(m, &priv->ios, priv->ios + 1);

  // Bounce buffer + module-owned bio for the underlying device.
  auto* bounce = static_cast<uint8_t*>(st.api.kmalloc(bio->size));
  auto* sub = static_cast<kern::Bio*>(st.api.kmalloc(sizeof(kern::Bio)));
  if (bounce == nullptr || sub == nullptr) {
    st.api.kfree(bounce);
    st.api.kfree(sub);
    return -kern::kEnomem;  // the core records the failure on the bio
  }
  lxfi::Store(m, &sub->sector, bio->sector);
  lxfi::Store(m, &sub->size, bio->size);
  lxfi::Store(m, &sub->data, bounce);
  lxfi::Store(m, &sub->write, bio->write);

  int rc;
  if (bio->write) {
    CryptXorTransform(m, bounce, bio->data, bio->size, priv->key, bio->sector);
    rc = st.api.submit_bio(target->underlying, sub);
  } else {
    rc = st.api.submit_bio(target->underlying, sub);
    if (rc == 0) {
      CryptXorTransform(m, bio->data, bounce, bio->size, priv->key, bio->sector);
    }
  }
  st.api.kfree(sub);
  st.api.kfree(bounce);
  // DM_MAPIO_SUBMITTED on success; a negative errno tells the core to fail
  // the bio (the target holds no capability over the submitter's struct).
  return rc;
}

}  // namespace

kern::ModuleDef DmCryptModuleDef() {
  auto st = std::make_shared<DmCryptState>();
  kern::ModuleDef def;
  def.name = "dm-crypt";
  def.data_size = sizeof(kern::DmTargetType);
  def.imports = DmImportNames();
  def.functions = {
      lxfi::DeclareFunction<int, kern::DmTarget*, const char*>(
          "crypt_ctr", "target_type::ctr",
          [st](kern::DmTarget* t, const char* p) { return Ctr(*st, t, p); }),
      lxfi::DeclareFunction<void, kern::DmTarget*>(
          "crypt_dtr", "target_type::dtr", [st](kern::DmTarget* t) { Dtr(*st, t); }),
      lxfi::DeclareFunction<int, kern::DmTarget*, kern::Bio*>(
          "crypt_map", "target_type::map",
          [st](kern::DmTarget* t, kern::Bio* bio) { return Map(*st, t, bio); }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    BindDmImports(m, &st->api);
    auto* type = static_cast<kern::DmTargetType*>(m.data());
    st->type = type;
    lxfi::Store(m, &type->name, static_cast<const char*>("crypt"));
    lxfi::Store(m, &type->ctr, m.FuncAddr("crypt_ctr"));
    lxfi::Store(m, &type->dtr, m.FuncAddr("crypt_dtr"));
    lxfi::Store(m, &type->map, m.FuncAddr("crypt_map"));
    lxfi::Store(m, &type->module, &m);
    return st->api.dm_register_target(type);
  };
  def.exit_fn = [st](kern::Module& m) { st->api.dm_unregister_target(st->type); };
  return def;
}

std::shared_ptr<DmCryptState> GetDmCrypt(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<DmCryptState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

}  // namespace mods

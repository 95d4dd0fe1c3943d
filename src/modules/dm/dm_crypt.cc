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

// Frees a target's private state and whatever of its I/O buffers exist.
void FreeTarget(DmCryptState& st, DmCryptTarget* priv) {
  for (uint8_t* bounce : priv->bounce) {
    if (bounce != nullptr) {
      st.api.kfree(bounce);
    }
  }
  if (priv->sub != nullptr) {
    st.api.kfree(priv->sub);
  }
  st.api.kfree(priv);
}

int Ctr(DmCryptState& st, kern::DmTarget* target, const char* params) {
  kern::Module& m = *st.m;
  auto* priv = static_cast<DmCryptTarget*>(st.api.kmalloc(sizeof(DmCryptTarget)));
  if (priv == nullptr) {
    return -kern::kEnomem;
  }
  // DmCreate runs no dtr after a failed ctr, so a partial set is freed here.
  auto* sub = static_cast<kern::Bio*>(st.api.kmalloc(sizeof(kern::Bio)));
  lxfi::Store(m, &priv->sub, sub);
  bool ok = sub != nullptr;
  for (int b = 0; ok && b < kCryptBounces; ++b) {
    auto* bounce = static_cast<uint8_t*>(st.api.kmalloc((size_t{1} << b) * kern::kSectorSize));
    lxfi::Store(m, &priv->bounce[b], bounce);
    ok = bounce != nullptr;
  }
  if (!ok) {
    FreeTarget(st, priv);
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
    FreeTarget(st, static_cast<DmCryptTarget*>(target->private_data));
  }
}

// Points the target's sub-bio at [data, data + size) of the underlying
// device from `sector` and submits it.
int SubmitSub(DmCryptState& st, kern::DmTarget* target, kern::Bio* sub, uint64_t sector,
              uint8_t* data, uint32_t size) {
  kern::Module& m = *st.m;
  lxfi::Store(m, &sub->sector, sector);
  lxfi::Store(m, &sub->size, size);
  lxfi::Store(m, &sub->data, data);
  return st.api.submit_bio(target->underlying, sub);
}

int Map(DmCryptState& st, kern::DmTarget* target, kern::Bio* bio) {
  kern::Module& m = *st.m;
  auto* priv = static_cast<DmCryptTarget*>(target->private_data);
  lxfi::SpinGuard guard(priv->lock);
  lxfi::Store(m, &priv->ios, priv->ios + 1);
  lxfi::Store(m, &priv->sub->write, bio->write);
  // Negative errnos tell the core to fail the bio (the target holds no
  // capability over the submitter's struct); 0 is DM_MAPIO_SUBMITTED.
  if (!bio->write) {
    // In place: the map transfer already handed this target the payload,
    // so the sub-bio moves exactly that grant down and back.
    int rc = SubmitSub(st, target, priv->sub, bio->sector, bio->data, bio->size);
    if (rc == 0) {
      CryptXorTransform(m, bio->data, bio->data, bio->size, priv->key, bio->sector);
    }
    return rc;
  }
  if (bio->size % kern::kSectorSize != 0) {
    return -kern::kEinval;  // a partial sector fills no whole bounce
  }
  // Largest bounce that fits first: each piece fills one whole bounce, so
  // an n-sector write takes at most log2(n) + 1 pieces, plus one per
  // further 64 sectors.
  const uint32_t sectors = bio->size / kern::kSectorSize;
  for (uint32_t done = 0; done < sectors;) {
    int b = kCryptBounces - 1;
    while ((1u << b) > sectors - done) {
      --b;
    }
    const uint32_t bytes = (1u << b) * kern::kSectorSize;
    const uint64_t sector = bio->sector + done;
    CryptXorTransform(m, priv->bounce[b], bio->data + done * kern::kSectorSize, bytes, priv->key,
                      sector);
    int rc = SubmitSub(st, target, priv->sub, sector, priv->bounce[b], bytes);
    if (rc != 0) {
      return rc;
    }
    done += 1u << b;
  }
  return 0;
}

}  // namespace

kern::ModuleDef DmCryptModuleDef() {
  auto st = std::make_shared<DmCryptState>();
  kern::ModuleDef def;
  def.name = "dm-crypt";
  def.data_size = sizeof(kern::DmTargetType);
  def.imports = DmImportNames();
  def.functions = {
      lxfi::DeclareFunction("crypt_ctr", kern::kDmCtr,
                            [st](kern::DmTarget* t, const char* p) { return Ctr(*st, t, p); }),
      lxfi::DeclareFunction("crypt_dtr", kern::kDmDtr, [st](kern::DmTarget* t) { Dtr(*st, t); }),
      lxfi::DeclareFunction("crypt_map", kern::kDmMap,
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

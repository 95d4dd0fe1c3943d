#include <cstring>

#include "src/kernel/kernel.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/modules/dm/dm_common.h"

namespace mods {
namespace {

// ctr params: name of the COW device ("cowdev0"). The dm_get_device
// annotation grants this target a REF capability for exactly that device —
// the target can never write any *other* block device.
int Ctr(DmSnapshotState& st, kern::DmTarget* target, const char* params) {
  kern::Module& m = *st.m;
  kern::BlockDevice* cow = st.api.dm_get_device(params);
  if (cow == nullptr) {
    return -kern::kEnodev;
  }
  uint64_t chunks =
      (target->underlying->sectors + kSnapChunkSectors - 1) / kSnapChunkSectors;
  auto* priv = static_cast<DmSnapshotTarget*>(st.api.kmalloc(sizeof(DmSnapshotTarget)));
  auto* bitmap = static_cast<uint8_t*>(st.api.kmalloc(chunks));
  if (priv == nullptr || bitmap == nullptr) {
    return -kern::kEnomem;
  }
  lxfi::Store(m, &priv->cow, cow);
  lxfi::Store(m, &priv->copied_bitmap, bitmap);
  lxfi::Store(m, &priv->chunks, chunks);
  lxfi::Store(m, &target->private_data, static_cast<void*>(priv));
  return 0;
}

void Dtr(DmSnapshotState& st, kern::DmTarget* target) {
  auto* priv = static_cast<DmSnapshotTarget*>(target->private_data);
  if (priv != nullptr) {
    st.api.kfree(priv->copied_bitmap);
    st.api.kfree(priv);
  }
}

// Copies one origin chunk to the COW device using module-owned bios.
int CopyChunk(DmSnapshotState& st, kern::DmTarget* target, DmSnapshotTarget* priv,
              uint64_t chunk) {
  kern::Module& m = *st.m;
  uint32_t bytes = kSnapChunkSectors * kern::kSectorSize;
  auto* buf = static_cast<uint8_t*>(st.api.kmalloc(bytes));
  auto* bio = static_cast<kern::Bio*>(st.api.kmalloc(sizeof(kern::Bio)));
  if (buf == nullptr || bio == nullptr) {
    return -kern::kEnomem;
  }
  lxfi::Store(m, &bio->sector, chunk * kSnapChunkSectors);
  lxfi::Store(m, &bio->size, bytes);
  lxfi::Store(m, &bio->data, buf);
  lxfi::Store(m, &bio->write, false);
  int rc = st.api.submit_bio(target->underlying, bio);
  if (rc == 0) {
    lxfi::Store(m, &bio->write, true);
    rc = st.api.submit_bio(priv->cow, bio);
  }
  st.api.kfree(bio);
  st.api.kfree(buf);
  if (rc == 0) {
    lxfi::Store(m, &priv->copied_bitmap[chunk], uint8_t{1});
    lxfi::Store(m, &priv->cow_copies, priv->cow_copies + 1);
  }
  return rc;
}

int Map(DmSnapshotState& st, kern::DmTarget* target, kern::Bio* bio) {
  auto* priv = static_cast<DmSnapshotTarget*>(target->private_data);
  if (bio->write) {
    uint64_t first = bio->sector / kSnapChunkSectors;
    uint64_t last = (bio->sector + bio->size / kern::kSectorSize - 1) / kSnapChunkSectors;
    for (uint64_t chunk = first; chunk <= last && chunk < priv->chunks; ++chunk) {
      if (priv->copied_bitmap[chunk] == 0) {
        int rc = CopyChunk(st, target, priv, chunk);
        if (rc != 0) {
          return rc;  // negative errno: the core fails the bio for us
        }
      }
    }
  }
  return kern::kDmMapioRemapped;  // the core submits to the origin for us
}

}  // namespace

kern::ModuleDef DmSnapshotModuleDef() {
  auto st = std::make_shared<DmSnapshotState>();
  kern::ModuleDef def;
  def.name = "dm-snapshot";
  def.data_size = sizeof(kern::DmTargetType);
  def.imports = DmImportNames();
  def.functions = {
      lxfi::DeclareFunction("snapshot_ctr", kern::kDmCtr,
                            [st](kern::DmTarget* t, const char* p) { return Ctr(*st, t, p); }),
      lxfi::DeclareFunction("snapshot_dtr", kern::kDmDtr, [st](kern::DmTarget* t) { Dtr(*st, t); }),
      lxfi::DeclareFunction("snapshot_map", kern::kDmMap,
                            [st](kern::DmTarget* t, kern::Bio* bio) { return Map(*st, t, bio); }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    BindDmImports(m, &st->api);
    auto* type = static_cast<kern::DmTargetType*>(m.data());
    st->type = type;
    lxfi::Store(m, &type->name, static_cast<const char*>("snapshot"));
    lxfi::Store(m, &type->ctr, m.FuncAddr("snapshot_ctr"));
    lxfi::Store(m, &type->dtr, m.FuncAddr("snapshot_dtr"));
    lxfi::Store(m, &type->map, m.FuncAddr("snapshot_map"));
    lxfi::Store(m, &type->module, &m);
    return st->api.dm_register_target(type);
  };
  def.exit_fn = [st](kern::Module& m) { st->api.dm_unregister_target(st->type); };
  return def;
}

std::shared_ptr<DmSnapshotState> GetDmSnapshot(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<DmSnapshotState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

}  // namespace mods

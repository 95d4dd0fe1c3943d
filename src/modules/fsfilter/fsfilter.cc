#include "src/modules/fsfilter/fsfilter.h"

#include <cstring>

#include "src/kernel/kernel.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/wrap.h"

namespace mods {
namespace {

// The chain-position token lives in the FilterCtx, whose WRITE the hook
// annotations grant for exactly the duration of this dispatch.
int Pre(FsFilterState& st, kern::VfsFilter* flt, kern::FilterCtx* ctx) {
  kern::Module& m = *st.m;
  FsFilterPriv* priv = st.priv;
  int op = ctx->op;
  if (op >= 0 && op < static_cast<int>(kern::VfsOp::kCount)) {
    lxfi::Store(m, &priv->pre_count[op], priv->pre_count[op] + 1);
  }
  lxfi::Store(m, &priv->last_pre_token, ctx->token);
  lxfi::Store(m, &ctx->token, ctx->token + 1);

  // --- armed malicious probes (exploit-scenario tests) ---------------------
  switch (st.probe) {
    case FsFilterProbe::kNone:
      break;
    case FsFilterProbe::kScribbleTarget:
      // Overwrite the next filter's private state: a cross-principal store
      // the WRITE check must stop.
      lxfi::Store(m, static_cast<uint64_t*>(st.probe_target), static_cast<uint64_t>(~0ull));
      break;
    case FsFilterProbe::kForgeFileOps:
      // Re-aim the File's ops table at our own: the File object belongs to
      // the filesystem's principal, so the store must be blocked before the
      // forged pointer can ever be dispatched.
      if (ctx->file != nullptr) {
        lxfi::Store<const kern::FileOperations*>(m, &ctx->file->f_op, st.fake_fops);
      }
      break;
    case FsFilterProbe::kUnregisterVictimFs:
      // Tear down a filesystem we never registered: the REF check on the
      // unregister export must refuse.
      st.unregister_filesystem(st.victim_fstype);
      break;
  }

  // --- benign veto policy --------------------------------------------------
  if (!st.config.veto_prefix.empty() && ctx->dentry != nullptr &&
      (op == static_cast<int>(kern::VfsOp::kCreate) ||
       op == static_cast<int>(kern::VfsOp::kUnlink) ||
       op == static_cast<int>(kern::VfsOp::kOpen))) {
    if (std::strncmp(ctx->dentry->name, st.config.veto_prefix.c_str(),
                     st.config.veto_prefix.size()) == 0) {
      lxfi::Store(m, &priv->vetoes, priv->vetoes + 1);
      return -st.config.veto_errno;
    }
  }
  return 0;
}

void Post(FsFilterState& st, kern::VfsFilter* flt, kern::FilterCtx* ctx) {
  kern::Module& m = *st.m;
  FsFilterPriv* priv = st.priv;
  int op = ctx->op;
  if (op >= 0 && op < static_cast<int>(kern::VfsOp::kCount)) {
    lxfi::Store(m, &priv->post_count[op], priv->post_count[op] + 1);
  }
  lxfi::Store(m, &priv->last_post_token, ctx->token);
  lxfi::Store(m, &ctx->token, ctx->token - 1);
}

}  // namespace

kern::ModuleDef FsFilterModuleDef(FsFilterConfig config) {
  auto st = std::make_shared<FsFilterState>();
  st->config = std::move(config);
  kern::ModuleDef def;
  def.name = st->config.module_name;
  def.data_size = sizeof(FsFilterData);
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kVfsRegisterFilter, kern::kVfsUnregisterFilter,
                 kern::kUnregisterFilesystem, kern::kPrintk};
  def.functions = {
      lxfi::DeclareFunction(
          "fsflt_pre", kern::kFilterPreOp,
          [st](kern::VfsFilter* flt, kern::FilterCtx* ctx) { return Pre(*st, flt, ctx); }),
      lxfi::DeclareFunction(
          "fsflt_post", kern::kFilterPostOp,
          [st](kern::VfsFilter* flt, kern::FilterCtx* ctx) { Post(*st, flt, ctx); }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->kfree = lxfi::GetImport(m, kern::kKfree);
    st->register_filter = lxfi::GetImport(m, kern::kVfsRegisterFilter);
    st->unregister_filter = lxfi::GetImport(m, kern::kVfsUnregisterFilter);
    st->unregister_filesystem = lxfi::GetImport(m, kern::kUnregisterFilesystem);

    st->priv = static_cast<FsFilterPriv*>(st->kmalloc(sizeof(FsFilterPriv)));
    if (st->priv == nullptr) {
      return -kern::kEnomem;
    }
    lxfi::MemSet(m, st->priv, 0, sizeof(FsFilterPriv));
    lxfi::Store(m, &st->priv->last_pre_token, static_cast<int64_t>(-1));
    lxfi::Store(m, &st->priv->last_post_token, static_cast<int64_t>(-1));
    auto* data = static_cast<FsFilterData*>(m.data());
    st->fake_fops = &data->fake_fops;
    kern::VfsFilter* flt = &data->flt;
    st->flt = flt;
    lxfi::Store(m, &flt->name, st->config.filter_name);
    lxfi::Store(m, &flt->priority, st->config.priority);
    lxfi::Store(m, &flt->pre_op, m.FuncAddr("fsflt_pre"));
    lxfi::Store(m, &flt->post_op, m.FuncAddr("fsflt_post"));
    lxfi::Store(m, &flt->private_data, static_cast<void*>(st->priv));
    lxfi::Store(m, &flt->module, &m);
    lxfi::Store(m, &flt->scope, st->config.scope);
    int rc = st->register_filter(flt);
    if (rc != 0) {
      st->flt = nullptr;
    }
    return rc;
  };
  def.exit_fn = [st](kern::Module& m) {
    if (st->flt != nullptr) {
      // -ENOENT means containment's UnregisterModule already dropped the
      // registration (quarantine racing an administrative unload): the
      // filter is gone either way, so both outcomes clear the handle —
      // no double teardown, no retrying a registration that cannot exist.
      int rc = st->unregister_filter(st->flt);
      if (rc == 0 || rc == -kern::kEnoent) {
        st->flt = nullptr;
      }
    }
  };
  return def;
}

std::shared_ptr<FsFilterState> GetFsFilter(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<FsFilterState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

}  // namespace mods

#include "src/modules/statmon/statmon.h"

#include "src/kernel/kernel.h"
#include "src/lxfi/lxfi_stats.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/wrap.h"

namespace mods {
namespace {

// One monitoring pass, dispatched as a module function (statmon::poll) so
// the whole thing runs under enforcement: the armed probe's store takes the
// store guard, and each export's wrapper re-checks WRITE over the buffer.
long Poll(StatmonState& st, void* /*arg*/) {
  kern::Module& m = *st.m;

  if (st.probe == StatmonProbe::kScribbleRing && st.probe_target != nullptr) {
    // Try to corrupt runtime-owned observability state directly. The module
    // never received a WRITE capability for it, so the guard must refuse —
    // and, fittingly, the attempt itself becomes a flight-recorder entry.
    lxfi::Store(m, static_cast<uint64_t*>(st.probe_target), ~uint64_t{0});
  }

  long json_len = st.lxfi_stats(st.json, st.json_cap);
  long records = st.lxfi_trace_read(st.records, st.record_cap * sizeof(lxfi::TraceRecord));
  lxfi::Store(m, &st.priv->last_json_len, static_cast<int64_t>(json_len));
  lxfi::Store(m, &st.priv->last_record_count, static_cast<int64_t>(records));
  lxfi::Store(m, &st.priv->polls, st.priv->polls + 1);
  return json_len;
}

}  // namespace

kern::ModuleDef StatmonModuleDef(std::string module_name) {
  auto st = std::make_shared<StatmonState>();
  kern::ModuleDef def;
  def.name = std::move(module_name);
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kPrintk, lxfi::kLxfiStats,
                 lxfi::kLxfiTraceRead};
  def.functions = {
      lxfi::DeclareFunction("statmon_poll", lxfi::kStatmonPoll,
                            [st](void* arg) { return Poll(*st, arg); }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->kfree = lxfi::GetImport(m, kern::kKfree);
    st->lxfi_stats = lxfi::GetImport(m, lxfi::kLxfiStats);
    st->lxfi_trace_read = lxfi::GetImport(m, lxfi::kLxfiTraceRead);

    st->priv = static_cast<StatmonPriv*>(st->kmalloc(sizeof(StatmonPriv)));
    st->json = static_cast<char*>(st->kmalloc(st->json_cap));
    st->records =
        static_cast<lxfi::TraceRecord*>(st->kmalloc(st->record_cap * sizeof(lxfi::TraceRecord)));
    if (st->priv == nullptr || st->json == nullptr || st->records == nullptr) {
      return -kern::kEnomem;
    }
    lxfi::MemSet(m, st->priv, 0, sizeof(StatmonPriv));
    lxfi::Store(m, &st->priv->last_json_len, static_cast<int64_t>(-1));
    lxfi::Store(m, &st->priv->last_record_count, static_cast<int64_t>(-1));
    return 0;
  };
  def.exit_fn = [st](kern::Module& m) {
    st->kfree(st->records);
    st->kfree(st->json);
    st->kfree(st->priv);
    st->records = nullptr;
    st->json = nullptr;
    st->priv = nullptr;
  };
  return def;
}

std::shared_ptr<StatmonState> GetStatmon(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<StatmonState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

}  // namespace mods

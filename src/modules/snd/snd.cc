#include "src/modules/snd/snd.h"

#include "src/kernel/kernel.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/wrap.h"

namespace mods {
namespace {

// Module .data: the ops table.
struct SndData {
  kern::PcmOps ops;
};

int Open(SndState& st, kern::PcmSubstream* ss) {
  kern::Module& m = *st.m;
  auto* buf = static_cast<uint8_t*>(st.kmalloc(8192));
  if (buf == nullptr) {
    return -kern::kEnomem;
  }
  lxfi::Store(m, &ss->dma_buffer, buf);
  lxfi::Store(m, &ss->buffer_bytes, 8192u);
  lxfi::Store(m, &ss->period_bytes, st.priv->period_bytes);
  lxfi::Store(m, &st.priv->hw_pos, 0u);
  return 0;
}

int Close(SndState& st, kern::PcmSubstream* ss) {
  if (ss->dma_buffer != nullptr) {
    st.kfree(ss->dma_buffer);
    lxfi::Store(*st.m, &ss->dma_buffer, static_cast<uint8_t*>(nullptr));
  }
  return 0;
}

int Trigger(SndState& st, kern::PcmSubstream* ss, int cmd) {
  lxfi::Store(*st.m, &ss->running, cmd == kern::kPcmTriggerStart);
  return 0;
}

uint32_t Pointer(SndState& st, kern::PcmSubstream* ss) {
  kern::Module& m = *st.m;
  if (!ss->running || ss->buffer_bytes == 0) {
    return st.priv->hw_pos;
  }
  uint32_t pos = (st.priv->hw_pos + st.priv->period_bytes) % ss->buffer_bytes;
  lxfi::Store(m, &st.priv->hw_pos, pos);
  lxfi::Store(m, &st.priv->periods_played, st.priv->periods_played + 1);
  return pos;
}

}  // namespace

kern::ModuleDef SndModuleDef(const std::string& name, const std::string& prefix) {
  auto st = std::make_shared<SndState>();
  st->prefix = prefix;
  kern::ModuleDef def;
  def.name = name;
  def.data_size = sizeof(SndData);
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kSndCardRegister, kern::kSndCardUnregister,
                 kern::kPrintk};
  def.functions = {
      lxfi::DeclareFunction(prefix + "_open", kern::kPcmOpen,
                            [st](kern::PcmSubstream* ss) { return Open(*st, ss); }),
      lxfi::DeclareFunction(prefix + "_close", kern::kPcmClose,
                            [st](kern::PcmSubstream* ss) { return Close(*st, ss); }),
      lxfi::DeclareFunction(
          prefix + "_trigger", kern::kPcmTrigger,
          [st](kern::PcmSubstream* ss, int cmd) { return Trigger(*st, ss, cmd); }),
      lxfi::DeclareFunction(prefix + "_pointer", kern::kPcmPointer,
                            [st](kern::PcmSubstream* ss) { return Pointer(*st, ss); }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->kfree = lxfi::GetImport(m, kern::kKfree);
    st->snd_card_register = lxfi::GetImport(m, kern::kSndCardRegister);
    st->snd_card_unregister = lxfi::GetImport(m, kern::kSndCardUnregister);

    auto* data = static_cast<SndData*>(m.data());
    lxfi::Store(m, &data->ops.open, m.FuncAddr(st->prefix + "_open"));
    lxfi::Store(m, &data->ops.close, m.FuncAddr(st->prefix + "_close"));
    lxfi::Store(m, &data->ops.trigger, m.FuncAddr(st->prefix + "_trigger"));
    lxfi::Store(m, &data->ops.pointer, m.FuncAddr(st->prefix + "_pointer"));

    auto* card = static_cast<kern::SoundCard*>(st->kmalloc(sizeof(kern::SoundCard)));
    auto* ss = static_cast<kern::PcmSubstream*>(st->kmalloc(sizeof(kern::PcmSubstream)));
    auto* priv = static_cast<SndPriv*>(st->kmalloc(sizeof(SndPriv)));
    if (card == nullptr || ss == nullptr || priv == nullptr) {
      return -kern::kEnomem;
    }
    lxfi::Store(m, &priv->period_bytes, 1024u);
    st->card = card;
    st->substream = ss;
    st->priv = priv;
    lxfi::MemCopy(m, card->name, st->prefix.c_str(),
                  st->prefix.size() + 1 < sizeof(card->name) ? st->prefix.size() + 1
                                                             : sizeof(card->name));
    lxfi::Store(m, &card->ops, &data->ops);
    lxfi::Store(m, &card->substream, ss);
    lxfi::Store(m, &ss->card, card);
    lxfi::Store(m, &ss->private_data, static_cast<void*>(priv));
    return st->snd_card_register(card);
  };
  def.exit_fn = [st](kern::Module& m) { st->snd_card_unregister(st->card); };
  return def;
}

std::shared_ptr<SndState> GetSnd(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<SndState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

}  // namespace mods

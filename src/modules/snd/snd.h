// Sound driver modules: snd-intel8x0 and snd-ens1370.
//
// Two PCM drivers over the simulated sound core — present because Figure 9
// measures annotation sharing across same-category devices: the second sound
// driver reuses every pcm_ops annotation the first one needed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/kernel/kernel.h"
#include "src/kernel/sound/sound.h"

namespace mods {

struct SndPriv {
  uint32_t hw_pos = 0;
  uint32_t period_bytes = 1024;
  uint64_t periods_played = 0;
};

struct SndState {
  kern::Module* m = nullptr;
  std::string prefix;  // "intel8x0" or "ens1370"
  kern::SoundCard* card = nullptr;
  kern::PcmSubstream* substream = nullptr;
  SndPriv* priv = nullptr;

  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kSndCardRegister> snd_card_register;
  kern::ImportFn<kern::kSndCardUnregister> snd_card_unregister;
};

// Generic PCM driver module definition, specialized by name.
kern::ModuleDef SndModuleDef(const std::string& name, const std::string& prefix);

inline kern::ModuleDef SndIntel8x0ModuleDef() { return SndModuleDef("snd-intel8x0", "intel8x0"); }
inline kern::ModuleDef SndEns1370ModuleDef() { return SndModuleDef("snd-ens1370", "ens1370"); }

std::shared_ptr<SndState> GetSnd(kern::Module& m);

}  // namespace mods

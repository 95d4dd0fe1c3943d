// Minimal ALSA-like sound core.
//
// Exists so the two sound drivers from Figure 9 (snd-intel8x0, snd-ens1370)
// have a real substrate: cards register a PCM ops table; the core drives
// playback by indirect calls through it (open/trigger/pointer/close), and
// period-elapsed interrupts flow back through the driver.
#pragma once

#include <cstdint>
#include <vector>

#include "src/kernel/types.h"

namespace kern {

class Kernel;
class Module;
struct PcmSubstream;

struct PcmOps {
  uintptr_t open = 0;
  uintptr_t close = 0;
  uintptr_t trigger = 0;
  uintptr_t pointer = 0;
};
inline constexpr FnPtrType<int(PcmSubstream*)> kPcmOpen{"pcm_ops::open"};
inline constexpr FnPtrType<int(PcmSubstream*)> kPcmClose{"pcm_ops::close"};
inline constexpr FnPtrType<int(PcmSubstream*, int cmd)> kPcmTrigger{"pcm_ops::trigger"};
inline constexpr FnPtrType<uint32_t(PcmSubstream*)> kPcmPointer{"pcm_ops::pointer"};

inline constexpr int kPcmTriggerStart = 1;
inline constexpr int kPcmTriggerStop = 0;

struct PcmSubstream {
  struct SoundCard* card = nullptr;
  uint8_t* dma_buffer = nullptr;  // module-allocated audio ring
  uint32_t buffer_bytes = 0;
  uint32_t period_bytes = 0;
  bool running = false;
  void* private_data = nullptr;
};

struct SoundCard {
  char name[32] = {};
  PcmOps* ops = nullptr;  // module memory
  void* private_data = nullptr;
  PcmSubstream* substream = nullptr;
};

class SoundCore {
 public:
  explicit SoundCore(Kernel* kernel) : kernel_(kernel) {}

  int RegisterCard(SoundCard* card);
  void UnregisterCard(SoundCard* card);

  // Plays `periods` periods: open if needed, trigger start, then for each
  // period query the hardware pointer and verify progress. Returns 0 or a
  // negative errno.
  int Playback(SoundCard* card, int periods);

  const std::vector<SoundCard*>& cards() const { return cards_; }

 private:
  Kernel* kernel_;
  std::vector<SoundCard*> cards_;
};

SoundCore* GetSoundCore(Kernel* kernel);

inline constexpr KernelSymbol<int(SoundCard*)> kSndCardRegister{"snd_card_register"};
inline constexpr KernelSymbol<void(SoundCard*)> kSndCardUnregister{"snd_card_unregister"};

}  // namespace kern

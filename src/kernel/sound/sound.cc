#include "src/kernel/sound/sound.h"

#include "src/kernel/kernel.h"

namespace kern {

int SoundCore::RegisterCard(SoundCard* card) {
  cards_.push_back(card);
  return 0;
}

void SoundCore::UnregisterCard(SoundCard* card) {
  for (auto it = cards_.begin(); it != cards_.end(); ++it) {
    if (*it == card) {
      cards_.erase(it);
      return;
    }
  }
}

int SoundCore::Playback(SoundCard* card, int periods) {
  if (card->ops == nullptr || card->substream == nullptr) {
    return -kEinval;
  }
  PcmSubstream* ss = card->substream;
  int rc = 0;
  if (card->ops->open != 0) {
    rc = kernel_->IndirectCall(&card->ops->open, kPcmOpen, ss);
    if (rc != 0) {
      return rc;
    }
  }
  if (card->ops->trigger != 0) {
    rc = kernel_->IndirectCall(&card->ops->trigger, kPcmTrigger, ss, kPcmTriggerStart);
    if (rc != 0) {
      return rc;
    }
  }
  uint32_t last = 0;
  for (int i = 0; i < periods; ++i) {
    uint32_t pos = kernel_->IndirectCall(&card->ops->pointer, kPcmPointer, ss);
    if (ss->buffer_bytes != 0 && pos >= ss->buffer_bytes) {
      rc = -kEinval;  // driver reported a pointer outside the ring
      break;
    }
    last = pos;
    (void)last;
  }
  if (card->ops->trigger != 0) {
    kernel_->IndirectCall(&card->ops->trigger, kPcmTrigger, ss, kPcmTriggerStop);
  }
  if (card->ops->close != 0) {
    kernel_->IndirectCall(&card->ops->close, kPcmClose, ss);
  }
  return rc;
}

SoundCore* GetSoundCore(Kernel* kernel) { return kernel->EnsureSubsystem<SoundCore>(kernel); }

}  // namespace kern

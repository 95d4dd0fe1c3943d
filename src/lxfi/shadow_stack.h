// Per-kthread shadow stack (§5).
//
// Records, for every wrapper crossing, a return token and the principal to
// restore. The stack lives outside the simulated kernel address space, so no
// module WRITE capability can ever cover it — the analogue of the paper
// placing it adjacent to the kernel stack but accessible only to the
// runtime. Wrapper exit validates the token; a mismatch means a corrupted
// return path and is a fatal violation.
#pragma once

#include <cstdint>
#include <vector>

namespace lxfi {

class Principal;

class ShadowStack {
 public:
  struct Frame {
    uint64_t token;
    Principal* saved_principal;
    const char* what;  // wrapper label for diagnostics
    uint64_t enter_ticks;  // crossing entry CycleNow() (0 unless metrics are on)
  };

  // Pushes a frame and returns its token.
  uint64_t Push(Principal* saved, const char* what) {
    uint64_t token = next_token_++;
    frames_.push_back(Frame{token, saved, what, 0});
    return token;
  }

  // Pops the top frame, verifying the token. Returns the saved principal;
  // sets *ok=false on corruption instead of throwing (the runtime decides
  // the policy).
  Principal* Pop(uint64_t token, bool* ok) {
    if (frames_.empty() || frames_.back().token != token) {
      *ok = false;
      return nullptr;
    }
    *ok = true;
    Principal* saved = frames_.back().saved_principal;
    frames_.pop_back();
    return saved;
  }

  // Unconditionally pops the top frame (exception-unwind path). Sets
  // *was_target when the popped frame carries `token`.
  Principal* PopAny(bool* was_target, uint64_t token) {
    if (frames_.empty()) {
      *was_target = true;  // nothing left to unwind
      return nullptr;
    }
    Frame frame = frames_.back();
    frames_.pop_back();
    *was_target = frame.token == token;
    return frame.saved_principal;
  }

  size_t depth() const { return frames_.size(); }

  // The principal saved by the innermost frame: the caller a kernel-side
  // import implementation (running with `current == nullptr` after its
  // wrapper dropped privilege) acts on behalf of. Null when no frame is
  // live.
  Principal* TopSavedPrincipal() const {
    return frames_.empty() ? nullptr : frames_.back().saved_principal;
  }

  // The innermost crossing label — the attribution the violation flight
  // recorder stores ("" when no wrapper frame is live).
  const char* TopWhat() const { return frames_.empty() ? "" : frames_.back().what; }

  // Crossing-latency bookkeeping for the per-principal metrics (lxfi_stats):
  // WrapperEnter stamps the frame it just pushed, WrapperExit reads it back
  // before popping.
  void SetTopEnterTicks(uint64_t ticks) {
    if (!frames_.empty()) {
      frames_.back().enter_ticks = ticks;
    }
  }
  uint64_t TopEnterTicks() const { return frames_.empty() ? 0 : frames_.back().enter_ticks; }

  // The principal the current innermost execution runs as.
  Principal* current = nullptr;

  // The Runtime that created this stack. The kthread context caches a raw
  // ShadowStack pointer for the enforcement fast path; the owner tag lets a
  // different Runtime on the same kernel reject the foreign cache instead of
  // pushing frames onto (or dangling into) another runtime's stack.
  const void* owner = nullptr;

  // Tokens of in-flight interrupt frames (per-thread, like the stack itself).
  std::vector<uint64_t> irq_tokens;

  // Test hook: corrupts the top token to simulate a smashed return address.
  void CorruptTopForTest() {
    if (!frames_.empty()) {
      frames_.back().token ^= 0xdeadbeef;
    }
  }

 private:
  std::vector<Frame> frames_;
  uint64_t next_token_ = 1;
};

}  // namespace lxfi

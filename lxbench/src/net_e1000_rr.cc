// net_e1000_rr: closed-loop echo transactions through the e1000 driver
// module (the paper's Figure 12 path). Each op allocates an skb, sends it
// with DevQueueXmit, lets the NIC reclaim it (ProcessTx), injects the
// peer's echo as a non-coalesced RX interrupt and delivers it with
// RunSoftirq. Seeded sizes: 7 in 8 requests carry 64 B, 1 in 8 carry 1448 B.
//
// NetperfHarness keeps its NIC private, so the system is wired here from
// the same public calls netperf.cc makes.
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "lxbench/src/measure.h"
#include "lxbench/src/spans.h"
#include "lxbench/src/workload.h"
#include "src/kernel/kernel.h"
#include "src/kernel/net/netdevice.h"
#include "src/kernel/net/nicsim.h"
#include "src/kernel/net/skbuff.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/modules/e1000/e1000.h"

namespace lxbench {
namespace {

constexpr uint16_t kProto = 0x0800;
constexpr uint32_t kSmall = 64;
constexpr uint32_t kLarge = 1448;

class NetE1000Rr : public Workload {
 public:
  NetE1000Rr(uint64_t seed, bool stock) : stock_(stock), ops_(seed, 1) {
    FillPattern(seed, 100, payload_, kLarge);
  }

  void Setup() override {
    kernel_ = std::make_unique<kern::Kernel>(256ull << 20);
    if (!stock_) {
      rt_ = std::make_unique<lxfi::Runtime>(kernel_.get(), lxfi::RuntimeOptions{});
    }
    kern::Kernel* k = kernel_.get();
    lxfi::InstallKernelApi(k, rt_.get());
    hw_ = mods::PlugInE1000Device(k, /*irq=*/5);
    if (k->LoadModule(mods::E1000ModuleDef()) == nullptr) {
      throw std::runtime_error("net_e1000_rr setup: e1000 failed to load");
    }
    stack_ = kern::GetNetStack(k);
    dev_ = stack_->DevByIndex(1);
    if (dev_ == nullptr) {
      throw std::runtime_error("net_e1000_rr setup: no e1000 netdev");
    }
    stack_->SetProtocolHandler(kProto, [this](kern::SkBuff* skb) { OnReceive(skb); });
    // The peer: every transmitted frame comes back as its echo.
    hw_->SetTxSink([this](const uint8_t* frame, uint16_t len) {
      std::memcpy(wire_, frame, len);
      wire_len_ = len;
      ++wire_frames_;
    });
    // Warm-up: 256 transactions of both sizes outside the seeded sequence.
    for (uint64_t w = 0; w < 256; ++w) {
      if (!Transact(w, (w & 7) == 7 ? kLarge : kSmall)) {
        throw std::runtime_error("net_e1000_rr setup: warm-up transaction failed");
      }
    }
    MarkSlabBaseline(k);
  }

  bool RunOp(uint64_t i) override {
    uint32_t size = ops_.Below(8) == 0 ? kLarge : kSmall;
    return Transact(256 + i, size);
  }

  void FinalChecks(std::vector<std::string>* problems) override {
    if (delivered_ != sent_) {
      problems->push_back("delivered " + std::to_string(delivered_) + " != sent " +
                          std::to_string(sent_));
    }
    CheckEnd(kernel_.get(), rt_.get(), 0, problems);
  }

  LayerHandles handles() const override {
    LayerHandles h;
    h.kernel = kernel_.get();
    h.rt = rt_.get();
    h.nic = hw_;
    h.stack = stack_;
    h.netdev = dev_;
    return h;
  }

  uint64_t CountWindowOps() const override { return 20000; }
  uint64_t MemoryCheckpointOps() const override { return 2'000'000; }

 private:
  // One request/echo transaction carrying `size` bytes tagged with `seq`.
  bool Transact(uint64_t seq, uint32_t size) {
    kern::Kernel* k = kernel_.get();
    frame_[0] = static_cast<uint8_t>(kProto & 0xff);
    frame_[1] = static_cast<uint8_t>(kProto >> 8);
    std::memcpy(frame_ + 2, &seq, sizeof(seq));
    std::memcpy(frame_ + 10, payload_, size - 10);
    expect_len_ = size;
    kern::SkBuff* skb = Traced(kNetAllocSkb, [&] { return kern::AllocSkb(k, size); });
    if (skb == nullptr) {
      return false;
    }
    std::memcpy(kern::SkbPut(skb, size), frame_, size);
    skb->protocol = kProto;
    ++sent_;
    uint64_t frames = wire_frames_;
    int rc = Traced(kNetXmit, [&] { return stack_->DevQueueXmit(dev_, skb); });
    if (rc == kern::kNetdevTxBusy) {
      kern::FreeSkb(k, skb);
      return false;
    }
    Traced(kNetTxClean, [&] { return hw_->ProcessTx(); });
    if (wire_frames_ != frames + 1 || wire_len_ != size || std::memcmp(wire_, frame_, size) != 0) {
      return false;
    }
    uint64_t delivered = delivered_;
    bool injected = Traced(kNetRxIrq, [&] { return hw_->InjectRx(wire_, wire_len_, false); });
    Traced(kNetSoftirq, [&] { return stack_->RunSoftirq(64); });
    return injected && delivered_ == delivered + 1 && rx_ok_;
  }

  void OnReceive(kern::SkBuff* skb) {
    rx_ok_ = skb->len == expect_len_ && std::memcmp(skb->data, frame_, expect_len_) == 0;
    ++delivered_;
    kern::FreeSkb(kernel_.get(), skb);
  }

  bool stock_;
  Rng ops_;
  // Declared in this order so the runtime is destroyed before the kernel
  // it watches (the NetperfHarness convention).
  std::unique_ptr<kern::Kernel> kernel_;
  std::unique_ptr<lxfi::Runtime> rt_;
  kern::NicHw* hw_ = nullptr;
  kern::NetStack* stack_ = nullptr;
  kern::NetDevice* dev_ = nullptr;
  uint8_t payload_[kLarge];
  uint8_t frame_[kLarge];
  uint8_t wire_[kLarge];
  uint32_t wire_len_ = 0;
  uint32_t expect_len_ = 0;
  uint64_t wire_frames_ = 0;
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
  bool rx_ok_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeNetE1000Rr(uint64_t seed, bool stock) {
  return std::make_unique<NetE1000Rr>(seed, stock);
}

}  // namespace lxbench

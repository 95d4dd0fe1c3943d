#include "src/eval/netperf.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/clock.h"
#include "src/kernel/kernel.h"
#include "src/kernel/net/netdevice.h"
#include "src/kernel/net/nicsim.h"
#include "src/kernel/net/skbuff.h"
#include "src/kernel/panic.h"
#include "src/kernel/smp.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/modules/e1000/e1000.h"

namespace eval {
namespace {

constexpr uint16_t kTestProto = 0x0800;
constexpr uint32_t kSmallMsg = 64;    // UDP / RR message bytes
constexpr uint32_t kTcpSegment = 1448;  // TCP payload per segment

kern::SkBuff* MakePacket(kern::Kernel* kernel, uint32_t bytes) {
  kern::SkBuff* skb = kern::AllocSkb(kernel, bytes);
  if (skb == nullptr) {
    return nullptr;
  }
  uint8_t* p = kern::SkbPut(skb, bytes);
  p[0] = static_cast<uint8_t>(kTestProto & 0xff);
  p[1] = static_cast<uint8_t>(kTestProto >> 8);
  skb->protocol = kTestProto;
  return skb;
}

}  // namespace

const char* NetWorkloadName(NetWorkload workload) {
  switch (workload) {
    case NetWorkload::kTcpStreamTx:
      return "TCP_STREAM TX";
    case NetWorkload::kTcpStreamRx:
      return "TCP_STREAM RX";
    case NetWorkload::kUdpStreamTx:
      return "UDP_STREAM TX";
    case NetWorkload::kUdpStreamRx:
      return "UDP_STREAM RX";
    case NetWorkload::kTcpRr:
      return "TCP_RR";
    case NetWorkload::kUdpRr:
      return "UDP_RR";
  }
  return "?";
}

struct NetperfHarness::Impl {
  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  kern::NicHw* hw = nullptr;
  kern::NetDevice* dev = nullptr;
  kern::NetStack* stack = nullptr;
  uint64_t rx_delivered = 0;
  bool echo_mode = false;
  uint8_t echo_frame[kSmallMsg] = {};
  int pending_echoes = 0;
  // SMP mode: one NIC + device per simulated CPU, and the CPU set itself.
  std::vector<kern::NicHw*> hws;
  std::vector<kern::NetDevice*> devs;
  std::unique_ptr<kern::CpuSet> cpus;
};

NetperfHarness::NetperfHarness(bool isolated, int cpus) : impl_(new Impl()) {
  impl_->kernel = std::make_unique<kern::Kernel>(256ull << 20);
  if (isolated) {
    impl_->rt = std::make_unique<lxfi::Runtime>(impl_->kernel.get());
  }
  kernel_ = impl_->kernel.get();
  rt_ = impl_->rt.get();
  lxfi::InstallKernelApi(kernel_, rt_);
  // One NIC per CPU in SMP mode (per-CPU TX queues); one NIC otherwise.
  int nics = cpus > 0 ? cpus : 1;
  for (int i = 0; i < nics; ++i) {
    impl_->hws.push_back(mods::PlugInE1000Device(kernel_, /*irq=*/5 + i));
  }
  impl_->hw = impl_->hws.front();
  kern::Module* mod = kernel_->LoadModule(mods::E1000ModuleDef());
  if (mod == nullptr) {
    kern::Panic("netperf harness: e1000 failed to load");
  }
  impl_->stack = kern::GetNetStack(kernel_);
  for (int i = 0; i < nics; ++i) {
    impl_->devs.push_back(impl_->stack->DevByIndex(1 + i));
  }
  impl_->dev = impl_->devs.front();
  impl_->stack->SetProtocolHandler(kTestProto, [this](kern::SkBuff* skb) {
    ++impl_->rx_delivered;
    kern::FreeSkb(kernel_, skb);
  });
  // Wire the peer: in echo (RR) mode every transmitted frame produces a
  // response frame queued for injection after the modeled network delay.
  impl_->hw->SetTxSink([this](const uint8_t* frame, uint16_t len) {
    if (impl_->echo_mode) {
      ++impl_->pending_echoes;
    }
  });
  impl_->echo_frame[0] = static_cast<uint8_t>(kTestProto & 0xff);
  impl_->echo_frame[1] = static_cast<uint8_t>(kTestProto >> 8);
  if (cpus > 0) {
    // Per-CPU slab magazines keep the per-packet alloc/free pair off the
    // global allocator lock; the CpuSet threads give every CPU its own
    // kthread context, memo shards and guard-counter shards.
    kernel_->slab().EnableSmpCache();
    impl_->cpus = std::make_unique<kern::CpuSet>(kernel_, cpus);
  }
}

NetperfHarness::~NetperfHarness() {
  // CPU threads must drain before the kernel and runtime go away.
  impl_->cpus.reset();
  // Runtime must detach from the kernel before either is destroyed; member
  // order in Impl handles destruction, but unload keeps the slab honest.
  delete impl_;
}

int NetperfHarness::cpus() const { return impl_->cpus == nullptr ? 0 : impl_->cpus->ncpus(); }

SmpScalingResult NetperfHarness::RunParallelTx(uint64_t packets_per_cpu) {
  Impl* im = impl_;
  if (im->cpus == nullptr) {
    kern::Panic("RunParallelTx requires an SMP harness (cpus > 0)");
  }
  const int n = im->cpus->ncpus();
  std::vector<uint64_t> frames_before(n);
  std::vector<uint64_t> cpu_ns(n, 0);
  for (int i = 0; i < n; ++i) {
    frames_before[i] = im->hws[i]->frames_tx();
  }
  kern::Kernel* k = kernel_;
  kern::NetStack* stack = im->stack;
  uint64_t wall_start = lxfi::MonotonicNowNs();
  for (int i = 0; i < n; ++i) {
    kern::NetDevice* dev = im->devs[i];
    kern::NicHw* hw = im->hws[i];
    uint64_t* out_ns = &cpu_ns[i];
    im->cpus->RunOn(i, [k, stack, dev, hw, packets_per_cpu, out_ns] {
      uint64_t t0 = lxfi::ThreadCpuNowNs();
      for (uint64_t p = 0; p < packets_per_cpu; ++p) {
        kern::SkBuff* skb = MakePacket(k, kSmallMsg);
        if (skb == nullptr) {
          break;  // arena exhausted; the recycle cache makes this unlikely
        }
        int rc = stack->DevQueueXmit(dev, skb);
        if (rc == kern::kNetdevTxBusy) {
          kern::FreeSkb(k, skb);
        }
        if ((p & 15) == 15) {
          hw->ProcessTx();
        }
        if ((p & 1023) == 1023) {
          kern::CpuSet::QuiescePoint();
        }
      }
      hw->ProcessTx();
      *out_ns = lxfi::ThreadCpuNowNs() - t0;
    });
  }
  im->cpus->Barrier();
  SmpScalingResult result;
  result.cpus = n;
  result.wall_ns = lxfi::MonotonicNowNs() - wall_start;
  for (int i = 0; i < n; ++i) {
    result.packets += im->hws[i]->frames_tx() - frames_before[i];
    result.cpu_ns_total += cpu_ns[i];
  }
  return result;
}

NetperfMeasurement NetperfHarness::Run(const NetperfConfig& config) {
  NetperfMeasurement result;
  Impl* im = impl_;
  kern::Kernel* k = kernel_;
  kern::NetStack* stack = im->stack;
  kern::NicHw* hw = im->hw;
  im->echo_mode =
      config.workload == NetWorkload::kTcpRr || config.workload == NetWorkload::kUdpRr;
  im->rx_delivered = 0;
  im->pending_echoes = 0;

  // NIC and guard counters only grow; this run's counts are after minus
  // before, so consecutive runs on one harness report the same figures.
  const uint64_t tx_before = hw->frames_tx();
  uint64_t guards_before[static_cast<int>(lxfi::GuardType::kCount)] = {};
  if (rt_ != nullptr) {
    for (int i = 0; i < static_cast<int>(lxfi::GuardType::kCount); ++i) {
      guards_before[i] = rt_->guards().count(static_cast<lxfi::GuardType>(i));
    }
  }

  uint8_t data_frame[kTcpSegment];
  std::memset(data_frame, 0xab, sizeof(data_frame));
  data_frame[0] = static_cast<uint8_t>(kTestProto & 0xff);
  data_frame[1] = static_cast<uint8_t>(kTestProto >> 8);

  uint64_t start = lxfi::MonotonicNowNs();
  switch (config.workload) {
    case NetWorkload::kUdpStreamTx: {
      for (uint64_t i = 0; i < config.packets; ++i) {
        kern::SkBuff* skb = MakePacket(k, kSmallMsg);
        int rc = stack->DevQueueXmit(im->dev, skb);
        if (rc == kern::kNetdevTxBusy) {
          kern::FreeSkb(k, skb);
        }
        if ((i & 15) == 15) {
          hw->ProcessTx();
        }
      }
      hw->ProcessTx();
      result.packets = hw->frames_tx() - tx_before;
      break;
    }
    case NetWorkload::kUdpStreamRx: {
      for (uint64_t i = 0; i < config.packets; ++i) {
        hw->InjectRx(data_frame, kSmallMsg, /*coalesce=*/true);
        if ((i & 15) == 15) {
          hw->FlushRxIrq();
          stack->RunSoftirq(64);
        }
      }
      hw->FlushRxIrq();
      stack->RunSoftirq(64);
      result.packets = im->rx_delivered;
      break;
    }
    case NetWorkload::kTcpStreamTx: {
      for (uint64_t i = 0; i < config.packets; ++i) {
        kern::SkBuff* skb = MakePacket(k, kTcpSegment);
        int rc = stack->DevQueueXmit(im->dev, skb);
        if (rc == kern::kNetdevTxBusy) {
          kern::FreeSkb(k, skb);
        }
        if ((i & 1) == 1) {
          hw->ProcessTx();
          // Peer ACK clock: one small frame per two segments.
          hw->InjectRx(im->echo_frame, kSmallMsg, /*coalesce=*/true);
        }
        if ((i & 15) == 15) {
          hw->FlushRxIrq();
          stack->RunSoftirq(64);
        }
      }
      hw->ProcessTx();
      hw->FlushRxIrq();
      stack->RunSoftirq(64);
      result.packets = hw->frames_tx() - tx_before;
      break;
    }
    case NetWorkload::kTcpStreamRx: {
      for (uint64_t i = 0; i < config.packets; ++i) {
        hw->InjectRx(data_frame, kTcpSegment, /*coalesce=*/true);
        if ((i & 7) == 7) {
          hw->FlushRxIrq();
          stack->RunSoftirq(64);
          // ACK every other segment.
          for (int a = 0; a < 4; ++a) {
            kern::SkBuff* ack = MakePacket(k, kSmallMsg);
            if (stack->DevQueueXmit(im->dev, ack) == kern::kNetdevTxBusy) {
              kern::FreeSkb(k, ack);
            }
          }
          hw->ProcessTx();
        }
      }
      hw->FlushRxIrq();
      stack->RunSoftirq(64);
      result.packets = im->rx_delivered;
      break;
    }
    case NetWorkload::kTcpRr:
    case NetWorkload::kUdpRr: {
      for (uint64_t i = 0; i < config.packets; ++i) {
        kern::SkBuff* skb = MakePacket(k, kSmallMsg);
        int rc = stack->DevQueueXmit(im->dev, skb);
        if (rc == kern::kNetdevTxBusy) {
          kern::FreeSkb(k, skb);
        }
        hw->ProcessTx();
        while (im->pending_echoes > 0) {
          --im->pending_echoes;
          hw->InjectRx(im->echo_frame, kSmallMsg, /*coalesce=*/false);
          stack->RunSoftirq(64);
        }
      }
      result.packets = im->rx_delivered;  // completed transactions
      break;
    }
  }
  result.path_wall_ns = lxfi::MonotonicNowNs() - start;

  if (rt_ != nullptr) {
    for (int i = 0; i < static_cast<int>(lxfi::GuardType::kCount); ++i) {
      result.guard_counts[i] =
          rt_->guards().count(static_cast<lxfi::GuardType>(i)) - guards_before[i];
    }
  }
  return result;
}

MachineModel ModelFor(NetWorkload workload, bool one_switch) {
  // Constants backed out of Figure 12's stock rows (throughput + CPU%):
  // c_stock = cpu% / rate; link = the stock throughput; for RR,
  // rtt = 1/rate - c_stock.
  switch (workload) {
    case NetWorkload::kTcpStreamTx:
      return MachineModel{1801.0, 72169.0, 0.0, kTcpSegment * 8.0};
    case NetWorkload::kTcpStreamRx:
      return MachineModel{4363.0, 66471.0, 0.0, kTcpSegment * 8.0};
    case NetWorkload::kUdpStreamTx:
      return MachineModel{174.0, 3.1e6, 0.0, 0.0};
    case NetWorkload::kUdpStreamRx:
      return MachineModel{200.0, 2.3e6, 0.0, 0.0};
    case NetWorkload::kTcpRr:
      return one_switch ? MachineModel{15000.0, 0.0, 47500.0, 0.0}
                        : MachineModel{19149.0, 0.0, 87234.0, 0.0};
    case NetWorkload::kUdpRr:
      return one_switch ? MachineModel{11500.0, 0.0, 38500.0, 0.0}
                        : MachineModel{18000.0, 0.0, 82000.0, 0.0};
  }
  return MachineModel{};
}

Figure12Row ComputeRow(NetWorkload workload, bool one_switch,
                       const NetperfMeasurement& stock, const NetperfMeasurement& lxfi) {
  MachineModel model = ModelFor(workload, one_switch);
  double delta_ns = std::max(0.0, lxfi.PathNsPerPacket() - stock.PathNsPerPacket());
  double c_stock = model.c_stock_ns;
  double c_lxfi = model.c_stock_ns + delta_ns;

  auto rate_for = [&](double c) {
    if (model.rtt_ns > 0) {
      return 1e9 / (model.rtt_ns + c);
    }
    double cpu_rate = 1e9 / c;
    return model.link_pps > 0 ? std::min(model.link_pps, cpu_rate) : cpu_rate;
  };

  double stock_rate = rate_for(c_stock);
  double lxfi_rate = rate_for(c_lxfi);

  Figure12Row row;
  row.test = NetWorkloadName(workload);
  if (one_switch) {
    row.test += " (1-switch)";
  }
  row.stock_cpu_pct = 100.0 * stock_rate * c_stock / 1e9;
  row.lxfi_cpu_pct = 100.0 * lxfi_rate * c_lxfi / 1e9;
  if (model.rtt_ns > 0) {
    row.stock_throughput = stock_rate;
    row.lxfi_throughput = lxfi_rate;
    row.unit = "Tx/sec";
  } else if (model.payload_bits > 0) {
    row.stock_throughput = stock_rate * model.payload_bits / 1e6;
    row.lxfi_throughput = lxfi_rate * model.payload_bits / 1e6;
    row.unit = "Mbit/sec";
  } else {
    row.stock_throughput = stock_rate / 1e6;
    row.lxfi_throughput = lxfi_rate / 1e6;
    row.unit = "Mpkt/sec";
  }
  return row;
}

}  // namespace eval

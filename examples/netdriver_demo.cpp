// Network driver demo: the paper's Figure 1/4 scenario end to end.
//
// Loads the isolated e1000 driver, pushes traffic both ways through the
// simulated NIC, and prints the driver statistics plus the LXFI guard
// counters the traffic generated — a miniature of the §8.4 evaluation.
//
// Build & run:  ./build/examples/netdriver_demo
#include <cstdio>

#include "src/base/log.h"
#include "src/eval/netperf.h"
#include "src/lxfi/guards.h"
#include "src/lxfi/runtime.h"

int main() {
  lxfi::SetLogLevel(lxfi::LogLevel::kError);

  eval::NetperfHarness harness(/*isolated=*/true);
  std::printf("e1000 loaded under LXFI; each NIC is its own principal\n");
  std::printf("(pci_dev, net_device and napi names aliased to one principal)\n\n");

  constexpr uint64_t kPackets = 5000;
  eval::NetperfMeasurement tx = harness.Run({eval::NetWorkload::kUdpStreamTx, kPackets});
  std::printf("TX: %llu packets transmitted, %.0f ns/packet through the full path\n",
              static_cast<unsigned long long>(tx.packets), tx.PathNsPerPacket());

  eval::NetperfMeasurement rx = harness.Run({eval::NetWorkload::kUdpStreamRx, kPackets});
  std::printf("RX: %llu packets delivered through IRQ -> NAPI poll -> netif_rx\n\n",
              static_cast<unsigned long long>(rx.packets));

  std::printf("guards executed during RX (per packet):\n");
  double pkts = static_cast<double>(rx.packets);
  for (int i = 0; i < static_cast<int>(lxfi::GuardType::kCount); ++i) {
    auto t = static_cast<lxfi::GuardType>(i);
    std::printf("  %-22s %6.1f\n", lxfi::GuardTypeName(t),
                static_cast<double>(rx.guard_counts[i]) / pkts);
  }
  std::printf("\nzero violations: %llu — the annotated interface contracts all held\n",
              static_cast<unsigned long long>(harness.runtime()->violation_count()));
  return harness.runtime()->violation_count() == 0 ? 0 : 1;
}

// netperf-style workload harness over the simulated e1000 (Figures 12/13).
//
// The harness drives the real per-packet code path — kernel stack, LXFI
// wrappers and checks, driver rings, simulated NIC — and measures the wall
// time that path costs per packet. bench_netperf then combines the measured
// per-packet *enforcement delta* (LXFI path minus stock path) with a
// calibrated machine model of the paper's testbed (per-packet stock CPU cost
// and link capacities backed out of Figure 12's stock rows) to regenerate
// the table. The enforcement cost is measured, the substrate cost is
// modeled; DESIGN.md documents the substitution.
#pragma once

#include <cstdint>
#include <string>

#include "src/lxfi/guards.h"

namespace kern {
class Kernel;
class Module;
struct NetDevice;
class NicHw;
}

namespace lxfi {
class Runtime;
}

namespace eval {

enum class NetWorkload {
  kTcpStreamTx,
  kTcpStreamRx,
  kUdpStreamTx,
  kUdpStreamRx,
  kTcpRr,
  kUdpRr,
};

const char* NetWorkloadName(NetWorkload workload);

struct NetperfConfig {
  NetWorkload workload = NetWorkload::kUdpStreamTx;
  uint64_t packets = 20000;  // packets (streams) or transactions (RR)
};

struct NetperfMeasurement {
  uint64_t packets = 0;        // packets or transactions completed
  uint64_t path_wall_ns = 0;   // wall time spent in the per-packet path
  uint64_t guard_counts[static_cast<int>(lxfi::GuardType::kCount)] = {};

  double PathNsPerPacket() const {
    return packets == 0 ? 0.0 : static_cast<double>(path_wall_ns) / static_cast<double>(packets);
  }
};

// Aggregate result of one parallel TX run (the SMP scaling workload).
struct SmpScalingResult {
  int cpus = 0;
  uint64_t packets = 0;       // frames actually transmitted, all CPUs
  uint64_t wall_ns = 0;       // wall time of the parallel phase
  uint64_t cpu_ns_total = 0;  // summed per-CPU thread CPU time

  // Wall-clock aggregate: honest on hosts with >= cpus cores, degraded by
  // timesharing on smaller hosts.
  double WallPps() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(packets) * 1e9 / static_cast<double>(wall_ns);
  }
  // Hardware-speed aggregate (the Figure 12 machine-model convention): each
  // simulated CPU runs at full speed, so the aggregate is the sum over CPUs
  // of 1e9 / measured per-packet CPU cost. Contention — lock waits, cache
  // bouncing, seqlock retries — still shows up in the per-CPU cost, so this
  // is exactly the SMP efficiency of the enforcement path.
  double ModelPps() const {
    return cpu_ns_total == 0
               ? 0.0
               : static_cast<double>(packets) * 1e9 / static_cast<double>(cpu_ns_total) *
                     static_cast<double>(cpus);
  }
  double PerPacketCpuNs() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(cpu_ns_total) / static_cast<double>(packets);
  }
};

// Owns a kernel (stock or isolated), the loaded e1000 module(s) and the
// wired NIC(s); runs workloads against it.
class NetperfHarness {
 public:
  // isolated: attach an LXFI runtime.
  // cpus > 0: SMP mode — plugs one NIC per simulated CPU, spawns a
  // kern::CpuSet and enables the per-CPU slab cache; RunParallelTx then
  // drives per-CPU TX queues concurrently.
  explicit NetperfHarness(bool isolated, int cpus = 0);
  ~NetperfHarness();

  NetperfMeasurement Run(const NetperfConfig& config);

  // UDP_STREAM TX on every simulated CPU at once, each CPU driving its own
  // NIC through the full kernel -> wrapper -> driver -> ring path.
  // Requires cpus > 0 at construction.
  SmpScalingResult RunParallelTx(uint64_t packets_per_cpu);

  lxfi::Runtime* runtime() const { return rt_; }
  kern::Kernel* kernel() const { return kernel_; }
  int cpus() const;

 private:
  struct Impl;
  Impl* impl_;
  kern::Kernel* kernel_ = nullptr;
  lxfi::Runtime* rt_ = nullptr;
};

// --- machine model (calibrated to Figure 12's stock rows) --------------------

struct MachineModel {
  double c_stock_ns;   // stock per-packet (or per-transaction) CPU cost
  double link_pps;     // link capacity in packets (transactions unbounded: 0)
  double rtt_ns;       // network round-trip for RR workloads (0 otherwise)
  double payload_bits; // per packet, for Mbit/s reporting (0 => report pps)
};

// Model for a workload; `one_switch` selects the low-latency RR config.
MachineModel ModelFor(NetWorkload workload, bool one_switch);

struct Figure12Row {
  std::string test;
  double stock_throughput;
  double lxfi_throughput;
  double stock_cpu_pct;
  double lxfi_cpu_pct;
  std::string unit;
};

// Applies the machine model to a stock/LXFI measurement pair.
Figure12Row ComputeRow(NetWorkload workload, bool one_switch,
                       const NetperfMeasurement& stock, const NetperfMeasurement& lxfi);

}  // namespace eval

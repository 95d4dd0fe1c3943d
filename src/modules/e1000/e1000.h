// e1000 network driver module (simulated Intel 82540EM).
//
// The module from the paper's Figures 1/4 and the netperf evaluation (§8.4):
// a PCI network driver with NAPI RX, descriptor-ring TX, and per-NIC
// principals. The probe path performs the lxfi_check + lxfi_princ_alias
// sequence of Figure 4 to alias the pci_dev / net_device / napi names onto
// one logical principal.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/net/netdevice.h"
#include "src/kernel/net/nicsim.h"
#include "src/kernel/pci/pci.h"
#include "src/kernel/timer.h"

namespace mods {

inline constexpr uint16_t kE1000Vendor = 0x8086;
inline constexpr uint16_t kE1000Device = 0x100e;
inline constexpr uint32_t kE1000TxRing = 64;
inline constexpr uint32_t kE1000RxRing = 64;
inline constexpr uint32_t kE1000BufSize = 2048;

// Driver-private per-NIC state (lives in net_device->priv, module-owned).
struct E1000Priv {
  kern::PciDev* pdev = nullptr;
  kern::NetDevice* ndev = nullptr;
  kern::NicRegs* regs = nullptr;
  kern::NicTxDesc* tx_ring = nullptr;
  kern::NicRxDesc* rx_ring = nullptr;
  uint8_t** tx_bufs = nullptr;  // per-descriptor bounce buffers
  uint8_t** rx_bufs = nullptr;
  uint32_t rx_next_clean = 0;
  kern::NapiStruct* napi = nullptr;
  kern::TimerList* watchdog = nullptr;
  uint64_t watchdog_runs = 0;
  uint64_t tx_count = 0;
  uint64_t rx_count = 0;
};

// Module-level state shared by all entry points.
struct E1000State {
  kern::Module* m = nullptr;
  std::vector<E1000Priv*> privs;  // one per bound NIC

  E1000Priv* priv_for(const kern::PciDev* pdev) const {
    for (E1000Priv* p : privs) {
      if (p->pdev == pdev) {
        return p;
      }
    }
    return nullptr;
  }
  // Convenience for single-NIC tests.
  E1000Priv* priv() const { return privs.empty() ? nullptr : privs.front(); }

  // Bound kernel imports.
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kDmaAllocCoherent> dma_alloc;
  kern::ImportFn<kern::kAllocEtherdev> alloc_etherdev;
  kern::ImportFn<kern::kFreeNetdev> free_netdev;
  kern::ImportFn<kern::kRegisterNetdev> register_netdev;
  kern::ImportFn<kern::kUnregisterNetdev> unregister_netdev;
  kern::ImportFn<kern::kNetdevAllocSkb> netdev_alloc_skb;
  kern::ImportFn<kern::kKfreeSkb> kfree_skb;
  kern::ImportFn<kern::kSkbPut> skb_put;
  kern::ImportFn<kern::kNetifRx> netif_rx;
  kern::ImportFn<kern::kNetifNapiAdd> netif_napi_add;
  kern::ImportFn<kern::kNapiSchedule> napi_schedule;
  kern::ImportFn<kern::kPciEnableDevice> pci_enable_device;
  kern::ImportFn<kern::kPciIomap> pci_iomap;
  kern::ImportFn<kern::kRequestIrq> request_irq;
  kern::ImportFn<kern::kFreeIrq> free_irq;
  kern::ImportFn<kern::kPciRegisterDriver> pci_register_driver;
  kern::ImportFn<kern::kPciUnregisterDriver> pci_unregister_driver;
  kern::ImportFn<kern::kModTimer> mod_timer;
  kern::ImportFn<kern::kDelTimer> del_timer;
};

// Writable module data section: the ops table and pci_driver live here.
struct E1000Data {
  kern::NetDeviceOps ops;
  kern::PciDriver drv;
};

// Builds the module definition (imports, functions, init/exit).
kern::ModuleDef E1000ModuleDef();

// Fetches the module state after load.
std::shared_ptr<E1000State> GetE1000(kern::Module& m);

// Simulation-side helper: plugs an e1000-compatible device into the PCI bus
// and wires a NicHw to its register block and IRQ line. Call before loading
// the module.
kern::NicHw* PlugInE1000Device(kern::Kernel* kernel, int irq = 5);

}  // namespace mods

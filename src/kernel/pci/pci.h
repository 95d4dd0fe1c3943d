// PCI subsystem: devices, driver matching, probe dispatch.
//
// Reproduces the ownership contract of Figures 1 and 4: a driver's probe
// receives a REF capability for its pci_dev; pci_enable_device demands that
// REF back, so a module cannot enable (or otherwise drive) someone else's
// device or a forged pci_dev (§2.2 "function call integrity").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/types.h"

namespace kern {

class Kernel;
class Module;

struct PciDev {
  uint16_t vendor = 0;
  uint16_t device = 0;
  int irq = -1;
  bool enabled = false;
  Module* driver = nullptr;
  // BAR0 register block (kernel memory; the owning driver is granted WRITE
  // over it by the pci_iomap annotation).
  void* regs = nullptr;
  size_t regs_size = 0;
  // Device-model backreference (e.g. the NicHw) for the simulation harness;
  // the bus owns the model (PciBus::AttachModel).
  void* hw = nullptr;
};

// pci_driver: module memory holding the probe/remove pointers.
struct PciDriver {
  uint16_t vendor = 0;
  uint16_t device = 0;
  uintptr_t probe = 0;
  uintptr_t remove = 0;
  Module* module = nullptr;
};
inline constexpr FnPtrType<int(PciDev*)> kPciProbe{"pci_driver::probe"};
inline constexpr FnPtrType<void(PciDev*)> kPciRemove{"pci_driver::remove"};
inline constexpr FnPtrType<void(int irq, void* dev_id)> kIrqHandler{"irq_handler_t"};

class PciBus {
 public:
  explicit PciBus(Kernel* kernel) : kernel_(kernel) {}

  // Plugs a device into the bus; regs_size bytes of BAR0 space are carved
  // from kernel memory.
  PciDev* AddDevice(uint16_t vendor, uint16_t device, size_t regs_size, int irq);

  // Hands the bus `dev`'s device model (host-side simulation state, not
  // kernel memory): dev->hw points at it and the bus frees it with the
  // kernel.
  void AttachModel(PciDev* dev, std::shared_ptr<void> model) {
    dev->hw = model.get();
    models_.push_back(std::move(model));
  }

  // pci_register_driver: matches existing devices and invokes probe through
  // the checked indirect-call path. Returns number of devices bound.
  int RegisterDriver(PciDriver* drv);
  void UnregisterDriver(PciDriver* drv);

  // pci_enable_device implementation (exported to modules with a
  // pre(check(ref(pci_dev))) annotation).
  int EnableDevice(PciDev* dev);

  const std::vector<PciDev*>& devices() const { return devices_; }

  // IRQ routing: request_irq stores the handler; FireIrq delivers it in
  // interrupt context.
  int RequestIrq(int irq, uintptr_t handler, void* dev_id);
  void FreeIrq(int irq);
  void FireIrq(int irq);

 private:
  struct IrqSlot {
    uintptr_t handler = 0;  // void(int irq, void* dev_id)
    void* dev_id = nullptr;
  };

  Kernel* kernel_;
  std::vector<PciDev*> devices_;
  std::vector<PciDriver*> drivers_;
  std::vector<std::shared_ptr<void>> models_;  // device models, see AttachModel
  std::vector<IrqSlot> irqs_ = std::vector<IrqSlot>(32);
};

PciBus* GetPciBus(Kernel* kernel);

inline constexpr KernelSymbol<int(PciDriver*)> kPciRegisterDriver{"pci_register_driver"};
inline constexpr KernelSymbol<void(PciDriver*)> kPciUnregisterDriver{"pci_unregister_driver"};
inline constexpr KernelSymbol<int(PciDev*)> kPciEnableDevice{"pci_enable_device"};
inline constexpr KernelSymbol<void(PciDev*)> kPciDisableDevice{"pci_disable_device"};
inline constexpr KernelSymbol<void*(PciDev*)> kPciIomap{"pci_iomap"};
inline constexpr KernelSymbol<int(int irq, uintptr_t handler, void* dev_id)> kRequestIrq{
    "request_irq"};
inline constexpr KernelSymbol<void(int irq)> kFreeIrq{"free_irq"};

}  // namespace kern

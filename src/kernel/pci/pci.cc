#include "src/kernel/pci/pci.h"

#include "src/base/log.h"
#include "src/kernel/kernel.h"
#include "src/kernel/panic.h"

namespace kern {

PciDev* PciBus::AddDevice(uint16_t vendor, uint16_t device, size_t regs_size, int irq) {
  void* mem = kernel_->slab().Alloc(sizeof(PciDev));
  KERN_BUG_ON(mem == nullptr);
  PciDev* dev = new (mem) PciDev();
  dev->vendor = vendor;
  dev->device = device;
  dev->irq = irq;
  if (regs_size > 0) {
    dev->regs = kernel_->slab().Alloc(regs_size);
    KERN_BUG_ON(dev->regs == nullptr);
    dev->regs_size = regs_size;
  }
  devices_.push_back(dev);
  return dev;
}

int PciBus::RegisterDriver(PciDriver* drv) {
  drivers_.push_back(drv);
  int bound = 0;
  for (PciDev* dev : devices_) {
    if (dev->driver == nullptr && dev->vendor == drv->vendor && dev->device == drv->device &&
        drv->probe != 0) {
      int rc = kernel_->IndirectCall(&drv->probe, kPciProbe, dev);
      if (rc == 0) {
        dev->driver = drv->module;
        ++bound;
      } else {
        LXFI_LOG_WARN("pci probe failed for %04x:%04x rc=%d", dev->vendor, dev->device, rc);
      }
    }
  }
  return bound;
}

void PciBus::UnregisterDriver(PciDriver* drv) {
  for (PciDev* dev : devices_) {
    if (dev->driver == drv->module && drv->remove != 0) {
      kernel_->IndirectCall(&drv->remove, kPciRemove, dev);
      dev->driver = nullptr;
      dev->enabled = false;
    }
  }
  for (auto it = drivers_.begin(); it != drivers_.end(); ++it) {
    if (*it == drv) {
      drivers_.erase(it);
      break;
    }
  }
}

int PciBus::EnableDevice(PciDev* dev) {
  bool known = false;
  for (PciDev* d : devices_) {
    if (d == dev) {
      known = true;
      break;
    }
  }
  if (!known) {
    // A forged pci_dev structure: enabling it would program arbitrary bus
    // addresses. The stock kernel trusts the pointer; the annotated API
    // never lets an unowned pointer reach this far.
    LXFI_LOG_WARN("pci_enable_device on unknown pci_dev %p", static_cast<void*>(dev));
    return -kEnodev;
  }
  dev->enabled = true;
  return 0;
}

int PciBus::RequestIrq(int irq, uintptr_t handler, void* dev_id) {
  if (irq < 0 || irq >= static_cast<int>(irqs_.size())) {
    return -kEinval;
  }
  if (irqs_[static_cast<size_t>(irq)].handler != 0) {
    return -kEbusy;
  }
  irqs_[static_cast<size_t>(irq)] = IrqSlot{handler, dev_id};
  return 0;
}

void PciBus::FreeIrq(int irq) {
  if (irq >= 0 && irq < static_cast<int>(irqs_.size())) {
    irqs_[static_cast<size_t>(irq)] = IrqSlot{};
  }
}

void PciBus::FireIrq(int irq) {
  if (irq < 0 || irq >= static_cast<int>(irqs_.size())) {
    return;
  }
  IrqSlot& slot = irqs_[static_cast<size_t>(irq)];
  if (slot.handler == 0) {
    return;
  }
  kernel_->DeliverInterrupt([this, &slot, irq] {
    kernel_->IndirectCall(&slot.handler, kIrqHandler, irq, slot.dev_id);
  });
}

PciBus* GetPciBus(Kernel* kernel) { return kernel->EnsureSubsystem<PciBus>(kernel); }

}  // namespace kern

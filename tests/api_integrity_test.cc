// The §2.2 attack catalogue: each way the paper says a compromised module
// can abuse a "harmless" kernel API, staged by a malicious module and
// checked to be (a) effective on a stock kernel and (b) stopped by LXFI.
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "src/kernel/net/netdevice.h"
#include "src/kernel/pci/pci.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "src/modules/e1000/e1000.h"
#include "tests/testbench.h"

namespace {

using lxfitest::Bench;

// A module that imports powerful-looking interfaces and misuses them on
// command. Its init is benign; each attack is a separate entry point.
struct EvilState {
  kern::Module* m = nullptr;
  kern::ImportFn<kern::kSpinLockInit> spin_lock_init;
  kern::ImportFn<kern::kPciEnableDevice> pci_enable_device;
  kern::ImportFn<kern::kNetifNapiAdd> netif_napi_add;
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfreeSkb> kfree_skb;
  kern::ImportFn<kern::kNetifRx> netif_rx;
};

kern::ModuleDef EvilModuleDef(std::shared_ptr<EvilState> st) {
  kern::ModuleDef def;
  def.name = "evil";
  def.imports = {kern::kSpinLockInit, kern::kPciEnableDevice, kern::kNetifNapiAdd, kern::kKmalloc,
                 kern::kKfreeSkb, kern::kNetifRx, kern::kPrintk};
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    st->spin_lock_init = lxfi::GetImport(m, kern::kSpinLockInit);
    st->pci_enable_device = lxfi::GetImport(m, kern::kPciEnableDevice);
    st->netif_napi_add = lxfi::GetImport(m, kern::kNetifNapiAdd);
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->kfree_skb = lxfi::GetImport(m, kern::kKfreeSkb);
    st->netif_rx = lxfi::GetImport(m, kern::kNetifRx);
    return 0;
  };
  return def;
}

class ApiIntegrityTest : public ::testing::TestWithParam<bool> {
 protected:
  ApiIntegrityTest() : bench_(GetParam()), st_(std::make_shared<EvilState>()) {
    module_ = bench_.kernel->LoadModule(EvilModuleDef(st_));
  }

  bool isolated() const { return GetParam(); }

  // Runs an attack under the module's shared principal; returns true if a
  // violation stopped it.
  template <typename Fn>
  bool Blocked(Fn&& attack) {
    if (!isolated()) {
      attack();
      return false;
    }
    lxfi::ScopedPrincipal as_module(bench_.rt.get(),
                                    bench_.rt->CtxOf(module_)->shared());
    try {
      attack();
      return false;
    } catch (const lxfi::LxfiViolation&) {
      return true;
    }
  }

  Bench bench_;
  std::shared_ptr<EvilState> st_;
  kern::Module* module_ = nullptr;
};

// §1 / §2.2 "write access to memory": spin_lock_init over the current
// process's uid field makes the caller root on a stock kernel.
TEST_P(ApiIntegrityTest, SpinLockInitOverUid) {
  kern::Task* task = bench_.kernel->current_task();
  auto* uid_word = reinterpret_cast<uintptr_t*>(&task->cred);
  bool blocked = Blocked([&] { st_->spin_lock_init(uid_word); });
  if (isolated()) {
    EXPECT_TRUE(blocked);
    EXPECT_EQ(task->cred.uid, 1000u);
  } else {
    EXPECT_EQ(task->cred.uid, 0u) << "stock kernel: uid zeroed = root";
  }
}

// §2.2 "object ownership": enabling a pci_dev the module does not own.
TEST_P(ApiIntegrityTest, EnableSomeoneElsesPciDevice) {
  kern::PciDev* other = kern::GetPciBus(bench_.kernel.get())->AddDevice(0x10ec, 0x8168, 64, 7);
  bool blocked = Blocked([&] { st_->pci_enable_device(other); });
  if (isolated()) {
    EXPECT_TRUE(blocked);
    EXPECT_FALSE(other->enabled);
  } else {
    EXPECT_TRUE(other->enabled) << "stock kernel trusts the pointer";
  }
}

// §2.2 "forged structure": a module-fabricated pci_dev.
TEST_P(ApiIntegrityTest, EnableForgedPciDevice) {
  // The module fabricates a pci_dev in memory it controls.
  auto forge = [&]() -> kern::PciDev* {
    if (isolated()) {
      lxfi::ScopedPrincipal as_module(bench_.rt.get(),
                                      bench_.rt->CtxOf(module_)->shared());
      return static_cast<kern::PciDev*>(st_->kmalloc(sizeof(kern::PciDev)));
    }
    return static_cast<kern::PciDev*>(st_->kmalloc(sizeof(kern::PciDev)));
  };
  kern::PciDev* fake = forge();
  ASSERT_NE(fake, nullptr);
  bool blocked = Blocked([&] { st_->pci_enable_device(fake); });
  if (isolated()) {
    // Even though the module OWNS the memory (WRITE), it holds no REF —
    // write access and object ownership are different capabilities.
    EXPECT_TRUE(blocked);
  }
}

// §2.2 "callback functions": registering an arbitrary pointer as a NAPI
// poll callback would let the kernel run it later.
TEST_P(ApiIntegrityTest, RegisterBogusPollCallback) {
  kern::NetDevice* dev = kern::AllocEtherdev(bench_.kernel.get(), 32);
  kern::NapiStruct napi_storage;
  kern::NapiStruct* napi = &napi_storage;
  uintptr_t bogus = 0x414141414141ull;
  bool blocked = Blocked([&] {
    // On the isolated kernel the module also lacks REF(net_device)/WRITE
    // for dev and napi, so the violation may fire on any of the three
    // checks — all of them are the contract.
    st_->netif_napi_add(dev, napi, bogus);
  });
  if (isolated()) {
    EXPECT_TRUE(blocked);
    EXPECT_NE(dev->napi, napi);
  } else {
    EXPECT_EQ(dev->napi, napi);
    EXPECT_EQ(napi->poll, bogus) << "stock kernel will jump here later";
  }
}

// §2.2 "data structure integrity": an sk_buff whose data pointer aims at
// kernel memory the module cannot write. netif_rx's transfer action audits
// the pointed-to buffer via skb_caps.
TEST_P(ApiIntegrityTest, SkbWithForgedDataPointer) {
  // Kernel-side victim buffer.
  auto* victim = static_cast<uint8_t*>(bench_.kernel->slab().Alloc(256));
  bool blocked = Blocked([&] {
    auto* skb = static_cast<kern::SkBuff*>(st_->kmalloc(sizeof(kern::SkBuff)));
    lxfi::Store(*st_->m, &skb->head, victim);
    lxfi::Store(*st_->m, &skb->data, victim);
    lxfi::Store(*st_->m, &skb->len, 256u);
    lxfi::Store(*st_->m, &skb->capacity, 256u);
    st_->netif_rx(skb);
  });
  if (isolated()) {
    EXPECT_TRUE(blocked) << "transfer(skb_caps) must catch the forged payload pointer";
  }
}

// Freeing an skb the module never owned would let it corrupt the allocator
// state of someone else's packet.
TEST_P(ApiIntegrityTest, FreeForeignSkb) {
  kern::SkBuff* foreign = kern::AllocSkb(bench_.kernel.get(), 64);
  bool blocked = Blocked([&] { st_->kfree_skb(foreign); });
  if (isolated()) {
    EXPECT_TRUE(blocked);
    EXPECT_TRUE(bench_.kernel->slab().IsLive(foreign));
  } else {
    EXPECT_FALSE(bench_.kernel->slab().IsLive(foreign));
  }
}

INSTANTIATE_TEST_SUITE_P(StockAndLxfi, ApiIntegrityTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Lxfi" : "Stock";
                         });

}  // namespace

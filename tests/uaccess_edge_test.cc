// uaccess edge cases on the checked copy path (the capability surface
// vfs_read/vfs_write thread user buffers through): zero-length copies are
// vacuously allowed, ranges straddling a granted/ungranted boundary violate,
// and copy faults surface as -EFAULT instead of a panic — both at the import
// level and through the whole enforced VFS path.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/ksymtab.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/violation.h"
#include "src/lxfi/wrap.h"
#include "src/modules/ramfs/ramfs.h"
#include "tests/testbench.h"

namespace {

using lxfitest::Bench;

// A minimal module that binds the uaccess imports, so the annotated copy
// path runs under module privilege.
struct UaccessRig {
  UaccessRig() : bench(/*isolated=*/true) {
    kern::ModuleDef def;
    def.name = "uamod";
    def.imports = {kern::kKmalloc, kern::kKfree, kern::kCopyFromUser, kern::kCopyToUser,
                   kern::kPrintk};
    def.init = [this](kern::Module& m) -> int {
      module = &m;
      kmalloc = lxfi::GetImport(m, kern::kKmalloc);
      kfree = lxfi::GetImport(m, kern::kKfree);
      copy_from_user = lxfi::GetImport(m, kern::kCopyFromUser);
      copy_to_user = lxfi::GetImport(m, kern::kCopyToUser);
      buf = static_cast<uint8_t*>(kmalloc(64));
      return buf != nullptr ? 0 : -kern::kEnomem;
    };
    EXPECT_NE(bench.kernel->LoadModule(std::move(def)), nullptr);
  }

  lxfi::Principal* shared() { return bench.rt->CtxOf(module)->shared(); }

  Bench bench;
  kern::Module* module = nullptr;
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kCopyFromUser> copy_from_user;
  kern::ImportFn<kern::kCopyToUser> copy_to_user;
  uint8_t* buf = nullptr;  // 64 granted bytes
};

constexpr uintptr_t kUbuf = 0x2000;

TEST(UaccessEdge, ZeroLengthCopyIsVacuouslyAllowed) {
  UaccessRig rig;
  // Destination the module does NOT own: with n == 0 the WRITE check is
  // vacuous ([dst, dst) contains no byte) and the copy succeeds.
  static uint64_t kernel_side = 0;
  lxfi::ScopedPrincipal as_module(rig.bench.rt.get(), rig.shared());
  EXPECT_EQ(rig.copy_from_user(&kernel_side, kUbuf, 0), 0);
  EXPECT_EQ(rig.copy_to_user(kUbuf, rig.buf, 0), 0);
  EXPECT_EQ(rig.bench.rt->violation_count(), 0u);
}

TEST(UaccessEdge, InBoundsCopyPasses) {
  UaccessRig rig;
  std::memset(rig.bench.kernel->user().UserPtr(kUbuf), 0x5a, 64);
  lxfi::ScopedPrincipal as_module(rig.bench.rt.get(), rig.shared());
  EXPECT_EQ(rig.copy_from_user(rig.buf, kUbuf, 64), 0);
  EXPECT_EQ(rig.buf[63], 0x5a);
  EXPECT_EQ(rig.bench.rt->violation_count(), 0u);
}

TEST(UaccessEdge, StraddlingGrantedBoundaryViolates) {
  UaccessRig rig;
  lxfi::ScopedPrincipal as_module(rig.bench.rt.get(), rig.shared());
  // [buf+32, buf+96): first half granted, second half not — the check is on
  // the whole range, so the copy must not start.
  EXPECT_THROW(rig.copy_from_user(rig.buf + 32, kUbuf, 64), lxfi::LxfiViolation);
  // One byte past the end fails the same way.
  EXPECT_THROW(rig.copy_from_user(rig.buf, kUbuf, 65), lxfi::LxfiViolation);
  ASSERT_GE(rig.bench.rt->violation_count(), 2u);
  EXPECT_EQ(rig.bench.rt->violations().back().kind, lxfi::ViolationKind::kCapCheck);
}

TEST(UaccessEdge, CopyFaultSurfacesAsEfaultNotPanic) {
  UaccessRig rig;
  lxfi::ScopedPrincipal as_module(rig.bench.rt.get(), rig.shared());
  // The destination is granted, the *user* address is out of range: the
  // access_ok check fails inside the kernel and -EFAULT comes back through
  // the wrapper — no violation, no panic.
  EXPECT_EQ(rig.copy_from_user(rig.buf, kern::kUserSpaceTop + 0x100, 8), -kern::kEfault);
  EXPECT_EQ(rig.copy_to_user(kern::kUserSpaceTop + 0x100, rig.buf, 8), -kern::kEfault);
  // Length overrunning the top of user space faults the same way.
  EXPECT_EQ(rig.copy_from_user(rig.buf, kern::kUserSpaceTop - 4, 8), -kern::kEfault);
  EXPECT_EQ(rig.bench.rt->violation_count(), 0u);
}

// The same edges through the full enforced VFS path.
class VfsUaccessEdge : public ::testing::TestWithParam<bool> {
 protected:
  VfsUaccessEdge() : bench_(GetParam()) {
    vfs_ = kern::GetVfs(bench_.kernel.get());
    EXPECT_NE(bench_.kernel->LoadModule(mods::RamfsModuleDef()), nullptr);
    EXPECT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  }

  Bench bench_;
  kern::Vfs* vfs_ = nullptr;
};

TEST_P(VfsUaccessEdge, ZeroLengthReadAndWriteReturnZero) {
  int err = 0;
  kern::File* f = vfs_->Open("/mnt/f", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(vfs_->Write(f, kUbuf, 0), 0);
  EXPECT_EQ(vfs_->Read(f, kUbuf, 0), 0);
  EXPECT_EQ(vfs_->Close(f), 0);
  if (GetParam()) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

TEST_P(VfsUaccessEdge, BadUserBufferSurfacesEfaultThroughTheStack) {
  int err = 0;
  kern::File* f = vfs_->Open("/mnt/f", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr);
  // Write with an out-of-range user address: the fault propagates as the
  // syscall result; the module and the kernel survive.
  EXPECT_EQ(vfs_->Write(f, kern::kUserSpaceTop + 0x100, 16), -kern::kEfault);
  // A straddling user range faults before any byte moves.
  EXPECT_EQ(vfs_->Write(f, kern::kUserSpaceTop - 8, 16), -kern::kEfault);
  // The file is still usable afterwards.
  std::memset(bench_.kernel->user().UserPtr(kUbuf), 0x7b, 16);
  EXPECT_EQ(vfs_->Write(f, kUbuf, 16), 16);
  ASSERT_EQ(vfs_->Seek(f, 0), 0);
  EXPECT_EQ(vfs_->Read(f, kern::kUserSpaceTop + 0x100, 16), -kern::kEfault);
  EXPECT_EQ(vfs_->Read(f, kUbuf, 16), 16);
  EXPECT_EQ(vfs_->Close(f), 0);
  if (GetParam()) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u) << "faults are errors, not violations";
  }
}

INSTANTIATE_TEST_SUITE_P(StockAndLxfi, VfsUaccessEdge, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Lxfi" : "Stock";
                         });

}  // namespace

// RDS (Reliable Datagram Sockets) protocol module.
//
// Carries the CVE-2010-3904 vulnerability from §8.1: the page-copy routine
// reaches a user-supplied destination through the *unchecked* copy variant,
// giving a local attacker an arbitrary kernel write. LXFI stops the exploit
// two ways (§8.1 "RDS"):
//   1. rds_proto_ops lives in the module's read-only section, which LXFI
//      never grants WRITE for — the __copy_to_user WRITE check fails.
//   2. With the ops table deliberately made writable
//      (RdsModuleDef(/*ops_writable=*/true)), the overwrite succeeds but the
//      kernel-side indirect-call check rejects the corrupted pointer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/kernel/kernel.h"
#include "src/kernel/net/socket.h"

namespace mods {

inline constexpr size_t kRdsMaxMsg = 256;

struct RdsMessage {
  uint8_t data[kRdsMaxMsg];
  uint32_t len = 0;
};

// Per-socket state.
struct RdsSock {
  kern::Socket* sock = nullptr;
  RdsMessage* queued = nullptr;  // single-slot loopback queue
};

struct RdsData {
  kern::ProtoOps ops;
  kern::NetProtoFamily family;
};

struct RdsState {
  kern::Module* m = nullptr;
  bool ops_writable = false;

  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kSockRegister> sock_register;
  kern::ImportFn<kern::kSockUnregister> sock_unregister;
  kern::ImportFn<kern::kCopyFromUser> copy_from_user;
  kern::ImportFn<kern::kCopyToUserUnchecked> copy_to_user_unchecked;  // __copy_to_user
};

// ops_writable=false puts the ops table in .rodata (the real layout);
// true puts it in .data (the paper's "made writable" experiment).
kern::ModuleDef RdsModuleDef(bool ops_writable = false);
std::shared_ptr<RdsState> GetRds(kern::Module& m);

// The exploit target: address of rds_proto_ops.ioctl.
uintptr_t* RdsIoctlSlot(kern::Module& m);

}  // namespace mods

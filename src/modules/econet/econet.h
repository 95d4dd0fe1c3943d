// econet protocol module.
//
// Carries the two module-side vulnerabilities of the §8.1 Econet exploit
// chain (CVE-2010-3849 NULL-pointer dereference in sendmsg, CVE-2010-3850
// missing privilege check in bind) and demonstrates multi-principal
// structure: each econet socket is one principal; the module's global socket
// list is manipulated only after switching to the global principal with a
// preceding check (Guideline 6).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/kernel/kernel.h"
#include "src/kernel/net/socket.h"

namespace mods {

// Per-socket module state (kmalloc'd; owned by the socket's principal).
struct EconetSock {
  int station = -1;           // bound econet station number
  kern::Socket* sock = nullptr;
  EconetSock* next = nullptr;  // global socket list linkage
  uint8_t last_msg[64] = {};
  uint32_t last_len = 0;
};

// Module .data: the ops tables and the global list head.
struct EconetData {
  kern::ProtoOps ops;
  kern::NetProtoFamily family;
  EconetSock* sock_list = nullptr;
};

struct EconetState {
  kern::Module* m = nullptr;

  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kSockRegister> sock_register;
  kern::ImportFn<kern::kSockUnregister> sock_unregister;
  kern::ImportFn<kern::kCopyFromUser> copy_from_user;
  kern::ImportFn<kern::kCopyToUser> copy_to_user;

  uint64_t sends = 0;
  uint64_t binds = 0;
};

kern::ModuleDef EconetModuleDef();
std::shared_ptr<EconetState> GetEconet(kern::Module& m);

// Address of the ioctl slot in the module's ops table (the exploit target).
uintptr_t* EconetIoctlSlot(kern::Module& m);

}  // namespace mods

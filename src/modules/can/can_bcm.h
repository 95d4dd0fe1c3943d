// CAN broadcast-manager (can-bcm) module.
//
// Carries the CVE-2010-2959 integer overflow of §8.1: bcm_rx_setup computes
// the receive-filter allocation size as `nframes * sizeof(can_frame)` in
// 32 bits; a huge user-supplied nframes wraps the multiplication, kmalloc
// returns an undersized buffer, and the subsequent frame copies run off its
// end into the adjacent slab object. Under LXFI the module's WRITE
// capability covers only the *actual* allocation, so the first out-of-bounds
// copy faults.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/kernel/kernel.h"
#include "src/kernel/net/socket.h"
#include "src/modules/can/can.h"

namespace mods {

// Distinct family id for the broadcast manager (a simplification: real
// can-bcm shares AF_CAN with a protocol multiplexer inside the can core).
inline constexpr int kAfCanBcm = 30;

// bcm_msg_head, as read from the user's sendmsg payload.
struct BcmMsgHead {
  uint32_t opcode = 0;
  uint32_t nframes = 0;
};

inline constexpr uint32_t kBcmRxSetup = 1;
inline constexpr uint32_t kBcmTxSend = 2;

struct BcmSock {
  kern::Socket* sock = nullptr;
  CanFrame* rx_filters = nullptr;  // the undersized buffer of the exploit
  uint32_t rx_nframes = 0;
  CanFrame last_tx;
};

struct BcmData {
  kern::ProtoOps ops;
  kern::NetProtoFamily family;
};

struct BcmState {
  kern::Module* m = nullptr;
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kSockRegister> sock_register;
  kern::ImportFn<kern::kSockUnregister> sock_unregister;
  kern::ImportFn<kern::kCopyFromUser> copy_from_user;
  kern::ImportFn<kern::kCopyToUser> copy_to_user;
};

kern::ModuleDef CanBcmModuleDef();
std::shared_ptr<BcmState> GetCanBcm(kern::Module& m);

}  // namespace mods

// CAN core protocol module: raw AF_CAN sockets with loopback delivery.
//
// The benign sibling of can-bcm; provides the baseline socket surface the
// Figure 9 annotation counts include for "can".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/kernel/kernel.h"
#include "src/kernel/net/socket.h"

namespace mods {

// A classic CAN frame: 4-byte id, 4-byte dlc, 8 data bytes.
struct CanFrame {
  uint32_t can_id = 0;
  uint32_t can_dlc = 0;
  uint8_t data[8] = {};
};
static_assert(sizeof(CanFrame) == 16, "CAN frame must be 16 bytes (the BCM overflow stride)");

struct CanSock {
  kern::Socket* sock = nullptr;
  uint32_t filter_id = 0;
  CanFrame last_frame;
  bool has_frame = false;
};

struct CanData {
  kern::ProtoOps ops;
  kern::NetProtoFamily family;
};

struct CanState {
  kern::Module* m = nullptr;
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kSockRegister> sock_register;
  kern::ImportFn<kern::kSockUnregister> sock_unregister;
  kern::ImportFn<kern::kCopyFromUser> copy_from_user;
  kern::ImportFn<kern::kCopyToUser> copy_to_user;
};

kern::ModuleDef CanModuleDef();
std::shared_ptr<CanState> GetCan(kern::Module& m);

}  // namespace mods

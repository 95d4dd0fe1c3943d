// Sockets and protocol families.
//
// Protocol modules (econet, rds, can, can-bcm) register a family whose
// create function instantiates per-socket state; the kernel then dispatches
// ioctl/sendmsg/recvmsg through the module's proto_ops table — the exact
// indirect-call surface the RDS and econet exploits corrupt (§8.1). Each
// socket is one LXFI principal in the annotated modules (§3.1).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/kernel/types.h"

namespace kern {

class Kernel;
struct MsgHdr;
struct Socket;
struct Task;

// Address families used by the annotated modules.
inline constexpr int kAfEconet = 19;
inline constexpr int kAfRds = 21;
inline constexpr int kAfCan = 29;

// Function-pointer table; lives in module memory (rodata by default, like
// Linux's `static const struct proto_ops`).
struct ProtoOps {
  uintptr_t release = 0;
  uintptr_t bind = 0;
  uintptr_t ioctl = 0;
  uintptr_t sendmsg = 0;
  uintptr_t recvmsg = 0;
};
inline constexpr FnPtrType<int(Socket*)> kProtoRelease{"proto_ops::release"};
inline constexpr FnPtrType<int(Socket*, uintptr_t uaddr, size_t len)> kProtoBind{"proto_ops::bind"};
inline constexpr FnPtrType<int(Socket*, unsigned, uintptr_t)> kProtoIoctl{"proto_ops::ioctl"};
inline constexpr FnPtrType<int(Socket*, MsgHdr*)> kProtoSendmsg{"proto_ops::sendmsg"};
inline constexpr FnPtrType<int(Socket*, MsgHdr*)> kProtoRecvmsg{"proto_ops::recvmsg"};

struct Socket {
  int family = 0;
  int type = 0;
  ProtoOps* ops = nullptr;
  void* sk = nullptr;  // module-private per-socket state
  Task* owner = nullptr;
};

// Simplified msghdr: a user-space buffer plus an optional address blob.
struct MsgHdr {
  uintptr_t user_buf = 0;  // user VA of payload
  size_t len = 0;
  uintptr_t name = 0;  // user VA of sockaddr (module-interpreted)
  size_t name_len = 0;
};

// net_proto_family: module memory holding the create-function pointer, so
// the kernel's indirect call has a module-writable home slot.
struct NetProtoFamily {
  int family = 0;
  uintptr_t create = 0;
};
inline constexpr FnPtrType<int(Socket*)> kProtoFamilyCreate{"net_proto_family::create"};

class SocketLayer {
 public:
  explicit SocketLayer(Kernel* kernel) : kernel_(kernel) {}

  // sock_register / sock_unregister.
  int RegisterFamily(NetProtoFamily* fam);
  void UnregisterFamily(int family);

  // System-call surface (trusted kernel code making indirect calls into the
  // protocol module).
  Socket* SysSocket(int family, int type);
  int SysBind(Socket* sock, uintptr_t uaddr, size_t len);
  int SysIoctl(Socket* sock, unsigned cmd, uintptr_t arg);
  int SysSendmsg(Socket* sock, MsgHdr* msg);
  int SysRecvmsg(Socket* sock, MsgHdr* msg);
  int SysClose(Socket* sock);

  size_t open_sockets() const { return sockets_.size(); }

 private:
  Kernel* kernel_;
  std::unordered_map<int, NetProtoFamily*> families_;
  std::vector<Socket*> sockets_;
};

SocketLayer* GetSocketLayer(Kernel* kernel);

inline constexpr KernelSymbol<int(NetProtoFamily*)> kSockRegister{"sock_register"};
inline constexpr KernelSymbol<void(int family)> kSockUnregister{"sock_unregister"};

}  // namespace kern

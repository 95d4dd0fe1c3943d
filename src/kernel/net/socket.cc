#include "src/kernel/net/socket.h"

#include "src/kernel/kernel.h"

namespace kern {

int SocketLayer::RegisterFamily(NetProtoFamily* fam) {
  if (families_.count(fam->family) != 0) {
    return -kEinval;
  }
  families_[fam->family] = fam;
  return 0;
}

void SocketLayer::UnregisterFamily(int family) { families_.erase(family); }

Socket* SocketLayer::SysSocket(int family, int type) {
  auto it = families_.find(family);
  if (it == families_.end()) {
    return nullptr;
  }
  void* mem = kernel_->slab().Alloc(sizeof(Socket));
  if (mem == nullptr) {
    return nullptr;
  }
  Socket* sock = new (mem) Socket();
  sock->family = family;
  sock->type = type;
  sock->owner = kernel_->current_task();
  int rc = kernel_->IndirectCall(&it->second->create, kProtoFamilyCreate, sock);
  if (rc != 0) {
    kernel_->slab().Free(sock);
    return nullptr;
  }
  sockets_.push_back(sock);
  return sock;
}

int SocketLayer::SysBind(Socket* sock, uintptr_t uaddr, size_t len) {
  if (sock->ops == nullptr || sock->ops->bind == 0) {
    return -kEinval;
  }
  return kernel_->IndirectCall(&sock->ops->bind, kProtoBind, sock, uaddr, len);
}

int SocketLayer::SysIoctl(Socket* sock, unsigned cmd, uintptr_t arg) {
  if (sock->ops == nullptr) {
    return -kEinval;
  }
  // NOTE: deliberately no check that the ioctl pointer is non-zero — a real
  // kernel jumps through whatever the ops table holds, which is exactly what
  // the econet/RDS exploits depend on.
  return kernel_->IndirectCall(&sock->ops->ioctl, kProtoIoctl, sock, cmd, arg);
}

int SocketLayer::SysSendmsg(Socket* sock, MsgHdr* msg) {
  if (sock->ops == nullptr || sock->ops->sendmsg == 0) {
    return -kEinval;
  }
  return kernel_->IndirectCall(&sock->ops->sendmsg, kProtoSendmsg, sock, msg);
}

int SocketLayer::SysRecvmsg(Socket* sock, MsgHdr* msg) {
  if (sock->ops == nullptr || sock->ops->recvmsg == 0) {
    return -kEinval;
  }
  return kernel_->IndirectCall(&sock->ops->recvmsg, kProtoRecvmsg, sock, msg);
}

int SocketLayer::SysClose(Socket* sock) {
  int rc = 0;
  if (sock->ops != nullptr && sock->ops->release != 0) {
    rc = kernel_->IndirectCall(&sock->ops->release, kProtoRelease, sock);
  }
  for (auto it = sockets_.begin(); it != sockets_.end(); ++it) {
    if (*it == sock) {
      sockets_.erase(it);
      break;
    }
  }
  kernel_->slab().Free(sock);
  return rc;
}

SocketLayer* GetSocketLayer(Kernel* kernel) { return kernel->EnsureSubsystem<SocketLayer>(kernel); }

}  // namespace kern

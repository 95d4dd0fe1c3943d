#include "src/modules/can/can.h"

#include "src/kernel/kernel.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/wrap.h"

namespace mods {
namespace {

CanData* DataOf(CanState& st) { return static_cast<CanData*>(st.m->data()); }
CanSock* SkOf(kern::Socket* sock) { return static_cast<CanSock*>(sock->sk); }

int Create(CanState& st, kern::Socket* sock) {
  kern::Module& m = *st.m;
  auto* cs = static_cast<CanSock*>(st.kmalloc(sizeof(CanSock)));
  if (cs == nullptr) {
    return -kern::kEnomem;
  }
  lxfi::Store(m, &cs->sock, sock);
  lxfi::Store(m, &sock->sk, static_cast<void*>(cs));
  lxfi::Store(m, &sock->ops, &DataOf(st)->ops);
  return 0;
}

int Release(CanState& st, kern::Socket* sock) {
  CanSock* cs = SkOf(sock);
  if (cs != nullptr) {
    st.kfree(cs);
  }
  return 0;
}

int Bind(CanState& st, kern::Socket* sock, uintptr_t uaddr, size_t len) {
  CanSock* cs = SkOf(sock);
  if (cs == nullptr || len < sizeof(uint32_t)) {
    return -kern::kEinval;
  }
  uint32_t id = 0;
  int rc = st.copy_from_user(&id, uaddr, sizeof(id));
  if (rc != 0) {
    return rc;
  }
  lxfi::Store(*st.m, &cs->filter_id, id);
  return 0;
}

// Loopback: a sent frame is delivered back to the sender's own receive slot
// (single-node CAN bus).
int Sendmsg(CanState& st, kern::Socket* sock, kern::MsgHdr* msg) {
  kern::Module& m = *st.m;
  CanSock* cs = SkOf(sock);
  if (cs == nullptr || msg->len < sizeof(CanFrame)) {
    return -kern::kEinval;
  }
  CanFrame frame;
  int rc = st.copy_from_user(&frame, msg->user_buf, sizeof(frame));
  if (rc != 0) {
    return rc;
  }
  lxfi::MemCopy(m, &cs->last_frame, &frame, sizeof(frame));
  lxfi::Store(m, &cs->has_frame, true);
  return static_cast<int>(sizeof(frame));
}

int Recvmsg(CanState& st, kern::Socket* sock, kern::MsgHdr* msg) {
  CanSock* cs = SkOf(sock);
  if (cs == nullptr || !cs->has_frame) {
    return -kern::kEnotconn;
  }
  size_t n = msg->len < sizeof(CanFrame) ? msg->len : sizeof(CanFrame);
  int rc = st.copy_to_user(msg->user_buf, &cs->last_frame, n);
  if (rc != 0) {
    return rc;
  }
  lxfi::Store(*st.m, &cs->has_frame, false);
  return static_cast<int>(n);
}

int Ioctl(CanState& st, kern::Socket* sock, unsigned cmd, uintptr_t arg) {
  CanSock* cs = SkOf(sock);
  if (cs == nullptr) {
    return -kern::kEnotconn;
  }
  return st.copy_to_user(arg, &cs->filter_id, sizeof(cs->filter_id));
}

}  // namespace

kern::ModuleDef CanModuleDef() {
  auto st = std::make_shared<CanState>();
  kern::ModuleDef def;
  def.name = "can";
  def.data_size = sizeof(CanData);
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kSockRegister, kern::kSockUnregister,
                 kern::kPrintk, kern::kCopyFromUser, kern::kCopyToUser};
  def.functions = {
      lxfi::DeclareFunction("can_create", kern::kProtoFamilyCreate,
                            [st](kern::Socket* sock) { return Create(*st, sock); }),
      lxfi::DeclareFunction("can_release", kern::kProtoRelease,
                            [st](kern::Socket* sock) { return Release(*st, sock); }),
      lxfi::DeclareFunction("can_bind", kern::kProtoBind,
                            [st](kern::Socket* sock, uintptr_t uaddr, size_t len) {
                              return Bind(*st, sock, uaddr, len);
                            }),
      lxfi::DeclareFunction("can_ioctl", kern::kProtoIoctl,
                            [st](kern::Socket* sock, unsigned cmd, uintptr_t arg) {
                              return Ioctl(*st, sock, cmd, arg);
                            }),
      lxfi::DeclareFunction(
          "can_sendmsg", kern::kProtoSendmsg,
          [st](kern::Socket* sock, kern::MsgHdr* msg) { return Sendmsg(*st, sock, msg); }),
      lxfi::DeclareFunction(
          "can_recvmsg", kern::kProtoRecvmsg,
          [st](kern::Socket* sock, kern::MsgHdr* msg) { return Recvmsg(*st, sock, msg); }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->kfree = lxfi::GetImport(m, kern::kKfree);
    st->sock_register = lxfi::GetImport(m, kern::kSockRegister);
    st->sock_unregister = lxfi::GetImport(m, kern::kSockUnregister);
    st->copy_from_user = lxfi::GetImport(m, kern::kCopyFromUser);
    st->copy_to_user = lxfi::GetImport(m, kern::kCopyToUser);
    auto* data = static_cast<CanData*>(m.data());
    lxfi::Store(m, &data->ops.release, m.FuncAddr("can_release"));
    lxfi::Store(m, &data->ops.bind, m.FuncAddr("can_bind"));
    lxfi::Store(m, &data->ops.ioctl, m.FuncAddr("can_ioctl"));
    lxfi::Store(m, &data->ops.sendmsg, m.FuncAddr("can_sendmsg"));
    lxfi::Store(m, &data->ops.recvmsg, m.FuncAddr("can_recvmsg"));
    lxfi::Store(m, &data->family.family, kern::kAfCan);
    lxfi::Store(m, &data->family.create, m.FuncAddr("can_create"));
    return st->sock_register(&data->family);
  };
  def.exit_fn = [st](kern::Module& m) { st->sock_unregister(kern::kAfCan); };
  return def;
}

std::shared_ptr<CanState> GetCan(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<CanState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

}  // namespace mods

#include "src/modules/can/can_bcm.h"

#include "src/kernel/kernel.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/wrap.h"

namespace mods {
namespace {

BcmData* DataOf(BcmState& st) { return static_cast<BcmData*>(st.m->data()); }
BcmSock* SkOf(kern::Socket* sock) { return static_cast<BcmSock*>(sock->sk); }

int Create(BcmState& st, kern::Socket* sock) {
  kern::Module& m = *st.m;
  auto* bs = static_cast<BcmSock*>(st.kmalloc(sizeof(BcmSock)));
  if (bs == nullptr) {
    return -kern::kEnomem;
  }
  lxfi::Store(m, &bs->sock, sock);
  lxfi::Store(m, &sock->sk, static_cast<void*>(bs));
  lxfi::Store(m, &sock->ops, &DataOf(st)->ops);
  return 0;
}

int Release(BcmState& st, kern::Socket* sock) {
  BcmSock* bs = SkOf(sock);
  if (bs != nullptr) {
    if (bs->rx_filters != nullptr) {
      st.kfree(bs->rx_filters);
    }
    st.kfree(bs);
  }
  return 0;
}

// bcm_rx_setup (CVE-2010-2959). The allocation size is computed in 32 bits:
// nframes = 0x10000001 makes `nframes * 16` wrap to 16, so kmalloc returns
// room for ONE frame while the copy loop below writes as many frames as the
// message payload carries — straight into the next slab object on a stock
// kernel. LXFI granted a WRITE capability for only the 16 actually-allocated
// bytes, so the second frame's copy_from_user fails its WRITE check.
int RxSetup(BcmState& st, BcmSock* bs, const BcmMsgHead& head, kern::MsgHdr* msg) {
  kern::Module& m = *st.m;
  uint32_t alloc_size = head.nframes * static_cast<uint32_t>(sizeof(CanFrame));  // overflows
  auto* filters = static_cast<CanFrame*>(st.kmalloc(alloc_size));
  if (filters == nullptr) {
    return -kern::kEnomem;
  }
  size_t payload = msg->len - sizeof(BcmMsgHead);
  size_t frames_in_msg = payload / sizeof(CanFrame);
  for (size_t i = 0; i < frames_in_msg && i < head.nframes; ++i) {
    int rc = st.copy_from_user(&filters[i], msg->user_buf + sizeof(BcmMsgHead) + i * sizeof(CanFrame),
                               sizeof(CanFrame));
    if (rc != 0) {
      st.kfree(filters);
      return rc;
    }
  }
  if (bs->rx_filters != nullptr) {
    st.kfree(bs->rx_filters);
  }
  lxfi::Store(m, &bs->rx_filters, filters);
  lxfi::Store(m, &bs->rx_nframes, head.nframes);
  return 0;
}

int Sendmsg(BcmState& st, kern::Socket* sock, kern::MsgHdr* msg) {
  kern::Module& m = *st.m;
  BcmSock* bs = SkOf(sock);
  if (bs == nullptr || msg->len < sizeof(BcmMsgHead)) {
    return -kern::kEinval;
  }
  BcmMsgHead head;
  int rc = st.copy_from_user(&head, msg->user_buf, sizeof(head));
  if (rc != 0) {
    return rc;
  }
  switch (head.opcode) {
    case kBcmRxSetup:
      rc = RxSetup(st, bs, head, msg);
      return rc != 0 ? rc : static_cast<int>(msg->len);
    case kBcmTxSend: {
      if (msg->len < sizeof(BcmMsgHead) + sizeof(CanFrame)) {
        return -kern::kEinval;
      }
      CanFrame frame;
      rc = st.copy_from_user(&frame, msg->user_buf + sizeof(BcmMsgHead), sizeof(frame));
      if (rc != 0) {
        return rc;
      }
      lxfi::MemCopy(m, &bs->last_tx, &frame, sizeof(frame));
      return static_cast<int>(msg->len);
    }
    default:
      return -kern::kEinval;
  }
}

int Recvmsg(BcmState& st, kern::Socket* sock, kern::MsgHdr* msg) {
  BcmSock* bs = SkOf(sock);
  if (bs == nullptr) {
    return -kern::kEnotconn;
  }
  size_t n = msg->len < sizeof(CanFrame) ? msg->len : sizeof(CanFrame);
  return st.copy_to_user(msg->user_buf, &bs->last_tx, n);
}

int Ioctl(BcmState& st, kern::Socket* sock, unsigned cmd, uintptr_t arg) {
  BcmSock* bs = SkOf(sock);
  if (bs == nullptr) {
    return -kern::kEnotconn;
  }
  return st.copy_to_user(arg, &bs->rx_nframes, sizeof(bs->rx_nframes));
}

}  // namespace

kern::ModuleDef CanBcmModuleDef() {
  auto st = std::make_shared<BcmState>();
  kern::ModuleDef def;
  def.name = "can-bcm";
  def.data_size = sizeof(BcmData);
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kSockRegister, kern::kSockUnregister,
                 kern::kPrintk, kern::kCopyFromUser, kern::kCopyToUser};
  def.functions = {
      lxfi::DeclareFunction("bcm_create", kern::kProtoFamilyCreate,
                            [st](kern::Socket* sock) { return Create(*st, sock); }),
      lxfi::DeclareFunction("bcm_release", kern::kProtoRelease,
                            [st](kern::Socket* sock) { return Release(*st, sock); }),
      lxfi::DeclareFunction("bcm_ioctl", kern::kProtoIoctl,
                            [st](kern::Socket* sock, unsigned cmd, uintptr_t arg) {
                              return Ioctl(*st, sock, cmd, arg);
                            }),
      lxfi::DeclareFunction(
          "bcm_sendmsg", kern::kProtoSendmsg,
          [st](kern::Socket* sock, kern::MsgHdr* msg) { return Sendmsg(*st, sock, msg); }),
      lxfi::DeclareFunction(
          "bcm_recvmsg", kern::kProtoRecvmsg,
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
    auto* data = static_cast<BcmData*>(m.data());
    lxfi::Store(m, &data->ops.release, m.FuncAddr("bcm_release"));
    lxfi::Store(m, &data->ops.ioctl, m.FuncAddr("bcm_ioctl"));
    lxfi::Store(m, &data->ops.sendmsg, m.FuncAddr("bcm_sendmsg"));
    lxfi::Store(m, &data->ops.recvmsg, m.FuncAddr("bcm_recvmsg"));
    lxfi::Store(m, &data->family.family, kAfCanBcm);
    lxfi::Store(m, &data->family.create, m.FuncAddr("bcm_create"));
    return st->sock_register(&data->family);
  };
  def.exit_fn = [st](kern::Module& m) { st->sock_unregister(kAfCanBcm); };
  return def;
}

std::shared_ptr<BcmState> GetCanBcm(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<BcmState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

}  // namespace mods

#include "src/modules/rds/rds.h"

#include "src/kernel/kernel.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/wrap.h"

namespace mods {
namespace {

RdsData* DataOf(RdsState& st) {
  return st.ops_writable ? static_cast<RdsData*>(st.m->data())
                         : static_cast<RdsData*>(st.m->rodata());
}

RdsSock* SkOf(kern::Socket* sock) { return static_cast<RdsSock*>(sock->sk); }

int Create(RdsState& st, kern::Socket* sock) {
  kern::Module& m = *st.m;
  auto* rs = static_cast<RdsSock*>(st.kmalloc(sizeof(RdsSock)));
  if (rs == nullptr) {
    return -kern::kEnomem;
  }
  lxfi::Store(m, &rs->sock, sock);
  lxfi::Store(m, &sock->sk, static_cast<void*>(rs));
  lxfi::Store(m, &sock->ops, &DataOf(st)->ops);
  return 0;
}

int Release(RdsState& st, kern::Socket* sock) {
  RdsSock* rs = SkOf(sock);
  if (rs != nullptr) {
    if (rs->queued != nullptr) {
      st.kfree(rs->queued);
    }
    st.kfree(rs);
  }
  return 0;
}

// Loopback send: queue the message on the socket itself.
int Sendmsg(RdsState& st, kern::Socket* sock, kern::MsgHdr* msg) {
  kern::Module& m = *st.m;
  RdsSock* rs = SkOf(sock);
  if (rs == nullptr) {
    return -kern::kEnotconn;
  }
  auto* rm = static_cast<RdsMessage*>(st.kmalloc(sizeof(RdsMessage)));
  if (rm == nullptr) {
    return -kern::kEnomem;
  }
  size_t n = msg->len < kRdsMaxMsg ? msg->len : kRdsMaxMsg;
  int rc = st.copy_from_user(rm->data, msg->user_buf, n);
  if (rc != 0) {
    st.kfree(rm);
    return rc;
  }
  lxfi::Store(m, &rm->len, static_cast<uint32_t>(n));
  if (rs->queued != nullptr) {
    st.kfree(rs->queued);
  }
  lxfi::Store(m, &rs->queued, rm);
  return static_cast<int>(n);
}

// rds_page_copy_user (CVE-2010-3904): the destination comes straight from
// the user-controlled msghdr, yet the copy goes through __copy_to_user,
// which performs no access_ok() — a kernel address in msg->user_buf becomes
// an arbitrary kernel write on a stock kernel. Under LXFI, the annotation on
// __copy_to_user demands the caller own WRITE for the destination range.
int Recvmsg(RdsState& st, kern::Socket* sock, kern::MsgHdr* msg) {
  RdsSock* rs = SkOf(sock);
  if (rs == nullptr || rs->queued == nullptr) {
    return -kern::kEnotconn;
  }
  RdsMessage* rm = rs->queued;
  size_t n = rm->len < msg->len ? rm->len : msg->len;
  int rc = st.copy_to_user_unchecked(msg->user_buf, rm->data, n);
  if (rc != 0) {
    return rc;
  }
  st.kfree(rm);
  lxfi::Store(*st.m, &rs->queued, static_cast<RdsMessage*>(nullptr));
  return static_cast<int>(n);
}

int Ioctl(RdsState& st, kern::Socket* sock, unsigned cmd, uintptr_t arg) {
  RdsSock* rs = SkOf(sock);
  if (rs == nullptr) {
    return -kern::kEnotconn;
  }
  int queued = rs->queued != nullptr ? 1 : 0;
  return st.copy_to_user_unchecked(arg, &queued, sizeof(queued));
}

}  // namespace

kern::ModuleDef RdsModuleDef(bool ops_writable) {
  auto st = std::make_shared<RdsState>();
  st->ops_writable = ops_writable;
  kern::ModuleDef def;
  def.name = "rds";
  if (ops_writable) {
    def.data_size = sizeof(RdsData);
  } else {
    def.rodata_size = sizeof(RdsData);
    def.data_size = 64;  // token .bss
  }
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kSockRegister, kern::kSockUnregister,
                 kern::kPrintk, kern::kCopyFromUser, kern::kCopyToUserUnchecked};
  def.functions = {
      lxfi::DeclareFunction("rds_create", kern::kProtoFamilyCreate,
                            [st](kern::Socket* sock) { return Create(*st, sock); }),
      lxfi::DeclareFunction("rds_release", kern::kProtoRelease,
                            [st](kern::Socket* sock) { return Release(*st, sock); }),
      lxfi::DeclareFunction("rds_ioctl", kern::kProtoIoctl,
                            [st](kern::Socket* sock, unsigned cmd, uintptr_t arg) {
                              return Ioctl(*st, sock, cmd, arg);
                            }),
      lxfi::DeclareFunction(
          "rds_sendmsg", kern::kProtoSendmsg,
          [st](kern::Socket* sock, kern::MsgHdr* msg) { return Sendmsg(*st, sock, msg); }),
      lxfi::DeclareFunction(
          "rds_recvmsg", kern::kProtoRecvmsg,
          [st](kern::Socket* sock, kern::MsgHdr* msg) { return Recvmsg(*st, sock, msg); }),
  };
  // The ops table is a `static const struct proto_ops`: the loader patches
  // the relocated function addresses — module code never writes it.
  def.patch_relocs = [st](kern::Module& m) {
    auto* data = st->ops_writable ? static_cast<RdsData*>(m.data())
                                  : static_cast<RdsData*>(m.rodata());
    data->ops.release = m.FuncAddr("rds_release");
    data->ops.ioctl = m.FuncAddr("rds_ioctl");
    data->ops.sendmsg = m.FuncAddr("rds_sendmsg");
    data->ops.recvmsg = m.FuncAddr("rds_recvmsg");
    data->family.family = kern::kAfRds;
    data->family.create = m.FuncAddr("rds_create");
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->kfree = lxfi::GetImport(m, kern::kKfree);
    st->sock_register = lxfi::GetImport(m, kern::kSockRegister);
    st->sock_unregister = lxfi::GetImport(m, kern::kSockUnregister);
    st->copy_from_user = lxfi::GetImport(m, kern::kCopyFromUser);
    st->copy_to_user_unchecked = lxfi::GetImport(m, kern::kCopyToUserUnchecked);
    return st->sock_register(&DataOf(*st)->family);
  };
  def.exit_fn = [st](kern::Module& m) { st->sock_unregister(kern::kAfRds); };
  return def;
}

std::shared_ptr<RdsState> GetRds(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<RdsState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

uintptr_t* RdsIoctlSlot(kern::Module& m) {
  auto sp = GetRds(m);
  RdsData* data = sp->ops_writable ? static_cast<RdsData*>(m.data())
                                   : static_cast<RdsData*>(m.rodata());
  return &data->ops.ioctl;
}

}  // namespace mods

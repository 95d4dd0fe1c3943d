#include "src/modules/econet/econet.h"

#include "src/kernel/kernel.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/wrap.h"

namespace mods {
namespace {

EconetData* DataOf(EconetState& st) { return static_cast<EconetData*>(st.m->data()); }

EconetSock* SkOf(kern::Socket* sock) { return static_cast<EconetSock*>(sock->sk); }

// Simulates the hardware trap a NULL dereference takes in a real kernel: the
// oops handler kills the current process via do_exit(). CVE-2010-4258 lives
// inside that do_exit (the clear_child_tid store with KERNEL_DS); the module
// merely provides the reachable NULL dereference (CVE-2010-3849).
void OopsNullDeref(kern::Kernel* kernel) {
  kern::Task* task = kernel->current_task();
  if (task != nullptr) {
    kernel->procs().DoExit(task);
  }
}

int Create(EconetState& st, kern::Socket* sock) {
  kern::Module& m = *st.m;
  auto* es = static_cast<EconetSock*>(st.kmalloc(sizeof(EconetSock)));
  if (es == nullptr) {
    return -kern::kEnomem;
  }
  lxfi::Store(m, &es->sock, sock);
  lxfi::Store(m, &sock->sk, static_cast<void*>(es));
  lxfi::Store(m, &sock->ops, &DataOf(st)->ops);

  // Link into the module-wide socket list. Head insertion touches only this
  // instance's node and the shared .data head, so no global principal is
  // needed here (the shared principal's capabilities are implicitly
  // available to every instance).
  EconetData* data = DataOf(st);
  lxfi::Store(m, &es->next, data->sock_list);
  lxfi::Store(m, &data->sock_list, es);
  return 0;
}

int Release(EconetState& st, kern::Socket* sock) {
  kern::Module& m = *st.m;
  lxfi::Runtime* rt = lxfi::RuntimeOf(m);
  EconetSock* es = SkOf(sock);
  if (es == nullptr) {
    return 0;
  }
  EconetData* data = DataOf(st);

  // Unlinking may rewrite the `next` pointer of *another* socket's node,
  // which only the global principal may do (Guideline 6). The preceding
  // check ensures an adversary cannot reach this privileged region with a
  // socket it does not own.
  if (rt != nullptr) {
    rt->LxfiCheck(lxfi::Capability::Write(es, sizeof(EconetSock)));
    lxfi::ScopedPrincipal as_global(rt, rt->GlobalOfCurrent());
    EconetSock** link = &data->sock_list;
    while (*link != nullptr && *link != es) {
      link = &(*link)->next;
    }
    if (*link == es) {
      lxfi::Store(m, link, es->next);
    }
  } else {
    EconetSock** link = &data->sock_list;
    while (*link != nullptr && *link != es) {
      link = &(*link)->next;
    }
    if (*link == es) {
      *link = es->next;
    }
  }
  st.kfree(es);
  return 0;
}

int Bind(EconetState& st, kern::Socket* sock, uintptr_t uaddr, size_t len) {
  kern::Module& m = *st.m;
  EconetSock* es = SkOf(sock);
  if (es == nullptr || len < sizeof(int)) {
    return -kern::kEinval;
  }
  int station = 0;
  // CVE-2010-3850: econet_bind performed no capability (privilege) check, so
  // any local user could take over station numbers. Reproduced as-is: the
  // module never consults current_task()->cred.
  int rc = st.copy_from_user(&station, uaddr, sizeof(station));
  if (rc != 0) {
    return rc;
  }
  lxfi::Store(m, &es->station, station);
  ++st.binds;
  return 0;
}

int Sendmsg(EconetState& st, kern::Socket* sock, kern::MsgHdr* msg) {
  kern::Module& m = *st.m;
  EconetSock* es = SkOf(sock);
  if (es == nullptr) {
    return -kern::kEnotconn;
  }
  if (msg->name == 0) {
    // CVE-2010-3849: econet_sendmsg dereferences the destination address
    // without a NULL check. The dereference traps; the oops handler kills
    // the process — running do_exit() with its own missed context reset.
    OopsNullDeref(m.kernel());
    return -kern::kEfault;
  }
  size_t n = msg->len < sizeof(es->last_msg) ? msg->len : sizeof(es->last_msg);
  int rc = st.copy_from_user(es->last_msg, msg->user_buf, n);
  if (rc != 0) {
    return rc;
  }
  lxfi::Store(m, &es->last_len, static_cast<uint32_t>(n));
  ++st.sends;
  return static_cast<int>(n);
}

int Recvmsg(EconetState& st, kern::Socket* sock, kern::MsgHdr* msg) {
  EconetSock* es = SkOf(sock);
  if (es == nullptr) {
    return -kern::kEnotconn;
  }
  size_t n = es->last_len < msg->len ? es->last_len : msg->len;
  int rc = st.copy_to_user(msg->user_buf, es->last_msg, n);
  return rc != 0 ? rc : static_cast<int>(n);
}

int Ioctl(EconetState& st, kern::Socket* sock, unsigned cmd, uintptr_t arg) {
  EconetSock* es = SkOf(sock);
  if (es == nullptr) {
    return -kern::kEnotconn;
  }
  return st.copy_to_user(arg, &es->station, sizeof(es->station));
}

}  // namespace

kern::ModuleDef EconetModuleDef() {
  auto st = std::make_shared<EconetState>();
  kern::ModuleDef def;
  def.name = "econet";
  def.data_size = sizeof(EconetData);
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kSockRegister, kern::kSockUnregister,
                 kern::kPrintk, kern::kCopyFromUser, kern::kCopyToUser};
  def.functions = {
      lxfi::DeclareFunction("econet_create", kern::kProtoFamilyCreate,
                            [st](kern::Socket* sock) { return Create(*st, sock); }),
      lxfi::DeclareFunction("econet_release", kern::kProtoRelease,
                            [st](kern::Socket* sock) { return Release(*st, sock); }),
      lxfi::DeclareFunction("econet_bind", kern::kProtoBind,
                            [st](kern::Socket* sock, uintptr_t uaddr, size_t len) {
                              return Bind(*st, sock, uaddr, len);
                            }),
      lxfi::DeclareFunction("econet_ioctl", kern::kProtoIoctl,
                            [st](kern::Socket* sock, unsigned cmd, uintptr_t arg) {
                              return Ioctl(*st, sock, cmd, arg);
                            }),
      lxfi::DeclareFunction(
          "econet_sendmsg", kern::kProtoSendmsg,
          [st](kern::Socket* sock, kern::MsgHdr* msg) { return Sendmsg(*st, sock, msg); }),
      lxfi::DeclareFunction(
          "econet_recvmsg", kern::kProtoRecvmsg,
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

    auto* data = static_cast<EconetData*>(m.data());
    lxfi::Store(m, &data->ops.release, m.FuncAddr("econet_release"));
    lxfi::Store(m, &data->ops.bind, m.FuncAddr("econet_bind"));
    lxfi::Store(m, &data->ops.ioctl, m.FuncAddr("econet_ioctl"));
    lxfi::Store(m, &data->ops.sendmsg, m.FuncAddr("econet_sendmsg"));
    lxfi::Store(m, &data->ops.recvmsg, m.FuncAddr("econet_recvmsg"));
    lxfi::Store(m, &data->family.family, kern::kAfEconet);
    lxfi::Store(m, &data->family.create, m.FuncAddr("econet_create"));
    return st->sock_register(&data->family);
  };
  def.exit_fn = [st](kern::Module& m) { st->sock_unregister(kern::kAfEconet); };
  return def;
}

std::shared_ptr<EconetState> GetEconet(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<EconetState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

uintptr_t* EconetIoctlSlot(kern::Module& m) {
  return &static_cast<EconetData*>(m.data())->ops.ioctl;
}

}  // namespace mods

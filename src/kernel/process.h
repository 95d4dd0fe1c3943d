// Processes, credentials and the pid hash.
//
// The privilege-escalation exploits in §8.1 all end by making the kernel run
// attacker code that calls commit_creds(prepare_kernel_cred(0)), or by
// unlinking a task from the pid hash (the rootkit variant). This file
// provides exactly those targets: task_struct-like Tasks (allocated from the
// kernel slab so WRITE-capability checks apply to them), creds with uid/euid,
// a pid hash table, do_exit() with the CVE-2010-4258 missed-context-reset
// bug, and detach_pid().
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/kernel/types.h"

namespace kern {

class Kernel;

struct Cred {
  Uid uid = 1000;
  Uid euid = 1000;
};

// Simulated task_struct. Lives in slab memory.
struct Task {
  Pid pid = 0;
  Cred cred;
  // set_child_tid/clear_child_tid: user-space address the kernel writes on
  // exit. CVE-2010-4258: do_exit() performed this write with KERNEL_DS still
  // set, so a kernel address planted here gets zeroed.
  uintptr_t clear_child_tid = 0;
  // Simulates set_fs(KERNEL_DS): when true, user-pointer checks are skipped.
  bool addr_limit_kernel = false;
  bool exited = false;
};

class ProcessTable {
 public:
  explicit ProcessTable(Kernel* kernel);

  // Creates a task with the given uid; the Task lives in slab memory.
  Task* CreateTask(Uid uid);

  // Looks a task up through the pid hash (what `ps` effectively walks).
  Task* FindByPid(Pid pid) const;

  // Every live task, hashed or not (the scheduler's view; a task removed from
  // the pid hash still runs — that asymmetry is the §8.1 rootkit).
  const std::vector<Task*>& all_tasks() const { return all_tasks_; }

  // detach_pid(): unlinks the task from the pid hash. Exported kernel symbol;
  // the rootkit exploit tries to reach it.
  void DetachPid(Task* task);

  bool IsHashed(const Task* task) const;

  // do_exit() with the CVE-2010-4258 bug: writes a zero through
  // task->clear_child_tid without re-checking the address limit, so a kernel
  // address planted there gets zeroed. The real fix re-validates with
  // access_ok(); this reproduction keeps the bug so LXFI's later
  // indirect-call check is what stops the exploit chain.
  void DoExit(Task* task);

 private:
  Kernel* kernel_;
  Pid next_pid_ = 100;
  std::unordered_map<Pid, Task*> pid_hash_;
  std::vector<Task*> all_tasks_;
};

// prepare_kernel_cred(0)/commit_creds equivalents operating on a task.
Cred PrepareKernelCred();
void CommitCreds(Task* task, const Cred& cred);

// Exported, but imported by none of the modules; the rootkit exploit tries
// to reach it.
inline constexpr KernelSymbol<void(Task*)> kDetachPid{"detach_pid"};

}  // namespace kern

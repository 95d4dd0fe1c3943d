// SMP subsystem: simulated CPUs for the simulated kernel.
//
// A CpuSet owns N simulated CPUs. Each CPU is a real host thread running a
// per-CPU run queue of work items (kthread bodies); while a CPU thread runs,
// Kernel::current() resolves to that CPU's own kthread context
// (kernel.h's CPU-local current), so enforcement state — shadow stacks,
// per-(CPU, principal) memo shards, guard-counter shards — is naturally
// per-CPU. Between work items every CPU passes through a quiescent state of
// the process-wide EpochReclaimer, which is what lets the lock-free
// enforcement read paths reclaim retired structures safely; long-running
// work items call QuiescePoint() periodically.
//
// Cross-CPU calls (the IPI analogue) enqueue a function on the target CPU's
// run queue and wait for its completion; a CPU "IPI-ing" itself runs the
// function inline, like a self-IPI shortcut. Per-CPU order is FIFO but
// cross-CPU interleaving is genuinely nondeterministic, which is the point.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/sync.h"
#include "src/kernel/kthread.h"

namespace kern {

class Kernel;

class CpuSet {
 public:
  // Spawns `ncpus` simulated CPUs for `kernel`. The count is clamped to
  // kMaxSimulatedCpus (shard 0 belongs to the harness main thread).
  CpuSet(Kernel* kernel, int ncpus);
  ~CpuSet();  // drains every queue, then joins the CPU threads

  CpuSet(const CpuSet&) = delete;
  CpuSet& operator=(const CpuSet&) = delete;

  static constexpr int kMaxSimulatedCpus = lxfi::kMaxCpuShards - 1;

  int ncpus() const { return static_cast<int>(cpus_.size()); }
  KthreadContext* ctx(int cpu) const;

  // Enqueues `fn` on cpu's run queue (asynchronous; FIFO per CPU).
  void RunOn(int cpu, std::function<void()> fn);

  // Cross-CPU call (IPI): runs `fn` on `cpu` and waits for completion.
  // Called from a CPU thread targeting itself, runs inline.
  void CallOn(int cpu, std::function<void()> fn);

  // Waits until every CPU has drained its queue and gone idle, then lets
  // the epoch reclaimer collect anything retired meanwhile.
  void Barrier();

  // Announces a quiescent state for the calling CPU thread; long-running
  // work items (benchmark loops) call this between batches. No-op on
  // non-CPU threads.
  static void QuiescePoint() { lxfi::EpochQuiescePoint(); }

 private:
  struct Cpu;
  void WorkerLoop(Cpu* cpu);

  std::vector<std::unique_ptr<Cpu>> cpus_;
};

}  // namespace kern

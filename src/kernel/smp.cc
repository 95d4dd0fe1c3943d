#include "src/kernel/smp.h"

#include <pthread.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "src/kernel/kernel.h"
#include "src/kernel/panic.h"

namespace kern {

namespace {

// Which CpuSet cpu (if any) the calling host thread is. Used to detect
// self-IPIs, which must run inline instead of deadlocking on the queue.
thread_local const void* tls_cpu_token = nullptr;

}  // namespace

struct CpuSet::Cpu {
  int id = 0;
  CpuSet* owner = nullptr;
  KthreadContext* ctx = nullptr;
  std::thread thread;

  std::mutex mu;
  std::condition_variable cv;       // work arrival
  std::condition_variable idle_cv;  // drain notification
  std::deque<std::function<void()>> queue;
  bool stop = false;
  bool busy = false;
};

CpuSet::CpuSet(Kernel* kernel, int ncpus) {
  if (ncpus < 1) {
    ncpus = 1;
  }
  if (ncpus > kMaxSimulatedCpus) {
    ncpus = kMaxSimulatedCpus;  // shard indices are bounded; see sync.h
  }
  for (int i = 0; i < ncpus; ++i) {
    auto cpu = std::make_unique<Cpu>();
    cpu->id = i;
    cpu->owner = this;
    // Create contexts on the constructing thread so ids are deterministic
    // (boot context 0, then CPUs in order) regardless of thread scheduling.
    cpu->ctx = kernel->CreateKthread();
    cpus_.push_back(std::move(cpu));
  }
  for (auto& cpu : cpus_) {
    Cpu* raw = cpu.get();
    raw->thread = std::thread([this, raw] { WorkerLoop(raw); });
  }
}

CpuSet::~CpuSet() {
  Barrier();
  for (auto& cpu : cpus_) {
    {
      std::lock_guard<std::mutex> lock(cpu->mu);
      cpu->stop = true;
    }
    cpu->cv.notify_all();
  }
  for (auto& cpu : cpus_) {
    if (cpu->thread.joinable()) {
      cpu->thread.join();
    }
  }
  // All CPU readers are gone; everything retired is now reclaimable.
  lxfi::EpochReclaimer::Global().TryReclaim();
}

KthreadContext* CpuSet::ctx(int cpu) const { return cpus_.at(cpu)->ctx; }

void CpuSet::WorkerLoop(Cpu* cpu) {
  // Per-CPU identity: shard index (memo shards, guard counters, slab
  // magazines), the CPU-local kernel context, epoch-reclaimer registration,
  // and this thread's stack bounds as the kthread's "kernel stack" (§3.2).
  lxfi::SetThisShardIndex(1 + cpu->id);
  Kernel::AdoptCurrentThread(cpu->ctx);
  tls_cpu_token = cpu;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      cpu->ctx->stack_lo = reinterpret_cast<uintptr_t>(stack_addr);
      cpu->ctx->stack_hi = cpu->ctx->stack_lo + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
  lxfi::EpochReclaimer& reclaimer = lxfi::EpochReclaimer::Global();
  lxfi::tls_epoch_reader = reclaimer.Register();

  std::unique_lock<std::mutex> lock(cpu->mu);
  while (true) {
    while (cpu->queue.empty() && !cpu->stop) {
      // Idle CPUs hold no enforcement references: leave the grace-period
      // protocol entirely (RCU idle), or Synchronize() would wait on a
      // sleeping CPU forever.
      if (lxfi::tls_epoch_reader != nullptr) {
        reclaimer.SetIdle(lxfi::tls_epoch_reader, true);
      }
      cpu->idle_cv.notify_all();
      cpu->cv.wait(lock);
      if (lxfi::tls_epoch_reader != nullptr) {
        reclaimer.SetIdle(lxfi::tls_epoch_reader, false);
      }
    }
    if (cpu->stop && cpu->queue.empty()) {
      break;
    }
    std::function<void()> fn = std::move(cpu->queue.front());
    cpu->queue.pop_front();
    cpu->busy = true;
    lock.unlock();
    fn();
    QuiescePoint();  // run-queue item boundary = quiescent state
    lock.lock();
    cpu->busy = false;
    if (cpu->queue.empty()) {
      cpu->idle_cv.notify_all();
    }
  }
  if (lxfi::tls_epoch_reader != nullptr) {
    reclaimer.Unregister(lxfi::tls_epoch_reader);
    lxfi::tls_epoch_reader = nullptr;
  }
  tls_cpu_token = nullptr;
  Kernel::ReleaseCurrentThread();
}

void CpuSet::RunOn(int cpu_index, std::function<void()> fn) {
  Cpu* cpu = cpus_.at(cpu_index).get();
  {
    std::lock_guard<std::mutex> lock(cpu->mu);
    cpu->queue.push_back(std::move(fn));
  }
  cpu->cv.notify_one();
}

void CpuSet::CallOn(int cpu_index, std::function<void()> fn) {
  Cpu* cpu = cpus_.at(cpu_index).get();
  if (tls_cpu_token == cpu) {
    fn();  // self-IPI shortcut: run inline, synchronously
    return;
  }
  struct Done {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto done = std::make_shared<Done>();
  RunOn(cpu_index, [fn = std::move(fn), done] {
    fn();
    {
      std::lock_guard<std::mutex> lock(done->mu);
      done->done = true;
    }
    done->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(done->mu);
  done->cv.wait(lock, [&] { return done->done; });
}

void CpuSet::Barrier() {
  if (tls_cpu_token != nullptr) {
    Panic("CpuSet::Barrier called from a CPU thread (would deadlock)");
  }
  for (auto& cpu : cpus_) {
    std::unique_lock<std::mutex> lock(cpu->mu);
    cpu->idle_cv.wait(lock, [&] { return cpu->queue.empty() && !cpu->busy; });
  }
  lxfi::EpochReclaimer::Global().TryReclaim();
}

}  // namespace kern

// lxbench: the repository benchmark program.
//
//   lxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics: the system is set up and runs
// the seeded closed loop for --seconds; throughput and latency are taken
// over the whole measured phase, side events included, and setup_s is the
// median of that set-up and of one more in a child process in each
// once-a-second pause of the loop. --trace 1 is the separate per-layer run:
// spans around every call into a layer, program counts over a fixed prefix of
// the op sequence (the count window), an untraced stretch for the span
// overhead, a timed revocation walk, and a replay of the traced ops on a
// stock kernel for the enforcement share of each call.
//
// Output: report lines, then as the last line one JSON object with the
// keys correct, attempted, failed and metrics. The exit code is 0 only
// when every output check passed.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "lxbench/src/layers.h"
#include "lxbench/src/measure.h"
#include "lxbench/src/spans.h"
#include "lxbench/src/workload.h"
#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/kernel/block/block.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/cap.h"
#include "src/lxfi/lxfi_stats.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/violation.h"

namespace lxbench {
namespace {

// p99 needs at least ten samples beyond it.
constexpr uint64_t kMinOps = 1000;
// Share of --seconds the traced run spends traced; the rest runs untraced
// for bench.span_overhead_pct.
constexpr double kTracedShare = 0.7;
// Loop time between two pauses of the measured phase. Each pause samples
// one more set-up in a child process and moves the thread to the fastest
// CPU; its time is not part of the phase.
constexpr uint64_t kPauseNs = 1'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "lxbench: %s\nusage: lxbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\nworkloads:",
               why);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') {
        Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      long s = std::strtol(value, &end, 10);
      if (*value == '\0' || *end != '\0' || s < 1 || s > 3600) {
        Usage("--seconds takes a whole number from 1 to 3600");
      }
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      a.trace = value[0] - '0';
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds == 0 || a.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (std::find(WorkloadNames().begin(), WorkloadNames().end(), a.workload) ==
      WorkloadNames().end()) {
    Usage(("unknown workload " + a.workload).c_str());
  }
  return a;
}

struct LoopResult {
  uint64_t ops = 0;
  uint64_t events = 0;
  uint64_t failed = 0;
  uint64_t wall_ns = 0;
  uint64_t paused_ns = 0;  // inside wall_ns
};

// The closed loop: ops first_op, first_op + 1, ... until max_ops ran, or
// until the deadline passed once at least min_ops ran. Per-op latency is the
// difference of consecutive clock reads (one read per op). Side events run
// between ops, outside any op's latency but inside the wall time. With
// `hist`, every op's latency is recorded there. With `pause`, it runs
// between two ops every kPauseNs of loop time, and its time is counted in
// paused_ns.
LoopResult RunLoop(Workload& w, uint64_t first_op, uint64_t max_ops, uint64_t deadline_ns,
                   uint64_t min_ops, LatencyHistogram* hist = nullptr,
                   const std::function<void()>& pause = nullptr) {
  LoopResult r;
  uint64_t next_event = w.NextEvent(first_op);
  const uint64_t start = NowNs();
  uint64_t prev = start;
  uint64_t next_pause = start + kPauseNs;
  for (uint64_t i = first_op; r.ops < max_ops; ++i) {
    if (i == next_event) {
      bool ok;
      {
        Span root(kEvent);
        ok = w.RunEvents(i);
      }
      ++r.events;
      if (!ok) {
        ++r.failed;
        std::fprintf(stderr, "lxbench: side event before op %llu failed\n",
                     static_cast<unsigned long long>(i));
      }
      next_event = w.NextEvent(i + 1);
      prev = NowNs();
    }
    bool ok;
    {
      Span root(kOp);
      try {
        ok = w.RunOp(i);
      } catch (const lxfi::LxfiViolation& v) {
        std::fprintf(stderr, "lxbench: op %llu raised %s\n", static_cast<unsigned long long>(i),
                     v.what());
        ok = false;
      }
    }
    const uint64_t now = NowNs();
    if (hist != nullptr) {
      hist->Add(now - prev);
    }
    prev = now;
    ++r.ops;
    if (!ok) {
      if (r.failed < 10) {
        std::fprintf(stderr, "lxbench: op %llu gave a wrong output\n",
                     static_cast<unsigned long long>(i));
      }
      ++r.failed;
    }
    if (deadline_ns != 0 && now >= deadline_ns && r.ops >= min_ops) {
      break;
    }
    if (pause && now >= next_pause) {
      pause();
      prev = NowNs();
      r.paused_ns += prev - now;
      next_pause = prev + kPauseNs;
    }
  }
  r.wall_ns = NowNs() - start;
  return r;
}

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // the JSON metrics, in order
};

void PrintResult(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

void PrintMetric(const char* prefix, const Metric& m) {
  std::printf("%s %-36s %16.6f %s\n", prefix, m.name.c_str(), m.value, m.unit.c_str());
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void ReportProblems(const std::vector<std::string>& problems, Result* r) {
  for (const std::string& p : problems) {
    std::fprintf(stderr, "lxbench: check failed: %s\n", p.c_str());
  }
  if (!problems.empty()) {
    r->correct = false;
    ++r->failed;
  }
}

// --- trace 0: the end-to-end metrics ------------------------------------------

// Times one Setup of a fresh instance in a forked child: the sample sees the
// host as the measured phase does, while the parent's memory (peak_rss_mb)
// and state stay untouched and no teardown is paid. Returns seconds, or -1
// when the child failed. The parent waits for the child to exit.
double ChildSetupSeconds(const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) {
    return -1;
  }
  std::fflush(nullptr);  // the child must not flush the parent's buffers again
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    lxfi::TraceBuffer::SetEnabled(false);  // inherited from a tracing workload
    double seconds = -1;
    try {
      auto w = MakeWorkload(args.workload, args.seed, /*stock=*/false);
      const uint64_t t0 = NowNs();
      w->Setup();
      seconds = static_cast<double>(NowNs() - t0) / 1e9;
      static_cast<void>(w.release());  // the process ends here; skip the teardown
    } catch (...) {
    }
    ssize_t n = write(fds[1], &seconds, sizeof(seconds));
    _exit(n == sizeof(seconds) ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1;
  ssize_t got = 0;
  while (got < static_cast<ssize_t>(sizeof(seconds))) {
    ssize_t n = read(fds[0], reinterpret_cast<char*>(&seconds) + got, sizeof(seconds) - got);
    if (n <= 0) {
      seconds = -1;
      break;
    }
    got += n;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? seconds : -1;
}

Result UntracedRun(const Args& args) {
  // setup_s is the median of this set-up and one more, in a child
  // process, in every pause of the loop: a set-up of a few ms is then sampled
  // across the whole run's host interference, not in one burst.
  std::vector<double> setups;
  auto w = MakeWorkload(args.workload, args.seed, /*stock=*/false);
  const uint64_t t0 = NowNs();
  w->Setup();
  setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  std::vector<std::string> problems;
  auto pause = [&] {
    const double s = ChildSetupSeconds(args);
    if (s < 0) {
      problems.push_back("set-up in a child process failed");
    } else {
      setups.push_back(s);
    }
    PinToFastestCpu(nullptr);
  };
  const uint64_t phase_ns = static_cast<uint64_t>(args.seconds) * 1'000'000'000ull;
  const uint64_t deadline = NowNs() + phase_ns;
  LatencyHistogram hist;
  const uint64_t checkpoint = w->MemoryCheckpointOps();
  LoopResult loop = RunLoop(*w, 0, checkpoint, deadline, kMinOps, &hist, pause);
  const double rss = PeakRssMiB();
  const bool reached = loop.ops == checkpoint;
  if (reached && NowNs() < deadline) {
    LoopResult rest = RunLoop(*w, loop.ops, UINT64_MAX, deadline, 0, &hist, pause);
    loop.ops += rest.ops;
    loop.events += rest.events;
    loop.failed += rest.failed;
    loop.wall_ns += rest.wall_ns;
    loop.paused_ns += rest.paused_ns;
  }
  const uint64_t measured_ns = loop.wall_ns - loop.paused_ns;
  w->FinalChecks(&problems);

  Result r;
  r.attempted = loop.ops + loop.events;
  r.failed = loop.failed;
  r.correct = loop.failed == 0;
  r.metrics = {
      {"ops_per_s", static_cast<double>(loop.ops) * 1e9 / static_cast<double>(measured_ns),
       "ops/s"},
      {"op_p99_us", hist.Quantile(0.99) / 1e3, "us"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", rss, "MiB"},
  };
  for (const Metric& m : r.metrics) {
    PrintMetric("metric", m);
  }
  // Printed, not in the JSON: the median's spread across seeds on a shared
  // host is wider than any bound a benchmark metric may carry (README.md).
  std::vector<Metric> extra = {{"op_p50_us", hist.Quantile(0.50) / 1e3, "us"}};
  w->ExtraMetrics(&extra);
  for (const Metric& m : extra) {
    PrintMetric("metric", m);
  }
  ReportProblems(problems, &r);
  std::printf("samples op_latency=%llu beyond_p99=%llu side_events=%llu setups=%zu "
              "phase_s=%.3f paused_s=%.3f\n",
              static_cast<unsigned long long>(hist.count()),
              static_cast<unsigned long long>(hist.Beyond(0.99)),
              static_cast<unsigned long long>(loop.events), setups.size(),
              static_cast<double>(measured_ns) / 1e9, static_cast<double>(loop.paused_ns) / 1e9);
  std::printf("memory peak_rss_mb read after %llu ops%s\n",
              static_cast<unsigned long long>(reached ? checkpoint : loop.ops),
              reached ? "" : " (phase ended before the checkpoint)");
  std::printf("ops attempted=%llu failed=%llu op_fail_ratio=%.6g\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)));
  return r;
}

// --- trace 1: the per-layer metrics -------------------------------------------

// Median over batches of one Runtime::RevokeEverywhere on a capability no
// principal holds, under the workload's module population.
double RevokeWalkNs(lxfi::Runtime* rt) {
  static uint64_t unheld[8];
  const lxfi::Capability cap = lxfi::Capability::Write(unheld, sizeof(unheld));
  constexpr int kBatches = 15;
  constexpr int kPerBatch = 256;
  std::vector<lxfi::TraceRecord> sink;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    uint64_t t0 = NowNs();
    for (int c = 0; c < kPerBatch; ++c) {
      rt->RevokeEverywhere(cap);
    }
    per_call.push_back(static_cast<double>(NowNs() - t0) / kPerBatch);
    lxfi::TraceBuffer::Global().Drain(&sink);  // tracing workloads would overflow the ring
    sink.clear();
  }
  return Median(per_call);
}

double MeanNs(const Tracer& t, SpanName name) {
  uint64_t calls = t.agg(0, name).calls + t.agg(1, name).calls;
  uint64_t total = t.agg(0, name).total_ns + t.agg(1, name).total_ns;
  return Ratio(static_cast<double>(total), static_cast<double>(calls));
}

Result TracedRun(const Args& args) {
  Result r;
  std::vector<std::string> problems;
  std::vector<Metric> detail;  // printed only (workload-specific times)
  auto add = [&r](const char* name, double value, const char* unit) {
    r.metrics.push_back({name, value, unit});
  };

  // Enforced system: count window, rest of the traced stretch, untraced
  // stretch, revocation walk.
  auto w = MakeWorkload(args.workload, args.seed, /*stock=*/false);
  w->Setup();
  const LayerHandles h = w->handles();
  const uint64_t window = w->CountWindowOps();
  std::vector<kern::BlockWrite> write_log;
  kern::BlockLayer* block = h.disk != nullptr ? kern::GetBlockLayer(h.kernel) : nullptr;
  if (block != nullptr) {
    block->SetWriteLog(h.disk, &write_log);
  }
  Tracer enforced;
  g_tracer = &enforced;
  lxfi::LxfiStats::SetEnabled(true);
  const Snapshot s0 = TakeSnapshot(*w);
  const uint64_t traced_start = NowNs();
  LoopResult counted = RunLoop(*w, 0, window, 0, 0);
  const Snapshot s1 = TakeSnapshot(*w);
  lxfi::LxfiStats::SetEnabled(false);
  if (block != nullptr) {
    block->SetWriteLog(h.disk, nullptr);
  }
  const uint64_t traced_ns = static_cast<uint64_t>(args.seconds * kTracedShare * 1e9);
  LoopResult rest = RunLoop(*w, window, UINT64_MAX, traced_start + traced_ns, 0);
  g_tracer = nullptr;
  const Snapshot s2 = TakeSnapshot(*w);
  const uint64_t traced_ops = counted.ops + rest.ops;
  const uint64_t traced_wall = counted.wall_ns + rest.wall_ns;
  const uint64_t untraced_ns = static_cast<uint64_t>(args.seconds * (1 - kTracedShare) * 1e9);
  LoopResult untraced = RunLoop(*w, traced_ops, UINT64_MAX, NowNs() + untraced_ns, 1);
  const double revoke_walk = RevokeWalkNs(h.rt);
  w->FinalChecks(&problems);
  r.attempted = traced_ops + untraced.ops + counted.events + rest.events + untraced.events;
  r.failed = counted.failed + rest.failed + untraced.failed;
  w.reset();

  // Stock replay of the traced ops.
  auto stock_w = MakeWorkload(args.workload, args.seed, /*stock=*/true);
  stock_w->Setup();
  Tracer stock;
  g_tracer = &stock;
  LoopResult replay = RunLoop(*stock_w, 0, traced_ops, 0, 0);
  g_tracer = nullptr;
  stock_w->FinalChecks(&problems);
  r.attempted += replay.ops + replay.events;
  r.failed += replay.failed;
  stock_w.reset();
  r.correct = r.failed == 0;

  // Program counts over the count window.
  const double n = static_cast<double>(window);
  auto d = [&](uint64_t Snapshot::* f) { return static_cast<double>(s1.*f - s0.*f); };
  auto g = [&](lxfi::GuardType t) {
    return static_cast<double>(s1.guard[static_cast<int>(t)] - s0.guard[static_cast<int>(t)]);
  };
  const PrincipalCounts p = SurvivorDelta(s0, s1);
  add("vfs.lookup_dispatches_per_op", d(&Snapshot::lookup_dispatches) / n, "count");
  add("dcache.negative_hits_per_op", d(&Snapshot::dcache_negative_hits) / n, "count");
  add("dcache.seqlock_retries", d(&Snapshot::dcache_retries), "count");
  add("filter.chain_len", static_cast<double>(s1.filters), "count");
  add("pagecache.hit_ratio", Ratio(d(&Snapshot::pc_hits), d(&Snapshot::pc_hits) + d(&Snapshot::pc_misses)), "ratio");
  add("pagecache.writebacks_per_op", d(&Snapshot::pc_writebacks) / n, "count");
  add("pagecache.io_errors", d(&Snapshot::pc_io_errors), "count");
  uint64_t device_bytes = 0;
  for (const kern::BlockWrite& bw : write_log) {
    device_bytes += bw.data.size();
  }
  add("block.sector_writes_per_op", static_cast<double>(write_log.size()) / n, "count");
  add("block.write_amp", Ratio(static_cast<double>(device_bytes),
            static_cast<double>(s1.workload.user_bytes_written - s0.workload.user_bytes_written)), "ratio");
  add("net.tx_busy_ratio", Ratio(d(&Snapshot::tx_busy), d(&Snapshot::tx_busy) + d(&Snapshot::tx_packets)), "ratio");
  add("net.rx_drops", d(&Snapshot::rx_drops), "count");
  add("net.backlog_drops", d(&Snapshot::backlog_drops), "count");
  add("slab.live_objects_delta", static_cast<double>(static_cast<int64_t>(s1.slab_live - s0.slab_live)), "count");
  add("slab.pages_allocated", static_cast<double>(s1.slab_pages), "count");
  add("slab.known_leaks",
      static_cast<double>(s1.workload.slab_known_leaks - s0.workload.slab_known_leaks), "count");
  add("slab.arena_fallbacks_per_op", static_cast<double>(p.arena_fallbacks) / n, "count");
  add("module.loaded", static_cast<double>(s1.modules_live), "count");
  add("lxfi.crossings_per_op", g(lxfi::GuardType::kFunctionEntry) / n, "count");
  add("lxfi.actions_per_op", g(lxfi::GuardType::kAnnotationAction) / n, "count");
  add("lxfi.store_checks_per_op", g(lxfi::GuardType::kMemWrite) / n, "count");
  add("lxfi.indcalls_per_op", g(lxfi::GuardType::kIndCallAll) / n, "count");
  add("lxfi.indcall_slow_ratio", Ratio(g(lxfi::GuardType::kIndCallFull), g(lxfi::GuardType::kIndCallAll)), "ratio");
  add("lxfi.write_memo_hit_ratio", Ratio(p.write_memo_hits, p.write_checks), "ratio");
  add("lxfi.arena_span_hit_ratio", Ratio(p.arena_span_hits, p.write_checks), "ratio");
  add("lxfi.call_memo_hit_ratio", Ratio(p.call_memo_hits, p.call_checks), "ratio");
  add("lxfi.pre_memo_hit_ratio", Ratio(p.pre_memo_hits, p.pre_checks), "ratio");
  add("lxfi.revokes_per_op", d(&Snapshot::revokes) / n, "count");
  add("lxfi.principals", static_cast<double>(s1.principals.size()), "count");
  add("containment.quarantines", d(&Snapshot::quarantines), "count");
  add("containment.reboots", d(&Snapshot::reboots), "count");
  add("containment.retired", d(&Snapshot::retired), "count");
  add("containment.rogue_failfast", static_cast<double>(s1.workload.rogue_failfast - s0.workload.rogue_failfast), "count");
  add("trace.records_per_op", static_cast<double>(s1.workload.trace_records - s0.workload.trace_records) / n, "count");
  add("trace.drops", d(&Snapshot::trace_drops), "count");

  // Times.
  const Tracer::Agg& op = enforced.agg(0, kOp);
  const Tracer::Agg& stock_op = stock.agg(0, kOp);
  const double op_ns = Ratio(static_cast<double>(op.total_ns), static_cast<double>(op.calls));
  add("lxfi.crossing_mean_ns", Ratio(static_cast<double>(p.crossing_ns), p.crossings), "ns");
  add("lxfi.revoke_walk_ns", revoke_walk, "ns");
  add("lxfi.op_delta_ns", op_ns - Ratio(static_cast<double>(stock_op.total_ns), static_cast<double>(stock_op.calls)), "ns");
  add("bench.traced_op_ns", op_ns, "ns");
  const double unattributed =
      Ratio(static_cast<double>(op.self_ns), static_cast<double>(op.calls));
  add("bench.unattributed_ns_per_op", unattributed, "ns");
  const double traced_rate =
      static_cast<double>(traced_ops) * 1e9 / static_cast<double>(traced_wall);
  const double untraced_rate =
      static_cast<double>(untraced.ops) * 1e9 / static_cast<double>(untraced.wall_ns);
  add("bench.span_overhead_pct", (untraced_rate / traced_rate - 1.0) * 100.0, "%");

  // Workload-specific times (printed, not in the JSON: a layer a workload
  // never calls has no time to report).
  for (int s = kVfsOpen; s < kSpanNameCount; ++s) {
    const SpanName name = static_cast<SpanName>(s);
    if (enforced.agg(0, name).calls + enforced.agg(1, name).calls == 0) {
      continue;
    }
    const double mean = MeanNs(enforced, name);
    detail.push_back({std::string(SpanMetricName(name)) + "_ns", mean, "ns"});
    std::string layer = SpanLayer(name);
    if ((layer == "vfs" || layer == "net") &&
        stock.agg(0, name).calls + stock.agg(1, name).calls != 0) {
      detail.push_back({"lxfi." + std::string(SpanMetricName(name)).substr(layer.size() + 1) +
                            "_delta_ns",
                        mean - MeanNs(stock, name), "ns"});
    }
  }
  const uint64_t drained = s2.workload.trace_records - s0.workload.trace_records;
  if (drained != 0) {
    const Tracer::Agg& dr = enforced.agg(1, kTraceDrain);
    detail.push_back({"trace.drain_ns_per_record",
                      static_cast<double>(dr.total_ns) / static_cast<double>(drained), "ns"});
  }
  if (s1.reboots != s0.reboots) {
    detail.push_back({"containment.backoff_ns", d(&Snapshot::backoff_ns) / d(&Snapshot::reboots),
                      "ns"});
  }
  // Self time per op of each layer on the op path; with the unattributed
  // remainder they add up to the traced op time.
  std::map<std::string, double> layer_self;
  for (int s = kVfsOpen; s < kSpanNameCount; ++s) {
    const SpanName name = static_cast<SpanName>(s);
    layer_self[SpanLayer(name)] += static_cast<double>(enforced.agg(0, name).self_ns);
  }
  double sum = unattributed;
  for (auto& [layer, self] : layer_self) {
    self /= static_cast<double>(op.calls);
    sum += self;
    detail.push_back({"layer." + layer + ".self_ns_per_op", self, "ns"});
  }

  for (const Metric& m : r.metrics) {
    PrintMetric("layer", m);
  }
  for (const Metric& m : detail) {
    PrintMetric("detail", m);
  }
  // Equal by the definition of self time when every span closed inside its
  // parent; a difference means the tracer lost or misnested spans.
  std::printf("check span_bookkeeping layer_self_sum_ns=%.3f traced_op_ns=%.3f\n", sum, op_ns);
  if (std::abs(sum - op_ns) > 1e-6 * op_ns) {
    problems.push_back("span bookkeeping: layer self times do not add up to the op time");
  }
  std::printf("samples count_window_ops=%llu traced_ops=%llu untraced_ops=%llu "
              "stock_replay_ops=%llu spans_stored=%zu\n",
              static_cast<unsigned long long>(window),
              static_cast<unsigned long long>(traced_ops),
              static_cast<unsigned long long>(untraced.ops),
              static_cast<unsigned long long>(replay.ops), enforced.stored());
  // Program counts (the count-unit metrics): identical for a given seed.
  std::printf("counts {");
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (m.unit == "count" || m.unit == "ratio") {
      std::printf("%s\"%s\": %.17g", first ? "" : ", ", m.name.c_str(), m.value);
      first = false;
    }
  }
  std::printf("}\n");
  if (!args.spans_out.empty() && !enforced.WriteSpans(args.spans_out)) {
    problems.push_back("cannot write spans to " + args.spans_out);
  }
  ReportProblems(problems, &r);
  std::printf("ops attempted=%llu failed=%llu op_fail_ratio=%.6g\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)));
  return r;
}

}  // namespace
}  // namespace lxbench

int main(int argc, char** argv) {
  using namespace lxbench;
  const Args args = ParseArgs(argc, argv);
  lxfi::SetLogLevel(lxfi::LogLevel::kError);
  std::printf("lxbench workload=%s seed=%llu seconds=%d trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  const HostRecord host = ProbeHost();
  std::printf("host nproc=%d spin_parallelism=%.3f workload_threads=1 loop=closed clients=1 "
              "pinned_cpu=%d cpu_spin_us=",
              host.nproc, host.spin_parallelism, host.pinned_cpu);
  for (size_t c = 0; c < host.cpu_spin_us.size(); ++c) {
    std::printf("%s%.0f", c == 0 ? "" : ",", host.cpu_spin_us[c]);
  }
  std::printf("\n");
  std::fflush(stdout);
  Result r;
  try {
    r = args.trace == 1 ? TracedRun(args) : UntracedRun(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lxbench: run aborted: %s\n", e.what());
    return 1;
  }
  PrintResult(r);
  return r.correct ? 0 : 1;
}

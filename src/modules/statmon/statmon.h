// statmon: a monitoring module that polls the LXFI observability exports
// (lxfi_stats / lxfi_trace_read) from *inside* the sandbox.
//
// The point of the module is the trust argument: metrics and trace records
// are copied into buffers the module kmalloc'd itself — buffers whose WRITE
// capability the allocation annotation transferred to the module — and the
// export annotations (pre(check(write, buf, bytes))) make the module prove
// that ownership on every poll. Nothing hands the module a pointer into the
// runtime's rings, so a module can observe enforcement without being able
// to scribble the evidence. The armed probe below tries exactly that and
// must be blocked with a WRITE violation attributed to this module.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "src/base/trace.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/lxfi_stats.h"

namespace mods {

// Module-private poll results (kmalloc'd; module code updates them through
// guarded stores like every other module-owned object).
struct StatmonPriv {
  uint64_t polls = 0;
  int64_t last_json_len = -1;      // full length lxfi_stats reported
  int64_t last_record_count = -1;  // records lxfi_trace_read drained
};

// Malicious probe, armed by the exploit test.
enum class StatmonProbe : int {
  kNone = 0,
  kScribbleRing,  // write straight into runtime-owned trace/ring memory
};

struct StatmonState {
  kern::Module* m = nullptr;
  StatmonPriv* priv = nullptr;        // kmalloc'd counters
  char* json = nullptr;               // kmalloc'd lxfi_stats destination
  size_t json_cap = 8192;
  lxfi::TraceRecord* records = nullptr;  // kmalloc'd lxfi_trace_read destination
  size_t record_cap = 256;

  StatmonProbe probe = StatmonProbe::kNone;
  void* probe_target = nullptr;  // kScribbleRing: runtime-owned address

  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<lxfi::kLxfiStats> lxfi_stats;
  kern::ImportFn<lxfi::kLxfiTraceRead> lxfi_trace_read;

  uint64_t polls() const { return priv->polls; }
  int64_t last_json_len() const { return priv->last_json_len; }
  int64_t last_record_count() const { return priv->last_record_count; }
};

kern::ModuleDef StatmonModuleDef(std::string module_name = "statmon");
std::shared_ptr<StatmonState> GetStatmon(kern::Module& m);

}  // namespace mods

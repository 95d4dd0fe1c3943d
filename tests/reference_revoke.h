// Reference full-walk revocation: the test-side oracle the holder-indexed
// Runtime::RevokeEverywhere is diffed against.
//
// The runtime revokes a transferred capability only from the principals its
// HolderIndex lists. This oracle is the walk the index replaced: every
// principal (shared, global, each instance) of every loaded module,
// pre-filtered by the lock-free MightHold probe and revoked under the
// principal's lock. Run right after an indexed revoke of the same
// capability, the walk must find nothing left to remove; if it does, the
// index missed a holder and the two revokes would have left different
// tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/base/sync.h"
#include "src/lxfi/cap.h"
#include "src/lxfi/principal.h"
#include "src/lxfi/runtime.h"

namespace lxfitest {

// Revokes `cap` from every principal of every loaded module; returns true
// if any principal held state the revoke removed.
inline bool ReferenceRevokeEverywhere(lxfi::Runtime& rt, const lxfi::Capability& cap) {
  bool any = false;
  rt.VisitPrincipals([&](lxfi::Principal* p) {
    if (!p->caps().MightHold(cap)) {
      return;
    }
    lxfi::SpinGuard guard(p->lock());
    any |= p->caps().Revoke(cap);
  });
  return any;
}

// What one principal's table holds: its WRITE ranges, and its CALL and REF
// entry counts (the flat sets cannot be enumerated).
struct TableState {
  std::vector<lxfi::Capability> writes;
  size_t calls = 0;
  size_t refs = 0;
  bool operator==(const TableState& o) const {
    return writes == o.writes && calls == o.calls && refs == o.refs;
  }
};

// Every loaded principal's table, keyed by trace id. Quiescent callers only.
inline std::map<uint32_t, TableState> SnapshotTables(lxfi::Runtime& rt) {
  std::map<uint32_t, TableState> out;
  rt.VisitPrincipals([&](lxfi::Principal* p) {
    out[p->trace_id()] =
        TableState{p->caps().WriteRanges(), p->caps().call_count(), p->caps().ref_count()};
  });
  return out;
}

}  // namespace lxfitest

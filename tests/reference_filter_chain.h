// Reference filter chain for fs_filter_test's differential test: the full
// registration list in (priority, registration order), filtered on every
// dispatch by a linear strcmp of each registration's scope against the
// superblock id. This is the chain's dispatch before scopes were indexed,
// kept here as the oracle the indexed snapshot is diffed against.
//
// Like the chain, it copies a filter's priority, owner and scope at
// registration, so later stores into the VfsFilter change nothing.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/kernel/fs/filter.h"
#include "src/kernel/fs/vfs.h"

namespace lxfitest {

class ReferenceFilterChain {
 public:
  int Register(kern::VfsFilter* flt) {
    if (flt == nullptr || flt->name == nullptr) {
      return -kern::kEinval;
    }
    if (flt->scope != nullptr && std::strlen(flt->scope) > kern::kVfsNameMax) {
      return -kern::kEinval;
    }
    for (const Reg& r : regs_) {
      if (r.flt == flt) {
        return -kern::kEexist;
      }
    }
    Reg reg{flt, flt->module, flt->priority, flt->scope != nullptr,
            flt->scope != nullptr ? flt->scope : ""};
    auto it = std::find_if(regs_.begin(), regs_.end(),
                           [&reg](const Reg& r) { return r.priority > reg.priority; });
    regs_.insert(it, reg);
    return 0;
  }

  int Unregister(kern::VfsFilter* flt) {
    auto it =
        std::find_if(regs_.begin(), regs_.end(), [flt](const Reg& r) { return r.flt == flt; });
    if (it == regs_.end()) {
      return -kern::kEnoent;
    }
    regs_.erase(it);
    return 0;
  }

  size_t UnregisterModule(kern::Module* owner) {
    size_t before = regs_.size();
    regs_.erase(std::remove_if(regs_.begin(), regs_.end(),
                               [owner](const Reg& r) { return r.owner == owner; }),
                regs_.end());
    return before - regs_.size();
  }

  size_t count() const { return regs_.size(); }

  // What one dispatch on `sb` (null: an operation with no superblock) runs,
  // in order.
  std::vector<kern::FilterRun::Entry> InScope(const kern::SuperBlock* sb) const {
    std::vector<kern::FilterRun::Entry> out;
    for (const Reg& r : regs_) {
      if (!r.scoped || (sb != nullptr && std::strcmp(r.scope.c_str(), sb->id) == 0)) {
        out.push_back({r.flt, r.owner});
      }
    }
    return out;
  }

 private:
  struct Reg {
    kern::VfsFilter* flt;
    kern::Module* owner;
    int priority;
    bool scoped;
    std::string scope;
  };
  std::vector<Reg> regs_;
};

}  // namespace lxfitest

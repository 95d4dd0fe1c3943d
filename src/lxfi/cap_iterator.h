// Capability iterators (the paper's iterator-func, e.g. skb_caps): a
// programmer-supplied function enumerating the capabilities that make up a
// compound object. `arg` is the evaluated annotation expression (usually a
// pointer).
//
// Split out of annotation_registry.h so the guard-program compiler can
// pre-resolve iterator functions without pulling the whole registry in.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/base/small_vector.h"
#include "src/lxfi/cap.h"

namespace kern {
class Kernel;
}

namespace lxfi {

// Scratch for one caplist resolution. Typical caplists are 1–3 capabilities
// (an object header plus a payload buffer), so the inline capacity keeps the
// annotation hot path free of heap allocation.
using CapVec = SmallVector<Capability, 8>;

class CapIterContext {
 public:
  explicit CapIterContext(kern::Kernel* kernel) : kernel_(kernel) {}

  kern::Kernel* kernel() const { return kernel_; }
  void Emit(const Capability& cap) { caps_.push_back(cap); }
  const CapVec& caps() const { return caps_; }

 private:
  kern::Kernel* kernel_;
  CapVec caps_;
};

using CapIterator = std::function<void(CapIterContext&, uint64_t arg)>;

class IteratorRegistry {
 public:
  void Register(const std::string& name, CapIterator fn) { iterators_[name] = std::move(fn); }
  // Pointers into the std::map stay valid across later registrations (node
  // stability), which is what lets compiled guard programs cache them.
  const CapIterator* Find(const std::string& name) const {
    auto it = iterators_.find(name);
    return it == iterators_.end() ? nullptr : &it->second;
  }
  size_t size() const { return iterators_.size(); }
  const std::map<std::string, CapIterator>& all() const { return iterators_; }

 private:
  std::map<std::string, CapIterator> iterators_;
};

}  // namespace lxfi

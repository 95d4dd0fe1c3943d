// GuardProgram: the compiled form of an annotation set.
//
// The module rewriter in the paper lowers API-integrity annotations into
// direct guard calls at compile time; re-interpreting the annotation AST on
// every wrapper crossing (recursive EvalExpr over a unique_ptr tree with
// string-compared operators, a heap vector per caplist) pays analysis-time
// cost at request time. AnnotationRegistry::Register therefore lowers every
// parsed AnnotationSet into a GuardProgram once:
//
//   * one flat, contiguous array of fixed-width 8-byte ops — enum opcodes,
//     no strings, no pointer chasing;
//   * a constant pool for integer literals and interned REF type ids;
//   * iterator slots carrying pre-resolved CapIterator function pointers
//     (resolved at compile time when the registry is bound, lazily on first
//     execution otherwise — iterator registration order is unconstrained);
//   * section offsets: ops [0, pre_end) are the pre actions, [pre_end,
//     post_end) the post actions, [post_end, size) the principal()
//     expression. Wrappers bind the program pointer once at wrap time, so a
//     crossing is a single tight switch-loop over the section.
//
// Expressions compile to a tiny stack machine; the compiler tracks the
// maximum stack depth so the evaluator needs no bounds checks. Programs the
// compiler cannot prove within limits (depth, op count, arg index width)
// compile to nullptr, and registration refuses them: the program is the
// only engine at run time. Its semantics are pinned by a differential
// property test against a test-only AST interpreter that shares the
// per-capability action application (Runtime::ApplyOneCap).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/lxfi/annotation.h"
#include "src/lxfi/cap_iterator.h"

namespace lxfi {

enum class GuardOpcode : uint8_t {
  // Expression ops (stack machine).
  kPushConst,   // push consts[a]
  kPushArg,     // push args[a] (0 when a >= nargs)
  kPushRet,     // push the call's return value (post sections only)
  kNeg,         // unary minus
  kAdd,
  kSub,
  kLt,
  kGt,
  kLe,
  kGe,
  kEq,
  kNe,
  // Control.
  kJumpIfZero,  // pop cond; if 0, jump to op index a (an if() guard)
  // Caplist application — each terminates one copy/transfer/check action.
  kActInline,   // flags = action|capkind|has_size; stack: ptr [, size];
                // b = const index of the RefTypeId for ref(type)
  kActIter,     // flags = action; a = iterator slot; stack: iterator arg
};

// One fixed-width op. `a` is the small operand (const index, arg index, jump
// target, iterator slot); `b` is the secondary operand (REF type-id const
// index).
struct GuardOp {
  GuardOpcode op = GuardOpcode::kPushConst;
  uint8_t flags = 0;
  uint16_t a = 0;
  uint32_t b = 0;
};
static_assert(sizeof(GuardOp) == 8, "guard ops are fixed-width 8-byte records");

class GuardProgram {
 public:
  // Evaluator stack bound; the compiler rejects deeper programs.
  static constexpr size_t kMaxStack = 16;

  // flags encoding for kActInline / kActIter.
  static constexpr uint8_t kActionMask = 0x3;  // static_cast<uint8_t>(Action::Op)
  static constexpr uint8_t kCapShift = 2;
  static constexpr uint8_t kCapMask = 0x3;  // static_cast<uint8_t>(CapKind)
  static constexpr uint8_t kHasSize = 0x10;

  enum class PrincipalKind : uint8_t { kNone, kShared, kGlobal, kExpr };

  struct IterSlot {
    std::string name;
    // Resolved against the owning runtime's IteratorRegistry (std::map node
    // stability keeps the pointer valid). Null until resolved; the evaluator
    // re-resolves lazily for iterators registered after compilation.
    mutable const CapIterator* fn = nullptr;
  };

  const std::vector<GuardOp>& ops() const { return ops_; }
  const std::vector<int64_t>& consts() const { return consts_; }
  uint32_t pre_end() const { return pre_end_; }
  uint32_t post_end() const { return post_end_; }
  PrincipalKind principal_kind() const { return principal_kind_; }

  // True when the pre section consists solely of inline check actions (no
  // copy/transfer, no iterators): executing it grants and revokes nothing,
  // so a clean pass for the same (program, args) on the same principal stays
  // valid until the next revocation epoch — the EnforcementContext memo.
  bool pre_memoizable() const { return pre_memoizable_; }

  const std::string& name() const { return name_; }
  uint64_t ahash() const { return ahash_; }
  size_t iter_slot_count() const { return iters_.size(); }
  const std::string& IterName(size_t slot) const { return iters_[slot].name; }

  // Cached iterator resolution; `reg` may be null (then unresolved slots
  // stay null and the evaluator raises an unknown-iterator violation).
  const CapIterator* IterFn(size_t slot, const IteratorRegistry* reg) const {
    const IterSlot& s = iters_[slot];
    if (s.fn == nullptr && reg != nullptr) {
      s.fn = reg->Find(s.name);
    }
    return s.fn;
  }

  // Stable, golden-testable listing of the whole program.
  std::string Disassemble() const;

 private:
  friend class GuardCompiler;

  std::vector<GuardOp> ops_;
  std::vector<int64_t> consts_;
  std::vector<IterSlot> iters_;
  std::vector<std::string> params_;  // for disassembly comments
  uint32_t pre_end_ = 0;
  uint32_t post_end_ = 0;
  PrincipalKind principal_kind_ = PrincipalKind::kNone;
  bool pre_memoizable_ = false;
  std::string name_;
  uint64_t ahash_ = 0;
};

// Lowers `set` into a GuardProgram. `iters` (optional) pre-resolves iterator
// slots. Returns nullptr when the set exceeds compiler limits (registration
// then refuses the set).
std::unique_ptr<GuardProgram> CompileAnnotations(const AnnotationSet& set,
                                                 const IteratorRegistry* iters);

}  // namespace lxfi

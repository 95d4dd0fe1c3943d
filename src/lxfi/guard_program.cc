#include "src/lxfi/guard_program.h"

#include <cstring>

#include "src/base/string_util.h"

namespace lxfi {

// AnnotationSet owns a unique_ptr<GuardProgram> behind a forward declaration
// in annotation.h; its special members live here, where the type is complete.
AnnotationSet::AnnotationSet() = default;
AnnotationSet::~AnnotationSet() = default;

// --- compiler ---------------------------------------------------------------

class GuardCompiler {
 public:
  GuardCompiler(const AnnotationSet& set, const IteratorRegistry* iters)
      : set_(set), iters_(iters), prog_(std::make_unique<GuardProgram>()) {
    prog_->name_ = set.name;
    prog_->ahash_ = set.ahash;
    prog_->params_ = set.params;
  }

  std::unique_ptr<GuardProgram> Run() {
    // Pre section, then post, then the principal() expression — each kind in
    // declared order, exactly the order the reference interpreter applies them.
    for (const Annotation& a : set_.annotations) {
      if (a.kind == Annotation::Kind::kPre && a.action != nullptr && !EmitAction(*a.action, false)) {
        return nullptr;
      }
    }
    prog_->pre_end_ = static_cast<uint32_t>(prog_->ops_.size());
    for (const Annotation& a : set_.annotations) {
      if (a.kind == Annotation::Kind::kPost && a.action != nullptr && !EmitAction(*a.action, true)) {
        return nullptr;
      }
    }
    prog_->post_end_ = static_cast<uint32_t>(prog_->ops_.size());
    // The reference interpreter honors the first principal() annotation only.
    for (const Annotation& a : set_.annotations) {
      if (a.kind != Annotation::Kind::kPrincipal) {
        continue;
      }
      switch (a.principal_target) {
        case Annotation::PrincipalTarget::kGlobal:
          prog_->principal_kind_ = GuardProgram::PrincipalKind::kGlobal;
          break;
        case Annotation::PrincipalTarget::kShared:
          prog_->principal_kind_ = GuardProgram::PrincipalKind::kShared;
          break;
        case Annotation::PrincipalTarget::kExpr:
          if (a.principal_expr == nullptr || !EmitExpr(*a.principal_expr)) {
            return nullptr;
          }
          prog_->principal_kind_ = GuardProgram::PrincipalKind::kExpr;
          ResetDepth();
          break;
      }
      break;
    }
    prog_->pre_memoizable_ = ComputePreMemoizable();
    if (prog_->ops_.size() > 0xffff) {
      return nullptr;  // jz targets are 16-bit; no real annotation gets close
    }
    return std::move(prog_);
  }

 private:
  bool Emit(GuardOpcode op, uint8_t flags = 0, uint16_t a = 0, uint32_t b = 0) {
    prog_->ops_.push_back(GuardOp{op, flags, a, b});
    return true;
  }

  // Stack-effect bookkeeping; the evaluator trusts kMaxStack, so depth
  // overflow (absurdly nested expressions) rejects the whole program.
  bool Push(int n = 1) {
    depth_ += n;
    if (depth_ > static_cast<int>(GuardProgram::kMaxStack)) {
      return false;
    }
    return true;
  }
  void Pop(int n = 1) { depth_ -= n; }
  void ResetDepth() { depth_ = 0; }

  uint16_t AddConst(int64_t v) {
    for (size_t i = 0; i < prog_->consts_.size(); ++i) {
      if (prog_->consts_[i] == v) {
        return static_cast<uint16_t>(i);
      }
    }
    prog_->consts_.push_back(v);
    return static_cast<uint16_t>(prog_->consts_.size() - 1);
  }

  uint16_t AddIter(const std::string& name) {
    for (size_t i = 0; i < prog_->iters_.size(); ++i) {
      if (prog_->iters_[i].name == name) {
        return static_cast<uint16_t>(i);
      }
    }
    GuardProgram::IterSlot slot;
    slot.name = name;
    slot.fn = iters_ != nullptr ? iters_->Find(name) : nullptr;
    prog_->iters_.push_back(std::move(slot));
    return static_cast<uint16_t>(prog_->iters_.size() - 1);
  }

  bool EmitExpr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kInt:
        return Push() && Emit(GuardOpcode::kPushConst, 0, AddConst(e.value));
      case Expr::Kind::kArg:
        if (e.arg_index < 0) {
          // The reference interpreter evaluates an unbound arg to 0.
          return Push() && Emit(GuardOpcode::kPushConst, 0, AddConst(0));
        }
        if (e.arg_index > 0xffff) {
          return false;
        }
        return Push() && Emit(GuardOpcode::kPushArg, 0, static_cast<uint16_t>(e.arg_index));
      case Expr::Kind::kReturn:
        return Push() && Emit(GuardOpcode::kPushRet);
      case Expr::Kind::kNeg:
        return e.lhs != nullptr && EmitExpr(*e.lhs) && Emit(GuardOpcode::kNeg);
      case Expr::Kind::kBinary: {
        GuardOpcode op;
        if (e.op == "+") {
          op = GuardOpcode::kAdd;
        } else if (e.op == "-") {
          op = GuardOpcode::kSub;
        } else if (e.op == "<") {
          op = GuardOpcode::kLt;
        } else if (e.op == ">") {
          op = GuardOpcode::kGt;
        } else if (e.op == "<=") {
          op = GuardOpcode::kLe;
        } else if (e.op == ">=") {
          op = GuardOpcode::kGe;
        } else if (e.op == "==") {
          op = GuardOpcode::kEq;
        } else if (e.op == "!=") {
          op = GuardOpcode::kNe;
        } else {
          return false;  // parser never produces other operators
        }
        if (e.lhs == nullptr || e.rhs == nullptr || !EmitExpr(*e.lhs) || !EmitExpr(*e.rhs)) {
          return false;
        }
        Pop();  // binary: two operands in, one result out
        return Emit(op);
      }
    }
    return false;
  }

  bool EmitAction(const Action& action, bool post) {
    if (action.op == Action::Op::kIf) {
      if (action.cond == nullptr || action.then == nullptr || !EmitExpr(*action.cond)) {
        return false;
      }
      Pop();  // jz consumes the condition
      size_t jz_at = prog_->ops_.size();
      Emit(GuardOpcode::kJumpIfZero);
      if (!EmitAction(*action.then, post)) {
        return false;
      }
      prog_->ops_[jz_at].a = static_cast<uint16_t>(prog_->ops_.size());
      return true;
    }
    uint8_t flags = static_cast<uint8_t>(action.op) & GuardProgram::kActionMask;
    const CapListSpec& spec = action.caps;
    if (spec.is_iterator) {
      if (spec.iterator_arg == nullptr || !EmitExpr(*spec.iterator_arg)) {
        return false;
      }
      Pop();  // act_iter consumes the argument
      return Emit(GuardOpcode::kActIter, flags, AddIter(spec.iterator_name));
    }
    flags |= (static_cast<uint8_t>(spec.kind) & GuardProgram::kCapMask) << GuardProgram::kCapShift;
    if (spec.ptr == nullptr || !EmitExpr(*spec.ptr)) {
      return false;
    }
    uint32_t b = 0;
    int pops = 1;
    if (spec.kind == CapKind::kWrite && spec.size != nullptr) {
      // Only WRITE uses the size expression (the reference interpreter never evaluates
      // it for call/ref caplists).
      if (!EmitExpr(*spec.size)) {
        return false;
      }
      flags |= GuardProgram::kHasSize;
      pops = 2;
    }
    if (spec.kind == CapKind::kRef) {
      b = AddConst(static_cast<int64_t>(RefType(spec.ref_type_name)));
    }
    Pop(pops);
    return Emit(GuardOpcode::kActInline, flags, 0, b);
  }

  bool ComputePreMemoizable() const {
    if (prog_->pre_end_ == 0) {
      return false;  // empty pre section: nothing to skip
    }
    for (uint32_t i = 0; i < prog_->pre_end_; ++i) {
      const GuardOp& op = prog_->ops_[i];
      if (op.op == GuardOpcode::kActIter) {
        return false;  // iterator output depends on kernel state, not just args
      }
      if (op.op == GuardOpcode::kActInline &&
          static_cast<Action::Op>(op.flags & GuardProgram::kActionMask) != Action::Op::kCheck) {
        return false;  // copy/transfer mutate capability state
      }
    }
    return true;
  }

  const AnnotationSet& set_;
  const IteratorRegistry* iters_;
  std::unique_ptr<GuardProgram> prog_;
  int depth_ = 0;
};

std::unique_ptr<GuardProgram> CompileAnnotations(const AnnotationSet& set,
                                                 const IteratorRegistry* iters) {
  return GuardCompiler(set, iters).Run();
}

// --- disassembler -----------------------------------------------------------

namespace {

const char* ActionName(Action::Op op) {
  switch (op) {
    case Action::Op::kCopy:
      return "copy";
    case Action::Op::kTransfer:
      return "transfer";
    case Action::Op::kCheck:
      return "check";
    case Action::Op::kIf:
      break;
  }
  return "?";
}

const char* CapKindMnemonic(CapKind kind) {
  switch (kind) {
    case CapKind::kWrite:
      return "write";
    case CapKind::kRef:
      return "ref";
    case CapKind::kCall:
      return "call";
  }
  return "?";
}

}  // namespace

std::string GuardProgram::Disassemble() const {
  const char* principal = "none";
  switch (principal_kind_) {
    case PrincipalKind::kNone:
      principal = "none";
      break;
    case PrincipalKind::kShared:
      principal = "shared";
      break;
    case PrincipalKind::kGlobal:
      principal = "global";
      break;
    case PrincipalKind::kExpr:
      principal = "expr";
      break;
  }
  std::string out = StrFormat("guard program '%s' ahash=%#llx ops=%zu principal=%s%s\n",
                              name_.c_str(), static_cast<unsigned long long>(ahash_), ops_.size(),
                              principal, pre_memoizable_ ? " pre_memoizable" : "");
  auto param_comment = [&](uint16_t idx) -> std::string {
    if (idx < params_.size()) {
      return StrFormat("  ; %s", params_[idx].c_str());
    }
    return "";
  };
  auto line = [&](size_t i) {
    const GuardOp& op = ops_[i];
    auto action = static_cast<Action::Op>(op.flags & kActionMask);
    auto cap = static_cast<CapKind>((op.flags >> kCapShift) & kCapMask);
    std::string body;
    switch (op.op) {
      case GuardOpcode::kPushConst:
        body = StrFormat("push_const #%u  ; %lld", op.a, static_cast<long long>(consts_[op.a]));
        break;
      case GuardOpcode::kPushArg:
        body = StrFormat("push_arg   %u%s", op.a, param_comment(op.a).c_str());
        break;
      case GuardOpcode::kPushRet:
        body = "push_ret";
        break;
      case GuardOpcode::kNeg:
        body = "neg";
        break;
      case GuardOpcode::kAdd:
        body = "add";
        break;
      case GuardOpcode::kSub:
        body = "sub";
        break;
      case GuardOpcode::kLt:
        body = "lt";
        break;
      case GuardOpcode::kGt:
        body = "gt";
        break;
      case GuardOpcode::kLe:
        body = "le";
        break;
      case GuardOpcode::kGe:
        body = "ge";
        break;
      case GuardOpcode::kEq:
        body = "eq";
        break;
      case GuardOpcode::kNe:
        body = "ne";
        break;
      case GuardOpcode::kJumpIfZero:
        body = StrFormat("jz         -> %u", op.a);
        break;
      case GuardOpcode::kActInline:
        if (cap == CapKind::kRef) {
          body = StrFormat("%-8s ref #%u  ; type %#llx", ActionName(action), op.b,
                           static_cast<unsigned long long>(consts_[op.b]));
        } else {
          body = StrFormat("%-8s %s%s", ActionName(action), CapKindMnemonic(cap),
                           (op.flags & kHasSize) != 0 ? ", size" : "");
        }
        break;
      case GuardOpcode::kActIter:
        body = StrFormat("%-8s iter %s", ActionName(action), iters_[op.a].name.c_str());
        break;
    }
    out += StrFormat("%4zu: %s\n", i, body.c_str());
  };
  out += "pre:\n";
  for (size_t i = 0; i < pre_end_; ++i) {
    line(i);
  }
  out += "post:\n";
  for (size_t i = pre_end_; i < post_end_; ++i) {
    line(i);
  }
  if (principal_kind_ == PrincipalKind::kExpr) {
    out += "principal-expr:\n";
    for (size_t i = post_end_; i < ops_.size(); ++i) {
      line(i);
    }
  }
  return out;
}

}  // namespace lxfi

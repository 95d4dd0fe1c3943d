// Reference AST interpreter for annotation sets: the test-side oracle the
// compiled GuardProgram engine is diffed against.
//
// The runtime executes only compiled programs (registration refuses a set
// the guard compiler rejects). This interpreter walks the AnnotationSet AST
// directly — recursive expression evaluation, caplist materialization,
// if-actions, principal() selection — and applies every capability through
// Runtime::ApplyOneCap, the per-capability core the compiled evaluator also
// calls. A divergence in a differential run therefore points at the
// compiler or the switch-loop evaluator, never at duplicated action code.
#pragma once

#include <cstdint>
#include <string>

#include "src/lxfi/annotation.h"
#include "src/lxfi/cap_iterator.h"
#include "src/lxfi/principal.h"
#include "src/lxfi/runtime.h"

namespace lxfitest {

class ReferenceInterpreter {
 public:
  explicit ReferenceInterpreter(lxfi::Runtime* rt) : rt_(rt) {}

  // Applies the pre (post=false) or post (post=true) actions of `set` in
  // declared order. Never memoizes.
  void RunActions(const lxfi::AnnotationSet* set, const lxfi::CallEnv& env, bool post) {
    if (set == nullptr) {
      return;
    }
    auto want = post ? lxfi::Annotation::Kind::kPost : lxfi::Annotation::Kind::kPre;
    for (const lxfi::Annotation& a : set->annotations) {
      if (a.kind == want && a.action != nullptr) {
        Apply(*a.action, env, post);
      }
    }
  }

  // The first principal() annotation names the callee; shared otherwise.
  lxfi::Principal* SelectCalleePrincipal(const lxfi::AnnotationSet* set, lxfi::ModuleCtx* mc,
                                         const lxfi::CallEnv& env) {
    if (set != nullptr) {
      for (const lxfi::Annotation& a : set->annotations) {
        if (a.kind != lxfi::Annotation::Kind::kPrincipal) {
          continue;
        }
        switch (a.principal_target) {
          case lxfi::Annotation::PrincipalTarget::kGlobal:
            return mc->global();
          case lxfi::Annotation::PrincipalTarget::kShared:
            return mc->shared();
          case lxfi::Annotation::PrincipalTarget::kExpr:
            return mc->GetOrCreate(static_cast<uintptr_t>(Eval(*a.principal_expr, env)));
        }
      }
    }
    return mc->shared();
  }

  static int64_t Eval(const lxfi::Expr& expr, const lxfi::CallEnv& env) {
    switch (expr.kind) {
      case lxfi::Expr::Kind::kInt:
        return expr.value;
      case lxfi::Expr::Kind::kArg:
        if (expr.arg_index < 0 || static_cast<size_t>(expr.arg_index) >= env.nargs) {
          return 0;
        }
        return static_cast<int64_t>(env.args[expr.arg_index]);
      case lxfi::Expr::Kind::kReturn:
        return static_cast<int64_t>(env.ret);
      case lxfi::Expr::Kind::kNeg:
        return -Eval(*expr.lhs, env);
      case lxfi::Expr::Kind::kBinary: {
        int64_t a = Eval(*expr.lhs, env);
        int64_t b = Eval(*expr.rhs, env);
        const std::string& op = expr.op;
        if (op == "+") return a + b;
        if (op == "-") return a - b;
        if (op == "<") return a < b;
        if (op == ">") return a > b;
        if (op == "<=") return a <= b;
        if (op == ">=") return a >= b;
        if (op == "==") return a == b;
        if (op == "!=") return a != b;
        return 0;
      }
    }
    return 0;
  }

 private:
  void Apply(const lxfi::Action& action, const lxfi::CallEnv& env, bool post) {
    if (action.op == lxfi::Action::Op::kIf) {
      if (Eval(*action.cond, env) != 0) {
        Apply(*action.then, env, post);
      }
      return;
    }
    lxfi::CapVec caps;
    Resolve(action.caps, env, &caps);
    bool from_module = env.kernel_to_module == post;
    for (const lxfi::Capability& cap : caps) {
      rt_->ApplyOneCap(action.op, cap, env, from_module);
    }
  }

  // Materializes the capabilities one caplist names.
  void Resolve(const lxfi::CapListSpec& spec, const lxfi::CallEnv& env, lxfi::CapVec* out) {
    if (spec.is_iterator) {
      const lxfi::CapIterator* iter = rt_->iterators().Find(spec.iterator_name);
      if (iter == nullptr) {
        rt_->RaiseViolation(lxfi::ViolationKind::kCapCheck, "unknown capability iterator '" +
                                                                spec.iterator_name + "' in " +
                                                                env.what);
        return;
      }
      lxfi::CapIterContext ctx(rt_->kernel());
      (*iter)(ctx, static_cast<uint64_t>(Eval(*spec.iterator_arg, env)));
      for (const lxfi::Capability& cap : ctx.caps()) {
        out->push_back(cap);
      }
      return;
    }
    auto addr = static_cast<uintptr_t>(Eval(*spec.ptr, env));
    switch (spec.kind) {
      case lxfi::CapKind::kWrite: {
        // Default size is one pointer-sized object.
        size_t size =
            spec.size != nullptr ? static_cast<size_t>(Eval(*spec.size, env)) : sizeof(uintptr_t);
        out->push_back(lxfi::Capability::Write(addr, size));
        break;
      }
      case lxfi::CapKind::kCall:
        out->push_back(lxfi::Capability::Call(addr));
        break;
      case lxfi::CapKind::kRef:
        out->push_back(lxfi::Capability::Ref(lxfi::RefType(spec.ref_type_name), addr));
        break;
    }
  }

  lxfi::Runtime* rt_;
};

}  // namespace lxfitest

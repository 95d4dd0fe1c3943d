// Annotation language AST (§3.3, Figure 2).
//
//   annotation := pre(action) | post(action) | principal(c-expr)
//   action     := copy(caplist) | transfer(caplist) | check(caplist)
//               | if (c-expr) action
//   caplist    := (c, ptr [, size]) | iterator-func(c-expr)
//   c          := write | call | ref(type)
//
// Expressions reference the annotated function's parameters by name (or
// argN), integer literals, and — in post annotations — `return`. The
// canonical text of an annotation set is hashed (FNV-1a) into the `ahash`
// the kernel-side indirect-call check compares (§4.1).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/lxfi/cap.h"

namespace lxfi {

class GuardProgram;

struct Expr {
  enum class Kind {
    kInt,     // integer literal
    kArg,     // function argument by index
    kReturn,  // the call's return value (post only)
    kBinary,  // comparison or +/-
    kNeg,     // unary minus
  };

  Kind kind = Kind::kInt;
  int64_t value = 0;                 // kInt
  int arg_index = -1;                // kArg
  std::string op;                    // kBinary: < > <= >= == != + -
  std::unique_ptr<Expr> lhs, rhs;    // kBinary; kNeg uses lhs
};

// One caplist: either an inline capability or a programmer-supplied
// capability iterator applied to an argument expression.
struct CapListSpec {
  bool is_iterator = false;
  std::string iterator_name;
  std::unique_ptr<Expr> iterator_arg;

  CapKind kind = CapKind::kWrite;
  std::string ref_type_name;  // for ref(type)
  std::unique_ptr<Expr> ptr;
  std::unique_ptr<Expr> size;  // null => default (pointer-sized object)
};

struct Action {
  enum class Op { kCopy, kTransfer, kCheck, kIf };

  Op op = Op::kCheck;
  CapListSpec caps;              // kCopy/kTransfer/kCheck
  std::unique_ptr<Expr> cond;    // kIf
  std::unique_ptr<Action> then;  // kIf
};

struct Annotation {
  enum class Kind { kPre, kPost, kPrincipal };
  enum class PrincipalTarget { kExpr, kGlobal, kShared };

  Kind kind = Kind::kPre;
  std::unique_ptr<Action> action;  // kPre/kPost

  PrincipalTarget principal_target = PrincipalTarget::kExpr;
  std::unique_ptr<Expr> principal_expr;
};

// The full annotation set attached to one function symbol or one
// function-pointer type.
struct AnnotationSet {
  AnnotationSet();
  ~AnnotationSet();
  AnnotationSet(const AnnotationSet&) = delete;
  AnnotationSet& operator=(const AnnotationSet&) = delete;

  std::string name;                 // symbol or fn-ptr type name
  std::string text;                 // source text as registered
  std::vector<std::string> params;  // parameter names, for expr binding
  std::vector<Annotation> annotations;
  uint64_t ahash = 0;  // hash of normalized text

  // Compiled form, lowered at registration time (guard_program.h): what
  // wrappers execute. Registration refuses sets the compiler rejects.
  std::unique_ptr<GuardProgram> program;

  bool HasPrincipal() const {
    for (const Annotation& a : annotations) {
      if (a.kind == Annotation::Kind::kPrincipal) {
        return true;
      }
    }
    return false;
  }

  // Counts individual pre/post/principal clauses (Figure 9 accounting).
  size_t ClauseCount() const { return annotations.size(); }
};

// Normalizes annotation text for hashing: collapses all whitespace so
// formatting differences do not change identity.
std::string NormalizeAnnotationText(const std::string& text);
uint64_t AnnotationHash(const std::string& text);

}  // namespace lxfi

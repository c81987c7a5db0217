// Project model: a tree-wide symbol table and call graph built from the
// AST-lite source scan (DESIGN.md §16).
//
// Every .cc/.h under src/ is parsed once. A recursive descent over the brace
// structure finds class bodies, member declarations, and function
// definitions (inline methods and out-of-line `Class::Method` definitions
// alike). Each function body is then scanned for:
//
//   * call sites, resolved by receiver-type heuristics: `this->m()` and bare
//     `m()` bind to the enclosing class; `x.m()` / `x->m()` look `x` up in
//     the member/local/parameter type tables; `A::m()` binds to class A.
//     A receiver whose type cannot be determined — and any known function
//     name appearing as a call *argument* (address-taken functions,
//     template callbacks, virtual dispatch through erased types) — is
//     treated as conservative may-call: edges to every function with that
//     name. Over-approximation is always safe for the reachability rules;
//     the soundness caveats are spelled out in DESIGN.md §16.
//   * allocation sites (`new`, malloc/calloc/realloc, make_unique/
//     make_shared, and growing STL container calls), copy sites (memcpy/
//     memmove/std::copy/obs::CopyPayload and byte-copy loops), and the
//     lexical extents covered by an ArenaScope or a MutexLock.
//   * annotations: ATMO_HOT_PATH(rule) root markers, ATMO_REQUIRES(mu)
//     contracts, ATMO_GUARDED_BY(mu) members.

#ifndef ATMO_TOOLS_AVERIF_LINT_CALLGRAPH_H_
#define ATMO_TOOLS_AVERIF_LINT_CALLGRAPH_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/averif_lint/source.h"

namespace atmo::lint {

// A lexical extent inside a function body during which a scoped guard
// (ArenaScope, MutexLock) is alive: declaration position to the end of the
// enclosing brace block.
struct GuardExtent {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string what;  // arena: always "arena"; lock: mutex identifier

  bool Covers(std::size_t pos) const { return pos >= begin && pos < end; }
};

// A primitive fact inside a function body: an allocation or payload copy.
struct PrimSite {
  std::size_t pos = 0;
  std::size_t line = 0;
  std::string what;  // e.g. "new", "push_back", "memcpy", "byte-copy loop"
};

struct CallSite {
  std::size_t pos = 0;
  std::size_t line = 0;
  std::string name;          // callee name as written
  std::vector<int> targets;  // indices into Project::functions
};

struct FunctionInfo {
  std::string cls;   // enclosing class; empty for free functions
  std::string name;  // unqualified
  int file = -1;     // index into Project::files
  std::size_t decl_pos = 0;   // start of the definition header
  std::size_t decl_line = 0;
  std::size_t body_begin = 0;  // '{' of the body
  std::size_t body_end = 0;    // one past '}'
  std::string trailer;         // text between ')' and '{' (contracts live here)
  std::vector<std::string> hot_rules;  // ATMO_HOT_PATH(<rule>) markers
  std::vector<std::string> requires_locks;  // ATMO_REQUIRES(mu) contracts
  bool no_thread_safety = false;            // ATMO_NO_THREAD_SAFETY_ANALYSIS

  std::vector<CallSite> calls;
  std::vector<PrimSite> allocs;
  std::vector<PrimSite> copies;
  std::vector<GuardExtent> arena_extents;
  std::vector<GuardExtent> lock_extents;

  std::string Id() const { return cls.empty() ? name : cls + "::" + name; }
};

// A member declaration guarded by ATMO_GUARDED_BY.
struct GuardedMember {
  std::string cls;
  std::string member;
  std::string mutex;
  int file = -1;
  std::size_t line = 0;
};

struct ClassInfo {
  std::string name;
  int file = -1;
  // Declared member name -> type name (heuristic: first identifier of the
  // declaration that names a known class, recorded for receiver
  // resolution).
  std::map<std::string, std::string> member_types;
};

class Project {
 public:
  // Parses every file under root/src. Never fails: unreadable files are
  // skipped (the per-rule strict checks own missing-input reporting).
  static Project Load(const std::string& root);

  const std::vector<FunctionInfo>& functions() const { return functions_; }
  const std::vector<GuardedMember>& guarded_members() const { return guarded_; }

  const SourceFile& file_of(const FunctionInfo& fn) const {
    return files_[static_cast<std::size_t>(fn.file)];
  }

  // All function indices named `name` (any class, plus free functions).
  const std::vector<int>* ByName(const std::string& name) const;
  // The function `cls::name`, or -1.
  int Method(const std::string& cls, const std::string& name) const;
  // All function indices that are methods of `cls`.
  std::vector<int> MethodsOf(const std::string& cls) const;
  // Callers: indices of functions with a call edge into `callee`.
  const std::vector<int>* CallersOf(int callee) const;

  // Functions carrying an ATMO_HOT_PATH(rule) marker.
  std::vector<int> HotRoots(const std::string& rule) const;

 private:
  void ParseFile(int file_index);
  void ScanScope(int file_index, std::size_t begin, std::size_t end,
                 const std::string& cls);
  void CollectMembers(int file_index, std::size_t begin, std::size_t end,
                      const std::string& cls);
  void AnalyzeBodies();
  void AnalyzeBody(int fn_index);
  void ResolveCall(const FunctionInfo& fn, CallSite* site,
                   const std::map<std::string, std::string>& local_types) const;

  std::vector<SourceFile> files_;
  std::vector<FunctionInfo> functions_;
  std::vector<GuardedMember> guarded_;
  std::map<std::string, ClassInfo> classes_;
  std::map<std::string, std::vector<int>> by_name_;
  std::map<std::string, int> by_qualified_;
  std::map<int, std::vector<int>> callers_;
};

}  // namespace atmo::lint

#endif  // ATMO_TOOLS_AVERIF_LINT_CALLGRAPH_H_

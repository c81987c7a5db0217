#include <algorithm>
#include <cctype>
#include <set>

#include "tools/averif_lint/rules.h"

namespace atmo::lint {

void AddFinding(std::vector<Finding>* findings, const SourceFile& f, std::size_t line,
                const std::string& rule, std::string message, std::string suggestion) {
  if (f.ok && f.SuppressedAt(line, rule)) {
    return;
  }
  findings->push_back(
      Finding{f.rel_path, line, rule, std::move(message), std::move(suggestion)});
}

void MissingFile(std::vector<Finding>* findings, const Options& options,
                 const std::string& rel_path, const std::string& rule) {
  if (options.strict) {
    findings->push_back(Finding{rel_path, 0, rule,
                                "required input file is missing or unreadable", ""});
  }
}

namespace {

const std::set<std::string>& MethodKeywords() {
  static const std::set<std::string> kw = {
      "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
      "delete", "throw", "static_cast", "const_cast", "reinterpret_cast",
      "dynamic_cast", "decltype", "alignof", "noexcept", "assert"};
  return kw;
}

}  // namespace

// Collects method declarations at depth 0 of a class body, tracking access
// sections. `default_public` matters only for structs.
std::vector<Method> ParseMethods(const SourceFile& f, Range body, bool default_public) {
  std::vector<Method> out;
  const std::string& code = f.code;
  bool is_public = default_public;
  std::size_t stmt_start = body.begin;  // start of the current declaration
  for (std::size_t i = body.begin; i < body.end; ++i) {
    char c = code[i];
    if (c == '{') {
      // Either a nested type/initializer or an inline method body; the
      // method path handles its own brace below, so a '{' seen here at
      // depth 0 belongs to a nested struct/enum/initializer. Skip it whole.
      std::size_t close = MatchBrace(code, i);
      if (close == std::string::npos) {
        break;
      }
      i = close - 1;
      stmt_start = close;
      continue;
    }
    if (c == ';' || c == '}') {
      stmt_start = i + 1;
      continue;
    }
    if (c == ':' && i > body.begin) {
      // Access specifier? Look back for public/private/protected.
      std::size_t before = i;
      while (before > body.begin &&
             std::isspace(static_cast<unsigned char>(code[before - 1])) != 0) {
        --before;
      }
      std::size_t id_end = before;
      while (before > body.begin && IsIdentChar(code[before - 1])) {
        --before;
      }
      std::string word = code.substr(before, id_end - before);
      if (word == "public") {
        is_public = true;
        stmt_start = i + 1;
      } else if (word == "private" || word == "protected") {
        is_public = false;
        stmt_start = i + 1;
      }
      continue;
    }
    if (c != '(') {
      continue;
    }
    // Candidate method: identifier directly before '('.
    std::size_t id_end = i;
    while (id_end > stmt_start &&
           std::isspace(static_cast<unsigned char>(code[id_end - 1])) != 0) {
      --id_end;
    }
    std::size_t id_begin = id_end;
    while (id_begin > stmt_start && IsIdentChar(code[id_begin - 1])) {
      --id_begin;
    }
    std::string name = code.substr(id_begin, id_end - id_begin);
    std::size_t close = MatchParen(code, i);
    if (close == std::string::npos || close > body.end) {
      break;
    }
    std::string decl_head = code.substr(stmt_start, i - stmt_start);
    bool skip = name.empty() || MethodKeywords().count(name) != 0 ||
                (id_begin > stmt_start && code[id_begin - 1] == '~') ||
                decl_head.find("operator") != std::string::npos ||
                decl_head.find("using") != std::string::npos ||
                decl_head.find("friend") != std::string::npos ||
                decl_head.find("typedef") != std::string::npos;
    bool is_static = decl_head.find("static") != std::string::npos;
    // Scan the trailer for const / = default / = delete / body.
    std::size_t j = close;
    bool is_const = false;
    bool deleted = false;
    while (j < body.end) {
      j = SkipWs(code, j);
      if (j >= body.end) {
        break;
      }
      if (code[j] == '{' || code[j] == ';') {
        break;
      }
      if (code[j] == '=') {
        deleted = true;  // = default / = delete / = 0 — nothing to check
        while (j < body.end && code[j] != ';') {
          ++j;
        }
        break;
      }
      if (IsIdentChar(code[j])) {
        std::size_t w = j;
        while (w < body.end && IsIdentChar(code[w])) {
          ++w;
        }
        std::string word = code.substr(j, w - j);
        if (word == "const") {
          is_const = true;
        }
        j = w;
        continue;
      }
      if (code[j] == '(') {  // noexcept(...), annotation macros
        std::size_t pc = MatchParen(code, j);
        if (pc == std::string::npos) {
          break;
        }
        j = pc;
        continue;
      }
      if (code[j] == '-' || code[j] == '>') {  // trailing return type
        ++j;
        continue;
      }
      ++j;
    }
    Method m;
    m.name = name;
    m.is_public = is_public;
    m.is_const = is_const;
    m.is_static = is_static;
    m.decl_line = f.LineOf(id_begin);
    if (j < body.end && code[j] == '{') {
      std::size_t bclose = MatchBrace(code, j);
      if (bclose == std::string::npos || bclose > body.end + 1) {
        break;
      }
      m.body = code.substr(j, bclose - j);
      i = bclose - 1;
      stmt_start = bclose;
    } else {
      i = j;
      stmt_start = j + 1;
    }
    if (!skip && !deleted) {
      out.push_back(std::move(m));
    }
  }
  return out;
}

const std::vector<Subsystem>& Subsystems() {
  // PageTable has no row: it has no log of its own, and every mutation
  // happens under a VmManager/IommuManager call that logs the owning
  // proc/domain (the "logged-by-caller" pattern, see vm_manager.h).
  static const std::vector<Subsystem> subsystems = {
      {"PageAllocator",
       "src/pmem/page_allocator.h",
       "src/pmem/page_allocator.cc",
       {"dirty_.Mark", "dirty_.DrainInto"},
       {"DrainDirtyInto"}},
      {"VmManager",
       "src/core/vm_manager.h",
       "src/core/vm_manager.cc",
       {"dirty_.Mark", "dirty_.DrainInto"},
       {"DrainDirtyInto"}},
      {"IommuManager",
       "src/iommu/iommu_manager.h",
       "src/iommu/iommu_manager.cc",
       {"dirty_.Mark", "dirty_.DrainInto"},
       {"DrainDirtyInto"}},
      {"ProcessManager",
       "src/proc/process_manager.h",
       "src/proc/process_manager.cc",
       // PermissionMap's GetMut/Insert/Remove log into the per-map dirty
       // sets; scheduler state is covered by sched_dirty_.
       {".GetMut(", ".Insert(", ".Remove(", "sched_dirty_ = true", ".DrainInto"},
       {"DrainDirty"}},
      {"SyscallRingTable",
       "src/core/syscall_ring.h",
       "src/core/syscall_ring.cc",
       {"dirty_.Mark", "dirty_.DrainInto"},
       {"DrainDirtyInto"}},
  };
  return subsystems;
}

}  // namespace atmo::lint

#include "tools/averif_lint/callgraph.h"

#include <algorithm>
#include <cctype>

namespace atmo::lint {

namespace {

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",         "while",         "switch",
      "return",   "sizeof",      "catch",         "new",
      "delete",   "throw",       "static_cast",   "const_cast",
      "reinterpret_cast",        "dynamic_cast",  "decltype",
      "alignof",  "noexcept",    "assert",        "alignas",
      "operator", "static_assert"};
  return kw;
}

// Identifier starting at `i`, or empty.
std::string IdentAt(const std::string& code, std::size_t i) {
  std::size_t e = i;
  while (e < code.size() && IsIdentChar(code[e])) {
    ++e;
  }
  return code.substr(i, e - i);
}

// Identifier ending at (exclusive) `end`, scanning backwards.
std::string IdentEndingAt(const std::string& code, std::size_t end) {
  std::size_t b = end;
  while (b > 0 && IsIdentChar(code[b - 1])) {
    --b;
  }
  return code.substr(b, end - b);
}

// Strips whitespace from a macro-argument slice.
std::string StripSpaces(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      out += c;
    }
  }
  return out;
}

// End of the brace block enclosing `pos` (position of its '}'), bounded by
// `limit`. Used for guard extents: the guard dies when its enclosing block
// closes.
std::size_t EnclosingBlockEnd(const std::string& code, std::size_t pos,
                              std::size_t limit) {
  int depth = 0;
  for (std::size_t i = pos; i < limit; ++i) {
    if (code[i] == '{') {
      ++depth;
    } else if (code[i] == '}') {
      if (depth == 0) {
        return i;
      }
      --depth;
    }
  }
  return limit;
}

}  // namespace

Project Project::Load(const std::string& root) {
  Project p;
  for (const std::string& rel : TreeFiles(root)) {
    SourceFile f = LoadFile(root, rel);
    if (!f.ok) {
      continue;
    }
    p.files_.push_back(std::move(f));
  }
  for (int i = 0; i < static_cast<int>(p.files_.size()); ++i) {
    p.ParseFile(i);
  }
  for (int i = 0; i < static_cast<int>(p.functions_.size()); ++i) {
    const FunctionInfo& fn = p.functions_[static_cast<std::size_t>(i)];
    p.by_name_[fn.name].push_back(i);
    // Last definition wins on ODR-style duplicates; lookups only need *a*
    // body per qualified name.
    p.by_qualified_[fn.Id()] = i;
  }
  p.AnalyzeBodies();
  return p;
}

void Project::ParseFile(int file_index) {
  const SourceFile& f = files_[static_cast<std::size_t>(file_index)];
  ScanScope(file_index, 0, f.code.size(), "");
}

// Walks one class/namespace scope: registers nested classes (recursing into
// them), skips enum bodies and initializers, and registers every function
// definition found at this level.
void Project::ScanScope(int file_index, std::size_t begin, std::size_t end,
                        const std::string& cls) {
  const SourceFile& f = files_[static_cast<std::size_t>(file_index)];
  const std::string& code = f.code;
  std::size_t i = begin;
  while (i < end) {
    char c = code[i];
    if (!IsIdentChar(c)) {
      if (c == '{') {
        // A brace not introduced by a recognized construct: an initializer
        // (`= {...}`) is skipped whole, anything else (extern "C" blocks,
        // stray scopes) is scanned like a namespace.
        std::size_t close = MatchBrace(code, i);
        if (close == std::string::npos || close > end) {
          return;
        }
        std::size_t prev = PrevNonWs(code, i);
        char pc = prev == std::string::npos ? '\0' : code[prev];
        if (pc != '=' && pc != ',' && pc != '(') {
          ScanScope(file_index, i + 1, close - 1, cls);
        }
        i = close;
        continue;
      }
      ++i;
      continue;
    }
    if (i > begin && IsIdentChar(code[i - 1])) {
      ++i;
      continue;
    }
    std::string w = IdentAt(code, i);
    std::size_t after = i + w.size();
    if (w == "class" || w == "struct") {
      std::size_t k = SkipWs(code, after);
      std::string name = IdentAt(code, k);
      std::size_t j = k + name.size();
      while (j < end && code[j] != '{' && code[j] != ';' && code[j] != '(') {
        ++j;
      }
      // `(` means this was e.g. a parameter `struct Foo* f` oddity; `;` is a
      // forward declaration — both leave nothing to scan.
      if (j < end && code[j] == '{' && !name.empty()) {
        std::size_t close = MatchBrace(code, j);
        if (close == std::string::npos || close > end + 1) {
          return;
        }
        ClassInfo& info = classes_[name];
        info.name = name;
        info.file = file_index;
        CollectMembers(file_index, j + 1, close - 1, name);
        ScanScope(file_index, j + 1, close - 1, name);
        i = close;
        continue;
      }
      i = after;
      continue;
    }
    if (w == "namespace") {
      std::size_t j = after;
      while (j < end && code[j] != '{' && code[j] != ';' && code[j] != '=') {
        ++j;
      }
      if (j < end && code[j] == '{') {
        std::size_t close = MatchBrace(code, j);
        if (close == std::string::npos || close > end + 1) {
          return;
        }
        ScanScope(file_index, j + 1, close - 1, cls);
        i = close;
        continue;
      }
      i = j + 1;
      continue;
    }
    if (w == "enum") {
      std::size_t j = after;
      while (j < end && code[j] != '{' && code[j] != ';') {
        ++j;
      }
      if (j < end && code[j] == '{') {
        std::size_t close = MatchBrace(code, j);
        if (close == std::string::npos || close > end + 1) {
          return;
        }
        i = close;
        continue;
      }
      i = j + 1;
      continue;
    }
    if (w == "using" || w == "typedef" || w == "friend") {
      while (after < end && code[after] != ';') {
        ++after;
      }
      i = after + 1;
      continue;
    }
    // Candidate function name: identifier directly followed by '('.
    std::size_t k = SkipWs(code, after);
    if (k >= end || code[k] != '(' || Keywords().count(w) != 0) {
      i = after;
      continue;
    }
    std::size_t pclose = MatchParen(code, k);
    if (pclose == std::string::npos || pclose > end) {
      i = after;
      continue;
    }
    // Qualifier: `Class::Name(` makes this an out-of-line method of Class;
    // `~` marks a destructor (registered under ~Name so it never collides
    // with the constructor).
    std::string owner = cls;
    std::string name = w;
    std::size_t qpos = i;
    if (qpos > begin && code[qpos - 1] == '~') {
      name = "~" + w;
      --qpos;
    }
    if (qpos >= begin + 2 && code[qpos - 1] == ':' && code[qpos - 2] == ':') {
      std::string q = IdentEndingAt(code, qpos - 2);
      if (!q.empty()) {
        owner = q;
      }
    }
    // Trailer: const/noexcept/attribute macros/requires-clause until '{'
    // (definition), or a terminator proving this is a declaration/expression.
    std::size_t j = pclose;
    std::size_t body_open = std::string::npos;
    FunctionInfo fn;
    while (j < end) {
      j = SkipWs(code, j);
      if (j >= end) {
        break;
      }
      char t = code[j];
      if (t == '{') {
        body_open = j;
        break;
      }
      if (t == ';' || t == ',' || t == ')' || t == '}' || t == '=') {
        break;
      }
      if (t == ':' && j + 1 < end && code[j + 1] == ':') {
        j += 2;  // a qualified name (`requires std::copyable<T>`), not an initializer list
        continue;
      }
      if (t == ':') {
        // Constructor initializer list: scan to the body '{'. A '{' whose
        // previous token is an identifier or '>' is a member brace-init —
        // skip it whole; otherwise it opens the body.
        std::size_t m = j + 1;
        while (m < end) {
          if (code[m] == '(') {
            std::size_t pc = MatchParen(code, m);
            if (pc == std::string::npos) {
              break;
            }
            m = pc;
            continue;
          }
          if (code[m] == '{') {
            std::size_t prev = PrevNonWs(code, m);
            char pc = prev == std::string::npos ? '\0' : code[prev];
            if (IsIdentChar(pc) || pc == '>') {
              std::size_t bc = MatchBrace(code, m);
              if (bc == std::string::npos) {
                break;
              }
              m = bc;
              continue;
            }
            body_open = m;
            break;
          }
          if (code[m] == ';') {
            break;
          }
          ++m;
        }
        j = body_open != std::string::npos ? body_open : m;
        break;
      }
      if (IsIdentChar(t)) {
        std::string word = IdentAt(code, j);
        std::size_t wend = j + word.size();
        std::size_t paren = SkipWs(code, wend);
        std::string arg;
        if (paren < end && code[paren] == '(') {
          std::size_t pc = MatchParen(code, paren);
          if (pc == std::string::npos) {
            break;
          }
          arg = StripSpaces(code.substr(paren + 1, pc - paren - 2));
          wend = pc;
        }
        fn.trailer += word + " ";
        if (word == "ATMO_HOT_PATH") {
          fn.hot_rules.push_back(arg);
        } else if (word == "ATMO_REQUIRES" || word == "ATMO_REQUIRES_SHARED") {
          fn.requires_locks.push_back(arg);
        } else if (word == "ATMO_NO_THREAD_SAFETY_ANALYSIS") {
          fn.no_thread_safety = true;
        }
        j = wend;
        continue;
      }
      ++j;  // &, ->, * in trailing return types
    }
    if (body_open == std::string::npos) {
      i = pclose;
      continue;
    }
    std::size_t body_close = MatchBrace(code, body_open);
    if (body_close == std::string::npos || body_close > end + 1) {
      return;
    }
    fn.cls = owner;
    fn.name = name;
    fn.file = file_index;
    fn.decl_pos = i;
    fn.decl_line = f.LineOf(i);
    fn.body_begin = body_open;
    fn.body_end = body_close;
    functions_.push_back(std::move(fn));
    i = body_close;
  }
}

// Member declarations at depth 0 of a class body: `Type name_;` possibly
// carrying ATMO_GUARDED_BY. Statements containing parens (method
// declarations) are ignored except for the annotation extraction.
void Project::CollectMembers(int file_index, std::size_t begin, std::size_t end,
                             const std::string& cls) {
  const SourceFile& f = files_[static_cast<std::size_t>(file_index)];
  const std::string& code = f.code;
  ClassInfo& info = classes_[cls];
  std::size_t stmt = begin;
  for (std::size_t i = begin; i < end; ++i) {
    char c = code[i];
    if (c == '{') {
      std::size_t close = MatchBrace(code, i);
      if (close == std::string::npos) {
        return;
      }
      i = close - 1;
      continue;
    }
    if (c == '(') {
      std::size_t close = MatchParen(code, i);
      if (close == std::string::npos) {
        return;
      }
      i = close - 1;
      continue;
    }
    if (c != ';') {
      continue;
    }
    std::string s = code.substr(stmt, i - stmt);
    stmt = i + 1;
    // ATMO_GUARDED_BY(mu): member name precedes the macro.
    std::size_t g = s.find("ATMO_GUARDED_BY");
    if (g != std::string::npos) {
      std::size_t op = s.find('(', g);
      std::size_t cp = op == std::string::npos ? std::string::npos : s.find(')', op);
      std::size_t name_end = g;
      while (name_end > 0 &&
             std::isspace(static_cast<unsigned char>(s[name_end - 1])) != 0) {
        --name_end;
      }
      std::string member = IdentEndingAt(s, name_end);
      if (!member.empty() && op != std::string::npos && cp != std::string::npos) {
        GuardedMember gm;
        gm.cls = cls;
        gm.member = member;
        gm.mutex = StripSpaces(s.substr(op + 1, cp - op - 1));
        gm.file = file_index;
        gm.line = f.LineOf(stmt - 1);
        guarded_.push_back(std::move(gm));
      }
    }
    // Plain member: no parens or '=' (the paren statements were skipped
    // above, so any '(' left in `s` came from a skipped region boundary).
    // Tokens: first identifier = type candidate, last identifier = name.
    std::size_t first_b = std::string::npos, first_e = 0;
    for (std::size_t j = 0; j < s.size(); ++j) {
      if (IsIdentChar(s[j]) && (j == 0 || !IsIdentChar(s[j - 1]))) {
        first_b = j;
        first_e = j;
        while (first_e < s.size() && IsIdentChar(s[first_e])) {
          ++first_e;
        }
        break;
      }
    }
    if (first_b == std::string::npos) {
      continue;
    }
    std::string type = s.substr(first_b, first_e - first_b);
    if (type == "public" || type == "private" || type == "protected" ||
        type == "static" || type == "using" || type == "typedef" ||
        type == "friend" || type == "return") {
      continue;
    }
    std::size_t last = s.size();
    while (last > 0 && !IsIdentChar(s[last - 1])) {
      --last;
    }
    std::string member = IdentEndingAt(s, last);
    if (member.empty() || member == type) {
      continue;
    }
    if (info.member_types.find(member) == info.member_types.end()) {
      info.member_types[member] = type;
    }
  }
}

void Project::AnalyzeBodies() {
  for (int i = 0; i < static_cast<int>(functions_.size()); ++i) {
    AnalyzeBody(i);
  }
  for (int i = 0; i < static_cast<int>(functions_.size()); ++i) {
    for (const CallSite& site : functions_[static_cast<std::size_t>(i)].calls) {
      for (int target : site.targets) {
        std::vector<int>& callers = callers_[target];
        if (callers.empty() || callers.back() != i) {
          callers.push_back(i);
        }
      }
    }
  }
}

namespace {

const std::set<std::string>& AllocMethods() {
  // Lowercase STL container growth calls; project classes use CamelCase, so
  // a `.insert(` receiver is always a standard container.
  static const std::set<std::string> m = {
      "push_back", "emplace_back", "emplace",     "emplace_hint", "insert",
      "resize",    "reserve",      "push_front",  "append",       "assign"};
  return m;
}

// The position just past the template argument list that opens at
// `open` (a '<'), counting nested '<' and '>'; `end` when it does not close
// before a statement boundary.
std::size_t SkipTemplateArgs(const std::string& code, std::size_t open, std::size_t end) {
  int depth = 0;
  for (std::size_t j = open; j < end; ++j) {
    char c = code[j];
    if (c == '<') {
      ++depth;
    } else if (c == '>' && --depth == 0) {
      return j + 1;
    } else if (c == ';' || c == '{' || c == '}') {
      break;
    }
  }
  return end;
}

const std::set<std::string>& AllocCalls() {
  static const std::set<std::string> m = {"malloc",       "calloc",
                                          "realloc",      "aligned_alloc",
                                          "strdup",       "make_unique",
                                          "make_shared"};
  return m;
}

const std::set<std::string>& CopyCalls() {
  static const std::set<std::string> m = {"memcpy", "memmove", "CopyPayload"};
  return m;
}

}  // namespace

void Project::AnalyzeBody(int fn_index) {
  FunctionInfo& fn = functions_[static_cast<std::size_t>(fn_index)];
  const SourceFile& f = files_[static_cast<std::size_t>(fn.file)];
  const std::string& code = f.code;
  std::size_t begin = fn.body_begin + 1;
  std::size_t end = fn.body_end - 1;

  // Local/parameter types: every `KnownClass [*&] ident` in the header and
  // body binds ident to that class for receiver resolution.
  std::map<std::string, std::string> local_types;
  for (const auto& [cname, cinfo] : classes_) {
    (void)cinfo;
    for (std::size_t pos : FindIdent(code, cname, fn.decl_pos, end)) {
      std::size_t j = pos + cname.size();
      while (j < end && (code[j] == '*' || code[j] == '&' ||
                         std::isspace(static_cast<unsigned char>(code[j])) != 0)) {
        ++j;
      }
      std::string var = IdentAt(code, j);
      if (!var.empty() && Keywords().count(var) == 0 &&
          classes_.find(var) == classes_.end()) {
        local_types.emplace(var, cname);
      }
    }
  }

  // Loop extents for the byte-copy heuristic.
  std::vector<Range> loops;
  for (const char* kw : {"for", "while"}) {
    for (std::size_t pos : FindIdent(code, kw, begin, end)) {
      std::size_t k = SkipWs(code, pos + std::string(kw).size());
      if (k >= end || code[k] != '(') {
        continue;
      }
      std::size_t pc = MatchParen(code, k);
      if (pc == std::string::npos) {
        continue;
      }
      std::size_t open = SkipWs(code, pc);
      if (open < end && code[open] == '{') {
        std::size_t bc = MatchBrace(code, open);
        if (bc != std::string::npos && bc <= end + 1) {
          loops.push_back(Range{open, bc});
        }
      }
    }
  }
  auto in_loop = [&](std::size_t pos) {
    for (const Range& r : loops) {
      if (pos > r.begin && pos < r.end) {
        return true;
      }
    }
    return false;
  };

  // Byte-copy loops: `dst[i] = src[j]` — `]` before an assignment whose
  // right side indexes again, inside a loop.
  for (std::size_t pos = begin; pos < end; ++pos) {
    if (code[pos] != '=') {
      continue;
    }
    char nextc = pos + 1 < end ? code[pos + 1] : '\0';
    char prevc = pos > 0 ? code[pos - 1] : '\0';
    if (nextc == '=' || prevc == '=' || prevc == '!' || prevc == '<' ||
        prevc == '>' || prevc == '+' || prevc == '-' || prevc == '*' ||
        prevc == '|' || prevc == '&' || prevc == '^') {
      continue;
    }
    std::size_t lhs = PrevNonWs(code, pos);
    if (lhs == std::string::npos || code[lhs] != ']') {
      continue;
    }
    bool rhs_indexes = false;
    for (std::size_t j = pos + 1; j < end && code[j] != ';'; ++j) {
      if (code[j] == '[') {
        rhs_indexes = true;
        break;
      }
    }
    if (rhs_indexes && in_loop(pos)) {
      fn.copies.push_back(PrimSite{pos, f.LineOf(pos), "byte-copy loop"});
    }
  }

  // Guard extents.
  for (std::size_t pos : FindIdent(code, "ArenaScope", begin, end)) {
    std::size_t close = EnclosingBlockEnd(code, pos, end + 1);
    fn.arena_extents.push_back(GuardExtent{pos, close, "arena"});
  }
  for (std::size_t pos : FindIdent(code, "MutexLock", begin, end)) {
    std::size_t op = code.find('(', pos);
    if (op == std::string::npos || op >= end) {
      continue;
    }
    std::size_t cp = MatchParen(code, op);
    if (cp == std::string::npos) {
      continue;
    }
    std::string mu;
    for (std::size_t j = op + 1; j < cp - 1; ++j) {
      if (IsIdentChar(code[j]) && !IsIdentChar(code[j - 1])) {
        mu = IdentAt(code, j);
      }
    }
    std::size_t close = EnclosingBlockEnd(code, pos, end + 1);
    fn.lock_extents.push_back(GuardExtent{pos, close, mu});
  }

  // Identifier walk: calls, allocation/copy calls, direct `mu_.Lock()`.
  std::vector<Range> call_paren_ranges;
  std::size_t i = begin;
  while (i < end) {
    if (!IsIdentChar(code[i]) || (i > 0 && IsIdentChar(code[i - 1]))) {
      ++i;
      continue;
    }
    std::string w = IdentAt(code, i);
    std::size_t after = i + w.size();
    std::size_t k = SkipWs(code, after);
    if (k < end && code[k] == '<' && AllocCalls().count(w) != 0) {
      // An allocation function's template form, `make_unique<T>(...)`:
      // the call's paren follows a balanced template argument list.
      k = SkipWs(code, SkipTemplateArgs(code, k, end));
    }
    bool is_call = k < end && code[k] == '(';

    if (w == "new") {
      // `new Foo(...)` allocates; placement `new (ptr) Foo` targets storage
      // the caller already owns.
      if (!is_call) {
        fn.allocs.push_back(PrimSite{i, f.LineOf(i), "new"});
      }
      i = after;
      continue;
    }
    if (!is_call) {
      // Known function named as a value inside another call's argument list:
      // conservative may-call (function pointers, template callbacks).
      bool in_args = false;
      for (const Range& r : call_paren_ranges) {
        if (i > r.begin && i < r.end) {
          in_args = true;
          break;
        }
      }
      auto byn = by_name_.find(w);
      if (in_args && byn != by_name_.end() && Keywords().count(w) == 0) {
        char prevc = i > 0 ? code[i - 1] : '\0';
        bool qualified_field = prevc == '.' ||
                               (prevc == '>' && i >= 2 && code[i - 2] == '-');
        if (!qualified_field) {
          CallSite site;
          site.pos = i;
          site.line = f.LineOf(i);
          site.name = w;
          site.targets = byn->second;
          fn.calls.push_back(std::move(site));
        }
      }
      i = after;
      continue;
    }

    // It is a call. Track the paren range for argument scanning.
    std::size_t pclose = MatchParen(code, k);
    if (pclose != std::string::npos && pclose <= end + 1) {
      call_paren_ranges.push_back(Range{k, pclose - 1});
    }
    if (Keywords().count(w) != 0) {
      i = after;
      continue;
    }
    char prevc = i > 0 ? code[i - 1] : '\0';
    bool dot = prevc == '.';
    bool arrow = prevc == '>' && i >= 2 && code[i - 2] == '-';
    bool scope = prevc == ':' && i >= 2 && code[i - 2] == ':';

    if ((dot || arrow) && AllocMethods().count(w) != 0) {
      fn.allocs.push_back(PrimSite{i, f.LineOf(i), w});
      i = after;
      continue;
    }
    if (AllocCalls().count(w) != 0) {
      fn.allocs.push_back(PrimSite{i, f.LineOf(i), w});
      i = after;
      continue;
    }
    if (CopyCalls().count(w) != 0 || (scope && w == "copy")) {
      fn.copies.push_back(PrimSite{i, f.LineOf(i), w});
      i = after;
      continue;
    }
    if ((dot || arrow) && (w == "Lock" || w == "Unlock")) {
      // Manual lock: treat `mu_.Lock()` as covering the rest of the
      // enclosing block (Unlock before that is rare and conservative the
      // safe way for lock-discipline: coverage only grows).
      std::size_t recv_end = dot ? i - 1 : i - 2;
      std::string recv = IdentEndingAt(code, recv_end);
      if (w == "Lock" && !recv.empty()) {
        std::size_t close = EnclosingBlockEnd(code, i, end + 1);
        fn.lock_extents.push_back(GuardExtent{i, close, recv});
      }
      i = after;
      continue;
    }

    CallSite site;
    site.pos = i;
    site.line = f.LineOf(i);
    site.name = w;
    if (scope) {
      std::string q = IdentEndingAt(code, i - 2);
      int m = Method(q, w);
      if (m >= 0) {
        site.targets.push_back(m);
      } else if (!q.empty() && classes_.find(q) == classes_.end()) {
        // Unknown scope (std::, obs::...): no edge.
      }
    } else if (dot || arrow) {
      std::size_t recv_end = dot ? i - 1 : i - 2;
      std::string recv = IdentEndingAt(code, recv_end);
      std::string recv_type;
      if (recv == "this") {
        recv_type = fn.cls;
      } else if (!recv.empty()) {
        auto lt = local_types.find(recv);
        if (lt != local_types.end()) {
          recv_type = lt->second;
        } else {
          auto ci = classes_.find(fn.cls);
          if (ci != classes_.end()) {
            auto mt = ci->second.member_types.find(recv);
            if (mt != ci->second.member_types.end()) {
              recv_type = mt->second;
            }
          }
        }
      }
      int m = recv_type.empty() ? -1 : Method(recv_type, w);
      if (m >= 0) {
        site.targets.push_back(m);
      } else {
        // Unresolved receiver: conservative may-call to every function with
        // this name.
        auto byn = by_name_.find(w);
        if (byn != by_name_.end()) {
          site.targets = byn->second;
        }
      }
    } else {
      // Bare call: same class wins, else every function with the name.
      int m = fn.cls.empty() ? -1 : Method(fn.cls, w);
      if (m >= 0) {
        site.targets.push_back(m);
      } else {
        auto byn = by_name_.find(w);
        if (byn != by_name_.end()) {
          site.targets = byn->second;
        }
      }
    }
    if (!site.targets.empty()) {
      fn.calls.push_back(std::move(site));
    }
    i = after;
  }
}

const std::vector<int>* Project::ByName(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

int Project::Method(const std::string& cls, const std::string& name) const {
  if (cls.empty()) {
    return -1;
  }
  auto it = by_qualified_.find(cls + "::" + name);
  return it == by_qualified_.end() ? -1 : it->second;
}

std::vector<int> Project::MethodsOf(const std::string& cls) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(functions_.size()); ++i) {
    if (functions_[static_cast<std::size_t>(i)].cls == cls) {
      out.push_back(i);
    }
  }
  return out;
}

const std::vector<int>* Project::CallersOf(int callee) const {
  auto it = callers_.find(callee);
  return it == callers_.end() ? nullptr : &it->second;
}

std::vector<int> Project::HotRoots(const std::string& rule) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(functions_.size()); ++i) {
    const FunctionInfo& fn = functions_[static_cast<std::size_t>(i)];
    for (const std::string& r : fn.hot_rules) {
      if (r == rule) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

}  // namespace atmo::lint

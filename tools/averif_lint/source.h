// Source model shared by every averif-lint pass: raw text plus a
// comment/string-blanked shadow for structural scans (brace matching,
// identifier search), with position -> line mapping. Suppression comments
// are looked up in the raw text. The parser is deliberately AST-lite:
// no LLVM dependency, runs in milliseconds, and the checked idioms are all
// grep-shaped by construction.

#ifndef ATMO_TOOLS_AVERIF_LINT_SOURCE_H_
#define ATMO_TOOLS_AVERIF_LINT_SOURCE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace atmo::lint {

struct SourceFile {
  std::string rel_path;
  std::string raw;
  std::string code;  // same length as raw; comments and literals blanked
  std::vector<std::size_t> line_starts;
  bool ok = false;

  std::size_t LineOf(std::size_t pos) const;
  std::string Line(std::size_t line) const;  // 1-based
  bool SuppressedAt(std::size_t line, const std::string& rule) const;
};

// Loads root/rel_path; `ok` is false when unreadable.
SourceFile LoadFile(const std::string& root, const std::string& rel_path);

std::string StripCommentsAndStrings(const std::string& in);

bool IsIdentChar(char c);

// Position just past the matching '}' for the '{' at `open`, or npos.
std::size_t MatchBrace(const std::string& code, std::size_t open);
std::size_t MatchParen(const std::string& code, std::size_t open);
std::size_t SkipWs(const std::string& code, std::size_t i);
// Last non-whitespace position strictly before `i`, or npos.
std::size_t PrevNonWs(const std::string& code, std::size_t i);

// Whole-identifier search: occurrences of `ident` in code[range) that are
// not part of a longer identifier.
std::vector<std::size_t> FindIdent(const std::string& code, const std::string& ident,
                                   std::size_t begin = 0,
                                   std::size_t end = std::string::npos);
bool ContainsIdent(const std::string& code, const std::string& ident,
                   std::size_t begin = 0, std::size_t end = std::string::npos);

struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// [begin, end) of the body of `class name { ... }`, or nullopt.
std::optional<Range> ClassBody(const SourceFile& f, const std::string& name);

// Function body lookup: definition of `func` in `f` (first match whose
// parameter list is followed by '{'). Works for free functions and
// qualified definitions (searches the unqualified name). The returned range
// includes the braces: [pos of '{', one past '}').
std::optional<Range> FunctionBody(const SourceFile& f, const std::string& func);

// All .cc/.h files under root/src, sorted, repo-root-relative.
std::vector<std::string> TreeFiles(const std::string& root);

std::string JsonEscape(const std::string& in);

}  // namespace atmo::lint

#endif  // ATMO_TOOLS_AVERIF_LINT_SOURCE_H_

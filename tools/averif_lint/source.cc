#include "tools/averif_lint/source.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace atmo::lint {

namespace fs = std::filesystem;

std::size_t SourceFile::LineOf(std::size_t pos) const {
  auto it = std::upper_bound(line_starts.begin(), line_starts.end(), pos);
  return static_cast<std::size_t>(it - line_starts.begin());
}

std::string SourceFile::Line(std::size_t line) const {
  if (line == 0 || line > line_starts.size()) {
    return std::string();
  }
  std::size_t begin = line_starts[line - 1];
  std::size_t end = line < line_starts.size() ? line_starts[line] : raw.size();
  return raw.substr(begin, end - begin);
}

bool SourceFile::SuppressedAt(std::size_t line, const std::string& rule) const {
  std::string needle = "averif-lint: allow(" + rule + ")";
  std::size_t first = line > 4 ? line - 4 : 1;
  for (std::size_t l = first; l <= line && l <= line_starts.size(); ++l) {
    if (Line(l).find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string StripCommentsAndStrings(const std::string& in) {
  std::string out = in;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar } state = State::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    char c = in[i];
    char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < in.size() && in[i + 1] != '\n') {
            out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < in.size() && in[i + 1] != '\n') {
            out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

SourceFile LoadFile(const std::string& root, const std::string& rel_path) {
  SourceFile f;
  f.rel_path = rel_path;
  std::ifstream in(fs::path(root) / rel_path, std::ios::binary);
  if (!in) {
    return f;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  f.raw = buf.str();
  f.code = StripCommentsAndStrings(f.raw);
  // Blank preprocessor directives (and their backslash continuations): to
  // the structural scans a `#if defined(...)` or a multi-line #define looks
  // like code and would register phantom functions.
  bool continuation = false;
  std::size_t line_begin = 0;
  for (std::size_t i = 0; i <= f.code.size(); ++i) {
    if (i != f.code.size() && f.code[i] != '\n') {
      continue;
    }
    std::size_t first = SkipWs(f.code, line_begin);
    bool directive = continuation || (first < i && f.code[first] == '#');
    // The continuation backslash is read from the raw text: a block comment
    // spanning lines of a #define (the syscall table's row notes) blanks it
    // from `code`, but the preprocessor still splices the line.
    std::size_t last = i;
    while (last > line_begin &&
           std::isspace(static_cast<unsigned char>(f.raw[last - 1])) != 0) {
      --last;
    }
    continuation = directive && last > line_begin && f.raw[last - 1] == '\\';
    if (directive) {
      for (std::size_t j = line_begin; j < i; ++j) {
        f.code[j] = ' ';
      }
    }
    line_begin = i + 1;
  }
  f.line_starts.push_back(0);
  for (std::size_t i = 0; i < f.raw.size(); ++i) {
    if (f.raw[i] == '\n' && i + 1 < f.raw.size()) {
      f.line_starts.push_back(i + 1);
    }
  }
  f.ok = true;
  return f;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t MatchBrace(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '{') {
      ++depth;
    } else if (code[i] == '}') {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return std::string::npos;
}

std::size_t MatchParen(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') {
      ++depth;
    } else if (code[i] == ')') {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return std::string::npos;
}

std::size_t SkipWs(const std::string& code, std::size_t i) {
  while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])) != 0) {
    ++i;
  }
  return i;
}

std::size_t PrevNonWs(const std::string& code, std::size_t i) {
  while (i > 0) {
    --i;
    if (std::isspace(static_cast<unsigned char>(code[i])) == 0) {
      return i;
    }
  }
  return std::string::npos;
}

std::vector<std::size_t> FindIdent(const std::string& code, const std::string& ident,
                                   std::size_t begin, std::size_t end) {
  std::vector<std::size_t> out;
  end = std::min(end, code.size());
  std::size_t pos = begin;
  while ((pos = code.find(ident, pos)) != std::string::npos && pos < end) {
    bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    std::size_t after = pos + ident.size();
    bool right_ok = after >= code.size() || !IsIdentChar(code[after]);
    if (left_ok && right_ok) {
      out.push_back(pos);
    }
    pos = after;
  }
  return out;
}

bool ContainsIdent(const std::string& code, const std::string& ident,
                   std::size_t begin, std::size_t end) {
  return !FindIdent(code, ident, begin, end).empty();
}

std::optional<Range> ClassBody(const SourceFile& f, const std::string& name) {
  for (std::size_t pos : FindIdent(f.code, name)) {
    // Must follow the `class`/`struct` keyword to be the definition.
    std::size_t before = pos;
    while (before > 0 &&
           std::isspace(static_cast<unsigned char>(f.code[before - 1])) != 0) {
      --before;
    }
    std::size_t kw_end = before;
    while (before > 0 && IsIdentChar(f.code[before - 1])) {
      --before;
    }
    std::string kw = f.code.substr(before, kw_end - before);
    if (kw != "class" && kw != "struct") {
      continue;
    }
    // Scan forward past an optional base-clause to '{'; a ';' first means a
    // forward declaration.
    std::size_t i = pos + name.size();
    while (i < f.code.size() && f.code[i] != '{' && f.code[i] != ';') {
      ++i;
    }
    if (i >= f.code.size() || f.code[i] != '{') {
      continue;
    }
    std::size_t close = MatchBrace(f.code, i);
    if (close == std::string::npos) {
      continue;
    }
    return Range{i + 1, close - 1};
  }
  return std::nullopt;
}

std::optional<Range> FunctionBody(const SourceFile& f, const std::string& func) {
  const std::string& code = f.code;
  for (std::size_t pos : FindIdent(code, func)) {
    std::size_t i = SkipWs(code, pos + func.size());
    if (i >= code.size() || code[i] != '(') {
      continue;
    }
    std::size_t close = MatchParen(code, i);
    if (close == std::string::npos) {
      continue;
    }
    std::size_t j = close;
    while (j < code.size() && code[j] != '{' && code[j] != ';') {
      if (code[j] == '(') {  // noexcept(...) etc.
        std::size_t pc = MatchParen(code, j);
        if (pc == std::string::npos) {
          break;
        }
        j = pc;
        continue;
      }
      ++j;
    }
    if (j >= code.size() || code[j] != '{') {
      continue;
    }
    std::size_t bclose = MatchBrace(code, j);
    if (bclose == std::string::npos) {
      continue;
    }
    return Range{j, bclose};
  }
  return std::nullopt;
}

std::vector<std::string> TreeFiles(const std::string& root) {
  std::vector<std::string> out;
  fs::path src = fs::path(root) / "src";
  std::error_code ec;
  for (fs::recursive_directory_iterator it(src, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file()) {
      continue;
    }
    std::string ext = it->path().extension().string();
    if (ext == ".cc" || ext == ".h") {
      out.push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace atmo::lint

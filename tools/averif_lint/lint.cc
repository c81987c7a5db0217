// Driver: builds the project model once, runs every rule pass, and owns the
// deterministic ordering contract (sort + dedupe) plus the report formats
// and baseline diffing.

#include "tools/averif_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>
#include <tuple>

#include "tools/averif_lint/callgraph.h"
#include "tools/averif_lint/rules.h"
#include "tools/averif_lint/source.h"

namespace atmo::lint {

std::vector<Finding> RunAllRules(const Options& options) {
  std::vector<Finding> findings;
  Project project = Project::Load(options.root);
  RuleDirtyLog(options, project, &findings);
  RuleLockstepIndex(options, &findings);
  RuleHotPathAlloc(options, project, &findings);
  RulePayloadCopy(options, project, &findings);
  RuleTraceStageCoverage(options, project, &findings);
  RuleLockDiscipline(options, project, &findings);
  RuleGrantLifetime(options, project, &findings);
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  // Two passes can land on the same site (e.g. a may-call edge reached from
  // two roots); identical findings collapse so reports and baselines stay
  // stable.
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return std::tie(a.file, a.line, a.rule, a.message) ==
                                      std::tie(b.file, b.line, b.rule, b.message);
                             }),
                 findings.end());
  return findings;
}

std::string ToJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "  {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": " << f.line
        << ", \"rule\": \"" << JsonEscape(f.rule) << "\", \"message\": \""
        << JsonEscape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]\n" : "\n]\n");
  return out.str();
}

std::string ToText(const std::vector<Finding>& findings, bool fix_suggestions) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
    if (fix_suggestions && !f.suggestion.empty()) {
      out << "    fix: " << f.suggestion << "\n";
    }
  }
  out << findings.size() << " finding" << (findings.size() == 1 ? "" : "s") << "\n";
  return out.str();
}

std::optional<std::vector<Finding>> ParseFindingsJson(const std::string& text) {
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
  };
  auto parse_string = [&](std::string* out) -> bool {
    if (i >= text.size() || text[i] != '"') {
      return false;
    }
    ++i;
    out->clear();
    while (i < text.size() && text[i] != '"') {
      char c = text[i];
      if (c == '\\' && i + 1 < text.size()) {
        ++i;
        char e = text[i];
        if (e == 'n') {
          *out += '\n';
        } else if (e == 't') {
          *out += '\t';
        } else if (e == 'u' && i + 4 < text.size()) {
          *out += static_cast<char>(
              std::strtol(text.substr(i + 1, 4).c_str(), nullptr, 16));
          i += 4;
        } else {
          *out += e;
        }
      } else {
        *out += c;
      }
      ++i;
    }
    if (i >= text.size()) {
      return false;
    }
    ++i;
    return true;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '[') {
    return std::nullopt;
  }
  ++i;
  std::vector<Finding> out;
  while (true) {
    skip_ws();
    if (i >= text.size()) {
      return std::nullopt;
    }
    if (text[i] == ']') {
      return out;
    }
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] != '{') {
      return std::nullopt;
    }
    ++i;
    Finding f;
    while (true) {
      skip_ws();
      if (i >= text.size()) {
        return std::nullopt;
      }
      if (text[i] == '}') {
        ++i;
        break;
      }
      if (text[i] == ',') {
        ++i;
        continue;
      }
      std::string key;
      if (!parse_string(&key)) {
        return std::nullopt;
      }
      skip_ws();
      if (i >= text.size() || text[i] != ':') {
        return std::nullopt;
      }
      ++i;
      skip_ws();
      if (i < text.size() && text[i] == '"') {
        std::string val;
        if (!parse_string(&val)) {
          return std::nullopt;
        }
        if (key == "file") {
          f.file = val;
        } else if (key == "rule") {
          f.rule = val;
        } else if (key == "message") {
          f.message = val;
        } else if (key == "suggestion") {
          f.suggestion = val;
        }
      } else {
        std::size_t e = i;
        while (e < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[e])) != 0) {
          ++e;
        }
        if (e == i) {
          return std::nullopt;
        }
        if (key == "line") {
          f.line = static_cast<std::size_t>(
              std::strtoull(text.substr(i, e - i).c_str(), nullptr, 10));
        }
        i = e;
      }
    }
    out.push_back(std::move(f));
  }
}

std::vector<Finding> SubtractBaseline(const std::vector<Finding>& findings,
                                      const std::vector<Finding>& baseline) {
  std::multiset<std::tuple<std::string, std::string, std::string>> known;
  for (const Finding& f : baseline) {
    known.insert({f.file, f.rule, f.message});
  }
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    auto it = known.find({f.file, f.rule, f.message});
    if (it != known.end()) {
      known.erase(it);
      continue;
    }
    out.push_back(f);
  }
  return out;
}

}  // namespace atmo::lint

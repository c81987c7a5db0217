// Spec-shape rule: error-path. A per-file check over src/spec/*.cc.

#include "tools/averif_lint/rules.h"

namespace atmo::lint {

void RuleErrorPath(const SourceFile& f, std::vector<Finding>* findings) {
  const std::string& code = f.code;
  for (std::size_t pos : FindIdent(code, "SpecResult")) {
    // Definition pattern: `SpecResult <name>(params) {` with a SyscallRet
    // parameter.
    std::size_t i = SkipWs(code, pos + 10);
    std::size_t id_begin = i;
    while (i < code.size() && IsIdentChar(code[i])) {
      ++i;
    }
    std::string name = code.substr(id_begin, i - id_begin);
    i = SkipWs(code, i);
    if (name.empty() || i >= code.size() || code[i] != '(') {
      continue;
    }
    std::size_t pclose = MatchParen(code, i);
    if (pclose == std::string::npos) {
      continue;
    }
    std::string params = code.substr(i, pclose - i);
    std::size_t open = SkipWs(code, pclose);
    if (open >= code.size() || code[open] != '{') {
      continue;  // declaration, not definition
    }
    std::size_t bclose = MatchBrace(code, open);
    if (bclose == std::string::npos) {
      continue;
    }
    if (params.find("SyscallRet") == std::string::npos) {
      continue;  // helpers and ret-less predicates are out of scope
    }
    std::string body = code.substr(open, bclose - open);
    std::size_t first_fail = body.find("Fail(");
    if (first_fail == std::string::npos) {
      continue;  // cannot reject — nothing to order
    }
    std::size_t atomicity = body.find("CheckFailureAtomicity");
    if (atomicity == std::string::npos || atomicity > first_fail) {
      AddFinding(findings, f, f.LineOf(id_begin), "error-path",
                 name + " can Fail(...) before establishing failure atomicity; error "
                 "returns must be proven to precede state mutation",
                 "start the predicate with `if (auto atomic = CheckFailureAtomicity(pre, "
                 "post, ret)) { return *atomic; }` or waive with `// averif-lint: "
                 "allow(error-path) — <why>`");
    }
  }
}

}  // namespace atmo::lint

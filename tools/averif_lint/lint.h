// averif-lint: static verification-discipline checker.
//
// The refinement harness only catches discipline drift at runtime, and only
// on traces that happen to hit it. This tool checks the pairing rules the
// codebase relies on *statically*, the way Verus's linear ghost types make
// spec/impl drift a compile error. Totality over SysOp is not among them:
// every per-op column is generated from one table (ATMO_SYSOPS in
// src/core/syscall.h), and -Werror=switch/-Werror=switch-enum make the two
// hand-written dispatchers fail to compile when they miss an op.
// Per-function rules (DESIGN.md §11):
//
//   dirty-log            every public mutating method of the logged
//                        subsystems records into its dirty log, directly or
//                        via a callee that does (call-graph transitive)
//   lockstep-index       every hashed index member has a Wf cross-check
//                        clause and a CloneForVerification rebuild
//   error-path           spec predicates taking the syscall return value
//                        establish failure atomicity before any Fail(...)
//
// Interprocedural rules over the project call graph (DESIGN.md §16):
//
//   hot-path-alloc       nothing reachable from an ATMO_HOT_PATH(
//                        hot-path-alloc) root may allocate outside an
//                        ArenaScope — the static twin of obs::AllocProbe
//   payload-copy         no memcpy/memmove/byte-loop copy is reachable from
//                        an ATMO_HOT_PATH(payload-copy) root — the static
//                        twin of obs::CopyProbe
//   lock-discipline      ATMO_GUARDED_BY fields are only touched under
//                        their mutex; ATMO_REQUIRES contracts are enforced
//                        at every call site across functions
//   grant-lifetime       recorded page borrows (`borrows_`) stay revocable:
//                        the kGrantReturn path and a teardown path must
//                        both reach a `borrows_.erase`
//
// The parser is deliberately AST-lite: comment/string stripping, brace
// matching and identifier scanning over the real source files — no LLVM
// dependency, runs in milliseconds, and the checked idioms are all
// grep-shaped by construction. A finding can be locally waived with
//   // averif-lint: allow(<rule>) — <justification>
// on the flagged line or up to four lines above it.

#ifndef ATMO_TOOLS_AVERIF_LINT_LINT_H_
#define ATMO_TOOLS_AVERIF_LINT_LINT_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace atmo::lint {

struct Finding {
  std::string file;  // repo-root-relative path
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::string suggestion;  // skeleton of the missing clause (may be empty)
};

struct Options {
  std::string root = ".";  // directory containing src/
  // When true, a rule whose input file is missing or unreadable reports a
  // finding instead of silently skipping. CI runs strict; fixture trees in
  // tests provide only the files a rule needs and run lenient.
  bool strict = false;
};

// Runs every rule over the tree at options.root. Findings are sorted by
// (file, line, rule, message) and deduplicated, so output is deterministic.
std::vector<Finding> RunAllRules(const Options& options);

// Machine-readable report: a JSON array of {file, line, rule, message}.
std::string ToJson(const std::vector<Finding>& findings);

// Human-readable report, one "file:line: [rule] message" per finding; with
// fix_suggestions, each finding is followed by its skeleton when available.
std::string ToText(const std::vector<Finding>& findings, bool fix_suggestions);

// Parses a findings JSON produced by ToJson (the only accepted shape).
// Returns nullopt when the text is not a findings array.
std::optional<std::vector<Finding>> ParseFindingsJson(const std::string& text);

// Baseline diff: drops findings whose (file, rule, message) triple appears
// in the baseline, so a checked-in findings file gates only *new* findings.
// Line numbers are ignored on purpose — unrelated edits move them.
std::vector<Finding> SubtractBaseline(const std::vector<Finding>& findings,
                                      const std::vector<Finding>& baseline);

}  // namespace atmo::lint

#endif  // ATMO_TOOLS_AVERIF_LINT_LINT_H_

// Internal interface between the lint driver and the rule passes. Each
// rules_*.cc file implements one family; the driver (lint.cc) owns pass
// ordering, sorting, and dedup.

#ifndef ATMO_TOOLS_AVERIF_LINT_RULES_H_
#define ATMO_TOOLS_AVERIF_LINT_RULES_H_

#include <map>
#include <string>
#include <vector>

#include "tools/averif_lint/callgraph.h"
#include "tools/averif_lint/lint.h"
#include "tools/averif_lint/source.h"

namespace atmo::lint {

// Appends a finding unless an `averif-lint: allow(<rule>)` comment covers
// the line.
void AddFinding(std::vector<Finding>* findings, const SourceFile& f, std::size_t line,
                const std::string& rule, std::string message, std::string suggestion);

// Strict mode turns a missing required input into a finding; lenient mode
// (fixture trees) silently skips the rule.
void MissingFile(std::vector<Finding>* findings, const Options& options,
                 const std::string& rel_path, const std::string& rule);

// ---------------------------------------------------------------------------
// Per-class method model (publicness/constness) used by dirty-log. The call
// graph knows bodies and edges; this adds the access-section metadata the
// mutator filter needs.
// ---------------------------------------------------------------------------

struct Method {
  std::string name;
  bool is_public = false;
  bool is_const = false;
  bool is_static = false;
  std::size_t decl_line = 0;
  std::string body;  // inline body if any
};

std::vector<Method> ParseMethods(const SourceFile& f, Range body, bool default_public);

// ---------------------------------------------------------------------------
// Rule configuration
// ---------------------------------------------------------------------------

struct Subsystem {
  std::string class_name;
  std::string header;
  std::string source;                       // may be empty
  std::vector<std::string> mark_tokens;     // substrings counting as a direct mark
  std::vector<std::string> allow_methods;   // infrastructure methods (drains etc.)
  std::vector<std::string> wf_methods;      // cross-check predicate names
  bool logged_by_caller = false;            // class-level dirty-log exemption
};

const std::vector<Subsystem>& Subsystems();

// ---------------------------------------------------------------------------
// Rule entry points
// ---------------------------------------------------------------------------

// Per-tree rules loading their own inputs.
void RuleLockstepIndex(const Options& options, std::vector<Finding>* findings);

// Call-graph rules.
void RuleDirtyLog(const Options& options, const Project& project,
                  std::vector<Finding>* findings);
void RuleHotPathAlloc(const Options& options, const Project& project,
                      std::vector<Finding>* findings);
void RulePayloadCopy(const Options& options, const Project& project,
                     std::vector<Finding>* findings);
void RuleTraceStageCoverage(const Options& options, const Project& project,
                            std::vector<Finding>* findings);
void RuleLockDiscipline(const Options& options, const Project& project,
                        std::vector<Finding>* findings);
void RuleGrantLifetime(const Options& options, const Project& project,
                       std::vector<Finding>* findings);

}  // namespace atmo::lint

#endif  // ATMO_TOOLS_AVERIF_LINT_RULES_H_

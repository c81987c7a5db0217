// averif_lint's own coverage: each seeded-violation fixture tree fires
// exactly the expected rule, the repaired (real) tree is clean under
// --strict, and the CLI exit codes match. Fixture trees mirror the real
// repo layout under tests/averif_lint_fixtures/<name>/src/... and contain
// only the files each rule needs (the library runs lenient on them, so
// absent files skip rules instead of failing).

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/syscall.h"
#include "src/obs/alloc_hook.h"
#include "src/obs/copy_probe.h"
#include "tools/averif_lint/callgraph.h"
#include "tools/averif_lint/lint.h"

namespace atmo::lint {
namespace {

std::string FixtureRoot(const std::string& name) {
  return std::string(AVERIF_LINT_FIXTURES) + "/" + name;
}

std::vector<Finding> Lint(const std::string& root, bool strict = false) {
  Options options;
  options.root = root;
  options.strict = strict;
  return RunAllRules(options);
}

std::vector<Finding> WithRule(const std::vector<Finding>& findings, const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) {
      out.push_back(f);
    }
  }
  return out;
}

int BinaryExit(const std::string& args) {
  std::string cmd = std::string(AVERIF_LINT_BIN) + " " + args + " > /dev/null 2>&1";
  int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---------------------------------------------------------------------------
// The repaired tree is clean — strict mode, every rule running for real.
// ---------------------------------------------------------------------------

TEST(AverifLintTest, RealTreeIsCleanUnderStrict) {
  std::vector<Finding> findings = Lint(AVERIF_LINT_REPO_ROOT, /*strict=*/true);
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] " << f.message;
  }
  EXPECT_EQ(BinaryExit(std::string("--root ") + AVERIF_LINT_REPO_ROOT + " --strict"), 0);
}

// ---------------------------------------------------------------------------
// Seeded violations: exact rule ids, non-zero CLI exit per fixture.
// ---------------------------------------------------------------------------

TEST(AverifLintTest, UnloggedMutatorFires) {
  std::vector<Finding> findings = Lint(FixtureRoot("unlogged_mutator"));
  std::vector<Finding> hits = WithRule(findings, "dirty-log");
  ASSERT_EQ(hits.size(), 1u) << ToText(findings, false);
  EXPECT_EQ(hits[0].file, "src/core/vm_manager.h");
  EXPECT_NE(hits[0].message.find("VmManager::Unmap"), std::string::npos);
  EXPECT_EQ(findings.size(), hits.size()) << ToText(findings, false);
  EXPECT_EQ(BinaryExit("--root " + FixtureRoot("unlogged_mutator")), 1);
}

// ---------------------------------------------------------------------------
// Interprocedural rules (call graph + ATMO_HOT_PATH roots).
// ---------------------------------------------------------------------------

TEST(AverifLintTest, HotPathAllocFires) {
  std::vector<Finding> findings = Lint(FixtureRoot("hot_path_alloc"));
  std::vector<Finding> hits = WithRule(findings, "hot-path-alloc");
  // Only the uncovered helpers fire: BuildScratch's push_back and
  // Snapshot's std::make_unique<T>(...); the ArenaScope-covered allocation
  // in Capture and the covered call site around AppendSpec must not.
  ASSERT_EQ(hits.size(), 2u) << ToText(findings, false);
  EXPECT_EQ(hits[0].file, "src/verif/refinement_checker.cc");
  EXPECT_NE(hits[0].message.find("RefinementChecker::BuildScratch"), std::string::npos);
  EXPECT_NE(hits[0].message.find("RefinementChecker::Step -> RefinementChecker::BuildScratch"),
            std::string::npos)
      << hits[0].message;
  EXPECT_NE(hits[1].message.find("(make_unique) in RefinementChecker::Snapshot"),
            std::string::npos)
      << hits[1].message;
  EXPECT_EQ(findings.size(), hits.size()) << ToText(findings, false);
  EXPECT_EQ(BinaryExit("--root " + FixtureRoot("hot_path_alloc")), 1);
}

// A member function of a class template, declared with a requires-clause,
// reached through a member that is an instance of the template.
TEST(AverifLintTest, HotPathAllocFollowsTemplateMemberThroughInstance) {
  std::vector<Finding> findings = Lint(FixtureRoot("hot_path_alloc_template"));
  std::vector<Finding> hits = WithRule(findings, "hot-path-alloc");
  ASSERT_EQ(hits.size(), 1u) << ToText(findings, false);
  EXPECT_EQ(hits[0].file, "src/vstd/permission_map.h");
  EXPECT_NE(hits[0].message.find(
                "ProcessManager::CloneForVerification -> PermissionMap::CloneForVerification"),
            std::string::npos)
      << hits[0].message;
  EXPECT_EQ(findings.size(), hits.size()) << ToText(findings, false);
}

TEST(AverifLintTest, PayloadCopyFiresOnMemcpyAndByteLoop) {
  std::vector<Finding> findings = Lint(FixtureRoot("payload_copy"));
  std::vector<Finding> hits = WithRule(findings, "payload-copy");
  ASSERT_EQ(hits.size(), 2u) << ToText(findings, false);
  bool saw_memcpy = false;
  bool saw_loop = false;
  for (const Finding& f : hits) {
    EXPECT_EQ(f.file, "src/apps/httpd.cc");
    EXPECT_NE(f.message.find("Httpd::HandleRequestSpliced -> Httpd::ServeFile"),
              std::string::npos)
        << f.message;
    saw_memcpy = saw_memcpy || f.message.find("(memcpy)") != std::string::npos;
    saw_loop = saw_loop || f.message.find("(byte-copy loop)") != std::string::npos;
  }
  EXPECT_TRUE(saw_memcpy) << ToText(findings, false);
  EXPECT_TRUE(saw_loop) << ToText(findings, false);
  EXPECT_EQ(findings.size(), hits.size()) << ToText(findings, false);
  EXPECT_EQ(BinaryExit("--root " + FixtureRoot("payload_copy")), 1);
}

TEST(AverifLintTest, TraceStageCoverageFiresOnlyOnUnstampedRoot) {
  std::vector<Finding> findings = Lint(FixtureRoot("trace_stage"));
  std::vector<Finding> hits = WithRule(findings, "trace-stage-coverage");
  // Only TxFlush fires: RxPeekBurst stamps its stage directly,
  // TxCommitDeferred reaches a stamp through StampTx, and RxReleaseBurst
  // carries a waiver comment.
  ASSERT_EQ(hits.size(), 1u) << ToText(findings, false);
  EXPECT_EQ(hits[0].file, "src/drivers/ixgbe_driver.cc");
  EXPECT_NE(hits[0].message.find("IxgbeDriver::TxFlush"), std::string::npos)
      << hits[0].message;
  EXPECT_EQ(findings.size(), hits.size()) << ToText(findings, false);
  EXPECT_EQ(BinaryExit("--root " + FixtureRoot("trace_stage")), 1);
}

TEST(AverifLintTest, LockDisciplineFiresDirectAndInterprocedural) {
  std::vector<Finding> findings = Lint(FixtureRoot("guarded_by_no_lock"));
  std::vector<Finding> hits = WithRule(findings, "lock-discipline");
  // Two seeded violations: the bare unlocked touch, and the REQUIRES callee
  // invoked by a caller that never takes the lock. The MutexLock-covered
  // mutator must not fire.
  ASSERT_EQ(hits.size(), 2u) << ToText(findings, false);
  bool direct = false;
  bool contract = false;
  for (const Finding& f : hits) {
    EXPECT_EQ(f.file, "src/sweep/sweep_progress.cc");
    direct = direct ||
             f.message.find("SweepProgress::BumpUnlocked touches it without acquiring") !=
                 std::string::npos;
    contract = contract ||
               f.message.find("SweepProgress::ReadRacy calls it without holding") !=
                   std::string::npos;
  }
  EXPECT_TRUE(direct) << ToText(findings, false);
  EXPECT_TRUE(contract) << ToText(findings, false);
  EXPECT_EQ(findings.size(), hits.size()) << ToText(findings, false);
  EXPECT_EQ(BinaryExit("--root " + FixtureRoot("guarded_by_no_lock")), 1);
}

TEST(AverifLintTest, GrantLeakOnReturnPathFires) {
  std::vector<Finding> findings = Lint(FixtureRoot("grant_leak"));
  std::vector<Finding> hits = WithRule(findings, "grant-lifetime");
  // Teardown (DestroyAddressSpace -> borrows_.clear) satisfies the teardown
  // obligation, so only the unreachable-from-kGrantReturn finding remains.
  ASSERT_EQ(hits.size(), 1u) << ToText(findings, false);
  EXPECT_EQ(hits[0].file, "src/core/kernel.cc");
  EXPECT_NE(hits[0].message.find("VmManager::BeginBorrow"), std::string::npos);
  EXPECT_NE(hits[0].message.find("kGrantReturn handling cannot reach a release site"),
            std::string::npos);
  EXPECT_EQ(findings.size(), hits.size()) << ToText(findings, false);
  EXPECT_EQ(BinaryExit("--root " + FixtureRoot("grant_leak")), 1);
}

// ---------------------------------------------------------------------------
// Call-graph reach of the syscall dispatchers. hot-path-alloc and
// grant-lifetime see a syscall handler only through a call written out in
// Kernel::Exec: the lint blanks preprocessor directives, so a dispatcher
// generated from a macro would lose these edges and narrow both rules
// without a finding (the lint has no unused-waiver check to notice).
// ---------------------------------------------------------------------------

bool HasCallEdge(const Project& project, int caller, int callee) {
  if (caller < 0 || callee < 0) {
    return false;
  }
  for (const CallSite& site : project.functions()[static_cast<std::size_t>(caller)].calls) {
    if (std::find(site.targets.begin(), site.targets.end(), callee) != site.targets.end()) {
      return true;
    }
  }
  return false;
}

TEST(AverifLintTest, SyscallDispatchReachesEveryHandler) {
  Project project = Project::Load(AVERIF_LINT_REPO_ROOT);
  int exec = project.Method("Kernel", "Exec");
  int exec_batch = project.Method("Kernel", "ExecBatch");
  ASSERT_GE(exec, 0);
  ASSERT_GE(exec_batch, 0);
  std::vector<std::string> handlers;
  for (int fn : project.MethodsOf("Kernel")) {
    const FunctionInfo& info = project.functions()[static_cast<std::size_t>(fn)];
    if (info.name.rfind("Sys", 0) == 0) {
      handlers.push_back(info.name);
      EXPECT_TRUE(HasCallEdge(project, exec, fn)) << "no edge Kernel::Exec -> " << info.Id();
    }
  }
  // Every op has its own Kernel::Sys* handler except kRingEnter, whose arm
  // is ExecBatch.
  EXPECT_EQ(handlers.size(), kSysOpCount - 1) << ::testing::PrintToString(handlers);
  EXPECT_TRUE(HasCallEdge(project, exec, exec_batch));
  EXPECT_TRUE(HasCallEdge(project, exec_batch, exec));
  EXPECT_TRUE(HasCallEdge(project, project.Method("RefinementChecker", "Step"), exec));
}

// ---------------------------------------------------------------------------
// Static/dynamic twin agreement: the same injected regression the fixtures
// seed statically is caught at runtime by the obs probes. hot-path-alloc is
// AllocProbe's twin, payload-copy is CopyProbe's.
// ---------------------------------------------------------------------------

TEST(AverifLintTest, HotPathAllocAgreesWithAllocProbe) {
  std::vector<Finding> hits =
      WithRule(Lint(FixtureRoot("hot_path_alloc")), "hot-path-alloc");
  // Static half: the injected push_back and make_unique are flagged.
  ASSERT_EQ(hits.size(), 2u);
  if (!obs::HeapCountingActive()) {
    GTEST_SKIP() << "ATMO_OBS_DISABLED build: no runtime twin to compare";
  }
  obs::AllocProbe probe;
  std::vector<int> scratch;
  scratch.push_back(42);  // dynamic half: the same injected allocations
  std::unique_ptr<std::vector<int>> snapshot = std::make_unique<std::vector<int>>(scratch);
  EXPECT_GE(probe.allocs(), 2u)
      << "AllocProbe missed the allocation the lint flagged statically";
}

TEST(AverifLintTest, PayloadCopyAgreesWithCopyProbe) {
  std::vector<Finding> hits = WithRule(Lint(FixtureRoot("payload_copy")), "payload-copy");
  ASSERT_EQ(hits.size(), 2u);  // static half: memcpy + byte loop flagged
  if (!obs::PayloadCountingActive()) {
    GTEST_SKIP() << "ATMO_OBS_DISABLED build: no runtime twin to compare";
  }
  obs::CopyProbe probe;
  unsigned char dst[64];
  unsigned char src[64] = {1};
  obs::CopyPayload(dst, src, sizeof(dst));  // dynamic half: the staged copy
  EXPECT_EQ(probe.copies(), 1u);
  EXPECT_EQ(probe.bytes(), sizeof(dst));
}

// ---------------------------------------------------------------------------
// Deterministic output and baseline diffing.
// ---------------------------------------------------------------------------

TEST(AverifLintTest, JsonOutputIsDeterministicSortedAndGolden) {
  std::vector<Finding> first = Lint(FixtureRoot("payload_copy"));
  std::vector<Finding> second = Lint(FixtureRoot("payload_copy"));
  EXPECT_EQ(ToJson(first), ToJson(second));
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_LE(std::tie(first[i - 1].file, first[i - 1].line, first[i - 1].rule),
              std::tie(first[i].file, first[i].line, first[i].rule));
  }
  const std::string golden =
      "[\n"
      "  {\"file\": \"src/apps/httpd.cc\", \"line\": 20, \"rule\": \"payload-copy\", "
      "\"message\": \"payload copy (memcpy) in Httpd::ServeFile is reachable from hot "
      "path: Httpd::HandleRequestSpliced -> Httpd::ServeFile\"},\n"
      "  {\"file\": \"src/apps/httpd.cc\", \"line\": 22, \"rule\": \"payload-copy\", "
      "\"message\": \"payload copy (byte-copy loop) in Httpd::ServeFile is reachable "
      "from hot path: Httpd::HandleRequestSpliced -> Httpd::ServeFile\"}\n"
      "]\n";
  EXPECT_EQ(ToJson(first), golden);
}

TEST(AverifLintTest, ParseFindingsJsonRoundTrips) {
  std::vector<Finding> findings = Lint(FixtureRoot("payload_copy"));
  ASSERT_FALSE(findings.empty());
  std::optional<std::vector<Finding>> parsed = ParseFindingsJson(ToJson(findings));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), findings.size());
  for (std::size_t i = 0; i < findings.size(); ++i) {
    EXPECT_EQ((*parsed)[i].file, findings[i].file);
    EXPECT_EQ((*parsed)[i].line, findings[i].line);
    EXPECT_EQ((*parsed)[i].rule, findings[i].rule);
    EXPECT_EQ((*parsed)[i].message, findings[i].message);
  }
  EXPECT_TRUE(ParseFindingsJson("[]\n").has_value());
  EXPECT_FALSE(ParseFindingsJson("not json").has_value());
  EXPECT_FALSE(ParseFindingsJson("{\"file\": \"x\"}").has_value());
}

TEST(AverifLintTest, BaselineSubtractionIgnoresLineDrift) {
  std::vector<Finding> findings = Lint(FixtureRoot("payload_copy"));
  ASSERT_EQ(findings.size(), 2u);
  // The full set as baseline leaves nothing.
  EXPECT_TRUE(SubtractBaseline(findings, findings).empty());
  // Line numbers drift when unrelated code is edited above a known finding;
  // the diff keys on (file, rule, message) so drift alone is not "new".
  std::vector<Finding> shifted = findings;
  for (Finding& f : shifted) {
    f.line += 7;
  }
  EXPECT_TRUE(SubtractBaseline(findings, shifted).empty());
  // A partial baseline leaves exactly the unbaselined finding.
  std::vector<Finding> one(1, findings[0]);
  std::vector<Finding> left = SubtractBaseline(findings, one);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].message, findings[1].message);
}

TEST(AverifLintTest, BaselineFlagGatesExitCode) {
  std::string root = FixtureRoot("payload_copy");
  std::vector<Finding> findings = Lint(root);
  ASSERT_FALSE(findings.empty());
  std::string path = ::testing::TempDir() + "averif_lint_baseline.json";
  {
    std::ofstream out(path);
    out << ToJson(findings);
  }
  EXPECT_EQ(BinaryExit("--root " + root), 1);
  EXPECT_EQ(BinaryExit("--root " + root + " --baseline " + path), 0);
  // An unreadable or malformed baseline is a usage error, not a clean run.
  EXPECT_EQ(BinaryExit("--root " + root + " --baseline /nonexistent/baseline.json"), 2);
}

// ---------------------------------------------------------------------------
// Report formats.
// ---------------------------------------------------------------------------

TEST(AverifLintTest, JsonReportIsMachineReadable) {
  std::vector<Finding> findings = Lint(FixtureRoot("unlogged_mutator"));
  std::string json = ToJson(findings);
  EXPECT_NE(json.find("\"rule\": \"dirty-log\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/core/vm_manager.h\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": "), std::string::npos);
  EXPECT_EQ(ToJson({}), "[]\n");
}

TEST(AverifLintTest, FixSuggestionsPrintSkeletons) {
  std::vector<Finding> findings = Lint(FixtureRoot("unlogged_mutator"));
  std::string text = ToText(findings, /*fix_suggestions=*/true);
  EXPECT_NE(text.find("fix: record the mutation (e.g. `dirty_.Mark...)`) or waive with "
                      "`// averif-lint: allow(dirty-log) — <why>`"),
            std::string::npos)
      << text;
  EXPECT_EQ(ToText(findings, /*fix_suggestions=*/false).find("fix:"), std::string::npos);
}

// Strict mode turns missing rule inputs into findings instead of silently
// skipping the rule — the CI guarantee that a renamed file cannot disable
// the checker.
TEST(AverifLintTest, StrictModeFlagsMissingInputs) {
  std::vector<Finding> lenient = Lint(FixtureRoot("unlogged_mutator"), /*strict=*/false);
  std::vector<Finding> strict = Lint(FixtureRoot("unlogged_mutator"), /*strict=*/true);
  EXPECT_EQ(lenient.size(), 1u);
  EXPECT_GT(strict.size(), lenient.size());
  bool missing_reported = false;
  for (const Finding& f : strict) {
    if (f.message.find("missing or unreadable") != std::string::npos) {
      missing_reported = true;
    }
  }
  EXPECT_TRUE(missing_reported);
}

}  // namespace
}  // namespace atmo::lint

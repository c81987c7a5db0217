// State-discipline rules: dirty-log (every public mutator records into the
// subsystem's dirty log on some path — transitive closure over the project
// call graph) and lockstep-index (derived indexes are cross-checked in Wf
// and rebuilt by the clone paths).

#include <algorithm>
#include <optional>
#include <set>

#include "tools/averif_lint/rules.h"

namespace atmo::lint {

void RuleDirtyLog(const Options& options, const Project& project,
                  std::vector<Finding>* findings) {
  for (const Subsystem& sub : Subsystems()) {
    if (sub.logged_by_caller) {
      continue;
    }
    SourceFile header = LoadFile(options.root, sub.header);
    if (!header.ok) {
      MissingFile(findings, options, sub.header, "dirty-log");
      continue;
    }
    std::optional<Range> body = ClassBody(header, sub.class_name);
    if (!body) {
      MissingFile(findings, options, sub.header, "dirty-log");
      continue;
    }
    std::vector<Method> methods = ParseMethods(header, *body, false);
    // Drop constructors (name == class name).
    methods.erase(std::remove_if(methods.begin(), methods.end(),
                                 [&](const Method& m) { return m.name == sub.class_name; }),
                  methods.end());
    if (!sub.source.empty()) {
      SourceFile source = LoadFile(options.root, sub.source);
      if (!source.ok) {
        MissingFile(findings, options, sub.source, "dirty-log");
      }
    }
    // Direct marks: the function body contains a mark token. The project
    // call graph already holds every definition (inline and out-of-line).
    std::vector<int> fns = project.MethodsOf(sub.class_name);
    std::set<int> in_class(fns.begin(), fns.end());
    std::set<int> marks;
    for (int fi : fns) {
      const FunctionInfo& fn = project.functions()[static_cast<std::size_t>(fi)];
      const SourceFile& f = project.file_of(fn);
      std::string text = f.code.substr(fn.body_begin, fn.body_end - fn.body_begin);
      for (const std::string& token : sub.mark_tokens) {
        if (text.find(token) != std::string::npos) {
          marks.insert(fi);
          break;
        }
      }
    }
    // Fixpoint over call edges restricted to this class: a method marks if
    // it reaches a marking method of the same class.
    bool changed = true;
    while (changed) {
      changed = false;
      for (int fi : fns) {
        if (marks.count(fi) != 0) {
          continue;
        }
        bool found = false;
        for (const CallSite& site :
             project.functions()[static_cast<std::size_t>(fi)].calls) {
          for (int target : site.targets) {
            if (in_class.count(target) != 0 && marks.count(target) != 0) {
              found = true;
              break;
            }
          }
          if (found) {
            break;
          }
        }
        if (found) {
          marks.insert(fi);
          changed = true;
        }
      }
    }
    std::set<std::string> mark_names;
    for (int fi : marks) {
      mark_names.insert(project.functions()[static_cast<std::size_t>(fi)].name);
    }
    for (const Method& m : methods) {
      if (!m.is_public || m.is_const || m.is_static) {
        continue;
      }
      if (std::find(sub.allow_methods.begin(), sub.allow_methods.end(), m.name) !=
          sub.allow_methods.end()) {
        continue;
      }
      if (mark_names.count(m.name) != 0) {
        continue;
      }
      AddFinding(findings, header, m.decl_line, "dirty-log",
                 sub.class_name + "::" + m.name +
                     " is a public mutating method with no dirty-log record on any path",
                 "record the mutation (e.g. `" +
                     (sub.mark_tokens.empty() ? std::string("dirty_.Mark(...)")
                                              : sub.mark_tokens.front() + "...)") +
                     "`) or waive with `// averif-lint: allow(dirty-log) — <why>`");
    }
  }
}

void RuleLockstepIndex(const Options& options, std::vector<Finding>* findings) {
  for (const Subsystem& sub : Subsystems()) {
    SourceFile header = LoadFile(options.root, sub.header);
    if (!header.ok) {
      MissingFile(findings, options, sub.header, "lockstep-index");
      continue;
    }
    std::optional<Range> body = ClassBody(header, sub.class_name);
    if (!body) {
      MissingFile(findings, options, sub.header, "lockstep-index");
      continue;
    }
    // Index members: declared members whose name ends in `_index_`.
    std::set<std::string> members;
    for (std::size_t i = body->begin; i < body->end; ++i) {
      if (!IsIdentChar(header.code[i]) || (i > 0 && IsIdentChar(header.code[i - 1]))) {
        continue;
      }
      std::size_t e = i;
      while (e < body->end && IsIdentChar(header.code[e])) {
        ++e;
      }
      std::string ident = header.code.substr(i, e - i);
      if (ident.size() > 7 && ident.compare(ident.size() - 7, 7, "_index_") == 0) {
        members.insert(ident);
      }
      i = e;
    }
    if (members.empty()) {
      continue;
    }
    SourceFile source = sub.source.empty() ? SourceFile{} : LoadFile(options.root, sub.source);
    auto search_all = [&](const std::string& func, const std::string& member) {
      // The predicate/rebuild may live inline in the header or in the .cc.
      for (const SourceFile* f : {&header, source.ok ? &source : nullptr}) {
        if (f == nullptr) {
          continue;
        }
        std::optional<Range> fb = FunctionBody(*f, func);
        if (fb && ContainsIdent(f->code, member, fb->begin, fb->end)) {
          return true;
        }
      }
      return false;
    };
    // Pooled refills rebuild the clone in place (DESIGN.md §14); an index
    // the refill forgets would leave the pooled clone verifying through
    // stale pointers, so wherever the Into variant exists it must rebuild
    // every index the fresh-clone path does. FindIdent matches whole
    // identifiers, so this is independent of the CloneForVerification check.
    bool has_into = false;
    for (const SourceFile* f : {&header, source.ok ? &source : nullptr}) {
      if (f != nullptr && FunctionBody(*f, "CloneForVerificationInto")) {
        has_into = true;
      }
    }
    for (const std::string& member : members) {
      std::size_t decl_line = 0;
      for (std::size_t pos : FindIdent(header.code, member, body->begin, body->end)) {
        decl_line = header.LineOf(pos);
        break;
      }
      bool wf_ok = false;
      for (const std::string& wf : sub.wf_methods) {
        if (search_all(wf, member)) {
          wf_ok = true;
          break;
        }
      }
      if (!wf_ok) {
        AddFinding(findings, header, decl_line, "lockstep-index",
                   sub.class_name + "::" + member +
                       " has no cross-check clause in " + sub.wf_methods.front() + "()",
                   "add a clause to " + sub.class_name + "::" + sub.wf_methods.front() +
                       " proving " + member + " mirrors its ground-truth container");
      }
      if (!search_all("CloneForVerification", member)) {
        AddFinding(findings, header, decl_line, "lockstep-index",
                   sub.class_name + "::" + member +
                       " is not rebuilt in CloneForVerification()",
                   "rebuild or copy " + member + " in " + sub.class_name +
                       "::CloneForVerification so clones verify the same state");
      }
      if (has_into && !search_all("CloneForVerificationInto", member)) {
        AddFinding(findings, header, decl_line, "lockstep-index",
                   sub.class_name + "::" + member +
                       " is not rebuilt in CloneForVerificationInto()",
                   "rebuild " + member + " against the reused nodes in " + sub.class_name +
                       "::CloneForVerificationInto so pooled refills verify the same state");
      }
    }
  }
}

}  // namespace atmo::lint

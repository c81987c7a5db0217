// State-discipline rule dirty-log: every public mutator records into the
// subsystem's dirty log on some path (transitive closure over the project
// call graph).

#include <algorithm>
#include <optional>
#include <set>

#include "tools/averif_lint/rules.h"

namespace atmo::lint {

void RuleDirtyLog(const Options& options, const Project& project,
                  std::vector<Finding>* findings) {
  for (const Subsystem& sub : Subsystems()) {
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

}  // namespace atmo::lint

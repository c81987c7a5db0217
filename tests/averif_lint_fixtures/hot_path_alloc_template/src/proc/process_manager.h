// A class holding an instance of the template as a member.

#ifndef FIXTURE_PROCESS_MANAGER_H_
#define FIXTURE_PROCESS_MANAGER_H_

#include "src/vstd/permission_map.h"

namespace atmo {

struct Container {
  int quota = 0;
};

class ProcessManager {
 public:
  ProcessManager CloneForVerification() const;

 private:
  PermissionMap<Container> cntr_perms_;
};

}  // namespace atmo

#endif  // FIXTURE_PROCESS_MANAGER_H_

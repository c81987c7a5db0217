// Must not compile: a switch over SysOp that misses kObsQuery behind a
// `default:` label. -Werror=switch-enum rejects it (tests/CMakeLists.txt).

#include "src/core/syscall.h"

namespace atmo {

int SysOpSwitchWithDefault(SysOp op) {
  switch (op) {
    case SysOp::kYield:
    case SysOp::kMmap:
    case SysOp::kMunmap:
    case SysOp::kNewContainer:
    case SysOp::kNewProcess:
    case SysOp::kNewThread:
    case SysOp::kNewEndpoint:
    case SysOp::kUnbindEndpoint:
    case SysOp::kSend:
    case SysOp::kRecv:
    case SysOp::kCall:
    case SysOp::kReply:
    case SysOp::kExit:
    case SysOp::kKillProcess:
    case SysOp::kKillContainer:
    case SysOp::kIommuCreateDomain:
    case SysOp::kIommuAttachDevice:
    case SysOp::kIommuDetachDevice:
    case SysOp::kIommuMapDma:
    case SysOp::kIommuUnmapDma:
    case SysOp::kRingSetup:
    case SysOp::kRingSubmit:
    case SysOp::kRingEnter:
    case SysOp::kGrantReturn:
      return 1;
    default:
      return 0;
  }
}

}  // namespace atmo

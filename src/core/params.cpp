#include "core/params.h"

#include "common/check.h"

namespace fastpso::core {

const char* to_string(UpdateTechnique technique) {
  switch (technique) {
    case UpdateTechnique::kGlobalMemory:
      return "global-mem";
    case UpdateTechnique::kSharedMemory:
      return "shared-mem";
    case UpdateTechnique::kTensorCore:
      return "tensorcore";
  }
  FASTPSO_UNREACHABLE("unknown update technique");
}

const char* to_string(Topology topology) {
  switch (topology) {
    case Topology::kGlobal:
      return "global";
    case Topology::kRing:
      return "ring";
  }
  FASTPSO_UNREACHABLE("unknown topology");
}

const char* to_string(Synchronization synchronization) {
  switch (synchronization) {
    case Synchronization::kSynchronous:
      return "sync";
    case Synchronization::kAsynchronous:
      return "async";
  }
  FASTPSO_UNREACHABLE("unknown synchronization");
}

void PsoParams::validate() const {
  FASTPSO_CHECK_MSG(particles > 0, "need at least one particle");
  FASTPSO_CHECK_MSG(dim > 0, "dimension must be positive");
  FASTPSO_CHECK_MSG(max_iter > 0, "need at least one iteration");
  if (topology == Topology::kRing) {
    FASTPSO_CHECK_MSG(technique == UpdateTechnique::kGlobalMemory,
                      "ring topology requires the global-memory technique");
    FASTPSO_CHECK_MSG(
        ring_neighbors >= 1 && 2 * ring_neighbors + 1 <= particles,
        "invalid ring neighborhood");
  }
}

}  // namespace fastpso::core

#include "rs/simulator/autoscaler.hpp"

#include <string>

namespace rs::sim {

// Out of line, so a strategy that keeps these defaults does not emit their
// bodies into the translation unit of its planning code.

Status Autoscaler::SerializeModel(persist::Writer* /*writer*/) const {
  return Status::NotImplemented(
      std::string("strategy '") + name() +
      "' does not implement model serialization; it cannot be included in "
      "a durable serving snapshot");
}

Status Autoscaler::DeserializeModel(persist::Reader* /*reader*/) {
  return Status::NotImplemented(
      std::string("strategy '") + name() +
      "' does not implement model deserialization; snapshots containing "
      "it cannot be restored");
}

}  // namespace rs::sim

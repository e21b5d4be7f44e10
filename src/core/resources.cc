#include "src/core/resources.h"

#include <algorithm>
#include <charconv>
#include <system_error>

#include "src/base/strings.h"

namespace parallax {

ResourceSpec ResourceSpec::Homogeneous(int num_machines, int gpus_per_machine) {
  ResourceSpec spec;
  for (int m = 0; m < num_machines; ++m) {
    MachineInfo machine;
    machine.hostname = StrFormat("machine-%d", m);
    for (int g = 0; g < gpus_per_machine; ++g) {
      machine.gpu_ids.push_back(g);
    }
    spec.machines.push_back(std::move(machine));
  }
  return spec;
}

int ResourceSpec::total_gpus() const {
  int total = 0;
  for (const MachineInfo& machine : machines) {
    total += static_cast<int>(machine.gpu_ids.size());
  }
  return total;
}

bool ResourceSpec::IsHomogeneous() const {
  if (machines.empty()) {
    return false;
  }
  size_t first = machines.front().gpu_ids.size();
  for (const MachineInfo& machine : machines) {
    if (machine.gpu_ids.size() != first) {
      return false;
    }
  }
  return true;
}

ClusterSpec ResourceSpec::ToClusterSpec(const ClusterSpec& base) const {
  PX_CHECK(IsHomogeneous()) << "heterogeneous GPU counts per machine are unsupported";
  ClusterSpec spec = base;
  spec.num_machines = num_machines();
  spec.gpus_per_machine = static_cast<int>(machines.front().gpu_ids.size());
  // A rack layout the machine count cannot fill collapses to the flat fabric instead
  // of tripping the Topology invariant — the base spec's racks describe the hardware
  // template, not necessarily this job's machine subset.
  if (spec.topology.num_racks > 1 &&
      spec.num_machines % spec.topology.num_racks != 0) {
    spec.topology.num_racks = 1;
  }
  return spec;
}

StatusOr<ResourceSpec> ParseResourceSpec(const std::string& text) {
  ResourceSpec spec;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(';', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string entry = text.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      continue;
    }
    size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("machine entry missing ':' — " + entry);
    }
    MachineInfo machine;
    machine.hostname = entry.substr(0, colon);
    if (machine.hostname.empty()) {
      return Status::InvalidArgument("empty hostname in resource spec");
    }
    std::string ids = entry.substr(colon + 1);
    size_t id_pos = 0;
    while (id_pos < ids.size()) {
      size_t comma = ids.find(',', id_pos);
      if (comma == std::string::npos) {
        comma = ids.size();
      }
      std::string id_text = ids.substr(id_pos, comma - id_pos);
      id_pos = comma + 1;
      if (id_text.empty()) {
        return Status::InvalidArgument("empty GPU id in resource spec");
      }
      for (char c : id_text) {
        if (c < '0' || c > '9') {
          return Status::InvalidArgument("malformed GPU id: " + id_text);
        }
      }
      int id = 0;
      const char* last = id_text.data() + id_text.size();
      if (std::from_chars(id_text.data(), last, id).ec != std::errc()) {
        return Status::InvalidArgument("GPU id out of range: " + id_text);
      }
      if (std::find(machine.gpu_ids.begin(), machine.gpu_ids.end(), id) !=
          machine.gpu_ids.end()) {
        return Status::InvalidArgument("GPU id " + id_text + " repeated on " +
                                       machine.hostname);
      }
      machine.gpu_ids.push_back(id);
    }
    if (machine.gpu_ids.empty()) {
      return Status::InvalidArgument("machine with no GPUs: " + machine.hostname);
    }
    for (const MachineInfo& other : spec.machines) {
      if (other.hostname == machine.hostname) {
        return Status::InvalidArgument("machine listed twice: " + machine.hostname);
      }
    }
    spec.machines.push_back(std::move(machine));
  }
  if (spec.machines.empty()) {
    return Status::InvalidArgument("resource spec names no machines");
  }
  return spec;
}

}  // namespace parallax

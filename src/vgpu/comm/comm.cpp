#include "vgpu/comm/comm.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace fastpso::vgpu::comm {

const char* to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::kMin:
      return "min";
    case ReduceOp::kMax:
      return "max";
    case ReduceOp::kSum:
      return "sum";
  }
  return "unknown";
}

double CollectiveCostSpec::seconds(const GpuSpec& spec) const {
  FASTPSO_CHECK(spec.link_bw_gbps > 0 && spec.link_latency_us >= 0);
  const double bw = spec.link_bw_gbps * 1e9;  // GB/s, decimal
  return wire_bytes / bw + latency_hops * spec.link_latency_us * 1e-6;
}

CollectiveCostSpec allreduce_cost(int devices, double payload_bytes) {
  FASTPSO_CHECK(devices >= 1 && payload_bytes >= 0);
  CollectiveCostSpec cost;
  cost.devices = devices;
  cost.payload_bytes = payload_bytes;
  if (devices > 1) {
    const double n = devices;
    cost.wire_bytes = 2.0 * (n - 1.0) / n * payload_bytes;
    cost.latency_hops = 2 * (devices - 1);
  }
  return cost;
}

CollectiveCostSpec broadcast_cost(int devices, double payload_bytes) {
  FASTPSO_CHECK(devices >= 1 && payload_bytes >= 0);
  CollectiveCostSpec cost;
  cost.devices = devices;
  cost.payload_bytes = payload_bytes;
  if (devices > 1) {
    cost.wire_bytes = payload_bytes;
    cost.latency_hops = devices - 1;
  }
  return cost;
}

CollectiveCostSpec allgather_cost(int devices, double payload_bytes) {
  FASTPSO_CHECK(devices >= 1 && payload_bytes >= 0);
  CollectiveCostSpec cost;
  cost.devices = devices;
  cost.payload_bytes = payload_bytes;
  if (devices > 1) {
    cost.wire_bytes = (devices - 1.0) * payload_bytes;
    cost.latency_hops = devices - 1;
  }
  return cost;
}

DeviceGroup::DeviceGroup(int devices, GpuSpec spec) : spec_(std::move(spec)) {
  FASTPSO_CHECK_MSG(devices >= 1, "DeviceGroup needs at least one device");
  devices_.reserve(static_cast<std::size_t>(devices));
  for (int i = 0; i < devices; ++i) {
    devices_.push_back(std::make_unique<Device>(spec_));
  }
}

std::size_t DeviceGroup::checked(int i) const {
  FASTPSO_CHECK_MSG(i >= 0 && i < size(), "device index out of range");
  return static_cast<std::size_t>(i);
}

Communicator::Communicator(DeviceGroup& group) : group_(group) {
  comm_stream_.reserve(static_cast<std::size_t>(group_.size()));
  comm_seconds_.assign(static_cast<std::size_t>(group_.size()), 0.0);
  for (int i = 0; i < group_.size(); ++i) {
    comm_stream_.push_back(group_.device(i).create_stream());
  }
}

Device::StreamId Communicator::comm_stream(int i) const {
  FASTPSO_CHECK_MSG(i >= 0 && i < group_.size(), "device index out of range");
  return comm_stream_[static_cast<std::size_t>(i)];
}

void Communicator::account(const char* label, const CollectiveCostSpec& cost) {
  const int n = group_.size();
  FASTPSO_CHECK(cost.devices == n);
  if (n == 1) {
    return;  // intra-device "collective": free, invisible
  }
  // Group-wide ready time: a rank can neither send nor receive before every
  // participant's issued work (any stream, including in-flight collectives
  // on the comm streams) has finished.
  double start = 0;
  for (int i = 0; i < n; ++i) {
    start = std::max(start, group_.device(i).modeled_seconds());
  }
  const double seconds = cost.seconds(group_.spec());
  for (int i = 0; i < n; ++i) {
    Device& dev = group_.device(i);
    const Device::StreamId prev_stream = dev.stream();
    const PhaseId prev_phase = dev.phase_id();
    dev.stream_wait(comm_stream_[static_cast<std::size_t>(i)], start);
    dev.set_stream(comm_stream_[static_cast<std::size_t>(i)]);
    dev.set_phase("comm");
    dev.account_comm(label, cost.wire_bytes, seconds);
    dev.set_phase(prev_phase);
    dev.set_stream(prev_stream);
    comm_seconds_[static_cast<std::size_t>(i)] += seconds;
  }
  CollectiveRecord record;
  record.label = label;
  record.cost = cost;
  record.start_seconds = start;
  record.seconds = seconds;
  records_.push_back(std::move(record));
}

void Communicator::allreduce(ReduceOp op, const std::vector<float*>& buffers,
                             int width) {
  const int n = group_.size();
  FASTPSO_CHECK_MSG(static_cast<int>(buffers.size()) == n,
                    "allreduce needs one buffer per rank");
  FASTPSO_CHECK(width >= 0);
  // Data plane: canonical rank-order reduction, written back to every rank.
  for (int e = 0; e < width; ++e) {
    float acc = buffers[0][e];
    for (int r = 1; r < n; ++r) {
      const float v = buffers[static_cast<std::size_t>(r)][e];
      switch (op) {
        case ReduceOp::kMin:
          acc = v < acc ? v : acc;
          break;
        case ReduceOp::kMax:
          acc = v > acc ? v : acc;
          break;
        case ReduceOp::kSum:
          acc += v;
          break;
      }
    }
    for (int r = 0; r < n; ++r) {
      buffers[static_cast<std::size_t>(r)][e] = acc;
    }
  }
  switch (op) {
    case ReduceOp::kMin:
      account("allreduce_min", allreduce_cost(n, width * 4.0));
      break;
    case ReduceOp::kMax:
      account("allreduce_max", allreduce_cost(n, width * 4.0));
      break;
    case ReduceOp::kSum:
      account("allreduce_sum", allreduce_cost(n, width * 4.0));
      break;
  }
}

int Communicator::allreduce_minloc(const std::vector<float>& values) {
  const int n = group_.size();
  FASTPSO_CHECK_MSG(static_cast<int>(values.size()) == n,
                    "allreduce_minloc needs one value per rank");
  // Data plane: strict < in rank order, so ties go to the lowest rank —
  // the same tie-break reduce_argmin uses within a device.
  int winner = 0;
  for (int r = 1; r < n; ++r) {
    if (values[static_cast<std::size_t>(r)] <
        values[static_cast<std::size_t>(winner)]) {
      winner = r;
    }
  }
  account("allreduce_minloc", allreduce_cost(n, 8.0));  // (value, rank) pair
  return winner;
}

void Communicator::broadcast(int root, const std::vector<float*>& buffers,
                             int width) {
  const int n = group_.size();
  FASTPSO_CHECK_MSG(static_cast<int>(buffers.size()) == n,
                    "broadcast needs one buffer per rank");
  FASTPSO_CHECK(root >= 0 && root < n && width >= 0);
  for (int r = 0; r < n; ++r) {
    if (r != root && width > 0) {
      std::memcpy(buffers[static_cast<std::size_t>(r)],
                  buffers[static_cast<std::size_t>(root)],
                  static_cast<std::size_t>(width) * sizeof(float));
    }
  }
  account("broadcast", broadcast_cost(n, width * 4.0));
}

void Communicator::allgather(const std::vector<const float*>& send,
                             const std::vector<float*>& recv, int width) {
  const int n = group_.size();
  FASTPSO_CHECK_MSG(static_cast<int>(send.size()) == n &&
                        static_cast<int>(recv.size()) == n,
                    "allgather needs one send and one recv buffer per rank");
  FASTPSO_CHECK(width >= 0);
  for (int r = 0; r < n; ++r) {
    for (int src = 0; src < n; ++src) {
      if (width > 0) {
        std::memcpy(recv[static_cast<std::size_t>(r)] +
                        static_cast<std::ptrdiff_t>(src) * width,
                    send[static_cast<std::size_t>(src)],
                    static_cast<std::size_t>(width) * sizeof(float));
      }
    }
  }
  account("allgather", allgather_cost(n, width * 4.0));
}

double Communicator::comm_seconds(int i) const {
  FASTPSO_CHECK_MSG(i >= 0 && i < group_.size(), "device index out of range");
  return comm_seconds_[static_cast<std::size_t>(i)];
}

double Communicator::total_seconds() const {
  double s = 0;
  for (const CollectiveRecord& r : records_) {
    s += r.seconds;
  }
  return s;
}

}  // namespace fastpso::vgpu::comm

#include "rs/baselines/backup_pool.hpp"

#include <string>

#include "rs/persist/fields.hpp"

namespace rs::baseline {

namespace {
constexpr std::uint32_t kModelVersion = 1;
}  // namespace

/// The BPMD record.
template <class Io, class Rec>
Status PoolModelFields(Io& io, Rec& pool) {
  io.Section("backup pool model", persist::kTagBackupPoolModel, [&] {
    io.Version("BP model record", kModelVersion);
    io("pool_size", pool.pool_size_);
  });
  return io.status();
}

sim::ScalingAction BackupPool::Initialize(const sim::SimContext& ctx) {
  sim::ScalingAction action;
  action.creation_times.assign(pool_size_, ctx.now);
  return action;
}

sim::ScalingAction BackupPool::OnQueryArrival(const sim::SimContext& ctx,
                                              bool cold_start) {
  sim::ScalingAction action;
  // A pool instance was consumed: replenish. A cold start means the pool
  // was empty (B = 0 or transiently drained) — the reactively-created
  // instance already replaces the pool slot that never existed, so only
  // top up to the target size.
  const std::size_t outstanding = ctx.Outstanding();
  if (outstanding < pool_size_) {
    action.creation_times.assign(pool_size_ - outstanding, ctx.now);
  }
  (void)cold_start;
  return action;
}

Status BackupPool::SerializeModel(persist::Writer* writer) const {
  persist::Encoder io(writer);
  return PoolModelFields(io, *this);
}

Status BackupPool::DeserializeModel(persist::Reader* reader) {
  BackupPool snapshot(0);
  persist::Decoder io(reader);
  RS_RETURN_NOT_OK(PoolModelFields(io, snapshot));
  if (snapshot.pool_size_ != pool_size_) {
    return Status::Invalid(
        "BP snapshot/spec mismatch: snapshot was taken with pool_size=" +
        std::to_string(snapshot.pool_size_) +
        " but the spec rebuilt pool_size=" + std::to_string(pool_size_));
  }
  return Status::OK();
}

Status BackupPool::DescribeModel(persist::Printer* printer) {
  BackupPool scratch(0);
  return PoolModelFields(*printer, scratch);
}

}  // namespace rs::baseline

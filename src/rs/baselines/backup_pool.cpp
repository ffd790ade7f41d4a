#include "rs/baselines/backup_pool.hpp"

#include <string>

#include "rs/persist/persist.hpp"

namespace rs::baseline {

namespace {
constexpr std::uint32_t kModelVersion = 1;
}  // namespace

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
  writer->BeginSection(persist::kTagBackupPoolModel);
  writer->WriteU32(kModelVersion);
  writer->WriteU64(pool_size_);
  writer->EndSection();
  return Status::OK();
}

Status BackupPool::DeserializeModel(persist::Reader* reader) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagBackupPoolModel));
  RS_RETURN_NOT_OK(reader->ReadLayerVersion("BP model record", kModelVersion));
  RS_ASSIGN_OR_RETURN(const std::uint64_t pool_size, reader->ReadU64());
  if (pool_size != pool_size_) {
    return Status::Invalid(
        "BP snapshot/spec mismatch: snapshot was taken with pool_size=" +
        std::to_string(pool_size) + " but the spec rebuilt pool_size=" +
        std::to_string(pool_size_));
  }
  return reader->ExitSection();
}

}  // namespace rs::baseline

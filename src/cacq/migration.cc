#include "cacq/migration.h"

#include <algorithm>

#include "cacq/engine.h"
#include "common/logging.h"

namespace tcq {

BucketState CacqEngine::ExtractBucketState(
    size_t bucket, const std::function<bool(const Value&)>& in_bucket) {
  BucketState state;
  state.bucket = bucket;
  for (auto& [key, stem] : stems_) {
    BucketState::StemState ss;
    ss.target_source = key.target_source;
    ss.stored_key = key.stored_key;
    ss.entries = stem->ExtractIf(in_bucket);
    for (const SteM::ExtractedEntry& e : ss.entries) {
      state.max_seq = std::max(state.max_seq, e.tuple.seq());
    }
    if (!ss.entries.empty()) state.stems.push_back(std::move(ss));
  }
  return state;
}

Status CacqEngine::InstallBucketState(const BucketState& state) {
  // Resolve every target SteM before touching any, so a mismatch cannot
  // leave the bucket half-installed.
  std::vector<SteM*> targets;
  targets.reserve(state.stems.size());
  for (const BucketState::StemState& ss : state.stems) {
    auto it = stems_.find(JoinKey{ss.target_source, ss.stored_key});
    if (it == stems_.end()) {
      return Status::FailedPrecondition(
          "InstallBucketState: no SteM for (source=" +
          std::to_string(ss.target_source) +
          ", key=" + std::to_string(ss.stored_key) +
          ") — donor and recipient engines differ");
    }
    targets.push_back(it->second.get());
  }
  for (size_t i = 0; i < state.stems.size(); ++i) {
    for (const SteM::ExtractedEntry& e : state.stems[i].entries) {
      targets[i]->Install(e);
    }
  }
  // Future arrivals must outrank installed entries in the arrival-order
  // join dedup, or their matches against this state would be dropped.
  eddy_->EnsureSeqAtLeast(state.max_seq);
  return Status::OK();
}

EngineCheckpoint CacqEngine::CheckpointState() const {
  EngineCheckpoint ckpt;
  for (const auto& [key, stem] : stems_) {
    BucketState::StemState ss;
    ss.target_source = key.target_source;
    ss.stored_key = key.stored_key;
    ss.entries = stem->CopyAll();
    if (!ss.entries.empty()) ckpt.stems.push_back(std::move(ss));
  }
  ckpt.next_seq = eddy_->next_seq();
  return ckpt;
}

Status CacqEngine::RestoreCheckpoint(const EngineCheckpoint& ckpt) {
  if (!ckpt.complete) {
    return Status::Internal(
        "RestoreCheckpoint: torn checkpoint (incomplete snapshot) — "
        "recover from the previous snapshot plus the full changelog");
  }
  // Same resolve-before-touch discipline as InstallBucketState: a replica
  // whose streams/queries diverged from the primary must fail whole.
  std::vector<SteM*> targets;
  targets.reserve(ckpt.stems.size());
  for (const BucketState::StemState& ss : ckpt.stems) {
    auto it = stems_.find(JoinKey{ss.target_source, ss.stored_key});
    if (it == stems_.end()) {
      return Status::FailedPrecondition(
          "RestoreCheckpoint: no SteM for (source=" +
          std::to_string(ss.target_source) +
          ", key=" + std::to_string(ss.stored_key) +
          ") — primary and replica engines differ");
    }
    targets.push_back(it->second.get());
  }
  // Replace, don't merge: the checkpoint IS the replica's state. Stems the
  // checkpoint doesn't mention were empty on the primary.
  for (auto& [key, stem] : stems_) stem->ClearAll();
  for (size_t i = 0; i < ckpt.stems.size(); ++i) {
    for (const SteM::ExtractedEntry& e : ckpt.stems[i].entries) {
      targets[i]->Install(e);
    }
  }
  eddy_->EnsureSeqAtLeast(ckpt.next_seq - 1);
  return Status::OK();
}

}  // namespace tcq

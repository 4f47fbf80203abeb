#ifndef QUASAQ_METADATA_METADATA_STORE_H_
#define QUASAQ_METADATA_METADATA_STORE_H_

#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "media/video.h"

// The system's one metadata catalog, holding the metadata classes of
// §3.3 the planner reads: content metadata (VideoContent), quality
// metadata (the AppQos inside each ReplicaInfo) and distribution
// metadata (the logical->physical mapping with sites). The paper's QoS
// profiles are not stored: the planner prices each plan analytically
// (core::FinalizePlan).
//
// Thread-safety: the const reads may run concurrently from many
// threads; the writes (Insert*/EraseReplica) must never overlap them.
// Writes happen at system set-up and in replication events on the
// simulator thread (docs/ARCHITECTURE.md "Threading model").

namespace quasaq::meta {

class MetadataStore {
 public:
  /// Registers a logical object. Fails on duplicate logical OID.
  Status InsertContent(const media::VideoContent& content);

  /// Registers one replica (distribution + quality metadata). The
  /// logical object must already be registered.
  Status InsertReplica(const media::ReplicaInfo& replica);

  /// Drops a replica's distribution metadata (e.g. after eviction).
  Status EraseReplica(PhysicalOid id);

  const media::VideoContent* FindContent(LogicalOid id) const;
  const media::ReplicaInfo* FindReplica(PhysicalOid id) const;

  /// Returns all replicas of `content`, in physical-OID order.
  std::vector<const media::ReplicaInfo*> ReplicasOf(LogicalOid content) const;

  /// Returns all registered logical objects, in logical-OID order.
  std::vector<const media::VideoContent*> AllContents() const;

  size_t content_count() const { return contents_.size(); }
  size_t replica_count() const { return replicas_.size(); }

 private:
  std::unordered_map<LogicalOid, media::VideoContent> contents_;
  std::unordered_map<PhysicalOid, media::ReplicaInfo> replicas_;
  std::unordered_map<LogicalOid, std::vector<PhysicalOid>> replica_index_;
};

}  // namespace quasaq::meta

#endif  // QUASAQ_METADATA_METADATA_STORE_H_

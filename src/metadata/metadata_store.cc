#include "metadata/metadata_store.h"

#include <algorithm>

namespace quasaq::meta {

Status MetadataStore::InsertContent(const media::VideoContent& content) {
  if (!content.id.valid()) {
    return Status::InvalidArgument("invalid logical OID");
  }
  auto [it, inserted] = contents_.emplace(content.id, content);
  if (!inserted) return Status::AlreadyExists("logical OID already present");
  return Status::Ok();
}

Status MetadataStore::InsertReplica(const media::ReplicaInfo& replica) {
  if (!replica.id.valid()) {
    return Status::InvalidArgument("invalid physical OID");
  }
  if (contents_.count(replica.content) == 0) {
    return Status::FailedPrecondition("logical object not registered");
  }
  auto [it, inserted] = replicas_.emplace(replica.id, replica);
  if (!inserted) return Status::AlreadyExists("physical OID already present");
  // Kept in physical-OID order, the order ReplicasOf returns.
  std::vector<PhysicalOid>& index = replica_index_[replica.content];
  index.insert(std::upper_bound(index.begin(), index.end(), replica.id),
               replica.id);
  return Status::Ok();
}

Status MetadataStore::EraseReplica(PhysicalOid id) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) return Status::NotFound("no such replica");
  auto& index = replica_index_[it->second.content];
  index.erase(std::remove(index.begin(), index.end(), id), index.end());
  replicas_.erase(it);
  return Status::Ok();
}

const media::VideoContent* MetadataStore::FindContent(LogicalOid id) const {
  auto it = contents_.find(id);
  return it == contents_.end() ? nullptr : &it->second;
}

const media::ReplicaInfo* MetadataStore::FindReplica(PhysicalOid id) const {
  auto it = replicas_.find(id);
  return it == replicas_.end() ? nullptr : &it->second;
}

std::vector<const media::ReplicaInfo*> MetadataStore::ReplicasOf(
    LogicalOid content) const {
  std::vector<const media::ReplicaInfo*> out;
  auto it = replica_index_.find(content);
  if (it == replica_index_.end()) return out;
  out.reserve(it->second.size());
  for (PhysicalOid id : it->second) out.push_back(&replicas_.at(id));
  return out;
}

std::vector<const media::VideoContent*> MetadataStore::AllContents() const {
  std::vector<const media::VideoContent*> out;
  out.reserve(contents_.size());
  for (const auto& [id, content] : contents_) out.push_back(&content);
  std::sort(out.begin(), out.end(),
            [](const media::VideoContent* a, const media::VideoContent* b) {
              return a->id < b->id;
            });
  return out;
}

}  // namespace quasaq::meta

#include "storage/object_store.h"

#include <gtest/gtest.h>

#include "media/library.h"

namespace quasaq::storage {
namespace {

media::ReplicaInfo MakeReplica(int64_t oid, int64_t site, double size_kb) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(oid);
  replica.content = LogicalOid(oid / 10);
  replica.site = SiteId(site);
  replica.qos = media::QualityLadder::Standard().levels[1];
  replica.duration_seconds = 60.0;
  replica.bitrate_kbps = size_kb / 60.0;
  replica.size_kb = size_kb;
  return replica;
}

TEST(ObjectStoreTest, PutAndGet) {
  ObjectStore store(SiteId(0));
  ASSERT_TRUE(store.Put(MakeReplica(1, 0, 100.0)).ok());
  const media::ReplicaInfo* replica = store.Get(PhysicalOid(1));
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->id, PhysicalOid(1));
  EXPECT_TRUE(store.Contains(PhysicalOid(1)));
  EXPECT_EQ(store.object_count(), 1u);
  EXPECT_DOUBLE_EQ(store.used_kb(), 100.0);
}

TEST(ObjectStoreTest, RejectsWrongSite) {
  ObjectStore store(SiteId(0));
  Status status = store.Put(MakeReplica(1, 1, 100.0));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.object_count(), 0u);
}

TEST(ObjectStoreTest, RejectsDuplicateOid) {
  ObjectStore store(SiteId(0));
  ASSERT_TRUE(store.Put(MakeReplica(1, 0, 100.0)).ok());
  EXPECT_EQ(store.Put(MakeReplica(1, 0, 50.0)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_DOUBLE_EQ(store.used_kb(), 100.0);
}

TEST(ObjectStoreTest, EnforcesCapacity) {
  ObjectStore store(SiteId(0), 150.0);
  ASSERT_TRUE(store.Put(MakeReplica(1, 0, 100.0)).ok());
  EXPECT_EQ(store.Put(MakeReplica(2, 0, 100.0)).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(store.Put(MakeReplica(3, 0, 50.0)).ok());
  EXPECT_DOUBLE_EQ(store.used_kb(), 150.0);
}

TEST(ObjectStoreTest, UnlimitedCapacityWhenZero) {
  ObjectStore store(SiteId(0), 0.0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Put(MakeReplica(i, 0, 1e9)).ok());
  }
}

TEST(ObjectStoreTest, DeleteReclaimsSpace) {
  ObjectStore store(SiteId(0), 150.0);
  ASSERT_TRUE(store.Put(MakeReplica(1, 0, 100.0)).ok());
  ASSERT_TRUE(store.Delete(PhysicalOid(1)).ok());
  EXPECT_DOUBLE_EQ(store.used_kb(), 0.0);
  EXPECT_FALSE(store.Contains(PhysicalOid(1)));
  ASSERT_TRUE(store.Put(MakeReplica(2, 0, 120.0)).ok());
}

TEST(ObjectStoreTest, DeleteUnknownFails) {
  ObjectStore store(SiteId(0));
  EXPECT_EQ(store.Delete(PhysicalOid(7)).code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, ReplicasOfFiltersByContent) {
  ObjectStore store(SiteId(0));
  ASSERT_TRUE(store.Put(MakeReplica(10, 0, 1.0)).ok());  // content 1
  ASSERT_TRUE(store.Put(MakeReplica(11, 0, 1.0)).ok());  // content 1
  ASSERT_TRUE(store.Put(MakeReplica(20, 0, 1.0)).ok());  // content 2
  EXPECT_EQ(store.ReplicasOf(LogicalOid(1)).size(), 2u);
  EXPECT_EQ(store.ReplicasOf(LogicalOid(2)).size(), 1u);
  EXPECT_TRUE(store.ReplicasOf(LogicalOid(9)).empty());
}

}  // namespace
}  // namespace quasaq::storage

#include "metadata/metadata_store.h"

#include <gtest/gtest.h>

#include "media/library.h"

namespace quasaq::meta {
namespace {

media::VideoContent MakeContent(int64_t oid) {
  media::VideoContent content;
  content.id = LogicalOid(oid);
  content.title = "video" + std::to_string(oid);
  content.keywords = {"news"};
  content.duration_seconds = 60.0;
  content.master_quality = media::QualityLadder::Standard().levels[0];
  return content;
}

media::ReplicaInfo MakeReplica(int64_t oid, int64_t content, int64_t site) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(oid);
  replica.content = LogicalOid(content);
  replica.site = SiteId(site);
  replica.qos = media::QualityLadder::Standard().levels[1];
  replica.duration_seconds = 60.0;
  media::FinalizeReplicaSizing(replica);
  return replica;
}

TEST(MetadataStoreTest, InsertAndFindContent) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  const media::VideoContent* content = store.FindContent(LogicalOid(1));
  ASSERT_NE(content, nullptr);
  EXPECT_EQ(content->title, "video1");
  EXPECT_EQ(store.FindContent(LogicalOid(2)), nullptr);
}

TEST(MetadataStoreTest, DuplicateContentRejected) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  EXPECT_EQ(store.InsertContent(MakeContent(1)).code(),
            StatusCode::kAlreadyExists);
}

TEST(MetadataStoreTest, InvalidOidRejected) {
  MetadataStore store;
  media::VideoContent content = MakeContent(1);
  content.id = LogicalOid();
  EXPECT_EQ(store.InsertContent(content).code(),
            StatusCode::kInvalidArgument);
}

TEST(MetadataStoreTest, ReplicaRequiresContent) {
  MetadataStore store;
  EXPECT_EQ(store.InsertReplica(MakeReplica(10, 1, 0)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  EXPECT_TRUE(store.InsertReplica(MakeReplica(10, 1, 0)).ok());
}

TEST(MetadataStoreTest, ReplicasOfSortedByOid) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(12, 1, 2)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(10, 1, 0)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(11, 1, 1)).ok());
  auto replicas = store.ReplicasOf(LogicalOid(1));
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0]->id, PhysicalOid(10));
  EXPECT_EQ(replicas[2]->id, PhysicalOid(12));
}

TEST(MetadataStoreTest, EraseReplicaRemovesEverything) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(10, 1, 0)).ok());
  ASSERT_TRUE(store.EraseReplica(PhysicalOid(10)).ok());
  EXPECT_EQ(store.FindReplica(PhysicalOid(10)), nullptr);
  EXPECT_TRUE(store.ReplicasOf(LogicalOid(1)).empty());
  EXPECT_EQ(store.EraseReplica(PhysicalOid(10)).code(),
            StatusCode::kNotFound);
}

TEST(MetadataStoreTest, InsertAfterLookupIsVisible) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(10, 1, 0)).ok());
  EXPECT_EQ(store.ReplicasOf(LogicalOid(1)).size(), 1u);
  // A replica registered after a lookup is seen by the next one.
  ASSERT_TRUE(store.InsertReplica(MakeReplica(5, 1, 2)).ok());
  auto replicas = store.ReplicasOf(LogicalOid(1));
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0]->id, PhysicalOid(5));
  EXPECT_EQ(replicas[1]->id, PhysicalOid(10));
}

TEST(MetadataStoreTest, AllContentsInOidOrder) {
  MetadataStore store;
  for (int64_t oid : {4, 0, 6, 2, 5, 1, 3}) {
    ASSERT_TRUE(store.InsertContent(MakeContent(oid)).ok());
  }
  std::vector<const media::VideoContent*> contents = store.AllContents();
  ASSERT_EQ(contents.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(contents[static_cast<size_t>(i)]->id, LogicalOid(i));
  }
}

}  // namespace
}  // namespace quasaq::meta

#include "common/resource_vector.h"

#include <gtest/gtest.h>

namespace quasaq {
namespace {

BucketId Cpu(int site) { return {SiteId(site), ResourceKind::kCpu}; }
BucketId Net(int site) {
  return {SiteId(site), ResourceKind::kNetworkBandwidth};
}

TEST(ResourceKindTest, NamesAreStable) {
  EXPECT_EQ(ResourceKindName(ResourceKind::kCpu), "cpu");
  EXPECT_EQ(ResourceKindName(ResourceKind::kNetworkBandwidth), "net");
  EXPECT_EQ(ResourceKindName(ResourceKind::kDiskBandwidth), "disk");
  EXPECT_EQ(ResourceKindName(ResourceKind::kMemory), "mem");
}

TEST(BucketIdTest, EqualityAndOrdering) {
  EXPECT_EQ(Cpu(0), Cpu(0));
  EXPECT_NE(Cpu(0), Cpu(1));
  EXPECT_NE(Cpu(0), Net(0));
  EXPECT_LT(Cpu(0), Cpu(1));
  EXPECT_LT(Cpu(0), Net(0));  // same site, kind order
}

TEST(BucketIdTest, ToStringFormat) {
  EXPECT_EQ(BucketIdToString(Net(2)), "site2/net");
}

TEST(ResourceVectorTest, StartsEmpty) {
  ResourceVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_DOUBLE_EQ(v.Get(Cpu(0)), 0.0);
}

TEST(ResourceVectorTest, AddAndGet) {
  ResourceVector v;
  v.Add(Cpu(0), 0.5);
  v.Add(Net(1), 100.0);
  EXPECT_DOUBLE_EQ(v.Get(Cpu(0)), 0.5);
  EXPECT_DOUBLE_EQ(v.Get(Net(1)), 100.0);
  EXPECT_DOUBLE_EQ(v.Get(Net(0)), 0.0);
  EXPECT_EQ(v.size(), 2u);
}

TEST(ResourceVectorTest, AddAccumulates) {
  ResourceVector v;
  v.Add(Cpu(0), 0.2);
  v.Add(Cpu(0), 0.3);
  EXPECT_DOUBLE_EQ(v.Get(Cpu(0)), 0.5);
  EXPECT_EQ(v.size(), 1u);
}

TEST(ResourceVectorTest, NegativeAddClampsAtZero) {
  ResourceVector v;
  v.Add(Cpu(0), 0.2);
  v.Add(Cpu(0), -1.0);
  EXPECT_DOUBLE_EQ(v.Get(Cpu(0)), 0.0);
}

TEST(ResourceVectorTest, EntriesStaySorted) {
  ResourceVector v;
  v.Add(Net(1), 1.0);
  v.Add(Cpu(0), 1.0);
  v.Add(Cpu(1), 1.0);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.entries()[0].bucket, Cpu(0));
  EXPECT_EQ(v.entries()[1].bucket, Cpu(1));
  EXPECT_EQ(v.entries()[2].bucket, Net(1));
}

TEST(ResourceVectorTest, AmountsAreWholeUnits) {
  EXPECT_EQ(ToResourceUnits(0.25), 250'000);
  EXPECT_EQ(ToResourceUnits(1.4e-6), 1);
  EXPECT_EQ(ToResourceUnits(1.6e-6), 2);
  EXPECT_EQ(ToResourceUnits(-1.6e-6), -2);
  EXPECT_EQ(FromResourceUnits(250'000), 0.25);
  ResourceVector v;
  v.Add(Cpu(0), 0.1);
  v.Add(Cpu(0), 0.2);
  // Units add exactly, where 0.1 + 0.2 as doubles is not 0.3.
  EXPECT_EQ(v.Units(Cpu(0)), 300'000);
  EXPECT_EQ(v.Get(Cpu(0)), 0.3);
}

// An entry exists exactly while it holds a positive number of units,
// whether it was written by Add or by Set.
TEST(ResourceVectorTest, SubUnitAmountsMakeNoEntry) {
  ResourceVector v;
  v.Add(Cpu(0), 3.5e-14);
  v.Set(Net(0), 3.5e-14);
  EXPECT_TRUE(v.empty());
  v.Add(Cpu(0), 0.5);
  v.Add(Cpu(0), -0.5);
  EXPECT_TRUE(v.empty());
}

TEST(ResourceVectorTest, ToStringListsEntries) {
  ResourceVector v;
  v.Add(Cpu(0), 0.25);
  std::string s = v.ToString();
  EXPECT_NE(s.find("site0/cpu"), std::string::npos);
  EXPECT_NE(s.find("0.25"), std::string::npos);
}

TEST(ResourceVectorTest, SetReplacesInsertsAndRemoves) {
  ResourceVector v;
  v.Add(Cpu(0), 0.25);
  v.Set(Cpu(0), 0.75);  // replaces rather than accumulates
  EXPECT_EQ(v.Get(Cpu(0)), 0.75);
  v.Set(Net(0), 100.0);  // inserts in sorted position
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.entries()[1].bucket, Net(0));
  v.Set(Cpu(0), 0.0);  // a non-positive amount removes the entry
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.Get(Cpu(0)), 0.0);
  v.Set(Cpu(1), -1.0);  // removing an absent entry is a no-op
  EXPECT_EQ(v.size(), 1u);
}

// A cleared vector refilled by Adds equals one built fresh from the
// same Adds, entry for entry: nothing of its earlier contents remains.
TEST(ResourceVectorTest, ClearThenAddEqualsFreshVector) {
  ResourceVector reused;
  reused.Add(Cpu(2), 0.5);
  reused.Add(Net(0), 190.0);
  reused.Add(Net(1), 40.0);
  reused.Add({SiteId(1), ResourceKind::kMemory}, 80.0);
  reused.Clear();
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.entries().capacity(), 4u);  // kept for the refill
  EXPECT_EQ(reused.Units(Cpu(2)), 0);

  ResourceVector fresh;
  for (ResourceVector* v : {&reused, &fresh}) {
    v->Add(Net(1), 25.0);
    v->Add(Cpu(0), 0.125);
    v->Add(Net(1), 5.0);
  }
  ASSERT_EQ(reused.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(reused.entries()[i].bucket, fresh.entries()[i].bucket);
    EXPECT_EQ(reused.entries()[i].units, fresh.entries()[i].units);
  }
  EXPECT_EQ(reused.ToString(), fresh.ToString());
}

}  // namespace
}  // namespace quasaq

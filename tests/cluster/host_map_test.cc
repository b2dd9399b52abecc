#include "cluster/host_map.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <string>

namespace domd {
namespace cluster {
namespace {

constexpr char kSpec[] =
    R"({"vnodes": 32,
        "shards": [{"id": 1, "replicas": ["127.0.0.1:7502"]},
                   {"id": 0, "replicas": ["127.0.0.1:7501",
                                          "127.0.0.1:7601"]}]})";

TEST(EndpointTest, ParsesHostColonPort) {
  auto endpoint = Endpoint::Parse("127.0.0.1:7501");
  ASSERT_TRUE(endpoint.ok());
  EXPECT_EQ(endpoint->host, "127.0.0.1");
  EXPECT_EQ(endpoint->port, 7501);
  EXPECT_EQ(endpoint->ToString(), "127.0.0.1:7501");
}

TEST(EndpointTest, RejectsMalformedSpellings) {
  EXPECT_FALSE(Endpoint::Parse("").ok());
  EXPECT_FALSE(Endpoint::Parse("nohost").ok());
  EXPECT_FALSE(Endpoint::Parse(":7501").ok());
  EXPECT_FALSE(Endpoint::Parse("127.0.0.1:").ok());
  EXPECT_FALSE(Endpoint::Parse("127.0.0.1:notaport").ok());
  EXPECT_FALSE(Endpoint::Parse("127.0.0.1:0").ok());
  EXPECT_FALSE(Endpoint::Parse("127.0.0.1:70000").ok());
  EXPECT_FALSE(Endpoint::Parse("localhost:7501").ok());
}

TEST(HostMapTest, ParsesSpecAndSortsShardsById) {
  auto map = HostMap::Parse(kSpec);
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->num_shards(), 2u);
  EXPECT_EQ(map->shards()[0].id, 0);
  EXPECT_EQ(map->shards()[1].id, 1);
  ASSERT_EQ(map->shards()[0].replicas.size(), 2u);
  EXPECT_EQ(map->shards()[0].replicas[0].ToString(), "127.0.0.1:7501");
  EXPECT_EQ(map->shards()[0].replicas[1].ToString(), "127.0.0.1:7601");
  EXPECT_EQ(map->ring().num_shards(), 2u);
  EXPECT_EQ(map->ring().vnodes_per_shard(), 32u);
}

TEST(HostMapTest, VnodesDefaultsWhenAbsent) {
  auto map = HostMap::Parse(
      R"({"shards": [{"id": 0, "replicas": ["127.0.0.1:7501"]}]})");
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->ring().vnodes_per_shard(), 64u);
}

TEST(HostMapTest, RejectsStructuralErrors) {
  EXPECT_FALSE(HostMap::Parse("not json").ok());
  EXPECT_FALSE(HostMap::Parse("[]").ok());
  EXPECT_FALSE(HostMap::Parse(R"({"shards": []})").ok());
  // Duplicate shard ids.
  EXPECT_FALSE(
      HostMap::Parse(
          R"({"shards": [{"id": 0, "replicas": ["127.0.0.1:7501"]},
                         {"id": 0, "replicas": ["127.0.0.1:7502"]}]})")
          .ok());
  // A shard with no replicas is unroutable.
  EXPECT_FALSE(
      HostMap::Parse(R"({"shards": [{"id": 0, "replicas": []}]})").ok());
  // Malformed endpoint inside an otherwise valid spec.
  EXPECT_FALSE(
      HostMap::Parse(R"({"shards": [{"id": 0, "replicas": ["bogus"]}]})")
          .ok());
}

// Shard ids and vnodes are integers checked before the cast, which would
// truncate 1.5 to shard 1 and wrap 1e12 into an arbitrary int.
TEST(HostMapTest, RejectsNonIntegralOrOutOfRangeIntegers) {
  for (const char* spec :
       {R"({"shards": [{"id": 1.5, "replicas": ["127.0.0.1:7501"]}]})",
        R"({"shards": [{"id": 1e12, "replicas": ["127.0.0.1:7501"]}]})",
        R"({"shards": [{"id": -1e300, "replicas": ["127.0.0.1:7501"]}]})",
        R"({"vnodes": 2.5, )"
        R"("shards": [{"id": 0, "replicas": ["127.0.0.1:1"]}]})",
        R"({"vnodes": 1e300, )"
        R"("shards": [{"id": 0, "replicas": ["127.0.0.1:1"]}]})",
        R"({"vnodes": 0, )"
        R"("shards": [{"id": 0, "replicas": ["127.0.0.1:1"]}]})"}) {
    const auto map = HostMap::Parse(spec);
    ASSERT_FALSE(map.ok()) << spec;
    EXPECT_EQ(map.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  // An integral double is an integer.
  const auto map = HostMap::Parse(
      R"({"vnodes": 8.0, )"
      R"("shards": [{"id": 3.0, "replicas": ["127.0.0.1:1"]}]})");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(map->shards().front().id, 3);
  EXPECT_EQ(map->ring().vnodes_per_shard(), 8u);
}

TEST(HostMapTest, OwnerIndexAgreesWithRing) {
  auto map = HostMap::Parse(kSpec);
  ASSERT_TRUE(map.ok());
  for (std::int64_t id = 0; id < 500; ++id) {
    const std::uint64_t key = KeyForAvail(id);
    const std::size_t index = map->OwnerIndexOf(key);
    ASSERT_LT(index, map->num_shards());
    EXPECT_EQ(map->shards()[index].id, map->ring().OwnerOf(key));
  }
}

TEST(HostMapTest, FindShardById) {
  auto map = HostMap::Parse(kSpec);
  ASSERT_TRUE(map.ok());
  ASSERT_NE(map->FindShard(1), nullptr);
  EXPECT_EQ(map->FindShard(1)->replicas[0].port, 7502);
  EXPECT_EQ(map->FindShard(99), nullptr);
}

TEST(HostMapTest, CreateProgrammatically) {
  ShardSpec a;
  a.id = 5;
  a.replicas.push_back({"127.0.0.1", 9001});
  ShardSpec b;
  b.id = 2;
  b.replicas.push_back({"127.0.0.1", 9002});
  auto map = HostMap::Create({a, b}, 16);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->shards()[0].id, 2);
  EXPECT_EQ(map->shards()[1].id, 5);
  EXPECT_EQ(map->ring().vnodes_per_shard(), 16u);
}

TEST(HostMapTest, LoadFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/domd_cluster_spec." +
                           std::to_string(::getpid()) + ".json";
  {
    std::ofstream out(path);
    out << kSpec;
  }
  auto map = HostMap::LoadFile(path);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->num_shards(), 2u);
  ::unlink(path.c_str());
  EXPECT_FALSE(HostMap::LoadFile(path).ok());
}

}  // namespace
}  // namespace cluster
}  // namespace domd

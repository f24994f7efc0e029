// KoshaMount (path-level API) tests, including large chunked I/O.

#include <gtest/gtest.h>

#include <string>

#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "nfs/wire.hpp"
#include "trace/mab.hpp"

namespace kosha {
namespace {

struct Fixture {
  KoshaCluster cluster;
  KoshaMount mount;

  Fixture()
      : cluster([] {
          ClusterConfig config;
          config.nodes = 6;
          config.kosha.distribution_level = 2;
          config.kosha.replicas = 1;
          config.seed = 17;
          return config;
        }()),
        mount(&cluster.daemon(0)) {}
};

TEST(Mount, MkdirPIdempotent) {
  Fixture fx;
  const auto first = fx.mount.mkdir_p("/a/b/c");
  ASSERT_TRUE(first.ok());
  const auto second = fx.mount.mkdir_p("/a/b/c");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

TEST(Mount, MkdirPRejectsFileComponent) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.write_file("/file", "x").ok());
  EXPECT_EQ(fx.mount.mkdir_p("/file/sub").error(), nfs::NfsStat::kNotDir);
}

TEST(Mount, WriteFileSizes) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.mkdir_p("/sizes").ok());
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{64 * 1024}, std::size_t{1 << 20}}) {
    const std::string path = "/sizes/f" + std::to_string(size);
    const std::string content = trace::mab_content(size, size);
    ASSERT_TRUE(fx.mount.write_file(path, content).ok()) << size;
    const auto read = fx.mount.read_file(path);
    ASSERT_TRUE(read.ok()) << size;
    EXPECT_EQ(read.value(), content) << size;
    EXPECT_EQ(fx.mount.stat(path)->size, size);
  }
}

TEST(Mount, OverwriteShrinks) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.write_file("/f", std::string(1000, 'a')).ok());
  ASSERT_TRUE(fx.mount.write_file("/f", "tiny").ok());
  EXPECT_EQ(fx.mount.read_file("/f").value(), "tiny");
}

TEST(Mount, WriteFileRejectsDirectoryTarget) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.mkdir_p("/d").ok());
  EXPECT_EQ(fx.mount.write_file("/d", "x").error(), nfs::NfsStat::kIsDir);
}

TEST(Mount, ExistsAndStat) {
  Fixture fx;
  EXPECT_FALSE(fx.mount.exists("/nope"));
  ASSERT_TRUE(fx.mount.write_file("/yes", "1").ok());
  EXPECT_TRUE(fx.mount.exists("/yes"));
  EXPECT_EQ(fx.mount.stat("/yes")->type, fs::FileType::kFile);
  EXPECT_EQ(fx.mount.stat("/").value().type, fs::FileType::kDirectory);
}

TEST(Mount, RemoveAllDeepTree) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.mkdir_p("/tree/a/b").ok());
  ASSERT_TRUE(fx.mount.mkdir_p("/tree/c").ok());
  ASSERT_TRUE(fx.mount.write_file("/tree/a/b/f1", "1").ok());
  ASSERT_TRUE(fx.mount.write_file("/tree/c/f2", "2").ok());
  ASSERT_TRUE(fx.mount.write_file("/tree/f3", "3").ok());
  ASSERT_TRUE(fx.mount.remove_all("/tree").ok());
  EXPECT_FALSE(fx.mount.exists("/tree"));
  // Everything physically reclaimed (no live user bytes anywhere).
  std::uint64_t total = 0;
  for (const auto host : fx.cluster.live_hosts()) {
    total += fx.cluster.server(host).store().used_bytes();
  }
  EXPECT_EQ(total, 0u);
}

TEST(Mount, RemoveAllSparesCachedSiblingsSharingAPrefix) {
  Fixture fx;
  const char* dirs[] = {"/a", "/ab", "/a.b", "/a-b"};
  for (const char* dir : dirs) {
    ASSERT_TRUE(fx.mount.mkdir_p(std::string(dir) + "/sub").ok());
    ASSERT_TRUE(fx.mount.write_file(std::string(dir) + "/sub/f", dir).ok());
  }
  // A mount-cache miss walks the path with LOOKUPs; a hit sends none.
  const auto lookups = [&] {
    return fx.cluster.network().stats().per_proc[nfs::proc_slot(nfs::NfsProc::kLookup)].messages;
  };
  ASSERT_TRUE(fx.mount.remove_all("/a").ok());
  const auto before = lookups();
  for (const char* dir : {"/ab", "/a.b", "/a-b"}) {
    EXPECT_EQ(fx.mount.read_file(std::string(dir) + "/sub/f").value(), dir);
  }
  EXPECT_EQ(lookups(), before);  // the siblings stayed cached
  EXPECT_FALSE(fx.mount.exists("/a/sub/f"));
  EXPECT_GT(lookups(), before);  // the removed subtree did not
}

TEST(Mount, RootOperationsRejected) {
  Fixture fx;
  EXPECT_EQ(fx.mount.remove("/").error(), nfs::NfsStat::kInval);
  EXPECT_EQ(fx.mount.rmdir("/").error(), nfs::NfsStat::kInval);
}

TEST(Mount, CacheSurvivesRemoveRecreate) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.write_file("/cycle", "one").ok());
  ASSERT_TRUE(fx.mount.remove("/cycle").ok());
  EXPECT_FALSE(fx.mount.exists("/cycle"));
  ASSERT_TRUE(fx.mount.write_file("/cycle", "two").ok());
  EXPECT_EQ(fx.mount.read_file("/cycle").value(), "two");
}

TEST(Mount, ListReflectsChanges) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.mkdir_p("/ls").ok());
  EXPECT_TRUE(fx.mount.list("/ls")->empty());
  ASSERT_TRUE(fx.mount.write_file("/ls/a", "x").ok());
  ASSERT_TRUE(fx.mount.mkdir_p("/ls/b").ok());
  EXPECT_EQ(fx.mount.list("/ls")->size(), 2u);
  ASSERT_TRUE(fx.mount.remove("/ls/a").ok());
  EXPECT_EQ(fx.mount.list("/ls")->size(), 1u);
}

}  // namespace
}  // namespace kosha

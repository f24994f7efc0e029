// Virtual-handle table tests (paper §4.1.2).

#include <gtest/gtest.h>

#include "kosha/virtual_handles.hpp"

namespace kosha {
namespace {

nfs::FileHandle handle(net::HostId host, fs::InodeId inode) { return {host, inode, 1}; }

TEST(VirtualHandles, BindAndFind) {
  VirtualHandleTable table;
  const VirtualHandle vh = table.bind("/a/f", "/.a/a/a/f", handle(2, 10), fs::FileType::kFile);
  EXPECT_TRUE(vh.valid());
  const VhEntry* entry = table.find(vh);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->path, "/a/f");
  EXPECT_EQ(entry->stored_path, "/.a/a/a/f");
  EXPECT_EQ(entry->real.server, 2u);
  EXPECT_EQ(table.find_by_path("/a/f"), vh);
}

TEST(VirtualHandles, RebindingSamePathKeepsHandle) {
  VirtualHandleTable table;
  const VirtualHandle vh = table.bind("/a", "/s1", handle(1, 1), fs::FileType::kDirectory);
  const VirtualHandle again = table.bind("/a", "/s2", handle(3, 9), fs::FileType::kDirectory);
  EXPECT_EQ(vh, again);
  EXPECT_EQ(table.find(vh)->real.server, 3u);
  EXPECT_EQ(table.find(vh)->stored_path, "/s2");
  EXPECT_EQ(table.size(), 1u);
}

TEST(VirtualHandles, InvalidLookups) {
  VirtualHandleTable table;
  EXPECT_EQ(table.find(VirtualHandle{77}), nullptr);
  EXPECT_FALSE(table.find_by_path("/nope").has_value());
  EXPECT_FALSE(table.rebind(VirtualHandle{77}, "/x", handle(1, 1)));
}

TEST(VirtualHandles, RebindSwapsRealHandleTransparently) {
  VirtualHandleTable table;
  const VirtualHandle vh = table.bind("/a/f", "/s", handle(1, 5), fs::FileType::kFile);
  EXPECT_TRUE(table.rebind(vh, "/s2", handle(4, 6)));
  EXPECT_EQ(table.find(vh)->real.server, 4u);
  EXPECT_EQ(table.find(vh)->path, "/a/f");  // virtual identity preserved
}

TEST(VirtualHandles, DropSingle) {
  VirtualHandleTable table;
  const VirtualHandle vh = table.bind("/a", "/s", handle(1, 1), fs::FileType::kDirectory);
  table.drop(vh);
  EXPECT_EQ(table.find(vh), nullptr);
  EXPECT_FALSE(table.find_by_path("/a").has_value());
  table.drop(vh);  // idempotent
}

TEST(VirtualHandles, DropSubtree) {
  VirtualHandleTable table;
  const auto keep = table.bind("/ax", "/s0", handle(1, 1), fs::FileType::kDirectory);
  const auto root = table.bind("/a", "/s1", handle(1, 2), fs::FileType::kDirectory);
  const auto child = table.bind("/a/b", "/s2", handle(1, 3), fs::FileType::kDirectory);
  const auto grand = table.bind("/a/b/c", "/s3", handle(1, 4), fs::FileType::kFile);
  table.drop_subtree("/a");
  EXPECT_EQ(table.find(root), nullptr);
  EXPECT_EQ(table.find(child), nullptr);
  EXPECT_EQ(table.find(grand), nullptr);
  EXPECT_NE(table.find(keep), nullptr);  // "/ax" is not inside "/a"
}

TEST(VirtualHandles, DropSubtreeSparesSiblingsSharingAPrefix) {
  // '.' and '-' sort before '/', 'b' after it: all three must survive.
  VirtualHandleTable table;
  const auto a = table.bind("/a", "/s1", handle(1, 1), fs::FileType::kDirectory);
  const auto a_child = table.bind("/a/x", "/s2", handle(1, 2), fs::FileType::kFile);
  const auto ab = table.bind("/ab", "/s3", handle(1, 3), fs::FileType::kDirectory);
  const auto ab_child = table.bind("/ab/x", "/s4", handle(1, 4), fs::FileType::kFile);
  const auto dot = table.bind("/a.b", "/s5", handle(1, 5), fs::FileType::kFile);
  const auto dash = table.bind("/a-b", "/s6", handle(1, 6), fs::FileType::kFile);
  table.drop_subtree("/a");
  EXPECT_EQ(table.find(a), nullptr);
  EXPECT_EQ(table.find(a_child), nullptr);
  EXPECT_NE(table.find(ab), nullptr);
  EXPECT_NE(table.find(ab_child), nullptr);
  EXPECT_NE(table.find(dot), nullptr);
  EXPECT_NE(table.find(dash), nullptr);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_FALSE(table.find_by_path("/a/x").has_value());
  EXPECT_TRUE(table.find_by_path("/ab/x").has_value());
}

TEST(VirtualHandles, DropSubtreeOfRootDropsEverything) {
  VirtualHandleTable table;
  (void)table.bind("/", "/", handle(1, 1), fs::FileType::kDirectory);
  (void)table.bind("/a", "/s1", handle(1, 2), fs::FileType::kDirectory);
  (void)table.bind("/a/b", "/s2", handle(1, 3), fs::FileType::kFile);
  table.drop_subtree("/");
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.find_by_path("/").has_value());
  EXPECT_FALSE(table.find_by_path("/a/b").has_value());
}

TEST(VirtualHandles, DropSubtreeOfLeafDropsOnlyTheLeaf) {
  VirtualHandleTable table;
  const auto dir = table.bind("/d", "/s1", handle(1, 1), fs::FileType::kDirectory);
  const auto leaf = table.bind("/d/f", "/s2", handle(1, 2), fs::FileType::kFile);
  const auto longer = table.bind("/d/f2", "/s3", handle(1, 3), fs::FileType::kFile);
  table.drop_subtree("/d/f");
  EXPECT_EQ(table.find(leaf), nullptr);
  EXPECT_NE(table.find(dir), nullptr);
  EXPECT_NE(table.find(longer), nullptr);
  EXPECT_EQ(table.size(), 2u);
  // Dropping a path that is not bound is a no-op.
  table.drop_subtree("/nowhere");
  EXPECT_EQ(table.size(), 2u);
}

TEST(VirtualHandles, HandlesAreNeverReusedAcrossPaths) {
  VirtualHandleTable table;
  const auto a = table.bind("/a", "/s", handle(1, 1), fs::FileType::kFile);
  table.drop(a);
  const auto b = table.bind("/b", "/s", handle(1, 2), fs::FileType::kFile);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace kosha

#pragma once

// Virtual file handle table (paper §4.1.2).
//
// NFS handles are opaque, so koshad hands the kernel *virtual* handles and
// keeps the mapping virtual handle -> (real handle, full virtual path).
// The full path is stored with every entry — it is what makes transparent
// failover possible: when the primary dies, the entry is dropped and the
// path is re-resolved to a replica. The table is deliberately not
// persistent: if koshad crashes the whole machine crashed (§4.4).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "nfs/nfs_types.hpp"

namespace kosha {

/// Opaque identifier handed to clients of koshad.
struct VirtualHandle {
  std::uint64_t value = 0;

  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(const VirtualHandle&, const VirtualHandle&) = default;
};

/// What a virtual handle stands for.
struct VhEntry {
  std::string path;         // full virtual path (e.g. "/alice/src/main.c")
  std::string stored_path;  // path within the storage node's /kosha_store
  nfs::FileHandle real;     // current real handle on the storage node
  fs::FileType type = fs::FileType::kFile;
};

class VirtualHandleTable {
 public:
  /// Insert or refresh the mapping for `path`; returns its virtual handle
  /// (stable across refreshes of the same path).
  VirtualHandle bind(const std::string& path, const std::string& stored_path,
                     const nfs::FileHandle& real, fs::FileType type);

  [[nodiscard]] const VhEntry* find(VirtualHandle vh) const;
  [[nodiscard]] std::optional<VirtualHandle> find_by_path(const std::string& path) const;

  /// Drop one handle (e.g. after an RPC error, before re-resolution).
  void drop(VirtualHandle vh);
  /// Drop every handle under `path` (inclusive) — used after removes,
  /// renames and failovers that invalidate a subtree.
  void drop_subtree(const std::string& path);

  /// Rebind an existing handle to a new real handle (transparent failover:
  /// the client's virtual handle survives).
  bool rebind(VirtualHandle vh, const std::string& stored_path, const nfs::FileHandle& real);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::uint64_t next_ = 1;
  std::unordered_map<std::uint64_t, VhEntry> entries_;
  /// Ordered so a subtree is one contiguous key range (drop_subtree).
  std::map<std::string, std::uint64_t> by_path_;
};

}  // namespace kosha

template <>
struct std::hash<kosha::VirtualHandle> {
  std::size_t operator()(const kosha::VirtualHandle& vh) const noexcept {
    return std::hash<std::uint64_t>{}(vh.value);
  }
};

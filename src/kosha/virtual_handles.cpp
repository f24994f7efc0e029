#include "kosha/virtual_handles.hpp"

#include "common/path.hpp"

namespace kosha {

VirtualHandle VirtualHandleTable::bind(const std::string& path, const std::string& stored_path,
                                       const nfs::FileHandle& real, fs::FileType type) {
  if (const auto it = by_path_.find(path); it != by_path_.end()) {
    VhEntry& entry = entries_[it->second];
    entry.stored_path = stored_path;
    entry.real = real;
    entry.type = type;
    return {it->second};
  }
  const std::uint64_t id = next_++;
  entries_[id] = {path, stored_path, real, type};
  by_path_[path] = id;
  return {id};
}

const VhEntry* VirtualHandleTable::find(VirtualHandle vh) const {
  const auto it = entries_.find(vh.value);
  return it == entries_.end() ? nullptr : &it->second;
}

std::optional<VirtualHandle> VirtualHandleTable::find_by_path(const std::string& path) const {
  const auto it = by_path_.find(path);
  if (it == by_path_.end()) return std::nullopt;
  return VirtualHandle{it->second};
}

void VirtualHandleTable::drop(VirtualHandle vh) {
  const auto it = entries_.find(vh.value);
  if (it == entries_.end()) return;
  by_path_.erase(it->second.path);
  entries_.erase(it);
}

void VirtualHandleTable::drop_subtree(const std::string& path) {
  erase_path_subtree(by_path_, path, [this](std::uint64_t vh) { entries_.erase(vh); });
}

bool VirtualHandleTable::rebind(VirtualHandle vh, const std::string& stored_path,
                                const nfs::FileHandle& real) {
  const auto it = entries_.find(vh.value);
  if (it == entries_.end()) return false;
  it->second.stored_path = stored_path;
  it->second.real = real;
  return true;
}

}  // namespace kosha

#pragma once

// Path utilities for the virtual /kosha namespace.
//
// Paths are absolute, '/'-separated, and normalised (no '.', '..', or empty
// components). The root is "/". Kosha's placement logic operates on the
// component list; see kosha/placement.hpp.

#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kosha {

/// Split an absolute path into components ("/a/b/c" -> {"a","b","c"}).
/// Repeated separators are collapsed; "/" yields an empty vector.
[[nodiscard]] std::vector<std::string> split_path(std::string_view path);

/// Join components into an absolute path ({} -> "/", {"a","b"} -> "/a/b").
[[nodiscard]] std::string join_path(const std::vector<std::string>& components);

/// Append one component to an absolute path.
[[nodiscard]] std::string path_child(std::string_view parent, std::string_view name);

/// Parent directory of an absolute path ("/a/b" -> "/a", "/a" -> "/").
[[nodiscard]] std::string path_parent(std::string_view path);

/// Final component ("/a/b" -> "b", "/" -> "").
[[nodiscard]] std::string path_basename(std::string_view path);

/// Normalise: absolute, collapse separators, resolve "." (".." rejected by
/// returning the empty string — the virtual FS does not support it).
[[nodiscard]] std::string normalize_path(std::string_view path);

/// Number of components ("/" -> 0, "/a/b" -> 2).
[[nodiscard]] std::size_t path_depth(std::string_view path);

/// True if `path` equals `ancestor` or lies beneath it.
[[nodiscard]] bool path_is_within(std::string_view path, std::string_view ancestor);

/// Erase `path` and everything beneath it from a map keyed by normalised
/// path and ordered by key (std::map<std::string, V>): the exact key plus
/// the key range [path + "/", path + "0"). '0' follows '/' in ASCII, so the
/// range holds exactly the paths below `path`, never a sibling such as
/// path + "b" or path + ".b". The root "/" (and the empty path, which
/// normalize_path returns for paths it rejects) is everything.
/// `on_erase(value)` sees each erased value first.
template <typename PathMap, typename OnErase>
void erase_path_subtree(PathMap& map, std::string path, OnErase&& on_erase) {
  const auto erase_range = [&](auto first, auto last) {
    for (auto it = first; it != last; ++it) on_erase(it->second);
    map.erase(first, last);
  };
  if (path.empty() || path == "/") {
    erase_range(map.begin(), map.end());
    return;
  }
  if (const auto self = map.find(path); self != map.end()) erase_range(self, std::next(self));
  path += '/';
  const auto first = map.lower_bound(path);
  path.back() = '0';
  erase_range(first, map.lower_bound(path));
}

template <typename PathMap>
void erase_path_subtree(PathMap& map, std::string path) {
  erase_path_subtree(map, std::move(path), [](const auto&) {});
}

}  // namespace kosha

// Counting replacements for the global allocation functions. Linked into the
// benchmark binary only; the simulator library itself is unchanged. Counting
// is off unless the harness switches it on around a call into the program,
// and the benchmark runs every client on one thread, so plain globals do.

#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocs = 0;

void* allocate(std::size_t size) {
  if (g_counting) ++g_allocs;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting) ++g_allocs;
  const auto alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (rounded == 0) rounded = alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) { g_counting = on; }
bool alloc_counting() { return g_counting; }
std::uint64_t alloc_count() { return g_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

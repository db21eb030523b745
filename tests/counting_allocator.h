// Counting global allocator for the allocation-discipline tests.
//
// Replaces every replaceable global operator new/delete — plain, array,
// aligned, sized and nothrow — with malloc/free-backed versions that count
// each allocation, so a test can assert that a warmed hot path never touches
// the heap:
//
//   const std::size_t before = allocation_count();
//   ... steady-state work ...
//   EXPECT_EQ(allocation_count(), before);
//
// Every form must be replaced together: a form left to the runtime (under
// ASan, its own allocator) would hand out blocks that the replaced delete
// then frees with free(), an alloc-dealloc mismatch.  Replacement
// functions must not be inline, so include this header in exactly one
// translation unit of a test executable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_allocations{0};

std::size_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc_nothrow(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc_nothrow(std::size_t size,
                                    std::size_t alignment) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size ? size : alignment) != 0) {
    return nullptr;
  }
  return p;
}

void* counted_alloc(std::size_t size) {
  if (void* p = counted_alloc_nothrow(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc_nothrow(
          size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc_nothrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc_nothrow(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

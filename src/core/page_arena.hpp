// Huge-page bump arena for large, never-freed buffers.
//
// The telemetry tier of a datacenter-scale run holds one ring buffer per
// GPU — 10k rings at 10k nodes. Allocated individually through the default
// allocator they land on scattered 4 KiB pages, and the per-tick scrape
// (which touches every ring head once) thrashes the dTLB.
// This arena carves allocations out of 2 MiB-aligned chunks advised as
// transparent huge pages: rings allocated in registration order become
// contiguous and hugepage-dense, so the scrape's working set costs ~25 TLB
// entries per GiB instead of ~260k.
//
// Bump-only by design: the intended tenants (telemetry rings) are sized at
// construction and live until the owner dies, so there is no deallocate —
// memory is released wholesale when the arena is destroyed. Addresses are
// stable for the arena's lifetime (chunks are never moved or reused).
//
// Off Linux (or when mmap fails) chunks fall back to ::operator new; the
// arena then still batches allocations, just without the hugepage hint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "core/check.hpp"

namespace knots::core {

class PageArena {
 public:
  static constexpr std::size_t kHugePage = std::size_t{1} << 21;  // 2 MiB

  /// `chunk_bytes` = default chunk size; oversized requests get a dedicated
  /// chunk. Rounded up to a whole number of huge pages.
  explicit PageArena(std::size_t chunk_bytes = 4 * kHugePage)
      : chunk_bytes_(round_up(chunk_bytes, kHugePage)) {}

  ~PageArena() {
    for (const Chunk& c : chunks_) release(c);
  }

  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (power of two, at most
  /// kHugePage). Never freed individually; lives until the arena dies.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    KNOTS_CHECK(align > 0 && (align & (align - 1)) == 0 &&
                align <= kHugePage);
    const auto cur = reinterpret_cast<std::uintptr_t>(cursor_);
    const std::uintptr_t aligned = (cur + (align - 1)) & ~(align - 1);
    const std::size_t pad = static_cast<std::size_t>(aligned - cur);
    if (cursor_ == nullptr || pad + bytes > remaining_) {
      grow(bytes + align);
      return allocate(bytes, align);
    }
    cursor_ += pad + bytes;
    remaining_ -= pad + bytes;
    return reinterpret_cast<void*>(aligned);
  }

  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }

 private:
  struct Chunk {
    std::byte* base = nullptr;
    std::size_t size = 0;
    bool mapped = false;  ///< mmap (true) vs ::operator new fallback
  };

  static constexpr std::size_t round_up(std::size_t n,
                                        std::size_t unit) noexcept {
    return (n + unit - 1) / unit * unit;
  }

  void grow(std::size_t min_bytes) {
    const std::size_t size =
        round_up(min_bytes > chunk_bytes_ ? min_bytes : chunk_bytes_,
                 kHugePage);
    Chunk c = map_chunk(size);
    chunks_.push_back(c);
    cursor_ = c.base;
    remaining_ = c.size;
  }

  static Chunk map_chunk(std::size_t size) {
#if defined(__linux__)
    // Over-map by one huge page, then trim so the kept region is 2 MiB
    // aligned — mmap only guarantees small-page alignment, and THP (in
    // madvise mode) backs 2 MiB-aligned extents only.
    void* raw = ::mmap(nullptr, size + kHugePage, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw != MAP_FAILED) {
      const auto addr = reinterpret_cast<std::uintptr_t>(raw);
      const std::uintptr_t aligned = round_up(addr, kHugePage);
      const std::size_t head = static_cast<std::size_t>(aligned - addr);
      if (head > 0) ::munmap(raw, head);
      const std::size_t tail = kHugePage - head;
      if (tail > 0) {
        ::munmap(reinterpret_cast<void*>(aligned + size), tail);
      }
      ::madvise(reinterpret_cast<void*>(aligned), size, MADV_HUGEPAGE);
      return Chunk{reinterpret_cast<std::byte*>(aligned), size, true};
    }
#endif
    return Chunk{static_cast<std::byte*>(::operator new(
                     size, std::align_val_t{alignof(std::max_align_t)})),
                 size, false};
  }

  static void release(const Chunk& c) noexcept {
#if defined(__linux__)
    if (c.mapped) {
      ::munmap(c.base, c.size);
      return;
    }
#endif
    ::operator delete(c.base, std::align_val_t{alignof(std::max_align_t)});
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::byte* cursor_ = nullptr;
  std::size_t remaining_ = 0;
};

/// Minimal std::allocator-compatible shim over a PageArena. A null arena
/// degrades to the global heap, so arena-aware containers work unchanged in
/// standalone use. deallocate() is a no-op under an arena — only hand this
/// to containers whose buffers live as long as the arena (the telemetry
/// rings: fixed capacity, never resized, never erased).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(PageArena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    if (arena_ == nullptr) ::operator delete(p);
  }

  [[nodiscard]] PageArena* arena() const noexcept { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  PageArena* arena_ = nullptr;
};

}  // namespace knots::core

// Fixed-capacity overwriting ring buffer.
//
// Backs the telemetry time-series store: appends are O(1), the newest
// `capacity` samples are retained, and windows are addressed oldest-first.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/check.hpp"

namespace knots {

/// `Alloc` customizes the backing storage (e.g. core::ArenaAllocator packs
/// a datacenter's telemetry rings onto huge pages); the buffer allocates
/// exactly once, at construction, and never reallocates.
template <typename T, typename Alloc = std::allocator<T>>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity, const Alloc& alloc = Alloc())
      : data_(capacity, alloc) {
    KNOTS_CHECK(capacity > 0);
  }

  /// Appends a value, overwriting the oldest when full.
  void push(const T& value) {
    data_[head_] = value;
    // Conditional wrap: capacity is runtime-sized, so `% size()` would be a
    // hardware divide on the hottest write path in the simulator.
    if (++head_ == data_.size()) head_ = 0;
    if (size_ < data_.size()) ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == data_.size(); }

  /// Element `i` counted from the oldest retained sample (0 = oldest).
  [[nodiscard]] const T& at(std::size_t i) const {
    KNOTS_CHECK(i < size_);
    const std::size_t start = (head_ + data_.size() - size_) % data_.size();
    return data_[(start + i) % data_.size()];
  }

  /// Most recently pushed element.
  [[nodiscard]] const T& back() const {
    KNOTS_CHECK(size_ > 0);
    return data_[head_ == 0 ? data_.size() - 1 : head_ - 1];
  }

  /// Oldest retained element.
  [[nodiscard]] const T& front() const { return at(0); }

  void clear() noexcept {
    size_ = 0;
    head_ = 0;
  }

  /// The retained elements as (at most) two contiguous spans, oldest-first:
  /// `first` covers logical indices [0, first.size()), `second` the rest.
  /// Zero-copy; invalidated by the next push(). `from` skips that many
  /// oldest elements.
  [[nodiscard]] std::pair<std::span<const T>, std::span<const T>> segments(
      std::size_t from = 0) const {
    if (from >= size_) return {};
    const std::size_t count = size_ - from;
    const std::size_t start =
        (head_ + data_.size() - size_ + from) % data_.size();
    const std::size_t tail = data_.size() - start;  // room before wrap
    if (count <= tail) {
      return {std::span<const T>(data_.data() + start, count),
              std::span<const T>()};
    }
    return {std::span<const T>(data_.data() + start, tail),
            std::span<const T>(data_.data(), count - tail)};
  }

  /// Copies the newest `n` elements (or all if fewer), oldest-first.
  [[nodiscard]] std::vector<T> last(std::size_t n) const {
    const std::size_t count = n < size_ ? n : size_;
    std::vector<T> out;
    out.reserve(count);
    for (std::size_t i = size_ - count; i < size_; ++i) out.push_back(at(i));
    return out;
  }

 private:
  std::vector<T, Alloc> data_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace knots

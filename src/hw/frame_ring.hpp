// A bounded FIFO of frames for a link's downstream buffer.
//
// A link holds at most `max` frames, but most links of a large fabric
// never hold more than a few, and many never carry one.  The ring
// therefore allocates nothing until its first frame and then doubles its
// storage on demand, never past `max` slots: a link's memory follows the
// deepest queue it has actually seen.  One pointer and four 32-bit counts
// keep the empty ring — the common case at 4096 stations — at 24 bytes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "hw/frame.hpp"

namespace hpcvorx::hw {

class FrameRing {
 public:
  explicit FrameRing(std::size_t max) : max_(static_cast<std::uint32_t>(max)) {
    assert(max >= 1 && max <= std::numeric_limits<std::uint32_t>::max());
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated so far: 0 before the first frame, never above max.
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// The i-th frame from the head (0 = oldest).
  [[nodiscard]] const Frame& operator[](std::size_t i) const {
    assert(i < size_);
    return slots_[wrap(head_ + static_cast<std::uint32_t>(i))];
  }
  [[nodiscard]] const Frame& front() const { return (*this)[0]; }

  /// Appends `f`.  Precondition: size() < max.
  void push_back(Frame f) {
    assert(size_ < max_ && "FrameRing holds at most max frames");
    if (size_ == cap_) grow();
    slots_[wrap(head_ + size_)] = std::move(f);
    ++size_;
  }

  /// Removes and returns the oldest frame.
  Frame pop_front() {
    assert(size_ > 0);
    Frame f = std::move(slots_[head_]);  // leaves the slot's payload null
    head_ = wrap(head_ + 1);
    --size_;
    return f;
  }

  /// Drops every frame (and its payload); keeps the storage.
  void clear() {
    for (std::uint32_t i = 0; i < size_; ++i) slots_[wrap(head_ + i)] = Frame{};
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::uint32_t wrap(std::uint32_t i) const {
    return i < cap_ ? i : i - cap_;
  }
  // Full: re-lay the frames oldest-first into twice the slots (capped).
  void grow() {
    const std::uint32_t cap = std::min(std::max(2 * size_, 1u), max_);
    auto bigger = std::make_unique<Frame[]>(cap);
    for (std::uint32_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[wrap(head_ + i)]);
    }
    slots_ = std::move(bigger);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<Frame[]> slots_;
  std::uint32_t cap_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t max_;
};

}  // namespace hpcvorx::hw

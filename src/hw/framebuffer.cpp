#include "hw/framebuffer.hpp"

#include <algorithm>

#include "sim/fnv.hpp"

namespace hpcvorx::hw {

void FrameBuffer::write_bytes(std::size_t offset, std::span<const std::byte> data) {
  const std::size_t n = frame_bytes();
  for (std::size_t i = 0; i < data.size(); ++i) {
    pixels_[(offset + i) % n] = data[i];
  }
  bytes_written_ += data.size();
}

void FrameBuffer::write_length(std::size_t offset, std::size_t len) {
  (void)offset;
  bytes_written_ += len;
}

std::uint64_t FrameBuffer::checksum() const {
  std::uint64_t h = sim::kFnvOffset;
  for (std::byte b : pixels_) {
    h = sim::fnv1a_step(h, static_cast<std::uint64_t>(b));
  }
  return h;
}

}  // namespace hpcvorx::hw

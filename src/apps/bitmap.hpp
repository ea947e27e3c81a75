// Bitmap frame generation for the §4.1 real-time display experiments.
//
// "we obtained a rate of 3.2 Mbyte/sec, sufficient to refresh a 900x900
// pixel portion of a monochrome (bi-level black and white) display 30
// times per second from a remote processor."
//
// The source produces deterministic bi-level scanline bytes so the
// receiving frame buffer's contents can be checksummed end to end.
#pragma once

#include <cstdint>
#include <vector>

namespace hpcvorx::apps {

class BitmapSource {
 public:
  BitmapSource(int width = 900, int height = 900)
      : width_(width), height_(height) {}

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

  /// Bytes in one bi-level frame.
  [[nodiscard]] std::size_t frame_bytes() const {
    return (static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_) +
            7) /
           8;
  }

  /// `len` bytes of frame `frame` starting at `offset` (a moving pattern,
  /// so successive frames differ).
  [[nodiscard]] std::vector<std::byte> chunk(std::uint64_t frame,
                                             std::size_t offset,
                                             std::size_t len) const;

  /// chunk() into a caller-provided buffer (cleared first), so streaming
  /// senders can fill recycled hw::FramePool storage instead of minting a
  /// fresh vector per scan-line chunk.
  void chunk_into(std::uint64_t frame, std::size_t offset, std::size_t len,
                  std::vector<std::byte>& out) const;

 private:
  [[nodiscard]] std::byte byte_at(std::uint64_t frame, std::size_t index) const {
    // A cheap moving interference pattern.
    const std::uint64_t v =
        (index * 2654435761ULL) ^ (frame * 0x9e3779b97f4a7c15ULL) ^ (index >> 7);
    return static_cast<std::byte>(v & 0xff);
  }

  int width_;
  int height_;
};

}  // namespace hpcvorx::apps

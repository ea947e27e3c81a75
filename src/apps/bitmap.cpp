#include "apps/bitmap.hpp"

namespace hpcvorx::apps {

std::vector<std::byte> BitmapSource::chunk(std::uint64_t frame,
                                           std::size_t offset,
                                           std::size_t len) const {
  std::vector<std::byte> out;
  chunk_into(frame, offset, len, out);
  return out;
}

void BitmapSource::chunk_into(std::uint64_t frame, std::size_t offset,
                              std::size_t len,
                              std::vector<std::byte>& out) const {
  out.resize(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = byte_at(frame, offset + i);
}

}  // namespace hpcvorx::apps

// Tests for the workstation frame buffer and bitmap source.
#include <gtest/gtest.h>

#include "apps/bitmap.hpp"
#include "hw/framebuffer.hpp"

namespace hpcvorx::hw {
namespace {

TEST(FrameBuffer, GeometryAndFrameBytes) {
  FrameBuffer fb(900, 900);  // bi-level
  EXPECT_EQ(fb.frame_bytes(), (900u * 900u + 7) / 8);
  FrameBuffer deep(100, 100, 8);
  EXPECT_EQ(deep.frame_bytes(), 10000u);
}

TEST(FrameBuffer, WritesLandAtOffsets) {
  FrameBuffer fb(16, 16);  // 32 bytes
  std::vector<std::byte> chunk{std::byte{0xAA}, std::byte{0xBB}};
  fb.write_bytes(3, chunk);
  EXPECT_EQ(fb.pixels()[3], std::byte{0xAA});
  EXPECT_EQ(fb.pixels()[4], std::byte{0xBB});
  EXPECT_EQ(fb.bytes_written(), 2u);
}

TEST(FrameBuffer, OffsetsWrapPerFrame) {
  FrameBuffer fb(8, 8);  // 8 bytes
  std::vector<std::byte> chunk{std::byte{0x11}, std::byte{0x22}};
  fb.write_bytes(7, chunk);  // wraps: byte 7 then byte 0
  EXPECT_EQ(fb.pixels()[7], std::byte{0x11});
  EXPECT_EQ(fb.pixels()[0], std::byte{0x22});
}

TEST(FrameBuffer, FramesCompletedCountsFullRefreshes) {
  FrameBuffer fb(8, 8);
  std::vector<std::byte> full(8, std::byte{1});
  EXPECT_EQ(fb.frames_completed(), 0u);
  fb.write_bytes(0, full);
  EXPECT_EQ(fb.frames_completed(), 1u);
  fb.write_length(0, 20);  // timing-only accounting
  EXPECT_EQ(fb.frames_completed(), 3u);
}

TEST(FrameBuffer, ChecksumTracksContents) {
  FrameBuffer a(8, 8), b(8, 8);
  EXPECT_EQ(a.checksum(), b.checksum());
  std::vector<std::byte> chunk{std::byte{0xFF}};
  a.write_bytes(2, chunk);
  EXPECT_NE(a.checksum(), b.checksum());
  b.write_bytes(2, chunk);
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(BitmapSource, DeterministicAndFrameDependent) {
  apps::BitmapSource src(900, 900);
  EXPECT_EQ(src.frame_bytes(), (900u * 900u + 7) / 8);
  EXPECT_EQ(src.chunk(0, 100, 64), src.chunk(0, 100, 64));
  EXPECT_NE(src.chunk(0, 100, 64), src.chunk(1, 100, 64));
}

TEST(BitmapSource, ChunksTileTheFrameExactly) {
  apps::BitmapSource src(64, 64);  // 512 bytes
  // Reassemble the frame from chunks; checksum must match.
  FrameBuffer fb(64, 64);
  for (std::size_t off = 0; off < src.frame_bytes(); off += 100) {
    const std::size_t n = std::min<std::size_t>(100, src.frame_bytes() - off);
    fb.write_bytes(off, src.chunk(7, off, n));
  }
  FrameBuffer whole(64, 64);
  whole.write_bytes(0, src.chunk(7, 0, src.frame_bytes()));
  EXPECT_EQ(fb.checksum(), whole.checksum());
}

}  // namespace
}  // namespace hpcvorx::hw

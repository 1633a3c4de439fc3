// Determinism of the multithreaded render/export pipeline: every stage —
// composite sweep, banded rasterization, deflate/zlib, PNG framing — must
// produce byte-identical output for every thread count. Golden-image style
// checks run on the paper's Fig. 3 schedule; whole exports of the other
// figure schedules are pinned by test_golden_outputs.

#include <gtest/gtest.h>

#include <cstdlib>

#include "jedule/model/builder.hpp"
#include "jedule/model/composite.hpp"
#include "jedule/render/deflate.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/render/export.hpp"
#include "jedule/util/inflate.hpp"
#include "jedule/render/png.hpp"
#include "jedule/util/parallel.hpp"
#include "jedule/util/rng.hpp"

namespace jedule::render {
namespace {

const int kThreadCounts[] = {2, 8};

// Paper Fig. 3: an 8-host cluster where a 4-processor transfer overlaps the
// tail of an 8-processor computation, producing one composite task.
model::Schedule fig3_schedule() {
  return model::ScheduleBuilder()
      .cluster(0, "cluster-0", 8)
      .task("1", "computation", 0.0, 0.31)
      .on(0, 0, 8)
      .task("2", "transfer", 0.25, 0.50)
      .on(0, 2, 4)
      .build();
}

RenderOptions options_with_threads(int threads, int width = 640,
                                   int height = 400) {
  RenderOptions options;
  options.style.width = width;
  options.style.height = height;
  options.threads = threads;
  return options;
}

TEST(ParallelRender, Fig3PngAndPpmAreThreadCountInvariant) {
  const auto schedule = fig3_schedule();
  const std::string png1 =
      render_to_bytes(schedule, options_with_threads(1), "png");
  const std::string ppm1 =
      render_to_bytes(schedule, options_with_threads(1), "ppm");
  for (int threads : kThreadCounts) {
    EXPECT_EQ(render_to_bytes(schedule, options_with_threads(threads), "png"),
              png1)
        << threads << " threads";
    EXPECT_EQ(render_to_bytes(schedule, options_with_threads(threads), "ppm"),
              ppm1)
        << threads << " threads";
  }
}

TEST(ParallelRender, BandedRasterMatchesSerialPixels) {
  const auto schedule = fig3_schedule();
  const auto serial = render_raster(schedule, options_with_threads(1));
  for (int threads : kThreadCounts) {
    const auto banded =
        render_raster(schedule, options_with_threads(threads));
    ASSERT_EQ(banded.width(), serial.width());
    ASSERT_EQ(banded.height(), serial.height());
    EXPECT_EQ(banded.pixels(), serial.pixels()) << threads << " threads";
  }
  // More workers than pixel rows (and than cores) gives the same pixels.
  const auto tall =
      render_raster(schedule, options_with_threads(500, 160, 120));
  const auto tall1 = render_raster(schedule, options_with_threads(1, 160, 120));
  EXPECT_EQ(tall.pixels(), tall1.pixels());
}

TEST(ParallelRender, MaxThreadsPngIsByteIdentical) {
  // The band count is capped at the pool size; the bytes never depend on
  // it, whatever thread count is asked for.
  const auto schedule = fig3_schedule();
  EXPECT_EQ(render_to_bytes(schedule, options_with_threads(util::kMaxThreads),
                            "png"),
            render_to_bytes(schedule, options_with_threads(1), "png"));
}

TEST(ParallelRender, EncodePngIsThreadCountInvariant) {
  const auto schedule = fig3_schedule();
  const auto fb = render_raster(schedule, options_with_threads(1));
  const std::string serial = encode_png(fb, 1);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(encode_png(fb, threads), serial) << threads << " threads";
  }
  const auto decoded = decode_png(serial);
  EXPECT_EQ(decoded.width(), fb.width());
  EXPECT_EQ(decoded.height(), fb.height());
}

std::vector<std::uint8_t> mixed_test_data(std::size_t size) {
  // Compressible runs interleaved with noise, spanning several 256 KiB
  // deflate chunks so the parallel path is actually exercised.
  util::Rng rng(7);
  std::vector<std::uint8_t> data(size);
  std::size_t i = 0;
  while (i < size) {
    const std::size_t run = std::min<std::size_t>(
        size - i, static_cast<std::size_t>(1 + rng.uniform_int(0, 600)));
    if (rng.uniform_int(0, 3) == 0) {
      for (std::size_t k = 0; k < run; ++k) {
        data[i + k] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
    } else {
      const auto byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      for (std::size_t k = 0; k < run; ++k) data[i + k] = byte;
    }
    i += run;
  }
  return data;
}

TEST(ParallelDeflate, MultiChunkStreamsAreThreadCountInvariant) {
  const auto data = mixed_test_data((1u << 18) * 3 + 12345);
  const auto serial = deflate_compress(data.data(), data.size(), 1);
  const auto zserial = zlib_compress(data.data(), data.size(), 1);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(deflate_compress(data.data(), data.size(), threads), serial)
        << threads << " threads";
    EXPECT_EQ(zlib_compress(data.data(), data.size(), threads), zserial)
        << threads << " threads";
  }
  // And the stitched stream still decodes to the input.
  EXPECT_EQ(util::inflate_decompress(serial.data(), serial.size()), data);
  EXPECT_EQ(util::zlib_decompress(zserial.data(), zserial.size()), data);
}

TEST(ParallelDeflate, ChecksumCombineMatchesDirect) {
  const auto data = mixed_test_data(100000);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{517},
                            data.size() / 2, data.size() - 1, data.size()}) {
    const auto* head = data.data();
    const auto* tail = data.data() + split;
    const std::size_t tail_len = data.size() - split;
    EXPECT_EQ(adler32_combine(adler32(head, split), adler32(tail, tail_len),
                              tail_len),
              adler32(data.data(), data.size()))
        << "split " << split;
    EXPECT_EQ(crc32_combine(crc32(head, split), crc32(tail, tail_len),
                            tail_len),
              crc32(data.data(), data.size()))
        << "split " << split;
  }
}

TEST(ParallelDeflate, Crc32ParallelMatchesSerial) {
  const auto data = mixed_test_data((1u << 18) * 2 + 999);
  const auto expected = crc32(data.data(), data.size());
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(crc32_parallel(data.data(), data.size(), threads), expected)
        << threads << " threads";
  }
}

TEST(ParallelComposite, SweepIsThreadCountInvariant) {
  // Several clusters with overlapping multi-host tasks → multiple resources
  // per shard and composites crossing host boundaries.
  model::ScheduleBuilder builder;
  util::Rng rng(3);
  for (int c = 0; c < 4; ++c) builder.cluster(c, "c" + std::to_string(c), 16);
  int id = 0;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 40; ++i) {
      const double start = rng.uniform(0.0, 8.0);
      const int first = static_cast<int>(rng.uniform_int(0, 12));
      builder
          .task(std::to_string(id++), i % 2 ? "computation" : "transfer",
                start, start + rng.uniform(0.5, 3.0))
          .on(c, first, 1 + static_cast<int>(rng.uniform_int(0, 3)));
    }
  }
  const auto schedule = builder.build();
  const auto serial = model::synthesize_composites(schedule);
  ASSERT_FALSE(serial.empty());
  for (int threads : kThreadCounts) {
    const auto parallel =
        model::synthesize_composites(schedule, nullptr, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].task.id(), serial[i].task.id());
      EXPECT_EQ(parallel[i].member_ids, serial[i].member_ids);
      EXPECT_EQ(parallel[i].member_types, serial[i].member_types);
      EXPECT_DOUBLE_EQ(parallel[i].task.start_time(),
                       serial[i].task.start_time());
      EXPECT_DOUBLE_EQ(parallel[i].task.end_time(), serial[i].task.end_time());
    }
  }
}

TEST(ParallelFor, CoversEveryIndexOnceAndPropagatesExceptions) {
  std::vector<int> hits(1000, 0);
  util::parallel_for(hits.size(), 8,
                     [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);

  EXPECT_THROW(util::parallel_for(64, 4,
                                  [](std::size_t i) {
                                    if (i == 17) throw std::runtime_error("x");
                                  }),
               std::runtime_error);
}

TEST(ParallelFor, ThreadResolutionHonorsEnvironment) {
  ASSERT_GE(util::hardware_threads(), 1);
  EXPECT_EQ(util::resolve_threads(5), 5);
  ::setenv("JEDULE_THREADS", "3", 1);
  EXPECT_EQ(util::resolve_threads(0), 3);
  ::setenv("JEDULE_THREADS", "garbage", 1);
  EXPECT_EQ(util::resolve_threads(0), util::hardware_threads());
  // The cap holds for the environment too: above it counts as garbage.
  ::setenv("JEDULE_THREADS", std::to_string(util::kMaxThreads).c_str(), 1);
  EXPECT_EQ(util::resolve_threads(0), util::kMaxThreads);
  ::setenv("JEDULE_THREADS", std::to_string(util::kMaxThreads + 1).c_str(),
           1);
  EXPECT_EQ(util::resolve_threads(0), util::hardware_threads());
  ::setenv("JEDULE_THREADS", "65536", 1);
  EXPECT_EQ(util::resolve_threads(0), util::hardware_threads());
  ::unsetenv("JEDULE_THREADS");
  EXPECT_EQ(util::resolve_threads(0), util::hardware_threads());
  EXPECT_EQ(util::resolve_threads(-2), util::hardware_threads());
}

}  // namespace
}  // namespace jedule::render

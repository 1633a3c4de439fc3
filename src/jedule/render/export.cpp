#include "jedule/render/export.hpp"

#include <algorithm>

#include "jedule/render/gantt.hpp"
#include "jedule/render/raster_canvas.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::render {

Framebuffer render_raster(model::TaskView tasks,
                          const RenderOptions& options) {
  const GanttLayout layout = layout_gantt(tasks, options);
  Framebuffer fb(options.style.width, options.style.height);
  const int threads = options.resolved_threads();
  // Each band replays the whole paint sequence, so bands beyond the pool's
  // workers only add work. The bytes do not depend on the band count.
  const int bands =
      std::min({threads, util::hardware_threads(), fb.height()});
  if (bands <= 1) {
    RasterCanvas canvas(fb);
    paint_gantt(layout, canvas, options.style);
    return fb;
  }
  util::parallel_for(static_cast<std::size_t>(bands), threads,
                     [&](std::size_t b) {
    const int y0 = static_cast<int>(fb.height() * b / static_cast<std::size_t>(bands));
    const int y1 = static_cast<int>(fb.height() * (b + 1) / static_cast<std::size_t>(bands));
    Framebuffer band(fb.width(), y1 - y0);
    RasterCanvas canvas(band, y0, fb.height());
    paint_gantt(layout, canvas, options.style);
    // Bands cover disjoint row ranges, so workers can blit directly.
    fb.blit_rows(band, y0);
  });
  return fb;
}

}  // namespace jedule::render

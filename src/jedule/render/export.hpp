#pragma once

// Raster rendering entry point (paper Sec. II.D.2). Format dispatch lives
// in exporter.hpp — every output format is an Exporter registered with the
// ExporterRegistry; build a RenderOptions and call render_to_bytes /
// export_schedule from there, or render_raster below for direct
// framebuffer access.

#include "jedule/model/task_view.hpp"
#include "jedule/render/framebuffer.hpp"
#include "jedule/render/options.hpp"

namespace jedule::render {

/// Renders to an in-memory raster. The framebuffer is split into
/// horizontal bands painted concurrently by options.resolved_threads()
/// workers; every band replays the full paint sequence clipped to its
/// rows, so the pixels are byte-identical for every thread count (the
/// single-thread path paints the whole image directly).
Framebuffer render_raster(model::TaskView tasks,
                          const RenderOptions& options);

}  // namespace jedule::render

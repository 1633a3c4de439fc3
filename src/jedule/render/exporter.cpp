#include "jedule/render/exporter.hpp"

#include "jedule/io/file.hpp"
#include "jedule/render/ascii.hpp"
#include "jedule/render/deflate.hpp"
#include "jedule/render/export.hpp"
#include "jedule/render/pdf.hpp"
#include "jedule/render/png.hpp"
#include "jedule/render/ppm.hpp"
#include "jedule/render/svg.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::render {

namespace {

class PngExporter final : public Exporter {
 public:
  std::string name() const override { return "png"; }
  std::vector<std::string> extensions() const override { return {".png"}; }
  std::string description() const override {
    return "raster PNG (parallel band painting + chunked deflate)";
  }
  std::string render(const model::Schedule& schedule,
                     const RenderOptions& options) const override {
    return encode_png(render_raster(schedule, options),
                      options.resolved_threads());
  }
};

class PpmExporter final : public Exporter {
 public:
  std::string name() const override { return "ppm"; }
  std::vector<std::string> extensions() const override { return {".ppm"}; }
  std::string description() const override {
    return "binary PPM (P6) raster";
  }
  std::string render(const model::Schedule& schedule,
                     const RenderOptions& options) const override {
    return encode_ppm(render_raster(schedule, options));
  }
};

class SvgExporter final : public Exporter {
 public:
  std::string name() const override { return "svg"; }
  std::vector<std::string> extensions() const override { return {".svg"}; }
  std::string description() const override {
    return "scalable vector graphics";
  }
  std::string render(const model::Schedule& schedule,
                     const RenderOptions& options) const override {
    const GanttLayout layout = layout_gantt(schedule, options);
    SvgCanvas canvas(options.style.width, options.style.height);
    paint_gantt(layout, canvas, options.style);
    return canvas.finish();
  }
};

class SvgzExporter final : public Exporter {
 public:
  std::string name() const override { return "svgz"; }
  std::vector<std::string> extensions() const override {
    return {".svgz", ".svg.gz"};
  }
  std::string description() const override {
    return "gzip-compressed scalable vector graphics";
  }
  std::string render(const model::Schedule& schedule,
                     const RenderOptions& options) const override {
    const GanttLayout layout = layout_gantt(schedule, options);
    SvgCanvas canvas(options.style.width, options.style.height);
    paint_gantt(layout, canvas, options.style);
    const std::string svg = canvas.finish();
    const auto z =
        gzip_compress(reinterpret_cast<const std::uint8_t*>(svg.data()),
                      svg.size(), DeflateStrategy::dynamic,
                      options.resolved_threads());
    return std::string(reinterpret_cast<const char*>(z.data()), z.size());
  }
};

class PdfExporter final : public Exporter {
 public:
  std::string name() const override { return "pdf"; }
  std::vector<std::string> extensions() const override { return {".pdf"}; }
  std::string description() const override {
    return "single-page vector PDF (/FlateDecode content stream)";
  }
  std::string render(const model::Schedule& schedule,
                     const RenderOptions& options) const override {
    const GanttLayout layout = layout_gantt(schedule, options);
    PdfCanvas canvas(options.style.width, options.style.height);
    paint_gantt(layout, canvas, options.style);
    return canvas.finish(options.resolved_threads());
  }
};

class AsciiExporter final : public Exporter {
 public:
  std::string name() const override { return "ascii"; }
  std::vector<std::string> extensions() const override { return {".txt"}; }
  std::string description() const override {
    return "plain-text Gantt chart for terminals";
  }
  std::string render(const model::Schedule& schedule,
                     const RenderOptions& options) const override {
    AsciiOptions ascii;
    ascii.time_window = options.style.time_window;
    ascii.cluster_filter = options.style.cluster_filter;
    ascii.type_filter = options.style.type_filter;
    ascii.view_mode = options.style.view_mode;
    return render_ascii(schedule, ascii);
  }
};

}  // namespace

ExporterRegistry& ExporterRegistry::instance() {
  static ExporterRegistry* registry = [] {
    auto* r = new ExporterRegistry();
    r->register_exporter(std::make_unique<PngExporter>());
    r->register_exporter(std::make_unique<PpmExporter>());
    r->register_exporter(std::make_unique<SvgExporter>());
    r->register_exporter(std::make_unique<SvgzExporter>());
    r->register_exporter(std::make_unique<PdfExporter>());
    r->register_exporter(std::make_unique<AsciiExporter>());
    return r;
  }();
  return *registry;
}

void ExporterRegistry::register_exporter(std::unique_ptr<Exporter> exporter) {
  JED_ASSERT(exporter != nullptr);
  for (auto& e : exporters_) {
    if (e->name() == exporter->name()) {
      e = std::move(exporter);
      return;
    }
  }
  exporters_.push_back(std::move(exporter));
}

const Exporter* ExporterRegistry::find(const std::string& name) const {
  for (const auto& e : exporters_) {
    if (e->name() == name) return e.get();
  }
  return nullptr;
}

const Exporter* ExporterRegistry::find_for_path(const std::string& path) const {
  const std::string lower = util::to_lower(path);
  for (auto it = exporters_.rbegin(); it != exporters_.rend(); ++it) {
    for (const auto& ext : (*it)->extensions()) {
      if (util::ends_with(lower, util::to_lower(ext))) return it->get();
    }
  }
  return nullptr;
}

std::vector<std::string> ExporterRegistry::exporter_names() const {
  std::vector<std::string> names;
  names.reserve(exporters_.size());
  for (const auto& e : exporters_) names.push_back(e->name());
  return names;
}

std::vector<const Exporter*> ExporterRegistry::exporters() const {
  std::vector<const Exporter*> out;
  out.reserve(exporters_.size());
  for (const auto& e : exporters_) out.push_back(e.get());
  return out;
}

std::string ExporterRegistry::extension_summary() const {
  std::vector<std::string> exts;
  for (const auto& e : exporters_) {
    for (const auto& ext : e->extensions()) exts.push_back(ext);
  }
  return util::join(exts, " ");
}

const Exporter& ExporterRegistry::resolve(const std::string& format,
                                          const std::string& path) const {
  const Exporter* exporter =
      format.empty() ? find_for_path(path) : find(format);
  if (exporter != nullptr) return *exporter;
  std::vector<std::string> supported;
  for (const auto& e : exporters_) {
    supported.push_back(e->name() + " " + util::join(e->extensions(), " "));
  }
  const std::string what = format.empty() && !path.empty()
                               ? "'" + path + "'"
                               : "format '" + format + "'";
  throw ArgumentError("no exporter registered for " + what +
                      " (supported formats: " + util::join(supported, ", ") +
                      ")");
}

std::string render_to_bytes(const model::Schedule& schedule,
                            const RenderOptions& options,
                            const std::string& format) {
  return ExporterRegistry::instance().resolve(format).render(schedule,
                                                             options);
}

void export_schedule(const model::Schedule& schedule,
                     const RenderOptions& options, const std::string& path,
                     const std::string& format) {
  io::write_file(path, ExporterRegistry::instance()
                           .resolve(format, path)
                           .render(schedule, options));
}

}  // namespace jedule::render

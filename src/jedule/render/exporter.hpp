#pragma once

// Pluggable schedule exporters, the output-side mirror of the input-side
// ScheduleParser registry (paper Sec. II.C.1): every image format is an
// Exporter registered under a format name and a set of file extensions.
// The built-in PNG, PPM, SVG, PDF and ASCII exporters are pre-registered;
// a user extension registers the same way and immediately shows up in the
// CLI's format list and extension dispatch.

#include <memory>
#include <string>
#include <vector>

#include "jedule/model/schedule.hpp"
#include "jedule/render/options.hpp"

namespace jedule::render {

class Exporter {
 public:
  virtual ~Exporter() = default;

  /// Short unique format name ("png", "svg", "ascii", ...).
  virtual std::string name() const = 0;

  /// Extensions claimed by this exporter, each with the leading dot
  /// (".png"). Matching is case-insensitive.
  virtual std::vector<std::string> extensions() const = 0;

  /// One-line description for the CLI's format help.
  virtual std::string description() const = 0;

  /// Renders `schedule` and returns the complete file bytes.
  virtual std::string render(const model::Schedule& schedule,
                             const RenderOptions& options) const = 0;
};

class ExporterRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in exporters.
  static ExporterRegistry& instance();

  /// Registers an exporter; one with the same name replaces the old one.
  void register_exporter(std::unique_ptr<Exporter> exporter);

  /// Exporter by format name, or nullptr.
  const Exporter* find(const std::string& name) const;

  /// Exporter claiming `path`'s extension (case-insensitive), or nullptr.
  /// Later registrations win so user exporters can take over an extension.
  const Exporter* find_for_path(const std::string& path) const;

  std::vector<std::string> exporter_names() const;

  /// All registered exporters, in registration order.
  std::vector<const Exporter*> exporters() const;

  /// Space-separated list of every registered extension (".png .ppm ...").
  std::string extension_summary() const;

  /// The one exporter lookup every frontend shares: a nonempty `format`
  /// selects by name, otherwise `path`'s extension decides. Throws
  /// ArgumentError naming what was asked for, followed by
  /// "(supported formats: png .png, ...)".
  const Exporter& resolve(const std::string& format,
                          const std::string& path = "") const;

 private:
  std::vector<std::unique_ptr<Exporter>> exporters_;
};

/// Renders with the registered exporter named `format`; throws
/// ArgumentError (ExporterRegistry::resolve) when no such exporter exists.
std::string render_to_bytes(const model::Schedule& schedule,
                            const RenderOptions& options,
                            const std::string& format);

/// Renders and writes `path`. A nonempty `format` selects the exporter by
/// name; otherwise the (case-insensitive) extension decides. Throws
/// ArgumentError (ExporterRegistry::resolve) when nothing matches.
void export_schedule(const model::Schedule& schedule,
                     const RenderOptions& options, const std::string& path,
                     const std::string& format = "");

}  // namespace jedule::render

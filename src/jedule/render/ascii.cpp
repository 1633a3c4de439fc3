#include "jedule/render/ascii.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "jedule/util/error.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::render {

namespace {

using model::TimeRange;

char letter_for(std::map<std::string, char>& legend, const std::string& type) {
  auto it = legend.find(type);
  if (it != legend.end()) return it->second;
  // Prefer the type's initial; fall back to the alphabet on collisions.
  char candidate = type.empty() ? 'x' : type[0];
  if (candidate < 'a' || candidate > 'z') candidate = 'x';
  bool taken = false;
  for (const auto& [t, c] : legend) taken = taken || c == candidate;
  if (taken) {
    for (char c = 'a'; c <= 'z'; ++c) {
      bool used = false;
      for (const auto& [t, cc] : legend) used = used || cc == c;
      if (!used) {
        candidate = c;
        break;
      }
    }
  }
  legend[type] = candidate;
  return candidate;
}

}  // namespace

std::string render_ascii(model::TaskView tasks, const AsciiOptions& options) {
  if (!options.assume_validated) tasks.validate();
  if (options.width < 10) throw ArgumentError("ascii: width below 10");
  if (options.max_rows_per_cluster < 1) {
    throw ArgumentError("ascii: need at least one row per cluster");
  }

  std::map<std::string, char> legend;
  std::string out;

  for (const auto& cluster : tasks.clusters()) {
    if (!options.cluster_filter.empty() &&
        std::find(options.cluster_filter.begin(),
                  options.cluster_filter.end(),
                  cluster.id) == options.cluster_filter.end()) {
      continue;
    }
    auto range = tasks.view_time_range(cluster.id, options.view_mode);
    if (!range || range->length() <= 0) range = TimeRange{0, 1};
    const TimeRange window =
        options.time_window ? *options.time_window : *range;
    if (window.length() <= 0) throw ArgumentError("ascii: empty time window");

    const int rows = std::min(cluster.hosts, options.max_rows_per_cluster);
    const int hosts_per_row =
        (cluster.hosts + rows - 1) / rows;  // ceil division

    out += cluster.name + " (" + std::to_string(cluster.hosts) + " hosts";
    if (hosts_per_row > 1) {
      out += ", " + std::to_string(hosts_per_row) + " hosts/row";
    }
    out += ")\n";

    // cell[row][col] = 0 idle, '*' mixed, else the type letter.
    std::vector<std::string> cells(
        static_cast<std::size_t>(rows),
        std::string(static_cast<std::size_t>(options.width), 0));

    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const std::string& type = *tasks.type(i);
      if (!options.type_filter.empty() &&
          std::find(options.type_filter.begin(), options.type_filter.end(),
                    type) == options.type_filter.end()) {
        continue;
      }
      for (const model::ConfigRef cfg : tasks.configs(i)) {
        if (cfg.cluster_id != cluster.id) continue;
        const double t0 = std::max(tasks.start(i), window.begin);
        const double t1 = std::min(tasks.end(i), window.end);
        if (t1 <= t0) continue;
        int c0 = static_cast<int>((t0 - window.begin) / window.length() *
                                  options.width);
        int c1 = static_cast<int>((t1 - window.begin) / window.length() *
                                  options.width);
        c0 = std::clamp(c0, 0, options.width - 1);
        c1 = std::clamp(c1, c0, options.width - 1);
        const char letter = letter_for(legend, type);
        for (const auto& hr : cfg.hosts) {
          for (int h = hr.start; h < hr.start + hr.nb; ++h) {
            const int row = h / hosts_per_row;
            for (int c = c0; c <= c1; ++c) {
              char& cell = cells[static_cast<std::size_t>(row)]
                                [static_cast<std::size_t>(c)];
              if (cell == 0 || cell == letter) {
                cell = letter;
              } else {
                cell = '*';
              }
            }
          }
        }
      }
    }

    for (int row = 0; row < rows; ++row) {
      const int first = row * hosts_per_row;
      char label[16];
      std::snprintf(label, sizeof(label), "%4d |", first);
      out += label;
      for (char c : cells[static_cast<std::size_t>(row)]) {
        out += c == 0 ? '.' : c;
      }
      out += "|\n";
    }

    // Time axis: begin, middle, end markers, with enough decimals to
    // distinguish them at this window size.
    const int digits = window.length() < 1 ? 3 : window.length() < 100 ? 2 : 0;
    const std::string begin_label = util::format_fixed(window.begin, digits);
    const std::string mid_label = util::format_fixed(
        window.begin + window.length() / 2, digits);
    const std::string end_label = util::format_fixed(window.end, digits);
    std::string axis(static_cast<std::size_t>(options.width) + 7, ' ');
    axis.replace(6, begin_label.size(), begin_label);
    const std::size_t mid_pos =
        6 + static_cast<std::size_t>(options.width) / 2 -
        mid_label.size() / 2;
    if (mid_pos + mid_label.size() < axis.size()) {
      axis.replace(mid_pos, mid_label.size(), mid_label);
    }
    if (axis.size() > end_label.size()) {
      axis.replace(axis.size() - end_label.size() - 1, end_label.size(),
                   end_label);
    }
    out += axis + "\n\n";
  }

  if (options.show_legend && !legend.empty()) {
    out += "legend: ";
    std::vector<std::string> entries;
    for (const auto& [type, letter] : legend) {
      entries.push_back(std::string(1, letter) + "=" + type);
    }
    out += util::join(entries, "  ") + "  *=mixed  .=idle\n";
  }
  return out;
}

}  // namespace jedule::render

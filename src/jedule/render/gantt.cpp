#include "jedule/render/gantt.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <unordered_map>

#include "jedule/render/kernels.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::render {

namespace {

using model::Schedule;
using model::TaskView;
using model::TimeRange;

// Fixed chrome dimensions (pixels).
constexpr double kMarginLeft = 56;    // host labels
constexpr double kMarginRight = 14;
constexpr double kMarginTop = 8;
constexpr double kHeaderHeight = 18;  // meta line
constexpr double kTitleHeight = 16;   // per-panel cluster title
constexpr double kAxisHeight = 22;    // per-panel time axis
constexpr double kPanelGap = 10;

std::string format_tick(double v, double step) {
  // Enough decimals to distinguish consecutive ticks.
  int digits = 0;
  if (step < 1.0) {
    digits = static_cast<int>(std::ceil(-std::log10(step)));
    digits = std::clamp(digits, 0, 6);
  }
  return util::format_fixed(v, digits);
}

}  // namespace

std::vector<double> nice_ticks(const TimeRange& range, int about) {
  JED_ASSERT(about >= 2);
  std::vector<double> ticks;
  const double span = range.length();
  if (span <= 0) {
    ticks.push_back(range.begin);
    return ticks;
  }
  const double raw_step = span / about;
  const double mag = std::pow(10.0, std::floor(std::log10(raw_step)));
  double step = mag;
  for (double mult : {1.0, 2.0, 5.0, 10.0}) {
    if (mag * mult >= raw_step) {
      step = mag * mult;
      break;
    }
  }
  const double first = std::ceil(range.begin / step) * step;
  for (double t = first; t <= range.end + step * 1e-9; t += step) {
    // Snap values like 0.30000000000000004 back onto the grid.
    ticks.push_back(std::round(t / step) * step);
  }
  return ticks;
}

namespace {

bool type_selected(const GanttStyle& style, const std::string& type) {
  return style.type_filter.empty() ||
         std::find(style.type_filter.begin(), style.type_filter.end(),
                   type) != style.type_filter.end();
}

// The palette slots of one layout. Each distinct task type resolves
// through the colormap once, keyed by its interned pointer (Task::type()
// is interned, so equal types share one pointer), together with the type
// filter's verdict. Composite member-type sets and the highlight override
// are slots in the same table.
class Palette {
 public:
  struct Type {
    std::uint32_t slot = 0;
    bool selected = true;
  };

  Palette(const color::ColorMap& colormap, const GanttStyle& style,
          std::vector<color::TaskStyle>* styles)
      : colormap_(colormap), style_(style), styles_(styles) {}

  const Type& type(const std::string* name) {
    // A direct-mapped cache of resolved types in front of the map.
    auto& hit = cache_[(reinterpret_cast<std::uintptr_t>(name) >> 4) %
                       cache_.size()];
    if (hit.first == name) return *hit.second;
    auto [it, fresh] = types_.try_emplace(name);
    if (fresh) {
      it->second.slot = add(colormap_.style_for(*name));
      it->second.selected = type_selected(style_, *name);
    }
    hit = {name, &it->second};
    return it->second;
  }

  std::uint32_t composite(const std::set<std::string>& member_types) {
    auto it = composites_.find(member_types);
    if (it == composites_.end()) {
      it = composites_
               .emplace(member_types,
                        add(colormap_.composite_style(member_types)))
               .first;
    }
    return it->second;
  }

  std::uint32_t highlight() {
    if (!highlight_) {
      highlight_ = add(color::TaskStyle{
          color::contrast_color(style_.highlight_bg), style_.highlight_bg});
    }
    return *highlight_;
  }

 private:
  std::uint32_t add(const color::TaskStyle& s) {
    JED_ASSERT(styles_->size() < TaskBox::kMaxStyleSlots);
    styles_->push_back(s);
    return static_cast<std::uint32_t>(styles_->size() - 1);
  }

  const color::ColorMap& colormap_;
  const GanttStyle& style_;
  std::vector<color::TaskStyle>* styles_;
  std::array<std::pair<const std::string*, const Type*>, 64> cache_{};
  std::unordered_map<const std::string*, Type> types_;  // node-stable
  std::map<std::set<std::string>, std::uint32_t> composites_;
  std::optional<std::uint32_t> highlight_;
};

// Cluster id -> position in Schedule::clusters(): a table for small ids
// (the usual case), binary search for the rest. Unknown ids map to
// size(), so per-cluster arrays of size() + 1 take them without a branch.
class ClusterPositions {
 public:
  explicit ClusterPositions(const std::vector<model::Cluster>& clusters)
      : n_(clusters.size()) {
    constexpr int kDenseIds = 4096;
    int max_id = -1;
    for (const auto& c : clusters) {
      if (c.id >= 0 && c.id < kDenseIds) max_id = std::max(max_id, c.id);
    }
    dense_.assign(static_cast<std::size_t>(max_id + 1), n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const int id = clusters[i].id;
      if (id >= 0 && id <= max_id) {
        dense_[static_cast<std::size_t>(id)] = i;
      } else {
        sparse_.emplace_back(id, i);
      }
    }
    std::sort(sparse_.begin(), sparse_.end());
  }

  std::size_t size() const { return n_; }

  std::size_t operator()(int id) const {
    if (static_cast<unsigned>(id) < dense_.size()) {
      return dense_[static_cast<unsigned>(id)];
    }
    const auto it = std::lower_bound(
        sparse_.begin(), sparse_.end(), std::pair<int, std::size_t>{id, 0});
    return it != sparse_.end() && it->first == id ? it->second : n_;
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> dense_;
  std::vector<std::pair<int, std::size_t>> sparse_;
};

// Time bounds of every task, and per cluster (by position) of the tasks
// with a configuration in it.
struct ViewRanges {
  std::optional<TimeRange> global;
  std::vector<std::optional<TimeRange>> cluster;
};

ViewRanges view_ranges(const TaskView& tasks,
                       const ClusterPositions& position) {
  // Running bounds start at (+inf, -inf): the first task sets them exactly
  // as an explicit first-task initialization would.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = position.size();
  double lo = kInf, hi = -kInf;
  std::vector<double> cluster_lo(n + 1, kInf), cluster_hi(n + 1, -kInf);
  tasks.visit([&](const auto& rows) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const double b = rows.start(i);
      const double e = rows.end(i);
      lo = std::min(lo, b);
      hi = std::max(hi, e);
      for (const auto& cfg : rows.configs(i)) {
        const std::size_t p = position(cfg.cluster_id);
        cluster_lo[p] = std::min(cluster_lo[p], b);
        cluster_hi[p] = std::max(cluster_hi[p], e);
      }
    }
  });
  ViewRanges out;
  if (tasks.size() > 0) out.global = TimeRange{lo, hi};
  out.cluster.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster_lo[i] <= cluster_hi[i]) {
      out.cluster[i] = TimeRange{cluster_lo[i], cluster_hi[i]};
    }
  }
  return out;
}

// Closed-interval intersection count of (configuration x host range)
// entries against `win` for one cluster, stopping at `limit` — the LOD
// density probe when no TaskIndex is available.
std::size_t density_count(const TaskView& tasks, int cluster_id,
                          const TimeRange& win, std::size_t limit) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks.start(i) > win.end || tasks.end(i) < win.begin) continue;
    for (const model::ConfigRef cfg : tasks.configs(i)) {
      if (cfg.cluster_id != cluster_id) continue;
      n += cfg.hosts.size();
      if (n >= limit) return n;
    }
  }
  return n;
}

// Snap-aware box geometry: the classic path keeps the continuous
// panel-relative mapping; the snap path rounds to absolute integer pixel
// columns so tiles agree byte-for-byte across pans.
void set_box_times(TaskBox* box, const PanelLayout& panel, double t0,
                   double t1, const std::optional<SnapGrid>& snap) {
  if (snap) {
    const double b0 =
        std::floor((t0 - snap->anchor) * snap->cols_per_time + 0.5);
    const double b1 =
        std::floor((t1 - snap->anchor) * snap->cols_per_time + 0.5);
    box->x = panel.x + (b0 - static_cast<double>(snap->origin_col));
    box->w = b1 - b0;
  } else {
    box->x = panel.x_of_time(t0);
    box->w = panel.x_of_time(t1) - box->x;
  }
}

// `row_h` is the panel's row_height(), computed once per panel.
void set_box_hosts(TaskBox* box, const PanelLayout& panel, double row_h,
                   int host_start, int nb, const std::optional<SnapGrid>& snap) {
  if (snap) {
    const double y0 = panel.y + row_h * host_start;
    const double y1 = panel.y + row_h * (host_start + nb);
    box->y = std::floor(y0 + 0.5);
    box->h = std::floor(y1 + 0.5) - box->y;
  } else {
    // Bit-identical to the pre-index arithmetic (default exports must not
    // move by even a rounding ulp).
    box->y = panel.y + row_h * host_start;
    box->h = row_h * nb;
  }
}

// Collapses one panel into per-pixel-column density bins colored by the
// dominant task type of each (column x host-row) cell; vertical runs with
// the same dominant type merge into a single 1-column-wide box. Work and
// memory are O(columns x rows x types), independent of the task count.
void add_lod_bins(GanttLayout* layout, std::size_t panel_index,
                  const TaskView& tasks, Palette& palette,
                  const LayoutHints& hints) {
  const PanelLayout& panel = layout->panels[panel_index];
  const TimeRange win = panel.time_range;
  const double len = win.length();
  if (!(len > 0) || panel.hosts <= 0) return;

  const auto selected = [&](std::size_t i) {
    return palette.type(tasks.type(i)).selected;
  };
  // Entry stream: (begin, end, host span, type) of every visible
  // (configuration x host range) rectangle, via the index when present.
  const auto for_each_entry = [&](const std::function<void(
                                      double, double, int, int,
                                      const std::string*)>& fn) {
    if (hints.index != nullptr) {
      hints.index->query(
          panel.cluster_id, win.begin, win.end,
          [&](const model::TaskIndex::Entry& e) {
            if (!selected(e.task)) return;
            fn(e.begin, e.end, e.host_start, e.host_end, tasks.type(e.task));
          });
      return;
    }
    tasks.visit([&](const auto& rows) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const double b = rows.start(i), e = rows.end(i);
        if (b > win.end || e < win.begin || !selected(i)) continue;
        for (const auto& cfg : rows.configs(i)) {
          if (cfg.cluster_id != panel.cluster_id) continue;
          for (const auto& hr : cfg.hosts) {
            fn(b, e, hr.start, hr.start + hr.nb - 1, rows.type(i));
          }
        }
      }
    });
  };

  // Column mapping, in device-pixel units relative to panel.x.
  double col_w = 1.0;
  long long c_lo = 0, c_hi = 0;
  std::function<double(double)> col_of;
  if (hints.snap) {
    const SnapGrid g = *hints.snap;
    col_of = [g](double t) {
      return (t - g.anchor) * g.cols_per_time -
             static_cast<double>(g.origin_col);
    };
    c_lo = static_cast<long long>(std::floor(col_of(win.begin)));
    c_hi = static_cast<long long>(std::ceil(col_of(win.end)));
  } else {
    const long long cols = std::max<long long>(1, std::llround(panel.w));
    col_w = panel.w / static_cast<double>(cols);
    col_of = [win, len, cols](double t) {
      return (t - win.begin) / len * static_cast<double>(cols);
    };
    c_hi = cols;
  }
  if (c_hi <= c_lo) c_hi = c_lo + 1;
  const std::size_t ncols = static_cast<std::size_t>(c_hi - c_lo);

  // Host rows: at most one per device pixel, capped so the accumulation
  // grid stays small (bins are 1 column x >=1 row cells).
  const int rows = std::max(
      1, std::min({panel.hosts, static_cast<int>(panel.h), 256}));
  const double hosts_per_row =
      static_cast<double>(panel.hosts) / static_cast<double>(rows);

  // Pass 1: the distinct visible types, ordered by name so the dominance
  // tie-break is frame- and tile-invariant.
  std::vector<const std::string*> types;
  for_each_entry([&](double, double, int, int, const std::string* ty) {
    if (std::find(types.begin(), types.end(), ty) == types.end()) {
      types.push_back(ty);
    }
  });
  if (types.empty()) return;
  std::sort(types.begin(), types.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  const std::size_t ntypes = types.size();
  auto type_id = [&types](const std::string* ty) {
    return static_cast<std::size_t>(
        std::find(types.begin(), types.end(), ty) - types.begin());
  };

  // Pass 2: coverage (pixel-column overlap x host overlap) per cell/type.
  std::vector<float> cov(ncols * static_cast<std::size_t>(rows) * ntypes,
                         0.0f);
  for_each_entry([&](double b, double e, int h0, int h1,
                     const std::string* ty) {
    const double u0 = std::max(col_of(std::max(b, win.begin)),
                               static_cast<double>(c_lo));
    const double u1 = std::min(col_of(std::min(e, win.end)),
                               static_cast<double>(c_hi));
    if (!(u1 > u0)) return;
    const std::size_t tid = type_id(ty);
    int r0 = static_cast<int>(h0 / hosts_per_row);
    int r1 = static_cast<int>(h1 / hosts_per_row);
    r0 = std::clamp(r0, 0, rows - 1);
    r1 = std::clamp(r1, r0, rows - 1);
    const auto cc0 = static_cast<long long>(std::floor(u0));
    const auto cc1 = static_cast<long long>(std::ceil(u1));
    for (long long c = cc0; c < cc1; ++c) {
      const double tcov = std::min(u1, static_cast<double>(c) + 1) -
                          std::max(u0, static_cast<double>(c));
      if (!(tcov > 0)) continue;
      for (int r = r0; r <= r1; ++r) {
        const double rb0 = r * hosts_per_row;
        const double rb1 = (r + 1) * hosts_per_row;
        const double hcov = std::min<double>(h1 + 1, rb1) -
                            std::max<double>(h0, rb0);
        if (!(hcov > 0)) continue;
        cov[(static_cast<std::size_t>(c - c_lo) *
                 static_cast<std::size_t>(rows) +
             static_cast<std::size_t>(r)) *
                ntypes +
            tid] += static_cast<float>(tcov * hcov);
      }
    }
  });

  // Emit: dominant type per cell, vertical same-type runs merged.
  for (std::size_t c = 0; c < ncols; ++c) {
    int run_start = -1;
    std::size_t run_type = 0;
    auto flush = [&](int r_end) {
      if (run_start < 0) return;
      TaskBox box;
      box.task_index = TaskBox::kNoTask;
      box.lod_bin = 1;
      box.style_slot = palette.type(types[run_type]).slot;
      const double x =
          panel.x + static_cast<double>(c_lo + static_cast<long long>(c)) *
                        col_w;
      box.x = x;
      box.w = col_w;
      const double y0 = panel.y + panel.h * run_start / rows;
      const double y1 = panel.y + panel.h * r_end / rows;
      if (hints.snap) {
        box.y = std::floor(y0 + 0.5);
        box.h = std::floor(y1 + 0.5) - box.y;
      } else {
        box.y = y0;
        box.h = y1 - y0;
      }
      layout->boxes.push_back(box);
      run_start = -1;
    };
    for (int r = 0; r < rows; ++r) {
      const float* cell =
          &cov[(c * static_cast<std::size_t>(rows) +
                static_cast<std::size_t>(r)) *
               ntypes];
      std::size_t best = ntypes;  // ntypes == empty cell
      for (std::size_t ty = 0; ty < ntypes; ++ty) {
        if (cell[ty] > 0 && (best == ntypes || cell[ty] > cell[best])) {
          best = ty;
        }
      }
      if (best == ntypes) {
        flush(r);
        continue;
      }
      if (run_start >= 0 && best != run_type) flush(r);
      if (run_start < 0) {
        run_start = r;
        run_type = best;
      }
    }
    flush(rows);
  }
}

// --- Dependency-edge layout (DESIGN.md §4j) --------------------------------

// Liang-Barsky clip of the segment in `a` against [rx0, rx1] x [ry0, ry1].
// Returns false when nothing survives; sets a->head when the destination
// endpoint itself is inside the rect, so arrowheads only draw where the
// dependency actually lands.
bool clip_arrow(EdgeArrow* a, double rx0, double ry0, double rx1,
                double ry1) {
  double t0 = 0, t1 = 1;
  const double dx = a->x1 - a->x0;
  const double dy = a->y1 - a->y0;
  const double p[4] = {-dx, dx, -dy, dy};
  const double q[4] = {a->x0 - rx0, rx1 - a->x0, a->y0 - ry0, ry1 - a->y0};
  for (int i = 0; i < 4; ++i) {
    if (p[i] == 0) {
      if (q[i] < 0) return false;
      continue;
    }
    const double r = q[i] / p[i];
    if (p[i] < 0) {
      if (r > t1) return false;
      if (r > t0) t0 = r;
    } else {
      if (r < t0) return false;
      if (r < t1) t1 = r;
    }
  }
  const double x0 = a->x0 + t0 * dx;
  const double y0 = a->y0 + t0 * dy;
  const double x1 = a->x0 + t1 * dx;
  const double y1 = a->y0 + t1 * dy;
  a->x0 = x0;
  a->y0 = y0;
  a->x1 = x1;
  a->y1 = y1;
  a->head = t1 == 1.0;
  return true;
}

// Is (src, dst) a consecutive pair of the (ascending) critical path?
bool on_path(const std::vector<std::uint32_t>& path, std::uint32_t src,
             std::uint32_t dst) {
  const auto it = std::lower_bound(path.begin(), path.end(), src);
  return it != path.end() && *it == src && it + 1 != path.end() &&
         *(it + 1) == dst;
}

bool entry_before(const model::EdgeIndex::Entry& a,
                  const model::EdgeIndex::Entry& b) {
  if (a.begin != b.begin) return a.begin < b.begin;
  if (a.src != b.src) return a.src < b.src;
  return a.dst < b.dst;
}

// Edges per worker of the index-free pass: a smaller schedule is
// scanned on one thread.
constexpr std::size_t kEdgeBlock = std::size_t{1} << 15;

// Lays out dependency arrows / heat lanes for every panel. With an
// EdgeIndex hint a panel costs O(log n + visible); without one, one pass
// over the dependency columns feeds every panel (each edge reaches the
// panels of the clusters its endpoints are on) and produces the identical
// layout (same entries, same sort, same critical path — the differential
// tests rely on this). `scan_path` is the critical path when there is no
// index.
void layout_edges(GanttLayout* layout, const TaskView& tasks,
                  const GanttStyle& style, int threads,
                  const LayoutHints& hints,
                  const model::CriticalPath& scan_path) {
  const EdgeMode mode =
      style.edges == EdgeMode::kDefault ? EdgeMode::kAuto : style.edges;
  if (mode == EdgeMode::kOff) return;
  const model::EdgeIndex* index = hints.edge_index;
  if (index != nullptr && index->empty()) index = nullptr;
  if (index == nullptr && tasks.dep_count() == 0) return;

  // The critical path: persistent DP in the index, or the identical
  // O(n + m) recomputation (same CSR order, same tie-breaks).
  const std::vector<std::uint32_t>& path =
      index != nullptr ? index->critical_path() : scan_path.tasks;
  // One bit per task on the path: most edges leave a task off it, and a
  // bit test rules them out before on_path's binary search.
  std::vector<std::uint64_t> path_bits((tasks.size() + 63) / 64);
  for (const std::uint32_t v : path) path_bits[v >> 6] |= 1ull << (v & 63);
  const auto critical = [&](const model::EdgeIndex::Entry& e) {
    return (path_bits[e.src >> 6] >> (e.src & 63) & 1) != 0 &&
           on_path(path, e.src, e.dst);
  };

  // One panel's edges: arrows within the budget, a heat lane above it.
  using Entry = model::EdgeIndex::Entry;
  enum class Draw { kUndecided, kArrows, kHeat };
  struct PanelEdges {
    std::size_t pi = 0;
    const PanelLayout* panel = nullptr;
    long long cols = 1;  // pixel columns
    std::size_t budget = 0;
    Draw draw = Draw::kUndecided;
    double col_w = 1.0;
    long long c_lo = 0, c_hi = 0;  // heat columns
    std::vector<float> acc;        // one f32 count per heat column
    std::vector<Entry> visible;    // arrows while considered <= budget
    std::vector<Entry> crit;       // critical edges over a heat lane
    std::size_t considered = 0;
  };
  // Column mapping — the same device-pixel grid as the LOD bins.
  const SnapGrid* snap = hints.snap ? &*hints.snap : nullptr;
  const auto col_of = [snap](const PanelEdges& pe, double t) {
    if (snap != nullptr) {
      return (t - snap->anchor) * snap->cols_per_time -
             static_cast<double>(snap->origin_col);
    }
    const TimeRange win = pe.panel->time_range;
    return (t - win.begin) / win.length() * static_cast<double>(pe.cols);
  };
  std::vector<PanelEdges> panels;
  for (std::size_t pi = 0; pi < layout->panels.size(); ++pi) {
    const PanelLayout& panel = layout->panels[pi];
    if (!(panel.time_range.length() > 0) || panel.hosts <= 0) continue;
    PanelEdges pe;
    pe.pi = pi;
    pe.panel = &panel;
    pe.cols = std::max<long long>(1, std::llround(panel.w));
    pe.budget = static_cast<std::size_t>(pe.cols) *
                static_cast<std::size_t>(std::max(1, style.edge_density));
    if (mode == EdgeMode::kForce) pe.draw = Draw::kHeat;
    if (snap != nullptr) {
      pe.c_lo = static_cast<long long>(
          std::floor(col_of(pe, panel.time_range.begin)));
      pe.c_hi = static_cast<long long>(
          std::ceil(col_of(pe, panel.time_range.end)));
    } else {
      pe.col_w = panel.w / static_cast<double>(pe.cols);
      pe.c_hi = pe.cols;
    }
    if (pe.c_hi <= pe.c_lo) pe.c_hi = pe.c_lo + 1;
    pe.acc.assign(static_cast<std::size_t>(pe.c_hi - pe.c_lo), 0.0f);
    panels.push_back(std::move(pe));
  }

  // Index-free entries get their host rows only when kept.
  const auto with_hosts = [&](const PanelEdges& pe, Entry e) {
    if (index == nullptr) {
      e.src_host = tasks.first_host(e.src, pe.panel->cluster_id);
      e.dst_host = tasks.first_host(e.dst, pe.panel->cluster_id);
    }
    return e;
  };
  // Takes one entry meeting the panel's window: kept as an arrow while the
  // panel may draw arrows, counted into its lane while it may draw one.
  const auto take = [&](PanelEdges& pe, const Entry& e) {
    ++pe.considered;
    if (pe.draw == Draw::kArrows ||
        (pe.draw == Draw::kUndecided && pe.considered <= pe.budget)) {
      pe.visible.push_back(with_hosts(pe, e));
    }
    if (pe.draw == Draw::kArrows) return;
    const TimeRange win = pe.panel->time_range;
    heat_add_edge(pe.acc.data(), pe.c_lo, pe.c_hi,
                  std::max(col_of(pe, std::max(e.begin, win.begin)),
                           static_cast<double>(pe.c_lo)),
                  std::min(col_of(pe, std::min(e.end, win.end)),
                           static_cast<double>(pe.c_hi)));
    if (critical(e)) pe.crit.push_back(with_hosts(pe, e));
  };
  if (index != nullptr) {
    for (PanelEdges& pe : panels) {
      const TimeRange win = pe.panel->time_range;
      if (pe.draw == Draw::kUndecided) {
        pe.draw = index->count_upto(pe.panel->cluster_id, win.begin, win.end,
                                    pe.budget + 1) > pe.budget
                      ? Draw::kHeat
                      : Draw::kArrows;
      }
      index->query(pe.panel->cluster_id, win.begin, win.end,
                   [&](const Entry& e) { take(pe, e); });
    }
  } else {
    // Panels by cluster id, for the clusters each edge reaches.
    std::vector<std::pair<int, std::size_t>> by_cluster;
    for (std::size_t k = 0; k < panels.size(); ++k) {
      by_cluster.emplace_back(panels[k].panel->cluster_id, k);
    }
    std::sort(by_cluster.begin(), by_cluster.end());
    // The pass splits over the workers, each taking its edges into its
    // own copy of the panels: counts and kept entries merge exactly, so
    // the layout does not depend on the split.
    const std::size_t m = tasks.dep_count();
    const std::size_t parts = std::clamp<std::size_t>(
        m / kEdgeBlock, 1, static_cast<std::size_t>(std::max(1, threads)));
    std::vector<std::vector<PanelEdges>> split(parts, panels);
    util::parallel_for(parts, threads, [&](std::size_t p) {
      tasks.for_each_dependency_cluster(
          m * p / parts, m * (p + 1) / parts,
          [&](std::uint32_t src, std::uint32_t dst,
              std::span<const int> cids) {
            Entry e;
            e.begin = std::min(tasks.end(src), tasks.start(dst));
            e.end = std::max(tasks.end(src), tasks.start(dst));
            e.src = src;
            e.dst = dst;
            for (const int cid : cids) {
              auto it = std::lower_bound(by_cluster.begin(), by_cluster.end(),
                                         std::make_pair(cid, std::size_t{0}));
              for (; it != by_cluster.end() && it->first == cid; ++it) {
                PanelEdges& pe = split[p][it->second];
                const TimeRange win = pe.panel->time_range;
                if (e.begin > win.end || e.end < win.begin) continue;
                take(pe, e);
              }
            }
          });
    });
    for (std::size_t k = 0; k < panels.size(); ++k) {
      PanelEdges& to = panels[k];
      for (const std::vector<PanelEdges>& part : split) {
        const PanelEdges& from = part[k];
        to.considered += from.considered;
        for (std::size_t c = 0; c < to.acc.size(); ++c) {
          to.acc[c] += from.acc[c];
        }
        to.visible.insert(to.visible.end(), from.visible.begin(),
                          from.visible.end());
        to.crit.insert(to.crit.end(), from.crit.begin(), from.crit.end());
      }
    }
  }

  for (PanelEdges& pe : panels) {
    const PanelLayout& panel = *pe.panel;
    const double row_h = panel.row_height();
    const auto add_arrow = [&](const Entry& e, bool critical) {
      // Cross-cluster edges (an endpoint without a host row here) feed
      // the heat lane but have no arrow geometry in this panel.
      if (e.src_host < 0 || e.dst_host < 0) return;
      EdgeArrow a;
      a.x0 = panel.x_of_time(tasks.end(e.src));
      a.y0 = panel.y + row_h * (e.src_host + 0.5);
      a.x1 = panel.x_of_time(tasks.start(e.dst));
      a.y1 = panel.y + row_h * (e.dst_host + 0.5);
      a.critical = critical;
      if (!clip_arrow(&a, panel.x, panel.y, panel.x + panel.w,
                      panel.y + panel.h)) {
        return;
      }
      layout->edge_arrows.push_back(a);
      ++layout->edge_stats.arrows;
      if (critical) ++layout->edge_stats.critical_arrows;
    };
    layout->edge_stats.considered += pe.considered;
    if (pe.draw == Draw::kHeat ||
        (pe.draw == Draw::kUndecided && pe.considered > pe.budget)) {
      const std::size_t ncols = static_cast<std::size_t>(pe.c_hi - pe.c_lo);
      float maxv = 0.0f;
      for (const float v : pe.acc) maxv = std::max(maxv, v);
      if (maxv > 0.0f) {
        EdgeHeatLane lane;
        lane.panel_index = pe.pi;
        lane.col_w = pe.col_w;
        lane.x = panel.x + static_cast<double>(pe.c_lo) * pe.col_w;
        lane.h = std::min(6.0, panel.h);
        lane.y = panel.y + panel.h - lane.h;
        lane.levels.resize(ncols);
        kernels::active().heat_quantize(pe.acc.data(), ncols, 255.0f / maxv,
                                        lane.levels.data());
        for (const auto v : lane.levels) {
          if (v != 0) ++layout->edge_stats.heat_columns;
        }
        layout->edge_lanes.push_back(std::move(lane));
      }
      ++layout->edge_stats.heat_panels;
      std::sort(pe.crit.begin(), pe.crit.end(), entry_before);
      for (const Entry& e : pe.crit) add_arrow(e, true);
    } else {
      std::sort(pe.visible.begin(), pe.visible.end(), entry_before);
      for (const Entry& e : pe.visible) add_arrow(e, critical(e));
    }
  }
}

}  // namespace

void heat_add_edge(float* acc, long long c_lo, long long c_hi, double u0,
                   double u1) {
  auto b0 = static_cast<long long>(std::floor(u0));
  auto b1 = static_cast<long long>(std::ceil(u1));
  if (b1 <= b0) b1 = b0 + 1;
  b0 = std::clamp(b0, c_lo, c_hi);
  b1 = std::clamp(b1, c_lo, c_hi);
  if (b1 > b0) {
    kernels::active().heat_accum(acc + (b0 - c_lo),
                                 static_cast<std::size_t>(b1 - b0), 1.0f);
  }
}

GanttLayout layout_gantt(TaskView tasks, const color::ColorMap& colormap,
                         const GanttStyle& style, int threads,
                         const LayoutHints& hints) {
  if (!hints.assume_validated) tasks.validate();
  if (style.width < 160 || style.height < 120) {
    throw ArgumentError("gantt: canvas smaller than 160x120");
  }
  if (style.time_window && style.time_window->length() <= 0) {
    throw ArgumentError("gantt: empty time window");
  }

  // Edges drawn without an edge index need the critical path, an
  // O(n + m) pass over the dependency columns: a worker runs it while
  // the boxes are laid out.
  model::CriticalPath scan_path;
  util::TaskGroup path_group(threads);
  if (style.edges != EdgeMode::kOff && tasks.dep_count() > 0 &&
      (hints.edge_index == nullptr || hints.edge_index->empty())) {
    path_group.submit([&] { scan_path = model::critical_path(tasks); });
  }

  GanttLayout layout;
  layout.width = style.width;
  layout.height = style.height;
  layout.label_font_size = colormap.font_size_label();
  layout.min_label_font_size = colormap.min_font_size_label();
  layout.axes_font_size = colormap.font_size_axes();

  // Which clusters, in which order.
  const auto& clusters = tasks.clusters();
  std::vector<const model::Cluster*> shown;
  if (style.cluster_filter.empty()) {
    for (const auto& c : clusters) shown.push_back(&c);
  } else {
    for (int id : style.cluster_filter) {
      shown.push_back(&tasks.cluster_by_id(id));  // throws if unknown
    }
  }

  // Header.
  if (style.show_meta && !tasks.meta().empty()) {
    std::vector<std::string> parts;
    for (const auto& [k, v] : tasks.meta()) parts.push_back(k + "=" + v);
    layout.header = util::join(parts, "  ");
  }

  // Vertical space distribution: panel heights proportional to host counts.
  const double header = style.show_meta && !layout.header.empty()
                            ? kHeaderHeight
                            : 0.0;
  const double avail_y0 = kMarginTop + header;
  const double avail_h =
      style.height - avail_y0 -
      static_cast<double>(shown.size()) * (kTitleHeight + kAxisHeight) -
      static_cast<double>(shown.size() - 1) * kPanelGap - 6;
  if (avail_h < static_cast<double>(shown.size()) * 8) {
    throw ArgumentError("gantt: canvas too small for " +
                        std::to_string(shown.size()) + " cluster panels");
  }
  int total_hosts = 0;
  for (const auto* c : shown) total_hosts += c->hosts;

  // Panel windows: every cluster's bounds and the global bounds in one
  // pass over the tasks; the global range comes from the index when the
  // caller supplied one.
  const ClusterPositions position(clusters);
  ViewRanges ranges;
  if (!style.time_window) {
    ranges = view_ranges(tasks, position);
    if (hints.index != nullptr) ranges.global = hints.index->time_range();
  }

  const double panel_x = kMarginLeft;
  const double panel_w = style.width - kMarginLeft - kMarginRight;
  double cursor_y = avail_y0;
  for (const auto* c : shown) {
    PanelLayout panel;
    panel.cluster_id = c->id;
    panel.title = c->name + " (" + std::to_string(c->hosts) + " hosts)";
    panel.hosts = c->hosts;
    panel.x = panel_x;
    panel.w = panel_w;
    panel.y = cursor_y + kTitleHeight;
    panel.h = std::max(8.0, avail_h * c->hosts / std::max(1, total_hosts));

    if (style.time_window) {
      // Windowed views never consult the cluster bounds; skipping the
      // O(n) scan keeps warm interactive frames O(visible).
      panel.time_range = *style.time_window;
    } else {
      std::optional<TimeRange> range = ranges.global;
      if (style.view_mode == model::ViewMode::kScaled) {
        const auto& local =
            ranges.cluster[static_cast<std::size_t>(c - clusters.data())];
        if (local) range = local;
      }
      if (!range || range->length() <= 0) {
        range = TimeRange{0, 1};  // empty cluster: unit axis
      }
      panel.time_range = *range;
    }
    layout.panels.push_back(panel);
    cursor_y = panel.y + panel.h + kAxisHeight + kPanelGap;
  }

  layout.panel_lod.assign(layout.panels.size(), 0);

  // Per-panel LOD decision (the tile cache pre-decides per frame so all
  // tiles of one frame agree).
  const LodMode lod_mode =
      style.lod == LodMode::kDefault
          ? (hints.interactive ? LodMode::kAuto : LodMode::kOff)
          : style.lod;
  if (hints.panel_lod_override &&
      hints.panel_lod_override->size() == layout.panels.size()) {
    layout.panel_lod = *hints.panel_lod_override;
  } else if (lod_mode == LodMode::kForce) {
    layout.panel_lod.assign(layout.panels.size(), 1);
  } else if (lod_mode == LodMode::kAuto) {
    for (std::size_t pi = 0; pi < layout.panels.size(); ++pi) {
      const PanelLayout& panel = layout.panels[pi];
      const auto cols =
          static_cast<std::size_t>(std::max<long long>(1, std::llround(panel.w)));
      const std::size_t limit =
          cols * static_cast<std::size_t>(std::max(1, style.lod_density));
      const std::size_t n =
          hints.index != nullptr
              ? hints.index->count_upto(panel.cluster_id,
                                        panel.time_range.begin,
                                        panel.time_range.end, limit + 1)
              : density_count(tasks, panel.cluster_id, panel.time_range,
                              limit + 1);
      layout.panel_lod[pi] = n > limit ? 1 : 0;
    }
  }
  const bool any_exact_panel =
      std::find(layout.panel_lod.begin(), layout.panel_lod.end(), 0) !=
      layout.panel_lod.end();

  // Ordinary tasks are laid out by schedule index; nothing is copied.
  // With an index and a time window, visit only the tasks intersecting the
  // window (closed intersection, a superset of what paints after clipping
  // — so the boxes match the full layout's).
  JED_ASSERT(tasks.size() < TaskBox::kNoTask);
  layout.tasks = tasks;
  Palette palette(colormap, style, &layout.styles);
  const auto selected = [&](std::uint32_t i) {
    return palette.type(tasks.type(i)).selected;
  };
  const bool cull = hints.index != nullptr && style.time_window.has_value();
  layout.culled = cull;
  std::vector<std::uint32_t> visible;
  if (cull) {
    for (std::size_t pi = 0; pi < layout.panels.size(); ++pi) {
      if (layout.panel_lod[pi]) continue;  // LOD panels draw bins, not boxes
      const PanelLayout& panel = layout.panels[pi];
      hints.index->collect_tasks(panel.cluster_id, panel.time_range.begin,
                                 panel.time_range.end, &visible);
    }
    std::sort(visible.begin(), visible.end());
    visible.erase(std::unique(visible.begin(), visible.end()), visible.end());
    layout.tasks_visited = visible.size();
  } else if (any_exact_panel) {
    layout.tasks_visited = tasks.size();
  }

  if (style.show_composites && any_exact_panel) {
    // Tasks whose selected members are swept as a schedule of their own,
    // when the sweep cannot filter an AoS schedule in place.
    std::vector<std::uint32_t> sweep;
    if (cull) {
      // Composite groups that intersect the window can be split (in time
      // or host ranges) by the events of any task overlapping their
      // members, so synthesize over the tasks intersecting the *extent*
      // of the visible set — the 1-hop closure that makes the culled
      // composites bit-identical to the full layout's inside the window.
      bool have = false;
      double lo = 0, hi = 0;
      for (std::uint32_t idx : visible) {
        if (!selected(idx)) continue;
        lo = have ? std::min(lo, tasks.start(idx)) : tasks.start(idx);
        hi = have ? std::max(hi, tasks.end(idx)) : tasks.end(idx);
        have = true;
      }
      if (have) {
        for (std::size_t pi = 0; pi < layout.panels.size(); ++pi) {
          if (layout.panel_lod[pi]) continue;
          hints.index->collect_tasks(layout.panels[pi].cluster_id, lo, hi,
                                     &sweep);
        }
        std::sort(sweep.begin(), sweep.end());
        sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
      }
    } else if (hints.composites != nullptr && style.type_filter.empty()) {
      // The engine's incrementally-maintained list (append_composites).
      layout.borrowed_composites = hints.composites;
    } else if (tasks.schedule() != nullptr) {
      std::function<bool(const model::Task&)> include;
      if (!style.type_filter.empty()) {
        include = [&style](const model::Task& t) {
          return type_selected(style, t.type());
        };
      }
      layout.owned_composites =
          model::synthesize_composites(*tasks.schedule(), include, threads);
    } else {
      sweep.resize(tasks.size());
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        sweep[i] = static_cast<std::uint32_t>(i);
      }
    }
    if (!sweep.empty()) {
      Schedule sub;
      for (const auto& c : clusters) sub.add_cluster(c);
      for (std::uint32_t idx : sweep) {
        if (selected(idx)) sub.add_task(tasks.task(idx));
      }
      layout.owned_composites =
          model::synthesize_composites(sub, nullptr, threads);
    }
  }
  const auto& composites = layout.composites();

  // Boxes. Ordinary tasks first, composites after (paint order == z-order).
  // Per cluster position: its exact panels (LOD panels draw bins) with
  // their row heights.
  std::vector<std::vector<std::pair<const PanelLayout*, double>>>
      exact_panels(position.size() + 1);
  for (std::size_t pi = 0; pi < layout.panels.size(); ++pi) {
    const PanelLayout& panel = layout.panels[pi];
    if (!layout.panel_lod[pi]) {
      exact_panels[position(panel.cluster_id)].emplace_back(
          &panel, panel.row_height());
    }
  }
  const auto add_boxes = [&](double start, double end, const auto& configs,
                             std::uint32_t index, bool composite,
                             std::uint32_t slot, bool highlighted) {
    for (const auto& cfg : configs) {
      for (const auto& [panel_ptr, row_h] :
           exact_panels[position(cfg.cluster_id)]) {
        const PanelLayout& panel = *panel_ptr;
        // Clip to the panel's time window.
        const double t0 = std::max(start, panel.time_range.begin);
        const double t1 = std::min(end, panel.time_range.end);
        if (t1 <= t0 && !(start == end && t0 == start)) continue;
        for (const auto& hr : cfg.hosts) {
          TaskBox box;
          box.task_index = index;
          set_box_times(&box, panel, t0, t1, hints.snap);
          set_box_hosts(&box, panel, row_h, hr.start, hr.nb, hints.snap);
          box.style_slot = slot;
          box.composite = composite ? 1 : 0;
          box.highlighted = highlighted ? 1 : 0;
          layout.boxes.push_back(box);
        }
      }
    }
  };
  const bool highlight = !style.highlight_key.empty();
  layout.boxes.reserve(layout.tasks_visited + composites.size());
  tasks.visit([&](const auto& rows) {
    const auto add_task = [&](std::uint32_t i) {
      const Palette::Type& type = palette.type(rows.type(i));
      if (!type.selected) return;
      bool highlighted = false;
      if (highlight) {
        const auto v = rows.property(i, style.highlight_key);
        highlighted = v && *v == style.highlight_value;
      }
      add_boxes(rows.start(i), rows.end(i), rows.configs(i), i, false,
                highlighted ? palette.highlight() : type.slot, highlighted);
    };
    if (cull) {
      for (std::uint32_t i : visible) add_task(i);
    } else if (any_exact_panel) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        add_task(static_cast<std::uint32_t>(i));
      }
    }
  });
  if (!hints.skip_lod_bins) {
    for (std::size_t pi = 0; pi < layout.panels.size(); ++pi) {
      if (layout.panel_lod[pi]) {
        add_lod_bins(&layout, pi, tasks, palette, hints);
      }
    }
  }
  JED_ASSERT(composites.size() < TaskBox::kNoTask);
  for (std::size_t k = 0; k < composites.size(); ++k) {
    const model::Composite& comp = composites[k];
    bool highlighted = false;
    if (highlight) {
      const auto v = model::composite_property(comp, style.highlight_key);
      highlighted = v && *v == style.highlight_value;
    }
    add_boxes(comp.task.start_time(), comp.task.end_time(),
              comp.task.configurations(), static_cast<std::uint32_t>(k), true,
              highlighted ? palette.highlight()
                          : palette.composite(comp.member_types),
              highlighted);
  }

  path_group.wait();
  layout_edges(&layout, tasks, style, threads, hints, scan_path);

  return layout;
}

namespace {

const color::Color kFrame{60, 60, 60, 255};
const color::Color kGrid{225, 225, 225, 255};
const color::Color kAxisText{30, 30, 30, 255};
const color::Color kOutline{0, 0, 0, 90};
const color::Color kEdgeLine{70, 70, 190, 255};
const color::Color kEdgeCritical{205, 30, 30, 255};
const color::Color kEdgeHeat{110, 40, 160, 255};  // alpha = quantized level

void paint_panel_chrome(const GanttLayout& layout, const PanelLayout& panel,
                        Canvas& canvas, const GanttStyle& style) {
  // Title.
  canvas.text(panel.x, panel.y - kTitleHeight + 2, panel.title, kAxisText,
              layout.axes_font_size);

  // Host grid lines + labels.
  const double row_h = panel.row_height();
  if (style.show_grid && row_h >= 4.0) {
    for (int h = 1; h < panel.hosts; ++h) {
      canvas.line(panel.x, panel.y + row_h * h, panel.x + panel.w,
                  panel.y + row_h * h, kGrid);
    }
  }
  const double label_h = canvas.text_height(layout.axes_font_size);
  const int label_stride =
      std::max(1, static_cast<int>(std::ceil((label_h + 2) / row_h)));
  for (int h = 0; h < panel.hosts; h += label_stride) {
    const std::string label = std::to_string(h);
    canvas.text(panel.x - canvas.text_width(label, layout.axes_font_size) - 5,
                panel.y + row_h * h + (row_h - label_h) / 2, label, kAxisText,
                layout.axes_font_size);
  }

  // Time axis.
  const auto ticks = nice_ticks(panel.time_range, style.time_ticks);
  const double step =
      ticks.size() >= 2 ? ticks[1] - ticks[0] : panel.time_range.length();
  const double axis_y = panel.y + panel.h;
  canvas.line(panel.x, axis_y, panel.x + panel.w, axis_y, kFrame);
  for (double t : ticks) {
    const double x = panel.x_of_time(t);
    canvas.line(x, axis_y, x, axis_y + 4, kFrame);
    const std::string label = format_tick(t, step);
    canvas.text(x - canvas.text_width(label, layout.axes_font_size) / 2,
                axis_y + 6, label, kAxisText, layout.axes_font_size);
  }

  // Frame on top of grid lines.
  canvas.stroke_rect(panel.x, panel.y, panel.w, panel.h, kFrame);
}

// Label fitting pre-check. Every canvas measures text monospaced, so a
// non-empty label is at least one glyph wide: a box that cannot hold one
// glyph (plus the 1 px margins) at either label size cannot show its
// label, and is skipped before its id is looked up — the painted bytes
// are the same as measuring every label.
class LabelFit {
 public:
  LabelFit(const GanttLayout& layout, const Canvas& canvas) {
    const int sizes[2] = {layout.label_font_size, layout.min_label_font_size};
    for (int i = 0; i < 2; ++i) {
      glyph_w_[i] = canvas.text_width("0", sizes[i]);
      glyph_h_[i] = canvas.text_height(sizes[i]);
    }
  }

  bool may_fit(const TaskBox& box) const {
    for (int i = 0; i < 2; ++i) {
      if (glyph_w_[i] + 2 <= box.w && glyph_h_[i] + 2 <= box.h) return true;
    }
    return false;
  }

 private:
  double glyph_w_[2] = {0, 0};
  double glyph_h_[2] = {0, 0};
};

void paint_box_label(const GanttLayout& layout, const TaskBox& box,
                     Canvas& canvas) {
  const std::string_view label = layout.label(box);
  if (label.empty()) return;
  // Label fitting (paper's fontsize_label / min_fontsize_label semantics):
  // try the preferred size, fall back to the minimum, else draw nothing.
  for (int size : {layout.label_font_size, layout.min_label_font_size}) {
    const double tw = canvas.text_width(label, size);
    const double th = canvas.text_height(size);
    if (tw + 2 <= box.w && th + 2 <= box.h) {
      canvas.text(box.x + (box.w - tw) / 2, box.y + (box.h - th) / 2, label,
                  layout.style_of(box).foreground, size);
      return;
    }
    if (size == layout.min_label_font_size) break;
  }
}

void paint_box(const GanttLayout& layout, const TaskBox& box, Canvas& canvas,
               const GanttStyle& style, const LabelFit* fit) {
  const color::TaskStyle& colors = layout.style_of(box);
  canvas.fill_rect(box.x, box.y, box.w, box.h, colors.background);
  if (box.w >= 3 && box.h >= 3) {
    canvas.stroke_rect(box.x, box.y, box.w, box.h, kOutline);
  }
  if (box.composite && style.hatch_composites && box.w >= 6 && box.h >= 6) {
    canvas.hatch_rect(box.x, box.y, box.w, box.h, 6, colors.foreground);
  }
  if (fit == nullptr || box.lod_bin || !fit->may_fit(box)) return;
  paint_box_label(layout, box, canvas);
}

}  // namespace

// Every public paint pass flushes before returning so callers can read
// the render target (or blit/move it) without knowing whether the canvas
// batches its primitives.

void paint_gantt_background(const GanttLayout& layout, Canvas& canvas) {
  canvas.fill_rect(0, 0, layout.width, layout.height, color::kWhite);
  paint_gantt_header(layout, canvas);
  canvas.flush();
}

void paint_gantt_header(const GanttLayout& layout, Canvas& canvas) {
  if (!layout.header.empty()) {
    canvas.text(kMarginLeft, kMarginTop, layout.header, kAxisText,
                layout.axes_font_size);
  }
  canvas.flush();
}

void paint_gantt_boxes(const GanttLayout& layout, Canvas& canvas,
                       const GanttStyle& style, bool with_labels) {
  const LabelFit fit(layout, canvas);
  const LabelFit* labels = with_labels && style.show_labels ? &fit : nullptr;
  for (const auto& box : layout.boxes) {
    paint_box(layout, box, canvas, style, labels);
  }
  canvas.flush();
}

void paint_gantt_labels(const GanttLayout& layout, Canvas& canvas,
                        const GanttStyle& style) {
  if (!style.show_labels) {
    canvas.flush();
    return;
  }
  const LabelFit fit(layout, canvas);
  for (const auto& box : layout.boxes) {
    if (box.lod_bin || !fit.may_fit(box)) continue;
    paint_box_label(layout, box, canvas);
  }
  canvas.flush();
}

void paint_gantt_chrome(const GanttLayout& layout, Canvas& canvas,
                        const GanttStyle& style) {
  // Chrome last so frames and axes stay crisp over task fills.
  for (const auto& panel : layout.panels) {
    paint_panel_chrome(layout, panel, canvas, style);
  }
  canvas.flush();
}

namespace {

void paint_edge_arrow(const EdgeArrow& a, Canvas& canvas, color::Color c) {
  canvas.line(a.x0, a.y0, a.x1, a.y1, c);
  if (!a.head) return;
  // Two barbs at the destination, +/-30 degrees off the reversed
  // direction (closed-form constants keep the geometry deterministic).
  const double dx = a.x0 - a.x1;
  const double dy = a.y0 - a.y1;
  const double len = std::hypot(dx, dy);
  if (!(len > 1e-9)) return;
  const double ux = dx / len;
  const double uy = dy / len;
  constexpr double kBarb = 4.0;
  constexpr double kCos = 0.8660254037844387;  // cos 30°
  constexpr double kSin = 0.5;                 // sin 30°
  canvas.line(a.x1, a.y1, a.x1 + kBarb * (ux * kCos - uy * kSin),
              a.y1 + kBarb * (ux * kSin + uy * kCos), c);
  canvas.line(a.x1, a.y1, a.x1 + kBarb * (ux * kCos + uy * kSin),
              a.y1 + kBarb * (-ux * kSin + uy * kCos), c);
}

}  // namespace

void paint_gantt_edges(const GanttLayout& layout, Canvas& canvas) {
  for (const auto& lane : layout.edge_lanes) {
    // Merge equal-level runs into single fills; zero columns draw nothing.
    std::size_t i = 0;
    while (i < lane.levels.size()) {
      const std::uint8_t v = lane.levels[i];
      std::size_t j = i + 1;
      while (j < lane.levels.size() && lane.levels[j] == v) ++j;
      if (v != 0) {
        color::Color c = kEdgeHeat;
        c.a = v;
        canvas.fill_rect(lane.x + lane.col_w * static_cast<double>(i),
                         lane.y, lane.col_w * static_cast<double>(j - i),
                         lane.h, c);
      }
      i = j;
    }
  }
  for (const auto& a : layout.edge_arrows) {
    if (!a.critical) paint_edge_arrow(a, canvas, kEdgeLine);
  }
  // Critical path on top, in its own color.
  for (const auto& a : layout.edge_arrows) {
    if (a.critical) paint_edge_arrow(a, canvas, kEdgeCritical);
  }
  canvas.flush();
}

void paint_gantt(const GanttLayout& layout, Canvas& canvas,
                 const GanttStyle& style) {
  paint_gantt_background(layout, canvas);
  paint_gantt_boxes(layout, canvas, style, /*with_labels=*/true);
  paint_gantt_edges(layout, canvas);
  paint_gantt_chrome(layout, canvas, style);
}

PanelExtent gantt_panel_extent(const GanttStyle& style) {
  return PanelExtent{kMarginLeft,
                     style.width - kMarginLeft - kMarginRight};
}

const TaskBox* hit_test(const GanttLayout& layout, double x, double y) {
  // Reverse order: composites and later boxes are drawn on top. Density
  // bins have no backing task, so they are transparent to hits.
  for (auto it = layout.boxes.rbegin(); it != layout.boxes.rend(); ++it) {
    if (it->lod_bin) continue;
    if (x >= it->x && x < it->x + std::max(it->w, 1.0) && y >= it->y &&
        y < it->y + std::max(it->h, 1.0)) {
      return &*it;
    }
  }
  return nullptr;
}

const PanelLayout* panel_at(const GanttLayout& layout, double x, double y) {
  for (const auto& panel : layout.panels) {
    if (x >= panel.x && x < panel.x + panel.w && y >= panel.y &&
        y < panel.y + panel.h) {
      return &panel;
    }
  }
  return nullptr;
}

}  // namespace jedule::render

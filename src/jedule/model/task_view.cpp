#include "jedule/model/task_view.hpp"

#include "jedule/util/error.hpp"

namespace jedule::model {

namespace {

const Schedule& empty_schedule() {
  static const Schedule kEmpty;
  return kEmpty;
}

}  // namespace

TaskView::TaskView() : TaskView(empty_schedule()) {}

TaskView::TaskView(const Schedule& schedule)
    : schedule_(&schedule),
      rows_(schedule.tasks().data()),
      size_(schedule.tasks().size()) {}

TaskView::TaskView(const ScheduleArena& arena)
    : aos_(false),
      arena_(&arena),
      cols_(arena.columns()),
      types_(arena.interned_types().data()),
      size_(arena.task_count()) {}

std::optional<std::string_view> ColumnRows::property(
    std::size_t i, std::string_view key) const {
  for (std::size_t p = cols->prop_off[i]; p < cols->prop_off[i + 1]; ++p) {
    const std::uint64_t* s = cols->prop_slices + 4 * p;
    if (std::string_view(cols->prop_pool + s[0], s[1]) == key) {
      return std::string_view(cols->prop_pool + s[2], s[3]);
    }
  }
  return std::nullopt;
}

Task TaskView::task(std::size_t i) const {
  return aos_ ? rows_[i] : arena_->task(i);
}

const std::vector<Cluster>& TaskView::clusters() const {
  return aos_ ? schedule_->clusters() : arena_->clusters();
}

const Cluster& TaskView::cluster_by_id(int id) const {
  if (aos_) return schedule_->cluster_by_id(id);
  for (const Cluster& c : arena_->clusters()) {
    if (c.id == id) return c;
  }
  throw ValidationError("unknown cluster id " + std::to_string(id));
}

bool TaskView::has_cluster(int id) const {
  if (aos_) return schedule_->has_cluster(id);
  for (const Cluster& c : arena_->clusters()) {
    if (c.id == id) return true;
  }
  return false;
}

const std::vector<std::pair<std::string, std::string>>& TaskView::meta()
    const {
  return aos_ ? schedule_->meta() : arena_->meta();
}

std::optional<TimeRange> TaskView::view_time_range(int cluster_id,
                                                   ViewMode mode) const {
  if (aos_) return schedule_->view_time_range(cluster_id, mode);
  if (mode == ViewMode::kScaled) {
    if (const auto local = arena_->cluster_time_range(cluster_id)) {
      return local;
    }
  }
  return arena_->time_range();
}

void TaskView::validate() const {
  if (aos_) {
    schedule_->validate();
  } else {
    arena_->validate();
  }
}

}  // namespace jedule::model

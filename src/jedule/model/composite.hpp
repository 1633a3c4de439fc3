#pragma once

// Composite-task synthesis (paper Sec. II.C.3, Fig. 3).
//
// When several tasks share a resource for some time, Jedule introduces a
// *composite task* covering exactly the shared region: its identifier is the
// concatenation of the member identifiers and its type is "composite".
//
// The sweep below finds, per resource, the maximal time intervals covered by
// two or more tasks with a constant member set, then merges equal
// (member-set, interval) segments of adjacent hosts of the same cluster into
// host ranges, yielding one composite task per maximal rectangle group.

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "jedule/model/schedule.hpp"
#include "jedule/model/task_view.hpp"

namespace jedule::model {

class TaskIndex;

struct Composite {
  Task task;                            // id, "composite" type, time, hosts
  std::vector<std::string> member_ids;  // sorted by schedule order
  std::set<std::string> member_types;   // distinct member types (for colors)
  // Sorted task indices of the members — the stable identity
  // append_composites merges on (task indices never move, the live-trace
  // path only appends).
  std::vector<std::size_t> member_indices;
};

/// Which tasks take part in a sweep, by task index (nullptr: all).
using TaskFilter = std::function<bool(std::size_t)>;

/// Synthesizes the composite tasks of either resident form. Intervals are
/// half-open: a task ending exactly when another starts does not overlap
/// it. `include` filters which tasks participate (default: all). When
/// `subset` is given (sorted, distinct task indices), only those tasks are
/// swept: the culled layout's window closure. Member indices are task
/// indices of `tasks` either way, so a subset keeps the order and ids a
/// schedule of just those tasks would give. The per-resource sweep runs
/// over up to `threads` workers, partitioned by (cluster, host) and merged
/// deterministically: the result is identical for every thread count and
/// for both forms.
std::vector<Composite> synthesize_composites(
    const TaskView& tasks, const TaskFilter& include = nullptr,
    int threads = 1, const std::vector<std::uint32_t>* subset = nullptr);

/// synthesize_composites over an AoS schedule with a per-Task filter; the
/// schedulers use it to e.g. ignore communication when checking compute
/// exclusivity.
std::vector<Composite> synthesize_composites(
    const Schedule& schedule,
    const std::function<bool(const Task&)>& include_task = nullptr,
    int threads = 1);

/// O(delta) composite maintenance for the live-trace append path:
/// `cached` must be the synthesize_composites/append_composites result for
/// the first `first_new` tasks of `tasks` under the *same* `include`
/// predicate, and `index` must cover all of `tasks` (the O(delta)-extended
/// TaskIndex). Returns the full composite list, byte-identical to
/// synthesize_composites over all of `tasks`.
///
/// Cost scales with the tail, not the schedule: a cut time t_cut is
/// lowered from the earliest new task start until no included task
/// strictly straddles it (each straddler can lower the cut once, and the
/// straddlers at the cut come from an index point query, not a scan).
/// Half-open intervals then guarantee no composite crosses the cut, so
/// cached composites ending at or before it are kept verbatim and only
/// the tasks at or after it — found through the index — are re-swept.
std::vector<Composite> append_composites(
    const TaskView& tasks, const TaskIndex& index,
    std::vector<Composite> cached, std::size_t first_new,
    const TaskFilter& include = nullptr, int threads = 1);

/// append_composites over an AoS schedule with a per-Task filter.
std::vector<Composite> append_composites(
    const Schedule& schedule, const TaskIndex& index,
    std::vector<Composite> cached, std::size_t first_new,
    const std::function<bool(const Task&)>& include_task = nullptr,
    int threads = 1);

/// True if two `include_task`-selected tasks ever share a resource. A
/// feasible single-occupancy schedule (DESIGN.md §6.5) has no conflicts.
bool has_resource_conflicts(
    const Schedule& schedule,
    const std::function<bool(const Task&)>& include_task = nullptr);

/// The property `key` of a composite as with_composites() writes it:
/// "members" (comma-joined member ids) and "member_types" (comma-joined
/// distinct member types) are joined on demand, any other key reads
/// `c.task`. nullopt when absent.
std::optional<std::string> composite_property(const Composite& c,
                                              std::string_view key);

/// `c.task` carrying the "members" and "member_types" properties.
Task composite_as_task(Composite c);

/// Copy of `schedule` with every composite appended as a task (see
/// composite_as_task), so exports keep the member information.
Schedule with_composites(const Schedule& schedule);

}  // namespace jedule::model

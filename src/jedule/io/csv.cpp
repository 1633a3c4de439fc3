#include "jedule/io/csv.hpp"

#include <algorithm>
#include <array>
#include <deque>

#include "jedule/io/file.hpp"
#include "jedule/model/id_table.hpp"
#include "jedule/model/task_view.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::io {

namespace {

using model::Configuration;
using model::HostRange;
using model::Schedule;
using model::Task;

Configuration parse_alloc(std::string_view spec, long line) {
  const auto colon = spec.find(':');
  if (colon == std::string_view::npos) {
    throw ParseError("alloc '" + std::string(spec) +
                         "' lacks the '<cluster>:' prefix",
                     line);
  }
  Configuration cfg;
  auto cluster = util::parse_int(spec.substr(0, colon));
  if (!cluster) {
    throw ParseError("bad cluster id in alloc '" + std::string(spec) + "'",
                     line);
  }
  cfg.cluster_id = static_cast<int>(*cluster);
  for (const auto& item : util::split(spec.substr(colon + 1), ';')) {
    const auto dash = item.find('-');
    if (dash == std::string::npos) {
      auto h = util::parse_int(item);
      if (!h) throw ParseError("bad host '" + item + "'", line);
      cfg.hosts.push_back(HostRange{static_cast<int>(*h), 1});
    } else {
      auto lo = util::parse_int(std::string_view(item).substr(0, dash));
      auto hi = util::parse_int(std::string_view(item).substr(dash + 1));
      if (!lo || !hi || *hi < *lo) {
        throw ParseError("bad host range '" + item + "'", line);
      }
      cfg.hosts.push_back(
          HostRange{static_cast<int>(*lo), static_cast<int>(*hi - *lo + 1)});
    }
  }
  if (cfg.hosts.empty()) {
    throw ParseError("alloc '" + std::string(spec) + "' lists no hosts",
                     line);
  }
  return cfg;
}

}  // namespace

model::Schedule read_schedule_csv(std::string_view csv_text) {
  Schedule schedule;
  bool have_clusters = false;
  bool have_header = false;
  // The optional sixth header column `deps` enables per-row dependency
  // cells: `;`-separated `<src_id>` or `<src_id>:<data>` references to
  // tasks on earlier rows.
  bool has_deps = false;
  int max_host = -1;
  std::vector<Task> tasks;
  model::IdTable ids;  // the ids of `tasks`, for deps and validate
  std::vector<model::Dependency> deps;

  long line_no = 0;
  for (const auto& raw : util::split(csv_text, '\n')) {
    ++line_no;
    const auto line = util::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const auto fields = util::split(line, ',');
    if (line[0] == '!') {
      if (fields[0] == "!cluster") {
        if (fields.size() != 4) {
          throw ParseError("!cluster needs id,name,hosts", line_no);
        }
        auto id = util::parse_int(fields[1]);
        auto hosts = util::parse_int(fields[3]);
        if (!id || !hosts) throw ParseError("bad !cluster line", line_no);
        schedule.add_cluster(static_cast<int>(*id), fields[2],
                             static_cast<int>(*hosts));
        have_clusters = true;
      } else if (fields[0] == "!meta") {
        if (fields.size() < 3) throw ParseError("!meta needs key,value", line_no);
        schedule.set_meta(fields[1], fields[2]);
      } else {
        throw ParseError("unknown directive '" + fields[0] + "'", line_no);
      }
      continue;
    }
    if (!have_header) {
      if (fields.size() < 5 || fields[0] != "task_id") {
        throw ParseError(
            "expected header 'task_id,type,start,end,allocs'", line_no);
      }
      has_deps = fields.size() >= 6 && fields[5] == "deps";
      have_header = true;
      continue;
    }
    const std::size_t expected = has_deps ? 6 : 5;
    if (fields.size() != expected) {
      throw ParseError("expected " + std::to_string(expected) +
                           " fields, got " + std::to_string(fields.size()),
                       line_no);
    }
    auto start = util::parse_double(fields[2]);
    auto end = util::parse_double(fields[3]);
    if (!start || !end) throw ParseError("bad start/end time", line_no);
    // Resolve before this row's id is registered, so a self-reference
    // reads as unknown (like the live-append path).
    const auto dst = static_cast<std::uint32_t>(tasks.size());
    if (has_deps && !fields[5].empty()) {
      for (const auto& token : util::split(fields[5], ';')) {
        if (token.empty()) continue;
        const util::DepToken dep = util::parse_dep_token(token);
        const std::uint32_t src =
            ids.find(model::AosRows{tasks.data()}, dep.id);
        if (src == model::IdTable::kMissing) {
          throw ParseError("task '" + fields[0] +
                               "' depends on unknown task '" +
                               std::string(dep.id) + "'",
                           line_no);
        }
        deps.push_back(model::Dependency{src, dst, dep.data});
      }
    }
    Task t(fields[0], fields[1], *start, *end);
    for (const auto& alloc : util::split(fields[4], '|')) {
      Configuration cfg = parse_alloc(alloc, line_no);
      for (const auto& r : cfg.hosts) {
        max_host = std::max(max_host, r.start + r.nb - 1);
      }
      t.add_configuration(std::move(cfg));
    }
    tasks.push_back(std::move(t));
    ids.insert(model::AosRows{tasks.data()}, dst);
  }

  if (!have_header) {
    throw ParseError("missing 'task_id,type,start,end,allocs' header");
  }
  if (!have_clusters) {
    schedule.add_cluster(0, "cluster-0", std::max(max_host + 1, 1));
  }
  for (auto& t : tasks) schedule.add_task(std::move(t));
  for (const auto& d : deps) schedule.add_dependency(d.src, d.dst, d.data);
  schedule.validate(1, ids);
  return schedule;
}

namespace {

// Result of one worker chunk of data lines: the tasks in file order plus
// the chunk-local max host index (for the inferred default cluster).
// Dependency cells stay raw (chunk-local task index, cell text): their
// ids can reference tasks in earlier chunks, so resolution waits for the
// in-order merge.
struct CsvChunk {
  std::vector<Task> tasks;
  std::vector<std::pair<std::size_t, std::string>> deps;
  int max_host = -1;
};

// Parses the data lines of `chunk` (complete lines; every chunk except
// possibly the last ends with '\n'), replicating the serial reader's line
// handling exactly. Line numbers are irrelevant here: any ParseError makes
// the caller rerun the serial parse, which re-derives the exact serial
// error. A directive line is legal input the chunked path cannot order
// correctly, so it bails through the same ParseError channel.
void parse_csv_chunk(std::string_view chunk, bool has_deps, CsvChunk* out) {
  TypeInternCache types;
  const std::size_t expected = has_deps ? 6 : 5;
  std::size_t pos = 0;
  while (pos < chunk.size()) {
    const std::size_t nl = chunk.find('\n', pos);
    const std::string_view seg =
        nl == std::string_view::npos ? chunk.substr(pos)
                                     : chunk.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? chunk.size() : nl + 1;

    const auto line = util::trim(seg);
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '!') {
      throw ParseError("directive after header needs the serial reader");
    }
    std::array<std::string_view, 6> f;
    std::size_t n = 0;
    std::size_t start = 0;
    bool overflow = false;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        if (n == expected) {
          overflow = true;
          break;
        }
        f[n++] = line.substr(start, i - start);
        start = i + 1;
      }
    }
    if (overflow || n != expected) throw ParseError("wrong field count");
    if (has_deps && !f[5].empty()) {
      out->deps.emplace_back(out->tasks.size(), std::string(f[5]));
    }
    const auto start_t = util::parse_double(f[2]);
    const auto end_t = util::parse_double(f[3]);
    if (!start_t || !end_t) throw ParseError("bad start/end time");
    Task t;
    t.set_id(std::string(f[0]));
    t.set_interned_type(types.intern(f[1]));
    t.set_times(*start_t, *end_t);
    const std::string_view allocs = f[4];
    std::size_t a = 0;
    for (std::size_t i = 0; i <= allocs.size(); ++i) {
      if (i == allocs.size() || allocs[i] == '|') {
        Configuration cfg = parse_alloc(allocs.substr(a, i - a), 0);
        for (const auto& r : cfg.hosts) {
          out->max_host = std::max(out->max_host, r.start + r.nb - 1);
        }
        t.add_configuration(std::move(cfg));
        a = i + 1;
      }
    }
    out->tasks.push_back(std::move(t));
  }
}

}  // namespace

model::Schedule read_schedule_csv_chunked(TextSource& src,
                                          const IngestOptions& opt,
                                          IngestStats* stats) {
  if (parse_serially(src, opt)) return read_schedule_csv(src.all());
  try {
    LineScanner scan(src);
    Schedule schedule;
    bool have_clusters = false;
    bool has_deps = false;

    // Serial pre-pass, identical to the serial reader: comments and
    // directives up to and including the header line, in file order.
    long line_no = 0;
    std::size_t pos = 0;
    std::size_t data_begin = LineScanner::npos;
    while (true) {
      const std::size_t nl = scan.find_newline(pos);
      const std::size_t line_end = nl == LineScanner::npos ? scan.size() : nl;
      const std::size_t next =
          nl == LineScanner::npos ? LineScanner::npos : nl + 1;
      ++line_no;
      const auto line = util::trim(scan.slice(pos, line_end));
      if (line.empty() || line[0] == '#') {
        // skip
      } else if (line[0] == '!') {
        const auto fields = util::split(line, ',');
        if (fields[0] == "!cluster") {
          if (fields.size() != 4) {
            throw ParseError("!cluster needs id,name,hosts", line_no);
          }
          auto id = util::parse_int(fields[1]);
          auto hosts = util::parse_int(fields[3]);
          if (!id || !hosts) throw ParseError("bad !cluster line", line_no);
          schedule.add_cluster(static_cast<int>(*id), fields[2],
                               static_cast<int>(*hosts));
          have_clusters = true;
        } else if (fields[0] == "!meta") {
          if (fields.size() < 3) {
            throw ParseError("!meta needs key,value", line_no);
          }
          schedule.set_meta(fields[1], fields[2]);
        } else {
          throw ParseError("unknown directive '" + fields[0] + "'", line_no);
        }
      } else {
        // First non-directive line: the header.
        const auto fields = util::split(line, ',');
        if (fields.size() < 5 || fields[0] != "task_id") {
          throw ParseError("expected header 'task_id,type,start,end,allocs'",
                           line_no);
        }
        has_deps = fields.size() >= 6 && fields[5] == "deps";
        data_begin = next;
        break;
      }
      if (next == LineScanner::npos) {
        throw ParseError("missing 'task_id,type,start,end,allocs' header");
      }
      pos = next;
    }

    // Data lines: deterministic byte-threshold chunks cut at newlines.
    std::deque<CsvChunk> outputs;
    util::TaskGroup group(opt.threads);
    submit_line_chunks(scan, data_begin, opt.target_chunk_bytes, group,
                       [&](std::string_view chunk) {
                         CsvChunk* out = &outputs.emplace_back();
                         return [chunk, has_deps, out] {
                           parse_csv_chunk(chunk, has_deps, out);
                         };
                       });
    group.wait();

    int max_host = -1;
    for (const auto& o : outputs) max_host = std::max(max_host, o.max_host);
    if (!have_clusters) {
      schedule.add_cluster(0, "cluster-0", std::max(max_host + 1, 1));
    }
    std::vector<std::vector<Task>> parts;
    std::vector<std::size_t> chunk_base;  // merged index of a chunk's row 0
    std::size_t merged = 0;
    for (auto& o : outputs) {
      chunk_base.push_back(merged);
      merged += o.tasks.size();
      parts.push_back(std::move(o.tasks));
    }
    schedule.append_tasks(std::move(parts), opt.threads);
    const model::AosRows rows{schedule.tasks().data()};
    const model::IdTable ids(rows, schedule.tasks().size(), opt.threads);
    if (has_deps) {
      // Resolve the raw dependency cells against the merged task order.
      // The serial reader only resolves against *earlier* rows; any cell
      // that would resolve differently (unknown id, forward reference)
      // bails to the serial rerun for its exact error message.
      for (std::size_t k = 0; k < outputs.size(); ++k) {
        for (const auto& [local, cell] : outputs[k].deps) {
          const auto dst = static_cast<std::uint32_t>(chunk_base[k] + local);
          for (const auto& token : util::split(cell, ';')) {
            if (token.empty()) continue;
            const util::DepToken dep = util::parse_dep_token(token);
            const std::uint32_t src = ids.find(rows, dep.id);
            if (src == model::IdTable::kMissing || src >= dst) {
              throw ParseError("dependency cell needs the serial reader");
            }
            schedule.add_dependency(src, dst, dep.data);
          }
        }
      }
    }
    if (stats != nullptr) {
      stats->chunks = outputs.size();
      stats->parallel = true;
    }
    schedule.validate(opt.threads, ids);
    return schedule;
  } catch (const ParseError&) {
    if (stats != nullptr) {
      stats->chunks = 0;
      stats->parallel = false;
    }
    return read_schedule_csv(src.all());
  }
}

model::Schedule load_schedule_csv(const std::string& path) {
  return read_schedule_csv(read_file(path));
}

std::string write_schedule_csv(const model::Schedule& schedule) {
  std::string out;
  for (const auto& c : schedule.clusters()) {
    out += "!cluster," + std::to_string(c.id) + "," + c.name + "," +
           std::to_string(c.hosts) + "\n";
  }
  for (const auto& [k, v] : schedule.meta()) {
    out += "!meta," + k + "," + v + "\n";
  }
  const bool has_deps = !schedule.dependencies().empty();
  std::vector<std::string> dep_cells;
  if (has_deps) {
    dep_cells.resize(schedule.tasks().size());
    for (const auto& d : schedule.dependencies()) {
      std::string& cell = dep_cells[d.dst];
      if (!cell.empty()) cell += ';';
      cell += schedule.tasks()[d.src].id();
      if (d.data != 0) cell += ":" + util::format_fixed(d.data, 6);
    }
  }
  out += has_deps ? "task_id,type,start,end,allocs,deps\n"
                  : "task_id,type,start,end,allocs\n";
  std::size_t row = 0;
  for (const auto& t : schedule.tasks()) {
    out += t.id() + "," + t.type() + "," +
           util::format_fixed(t.start_time(), 6) + "," +
           util::format_fixed(t.end_time(), 6) + ",";
    std::vector<std::string> allocs;
    for (const auto& cfg : t.configurations()) {
      std::string spec = std::to_string(cfg.cluster_id) + ":";
      std::vector<std::string> items;
      for (const auto& r : cfg.hosts) {
        items.push_back(r.nb == 1 ? std::to_string(r.start)
                                  : std::to_string(r.start) + "-" +
                                        std::to_string(r.start + r.nb - 1));
      }
      spec += util::join(items, ";");
      allocs.push_back(std::move(spec));
    }
    out += util::join(allocs, "|");
    if (has_deps) out += "," + dep_cells[row];
    out += "\n";
    ++row;
  }
  return out;
}

void save_schedule_csv(const model::Schedule& schedule,
                       const std::string& path) {
  write_file(path, write_schedule_csv(schedule));
}

}  // namespace jedule::io

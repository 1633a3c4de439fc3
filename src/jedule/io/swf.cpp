#include "jedule/io/swf.hpp"

#include <algorithm>
#include <deque>

#include "jedule/io/file.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::io {

int SwfTrace::max_procs() const {
  for (const char* key : {"MaxProcs", "MaxNodes"}) {
    auto it = header.find(key);
    if (it != header.end()) {
      if (auto v = util::parse_int(it->second)) return static_cast<int>(*v);
    }
  }
  int m = 0;
  for (const auto& j : jobs) m = std::max(m, j.allocated_procs);
  return m;
}

namespace {

// "; Key: Value" header comment; `line` is trimmed and starts with ';'.
void apply_header_line(std::string_view line, SwfTrace* trace) {
  const auto body = util::trim(line.substr(1));
  const auto colon = body.find(':');
  if (colon != std::string_view::npos) {
    const auto key = util::trim(body.substr(0, colon));
    const auto value = util::trim(body.substr(colon + 1));
    if (!key.empty()) {
      trace->header[std::string(key)] = std::string(value);
    }
  }
}

// One 18-field data line; `line` is trimmed and non-empty. Shared by the
// serial reader and the chunk workers, so both accept exactly the same
// lines (workers pass a dummy line number — any error they raise makes
// the caller rerun the serial parse, which re-derives the real one).
SwfJob parse_data_line(std::string_view line, long line_no) {
  const auto fields = util::split_ws(line);
  if (fields.size() < 18) {
    throw ParseError("SWF data line has " + std::to_string(fields.size()) +
                         " fields, expected 18",
                     line_no);
  }
  auto as_int = [&](std::size_t i) {
    auto v = util::parse_int(fields[i]);
    if (!v) throw ParseError("bad integer field '" + fields[i] + "'", line_no);
    return *v;
  };
  auto as_double = [&](std::size_t i) {
    auto v = util::parse_double(fields[i]);
    if (!v) throw ParseError("bad numeric field '" + fields[i] + "'", line_no);
    return *v;
  };
  SwfJob j;
  j.job_id = as_int(0);
  j.submit_time = as_double(1);
  j.wait_time = as_double(2);
  j.run_time = as_double(3);
  j.allocated_procs = static_cast<int>(as_int(4));
  j.avg_cpu_time = as_double(5);
  j.used_memory = as_double(6);
  j.requested_procs = static_cast<int>(as_int(7));
  j.requested_time = as_double(8);
  j.requested_memory = as_double(9);
  j.status = static_cast<int>(as_int(10));
  j.user_id = static_cast<int>(as_int(11));
  j.group_id = static_cast<int>(as_int(12));
  j.executable = static_cast<int>(as_int(13));
  j.queue = static_cast<int>(as_int(14));
  j.partition = static_cast<int>(as_int(15));
  j.preceding_job = as_int(16);
  j.think_time = as_double(17);
  return j;
}

// Data lines of one worker chunk (complete lines; every chunk except
// possibly the last ends with '\n'). A ';' header line here is legal
// input whose last-wins ordering the chunked path cannot honor, so it
// bails through the ParseError fallback channel.
void parse_swf_chunk(std::string_view chunk, std::vector<SwfJob>* out) {
  std::size_t pos = 0;
  while (pos < chunk.size()) {
    const std::size_t nl = chunk.find('\n', pos);
    const std::string_view seg =
        nl == std::string_view::npos ? chunk.substr(pos)
                                     : chunk.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? chunk.size() : nl + 1;
    const auto line = util::trim(seg);
    if (line.empty()) continue;
    if (line[0] == ';') {
      throw ParseError("header line after data needs the serial reader");
    }
    out->push_back(parse_data_line(line, 0));
  }
}

}  // namespace

SwfTrace read_swf(std::string_view text) {
  SwfTrace trace;
  long line_no = 0;
  for (const auto& raw : util::split(text, '\n')) {
    ++line_no;
    const auto line = util::trim(raw);
    if (line.empty()) continue;
    if (line[0] == ';') {
      apply_header_line(line, &trace);
      continue;
    }
    trace.jobs.push_back(parse_data_line(line, line_no));
  }
  return trace;
}

SwfTrace read_swf_chunked(TextSource& src, const IngestOptions& opt,
                          IngestStats* stats) {
  if (parse_serially(src, opt)) return read_swf(src.all());
  try {
    LineScanner scan(src);
    SwfTrace trace;

    // Serial pre-pass: the leading ';' header block, in file order.
    std::size_t pos = 0;
    std::size_t data_begin = LineScanner::npos;
    while (true) {
      const std::size_t nl = scan.find_newline(pos);
      const std::size_t line_end = nl == LineScanner::npos ? scan.size() : nl;
      const std::size_t next =
          nl == LineScanner::npos ? LineScanner::npos : nl + 1;
      const auto line = util::trim(scan.slice(pos, line_end));
      if (!line.empty()) {
        if (line[0] != ';') {
          data_begin = pos;  // first data line starts the chunked region
          break;
        }
        apply_header_line(line, &trace);
      }
      if (next == LineScanner::npos) break;  // header-only trace
      pos = next;
    }

    std::deque<std::vector<SwfJob>> outputs;
    util::TaskGroup group(opt.threads);
    submit_line_chunks(scan, data_begin, opt.target_chunk_bytes, group,
                       [&](std::string_view chunk) {
                         std::vector<SwfJob>* out = &outputs.emplace_back();
                         return [chunk, out] { parse_swf_chunk(chunk, out); };
                       });
    group.wait();

    std::size_t total = 0;
    for (const auto& o : outputs) total += o.size();
    trace.jobs.reserve(total);
    for (const auto& o : outputs) {
      trace.jobs.insert(trace.jobs.end(), o.begin(), o.end());
    }
    if (stats != nullptr) {
      stats->chunks = outputs.size();
      stats->parallel = true;
    }
    return trace;
  } catch (const ParseError&) {
    if (stats != nullptr) {
      stats->chunks = 0;
      stats->parallel = false;
    }
    return read_swf(src.all());
  }
}

SwfTrace load_swf(const std::string& path) { return read_swf(read_file(path)); }

std::string write_swf(const SwfTrace& trace) {
  std::string out;
  for (const auto& [k, v] : trace.header) {
    out += "; " + k + ": " + v + "\n";
  }
  auto num = [](double v) {
    // SWF stores integral values without decimals; keep that convention.
    if (v == static_cast<long long>(v)) {
      return std::to_string(static_cast<long long>(v));
    }
    return util::format_fixed(v, 2);
  };
  for (const auto& j : trace.jobs) {
    out += std::to_string(j.job_id) + " " + num(j.submit_time) + " " +
           num(j.wait_time) + " " + num(j.run_time) + " " +
           std::to_string(j.allocated_procs) + " " + num(j.avg_cpu_time) +
           " " + num(j.used_memory) + " " + std::to_string(j.requested_procs) +
           " " + num(j.requested_time) + " " + num(j.requested_memory) + " " +
           std::to_string(j.status) + " " + std::to_string(j.user_id) + " " +
           std::to_string(j.group_id) + " " + std::to_string(j.executable) +
           " " + std::to_string(j.queue) + " " + std::to_string(j.partition) +
           " " + std::to_string(j.preceding_job) + " " + num(j.think_time) +
           "\n";
  }
  return out;
}

void save_swf(const SwfTrace& trace, const std::string& path) {
  write_file(path, write_swf(trace));
}

}  // namespace jedule::io

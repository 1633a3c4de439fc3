#include "jedule/io/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "jedule/util/error.hpp"
#include "jedule/util/inflate.hpp"

namespace jedule::io {

namespace {

std::mutex g_counter_mu;
std::map<std::string, IngestCounters>& counter_map() {
  static auto* counters = new std::map<std::string, IngestCounters>();
  return *counters;
}

std::string format_mb(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / (1024.0 * 1024.0));
  return buf;
}

}  // namespace

void record_ingest(const IngestStats& stats) {
  std::lock_guard<std::mutex> lock(g_counter_mu);
  IngestCounters& c = counter_map()[stats.format];
  ++c.parses;
  if (stats.parallel) ++c.parallel_parses;
  c.bytes += stats.bytes;
  c.chunks += stats.chunks;
  c.parse_ms += stats.parse_ms;
  c.last_threads = stats.threads;
}

std::map<std::string, IngestCounters> ingest_counters() {
  std::lock_guard<std::mutex> lock(g_counter_mu);
  return counter_map();
}

std::string ingest_summary(const IngestStats& stats) {
  const double seconds = stats.parse_ms / 1000.0;
  const double rate =
      seconds > 0 ? static_cast<double>(stats.bytes) / seconds : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ingest: %s %s in %.1f ms (%s/s, %d thread(s), %zu chunk(s)%s%s)",
                stats.format.c_str(), format_mb(double(stats.bytes)).c_str(),
                stats.parse_ms, format_mb(rate).c_str(), stats.threads,
                stats.chunks, stats.gzip ? ", gzip" : "",
                stats.mapped_input ? ", mmap" : "");
  return buf;
}

// ---------------------------------------------------------------------------
// TextSource

TextSource::TextSource(std::string_view raw,
                       std::shared_ptr<const void> keepalive)
    : keepalive_(std::move(keepalive)), raw_(raw) {
  gzip_ = util::looks_like_gzip(raw_);
  if (gzip_) start_producer();
}

TextSource::TextSource(std::string raw) : owned_(std::move(raw)) {
  raw_ = owned_;
  gzip_ = util::looks_like_gzip(raw_);
  if (gzip_) start_producer();
}

TextSource::~TextSource() {
  if (producer_.joinable()) producer_.join();
}

void TextSource::start_producer() {
  // Buffer sized from the ISIZE trailer. The field is attacker-controlled,
  // so it is bounded by a generous expansion ceiling; a lying trailer only
  // costs one eager re-decode (run_eager_fallback), never memory blowup.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(raw_.data());
  const std::size_t hint = util::gzip_isize_hint(bytes, raw_.size());
  const std::size_t ceiling = raw_.size() * 1024 + (16u << 20);
  capacity_ = std::min(std::max<std::size_t>(hint, 4096), ceiling);
  buf_ = std::make_unique<std::uint8_t[]>(capacity_);
  producer_ = std::thread([this, bytes] {
    try {
      const auto n = util::gzip_decompress_bounded(
          bytes, raw_.size(), buf_.get(), capacity_, [this](std::size_t done) {
            std::lock_guard<std::mutex> lock(mu_);
            published_ = done;
            cv_.notify_all();
          });
      std::lock_guard<std::mutex> lock(mu_);
      if (n) {
        published_ = *n;
        done_ = true;
      } else {
        overflow_ = true;
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      error_ = std::current_exception();
    }
    cv_.notify_all();
  });
}

void TextSource::run_eager_fallback() {
  // The producer overflowed the bounded buffer (the ISIZE hint was wrong
  // mod 2^32). Decode eagerly into a second buffer; the first stays alive
  // so views already handed out keep their bytes.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(raw_.data());
  fallback_ = util::gzip_decompress(bytes, raw_.size());
  use_fallback_ = true;
  done_ = true;
  published_ = fallback_.size();
}

TextSource::View TextSource::wait_for(std::size_t target) {
  if (!gzip_) return {raw_.data(), raw_.size(), true};
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return done_ || overflow_ || error_ != nullptr || published_ >= target;
  });
  if (error_ != nullptr) std::rethrow_exception(error_);
  if (overflow_ && !use_fallback_) {
    // Producer has exited; safe to decode on this (the consumer) thread.
    lock.unlock();
    run_eager_fallback();
    lock.lock();
  }
  if (use_fallback_) {
    return {reinterpret_cast<const char*>(fallback_.data()), fallback_.size(),
            true};
  }
  return {reinterpret_cast<const char*>(buf_.get()), published_, done_};
}

std::string_view TextSource::all() {
  View v = wait_for(static_cast<std::size_t>(-1));
  return v.text();
}

// ---------------------------------------------------------------------------
// LineScanner

namespace {
constexpr std::size_t kScanGrowStep = 256u * 1024;
}  // namespace

LineScanner::LineScanner(TextSource& src) : src_(&src) { refresh(0); }

void LineScanner::refresh(std::size_t target) {
  TextSource::View v = src_->wait_for(target);
  view_ = v.text();
  complete_ = v.complete;
}

void LineScanner::ensure(std::size_t target) {
  while (!complete_ && view_.size() < target) refresh(target);
}

std::size_t LineScanner::find_newline(std::size_t from) {
  while (true) {
    if (from < view_.size()) {
      const void* hit =
          std::memchr(view_.data() + from, '\n', view_.size() - from);
      if (hit != nullptr) {
        return static_cast<std::size_t>(static_cast<const char*>(hit) -
                                        view_.data());
      }
      from = view_.size();
    }
    if (complete_) return npos;
    refresh(std::max(view_.size() + kScanGrowStep, from + 1));
  }
}

// ---------------------------------------------------------------------------
// Chunking

bool parse_serially(TextSource& src, const IngestOptions& opt) {
  if (opt.threads <= 1) return true;
  if (src.gzip()) return false;
  const TextSource::View head = src.wait_for(0);
  return head.complete && head.size < opt.min_parallel_bytes;
}

void submit_line_chunks(
    LineScanner& scan, std::size_t begin, std::size_t target_chunk_bytes,
    util::TaskGroup& group,
    const std::function<std::function<void()>(std::string_view)>& job_for) {
  if (begin == LineScanner::npos) return;
  while (true) {
    scan.ensure(begin + 1);
    if (scan.complete() && begin >= scan.size()) return;
    const std::size_t nl = scan.find_newline(begin + target_chunk_bytes);
    const std::size_t end = nl == LineScanner::npos ? scan.size() : nl + 1;
    group.submit(job_for(scan.slice(begin, end)));
    if (nl == LineScanner::npos) return;
    begin = end;
  }
}

}  // namespace jedule::io

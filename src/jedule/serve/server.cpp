#include "jedule/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "jedule/engine/events.hpp"
#include "jedule/engine/options.hpp"
#include "jedule/io/ingest.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::serve {

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

HttpResponse text_response(int status, std::string message) {
  if (!message.empty() && message.back() != '\n') message += '\n';
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(message);
  return resp;
}

HttpResponse json_response(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.media_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

std::string entry_json(const engine::ScheduleEntry& entry) {
  std::string out = "{\"id\":\"" + entry.id + "\"";
  out += ",\"source\":\"" + json_escape(entry.source) + "\"";
  out += ",\"tasks\":" + std::to_string(entry.task_count());
  out += ",\"clusters\":" + std::to_string(entry.tasks().clusters().size());
  out += ",\"time\":{\"begin\":" + std::to_string(entry.full_range.begin) +
         ",\"end\":" + std::to_string(entry.full_range.end) + "}}";
  return out;
}

std::string hex16(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

// Strong ETag for a render artifact: the entry's content hash, the digest
// of every render-affecting option, and the request shape (format, wire
// encoding, tile coordinates) — anything that changes the bytes changes
// the tag.
std::string artifact_etag(const engine::ScheduleEntry& entry,
                          std::uint64_t options_digest,
                          const std::string& shape) {
  return "\"" + hex16(entry.content_hash) + "-" + hex16(options_digest) +
         "-" + shape + "\"";
}

// RFC 9110 If-None-Match: a list of entity tags, or "*". Strong vs weak
// comparison collapses here because we only ever mint strong tags; a
// client echoing the tag back as W/"..." still matches on the opaque part.
bool if_none_match(const HttpRequest& request, const std::string& etag) {
  const auto it = request.headers.find("if-none-match");
  if (it == request.headers.end()) return false;
  for (const auto& part : util::split(it->second, ',')) {
    std::string_view tag = util::trim(part);
    if (tag == "*") return true;
    if (tag.rfind("W/", 0) == 0) tag = tag.substr(2);
    if (tag == etag) return true;
  }
  return false;
}

HttpResponse not_modified(const std::string& etag) {
  HttpResponse resp;
  resp.status = 304;
  resp.media_type.clear();
  resp.headers["ETag"] = etag;
  return resp;
}

// RFC 9110 Accept-Encoding: does the client accept gzip? A listed
// "gzip;q=0" is an explicit refusal; "*" matches gzip unless gzip itself
// appears with another q-value.
bool accepts_gzip(const HttpRequest& request) {
  const auto it = request.headers.find("accept-encoding");
  if (it == request.headers.end()) return false;
  bool wildcard_ok = false;
  for (const auto& part : util::split(it->second, ',')) {
    const std::string token = util::to_lower(util::trim(part));
    const std::size_t semi = token.find(';');
    const std::string coding{util::trim(token.substr(0, semi))};
    bool q_zero = false;
    if (semi != std::string::npos) {
      const std::size_t q = token.find("q=", semi);
      if (q != std::string::npos) {
        const std::string qv{util::trim(token.substr(q + 2))};
        q_zero = !qv.empty() &&
                 qv.find_first_not_of("0.") == std::string::npos;
      }
    }
    if (coding == "gzip") return !q_zero;
    if (coding == "*" && !q_zero) wildcard_ok = true;
  }
  return wildcard_ok;
}

long long parse_integer(const std::string& value, const char* name) {
  std::size_t digits = value.size();
  if (!value.empty() && (value[0] == '-' || value[0] == '+')) --digits;
  if (digits == 0 || digits > 18 ||
      value.find_first_not_of("0123456789", value[0] == '-' || value[0] == '+'
                                                ? 1
                                                : 0) != std::string::npos) {
    throw ArgumentError(std::string("tile ") + name +
                        " must be an integer (got '" + value + "')");
  }
  return std::stoll(value);
}

}  // namespace

Server::Server(Options opt)
    : opt_(std::move(opt)), store_(opt_.store), renders_(opt_.render) {}

Server::~Server() { stop(); }

void Server::start() {
  JED_ASSERT(listen_fd_ < 0);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw IoError(std::string("socket failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opt_.port));
  if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ArgumentError("serve host must be an IPv4 address (got '" +
                        opt_.host + "')");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("cannot listen on " + opt_.host + ":" +
                  std::to_string(opt_.port) + ": " + err);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  pool_ = std::make_unique<util::WorkerPool>(opt_.threads,
                                             opt_.queue_capacity);
  stopping_.store(false);
  listener_ = std::thread([this] { listen_loop(); });
}

void Server::stop() {
  stopping_.store(true);
  if (listener_.joinable()) listener_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (pool_) {
    pool_->drain();
    pool_->stop();
  }
}

void Server::listen_loop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout (re-check stopping_) or EINTR

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    timeval deadline{};
    deadline.tv_sec = opt_.request_timeout_ms / 1000;
    deadline.tv_usec = (opt_.request_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof(deadline));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof(deadline));

    const bool admitted =
        pool_->try_submit([this, fd] { serve_connection(fd); });
    if (admitted) {
      accepted_.fetch_add(1);
      continue;
    }
    // Admission queue full: shed the connection right here on the
    // listener thread instead of queueing unboundedly.
    rejected_429_.fetch_add(1);
    HttpResponse resp = text_response(
        429, "server busy: admission queue is full, retry shortly");
    resp.headers["Retry-After"] = "1";
    write_all(fd, serialize_response(resp));
    ::close(fd);
  }
}

void Server::serve_connection(int fd) {
  HttpResponse resp;
  bool have_response = true;
  try {
    const HttpRequest req = read_request(fd, opt_.max_body);
    resp = handle(req);
  } catch (const HttpError& e) {
    resp = text_response(e.status, e.message);
  } catch (const IoError&) {
    // Peer hung up before sending a full request: nothing to answer.
    have_response = false;
  } catch (const std::exception& e) {
    errors_.fetch_add(1);
    resp = text_response(500, std::string("internal error: ") + e.what());
  }
  if (have_response) {
    if (write_all(fd, serialize_response(resp))) {
      served_.fetch_add(1);
    } else {
      errors_.fetch_add(1);
    }
  }
  ::close(fd);
}

HttpResponse Server::handle(const HttpRequest& request) {
  try {
    const std::string& path = request.path;
    if (path == "/healthz") {
      if (request.method != "GET") return text_response(405, "use GET");
      return text_response(200, "ok");
    }
    if (path == "/stats") {
      if (request.method != "GET") return text_response(405, "use GET");
      return json_response(200, stats_json());
    }
    if (path == "/schedules") return handle_schedules(request);
    constexpr std::string_view kPrefix = "/schedules/";
    if (path.rfind(kPrefix, 0) == 0) {
      std::string rest = path.substr(kPrefix.size());
      const std::size_t slash = rest.find('/');
      std::string id = rest.substr(0, slash);
      std::string tail =
          slash == std::string::npos ? std::string() : rest.substr(slash + 1);
      if (id.empty()) return text_response(404, "missing schedule id");
      return handle_schedule_resource(request, id, tail);
    }
    return text_response(404, "no such resource: " + path);
  } catch (const HttpError& e) {
    return text_response(e.status, e.message);
  } catch (const ArgumentError& e) {
    return text_response(400, e.what());
  } catch (const ValidationError& e) {
    return text_response(400, e.what());
  } catch (const ParseError& e) {
    // Unrecognized or malformed trace content; the body mirrors the CLI
    // error, including the supported-format list for format mismatches.
    return text_response(415, e.what());
  } catch (const std::exception& e) {
    errors_.fetch_add(1);
    return text_response(500, std::string("internal error: ") + e.what());
  }
}

HttpResponse Server::handle_schedules(const HttpRequest& request) {
  if (request.method == "GET") {
    std::string body = "[";
    bool first = true;
    for (const auto& entry : store_.list()) {
      if (!first) body += ',';
      first = false;
      body += entry_json(*entry);
    }
    body += "]\n";
    return json_response(200, body);
  }
  if (request.method == "POST") {
    const std::string name = request.query_value("name").value_or("upload");
    const std::string format = request.query_value("format").value_or("");
    engine::EntryPtr entry = engine::parse_entry(request.body, name, format);
    const auto put = store_.put(std::move(entry));
    std::string body = "{\"id\":\"" + put.entry->id + "\"";
    body += ",\"tasks\":" + std::to_string(put.entry->task_count());
    body += ",\"deduplicated\":";
    body += put.deduplicated ? "true" : "false";
    body += "}\n";
    HttpResponse resp = json_response(put.deduplicated ? 200 : 201,
                                      std::move(body));
    resp.headers["Location"] = "/schedules/" + put.entry->id;
    return resp;
  }
  return text_response(405, "use GET or POST on /schedules");
}

HttpResponse Server::handle_schedule_resource(const HttpRequest& request,
                                              const std::string& id,
                                              const std::string& tail) {
  if (tail.empty()) {
    if (request.method == "DELETE") {
      if (!store_.erase(id)) {
        return text_response(404, "no schedule with id " + id);
      }
      HttpResponse resp;
      resp.status = 204;
      resp.media_type.clear();
      return resp;
    }
    if (request.method != "GET") {
      return text_response(405, "use GET or DELETE on /schedules/{id}");
    }
    const engine::EntryPtr entry = store_.find(id);
    if (!entry) return text_response(404, "no schedule with id " + id);
    return json_response(200, entry_json(*entry) + "\n");
  }

  if (tail == "events") {
    if (request.method != "POST") {
      return text_response(405, "use POST on /schedules/{id}/events");
    }
    const engine::EntryPtr base = store_.find(id);
    if (!base) return text_response(404, "no schedule with id " + id);
    const auto events = engine::parse_event_lines(request.body);
    if (events.empty()) {
      return text_response(400, "no events in request body");
    }
    // Entries are immutable: the append produces a *new* entry whose id
    // is the new content hash. The base entry stays addressable (and
    // LRU-evictable) so in-flight renders of the old state stay valid.
    const auto put = store_.put(engine::append_entry(base, events));
    std::string body = "{\"id\":\"" + put.entry->id + "\"";
    body += ",\"tasks\":" + std::to_string(put.entry->task_count());
    body += ",\"appended\":" + std::to_string(events.size());
    body += ",\"deduplicated\":";
    body += put.deduplicated ? "true" : "false";
    body += "}\n";
    HttpResponse resp =
        json_response(put.deduplicated ? 200 : 201, std::move(body));
    resp.headers["Location"] = "/schedules/" + put.entry->id;
    return resp;
  }

  if (request.method != "GET") return text_response(405, "use GET");
  const engine::EntryPtr entry = store_.find(id);
  if (!entry) return text_response(404, "no schedule with id " + id);

  auto query_lookup = [&request](const std::string& key) {
    return request.query_value(key);
  };

  if (tail.rfind("render.", 0) == 0) {
    const std::string format = tail.substr(7);
    try {
      render::ExporterRegistry::instance().resolve(format);
    } catch (const ArgumentError& e) {
      return text_response(415, e.what());
    }
    // Query parameters go through the same parser as CLI flags; "cmap" is
    // rejected there (no server-side file reads from request input).
    render::RenderOptions options =
        engine::render_options_from(query_lookup, /*allow_cmap_file=*/false);
    // Text-based bodies compress well and stay cheap to negotiate: svg and
    // ascii are gzip-encoded when the client accepts it (the compressed
    // bytes are cached by the render service, so only the first negotiated
    // request pays for deflate). Binary formats (png, pdf, svgz) are
    // already compressed and always go out as-is.
    const bool negotiable = format == "svg" || format == "ascii";
    const auto encoding = negotiable && accepts_gzip(request)
                              ? engine::RenderService::Encoding::gzip
                              : engine::RenderService::Encoding::identity;
    const std::string etag = artifact_etag(
        *entry, engine::RenderService::options_digest(options),
        encoding == engine::RenderService::Encoding::gzip ? format + ".gz"
                                                          : format);
    if (if_none_match(request, etag)) {
      not_modified_304_.fetch_add(1);
      HttpResponse resp = not_modified(etag);
      if (negotiable) resp.headers["Vary"] = "Accept-Encoding";
      return resp;
    }
    engine::RenderService::Artifact artifact =
        renders_.render(entry, std::move(options), format, encoding);
    HttpResponse resp;
    resp.media_type = artifact.media_type;
    resp.headers["ETag"] = etag;
    resp.headers["X-Cache"] = artifact.cache_hit ? "hit" : "miss";
    if (negotiable) resp.headers["Vary"] = "Accept-Encoding";
    // A .svgz body is a gzip stream by definition; label it so clients
    // transparently decompress to SVG.
    const bool gzip_wire =
        encoding == engine::RenderService::Encoding::gzip || format == "svgz";
    if (gzip_wire) resp.headers["Content-Encoding"] = "gzip";
    resp.body = *artifact.bytes;
    wire_bytes_.fetch_add(resp.body.size());
    raw_bytes_.fetch_add(artifact.raw_size);
    (gzip_wire ? gzip_responses_ : identity_responses_).fetch_add(1);
    return resp;
  }

  if (tail == "tile") {
    const auto x = request.query_value("x");
    const auto zoom = request.query_value("zoom");
    if (!x || !zoom) {
      throw ArgumentError("tile requires x and zoom query parameters");
    }
    const auto y = request.query_value("y");
    const long long tx = parse_integer(*x, "x");
    const long long ty = y ? parse_integer(*y, "y") : -1;
    const int tzoom = static_cast<int>(parse_integer(*zoom, "zoom"));
    render::RenderOptions options =
        engine::render_options_from(query_lookup, /*allow_cmap_file=*/false);
    // x/y/zoom are folded into the style inside render_tile, so they go
    // into the ETag's shape component instead of the options digest.
    const std::string etag = artifact_etag(
        *entry, engine::RenderService::options_digest(options),
        "tile." + std::to_string(tx) + "." + std::to_string(ty) + "." +
            std::to_string(tzoom));
    if (if_none_match(request, etag)) {
      not_modified_304_.fetch_add(1);
      return not_modified(etag);
    }
    engine::RenderService::Artifact artifact =
        renders_.render_tile(entry, tx, ty, tzoom, std::move(options));
    HttpResponse resp;
    resp.media_type = artifact.media_type;
    resp.headers["ETag"] = etag;
    resp.headers["X-Cache"] = artifact.cache_hit ? "hit" : "miss";
    resp.body = *artifact.bytes;
    wire_bytes_.fetch_add(resp.body.size());
    raw_bytes_.fetch_add(artifact.raw_size);
    identity_responses_.fetch_add(1);
    return resp;
  }

  return text_response(404, "no such resource under /schedules/" + id);
}

Server::Counters Server::counters() const {
  Counters c;
  c.accepted = accepted_.load();
  c.served = served_.load();
  c.rejected_429 = rejected_429_.load();
  c.errors = errors_.load();
  c.wire_bytes = wire_bytes_.load();
  c.raw_bytes = raw_bytes_.load();
  c.gzip_responses = gzip_responses_.load();
  c.identity_responses = identity_responses_.load();
  c.not_modified_304 = not_modified_304_.load();
  return c;
}

std::string Server::stats_json() const {
  const auto store_stats = store_.stats();
  const auto render_stats = renders_.stats();
  const Counters c = counters();

  std::string out = "{";
  out += "\"store\":{";
  out += "\"entries\":" + std::to_string(store_stats.entries);
  out += ",\"tasks\":" + std::to_string(store_stats.tasks);
  out += ",\"puts\":" + std::to_string(store_stats.puts);
  out += ",\"dedup_hits\":" + std::to_string(store_stats.dedup_hits);
  out += ",\"evictions\":" + std::to_string(store_stats.evictions);
  out += ",\"lookups\":" + std::to_string(store_stats.lookups);
  out += ",\"lookup_misses\":" + std::to_string(store_stats.lookup_misses);
  out += ",\"resident_mmap_bytes\":" +
         std::to_string(store_stats.resident_mmap_bytes);
  out += ",\"resident_heap_bytes\":" +
         std::to_string(store_stats.resident_heap_bytes);
  out += ",\"ingest_mapped_bytes\":" +
         std::to_string(store_stats.ingest_mapped_bytes);
  out += "},\"snapshot\":{";
  const io::SnapshotCounters snap = io::snapshot_counters();
  out += "\"saves\":" + std::to_string(snap.saves);
  out += ",\"save_bytes\":" + std::to_string(snap.save_bytes);
  out += ",\"loads\":" + std::to_string(snap.loads);
  out += ",\"load_bytes\":" + std::to_string(snap.load_bytes);
  out += "},\"ingest\":{";
  // Per-format chunked-parse counters (io::record_ingest): cumulative
  // parses, how many took the parallel path, decoded bytes, worker chunks,
  // wall time and the last resolved thread count.
  {
    bool first_fmt = true;
    for (const auto& [fmt, ic] : io::ingest_counters()) {
      if (!first_fmt) out += ',';
      first_fmt = false;
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.3f", ic.parse_ms);
      out += "\"" + fmt + "\":{";
      out += "\"parses\":" + std::to_string(ic.parses);
      out += ",\"parallel_parses\":" + std::to_string(ic.parallel_parses);
      out += ",\"bytes\":" + std::to_string(ic.bytes);
      out += ",\"chunks\":" + std::to_string(ic.chunks);
      out += ",\"parse_ms\":" + std::string(ms);
      out += ",\"last_threads\":" + std::to_string(ic.last_threads);
      out += "}";
    }
  }
  out += "},\"render\":{";
  out += "\"artifact_hits\":" + std::to_string(render_stats.artifact_hits);
  out += ",\"artifact_misses\":" + std::to_string(render_stats.artifact_misses);
  out +=
      ",\"artifact_evictions\":" + std::to_string(render_stats.artifact_evictions);
  out += ",\"artifact_entries\":" + std::to_string(render_stats.artifact_entries);
  out += ",\"artifact_bytes\":" + std::to_string(render_stats.artifact_bytes);
  out += ",\"edge_renders\":" + std::to_string(render_stats.edge_renders);
  out += ",\"edge_arrows\":" + std::to_string(render_stats.edge_arrows);
  out +=
      ",\"edge_heat_frames\":" + std::to_string(render_stats.edge_heat_frames);
  out += ",\"tile\":{";
  out += "\"hits\":" + std::to_string(render_stats.tile.hits);
  out += ",\"misses\":" + std::to_string(render_stats.tile.misses);
  out += ",\"evictions\":" + std::to_string(render_stats.tile.evictions);
  out += ",\"invalidations\":" + std::to_string(render_stats.tile.invalidations);
  out += "}},\"server\":{";
  out += "\"accepted\":" + std::to_string(c.accepted);
  out += ",\"served\":" + std::to_string(c.served);
  out += ",\"rejected_429\":" + std::to_string(c.rejected_429);
  out += ",\"errors\":" + std::to_string(c.errors);
  out += ",\"queue_depth\":" + std::to_string(pool_ ? pool_->queued() : 0);
  out += ",\"threads\":" + std::to_string(pool_ ? pool_->threads() : 0);
  out += "},\"encoding\":{";
  out += "\"wire_bytes\":" + std::to_string(c.wire_bytes);
  out += ",\"raw_bytes\":" + std::to_string(c.raw_bytes);
  out += ",\"gzip_responses\":" + std::to_string(c.gzip_responses);
  out += ",\"identity_responses\":" + std::to_string(c.identity_responses);
  out += ",\"not_modified_304\":" + std::to_string(c.not_modified_304);
  out += "}}\n";
  return out;
}

}  // namespace jedule::serve

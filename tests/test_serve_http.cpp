// `jedule serve` integration: a real Server on an ephemeral loopback port
// driven through raw sockets (upload -> render -> tile roundtrip, dedup,
// artifact-cache hits, 404/405/415/400 mapping, malformed-request fuzz,
// 429 backpressure, graceful stop), plus direct handle() routing tests.
// Runs under the tsan ctest configuration.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "jedule/io/jedule_xml.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/serve/http.hpp"
#include "jedule/serve/server.hpp"
#include "jedule/util/inflate.hpp"

namespace jedule::serve {
namespace {

model::Schedule sample_schedule(double shift = 0.0) {
  model::ScheduleBuilder builder;
  builder.cluster(0, "c0", 8).cluster(1, "c1", 4);
  for (int i = 0; i < 12; ++i) {
    const double start = shift + i;
    builder
        .task(std::to_string(i), i % 2 ? "computation" : "transfer", start,
              start + 2.0)
        .on(i % 2, i % 3, 2);
  }
  return builder.build();
}

std::string sample_xml(double shift = 0.0) {
  return io::write_schedule_xml(sample_schedule(shift));
}

/// Blocking loopback client: one connected socket per exchange
/// (Connection: close), exposed stepwise so tests can hold half-open
/// connections for the backpressure case.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return connected_; }

  void send(const std::string& bytes) {
    ASSERT_TRUE(write_all(fd_, bytes));
  }

  /// Reads until the server closes the connection.
  std::string read_to_eof() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

struct RawResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lower-cased names
  std::string body;
};

RawResponse parse_response(const std::string& raw) {
  RawResponse resp;
  const std::size_t head_end = raw.find("\r\n\r\n");
  EXPECT_NE(head_end, std::string::npos) << "incomplete response: " << raw;
  if (head_end == std::string::npos) return resp;
  const std::string head = raw.substr(0, head_end);
  resp.body = raw.substr(head_end + 4);

  std::size_t line_end = head.find("\r\n");
  const std::string status_line = head.substr(0, line_end);
  EXPECT_EQ(status_line.rfind("HTTP/1.1 ", 0), 0u) << status_line;
  resp.status = std::stoi(status_line.substr(9, 3));

  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    line_end = head.find("\r\n", pos);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(pos, line_end - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(::tolower(c));
      std::size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      resp.headers[name] = line.substr(v);
    }
    pos = line_end + 2;
  }
  return resp;
}

std::string format_request(
    const std::string& method, const std::string& target,
    const std::string& body = "",
    const std::vector<std::string>& extra_headers = {}) {
  std::string req = method + " " + target + " HTTP/1.1\r\n";
  req += "Host: 127.0.0.1\r\n";
  for (const auto& header : extra_headers) req += header + "\r\n";
  if (!body.empty() || method == "POST") {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n";
  req += body;
  return req;
}

/// One full exchange against the server.
RawResponse fetch(int port, const std::string& method,
                  const std::string& target, const std::string& body = "",
                  const std::vector<std::string>& extra_headers = {}) {
  Client client(port);
  EXPECT_TRUE(client.connected());
  client.send(format_request(method, target, body, extra_headers));
  return parse_response(client.read_to_eof());
}

/// Pulls the id out of an upload response body ({"id":"...",...}).
std::string id_of(const RawResponse& resp) {
  const std::size_t key = resp.body.find("\"id\":\"");
  EXPECT_NE(key, std::string::npos) << resp.body;
  if (key == std::string::npos) return "";
  const std::size_t start = key + 6;
  return resp.body.substr(start, resp.body.find('"', start) - start);
}

bool looks_like_png(const std::string& bytes) {
  return bytes.size() > 8 && bytes.compare(0, 4, "\x89PNG") == 0;
}

class ServeHttp : public ::testing::Test {
 protected:
  void SetUp() override {
    Server::Options opt;
    opt.threads = 2;
    opt.queue_capacity = 8;
    opt.request_timeout_ms = 5000;
    server_ = std::make_unique<Server>(opt);
    server_->start();
    ASSERT_GT(server_->port(), 0);
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<Server> server_;
};

TEST_F(ServeHttp, HealthAndStats) {
  const auto health = fetch(server_->port(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const auto stats = fetch(server_->port(), "GET", "/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.headers.at("content-type").find("application/json"),
            std::string::npos);
  for (const char* key :
       {"\"store\"", "\"render\"", "\"server\"", "\"artifact_hits\"",
        "\"rejected_429\"", "\"queue_depth\"", "\"resident_mmap_bytes\"",
        "\"resident_heap_bytes\"", "\"snapshot\"", "\"not_modified_304\""}) {
    EXPECT_NE(stats.body.find(key), std::string::npos) << key;
  }
}

TEST_F(ServeHttp, UploadRenderTileRoundtrip) {
  const auto upload = fetch(server_->port(), "POST",
                            "/schedules?name=trace.jed", sample_xml());
  ASSERT_EQ(upload.status, 201);
  const std::string id = id_of(upload);
  ASSERT_EQ(id.size(), 16u);
  EXPECT_EQ(upload.headers.at("location"), "/schedules/" + id);
  EXPECT_NE(upload.body.find("\"deduplicated\":false"), std::string::npos);

  const auto meta = fetch(server_->port(), "GET", "/schedules/" + id);
  EXPECT_EQ(meta.status, 200);
  EXPECT_NE(meta.body.find("\"tasks\":12"), std::string::npos) << meta.body;
  EXPECT_NE(meta.body.find("\"source\":\"trace.jed\""), std::string::npos);

  const auto list = fetch(server_->port(), "GET", "/schedules");
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find(id), std::string::npos);

  const auto png = fetch(server_->port(), "GET",
                         "/schedules/" + id + "/render.png?width=320");
  EXPECT_EQ(png.status, 200);
  EXPECT_EQ(png.headers.at("content-type"), "image/png");
  EXPECT_EQ(png.headers.at("x-cache"), "miss");
  EXPECT_TRUE(looks_like_png(png.body));
  EXPECT_EQ(png.body.size(),
            static_cast<std::size_t>(
                std::stoul(png.headers.at("content-length"))));

  const auto svg = fetch(server_->port(), "GET",
                         "/schedules/" + id + "/render.svg");
  EXPECT_EQ(svg.status, 200);
  EXPECT_NE(svg.body.find("<svg"), std::string::npos);

  const auto tile = fetch(server_->port(), "GET",
                          "/schedules/" + id + "/tile?x=1&zoom=2&width=256");
  EXPECT_EQ(tile.status, 200);
  EXPECT_EQ(tile.headers.at("content-type"), "image/png");
  EXPECT_TRUE(looks_like_png(tile.body));

  const auto gone = fetch(server_->port(), "DELETE", "/schedules/" + id);
  EXPECT_EQ(gone.status, 204);
  EXPECT_EQ(fetch(server_->port(), "GET", "/schedules/" + id).status, 404);
}

TEST_F(ServeHttp, ReuploadDeduplicatesByContentHash) {
  const auto first = fetch(server_->port(), "POST", "/schedules",
                           sample_xml());
  ASSERT_EQ(first.status, 201);
  const auto again = fetch(server_->port(), "POST", "/schedules?name=copy",
                           sample_xml());
  EXPECT_EQ(again.status, 200);
  EXPECT_EQ(id_of(again), id_of(first));
  EXPECT_NE(again.body.find("\"deduplicated\":true"), std::string::npos);
  EXPECT_NE(fetch(server_->port(), "GET", "/stats")
                .body.find("\"dedup_hits\":1"),
            std::string::npos);
}

TEST_F(ServeHttp, EtagEnables304Revalidation) {
  const auto upload = fetch(server_->port(), "POST", "/schedules",
                            sample_xml());
  ASSERT_EQ(upload.status, 201);
  const std::string id = id_of(upload);
  const std::string target = "/schedules/" + id + "/render.svg?width=320";

  const auto full = fetch(server_->port(), "GET", target);
  ASSERT_EQ(full.status, 200);
  ASSERT_NE(full.headers.count("etag"), 0u);
  const std::string etag = full.headers.at("etag");
  EXPECT_EQ(etag.front(), '"');
  EXPECT_EQ(etag.back(), '"');

  // A matching validator short-circuits to an empty 304 carrying the tag.
  const auto cached = fetch(server_->port(), "GET", target, "",
                            {"If-None-Match: " + etag});
  EXPECT_EQ(cached.status, 304);
  EXPECT_TRUE(cached.body.empty());
  EXPECT_EQ(cached.headers.at("etag"), etag);
  // Weak-comparison spellings and the wildcard revalidate too.
  EXPECT_EQ(fetch(server_->port(), "GET", target, "",
                  {"If-None-Match: W/" + etag})
                .status,
            304);
  EXPECT_EQ(fetch(server_->port(), "GET", target, "",
                  {"If-None-Match: \"nope\", " + etag})
                .status,
            304);
  EXPECT_EQ(fetch(server_->port(), "GET", target, "", {"If-None-Match: *"})
                .status,
            304);
  // A stale validator gets the full body again.
  EXPECT_EQ(fetch(server_->port(), "GET", target, "",
                  {"If-None-Match: \"0000000000000000-0-svg\""})
                .status,
            200);
  // The tag covers the option digest: different options, different tag.
  const auto wider =
      fetch(server_->port(), "GET",
            "/schedules/" + id + "/render.svg?width=400");
  EXPECT_EQ(wider.status, 200);
  EXPECT_NE(wider.headers.at("etag"), etag);

  // Tiles carry validators as well.
  const std::string tile_target = "/schedules/" + id + "/tile?x=0&zoom=1";
  const auto tile = fetch(server_->port(), "GET", tile_target);
  ASSERT_EQ(tile.status, 200);
  const std::string tile_etag = tile.headers.at("etag");
  EXPECT_NE(tile_etag, etag);
  EXPECT_EQ(fetch(server_->port(), "GET", tile_target, "",
                  {"If-None-Match: " + tile_etag})
                .status,
            304);

  const auto stats = fetch(server_->port(), "GET", "/stats");
  EXPECT_NE(stats.body.find("\"not_modified_304\":5"), std::string::npos)
      << stats.body;
}

TEST_F(ServeHttp, PostEventsGrowsTheScheduleAsANewEntry) {
  const auto upload = fetch(server_->port(), "POST", "/schedules",
                            sample_xml());
  ASSERT_EQ(upload.status, 201);
  const std::string base = id_of(upload);

  // Two more tasks in the sample_schedule formula, as event lines (the
  // CSV tail grammar — comments and header rows are tolerated).
  const std::string events =
      "# tail\n"
      "task_id,type,start,end,allocation\n"
      "12,transfer,12,14,0:0-1\n"
      "13,computation,13,15,1:1-2\n";
  const auto grown = fetch(server_->port(), "POST",
                           "/schedules/" + base + "/events", events);
  ASSERT_EQ(grown.status, 201) << grown.body;
  const std::string grown_id = id_of(grown);
  EXPECT_NE(grown_id, base);
  EXPECT_EQ(grown.headers.at("location"), "/schedules/" + grown_id);
  EXPECT_NE(grown.body.find("\"tasks\":14"), std::string::npos) << grown.body;
  EXPECT_NE(grown.body.find("\"appended\":2"), std::string::npos);

  // The base entry stays addressable (in-flight renders keep working)...
  EXPECT_EQ(fetch(server_->port(), "GET", "/schedules/" + base).status, 200);
  // ...and the grown entry is content-addressed: uploading the full
  // 14-task schedule dedups against it.
  model::ScheduleBuilder builder;
  builder.cluster(0, "c0", 8).cluster(1, "c1", 4);
  for (int i = 0; i < 14; ++i) {
    builder
        .task(std::to_string(i), i % 2 ? "computation" : "transfer",
              static_cast<double>(i), i + 2.0)
        .on(i % 2, i % 3, 2);
  }
  const auto fresh = fetch(server_->port(), "POST", "/schedules",
                           io::write_schedule_xml(builder.build()));
  EXPECT_EQ(fresh.status, 200);
  EXPECT_EQ(id_of(fresh), grown_id);
  EXPECT_NE(fresh.body.find("\"deduplicated\":true"), std::string::npos);

  // Replaying the same delta is idempotent: same grown id, deduplicated.
  const auto replay = fetch(server_->port(), "POST",
                            "/schedules/" + base + "/events", events);
  EXPECT_EQ(replay.status, 200);
  EXPECT_EQ(id_of(replay), grown_id);
  EXPECT_NE(replay.body.find("\"deduplicated\":true"), std::string::npos);

  // Error mapping: unknown id, empty delta, unparseable delta, invalid
  // events and a wrong method never crash the worker.
  EXPECT_EQ(fetch(server_->port(), "POST",
                  "/schedules/0000000000000000/events", events)
                .status,
            404);
  EXPECT_EQ(fetch(server_->port(), "POST",
                  "/schedules/" + base + "/events", "")
                .status,
            400);
  EXPECT_EQ(fetch(server_->port(), "POST",
                  "/schedules/" + base + "/events", "one,two,three\n")
                .status,
            415);
  // Duplicate task id: parses fine, fails columnar validation.
  EXPECT_EQ(fetch(server_->port(), "POST",
                  "/schedules/" + base + "/events", "5,w,1,2,0:0\n")
                .status,
            400);
  // Host range off the end of cluster 1 (4 hosts).
  EXPECT_EQ(fetch(server_->port(), "POST",
                  "/schedules/" + base + "/events", "x,w,1,2,1:3-6\n")
                .status,
            400);
  EXPECT_EQ(fetch(server_->port(), "GET",
                  "/schedules/" + base + "/events")
                .status,
            405);
}

TEST_F(ServeHttp, ConcurrentClientsShareOneRender) {
  // The acceptance bar: two clients asking for the same render get
  // byte-identical bodies and only one render happens — the second body
  // comes from the artifact cache (single-flight collapse counts the
  // waiter as a hit).
  const auto upload = fetch(server_->port(), "POST", "/schedules",
                            sample_xml());
  const std::string target =
      "/schedules/" + id_of(upload) + "/render.png?width=640&height=360";

  std::vector<RawResponse> got(2);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < 2; ++i) {
      clients.emplace_back([&, i] {
        got[static_cast<std::size_t>(i)] =
            fetch(server_->port(), "GET", target);
      });
    }
    for (auto& t : clients) t.join();
  }

  ASSERT_EQ(got[0].status, 200);
  ASSERT_EQ(got[1].status, 200);
  EXPECT_EQ(got[0].body, got[1].body);
  EXPECT_TRUE(looks_like_png(got[0].body));

  const auto stats = server_->renders().stats();
  EXPECT_EQ(stats.artifact_misses, 1u);
  EXPECT_EQ(stats.artifact_hits, 1u);
  EXPECT_NE(fetch(server_->port(), "GET", "/stats")
                .body.find("\"artifact_hits\":1"),
            std::string::npos);

  // A third, sequential client is a plain cache hit with the same bytes.
  const auto warm = fetch(server_->port(), "GET", target);
  EXPECT_EQ(warm.headers.at("x-cache"), "hit");
  EXPECT_EQ(warm.body, got[0].body);
}

TEST_F(ServeHttp, ErrorMappingMirrorsTheCli) {
  const auto upload = fetch(server_->port(), "POST", "/schedules",
                            sample_xml());
  const std::string id = id_of(upload);

  // Unknown id -> 404 on every resource route.
  EXPECT_EQ(fetch(server_->port(), "GET",
                  "/schedules/0123456789abcdef/render.png")
                .status,
            404);

  // Unregistered exporter -> 415 naming the format and the supported list.
  const auto jpeg = fetch(server_->port(), "GET",
                          "/schedules/" + id + "/render.jpeg");
  EXPECT_EQ(jpeg.status, 415);
  EXPECT_NE(jpeg.body.find("jpeg"), std::string::npos) << jpeg.body;
  EXPECT_NE(jpeg.body.find("supported formats:"), std::string::npos);
  EXPECT_NE(jpeg.body.find("png"), std::string::npos);

  // Unparseable upload -> 415 with the parser registry's format list.
  const auto garbage = fetch(server_->port(), "POST", "/schedules",
                             "\x01\x02\x03 not a trace");
  EXPECT_EQ(garbage.status, 415);
  EXPECT_NE(garbage.body.find("supported formats:"), std::string::npos);

  // Bad option values -> 400 with the shared parser's message.
  const auto bad_width = fetch(server_->port(), "GET",
                               "/schedules/" + id + "/render.png?width=abc");
  EXPECT_EQ(bad_width.status, 400);
  EXPECT_NE(bad_width.body.find("width"), std::string::npos);

  // A canvas over render::kMaxPixels is a 400 before any pixel is
  // allocated (2^48 pixels would not fit in memory).
  const auto giant = fetch(
      server_->port(), "GET",
      "/schedules/" + id + "/render.png?width=16777216&height=16777216");
  EXPECT_EQ(giant.status, 400);
  EXPECT_NE(giant.body.find("pixels"), std::string::npos) << giant.body;

  // cmap is a server-side file read: rejected over HTTP.
  const auto cmap = fetch(server_->port(), "GET",
                          "/schedules/" + id + "/render.png?cmap=/etc/x");
  EXPECT_EQ(cmap.status, 400);

  // Thread counts stop at util::kMaxThreads: above it is a 400, the cap
  // itself renders (on the shared pool's fixed workers).
  const auto many = fetch(server_->port(), "GET",
                          "/schedules/" + id +
                              "/render.png?width=320&threads=100000");
  EXPECT_EQ(many.status, 400);
  EXPECT_NE(many.body.find("threads"), std::string::npos) << many.body;
  EXPECT_EQ(fetch(server_->port(), "GET",
                  "/schedules/" + id + "/render.png?width=320&threads=256")
                .status,
            200);

  // Tile parameter validation.
  EXPECT_EQ(fetch(server_->port(), "GET", "/schedules/" + id + "/tile")
                .status,
            400);
  EXPECT_EQ(fetch(server_->port(), "GET",
                  "/schedules/" + id + "/tile?x=9&zoom=2")
                .status,
            400);

  // Routing: unknown paths and wrong methods.
  EXPECT_EQ(fetch(server_->port(), "GET", "/nope").status, 404);
  EXPECT_EQ(fetch(server_->port(), "PUT", "/schedules", "x").status, 405);
  EXPECT_EQ(fetch(server_->port(), "POST", "/healthz", "x").status, 405);
}

TEST_F(ServeHttp, MalformedRequestsGetA4xxNeverACrash) {
  struct Case {
    const char* label;
    std::string bytes;
  };
  const std::vector<Case> cases = {
      {"garbage bytes", "\x01\x02\x03\xff nonsense\r\n\r\n"},
      {"bad request line", "GET\r\n\r\n"},
      {"bad version", "GET / HTTP/9.9\r\n\r\n"},
      {"bad header line", "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"},
      {"bad content length",
       "POST /schedules HTTP/1.1\r\nContent-Length: twelve\r\n\r\n"},
      {"chunked body", "POST /schedules HTTP/1.1\r\n"
                       "Transfer-Encoding: chunked\r\n\r\n"},
      {"bad escape", "GET /schedules/%zz HTTP/1.1\r\n\r\n"},
      {"huge head", "GET / HTTP/1.1\r\nX-Pad: " +
                        std::string(80 * 1024, 'a') + "\r\n\r\n"},
  };
  for (const auto& c : cases) {
    Client client(server_->port());
    ASSERT_TRUE(client.connected()) << c.label;
    client.send(c.bytes);
    const auto resp = parse_response(client.read_to_eof());
    // 4xx for malformed input; the bad-version case is a deliberate 505.
    // Never a 500, never a dropped connection.
    EXPECT_GE(resp.status, 400) << c.label;
    EXPECT_NE(resp.status, 500) << c.label;
  }

  // Oversized body against a small cap -> 413.
  Server::Options tiny;
  tiny.threads = 1;
  tiny.max_body = 64;
  Server small(tiny);
  small.start();
  const auto too_big = fetch(small.port(), "POST", "/schedules",
                             std::string(1024, 'x'));
  EXPECT_EQ(too_big.status, 413);
  small.stop();

  // The server is still healthy after all of that.
  EXPECT_EQ(fetch(server_->port(), "GET", "/healthz").status, 200);
  EXPECT_EQ(server_->counters().errors, 0u);
}

TEST(ServeBackpressure, SaturatedQueueShedsWith429) {
  Server::Options opt;
  opt.threads = 1;
  opt.queue_capacity = 1;
  opt.request_timeout_ms = 5000;
  Server server(opt);
  server.start();

  // Two half-open connections pin the single worker (blocked reading) and
  // the one queue slot; the third must be shed by the listener itself.
  Client busy1(server.port());
  ASSERT_TRUE(busy1.connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Client busy2(server.port());
  ASSERT_TRUE(busy2.connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client shed(server.port());
  ASSERT_TRUE(shed.connected());
  const auto resp = parse_response(shed.read_to_eof());
  EXPECT_EQ(resp.status, 429);
  EXPECT_EQ(resp.headers.at("retry-after"), "1");
  EXPECT_NE(resp.body.find("admission queue is full"), std::string::npos);
  EXPECT_GE(server.counters().rejected_429, 1u);

  // Releasing the stalled connections restores service.
  busy1.close();
  busy2.close();
  for (int attempt = 0;; ++attempt) {
    const auto health = fetch(server.port(), "GET", "/healthz");
    if (health.status == 200) break;
    ASSERT_LT(attempt, 50) << "server did not recover after shedding";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Graceful drain, idempotent stop.
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();
}

TEST(ServeRouting, HandleIsAPureFunction) {
  // handle() routes without sockets; drive the edge cases directly.
  Server server;  // never started: no listener, no port
  HttpRequest req;
  req.method = "GET";
  req.path = "/healthz";
  EXPECT_EQ(server.handle(req).status, 200);

  req.path = "/schedules/";
  EXPECT_EQ(server.handle(req).status, 404);

  req.method = "POST";
  req.path = "/schedules";
  req.body = io::write_schedule_xml(sample_schedule());
  const auto created = server.handle(req);
  EXPECT_EQ(created.status, 201);
  EXPECT_EQ(server.store().stats().entries, 1u);

  req.method = "GET";
  req.path = "/schedules/" + server.store().list()[0]->id + "/tile";
  req.query = {{"x", "0"}, {"zoom", "oops"}};
  const auto bad = server.handle(req);
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("zoom"), std::string::npos);
}

// Content-Encoding negotiation: text bodies (svg, ascii) are gzipped when
// Accept-Encoding allows it, svgz always is, binary formats never are.
TEST(ServeRouting, NegotiatesGzipForTextBodies) {
  Server server;
  HttpRequest post;
  post.method = "POST";
  post.path = "/schedules";
  post.body = io::write_schedule_xml(sample_schedule());
  ASSERT_EQ(server.handle(post).status, 201);
  const std::string base =
      "/schedules/" + server.store().list()[0]->id + "/render.";

  HttpRequest req;
  req.method = "GET";
  req.path = base + "svg";

  // No Accept-Encoding: identity, but the response still varies on it.
  const auto plain = server.handle(req);
  EXPECT_EQ(plain.status, 200);
  EXPECT_EQ(plain.headers.count("Content-Encoding"), 0u);
  EXPECT_EQ(plain.headers.at("Vary"), "Accept-Encoding");

  // gzip accepted: compressed body that inflates to the identity bytes.
  req.headers["accept-encoding"] = "deflate, gzip;q=0.8, br";
  const auto packed = server.handle(req);
  EXPECT_EQ(packed.status, 200);
  EXPECT_EQ(packed.headers.at("Content-Encoding"), "gzip");
  EXPECT_EQ(packed.headers.at("Vary"), "Accept-Encoding");
  EXPECT_EQ(packed.media_type, "image/svg+xml");
  EXPECT_LT(packed.body.size(), plain.body.size());
  const auto raw = util::gzip_decompress(
      reinterpret_cast<const std::uint8_t*>(packed.body.data()),
      packed.body.size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(raw.data()),
                        raw.size()),
            plain.body);

  // The serialized response's Content-Length is the wire body size.
  const std::string wire = serialize_response(packed);
  EXPECT_NE(wire.find("Content-Length: " + std::to_string(packed.body.size())),
            std::string::npos);

  // Explicit refusal wins; wildcard grants.
  req.headers["accept-encoding"] = "gzip;q=0";
  EXPECT_EQ(server.handle(req).headers.count("Content-Encoding"), 0u);
  req.headers["accept-encoding"] = "*";
  EXPECT_EQ(server.handle(req).headers.at("Content-Encoding"), "gzip");

  // ascii negotiates too; png stays identity even when gzip is accepted.
  req.path = base + "ascii";
  req.headers["accept-encoding"] = "gzip";
  EXPECT_EQ(server.handle(req).headers.at("Content-Encoding"), "gzip");
  req.path = base + "png";
  const auto png = server.handle(req);
  EXPECT_EQ(png.headers.count("Content-Encoding"), 0u);
  EXPECT_EQ(png.headers.count("Vary"), 0u);

  // svgz is a gzip stream no matter what the client advertises.
  req.path = base + "svgz";
  req.headers.clear();
  const auto svgz = server.handle(req);
  EXPECT_EQ(svgz.headers.at("Content-Encoding"), "gzip");
  EXPECT_EQ(svgz.media_type, "image/svg+xml");

  // /stats accounts wire vs raw bytes and per-encoding response counts.
  const std::string stats = server.stats_json();
  EXPECT_NE(stats.find("\"encoding\":{"), std::string::npos);
  EXPECT_NE(stats.find("\"wire_bytes\":"), std::string::npos);
  EXPECT_NE(stats.find("\"raw_bytes\":"), std::string::npos);
  const auto c = server.counters();
  EXPECT_EQ(c.gzip_responses, 4u);      // svg x2, ascii, svgz
  EXPECT_EQ(c.identity_responses, 3u);  // svg x2 (plain + refused), png
  EXPECT_GT(c.raw_bytes, 0u);
  EXPECT_GT(c.wire_bytes, 0u);
  // Compression must have saved bytes overall for this mix.
  EXPECT_LT(c.wire_bytes, c.raw_bytes);
}

TEST(ServeHttpParsing, QueryAndHeadParsing) {
  EXPECT_EQ(url_decode("a%20b+c"), "a b c");
  EXPECT_THROW(url_decode("%g1"), HttpError);
  EXPECT_THROW(url_decode("%2"), HttpError);

  const auto q = parse_query("width=320&aligned&name=a%2Fb");
  EXPECT_EQ(q.at("width"), "320");
  EXPECT_EQ(q.at("aligned"), "");
  EXPECT_EQ(q.at("name"), "a/b");

  const auto req = parse_request_head(
      "GET /schedules/x/render.png?width=320 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Custom: value");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/schedules/x/render.png");
  EXPECT_EQ(req.query.at("width"), "320");
  EXPECT_EQ(req.headers.at("host"), "localhost");
  EXPECT_EQ(req.headers.at("x-custom"), "value");

  HttpResponse resp;
  resp.status = 404;
  resp.body = "gone";
  const std::string wire = serialize_response(resp);
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 4\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
}

}  // namespace
}  // namespace jedule::serve

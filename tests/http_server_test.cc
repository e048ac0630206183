// The embedded HTTP server and the search routes, exercised over real
// loopback sockets.

#include "server/http_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "server/search_handler.h"
#include "service/search_service.h"

namespace rtsi::server {
namespace {

std::string Get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(UrlDecodeTest, DecodesEscapesAndPlus) {
  EXPECT_EQ(UrlDecode("hello+world"), "hello world");
  EXPECT_EQ(UrlDecode("a%20b%2Fc"), "a b/c");
  EXPECT_EQ(UrlDecode("100%"), "100%");  // Trailing % passes through.
  EXPECT_EQ(UrlDecode(""), "");
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
}

TEST(HttpServerTest, ServesRoutesAndQueryParams) {
  HttpServer server;
  server.Route("/echo", [](const HttpRequest& request) {
    auto it = request.query.find("msg");
    return HttpResponse{200, "text/plain",
                        it == request.query.end() ? "none" : it->second};
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  const std::string response = Get(server.port(), "/echo?msg=hello+there");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("hello there"), std::string::npos);

  const std::string missing = Get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_GE(server.requests_served(), 2u);
  server.Stop();
}

TEST(HttpServerTest, StopIsIdempotent) {
  HttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  server.Stop();
  SUCCEED();
}

// Sends raw bytes, half-closes the write side, reads the full response.
std::string SendRaw(int port, const std::string& data) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  (void)!::write(fd, data.data(), data.size());
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpServerTest, PostBodyReachesHandler) {
  HttpServer server;
  server.Route("/upload", [](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "len:" +
                        std::to_string(request.body.size())};
  });
  ASSERT_TRUE(server.Start(0).ok());
  const std::string body = "7 volcano eruption\n8 tsunami warning\n";
  const std::string response = SendRaw(
      server.port(), "POST /upload HTTP/1.0\r\nContent-Length: " +
                         std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("len:" + std::to_string(body.size())),
            std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, OversizedHeadGets400) {
  ServerConfig config;
  config.max_head_bytes = 128;
  HttpServer server(config);
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response = SendRaw(
      server.port(), "GET /" + std::string(500, 'x') + " HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, TruncatedRequestGets400) {
  HttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  // Head never terminates; the client half-closes mid-request.
  const std::string response = SendRaw(server.port(), "GET /partial HTT");
  EXPECT_NE(response.find("400"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, OversizedBodyGets413) {
  ServerConfig config;
  config.max_body_bytes = 64;
  HttpServer server(config);
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response = SendRaw(
      server.port(),
      "POST /upload HTTP/1.0\r\nContent-Length: 100000\r\n\r\n");
  EXPECT_NE(response.find("413"), std::string::npos);
  server.Stop();
}

// Runs every route test against BOTH front-ends: the blocking demo
// server (param false) and the epoll async server (param true).
class SearchRoutesTest : public ::testing::TestWithParam<bool> {
 protected:
  SearchRoutesTest() : service_(MakeConfig(), &clock_) {
    ServerConfig server_config;
    server_config.async = GetParam();
    server_ = MakeHttpServer(server_config);
    RegisterSearchRoutes(*server_, service_, clock_);
    EXPECT_TRUE(server_->Start(0).ok());
    service_.IngestWindow(1, {"quantum", "physics", "lecture"});
    service_.IngestWindow(2, {"football", "goal", "stadium"});
    clock_.Advance(kMicrosPerMinute);
  }

  static service::SearchServiceConfig MakeConfig() {
    service::SearchServiceConfig config;
    config.ingestion.acoustic_path = service::AcousticPath::kDirect;
    config.ingestion.transcriber.word_error_rate = 0.0;
    return config;
  }

  int port() const { return server_->port(); }

  SimulatedClock clock_;
  service::SearchService service_;
  std::unique_ptr<HttpServerBase> server_;
};

INSTANTIATE_TEST_SUITE_P(BlockingAndAsync, SearchRoutesTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Async" : "Blocking";
                         });

TEST_P(SearchRoutesTest, SearchReturnsMatchingStream) {
  const std::string response =
      Get(port(), "/search?q=quantum+physics");
  EXPECT_NE(response.find("\"stream\":1"), std::string::npos);
  EXPECT_EQ(response.find("\"stream\":2"), std::string::npos);
}

// The body carries every score at full precision: parsing it gives back
// exactly the doubles the service returned, not a 6-digit rounding.
TEST_P(SearchRoutesTest, SearchScoresRoundTripExactly) {
  service_.IngestWindow(3, {"quantum", "computing", "physics", "physics"});
  service_.IngestWindow(4, {"quantum", "chemistry"});
  clock_.Advance(kMicrosPerMinute);
  const auto want = service_.SearchKeywords("quantum physics", 10);
  ASSERT_GE(want.size(), 2u);
  const std::string body = Get(port(), "/search?q=quantum+physics");
  std::size_t pos = body.find("{\"results\":[");
  ASSERT_NE(pos, std::string::npos) << body;
  const auto field = [&](const char* key) {
    pos = body.find(key, pos);
    if (pos == std::string::npos) return -1.0;
    pos += std::strlen(key);
    return std::strtod(body.c_str() + pos, nullptr);
  };
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(field("\"stream\":"), static_cast<double>(want[i].stream)) << i;
    EXPECT_EQ(field("\"score\":"), want[i].score) << i;
    EXPECT_EQ(field("\"text_score\":"), want[i].text_score) << i;
    EXPECT_EQ(field("\"sound_score\":"), want[i].sound_score) << i;
  }
  EXPECT_EQ(body.find("\"stream\":", pos), std::string::npos)
      << "more results served than SearchKeywords returned";
}

TEST_P(SearchRoutesTest, SearchWithoutQueryIs400) {
  const std::string response = Get(port(), "/search");
  EXPECT_NE(response.find("400"), std::string::npos);
}

TEST_P(SearchRoutesTest, IngestThenSearchRoundTrip) {
  Get(port(), "/ingest?stream=7&words=volcano+eruption+alert");
  const std::string response = Get(port(), "/search?q=volcano");
  EXPECT_NE(response.find("\"stream\":7"), std::string::npos);
}

TEST_P(SearchRoutesTest, IngestPostBodyIndexesOneWindowPerLine) {
  const std::string body = "21 solar eclipse timelapse\n22 meteor shower\n";
  const std::string response = SendRaw(
      port(), "POST /ingest HTTP/1.0\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(Get(port(), "/search?q=eclipse").find("\"stream\":21"),
            std::string::npos);
  EXPECT_NE(Get(port(), "/search?q=meteor").find("\"stream\":22"),
            std::string::npos);
}

TEST_P(SearchRoutesTest, IngestBadBodyLineIs400) {
  const std::string body = "31\n";  // A stream id with no words.
  const std::string response = SendRaw(
      port(), "POST /ingest HTTP/1.0\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(response.find("400"), std::string::npos);
}

TEST_P(SearchRoutesTest, LiveFilterExcludesFinished) {
  Get(port(), "/finish?stream=1");
  const std::string live = Get(port(), "/live?q=quantum");
  EXPECT_EQ(live.find("\"stream\":1"), std::string::npos);
  const std::string all = Get(port(), "/search?q=quantum");
  EXPECT_NE(all.find("\"stream\":1"), std::string::npos);
}

TEST_P(SearchRoutesTest, PopUpdatesRanking) {
  Get(port(), "/ingest?stream=3&words=football+highlights");
  Get(port(), "/pop?stream=3&delta=100000");
  const std::string response = Get(port(), "/search?q=football&k=1");
  EXPECT_NE(response.find("\"stream\":3"), std::string::npos);
}

TEST_P(SearchRoutesTest, StatsReportsCounts) {
  const std::string response = Get(port(), "/stats");
  EXPECT_NE(response.find("\"text_postings\""), std::string::npos);
  EXPECT_NE(response.find("\"streams\":2"), std::string::npos);
  // Shard-aware stats: the per-shard array and the server queue block.
  EXPECT_NE(response.find("\"num_shards\":1"), std::string::npos);
  EXPECT_NE(response.find("\"shards\":[{\"shard\":0"), std::string::npos);
  EXPECT_NE(response.find("\"view_epoch\""), std::string::npos);
  EXPECT_NE(response.find("\"arena_bytes\""), std::string::npos);
  EXPECT_NE(response.find("\"queue\":{\"pending\""), std::string::npos);
}

TEST_P(SearchRoutesTest, IndexPageIsHtml) {
  const std::string response = Get(port(), "/");
  EXPECT_NE(response.find("text/html"), std::string::npos);
  EXPECT_NE(response.find("RTSI"), std::string::npos);
}

}  // namespace
}  // namespace rtsi::server

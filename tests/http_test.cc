// Tests for the HTTP/1.1 codec used by the ingress gateway.

#include "src/transport/http.h"

#include <gtest/gtest.h>

namespace nadino {
namespace {

TEST(HttpTest, ParsesSimpleRequest) {
  const std::string wire =
      "POST /home HTTP/1.1\r\nHost: nadino\r\nContent-Length: 5\r\n\r\nhello";
  HttpRequest request;
  size_t consumed = 0;
  ASSERT_EQ(HttpCodec::ParseRequest(wire, &request, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/home");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.body, "hello");
  EXPECT_EQ(request.Header("host"), "nadino");
  EXPECT_EQ(consumed, wire.size());
}

TEST(HttpTest, ParsesRequestWithoutBody) {
  const std::string wire = "GET /x HTTP/1.1\r\n\r\n";
  HttpRequest request;
  size_t consumed = 0;
  ASSERT_EQ(HttpCodec::ParseRequest(wire, &request, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(request.method, "GET");
  EXPECT_TRUE(request.body.empty());
}

TEST(HttpTest, IncompleteHeadersNeedMoreBytes) {
  HttpRequest request;
  size_t consumed = 0;
  EXPECT_EQ(HttpCodec::ParseRequest("POST /a HTTP/1.1\r\nHost: x\r\n", &request, &consumed),
            HttpParseResult::kIncomplete);
  EXPECT_EQ(HttpCodec::ParseRequest("POST /a HT", &request, &consumed),
            HttpParseResult::kIncomplete);
}

TEST(HttpTest, IncompleteBodyNeedsMoreBytes) {
  const std::string wire = "POST /a HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
  HttpRequest request;
  size_t consumed = 0;
  EXPECT_EQ(HttpCodec::ParseRequest(wire, &request, &consumed), HttpParseResult::kIncomplete);
}

TEST(HttpTest, MalformedRequestLineRejected) {
  HttpRequest request;
  size_t consumed = 0;
  EXPECT_EQ(HttpCodec::ParseRequest("GARBAGE\r\n\r\n", &request, &consumed),
            HttpParseResult::kBad);
  EXPECT_EQ(HttpCodec::ParseRequest("GET /x SPDY/9\r\n\r\n", &request, &consumed),
            HttpParseResult::kBad);
}

TEST(HttpTest, MalformedHeaderRejected) {
  HttpRequest request;
  size_t consumed = 0;
  EXPECT_EQ(HttpCodec::ParseRequest("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", &request,
                                    &consumed),
            HttpParseResult::kBad);
}

TEST(HttpTest, MalformedContentLengthRejected) {
  HttpRequest request;
  size_t consumed = 0;
  EXPECT_EQ(HttpCodec::ParseRequest("GET /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                                    &request, &consumed),
            HttpParseResult::kBad);
  EXPECT_EQ(HttpCodec::ParseRequest("GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                                    &request, &consumed),
            HttpParseResult::kBad);
}

TEST(HttpTest, PipelinedRequestsConsumeIncrementally) {
  const std::string one = "GET /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy";
  const std::string wire = one + "GET /b HTTP/1.1\r\n\r\n";
  HttpRequest request;
  size_t consumed = 0;
  ASSERT_EQ(HttpCodec::ParseRequest(wire, &request, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(request.target, "/a");
  EXPECT_EQ(consumed, one.size());
  HttpRequest second;
  size_t consumed2 = 0;
  ASSERT_EQ(HttpCodec::ParseRequest(std::string_view(wire).substr(consumed), &second,
                                    &consumed2),
            HttpParseResult::kOk);
  EXPECT_EQ(second.target, "/b");
}

TEST(HttpTest, HeaderLookupIsCaseInsensitive) {
  EXPECT_TRUE(HttpCodec::HeaderNameEquals("Content-Length", "content-length"));
  EXPECT_TRUE(HttpCodec::HeaderNameEquals("HOST", "host"));
  EXPECT_FALSE(HttpCodec::HeaderNameEquals("Host", "Hos"));
}

TEST(HttpTest, HeaderValueWhitespaceTrimmed) {
  const std::string wire = "GET /x HTTP/1.1\r\nX-Pad:   spaced value  \r\n\r\n";
  HttpRequest request;
  size_t consumed = 0;
  ASSERT_EQ(HttpCodec::ParseRequest(wire, &request, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(request.Header("x-pad"), "spaced value");
}

TEST(HttpTest, SerializeRequestRoundTrips) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/cart";
  request.headers = {{"Host", "cluster"}, {"X-Tenant", "7"}};
  request.body = "payload-bytes";
  const std::string wire = HttpCodec::Serialize(request);
  HttpRequest parsed;
  size_t consumed = 0;
  ASSERT_EQ(HttpCodec::ParseRequest(wire, &parsed, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(parsed.method, "POST");
  EXPECT_EQ(parsed.target, "/cart");
  EXPECT_EQ(parsed.body, "payload-bytes");
  EXPECT_EQ(parsed.Header("x-tenant"), "7");
  EXPECT_EQ(parsed.Header("content-length"), "13");
}

TEST(HttpTest, SerializeResponseWritesStatusLineAndContentLength) {
  HttpResponse response;
  response.status = 404;
  response.reason = "Not Found";
  response.headers = {{"Server", "nadino"}, {"Content-Length", "0"}};
  response.body = "missing";
  EXPECT_EQ(HttpCodec::Serialize(response),
            "HTTP/1.1 404 Not Found\r\nServer: nadino\r\nContent-Length: 7\r\n\r\nmissing");
}

TEST(HttpChunkedTest, ParsesHandWrittenChunks) {
  const std::string wire =
      "POST /stream HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n";
  HttpRequest parsed;
  size_t consumed = 0;
  ASSERT_EQ(HttpCodec::ParseRequest(wire, &parsed, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(parsed.body, "hello world");
  EXPECT_EQ(consumed, wire.size());
}

TEST(HttpChunkedTest, IncompleteChunkNeedsMoreBytes) {
  const std::string wire =
      "POST /stream HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel";
  HttpRequest parsed;
  size_t consumed = 0;
  EXPECT_EQ(HttpCodec::ParseRequest(wire, &parsed, &consumed),
            HttpParseResult::kIncomplete);
}

TEST(HttpChunkedTest, MalformedChunkSizeRejected) {
  const std::string wire =
      "POST /stream HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhi\r\n0\r\n\r\n";
  HttpRequest parsed;
  size_t consumed = 0;
  EXPECT_EQ(HttpCodec::ParseRequest(wire, &parsed, &consumed), HttpParseResult::kBad);
}

TEST(HttpChunkedTest, ChunkedRequestAccepted) {
  const std::string wire =
      "POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\n\r\n";
  HttpRequest parsed;
  size_t consumed = 0;
  ASSERT_EQ(HttpCodec::ParseRequest(wire, &parsed, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(parsed.body, "abc");
}

class HttpBodySizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HttpBodySizeTest, RoundTripsAnyBodySize) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/bulk";
  request.body = std::string(GetParam(), 'z');
  const std::string wire = HttpCodec::Serialize(request);
  HttpRequest parsed;
  size_t consumed = 0;
  ASSERT_EQ(HttpCodec::ParseRequest(wire, &parsed, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(parsed.body.size(), GetParam());
  EXPECT_EQ(consumed, wire.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, HttpBodySizeTest,
                         ::testing::Values(0, 1, 63, 64, 1024, 4096, 65536));

}  // namespace
}  // namespace nadino

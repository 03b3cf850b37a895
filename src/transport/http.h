// Minimal but real HTTP/1.1 parsing and serialization.
//
// The ingress gateway (section 3.6) terminates client HTTP/TCP and converts
// to RDMA. This parser actually runs on the request bytes flowing through the
// simulated ingress, so conversion correctness (method/target/body survive
// the HTTP->RDMA->HTTP round trip) is testable, not assumed.

#ifndef SRC_TRANSPORT_HTTP_H_
#define SRC_TRANSPORT_HTTP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nadino {

struct HttpHeader {
  std::string name;
  std::string value;
};

struct HttpRequest {
  std::string method;
  std::string target;
  std::string version = "HTTP/1.1";
  std::vector<HttpHeader> headers;
  std::string body;

  // Case-insensitive header lookup; empty view when absent.
  std::string_view Header(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  std::vector<HttpHeader> headers;
  std::string body;
};

enum class HttpParseResult {
  kOk,
  kIncomplete,  // Need more bytes.
  kBad,         // Malformed; the connection should be reset.
};

class HttpCodec {
 public:
  // Parses one request from `input`. On kOk, `*consumed` is the number of
  // bytes used (pipelined requests may follow). A chunked body is decoded
  // (Transfer-Encoding: chunked wins over Content-Length, per RFC 9112).
  static HttpParseResult ParseRequest(std::string_view input, HttpRequest* out,
                                      size_t* consumed);

  // Serializers always emit an explicit Content-Length.
  static std::string Serialize(const HttpRequest& request);
  static std::string Serialize(const HttpResponse& response);

  static bool HeaderNameEquals(std::string_view a, std::string_view b);
};

}  // namespace nadino

#endif  // SRC_TRANSPORT_HTTP_H_

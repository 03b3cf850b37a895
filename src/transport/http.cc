#include "src/transport/http.h"

#include <cctype>
#include <charconv>

namespace nadino {

namespace {

// Splits out the next CRLF-terminated line; returns false when no CRLF yet.
bool NextLine(std::string_view input, size_t* pos, std::string_view* line) {
  const size_t eol = input.find("\r\n", *pos);
  if (eol == std::string_view::npos) {
    return false;
  }
  *line = input.substr(*pos, eol - *pos);
  *pos = eol + 2;
  return true;
}

bool ParseHeaders(std::string_view input, size_t* pos, std::vector<HttpHeader>* headers,
                  bool* done, bool* bad) {
  *done = false;
  *bad = false;
  std::string_view line;
  while (NextLine(input, pos, &line)) {
    if (line.empty()) {
      *done = true;
      return true;
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      *bad = true;
      return true;
    }
    std::string_view name = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    headers->push_back(HttpHeader{std::string(name), std::string(value)});
  }
  return false;  // Ran out of input mid-headers.
}

bool IsChunked(const std::vector<HttpHeader>& headers) {
  for (const HttpHeader& h : headers) {
    if (HttpCodec::HeaderNameEquals(h.name, "Transfer-Encoding") &&
        h.value.find("chunked") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Decodes a chunked body starting at `pos`. kOk: `*body` holds the decoded
// bytes and `*pos` sits past the final CRLF. kIncomplete: need more input.
HttpParseResult DecodeChunkedBody(std::string_view input, size_t* pos, std::string* body) {
  while (true) {
    std::string_view size_line;
    size_t cursor = *pos;
    if (!NextLine(input, &cursor, &size_line)) {
      return HttpParseResult::kIncomplete;
    }
    // Chunk extensions (";...") are permitted and ignored.
    const size_t semi = size_line.find(';');
    if (semi != std::string_view::npos) {
      size_line = size_line.substr(0, semi);
    }
    size_t chunk_len = 0;
    const auto [ptr, ec] = std::from_chars(size_line.data(),
                                           size_line.data() + size_line.size(),
                                           chunk_len, 16);
    if (ec != std::errc{} || ptr != size_line.data() + size_line.size()) {
      return HttpParseResult::kBad;
    }
    if (input.size() - cursor < chunk_len + 2) {
      return HttpParseResult::kIncomplete;
    }
    if (chunk_len == 0) {
      // Final chunk: expect the closing CRLF (no trailers supported).
      if (input.substr(cursor, 2) != "\r\n") {
        return HttpParseResult::kBad;
      }
      *pos = cursor + 2;
      return HttpParseResult::kOk;
    }
    body->append(input.substr(cursor, chunk_len));
    if (input.substr(cursor + chunk_len, 2) != "\r\n") {
      return HttpParseResult::kBad;
    }
    *pos = cursor + chunk_len + 2;
  }
}

// Returns -1 when absent, -2 when malformed.
int64_t ContentLengthOf(const std::vector<HttpHeader>& headers) {
  for (const HttpHeader& h : headers) {
    if (HttpCodec::HeaderNameEquals(h.name, "Content-Length")) {
      int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(h.value.data(), h.value.data() + h.value.size(), value);
      if (ec != std::errc{} || ptr != h.value.data() + h.value.size() || value < 0) {
        return -2;
      }
      return value;
    }
  }
  return -1;
}

}  // namespace

bool HttpCodec::HeaderNameEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view HttpRequest::Header(std::string_view name) const {
  for (const HttpHeader& h : headers) {
    if (HttpCodec::HeaderNameEquals(h.name, name)) {
      return h.value;
    }
  }
  return {};
}

HttpParseResult HttpCodec::ParseRequest(std::string_view input, HttpRequest* out,
                                        size_t* consumed) {
  size_t pos = 0;
  std::string_view request_line;
  if (!NextLine(input, &pos, &request_line)) {
    return HttpParseResult::kIncomplete;
  }
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    return HttpParseResult::kBad;
  }
  HttpRequest request;
  request.method = std::string(request_line.substr(0, sp1));
  request.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request.version = std::string(request_line.substr(sp2 + 1));
  if (request.method.empty() || request.target.empty() ||
      request.target.find(' ') != std::string::npos ||
      request.version.rfind("HTTP/", 0) != 0) {
    return HttpParseResult::kBad;
  }
  bool done = false;
  bool bad = false;
  if (!ParseHeaders(input, &pos, &request.headers, &done, &bad)) {
    return HttpParseResult::kIncomplete;
  }
  if (bad) {
    return HttpParseResult::kBad;
  }
  if (IsChunked(request.headers)) {
    const HttpParseResult chunked = DecodeChunkedBody(input, &pos, &request.body);
    if (chunked != HttpParseResult::kOk) {
      return chunked;
    }
    *out = std::move(request);
    *consumed = pos;
    return HttpParseResult::kOk;
  }
  const int64_t content_length = ContentLengthOf(request.headers);
  if (content_length == -2) {
    return HttpParseResult::kBad;
  }
  const size_t body_len = content_length < 0 ? 0 : static_cast<size_t>(content_length);
  if (input.size() - pos < body_len) {
    return HttpParseResult::kIncomplete;
  }
  request.body = std::string(input.substr(pos, body_len));
  *out = std::move(request);
  *consumed = pos + body_len;
  return HttpParseResult::kOk;
}

std::string HttpCodec::Serialize(const HttpRequest& request) {
  std::string out = request.method + " " + request.target + " " + request.version + "\r\n";
  bool has_length = false;
  for (const HttpHeader& h : request.headers) {
    if (HeaderNameEquals(h.name, "Content-Length")) {
      has_length = true;
      out += "Content-Length: " + std::to_string(request.body.size()) + "\r\n";
      continue;
    }
    out += h.name + ": " + h.value + "\r\n";
  }
  if (!has_length) {
    out += "Content-Length: " + std::to_string(request.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

std::string HttpCodec::Serialize(const HttpResponse& response) {
  std::string out =
      response.version + " " + std::to_string(response.status) + " " + response.reason + "\r\n";
  bool has_length = false;
  for (const HttpHeader& h : response.headers) {
    if (HeaderNameEquals(h.name, "Content-Length")) {
      has_length = true;
      out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
      continue;
    }
    out += h.name + ": " + h.value + "\r\n";
  }
  if (!has_length) {
    out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

}  // namespace nadino

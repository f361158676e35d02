#include "redis_sim/resp.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace cuckoograph::redis_sim {
namespace {

// Locates the CRLF terminating the header line that starts at `pos`:
// the index of '\r', or npos when the buffer ends before a full CRLF.
size_t FindCrlf(std::string_view bytes, size_t pos) {
  return bytes.find("\r\n", pos);
}

// Parses the decimal integer spanning [pos, line_end). Strict: optional
// leading '-', at least one digit, nothing else, and the magnitude must
// fit a long long — overlong headers fail here instead of overflowing,
// like Redis rejecting an oversized length line before accumulating it.
bool ParseDecimal(std::string_view bytes, size_t pos, size_t line_end,
                  long long* out) {
  constexpr long long kMax = std::numeric_limits<long long>::max();
  bool negative = false;
  if (pos < line_end && bytes[pos] == '-') {
    negative = true;
    ++pos;
  }
  if (pos == line_end) return false;
  long long value = 0;
  for (; pos < line_end; ++pos) {
    const char c = bytes[pos];
    if (c < '0' || c > '9') return false;
    const long long digit = c - '0';
    if (value > (kMax - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = negative ? -value : value;
  return true;
}

ParseResult ProtocolError(std::string message) {
  ParseResult result;
  result.status = ParseStatus::kError;
  result.error = std::move(message);
  return result;
}

// Frames the `len`-byte bulk payload whose length header ends at the
// CRLF at `crlf`: kOk with *end one past the payload's own CRLF,
// kIncomplete while bytes are missing, kError when the payload is not
// CRLF-terminated.
ParseStatus FrameBulkPayload(std::string_view bytes, size_t crlf, size_t len,
                             size_t* end) {
  const size_t payload = crlf + 2;
  if (payload + len + 2 > bytes.size()) return ParseStatus::kIncomplete;
  if (bytes[payload + len] != '\r' || bytes[payload + len + 1] != '\n') {
    return ParseStatus::kError;
  }
  *end = payload + len + 2;
  return ParseStatus::kOk;
}

constexpr const char kBulkNotTerminated[] =
    "Protocol error: bulk string not CRLF-terminated";

// Parses one reply value starting at `pos`; on kOk, `*end` is one past
// the value's last byte. Arrays are uncapped: Redis's multibulk limit
// applies only to what clients send (ParseCommand).
ParseResult ParseAt(std::string_view bytes, size_t pos, size_t* end);

ParseResult ParseLinePayload(std::string_view bytes, size_t pos, size_t* end,
                             RespType type) {
  const size_t crlf = FindCrlf(bytes, pos);
  if (crlf == std::string_view::npos) return ParseResult{};
  ParseResult result;
  result.status = ParseStatus::kOk;
  result.value.type = type;
  result.value.text.assign(bytes.substr(pos, crlf - pos));
  *end = crlf + 2;
  return result;
}

ParseResult ParseIntegerValue(std::string_view bytes, size_t pos,
                              size_t* end) {
  const size_t crlf = FindCrlf(bytes, pos);
  if (crlf == std::string_view::npos) return ParseResult{};
  long long value = 0;
  if (!ParseDecimal(bytes, pos, crlf, &value)) {
    return ProtocolError("Protocol error: invalid integer");
  }
  ParseResult result;
  result.status = ParseStatus::kOk;
  result.value = RespValue::Integer(value);
  *end = crlf + 2;
  return result;
}

ParseResult ParseBulk(std::string_view bytes, size_t pos, size_t* end) {
  const size_t crlf = FindCrlf(bytes, pos);
  if (crlf == std::string_view::npos) return ParseResult{};
  long long len = 0;
  if (!ParseDecimal(bytes, pos, crlf, &len) || len < -1 ||
      len > kMaxBulkLen) {
    return ProtocolError("Protocol error: invalid bulk length");
  }
  ParseResult result;
  if (len == -1) {  // $-1\r\n: the null bulk string
    result.status = ParseStatus::kOk;
    result.value = RespValue::Null();
    *end = crlf + 2;
    return result;
  }
  const size_t body = static_cast<size_t>(len);  // len >= 0 checked above
  const ParseStatus framed = FrameBulkPayload(bytes, crlf, body, end);
  if (framed == ParseStatus::kIncomplete) return ParseResult{};
  if (framed == ParseStatus::kError) return ProtocolError(kBulkNotTerminated);
  result.status = ParseStatus::kOk;
  result.value = RespValue::Bulk(std::string(bytes.substr(crlf + 2, body)));
  return result;
}

ParseResult ParseArray(std::string_view bytes, size_t pos, size_t* end) {
  const size_t crlf = FindCrlf(bytes, pos);
  if (crlf == std::string_view::npos) return ParseResult{};
  long long len = 0;
  if (!ParseDecimal(bytes, pos, crlf, &len) || len < -1) {
    return ProtocolError("Protocol error: invalid multibulk length");
  }
  ParseResult result;
  if (len == -1) {  // *-1\r\n: the null array
    result.status = ParseStatus::kOk;
    result.value = RespValue::Null();
    *end = crlf + 2;
    return result;
  }
  std::vector<RespValue> elements;
  // Clamp the reserve: a garbage header claiming a huge length must not
  // allocate before its (missing) elements fail to parse.
  elements.reserve(static_cast<size_t>(std::min(len, 1024LL)));
  size_t cursor = crlf + 2;
  for (long long i = 0; i < len; ++i) {
    size_t next = 0;
    ParseResult element = ParseAt(bytes, cursor, &next);
    if (element.status != ParseStatus::kOk) return element;
    elements.push_back(std::move(element.value));
    cursor = next;
  }
  result.status = ParseStatus::kOk;
  result.value = RespValue::Array(std::move(elements));
  *end = cursor;
  return result;
}

ParseResult ParseAt(std::string_view bytes, size_t pos, size_t* end) {
  if (pos >= bytes.size()) return ParseResult{};
  switch (bytes[pos]) {
    case '+':
      return ParseLinePayload(bytes, pos + 1, end, RespType::kSimpleString);
    case '-':
      return ParseLinePayload(bytes, pos + 1, end, RespType::kError);
    case ':':
      return ParseIntegerValue(bytes, pos + 1, end);
    case '$':
      return ParseBulk(bytes, pos + 1, end);
    case '*':
      return ParseArray(bytes, pos + 1, end);
    default:
      return ProtocolError(std::string("Protocol error: unknown type byte '") +
                           bytes[pos] + "'");
  }
}

}  // namespace

RespValue RespValue::Simple(std::string s) {
  RespValue v;
  v.type = RespType::kSimpleString;
  v.text = std::move(s);
  return v;
}

RespValue RespValue::Error(std::string message) {
  RespValue v;
  v.type = RespType::kError;
  v.text = std::move(message);
  return v;
}

RespValue RespValue::Integer(long long value) {
  RespValue v;
  v.type = RespType::kInteger;
  v.integer = value;
  return v;
}

RespValue RespValue::Bulk(std::string payload) {
  RespValue v;
  v.type = RespType::kBulkString;
  v.text = std::move(payload);
  return v;
}

RespValue RespValue::Null() { return RespValue{}; }

RespValue RespValue::Array(std::vector<RespValue> elements) {
  RespValue v;
  v.type = RespType::kArray;
  v.elements = std::move(elements);
  return v;
}

namespace {

// Line-framed payloads (simple strings, errors) cannot contain CR/LF —
// one would split the frame and desync the stream. Redis sanitizes error
// text the same way; bulk strings are length-prefixed and stay verbatim.
void AppendLineSafe(std::string* out, const std::string& text) {
  for (const char c : text) {
    *out += (c == '\r' || c == '\n') ? ' ' : c;
  }
}

}  // namespace

std::string Encode(const RespValue& value) {
  std::string out;
  switch (value.type) {
    case RespType::kSimpleString:
      out += '+';
      AppendLineSafe(&out, value.text);
      out += "\r\n";
      break;
    case RespType::kError:
      out += '-';
      AppendLineSafe(&out, value.text);
      out += "\r\n";
      break;
    case RespType::kInteger:
      out += ':';
      out += std::to_string(value.integer);
      out += "\r\n";
      break;
    case RespType::kBulkString:
      out += '$';
      out += std::to_string(value.text.size());
      out += "\r\n";
      out += value.text;
      out += "\r\n";
      break;
    case RespType::kNull:
      out += "$-1\r\n";
      break;
    case RespType::kArray:
      out += '*';
      out += std::to_string(value.elements.size());
      out += "\r\n";
      for (const RespValue& element : value.elements) {
        out += Encode(element);
      }
      break;
  }
  return out;
}

std::string EncodeCommand(const std::vector<std::string>& argv) {
  std::vector<RespValue> elements;
  elements.reserve(argv.size());
  for (const std::string& arg : argv) elements.push_back(RespValue::Bulk(arg));
  return Encode(RespValue::Array(std::move(elements)));
}

ParseResult ParseValue(std::string_view bytes) {
  size_t end = 0;
  ParseResult result = ParseAt(bytes, 0, &end);
  if (result.status == ParseStatus::kOk) result.consumed = end;
  return result;
}

namespace {

CommandParse CommandError(std::string message) {
  CommandParse result;
  result.status = ParseStatus::kError;
  result.error = std::move(message);
  return result;
}

// Locates the CRLF ending the request header line that starts at `pos`:
// the index of its '\r', or npos while the line may still end. The
// search covers at most kMaxInlineLen line bytes plus the CRLF; once
// that many bytes have arrived with no terminator, *too_long is set.
size_t FindRequestCrlf(std::string_view bytes, size_t pos, bool* too_long) {
  const std::string_view window = bytes.substr(pos, kMaxInlineLen + 2);
  const size_t crlf = window.find("\r\n");
  if (crlf != std::string_view::npos) return pos + crlf;
  *too_long = window.size() == kMaxInlineLen + 2;
  return std::string_view::npos;
}

CommandParse ParseInlineCommand(std::string_view bytes) {
  const size_t lf = bytes.substr(0, kMaxInlineLen + 1).find('\n');
  if (lf == std::string_view::npos) {
    if (bytes.size() > kMaxInlineLen) {
      return CommandError("Protocol error: too big inline request");
    }
    return CommandParse{};
  }
  size_t line_end = lf;
  if (line_end > 0 && bytes[line_end - 1] == '\r') --line_end;
  CommandParse result;
  result.status = ParseStatus::kOk;
  result.consumed = lf + 1;
  size_t pos = 0;
  while (pos < line_end) {
    while (pos < line_end && (bytes[pos] == ' ' || bytes[pos] == '\t')) ++pos;
    size_t start = pos;
    while (pos < line_end && bytes[pos] != ' ' && bytes[pos] != '\t') ++pos;
    if (pos > start) {
      result.argv.emplace_back(bytes.substr(start, pos - start));
    }
  }
  return result;
}

// A multibulk request: "*<count>\r\n" then <count> bulk strings, parsed
// the way Redis's processMultibulkBuffer does — each element must start
// with '$', checked as soon as its first byte arrives.
CommandParse ParseMultibulkCommand(std::string_view bytes) {
  bool too_long = false;
  const size_t count_end = FindRequestCrlf(bytes, 1, &too_long);
  if (too_long) {
    return CommandError("Protocol error: too big mbulk count string");
  }
  if (count_end == std::string_view::npos) return CommandParse{};
  long long count = 0;
  // *-1 (the null array) is a reply form, not a request.
  if (!ParseDecimal(bytes, 1, count_end, &count) || count < 0 ||
      count > kMaxMultibulkLen) {
    return CommandError("Protocol error: invalid multibulk length");
  }
  CommandParse result;
  // Clamp the reserve: a header claiming a huge count must not allocate
  // before its (missing) elements arrive.
  result.argv.reserve(static_cast<size_t>(std::min(count, 1024LL)));
  size_t cursor = count_end + 2;
  for (long long i = 0; i < count; ++i) {
    if (cursor >= bytes.size()) return CommandParse{};
    if (bytes[cursor] != '$') {
      return CommandError(std::string("Protocol error: expected '$', got '") +
                          bytes[cursor] + "'");
    }
    const size_t len_end = FindRequestCrlf(bytes, cursor + 1, &too_long);
    if (too_long) {
      return CommandError("Protocol error: too big bulk count string");
    }
    if (len_end == std::string_view::npos) return CommandParse{};
    long long len = 0;
    if (!ParseDecimal(bytes, cursor + 1, len_end, &len) || len < 0 ||
        len > kMaxBulkLen) {
      return CommandError("Protocol error: invalid bulk length");
    }
    const size_t body = static_cast<size_t>(len);
    size_t next = 0;
    const ParseStatus framed = FrameBulkPayload(bytes, len_end, body, &next);
    if (framed == ParseStatus::kIncomplete) return CommandParse{};
    if (framed == ParseStatus::kError) return CommandError(kBulkNotTerminated);
    result.argv.emplace_back(bytes.substr(len_end + 2, body));
    cursor = next;
  }
  result.status = ParseStatus::kOk;
  result.consumed = cursor;
  return result;
}

}  // namespace

CommandParse ParseCommand(std::string_view bytes) {
  if (bytes.empty()) return CommandParse{};
  if (bytes[0] == '*') return ParseMultibulkCommand(bytes);
  return ParseInlineCommand(bytes);
}

}  // namespace cuckoograph::redis_sim

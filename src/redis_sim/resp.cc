#include "redis_sim/resp.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <utility>

namespace cuckoograph::redis_sim {
namespace {

// Locates the CRLF terminating the header line that starts at `pos`:
// the index of its '\r', or npos when no full CRLF lies before `end`
// (clamped to the buffer). One memchr per '\r', with no memcmp after it.
size_t FindCrlf(std::string_view bytes, size_t pos,
                size_t end = std::string_view::npos) {
  const char* const data = bytes.data();
  const char* const stop = data + std::min(end, bytes.size());
  for (const char* cr = data + pos;
       (cr = static_cast<const char*>(std::memchr(cr, '\r', stop - cr))) !=
       nullptr;
       ++cr) {
    if (cr + 1 < stop && cr[1] == '\n') return static_cast<size_t>(cr - data);
  }
  return std::string_view::npos;
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

// Line-framed payloads (simple strings, errors) cannot contain CR/LF —
// one would split the frame and desync the stream. Redis sanitizes error
// text the same way; bulk strings are length-prefixed and stay verbatim.
void AppendLine(std::string* out, char type, std::string_view text) {
  const size_t start = out->size();
  *out += type;
  out->append(text.data(), text.size());
  for (size_t i = start + 1; i < out->size(); ++i) {
    if ((*out)[i] == '\r' || (*out)[i] == '\n') (*out)[i] = ' ';
  }
  out->append("\r\n", 2);
}

// "<type><n>\r\n", formatted without a temporary string.
void AppendHeader(std::string* out, char type, long long n) {
  char buf[24];
  buf[0] = type;
  char* end = std::to_chars(buf + 1, buf + sizeof(buf) - 2, n).ptr;
  *end++ = '\r';
  *end++ = '\n';
  out->append(buf, static_cast<size_t>(end - buf));
}

void AppendValue(std::string* out, const RespValue& value) {
  switch (value.type) {
    case RespType::kSimpleString:
      AppendSimple(out, value.text);
      break;
    case RespType::kError:
      AppendError(out, value.text);
      break;
    case RespType::kInteger:
      AppendInteger(out, value.integer);
      break;
    case RespType::kBulkString:
      AppendBulk(out, value.text);
      break;
    case RespType::kNull:
      out->append("$-1\r\n", 5);
      break;
    case RespType::kArray:
      AppendArrayHeader(out, value.elements.size());
      for (const RespValue& element : value.elements) {
        AppendValue(out, element);
      }
      break;
  }
}

}  // namespace

void AppendSimple(std::string* out, std::string_view text) {
  AppendLine(out, '+', text);
}

void AppendError(std::string* out, std::string_view message) {
  AppendLine(out, '-', message);
}

void AppendInteger(std::string* out, long long value) {
  // Redis's shared.czero / shared.cone: the two replies every CG.* edge
  // command answers with.
  if (value == 0 || value == 1) {
    out->append(value == 0 ? ":0\r\n" : ":1\r\n", 4);
    return;
  }
  AppendHeader(out, ':', value);
}

void AppendBulk(std::string* out, std::string_view payload) {
  AppendHeader(out, '$', static_cast<long long>(payload.size()));
  out->append(payload.data(), payload.size());
  out->append("\r\n", 2);
}

void AppendArrayHeader(std::string* out, size_t count) {
  AppendHeader(out, '*', static_cast<long long>(count));
}

std::string Encode(const RespValue& value) {
  std::string out;
  AppendValue(&out, value);
  return out;
}

std::string EncodeCommand(const std::vector<std::string>& argv) {
  std::string out;
  AppendArrayHeader(&out, argv.size());
  for (const std::string& arg : argv) AppendBulk(&out, arg);
  return out;
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
  const size_t end = pos + kMaxInlineLen + 2;
  const size_t crlf = FindCrlf(bytes, pos, end);
  *too_long = crlf == std::string_view::npos && bytes.size() >= end;
  return crlf;
}

CommandParse ParseInlineCommand(std::string_view bytes,
                                std::vector<std::string_view>* argv) {
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
      argv->push_back(bytes.substr(start, pos - start));
    }
  }
  return result;
}

// A multibulk request: "*<count>\r\n" then <count> bulk strings, parsed
// the way Redis's processMultibulkBuffer does — each element must start
// with '$', checked as soon as its first byte arrives.
CommandParse ParseMultibulkCommand(std::string_view bytes,
                                   std::vector<std::string_view>* argv) {
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
    argv->push_back(bytes.substr(len_end + 2, body));
    cursor = next;
  }
  result.status = ParseStatus::kOk;
  result.consumed = cursor;
  return result;
}

}  // namespace

CommandParse ParseCommand(std::string_view bytes,
                          std::vector<std::string_view>* argv) {
  argv->clear();
  if (bytes.empty()) return CommandParse{};
  if (bytes[0] == '*') return ParseMultibulkCommand(bytes, argv);
  return ParseInlineCommand(bytes, argv);
}

}  // namespace cuckoograph::redis_sim

#include "redis_sim/command_table.h"

#include <cctype>
#include <utility>

namespace cuckoograph::redis_sim {
namespace {

char UpperAscii(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace

const CommandTable::CommandEntry* CommandTable::Find(
    std::string_view name) const {
  for (const CommandEntry& entry : commands_) {
    if (entry.name.size() != name.size()) continue;
    size_t i = 0;
    while (i < name.size() && UpperAscii(name[i]) == entry.name[i]) ++i;
    if (i == name.size()) return &entry;
  }
  return nullptr;
}

bool CommandTable::RegisterCommand(std::string_view name, int arity,
                                   CommandHandler handler) {
  if (Find(name) != nullptr) return false;
  std::string upper(name);
  for (char& c : upper) c = UpperAscii(c);
  commands_.push_back(
      CommandEntry{std::move(upper), arity, std::move(handler)});
  return true;
}

std::vector<std::string> CommandTable::CommandNames() const {
  std::vector<std::string> names;
  names.reserve(commands_.size());
  for (const CommandEntry& entry : commands_) names.push_back(entry.name);
  return names;
}

bool CommandTable::Dispatch(Span<const std::string_view> argv,
                            std::string* out) const {
  const CommandEntry* entry = Find(argv[0]);
  if (entry == nullptr) {
    AppendError(out, "ERR unknown command '" + std::string(argv[0]) + "'");
    return false;
  }
  const int argc = static_cast<int>(argv.size());
  const bool arity_ok =
      entry->arity >= 0 ? argc == entry->arity : argc >= -entry->arity;
  if (!arity_ok) {
    std::string lower(argv[0]);
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    AppendError(out,
                "ERR wrong number of arguments for '" + lower + "' command");
    return false;
  }
  const size_t start = out->size();
  entry->handler(argv, out);
  return out->size() == start || (*out)[start] != '-';
}

RespValue CommandTable::Dispatch(Span<const std::string_view> argv) const {
  std::string reply;  // an integer reply fits the small-string buffer
  Dispatch(argv, &reply);
  return ParseValue(reply).value;
}

bool RespConnection::Feed(std::string_view bytes, std::string* out) {
  stats_.bytes_in += bytes.size();
  const size_t out_start = out->size();
  const bool buffered = !buffer_.empty();
  if (buffered) buffer_.append(bytes.data(), bytes.size());
  const std::string_view input = buffered ? std::string_view(buffer_) : bytes;
  bool clean = true;
  size_t pos = 0;
  while (pos < input.size()) {
    const CommandParse parsed = ParseCommand(input.substr(pos), &argv_);
    if (parsed.status == ParseStatus::kIncomplete) break;
    if (parsed.status == ParseStatus::kError) {
      AppendError(out, "ERR " + parsed.error);
      ++stats_.error_replies;
      ++stats_.protocol_errors;
      pos = input.size();  // drop the poisoned stream
      clean = false;
      break;
    }
    pos += parsed.consumed;
    if (argv_.empty()) continue;  // blank line / empty multibulk
    ++stats_.commands;
    if (!table_->Dispatch(Span<const std::string_view>(argv_), out)) {
      ++stats_.error_replies;
    }
  }
  // Keep only the incomplete tail; `input` may alias buffer_.
  if (buffered) {
    buffer_.erase(0, pos);
  } else {
    buffer_.assign(input.substr(pos));
  }
  stats_.bytes_out += out->size() - out_start;
  return clean;
}

}  // namespace cuckoograph::redis_sim

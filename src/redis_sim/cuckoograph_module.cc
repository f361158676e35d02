#include "redis_sim/cuckoograph_module.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace cuckoograph::redis_sim {
namespace {

// Strict decimal uint32 parse (the full NodeId range, 0 and ~0u included).
// No sign, no whitespace, no trailing junk — the same strings Redis's
// string2ll would take, narrowed to the NodeId width.
bool ParseNodeId(std::string_view s, NodeId* out) {
  if (s.empty() || s.size() > 10) return false;
  uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value > 0xffffffffull) return false;
  *out = static_cast<NodeId>(value);
  return true;
}

const char kNotAnInteger[] = "ERR value is not an integer or out of range";

}  // namespace

void RegisterGraphCommands(CommandTable* table, GraphStore* store) {
  // The u-v commands share one parse-then-call shape.
  const auto edge_command = [table](const char* name, auto op) {
    table->RegisterCommand(
        name, 3, [op](Span<const std::string_view> argv, std::string* out) {
          NodeId u = 0, v = 0;
          if (!ParseNodeId(argv[1], &u) || !ParseNodeId(argv[2], &v)) {
            return AppendError(out, kNotAnInteger);
          }
          AppendInteger(out, op(u, v) ? 1 : 0);
        });
  };
  const auto del = [store](NodeId u, NodeId v) {
    return store->DeleteEdge(u, v);
  };
  edge_command("CG.INSERT",
               [store](NodeId u, NodeId v) { return store->InsertEdge(u, v); });
  edge_command("CG.DEL", del);
  edge_command("CG.DELETE", del);
  edge_command("CG.QUERY",
               [store](NodeId u, NodeId v) { return store->QueryEdge(u, v); });

  table->RegisterCommand(
      "CG.DEGREE", 2,
      [store](Span<const std::string_view> argv, std::string* out) {
        NodeId u = 0;
        if (!ParseNodeId(argv[1], &u)) return AppendError(out, kNotAnInteger);
        AppendInteger(out, static_cast<long long>(store->OutDegree(u)));
      });

  table->RegisterCommand(
      "CG.NEIGHBORS", 2,
      [store](Span<const std::string_view> argv, std::string* out) {
        NodeId u = 0;
        if (!ParseNodeId(argv[1], &u)) return AppendError(out, kNotAnInteger);
        // The array header carries the count, so collect before appending.
        std::vector<NodeId> successors;
        store->ForEachNeighbor(
            u, [&successors](NodeId v) { successors.push_back(v); });
        AppendArrayHeader(out, successors.size());
        for (const NodeId v : successors) AppendBulk(out, std::to_string(v));
      });
}

}  // namespace cuckoograph::redis_sim

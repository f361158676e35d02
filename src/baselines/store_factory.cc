#include "baselines/store_factory.h"

#include <stdexcept>
#include <utility>

#include "baselines/adjacency_list_store.h"
#include "baselines/hash_map_store.h"
#include "baselines/sorted_vector_store.h"
#include "core/cuckoo_graph.h"
#include "core/sharded_cuckoo_graph.h"
#include "core/weighted_cuckoo_graph.h"

namespace cuckoograph {

namespace {

struct Registry {
  std::vector<std::pair<std::string, StoreFactory>> entries;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

bool AddEntry(std::string name, StoreFactory factory) {
  Registry& registry = GetRegistry();
  for (const auto& [existing, f] : registry.entries) {
    if (existing == name) return false;
  }
  registry.entries.emplace_back(std::move(name), std::move(factory));
  return true;
}

// The built-ins are registered lazily (not via cross-TU static
// initializers, whose order is unspecified and which static libraries may
// drop) so the bench column order is always the paper's: CuckooGraph,
// then the LiveGraph / Spruce / Sortledton stand-ins. Every public entry
// point (RegisterStore included, so StoreRegistrar statics cannot jump the
// queue) funnels through here first.
void EnsureBuiltins() {
  static const bool done = [] {
    AddEntry("CuckooGraph", [] { return std::make_unique<CuckooGraph>(); });
    AddEntry("AdjacencyList", [] {
      return std::make_unique<baselines::AdjacencyListStore>();
    });
    AddEntry("HashMap",
             [] { return std::make_unique<baselines::HashMapStore>(); });
    AddEntry("SortedVector", [] {
      return std::make_unique<baselines::SortedVectorStore>();
    });
    // The extended (weighted) store trails the paper's comparison columns;
    // weight-requiring benches (fig11 SSSP) find it via Capabilities().
    AddEntry("cuckoo-weighted",
             [] { return std::make_unique<WeightedCuckooGraph>(); });
    // The concurrent sharded front-end (Config::num_shards shards at the
    // default geometry); the only built-in advertising thread-safe ops.
    AddEntry("cuckoo-sharded",
             [] { return std::make_unique<ShardedCuckooGraph>(); });
    return true;
  }();
  (void)done;
}

std::string JoinSchemeNames() {
  std::string joined;
  for (const auto& [name, factory] : GetRegistry().entries) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

// Registry lookup shared by MakeStoreByName and ParseSchemesFlag; throws
// the one canonical unknown-name error.
const StoreFactory& FindEntry(const std::string& name) {
  for (const auto& [candidate, factory] : GetRegistry().entries) {
    if (candidate == name) return factory;
  }
  throw std::invalid_argument("unknown scheme '" + name +
                              "'; valid schemes: " + JoinSchemeNames());
}

}  // namespace

bool RegisterStore(std::string name, StoreFactory factory) {
  EnsureBuiltins();
  return AddEntry(std::move(name), std::move(factory));
}

std::vector<std::string> AllSchemeNames() {
  EnsureBuiltins();
  std::vector<std::string> names;
  names.reserve(GetRegistry().entries.size());
  for (const auto& [name, factory] : GetRegistry().entries) {
    names.push_back(name);
  }
  return names;
}

std::unique_ptr<GraphStore> MakeStoreByName(const std::string& name) {
  EnsureBuiltins();
  return FindEntry(name)();
}

std::vector<std::string> ParseSchemesFlag(const std::string& csv) {
  EnsureBuiltins();
  if (csv.empty()) return AllSchemeNames();
  std::vector<std::string> selected;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    const std::string name = csv.substr(start, end - start);
    if (!name.empty()) {
      FindEntry(name);  // throws on unknown names
      selected.push_back(name);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return selected;
}

}  // namespace cuckoograph

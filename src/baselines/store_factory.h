// Registry-backed GraphStore factory: the comparison benches (Figures 6-9,
// Table III, the analytics figures) enumerate AllSchemeNames() for their
// columns and instantiate each scheme with MakeStoreByName().
//
// The factory registers the built-in schemes itself (CuckooGraph plus the
// three baseline stand-ins in the paper's column order, then the weighted
// "cuckoo-weighted" and the concurrent "cuckoo-sharded" extended stores);
// out-of-tree schemes self-register by defining a static StoreRegistrar
// in their translation unit:
//
//   static const StoreRegistrar kReg("MyStore", [] {
//     return std::make_unique<MyStore>();
//   });
//
// The registry is not synchronized: register from static initializers or
// from startup code before any concurrent use, exactly like the built-ins.
//
// Every scheme is an in-memory structure. Durability is a decorator, not
// a scheme: wrap any store with persist::DurableStore::Open, e.g.
//
//   DurableStore::Open(MakeStoreByName("CuckooGraph"), "cuckoo-durable",
//                      opts, &error);
#ifndef CUCKOOGRAPH_BASELINES_STORE_FACTORY_H_
#define CUCKOOGRAPH_BASELINES_STORE_FACTORY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/graph_store.h"

namespace cuckoograph {

using StoreFactory = std::function<std::unique_ptr<GraphStore>()>;

// Adds a scheme to the registry. Returns false (keeping the existing
// entry) when the name is already taken.
bool RegisterStore(std::string name, StoreFactory factory);

// Scheme names in registration order, built-ins first.
std::vector<std::string> AllSchemeNames();

// Instantiates the named scheme. Throws std::invalid_argument with a
// message listing every valid scheme when the name is unknown.
std::unique_ptr<GraphStore> MakeStoreByName(const std::string& name);

// Parses a comma-separated scheme list (the benches' --schemes flag),
// validating each entry through the same unknown-name path as
// MakeStoreByName. An empty string selects every registered scheme.
std::vector<std::string> ParseSchemesFlag(const std::string& csv);

// Registers a scheme at static-initialization time.
struct StoreRegistrar {
  StoreRegistrar(std::string name, StoreFactory factory) {
    RegisterStore(std::move(name), std::move(factory));
  }
};

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_BASELINES_STORE_FACTORY_H_

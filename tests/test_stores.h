// The store matrix of the scheme-parameterized suites: every in-memory
// registry scheme, plus the DurableStore decorator over CuckooGraph
// ("cuckoo-durable") and over cuckoo-sharded ("cuckoo-sharded-durable").
// Durability is not a registry scheme, so the suites open the decorator
// the way any embedding does — DurableStore::Open over the inner scheme —
// in a temp dir the test owns and removes.
#ifndef CUCKOOGRAPH_TESTS_TEST_STORES_H_
#define CUCKOOGRAPH_TESTS_TEST_STORES_H_

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/store_factory.h"
#include "core/graph_store.h"
#include "gtest/gtest.h"
#include "persist/durable_store.h"
#include "persist/file_io.h"

namespace cuckoograph::test_stores {

// The registry scheme a decorated name wraps; null for any other name.
inline const char* DurableInner(const std::string& name) {
  if (name == "cuckoo-durable") return "CuckooGraph";
  if (name == "cuckoo-sharded-durable") return "cuckoo-sharded";
  return nullptr;
}

// Registry schemes in registration order, then the two decorated names.
inline std::vector<std::string> AllStoreNames() {
  std::vector<std::string> names = AllSchemeNames();
  names.push_back("cuckoo-durable");
  names.push_back("cuckoo-sharded-durable");
  return names;
}

// Parameter-name printer: store names may contain '-', which gtest test
// names cannot.
inline std::string ParamName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// Opens `display_name` as a DurableStore over `inner` (recovering what
// `opts.dir` holds). Throws std::runtime_error on failure.
inline std::unique_ptr<persist::DurableStore> OpenDurable(
    std::unique_ptr<GraphStore> inner, const std::string& display_name,
    const persist::DurableOptions& opts) {
  std::string error;
  auto store =
      persist::DurableStore::Open(std::move(inner), display_name, opts, &error);
  if (store == nullptr) {
    throw std::runtime_error("open " + display_name + ": " + error);
  }
  return store;
}

// Makes the stores of one test. Every decorated store gets a fresh
// subdirectory of one temp dir, with syncs off, and the maker removes the
// tree when it is destroyed — so declare it before the stores it makes,
// which then close first.
class StoreMaker {
 public:
  StoreMaker() = default;
  StoreMaker(const StoreMaker&) = delete;
  StoreMaker& operator=(const StoreMaker&) = delete;
  ~StoreMaker() {
    if (!root_.empty()) persist::RemoveDirTree(root_);
  }

  // A registry scheme, or a decorated name over its inner scheme.
  std::unique_ptr<GraphStore> Make(const std::string& name) {
    const char* inner = DurableInner(name);
    if (inner == nullptr) return MakeStoreByName(name);
    return Wrap(MakeStoreByName(inner), name);
  }

  // The decorator over any store, in the next fresh subdirectory.
  std::unique_ptr<persist::DurableStore> Wrap(
      std::unique_ptr<GraphStore> inner, const std::string& display_name) {
    if (root_.empty()) {
      std::string error;
      root_ = persist::MakeTempDir("test-stores-", &error);
      if (root_.empty()) throw std::runtime_error(error);
    }
    persist::DurableOptions opts;
    opts.dir = root_ + "/" + std::to_string(next_dir_++);
    opts.sync_mode = WalSyncMode::kNone;
    return OpenDurable(std::move(inner), display_name, opts);
  }

 private:
  std::string root_;
  int next_dir_ = 0;
};

}  // namespace cuckoograph::test_stores

#endif  // CUCKOOGRAPH_TESTS_TEST_STORES_H_

#include "core/cuckoo_graph.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/crash_point.h"

namespace cuckoograph {

static_assert(CuckooGraph::kInlineSlots <=
                  static_cast<int>(internal::kKeyLanes),
              "inline slots must fit the SIMD key-probe lane count");

namespace internal {

// A per-vertex S-CHT chain: up to R nested cuckoo tables (head first) plus
// this table set's denylist. `size` counts every stored neighbour,
// denylist included.
struct Chain {
  std::vector<CuckooTable<CuckooGraph::Neighbor>> tables;
  std::vector<CuckooGraph::Neighbor> denylist;
  size_t size = 0;
};

}  // namespace internal

namespace {

Config Normalize(Config config) {
  config.l_initial_buckets = std::max<size_t>(1, config.l_initial_buckets);
  config.s_initial_buckets = std::max<size_t>(1, config.s_initial_buckets);
  // One probe mask covers a whole bucket, so d is capped at the mask width.
  config.cells_per_bucket =
      std::min<int>(internal::kMaxProbeWidth,
                    std::max(1, config.cells_per_bucket));
  config.max_kicks = std::max(1, config.max_kicks);
  config.max_chain_tables = std::max(1, config.max_chain_tables);
  config.expand_threshold =
      std::min(0.95, std::max(0.1, config.expand_threshold));
  return config;
}

}  // namespace

CuckooGraph::CuckooGraph(const Config& config)
    : config_(Normalize(config)),
      h1_(0x7feb352d),
      h2_(0x846ca68b),
      rng_(0x2545f4914f6cdd1dULL),
      l_(config_.l_initial_buckets, config_.cells_per_bucket) {}

CuckooGraph::~CuckooGraph() {
  l_.ForEach([](const VertexEntry& e) {
    if (e.has_chain) delete e.chain;
  });
  for (const VertexEntry& e : l_denylist_) {
    if (e.has_chain) delete e.chain;
  }
}

// ---- Public interface ------------------------------------------------------

bool CuckooGraph::InsertEdge(NodeId u, NodeId v) {
  return Upsert(u, v, 1, /*accumulate=*/false).second;
}

bool CuckooGraph::QueryEdge(NodeId u, NodeId v) const {
  const VertexEntry* e = FindVertex(u);
  return e != nullptr && FindWeight(e, v) != nullptr;
}

bool CuckooGraph::DeleteEdge(NodeId u, NodeId v) {
  VertexEntry* e = FindVertex(u);
  if (e == nullptr) return false;
  if (!e->has_chain) {
    const uint32_t mask =
        internal::MatchKeyMask(e->inline_.v, e->degree, v);
    if (mask == 0) return false;
    const uint32_t i = static_cast<uint32_t>(__builtin_ctz(mask));
    e->inline_.v[i] = e->inline_.v[e->degree - 1];
    e->inline_.w[i] = e->inline_.w[e->degree - 1];
    --e->degree;
  } else {
    if (!ChainErase(e->chain, v)) return false;
    --e->degree;
  }
  --num_edges_;
  if (e->degree == 0) {
    RemoveVertex(u);
    if (config_.enable_reverse_transform) MaybeShrinkL();
    return true;
  }
  if (e->has_chain && config_.enable_reverse_transform) {
    MaybeReverseTransform(e);
  }
  return true;
}

// Streams one vertex's adjacency: the inline slots, or the chain's tables
// (occupied cells, head table first) followed by the chain's denylist.
class CuckooGraph::NeighborCursorImpl final : public NeighborCursor {
 public:
  explicit NeighborCursorImpl(const VertexEntry* e) : e_(e) {}

  size_t Next(NodeId* out, size_t capacity) override {
    size_t written = 0;
    if (!e_->has_chain) {
      while (written < capacity && inline_i_ < e_->degree) {
        out[written++] = e_->inline_.v[inline_i_++];
      }
      return written;
    }
    const internal::Chain& c = *e_->chain;
    while (written < capacity && table_i_ < c.tables.size()) {
      const auto& t = c.tables[table_i_];
      while (written < capacity && slot_ < t.num_cells()) {
        if (t.used(slot_)) out[written++] = t.cell(slot_).v;
        ++slot_;
      }
      if (slot_ == t.num_cells()) {
        ++table_i_;
        slot_ = 0;
      }
    }
    while (written < capacity && deny_i_ < c.denylist.size()) {
      out[written++] = c.denylist[deny_i_++].v;
    }
    return written;
  }

 private:
  const VertexEntry* e_;
  uint32_t inline_i_ = 0;
  size_t table_i_ = 0;
  size_t slot_ = 0;
  size_t deny_i_ = 0;
};

// Streams every vertex key: the L-CHT's occupied cells, then the L-CHT
// denylist.
class CuckooGraph::NodeCursorImpl final : public NeighborCursor {
 public:
  explicit NodeCursorImpl(const CuckooGraph* g) : g_(g) {}

  size_t Next(NodeId* out, size_t capacity) override {
    size_t written = 0;
    const auto& l = g_->l_;
    while (written < capacity && slot_ < l.num_cells()) {
      if (l.used(slot_)) out[written++] = l.cell(slot_).key;
      ++slot_;
    }
    while (written < capacity && deny_i_ < g_->l_denylist_.size()) {
      out[written++] = g_->l_denylist_[deny_i_++].key;
    }
    return written;
  }

 private:
  const CuckooGraph* g_;
  size_t slot_ = 0;
  size_t deny_i_ = 0;
};

std::unique_ptr<NeighborCursor> CuckooGraph::Neighbors(NodeId u) const {
  const VertexEntry* e = FindVertex(u);
  if (e == nullptr) return std::make_unique<EmptyNeighborCursor>();
  return std::make_unique<NeighborCursorImpl>(e);
}

std::unique_ptr<NeighborCursor> CuckooGraph::Nodes() const {
  return std::make_unique<NodeCursorImpl>(this);
}

size_t CuckooGraph::NumNodes() const {
  return l_.size() + l_denylist_.size();
}

size_t CuckooGraph::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += l_.MemoryBytes();
  bytes += l_denylist_.capacity() * sizeof(VertexEntry);
  const auto add_chain = [this, &bytes](const VertexEntry& e) {
    if (e.has_chain) bytes += ChainMemory(*e.chain);
  };
  l_.ForEach(add_chain);
  for (const VertexEntry& e : l_denylist_) add_chain(e);
  return bytes;
}

GraphStats CuckooGraph::stats() const {
  GraphStats st;
  st.l = l_stats_;
  st.s = s_stats_;
  st.num_chains = num_chains_;
  st.transformations = transformations_;
  st.reverse_transformations = reverse_transformations_;
  st.denylist_parks = denylist_parks_;
  return st;
}

size_t CuckooGraph::OutDegree(NodeId u) const {
  const VertexEntry* e = FindVertex(u);
  return e == nullptr ? 0 : e->degree;
}

std::vector<size_t> CuckooGraph::SChainLengths(NodeId u) const {
  std::vector<size_t> lengths;
  const VertexEntry* e = FindVertex(u);
  if (e == nullptr || !e->has_chain) return lengths;
  for (const auto& t : e->chain->tables) lengths.push_back(t.num_buckets());
  return lengths;
}

uint64_t CuckooGraph::AddEdgeWeight(NodeId u, NodeId v, uint32_t delta) {
  return Upsert(u, v, delta, /*accumulate=*/true).first;
}

uint64_t CuckooGraph::GetEdgeWeight(NodeId u, NodeId v) const {
  const VertexEntry* e = FindVertex(u);
  if (e == nullptr) return 0;
  const uint32_t* w = FindWeight(e, v);
  return w == nullptr ? 0 : *w;
}

// ---- Vertex lookup and the L-CHT -------------------------------------------

CuckooGraph::VertexEntry* CuckooGraph::FindVertex(NodeId u) {
  const size_t slot = l_.FindSlot(u, h1_, h2_);
  if (slot != internal::kNoSlot) return &l_.cell(slot);
  for (VertexEntry& e : l_denylist_) {
    if (e.key == u) return &e;
  }
  return nullptr;
}

const CuckooGraph::VertexEntry* CuckooGraph::FindVertex(NodeId u) const {
  return const_cast<CuckooGraph*>(this)->FindVertex(u);
}

uint32_t* CuckooGraph::FindWeight(VertexEntry* e, NodeId v) {
  return const_cast<uint32_t*>(
      static_cast<const CuckooGraph*>(this)->FindWeight(e, v));
}

const uint32_t* CuckooGraph::FindWeight(const VertexEntry* e,
                                        NodeId v) const {
  if (!e->has_chain) {
    const uint32_t mask =
        internal::MatchKeyMask(e->inline_.v, e->degree, v);
    if (mask == 0) return nullptr;
    return &e->inline_.w[__builtin_ctz(mask)];
  }
  for (const auto& t : e->chain->tables) {
    const size_t slot = t.FindSlot(v, h1_, h2_);
    if (slot != internal::kNoSlot) return &t.cell(slot).weight;
  }
  for (const Neighbor& n : e->chain->denylist) {
    if (n.v == v) return &n.weight;
  }
  return nullptr;
}

std::pair<uint64_t, bool> CuckooGraph::Upsert(NodeId u, NodeId v,
                                              uint32_t delta,
                                              bool accumulate) {
  VertexEntry* e = FindVertex(u);
  if (e != nullptr) {
    uint32_t* w = FindWeight(e, v);
    if (w != nullptr) {
      if (accumulate) *w += delta;
      return {*w, false};
    }
    AppendNeighbor(e, Neighbor{v, delta});
    ++e->degree;
    ++num_edges_;
    return {delta, true};
  }
  VertexEntry entry;
  entry.key = u;
  entry.degree = 1;
  if (config_.enable_inline_slots) {
    entry.inline_.v[0] = v;
    entry.inline_.w[0] = delta;
  } else {
    entry.has_chain = true;
    entry.chain = NewChain();
    ChainInsert(entry.chain, Neighbor{v, delta});
  }
  ++num_edges_;
  PlaceVertex(entry);
  if (static_cast<double>(l_.size() + l_denylist_.size()) >
      config_.expand_threshold * static_cast<double>(l_.num_cells())) {
    ++l_stats_.expansions;
    RebuildL(l_.num_buckets() * 2);
  }
  return {delta, true};
}

void CuckooGraph::AppendNeighbor(VertexEntry* e, Neighbor n) {
  if (!e->has_chain) {
    if (e->degree < static_cast<uint32_t>(kInlineSlots)) {
      e->inline_.v[e->degree] = n.v;
      e->inline_.w[e->degree] = n.weight;
      return;
    }
    TransformToChain(e);
  }
  ChainInsert(e->chain, n);
}

void CuckooGraph::PlaceVertex(VertexEntry entry) {
  ++l_stats_.insert_attempts;
  while (true) {
    if (l_.Place(&entry, h1_, h2_, config_.max_kicks, &rng_,
                 &l_stats_.kicks)) {
      return;
    }
    if (config_.enable_deny_list && l_denylist_.size() < kDenylistLimit) {
      l_denylist_.push_back(entry);
      ++denylist_parks_;
      return;
    }
    ++l_stats_.expansions;
    RebuildL(l_.num_buckets() * 2);
  }
}

void CuckooGraph::RebuildL(size_t new_buckets) {
  new_buckets = std::max(new_buckets, config_.l_initial_buckets);
  std::vector<VertexEntry> items;
  items.reserve(l_.size() + l_denylist_.size());
  l_.ForEach([&items](const VertexEntry& e) { items.push_back(e); });
  for (const VertexEntry& e : l_denylist_) items.push_back(e);
  while (true) {
    internal::CuckooTable<VertexEntry> fresh(new_buckets,
                                             config_.cells_per_bucket);
    std::vector<VertexEntry> deny;
    bool ok = true;
    for (const VertexEntry& orig : items) {
      VertexEntry moved = orig;
      if (fresh.Place(&moved, h1_, h2_, config_.max_kicks, &rng_,
                      &l_stats_.kicks)) {
        continue;
      }
      if (config_.enable_deny_list && deny.size() < kDenylistLimit) {
        deny.push_back(moved);
      } else {
        ok = false;
        break;
      }
    }
    if (ok) {
      l_ = std::move(fresh);
      l_denylist_ = std::move(deny);
      l_stats_.rehash_moves += items.size();
      return;
    }
    new_buckets *= 2;
  }
}

void CuckooGraph::MaybeShrinkL() {
  if (l_.num_buckets() <= config_.l_initial_buckets) return;
  const size_t stored = l_.size() + l_denylist_.size();
  if (stored * 4 < l_.num_cells()) RebuildL(l_.num_buckets() / 2);
}

void CuckooGraph::RemoveVertex(NodeId u) {
  const size_t slot = l_.FindSlot(u, h1_, h2_);
  if (slot != internal::kNoSlot) {
    VertexEntry& e = l_.cell(slot);
    if (e.has_chain) FreeChain(e.chain);
    l_.Erase(slot);
    return;
  }
  for (size_t i = 0; i < l_denylist_.size(); ++i) {
    if (l_denylist_[i].key == u) {
      if (l_denylist_[i].has_chain) FreeChain(l_denylist_[i].chain);
      l_denylist_[i] = l_denylist_.back();
      l_denylist_.pop_back();
      return;
    }
  }
}

// ---- S-CHT chains ----------------------------------------------------------

internal::Chain* CuckooGraph::NewChain() {
  auto* c = new internal::Chain();
  c->tables.emplace_back(config_.s_initial_buckets,
                         config_.cells_per_bucket);
  ++num_chains_;
  return c;
}

void CuckooGraph::FreeChain(internal::Chain* c) {
  --num_chains_;
  delete c;
}

void CuckooGraph::TransformToChain(VertexEntry* e) {
  Neighbor moved[kInlineSlots];
  const uint32_t count = e->degree;
  for (uint32_t i = 0; i < count; ++i) {
    moved[i] = Neighbor{e->inline_.v[i], e->inline_.w[i]};
  }
  e->chain = NewChain();
  e->has_chain = true;
  ++transformations_;
  // The in-memory structure is at its most fragile right here: the entry
  // already points at a chain that holds none of the moved neighbors. A
  // crash now must still recover cleanly from WAL + snapshot alone.
  CrashPoint("core:mid_transformation");
  for (uint32_t i = 0; i < count; ++i) {
    ChainInsert(e->chain, moved[i]);
  }
}

void CuckooGraph::ChainInsert(internal::Chain* c, Neighbor n) {
  ++s_stats_.insert_attempts;
  // Load-driven growth: keep the occupancy below G ahead of placement.
  while (static_cast<double>(c->size + 1) >
         config_.expand_threshold * static_cast<double>(ChainCells(*c))) {
    GrowChain(c);
  }
  while (true) {
    // Newest table first: older tables run near capacity by design, the
    // freshly appended one has the headroom.
    for (auto it = c->tables.rbegin(); it != c->tables.rend(); ++it) {
      if (it->Place(&n, h1_, h2_, config_.max_kicks, &rng_,
                    &s_stats_.kicks)) {
        ++c->size;
        return;
      }
    }
    if (config_.enable_deny_list && c->denylist.size() < kDenylistLimit) {
      c->denylist.push_back(n);
      ++c->size;
      ++denylist_parks_;
      return;
    }
    GrowChain(c);
  }
}

bool CuckooGraph::ChainErase(internal::Chain* c, NodeId v) {
  for (auto& t : c->tables) {
    const size_t slot = t.FindSlot(v, h1_, h2_);
    if (slot != internal::kNoSlot) {
      t.Erase(slot);
      --c->size;
      return true;
    }
  }
  for (size_t i = 0; i < c->denylist.size(); ++i) {
    if (c->denylist[i].v == v) {
      c->denylist[i] = c->denylist.back();
      c->denylist.pop_back();
      --c->size;
      return true;
    }
  }
  return false;
}

void CuckooGraph::GrowChain(internal::Chain* c) {
  if (c->tables.size() <
      static_cast<size_t>(config_.max_chain_tables)) {
    // Table II append step: a new table of half the head's length.
    const size_t half =
        std::max<size_t>(1, c->tables.front().num_buckets() / 2);
    c->tables.emplace_back(half, config_.cells_per_bucket);
    ++s_stats_.expansions;
    return;
  }
  // Table II merge step: double the head, everything re-places into the
  // new head, and a fresh empty half-size second table is created
  // (unless R = 1 caps the chain at a single table).
  ++s_stats_.merges;
  RebuildChain(c, c->tables.front().num_buckets() * 2,
               /*with_second=*/config_.max_chain_tables >= 2);
}

void CuckooGraph::RebuildChain(internal::Chain* c, size_t head_buckets,
                               bool with_second) {
  head_buckets = std::max<size_t>(1, head_buckets);
  std::vector<Neighbor> items;
  items.reserve(c->size);
  for (const auto& t : c->tables) {
    t.ForEach([&items](const Neighbor& n) { items.push_back(n); });
  }
  for (const Neighbor& n : c->denylist) items.push_back(n);
  while (true) {
    std::vector<internal::CuckooTable<Neighbor>> tables;
    tables.emplace_back(head_buckets, config_.cells_per_bucket);
    if (with_second) {
      tables.emplace_back(std::max<size_t>(1, head_buckets / 2),
                          config_.cells_per_bucket);
    }
    std::vector<Neighbor> deny;
    bool ok = true;
    for (const Neighbor& orig : items) {
      Neighbor moved = orig;
      bool placed = false;
      for (auto& t : tables) {
        if (t.Place(&moved, h1_, h2_, config_.max_kicks, &rng_,
                    &s_stats_.kicks)) {
          placed = true;
          break;
        }
      }
      if (placed) continue;
      if (config_.enable_deny_list && deny.size() < kDenylistLimit) {
        deny.push_back(moved);
      } else {
        ok = false;
        break;
      }
    }
    if (ok) {
      c->tables = std::move(tables);
      c->denylist = std::move(deny);
      s_stats_.rehash_moves += items.size();
      return;
    }
    head_buckets *= 2;
  }
}

void CuckooGraph::MaybeReverseTransform(VertexEntry* e) {
  internal::Chain* c = e->chain;
  if (config_.enable_inline_slots &&
      e->degree <= static_cast<uint32_t>(kInlineSlots)) {
    Neighbor moved[kInlineSlots];
    uint32_t count = 0;
    for (const auto& t : c->tables) {
      t.ForEach([&moved, &count](const Neighbor& n) { moved[count++] = n; });
    }
    for (const Neighbor& n : c->denylist) moved[count++] = n;
    FreeChain(c);
    e->has_chain = false;
    for (uint32_t i = 0; i < count; ++i) {
      e->inline_.v[i] = moved[i].v;
      e->inline_.w[i] = moved[i].weight;
    }
    ++reverse_transformations_;
    return;
  }
  const size_t head = c->tables.front().num_buckets();
  if (head > config_.s_initial_buckets &&
      static_cast<size_t>(e->degree) * 4 < ChainCells(*c)) {
    RebuildChain(c, std::max(config_.s_initial_buckets, head / 2),
                 /*with_second=*/false);
    ++reverse_transformations_;
  }
}

size_t CuckooGraph::ChainCells(const internal::Chain& c) const {
  size_t cells = 0;
  for (const auto& t : c.tables) cells += t.num_cells();
  return cells;
}

size_t CuckooGraph::ChainMemory(const internal::Chain& c) const {
  size_t bytes = sizeof(internal::Chain);
  bytes += c.tables.capacity() *
           sizeof(internal::CuckooTable<Neighbor>);
  for (const auto& t : c.tables) bytes += t.MemoryBytes();
  bytes += c.denylist.capacity() * sizeof(Neighbor);
  return bytes;
}

}  // namespace cuckoograph

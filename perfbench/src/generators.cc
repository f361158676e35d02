#include "generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace perfbench {
namespace {

using cuckoograph::EdgeKey;
using cuckoograph::SplitMix64;

double Helper1(double x) {  // log1p(x) / x
  return std::fabs(x) > 1e-8 ? std::log1p(x) / x
                             : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
}

double Helper2(double x) {  // expm1(x) / x
  return std::fabs(x) > 1e-8
             ? std::expm1(x) / x
             : 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
}

Edge FromKey(uint64_t key) {
  return Edge{static_cast<NodeId>(key >> 32), static_cast<NodeId>(key)};
}

template <typename T>
void Shuffle(std::vector<T>* items, SplitMix64* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBelow64(i)]);
  }
}

// Each generator draws from its own stream so adding one never shifts
// another's inputs.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return mix.Next();
}

void AppendBulk(std::string* out, const std::string& arg) {
  out->append("$").append(std::to_string(arg.size())).append("\r\n");
  out->append(arg).append("\r\n");
}

const char* OpName(ServedOp op) {
  switch (op) {
    case ServedOp::kQuery: return "CG.QUERY";
    case ServedOp::kDegree: return "CG.DEGREE";
    case ServedOp::kInsert: return "CG.INSERT";
    case ServedOp::kDelete: return "CG.DEL";
  }
  return "";
}

}  // namespace

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n), s_(s) {
  if (n == 0 || !(s > 0.0)) throw std::invalid_argument("bad Zipf params");
  h_integral_x1_ = HIntegral(1.5) - 1.0;
  h_integral_n_ = HIntegral(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
}

double ZipfSampler::H(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfSampler::HIntegral(double x) const {
  const double log_x = std::log(x);
  return Helper2((1.0 - s_) * log_x) * log_x;
}

double ZipfSampler::HIntegralInverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;
  return std::exp(Helper1(t) * x);
}

uint64_t ZipfSampler::Next(SplitMix64* rng) const {
  for (;;) {
    const double u =
        h_integral_n_ + rng->NextDouble() * (h_integral_x1_ - h_integral_n_);
    const double x = HIntegralInverse(u);
    double kd = std::floor(x + 0.5);
    if (kd < 1.0) kd = 1.0;
    if (kd > static_cast<double>(n_)) kd = static_cast<double>(n_);
    if (kd - x <= threshold_ || u >= HIntegral(kd + 0.5) - H(kd)) {
      return static_cast<uint64_t>(kd);
    }
  }
}

void MakeIngestInputs(const IngestSpec& spec, uint64_t seed,
                      IngestInputs* out) {
  const uint64_t universe = uint64_t{1} << spec.vertex_bits;
  const uint64_t mask = universe - 1;
  SplitMix64 rng(StreamSeed(seed, 1));
  // Ranks map to ids through a seeded odd-multiplier bijection, so hubs
  // land on different vertices (and shards, and buckets) per seed.
  const uint64_t mult = rng.Next() | 1;
  const uint64_t offset = rng.Next();
  const ZipfSampler sources(universe, spec.source_skew);
  const auto draw_source = [&] {
    return static_cast<NodeId>(((sources.Next(&rng) - 1) * mult + offset) &
                               mask);
  };

  out->arrivals.clear();
  out->arrivals.reserve(spec.arrivals);
  for (size_t i = 0; i < spec.arrivals; ++i) {
    if (!out->arrivals.empty() && rng.NextDouble() < spec.repeat_share) {
      const size_t back = std::min<size_t>(out->arrivals.size(), 1024);
      out->arrivals.push_back(
          out->arrivals[out->arrivals.size() - 1 - rng.NextBelow64(back)]);
      continue;
    }
    // Half the destinations follow the source law too, so hubs are also
    // popular targets and BFS from a hub reaches a giant component for
    // every seed; the rest are uniform over the universe.
    const NodeId u = draw_source();
    const NodeId v = rng.NextDouble() < spec.hub_destination_share
                         ? draw_source()
                         : rng.NextBelow(universe);
    out->arrivals.push_back(Edge{u, v});
  }

  // Absent probes share the source distribution (so they reach hub chains)
  // but point outside the destination universe, so none is ever stored.
  out->absent.clear();
  out->absent.reserve(spec.arrivals);
  for (size_t i = 0; i < spec.arrivals; ++i) {
    const NodeId u = draw_source();
    out->absent.push_back(
        Edge{u, static_cast<NodeId>(universe + rng.NextBelow64(universe))});
  }

  out->distinct.clear();
  out->distinct.reserve(spec.arrivals);
  for (const Edge& e : out->arrivals) out->distinct.push_back(EdgeKey(e));
  std::sort(out->distinct.begin(), out->distinct.end());
  out->distinct.erase(std::unique(out->distinct.begin(), out->distinct.end()),
                      out->distinct.end());

  out->deletes.clear();
  out->deletes.reserve(out->distinct.size());
  for (const uint64_t key : out->distinct) out->deletes.push_back(FromKey(key));
  Shuffle(&out->deletes, &rng);
  out->deletes.resize(out->distinct.size() / 2);
  out->deletes.shrink_to_fit();

  // BFS starts at the highest-degree sources (ties to the smaller id).
  std::vector<std::pair<size_t, NodeId>> degrees;
  for (size_t i = 0; i < out->distinct.size();) {
    const NodeId u = static_cast<NodeId>(out->distinct[i] >> 32);
    size_t j = i;
    while (j < out->distinct.size() &&
           static_cast<NodeId>(out->distinct[j] >> 32) == u) {
      ++j;
    }
    degrees.emplace_back(j - i, u);
    i = j;
  }
  const size_t k = std::min(spec.bfs_sources, degrees.size());
  std::partial_sort(degrees.begin(), degrees.begin() + static_cast<long>(k),
                    degrees.end(), [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  out->bfs_sources.clear();
  for (size_t i = 0; i < k; ++i) out->bfs_sources.push_back(degrees[i].second);
}

void MakeServedInputs(const ServedSpec& spec, uint64_t seed,
                      std::vector<ServedConnection>* out) {
  out->clear();
  out->resize(spec.connections);
  const ZipfSampler sources(spec.sources, spec.skew);
  for (size_t c = 0; c < spec.connections; ++c) {
    ServedConnection& conn = (*out)[c];
    SplitMix64 rng(StreamSeed(seed, 100 + c));
    const NodeId base = static_cast<NodeId>((c + 1) << 22);
    const auto draw_edge = [&] {
      const NodeId u =
          base + static_cast<NodeId>(sources.Next(&rng) - 1);
      return Edge{u, rng.NextBelow(spec.destinations)};
    };

    std::unordered_set<uint64_t> present;
    for (size_t i = 0; i < spec.preload_edges; ++i) {
      const Edge e = draw_edge();
      if (present.insert(EdgeKey(e)).second) conn.preload.push_back(e);
    }
    const std::unordered_set<uint64_t> initial = present;

    // The main mix: 60% query, 20% degree, 10% insert, 10% delete.
    const size_t main_commands = spec.batches * spec.depth;
    std::unordered_set<uint64_t> state = initial;
    for (size_t i = 0; i < main_commands; ++i) {
      const double r = rng.NextDouble();
      const Edge e = draw_edge();
      ServedOp op = ServedOp::kQuery;
      if (r >= 0.9) {
        op = ServedOp::kDelete;
        state.erase(EdgeKey(e));
      } else if (r >= 0.8) {
        op = ServedOp::kInsert;
        state.insert(EdgeKey(e));
      } else if (r >= 0.6) {
        op = ServedOp::kDegree;
      }
      conn.commands.push_back({op, e.u, e.v});
    }
    // Repair tail: undo every net change so the cycle can repeat.
    std::vector<uint64_t> added, removed;
    for (const uint64_t key : state) {
      if (initial.count(key) == 0) added.push_back(key);
    }
    for (const uint64_t key : initial) {
      if (state.count(key) == 0) removed.push_back(key);
    }
    std::sort(added.begin(), added.end());
    std::sort(removed.begin(), removed.end());
    for (const uint64_t key : added) {
      const Edge e = FromKey(key);
      conn.commands.push_back({ServedOp::kDelete, e.u, e.v});
    }
    for (const uint64_t key : removed) {
      const Edge e = FromKey(key);
      conn.commands.push_back({ServedOp::kInsert, e.u, e.v});
    }
    while (conn.commands.size() % spec.depth != 0) {
      const Edge e = draw_edge();
      conn.commands.push_back({ServedOp::kQuery, e.u, e.v});
    }

    // Encode requests and expected replies by replaying the cycle against
    // the reference model.
    std::unordered_map<NodeId, long long> degree;
    for (const Edge& e : conn.preload) ++degree[e.u];
    state = initial;
    for (size_t i = 0; i < conn.commands.size(); ++i) {
      if (i % spec.depth == 0) {
        conn.request_offsets.push_back(conn.request_bytes.size());
        conn.reply_offsets.push_back(conn.reply_bytes.size());
      }
      const ServedCommand& cmd = conn.commands[i];
      const uint64_t key = EdgeKey(Edge{cmd.u, cmd.v});
      long long reply = 0;
      switch (cmd.op) {
        case ServedOp::kQuery: reply = state.count(key) ? 1 : 0; break;
        case ServedOp::kDegree: {
          const auto it = degree.find(cmd.u);
          reply = it == degree.end() ? 0 : it->second;
          break;
        }
        case ServedOp::kInsert:
          reply = state.insert(key).second ? 1 : 0;
          degree[cmd.u] += reply;
          break;
        case ServedOp::kDelete:
          reply = state.erase(key) ? 1 : 0;
          degree[cmd.u] -= reply;
          break;
      }
      const bool unary = cmd.op == ServedOp::kDegree;
      conn.request_bytes.append(unary ? "*2\r\n" : "*3\r\n");
      AppendBulk(&conn.request_bytes, OpName(cmd.op));
      AppendBulk(&conn.request_bytes, std::to_string(cmd.u));
      if (!unary) AppendBulk(&conn.request_bytes, std::to_string(cmd.v));
      conn.reply_bytes.append(":").append(std::to_string(reply)).append("\r\n");
    }
    conn.request_offsets.push_back(conn.request_bytes.size());
    conn.reply_offsets.push_back(conn.reply_bytes.size());
    if (state != initial) {
      throw std::logic_error("served cycle does not restore its start state");
    }
  }
}

void MakeDurableInputs(const DurableSpec& spec, uint64_t seed,
                       std::vector<DurableWriter>* out) {
  out->clear();
  out->resize(spec.writers);
  const ZipfSampler sources(spec.sources, 0.8);
  for (size_t w = 0; w < spec.writers; ++w) {
    DurableWriter& writer = (*out)[w];
    SplitMix64 rng(StreamSeed(seed, 200 + w));
    const NodeId base = static_cast<NodeId>((w + 1) << 24);
    std::unordered_set<uint64_t> state;
    std::vector<Edge> history;
    writer.batches.resize(spec.batches);
    for (size_t b = 0; b < spec.batches; ++b) {
      DurableBatch& batch = writer.batches[b];
      batch.is_delete = spec.delete_every != 0 && !history.empty() &&
                        b % spec.delete_every == spec.delete_every - 1;
      if (batch.is_delete) {
        for (size_t i = 0; i < spec.batch_edges / 2; ++i) {
          batch.edges.push_back(history[rng.NextBelow64(history.size())]);
        }
        for (const Edge& e : batch.edges) {
          batch.expected += state.erase(EdgeKey(e));
        }
        continue;
      }
      for (size_t i = 0; i < spec.batch_edges; ++i) {
        const NodeId u = base + static_cast<NodeId>(sources.Next(&rng) - 1);
        batch.edges.push_back(Edge{u, rng.NextBelow(uint64_t{1} << 20)});
      }
      for (const Edge& e : batch.edges) {
        if (state.insert(EdgeKey(e)).second) {
          ++batch.expected;
          history.push_back(e);
        }
      }
    }
    writer.final_edges.assign(state.begin(), state.end());
    std::sort(writer.final_edges.begin(), writer.final_edges.end());
  }
}

}  // namespace perfbench

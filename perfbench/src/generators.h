// Seeded input generators for the three workloads. Every input the program
// sees is made here from --seed before timing starts: the same seed gives
// byte-identical inputs, and each generator also produces the oracle its
// workload's answers are checked against.
#ifndef PERFBENCH_GENERATORS_H_
#define PERFBENCH_GENERATORS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace perfbench {

using cuckoograph::Edge;
using cuckoograph::NodeId;

// Zipf-distributed ranks in [1, n] with exponent s > 0, by rejection-
// inversion (Hormann & Derflinger 1996): O(1) per draw, no table.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);
  uint64_t Next(cuckoograph::SplitMix64* rng) const;

 private:
  double H(double x) const;
  double HIntegral(double x) const;
  double HIntegralInverse(double x) const;

  uint64_t n_;
  double s_;
  double h_integral_x1_;
  double h_integral_n_;
  double threshold_;
};

// ---- ingest ---------------------------------------------------------------

struct IngestSpec {
  size_t arrivals = 0;
  int vertex_bits = 20;      // vertex universe is [0, 2^vertex_bits)
  double source_skew = 1.0;  // Zipf exponent of source vertices
  double repeat_share = 0.05;  // arrivals that repeat a recent arrival
  double hub_destination_share = 0.5;  // destinations drawn like sources
  size_t bfs_sources = 4;
};

struct IngestInputs {
  std::vector<Edge> arrivals;  // insert order, duplicates included
  std::vector<Edge> absent;    // as many edges that are never inserted
  std::vector<uint64_t> distinct;  // sorted EdgeKeys of the distinct arrivals
  std::vector<Edge> deletes;   // half the distinct edges, in shuffled order
  std::vector<NodeId> bfs_sources;  // the highest-degree sources
};

void MakeIngestInputs(const IngestSpec& spec, uint64_t seed,
                      IngestInputs* out);

// ---- served ---------------------------------------------------------------

enum class ServedOp : uint8_t { kQuery, kDegree, kInsert, kDelete };

struct ServedSpec {
  size_t connections = 2;
  size_t depth = 32;            // commands per pipelined batch
  size_t batches = 2048;        // batches per cycle, before the repair tail
  NodeId sources = 1024;        // private source vertices per connection
  NodeId destinations = 64;     // destination universe per source
  size_t preload_edges = 8192;  // per connection
  double skew = 0.99;           // Zipf exponent over the private sources
};

struct ServedCommand {
  ServedOp op;
  NodeId u;
  NodeId v;
};

// One connection's traffic. `commands` is a cycle: replaying it from the
// preloaded state returns the store to that state, so a closed loop may
// wrap around it forever and every reply stays predictable.
struct ServedConnection {
  std::vector<Edge> preload;
  std::vector<ServedCommand> commands;  // a multiple of depth
  std::string request_bytes;            // all commands, RESP-encoded
  std::string reply_bytes;              // the expected replies, in order
  std::vector<size_t> request_offsets;  // per batch start, plus the end
  std::vector<size_t> reply_offsets;
};

void MakeServedInputs(const ServedSpec& spec, uint64_t seed,
                      std::vector<ServedConnection>* out);

// ---- durable --------------------------------------------------------------

struct DurableSpec {
  size_t writers = 3;
  size_t batches = 400;        // per writer per pass
  size_t batch_edges = 256;
  size_t delete_every = 8;     // every Nth batch deletes instead of inserts
  NodeId sources = 1 << 14;    // private source vertices per writer
  size_t checkpoint_every_records = 512;
};

struct DurableBatch {
  bool is_delete = false;
  std::vector<Edge> edges;
  size_t expected = 0;  // InsertEdges/DeleteEdges return value
};

struct DurableWriter {
  std::vector<DurableBatch> batches;
  std::vector<uint64_t> final_edges;  // sorted EdgeKeys after every batch
};

void MakeDurableInputs(const DurableSpec& spec, uint64_t seed,
                       std::vector<DurableWriter>* out);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATORS_H_

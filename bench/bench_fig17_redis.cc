// Figure 17: CuckooGraph-on-Redis throughput (Section V-F). The CG.*
// commands are served from a one-worker TcpRespServer on an ephemeral
// loopback port, and one RespClient drives it unpipelined, the way a
// redis-cli style client drives a module: every operation pays request
// encoding, a socket round trip, parsing, dispatch, reply encoding and
// reply decoding. That protocol and transport cost is what drops the
// paper's numbers from CPU-native Mops to ~0.04-0.05 Mops on real Redis.
//
// The CSV schema (Insertion / Query / Deletion / Mixed(zipf)) matches
// bench_served_traffic, so the single-client numbers here and the
// pipelined multi-connection ones there diff column-for-column: same
// Zipf mix generator, same oracle reply check, same server.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/timer.h"
#include "core/cuckoo_graph.h"
#include "datasets/datasets.h"
#include "redis_sim/command_table.h"
#include "redis_sim/cuckoograph_module.h"
#include "server/resp_client.h"
#include "server/tcp_server.h"
#include "served_workload.h"

namespace cuckoograph {
namespace {

using bench::MixedOp;
using bench::OpKind;
using redis_sim::RespType;
using redis_sim::RespValue;

// One loopback deployment: a CuckooGraph behind the CG.* commands, a
// one-worker server on a kernel-assigned port, and one connected client.
// Throws std::runtime_error when the socket setup fails.
class LoopbackRedis {
 public:
  LoopbackRedis() : server_(server::ServerConfig{}, &table_) {
    redis_sim::RegisterGraphCommands(&table_, &graph_);
    std::string error;
    if (!server_.Start(&error) ||
        !client_.Connect("127.0.0.1", server_.port(), &error)) {
      throw std::runtime_error("loopback server: " + error);
    }
  }

  RespValue Execute(const char* cmd, const Edge& e) {
    return client_.Execute({cmd, std::to_string(e.u), std::to_string(e.v)});
  }

 private:
  CuckooGraph graph_;
  redis_sim::CommandTable table_;
  server::TcpRespServer server_;
  server::RespClient client_;
};

const char* CommandFor(OpKind kind) {
  switch (kind) {
    case OpKind::kInsert:
      return "CG.INSERT";
    case OpKind::kQuery:
      return "CG.QUERY";
    case OpKind::kDelete:
      return "CG.DEL";
  }
  return "CG.QUERY";  // unreachable
}

// Runs the shared Zipf read/write mix, oracle-checking every reply, on a
// fresh server so the oracle starts from empty. Returns Mops, or a
// negative value if any reply diverged.
double RunMixedPhase(size_t n, double alpha, double read_frac) {
  LoopbackRedis redis;
  const std::vector<MixedOp> ops =
      bench::MakeZipfMix(/*seed=*/4242, n, /*base=*/1, /*range=*/4096,
                         /*values=*/4096, alpha, read_frac);
  std::unordered_set<uint64_t> live;
  size_t mismatches = 0;
  WallTimer timer;
  for (const MixedOp& op : ops) {
    const RespValue reply = redis.Execute(CommandFor(op.kind), op.e);
    const long long expected = bench::OracleReply(&live, op.kind, op.e);
    if (reply.type != RespType::kInteger || reply.integer != expected) {
      ++mismatches;
    }
  }
  const double mops = Mops(ops.size(), timer.ElapsedSeconds());
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: mixed phase: %zu replies diverged\n",
                 mismatches);
    return -1.0;
  }
  return mops;
}

bool RunFigure(double user_scale, double alpha, double read_frac) {
  bool ok = true;
  for (const std::string& dataset_name :
       {std::string("CAIDA"), std::string("StackOverflow")}) {
    const datasets::Dataset dataset =
        bench::MakeBenchDataset(dataset_name, user_scale);
    const std::vector<Edge> distinct = datasets::DedupEdges(dataset.stream);

    LoopbackRedis redis;
    auto run = [&redis](const char* cmd, const std::vector<Edge>& edges) {
      WallTimer timer;
      for (const Edge& e : edges) redis.Execute(cmd, e);
      return Mops(edges.size(), timer.ElapsedSeconds());
    };

    const double insert_mops = run("CG.INSERT", dataset.stream);
    const double query_mops = run("CG.QUERY", dataset.stream);
    const double delete_mops = run("CG.DEL", distinct);
    const double mixed_mops =
        RunMixedPhase(dataset.stream.size(), alpha, read_frac);
    ok = ok && mixed_mops >= 0.0;
    bench::PrintRow("fig17",
                    {dataset_name, bench::FmtMops(insert_mops),
                     bench::FmtMops(query_mops),
                     bench::FmtMops(delete_mops),
                     bench::FmtMops(mixed_mops < 0.0 ? 0.0 : mixed_mops)});
  }
  return ok;
}

}  // namespace
}  // namespace cuckoograph

int main(int argc, char** argv) {
  using namespace cuckoograph;
  const Flags flags(argc, argv);
  const double user_scale = flags.GetDouble("scale", 1.0);
  const double alpha = flags.GetDouble("alpha", 1.5);
  const double read_frac = flags.GetDouble("reads", 0.5);
  bench::MaybeOpenCsvFromFlags(flags);

  bench::PrintHeader("fig17",
                     "CuckooGraph on a loopback RESP server (Mops, one "
                     "unpipelined client)",
                     bench::ServedSchemaColumns());
  bool ok = false;
  try {
    ok = RunFigure(user_scale, alpha, read_frac);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
  }
  std::printf("(paper: ~0.04-0.05 Mops on real Redis, whose native peak "
              "was ~0.16 Mops on the authors' server; diff against "
              "bench_served_traffic --csv for pipelined, multi-connection "
              "numbers)\n");
  bench::CloseCsv();
  return ok ? 0 : 1;
}

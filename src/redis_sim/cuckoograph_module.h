// The CuckooGraph Redis module of Section V-F: a graph store exposed as
// a CG.* command family on a CommandTable. Mirrors how the paper embeds
// the structure in Redis — the graph lives inside the server process,
// and clients reach it only through protocol round trips.
//
// Commands (node ids are decimal uint32 strings; replies follow Redis
// conventions):
//   CG.INSERT u v    -> :1 if the edge is new, :0 if it already existed
//   CG.QUERY  u v    -> :1 if present, :0 if absent
//   CG.DEL    u v    -> :1 if the edge existed (and was removed), :0 if not
//   CG.DELETE u v    -> alias of CG.DEL
//   CG.DEGREE u      -> :out-degree of u (0 when absent)
//   CG.NEIGHBORS u   -> array of bulk strings, u's successors (empty array
//                       when u is absent; order unspecified)
// Malformed node ids answer "-ERR value is not an integer or out of
// range", and the table supplies wrong-arity / unknown-command errors.
#ifndef CUCKOOGRAPH_REDIS_SIM_CUCKOOGRAPH_MODULE_H_
#define CUCKOOGRAPH_REDIS_SIM_CUCKOOGRAPH_MODULE_H_

#include "core/graph_store.h"
#include "redis_sim/command_table.h"

namespace cuckoograph::redis_sim {

// Registers the CG.* command family over any GraphStore (`store` must
// outlive the table's use of the handlers). A single-worker server or an
// in-process RespConnection can serve a plain CuckooGraph. With a store
// advertising Capabilities().concurrent_mutations (e.g. cuckoo-sharded)
// the edge-op handlers are safe to dispatch from several server workers;
// CG.NEIGHBORS drains a cursor and follows the store-wide quiescence
// rule, so concurrent deployments should treat it as an offline command.
void RegisterGraphCommands(CommandTable* table, GraphStore* store);

}  // namespace cuckoograph::redis_sim

#endif  // CUCKOOGRAPH_REDIS_SIM_CUCKOOGRAPH_MODULE_H_

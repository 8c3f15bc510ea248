#pragma once
// Round-synchronous vectorized engine for SAER and RAES.
//
// The engine simulates the model of Section 2.1 (one Phase-1 submission
// plus one Boolean Phase-2 reply per alive ball per round) but executes it
// as three data-parallel passes per round:
//
//   pass 1 (balls):   every alive ball samples a uniform neighbor of its
//                     client; the per-server received counts are computed
//                     by the atomic-free radix partition of
//                     core/scatter.hpp -- ball chunks bucket their targets
//                     by server block, and a per-block merge bumps plain
//                     integer counters in chunk order;
//   pass 2 (servers): every server that received a ball this round (the
//                     "touched" set, which falls out of the merge's 0->1
//                     transitions) applies the SAER or RAES acceptance
//                     rule and publishes its verdict -- untouched servers
//                     are never visited;
//   pass 3 (balls):   every alive ball reads its target's verdict; accepted
//                     balls record their server, rejected ones stay alive.
//
// Randomness is counter-based on (seed, ball, round), so the outcome is a
// pure function of (graph, params) -- independent of thread count and
// schedule.  This both makes runs reproducible and is faithful to the model:
// clients draw independently either way.
//
// Determinism contract
// --------------------
// RunResult is a pure function of (graph, params): bit-identical for every
// thread count, chunk/block layout, sparse or dense round path, and
// counter representation.  The pieces that guarantee it:
//
//  * the radix scatter computes each server's count as a sum of the same
//    per-ball contributions, merged per server block in chunk order --
//    plain adds, no schedule-dependent interleaving (core/scatter.hpp);
//  * per-round statistics fold per-block partials in block order: integer
//    adds and maxes, exact under any grouping;
//  * the sparse touched-server bookkeeping only changes which servers are
//    *visited*, never what is computed for them;
//  * the cumulative received counter is stored as a saturating u32 unless
//    a run needs exact sums (deep_trace) or a capacity beyond u32 -- the
//    saturation point lies strictly above every value the SAER burn
//    comparison can observe, so the width is unobservable;
//  * the uniform ball->client map is implicit (b / d via an exact
//    reciprocal, util/fastdiv.hpp) -- no O(n*d) side array, same values.
//
// ProtocolParams::store_assignment = false additionally drops the O(n*d)
// RunResult::assignment vector (left empty); loads, trace, and every
// scalar observable are unchanged, which is what lets aggregate-only
// sweeps run n >= 2^22 points in bounded memory.
//
// Workspace reuse
// ---------------
// Every overload that takes an EngineWorkspace (core/workspace.hpp) runs in
// the caller's scratch buffers and performs no O(n)-sized allocation of its
// own; the overloads without one allocate a fresh workspace per call.  The
// two paths -- and any sequence of runs through one reused workspace, in
// any size or protocol order -- produce bit-identical RunResults.
// Golden-hash tests (tests/test_golden_hash.cpp) pin this contract against
// hashes recorded before the radix rewrite, across thread counts and both
// protocols.
//
// Parts of the contract are machine-checked at the source level by
// saer-lint (tools/lint/, run as the `lint.tree` ctest and a hard-failing
// CI job):
//
//  * banned-rng / banned-clock -- no rand()/std::random_device/time()/
//    std::chrono::*::now() outside the allowlisted pacing modules; every
//    random draw goes through util/rng's counter RNG;
//  * no-atomic -- src/ stays atomic-free (the scatter above needs none;
//    the only allowlisted users are util/log.cpp and util/parallel.cpp,
//    which never sit on a result path);
//  * unordered-iter -- unordered-container iteration order never reaches
//    an emit/result path.
//
// The JSONL rows need no rule: sim/run_record.cpp declares each row type
// once for its emitter, strict parser and CSV columns, and the ReadmeRows
// test (tests/test_run_record.cpp) round-trips every README example row
// byte for byte.

#include "core/protocol.hpp"
#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "graph/implicit_topology.hpp"

namespace saer {

/// Runs the protocol to completion (or the round cap).  Throws
/// std::invalid_argument on bad params or a client with empty neighborhood.
[[nodiscard]] RunResult run_protocol(const BipartiteGraph& graph,
                                     const ProtocolParams& params);

/// As above, but runs in the caller's reusable workspace (no per-run
/// allocation once the workspace has grown to the largest run it has seen).
/// The workspace must not be shared by concurrent runs.
[[nodiscard]] RunResult run_protocol(const BipartiteGraph& graph,
                                     const ProtocolParams& params,
                                     EngineWorkspace& workspace);

/// Implicit-topology run: identical protocol semantics with O(1) topology
/// memory -- every neighborhood the round loop needs is regenerated from
/// (graph_seed, client) on the fly, so no edge arrays exist.  The result is
/// bit-identical to run_protocol(topology.materialize(), params) at every
/// thread count (the materialized-twin equivalence contract, pinned by
/// tests/test_golden_hash.cpp and tests/test_implicit_topology.cpp).
/// Uniform demands only; reachability holds by construction (degree >= 1).
[[nodiscard]] RunResult run_protocol(const ImplicitRegularTopology& topology,
                                     const ProtocolParams& params);

/// Implicit-topology run in a caller-provided workspace (see run_protocol).
[[nodiscard]] RunResult run_protocol(const ImplicitRegularTopology& topology,
                                     const ProtocolParams& params,
                                     EngineWorkspace& workspace);

/// General request-number case (Section 2.2: "the analysis of the general
/// case (<= d) is in fact similar"): client v starts with demands[v] balls,
/// each demands[v] <= params.d.  Server capacity stays round(c*d).  Ball ids
/// are assigned contiguously per client in id order; RunResult::total_balls
/// is the sum of demands.  Throws if any demand exceeds d or a client with
/// positive demand has no neighbors.
[[nodiscard]] RunResult run_protocol_demands(
    const BipartiteGraph& graph, const ProtocolParams& params,
    const std::vector<std::uint32_t>& demands);

/// Heterogeneous demands in a caller-provided workspace (see run_protocol).
[[nodiscard]] RunResult run_protocol_demands(
    const BipartiteGraph& graph, const ProtocolParams& params,
    const std::vector<std::uint32_t>& demands, EngineWorkspace& workspace);

/// Audit for heterogeneous-demand runs (same checks as check_result but with
/// the per-client ball offsets implied by `demands`).
void check_result_demands(const BipartiteGraph& graph,
                          const ProtocolParams& params,
                          const std::vector<std::uint32_t>& demands,
                          const RunResult& result);

/// Consistency audit of a finished run: every assigned ball went to a
/// neighbor of its client, loads match the assignment, no load exceeds
/// capacity, work accounting matches the trace.  Throws std::logic_error
/// with a description on the first violation.  Used by tests and examples.
/// Requires params.store_assignment (throws std::invalid_argument
/// otherwise: there is no assignment to audit).
void check_result(const BipartiteGraph& graph, const ProtocolParams& params,
                  const RunResult& result);

}  // namespace saer

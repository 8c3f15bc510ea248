#pragma once
// Protocol parameters and results for the SAER / RAES round engines.
//
// Terminology follows the paper (Section 2):
//  * every client holds d balls; a ball is "alive" until some server accepts
//    it; in each round every alive ball is re-submitted to a server chosen
//    independently and uniformly at random (with replacement) from the
//    client's neighborhood;
//  * a server's capacity is c*d; SAER burns (permanently stops accepting)
//    a server whose cumulative received count exceeds capacity; RAES only
//    rejects a round that would push its accepted count above capacity.
//    `server_verdict` below is that rule (Algorithm 1, lines 6-17), shared
//    by every round engine; only core/reference.cpp, the independent
//    oracle, writes it out by hand.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "graph/bipartite_graph.hpp"

namespace saer {

enum class Protocol : std::uint8_t {
  kSaer,  ///< Stop Accepting if Exceeding Requests (this paper)
  kRaes,  ///< Request a link, then Accept if Enough Space (Becchetti et al.)
};

[[nodiscard]] std::string to_string(Protocol p);

/// What a server does with the rr balls it received this round.
enum class Verdict : std::uint8_t {
  kAccept,  ///< accept all rr balls
  kReject,  ///< reject all rr balls (RAES overflow, or SAER already burned)
  kBurn,    ///< SAER: reject all rr balls and stop accepting for good
};

/// The per-server, per-round acceptance rule.  `recv_total` already
/// includes this round's `rr`; `accepted` is the server's load before the
/// round.  A caller applies the verdict to its own state: on kAccept it
/// adds rr to the load, on kBurn it marks the server burned.
[[nodiscard]] constexpr Verdict server_verdict(
    Protocol p, bool burned, std::uint64_t recv_total, std::uint64_t accepted,
    std::uint64_t rr, std::uint64_t cap) noexcept {
  if (p == Protocol::kSaer) {
    if (burned) return Verdict::kReject;
    return recv_total > cap ? Verdict::kBurn : Verdict::kAccept;
  }
  return accepted + rr > cap ? Verdict::kReject : Verdict::kAccept;
}

/// Ball id type; ball b belongs to client b / d.
using BallId = std::uint64_t;

/// Sentinel for "ball not assigned to any server yet".
inline constexpr NodeId kUnassigned = std::numeric_limits<NodeId>::max();

struct ProtocolParams {
  Protocol protocol = Protocol::kSaer;
  /// Request number d >= 1: balls per client (the paper treats d = Theta(1)).
  std::uint32_t d = 1;
  /// Capacity multiplier c > 0; server capacity is round(c * d).
  double c = 32.0;
  /// Seed for the counter-based randomness (schedule-independent).
  std::uint64_t seed = 1;
  /// Hard round cap; 0 selects the default 50 + 30*ceil(log2 n) safety
  /// margin (an order of magnitude above the theorem's 3*log n).
  std::uint32_t max_rounds = 0;
  /// Collect the O(E)-per-round neighborhood metrics S_t, K_t, r_t(N(v)).
  bool deep_trace = false;
  /// Record per-round RoundStats (cheap metrics) in the result.
  bool record_trace = true;
  /// Materialize RunResult::assignment (O(n*d) memory).  Sweeps that only
  /// consume aggregate observables turn this off so multi-million-ball
  /// points run in bounded memory: every other RunResult field (loads,
  /// trace, scalars) is bit-identical either way, and `assignment` is left
  /// empty.  Orthogonal to the run's outcome, so it is excluded from sweep
  /// grid fingerprints.
  bool store_assignment = true;

  /// Server capacity in balls: round(c*d), at least 1.
  [[nodiscard]] std::uint64_t capacity() const;
  /// Default round cap for an n-client instance.
  [[nodiscard]] static std::uint32_t default_max_rounds(NodeId n);
  /// Validates parameter ranges; throws std::invalid_argument.
  void validate() const;
};

struct RunResult {
  bool completed = false;        ///< all balls assigned within the round cap
  std::uint32_t rounds = 0;      ///< rounds executed (completion time if completed)
  std::uint64_t total_balls = 0; ///< n * d
  std::uint64_t alive_balls = 0; ///< balls still unassigned at the end
  /// Work in the paper's sense: every submitted request plus its Boolean
  /// reply counts one message each, so work = 2 * total submissions.
  std::uint64_t work_messages = 0;
  std::uint64_t max_load = 0;        ///< max accepted balls on any server
  std::uint64_t burned_servers = 0;  ///< SAER only; 0 for RAES
  /// assignment[b] = accepting server for ball b, or kUnassigned.  Empty
  /// when the run was executed with store_assignment = false.
  std::vector<NodeId> assignment;
  /// accepted balls per server (the "load" vector).
  std::vector<std::uint32_t> loads;
  /// Per-round statistics (present when record_trace).
  std::vector<RoundStats> trace;

  /// Work normalized per ball: messages / (n*d).
  [[nodiscard]] double work_per_ball() const {
    return total_balls ? static_cast<double>(work_messages) /
                             static_cast<double>(total_balls)
                       : 0.0;
  }
};

}  // namespace saer

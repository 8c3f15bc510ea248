#include "net/async_simulator.hpp"

#include <cmath>
#include <queue>
#include <stdexcept>
#include <vector>

#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace saer {

namespace {

enum class EventKind : std::uint8_t { kRequestArrives, kReplyArrives };

struct Event {
  std::uint64_t time;
  std::uint64_t sequence;  // FIFO tie-break for determinism
  EventKind kind;
  BallId ball;
  NodeId server;
  bool accept;  // only for replies
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return a.time != b.time ? a.time > b.time : a.sequence > b.sequence;
  }
};

}  // namespace

AsyncResult run_async(const BipartiteGraph& graph, const AsyncParams& params) {
  params.base.validate();
  if (params.max_delay == 0)
    throw std::invalid_argument("run_async: max_delay must be >= 1");
  const NodeId n_clients = graph.num_clients();
  const std::uint32_t d = params.base.d;
  const std::uint64_t cap = params.base.capacity();
  const std::uint64_t total_balls = static_cast<std::uint64_t>(n_clients) * d;
  const std::uint64_t max_time =
      params.max_time
          ? params.max_time
          : static_cast<std::uint64_t>(params.max_delay) * 2 *
                ProtocolParams::default_max_rounds(n_clients);

  for (NodeId v = 0; v < n_clients; ++v) {
    if (graph.client_degree(v) == 0)
      throw std::invalid_argument("run_async: client without servers");
  }

  Xoshiro256ss rng(params.base.seed);
  std::priority_queue<Event, std::vector<Event>, EventLater> queue;
  std::uint64_t sequence = 0;

  AsyncResult res;
  res.total_balls = total_balls;
  res.loads.assign(graph.num_servers(), 0);
  std::vector<std::uint64_t> recv_total(graph.num_servers(), 0);
  std::vector<std::uint8_t> burned(graph.num_servers(), 0);
  std::vector<std::uint64_t> launch_time(total_balls, 0);

  auto delay = [&] {
    return 1 + rng.bounded(params.max_delay);
  };
  auto launch = [&](BallId ball, std::uint64_t now) {
    const auto v = static_cast<NodeId>(ball / d);
    const NodeId u =
        graph.client_neighbor(v, rng.bounded(graph.client_degree(v)));
    queue.push({now + delay(), ++sequence, EventKind::kRequestArrives, ball, u,
                false});
  };

  for (BallId b = 0; b < total_balls; ++b) {
    launch_time[b] = 0;
    launch(b, 0);
  }

  IntHistogram settle_hist;
  double settle_sum = 0;
  std::uint64_t settled = 0;

  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    if (ev.time > max_time) break;
    ++res.work_messages;
    if (ev.kind == EventKind::kRequestArrives) {
      const NodeId u = ev.server;
      bool accept = false;
      ++recv_total[u];
      // Each request is its own round of one ball: RAES accepts while
      // there is room.
      const Verdict v = server_verdict(params.base.protocol, burned[u] != 0,
                                       recv_total[u], res.loads[u], 1, cap);
      if (v == Verdict::kAccept) {
        ++res.loads[u];
        accept = true;
      } else if (v == Verdict::kBurn) {
        burned[u] = 1;
      }
      queue.push({ev.time + delay(), ++sequence, EventKind::kReplyArrives,
                  ev.ball, u, accept});
    } else {
      if (ev.accept) {
        ++settled;
        const auto latency =
            static_cast<std::int64_t>(ev.time - launch_time[ev.ball]);
        settle_hist.add(latency);
        settle_sum += static_cast<double>(latency);
        res.finish_time = std::max(res.finish_time, ev.time);
      } else {
        launch(ev.ball, ev.time);  // immediate relaunch to a fresh neighbor
      }
    }
  }

  res.completed = settled == total_balls;
  res.unassigned_balls = total_balls - settled;
  for (NodeId u = 0; u < graph.num_servers(); ++u) {
    res.max_load = std::max<std::uint64_t>(res.max_load, res.loads[u]);
    res.burned_servers += burned[u];
  }
  if (settled > 0) {
    res.settle_mean = settle_sum / static_cast<double>(settled);
    res.settle_p99 = static_cast<std::uint64_t>(settle_hist.quantile(0.99));
  }
  return res;
}

}  // namespace saer

#pragma once
// Umbrella header for the saer-lb public API.
//
//   #include "saer.hpp"
//
// pulls in everything a downstream user needs:
//   * topologies:       graph/generators.hpp, graph/bipartite_graph.hpp
//   * the protocols:    core/engine.hpp (SAER / RAES, uniform and <= d
//                       demands), core/weighted.hpp, core/dynamic.hpp,
//                       core/reference.hpp (the naive oracle),
//                       net/async_simulator.hpp (random message delays)
//   * results analysis: core/metrics.hpp, core/trace.hpp,
//                       core/neighborhood.hpp
//   * applications:     core/subgraph.hpp + graph/spectral.hpp (expander
//                       extraction)
//   * baselines:        baselines/*.hpp
//   * the paper's math: analysis/recurrences.hpp, analysis/theory.hpp,
//                       analysis/concentration.hpp, analysis/empirical.hpp
//   * experiments:      sim/experiment.hpp, sim/figure.hpp
//
// Individual headers remain includable on their own; this file is purely a
// convenience and defines nothing.

#include "analysis/concentration.hpp"
#include "analysis/empirical.hpp"
#include "analysis/recurrences.hpp"
#include "analysis/theory.hpp"
#include "baselines/one_shot.hpp"
#include "baselines/parallel_greedy.hpp"
#include "baselines/sequential_greedy.hpp"
#include "core/dynamic.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "core/neighborhood.hpp"
#include "core/protocol.hpp"
#include "core/reference.hpp"
#include "core/subgraph.hpp"
#include "core/trace.hpp"
#include "core/weighted.hpp"
#include "graph/bipartite_graph.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/spectral.hpp"
#include "net/async_simulator.hpp"
#include "sim/experiment.hpp"
#include "sim/figure.hpp"
#include "sim/run_record.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

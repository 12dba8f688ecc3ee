// Input systems and word-length moves, through the graph's public API.
#pragma once

#include <stdexcept>
#include <variant>

#include "sfg/graph.hpp"
#include "sfg/random_graph.hpp"
#include "support/random.hpp"

namespace perfbench {

/// Output format of a quantizer or quantized block.
inline psdacc::fxp::FixedPointFormat format_of(const psdacc::sfg::Graph& g,
                                               psdacc::sfg::NodeId id) {
  const psdacc::sfg::NodeView node = g.node(id);
  if (const auto* q = std::get_if<psdacc::sfg::QuantizerNode>(&node.payload))
    return q->format;
  return *std::get<psdacc::sfg::BlockNode>(node.payload).output_format;
}

/// The same format with @p bits fractional bits.
inline psdacc::fxp::FixedPointFormat with_bits(
    psdacc::fxp::FixedPointFormat format, int bits) {
  format.fractional_bits = bits;
  return format;
}

inline void set_fraction_bits(psdacc::sfg::Graph& g, psdacc::sfg::NodeId id,
                              int bits) {
  g.set_format(id, with_bits(format_of(g, id), bits));
}

/// Number of nodes of payload type @p Node in @p g.
template <class Node>
std::size_t count_nodes(const psdacc::sfg::Graph& g) {
  std::size_t n = 0;
  for (psdacc::sfg::NodeId id = 0; id < g.node_count(); ++id)
    n += std::holds_alternative<Node>(g.node(id).payload) ? 1 : 0;
  return n;
}

/// A seeded random system with exactly @p nodes nodes, @p sources noise
/// sources, @p down downsamplers and @p up upsamplers. Fixing the counts
/// fixes the node mix, and with it the amount of work an operation does;
/// the seed still draws the order of the stages and every filter.
inline psdacc::sfg::Graph draw_graph(psdacc::Xoshiro256& rng, int depth,
                                     bool multirate, std::size_t nodes,
                                     std::size_t sources,
                                     std::size_t down = 0,
                                     std::size_t up = 0) {
  psdacc::sfg::RandomGraphOptions o;
  o.depth = depth;
  o.multirate = multirate;
  for (int draw = 0; draw < 100000; ++draw) {
    psdacc::sfg::Graph g = psdacc::sfg::random_graph(rng(), o);
    if (g.node_count() == nodes && g.noise_sources().size() == sources &&
        count_nodes<psdacc::sfg::DownsampleNode>(g) == down &&
        count_nodes<psdacc::sfg::UpsampleNode>(g) == up)
      return g;
  }
  throw std::runtime_error("no random system of the requested size");
}

}  // namespace perfbench

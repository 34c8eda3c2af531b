#include "compress/huffman.h"

#include <queue>
#include <vector>

#include "util/check.h"

namespace bkc::compress {

namespace {

/// Build Huffman code lengths from counts with the classic two-queue /
/// heap construction. Returns a length per symbol (0 = no code).
std::array<std::uint8_t, bnn::kNumSequences> build_lengths(
    const FrequencyTable& table) {
  struct Node {
    std::uint64_t weight;
    int index;  // tie-break for determinism
    int left = -1;
    int right = -1;
    SeqId symbol = 0;
    bool leaf = false;
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * bnn::kNumSequences);
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    const std::uint64_t c = table.count(static_cast<SeqId>(s));
    if (c > 0) {
      nodes.push_back({.weight = c,
                       .index = static_cast<int>(nodes.size()),
                       .symbol = static_cast<SeqId>(s),
                       .leaf = true});
    }
  }
  check(!nodes.empty(), "HuffmanCodec: empty frequency table");

  std::array<std::uint8_t, bnn::kNumSequences> lengths{};
  if (nodes.size() == 1) {
    // A degenerate alphabet still needs one bit per symbol so the
    // stream length encodes the occurrence count.
    lengths[nodes[0].symbol] = 1;
    return lengths;
  }

  auto cmp = [&nodes](int a, int b) {
    if (nodes[static_cast<std::size_t>(a)].weight !=
        nodes[static_cast<std::size_t>(b)].weight) {
      return nodes[static_cast<std::size_t>(a)].weight >
             nodes[static_cast<std::size_t>(b)].weight;
    }
    return nodes[static_cast<std::size_t>(a)].index >
           nodes[static_cast<std::size_t>(b)].index;
  };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);
  const int leaf_count = static_cast<int>(nodes.size());
  for (int i = 0; i < leaf_count; ++i) heap.push(i);
  while (heap.size() > 1) {
    const int a = heap.top();
    heap.pop();
    const int b = heap.top();
    heap.pop();
    nodes.push_back({.weight = nodes[static_cast<std::size_t>(a)].weight +
                               nodes[static_cast<std::size_t>(b)].weight,
                     .index = static_cast<int>(nodes.size()),
                     .left = a,
                     .right = b});
    heap.push(static_cast<int>(nodes.size()) - 1);
  }
  // Depth-first traversal assigning depths as code lengths.
  struct Frame {
    int node;
    std::uint8_t depth;
  };
  std::vector<Frame> stack{{heap.top(), 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(f.node)];
    if (n.leaf) {
      lengths[n.symbol] = f.depth;
    } else {
      stack.push_back({n.left, static_cast<std::uint8_t>(f.depth + 1)});
      stack.push_back({n.right, static_cast<std::uint8_t>(f.depth + 1)});
    }
  }
  return lengths;
}

}  // namespace

HuffmanCodec HuffmanCodec::build(const FrequencyTable& table) {
  HuffmanCodec codec;
  codec.lengths_ = build_lengths(table);
  return codec;
}

unsigned HuffmanCodec::code_length(SeqId s) const {
  check(s < bnn::kNumSequences, "HuffmanCodec: id out of range");
  check(lengths_[s] != 0, "HuffmanCodec: sequence has no codeword");
  return lengths_[s];
}

std::uint64_t HuffmanCodec::encoded_bits(const FrequencyTable& table) const {
  std::uint64_t bits = 0;
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    const std::uint64_t c = table.count(static_cast<SeqId>(s));
    if (c > 0) bits += c * code_length(static_cast<SeqId>(s));
  }
  return bits;
}

double HuffmanCodec::compression_ratio(const FrequencyTable& table) const {
  const std::uint64_t plain =
      table.total() * static_cast<std::uint64_t>(bnn::kSeqBits);
  const std::uint64_t coded = encoded_bits(table);
  check(coded > 0, "HuffmanCodec: empty stream");
  return static_cast<double>(plain) / static_cast<double>(coded);
}

}  // namespace bkc::compress

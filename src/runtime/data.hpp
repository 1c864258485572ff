#pragma once

// Synthetic workload generators.
//
// The paper evaluates throughput/memory only (no accuracy), so the shape of
// the data — (b, s, v) — is what matters. These generators provide:
//
//   * RandomLmWorkload    — uniform token streams; the benchmark workload.
//   * PatternLmWorkload   — periodic sequences the model can actually learn,
//                           used by tests/examples to show loss → 0.
//   * SyntheticClsWorkload — linearly separable class-conditional token
//                           distributions for the classification branch.
//   * CharCorpus          — a character-level corpus for the text-generation
//                           example (encode/decode + batch sampling).
//
// All generators are deterministic given their seed.

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/device_context.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace optimus::runtime {

struct LmBatch {
  tensor::ITensor tokens;  // [b, s]
  tensor::ITensor labels;  // [b, s] next-token targets, last position masked
};

struct ClsBatch {
  tensor::ITensor tokens;  // [b, s]
  tensor::ITensor labels;  // [b]
};

class RandomLmWorkload {
 public:
  RandomLmWorkload(tensor::index_t batch, tensor::index_t seq_len, tensor::index_t vocab,
                   std::uint64_t seed)
      : batch_(batch), seq_len_(seq_len), vocab_(vocab), rng_(seed) {}

  LmBatch next();

 private:
  tensor::index_t batch_, seq_len_, vocab_;
  util::Rng rng_;
};

/// Sequences of the form x_t = (offset + t) mod period mapped into the vocab;
/// after seeing one period, the next token is exactly predictable.
class PatternLmWorkload {
 public:
  PatternLmWorkload(tensor::index_t batch, tensor::index_t seq_len, tensor::index_t vocab,
                    tensor::index_t period, std::uint64_t seed)
      : batch_(batch), seq_len_(seq_len), vocab_(vocab), period_(period), rng_(seed) {
    OPT_CHECK(period >= 2 && period <= vocab, "period must be in [2, vocab]");
  }

  LmBatch next();

 private:
  tensor::index_t batch_, seq_len_, vocab_, period_;
  util::Rng rng_;
};

/// Class c draws tokens from the vocab band [c·v/C, (c+1)·v/C) with
/// probability `purity` and uniformly otherwise — separable for purity > 1/C.
class SyntheticClsWorkload {
 public:
  SyntheticClsWorkload(tensor::index_t batch, tensor::index_t seq_len, tensor::index_t vocab,
                       tensor::index_t num_classes, double purity, std::uint64_t seed)
      : batch_(batch),
        seq_len_(seq_len),
        vocab_(vocab),
        classes_(num_classes),
        purity_(purity),
        rng_(seed) {
    OPT_CHECK(num_classes >= 2 && vocab >= num_classes, "need v >= C >= 2");
  }

  ClsBatch next();

 private:
  tensor::index_t batch_, seq_len_, vocab_, classes_;
  double purity_;
  util::Rng rng_;
};

/// Wraps a batch source shared by the `ranks` lock-stepped ranks of a
/// simulated cluster. Every rank thread calls `sampler(rank)` and observes the
/// identical batch sequence, while the source is drawn exactly once per
/// position (the first consumer to reach a position fills the cache;
/// stragglers replay it). A batch leaves the cache once every rank has read
/// it, so the cache holds only the positions between the slowest and the
/// fastest rank. Batches are host-side input, not device state: they are
/// allocated against the sampler's own DeviceContext, so no rank's memory
/// accountant sees them, whichever rank draws first. Copies of the returned
/// functor share one cache, so it can be captured by value into a cluster
/// body.
template <typename Source>
auto make_cached_sampler(Source source, int ranks) {
  OPT_CHECK(ranks >= 1, "make_cached_sampler needs at least one rank, got " << ranks);
  using Batch = decltype(source());
  struct State {
    State(Source s, int n) : src(std::move(s)), cursor(static_cast<std::size_t>(n), 0) {}
    std::mutex mu;
    Source src;
    tensor::DeviceContext host;      // charged for the batches instead of a rank
    std::deque<Batch> cache;         // positions [first, first + cache.size())
    std::size_t first = 0;
    std::vector<std::size_t> cursor;  // per-rank read position
  };
  auto state = std::make_shared<State>(std::move(source), ranks);
  return [state](int rank) -> Batch {
    std::lock_guard<std::mutex> lock(state->mu);
    OPT_CHECK(rank >= 0 && static_cast<std::size_t>(rank) < state->cursor.size(),
              "sampler rank " << rank << " out of range");
    const std::size_t i = state->cursor[static_cast<std::size_t>(rank)]++;
    if (i - state->first >= state->cache.size()) {
      tensor::ScopedDevice host(state->host);
      state->cache.push_back(state->src());
    }
    Batch batch = state->cache[i - state->first];
    const std::size_t slowest =
        *std::min_element(state->cursor.begin(), state->cursor.end());
    while (state->first < slowest) {
      state->cache.pop_front();
      ++state->first;
    }
    return batch;
  };
}

/// Character-level corpus: vocabulary = distinct bytes of the text.
class CharCorpus {
 public:
  explicit CharCorpus(std::string text);

  tensor::index_t vocab_size() const { return static_cast<tensor::index_t>(chars_.size()); }
  tensor::index_t length() const { return static_cast<tensor::index_t>(encoded_.size()); }

  /// Samples b random windows of length s+1; tokens are the first s chars,
  /// labels the last s (standard next-char objective, nothing masked).
  LmBatch sample(tensor::index_t batch, tensor::index_t seq_len, util::Rng& rng) const;

  std::int32_t encode(char c) const;
  char decode(std::int32_t token) const;
  std::string decode(const std::vector<std::int32_t>& tokens) const;

  /// A built-in public-domain-style snippet used by the examples.
  static const char* builtin_text();

 private:
  std::string chars_;                 // index → char
  std::array<std::int32_t, 256> to_index_;
  std::vector<std::int32_t> encoded_;
};

}  // namespace optimus::runtime

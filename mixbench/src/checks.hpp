// Correctness checks and reference computations for the mixed-priority
// benchmark. Every check returns an empty string when the result is
// correct and a one-line reason otherwise, so the benchmark can count and
// print failures and the tests can assert on deliberately corrupted
// results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analytics/page_rank.hpp"
#include "analytics/word_count.hpp"
#include "engine/dataset.hpp"
#include "workload/graph_gen.hpp"

namespace mixbench {

// Exact word counts of every input partition on a dense word index, taken
// with the library's single-threaded exact_word_count (no engine, shuffle
// or dispatcher code). The count a job with dropped map tasks must return
// is the sum over exactly the partitions its map stage ran.
class WordCountOracle {
 public:
  explicit WordCountOracle(const dias::engine::Dataset<std::string>& rows,
                           std::size_t top_k = 200);

  std::size_t partitions() const { return parts_.size(); }
  // Exact whole-input counts of the top_k most frequent words. As the
  // reference of analytics::word_count_error(reference, estimate, top_k)
  // it gives the same error as the whole exact count, without ranking
  // every word of the input on each call.
  const dias::analytics::WordCounts& top_words() const { return top_words_; }

  // Checks that `executed` holds ceil(n (1 - theta)) distinct partition ids
  // and that `got` equals the exact count over those partitions.
  std::string check(const dias::analytics::WordCounts& got,
                    const std::vector<std::size_t>& executed, double theta) const;

 private:
  // Exact counts of the union of `executed` on the dense index.
  std::vector<std::uint64_t> expected(const std::vector<std::size_t>& executed) const;

  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> parts_;
  dias::analytics::WordCounts top_words_;
};

// Total rank mass <= 1 + 1e-12 and every rank >= (1 - damping) / |V|.
std::string check_rank_bounds(const dias::analytics::RankVector& ranks, double damping);

// Power iteration written independently of the engine, following the
// library's PageRank definition: the symmetric adjacency of `edges` (self
// loops skipped), uniform start, `iterations` rounds of
// r'(v) = (1 - d) / |V| + d * sum over neighbours u of r(u) / deg(u).
dias::analytics::RankVector reference_page_rank(const std::vector<dias::workload::Edge>& edges,
                                                int iterations, double damping);

// sum |got - ref| / sum |ref| over the union of both key sets.
double relative_l1(const dias::analytics::RankVector& reference,
                   const dias::analytics::RankVector& got);

std::string check_triangles(std::uint64_t got, std::uint64_t exact);

// Spill traffic of one job, read from its shuffle-write and merge StageInfo.
struct SpillAccount {
  std::size_t segments_written = 0;
  std::size_t bytes_written = 0;
  std::size_t segments_read = 0;
  std::size_t bytes_read = 0;
};

// The job spilled, and read back every segment and byte it spilled.
std::string check_spilled(const SpillAccount& spill);

}  // namespace mixbench

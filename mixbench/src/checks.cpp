#include "checks.hpp"

#include <algorithm>
#include <cmath>

namespace mixbench {

using dias::analytics::RankVector;
using dias::analytics::WordCounts;

WordCountOracle::WordCountOracle(const dias::engine::Dataset<std::string>& rows,
                                 std::size_t top_k) {
  WordCounts totals;
  parts_.resize(rows.partitions());
  for (std::size_t p = 0; p < rows.partitions(); ++p) {
    const WordCounts counts = dias::analytics::exact_word_count(rows.partition(p));
    auto& part = parts_[p];
    part.reserve(counts.size());
    for (const auto& [word, count] : counts) {
      const auto it = ids_.try_emplace(word, static_cast<std::uint32_t>(ids_.size())).first;
      part.emplace_back(it->second, count);
      totals[word] += count;
    }
  }
  // Same ranking as analytics::word_count_error: count descending, then
  // word ascending.
  std::vector<std::pair<std::string, std::uint64_t>> ranked(totals.begin(), totals.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  ranked.resize(std::min(top_k, ranked.size()));
  top_words_.insert(ranked.begin(), ranked.end());
}

std::vector<std::uint64_t> WordCountOracle::expected(
    const std::vector<std::size_t>& executed) const {
  std::vector<std::uint64_t> dense(ids_.size(), 0);
  for (const std::size_t p : executed) {
    for (const auto& [id, count] : parts_[p]) dense[id] += count;
  }
  return dense;
}

std::string WordCountOracle::check(const WordCounts& got,
                                   const std::vector<std::size_t>& executed,
                                   double theta) const {
  const std::size_t n = parts_.size();
  const auto want_run = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) * (1.0 - theta) - 1e-9));
  if (executed.size() != want_run) {
    return "map stage ran " + std::to_string(executed.size()) + " of " + std::to_string(n) +
           " partitions, expected " + std::to_string(want_run);
  }
  std::vector<char> seen(n, 0);
  for (const std::size_t p : executed) {
    if (p >= n || seen[p] != 0) return "bad executed partition id " + std::to_string(p);
    seen[p] = 1;
  }
  const std::vector<std::uint64_t> want = expected(executed);
  const auto nonzero = static_cast<std::size_t>(
      std::count_if(want.begin(), want.end(), [](std::uint64_t c) { return c != 0; }));
  if (got.size() != nonzero) {
    return "result has " + std::to_string(got.size()) + " distinct words, expected " +
           std::to_string(nonzero);
  }
  for (const auto& [word, count] : got) {
    const auto it = ids_.find(word);
    if (it == ids_.end()) return "word '" + word + "' is not in the input";
    if (want[it->second] != count) {
      return "word '" + word + "' counted " + std::to_string(count) + ", expected " +
             std::to_string(want[it->second]);
    }
  }
  return {};
}

std::string check_rank_bounds(const RankVector& ranks, double damping) {
  if (ranks.empty()) return "no ranks";
  const double floor = (1.0 - damping) / static_cast<double>(ranks.size());
  double mass = 0.0;
  for (const auto& [v, r] : ranks) {
    if (!(r >= floor)) {
      return "rank of vertex " + std::to_string(v) + " is " + std::to_string(r) +
             ", below the teleport floor " + std::to_string(floor);
    }
    mass += r;
  }
  if (!(mass <= 1.0 + 1e-12)) return "rank mass " + std::to_string(mass) + " exceeds 1";
  return {};
}

RankVector reference_page_rank(const std::vector<dias::workload::Edge>& edges, int iterations,
                               double damping) {
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> adjacency;
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    adjacency[u].push_back(v);
    adjacency[v].push_back(u);
  }
  const double n = static_cast<double>(adjacency.size());
  RankVector ranks;
  for (const auto& [v, nbrs] : adjacency) ranks[v] = 1.0 / n;
  for (int it = 0; it < iterations; ++it) {
    RankVector next;
    for (const auto& [v, nbrs] : adjacency) next[v] = 0.0;
    for (const auto& [v, nbrs] : adjacency) {
      const double share = ranks[v] / static_cast<double>(nbrs.size());
      for (const std::uint32_t u : nbrs) next[u] += share;
    }
    for (auto& [v, r] : next) r = (1.0 - damping) / n + damping * r;
    ranks = std::move(next);
  }
  return ranks;
}

double relative_l1(const RankVector& reference, const RankVector& got) {
  double diff = 0.0;
  double mass = 0.0;
  for (const auto& [v, r] : reference) {
    const auto it = got.find(v);
    diff += std::abs(r - (it == got.end() ? 0.0 : it->second));
    mass += std::abs(r);
  }
  for (const auto& [v, g] : got) {
    if (reference.find(v) == reference.end()) diff += std::abs(g);
  }
  return mass > 0.0 ? diff / mass : diff;
}

std::string check_triangles(std::uint64_t got, std::uint64_t exact) {
  if (got == exact) return {};
  return "triangle count " + std::to_string(got) + ", expected " + std::to_string(exact);
}

std::string check_spilled(const SpillAccount& spill) {
  if (spill.segments_written == 0 || spill.bytes_written == 0) return "the job did not spill";
  if (spill.segments_read != spill.segments_written || spill.bytes_read != spill.bytes_written) {
    return "spilled " + std::to_string(spill.segments_written) + " segments / " +
           std::to_string(spill.bytes_written) + " bytes but read back " +
           std::to_string(spill.segments_read) + " / " + std::to_string(spill.bytes_read);
  }
  return {};
}

}  // namespace mixbench

// Each benchmark correctness check passes on a real engine result and
// fails on a deliberately corrupted copy of it.
#include <gtest/gtest.h>

#include <filesystem>

#include "analytics/page_rank.hpp"
#include "analytics/triangle_count.hpp"
#include "analytics/word_count.hpp"
#include "checks.hpp"
#include "engine/engine.hpp"
#include "storage/block_store.hpp"
#include "storage/spill_store.hpp"
#include "workload/graph_gen.hpp"
#include "workload/text_corpus.hpp"

namespace {

using dias::engine::Engine;
using dias::engine::EngineStageKind;

constexpr std::size_t kPartitions = 16;
constexpr double kTheta = 0.3;

Engine::Options engine_options() {
  Engine::Options o;
  o.workers = 2;
  o.seed = 5;
  return o;
}

dias::engine::Dataset<std::string> corpus(Engine& eng) {
  dias::workload::TextCorpusParams p;
  p.posts = 400;
  p.vocabulary = 2000;
  p.drift_segments = 4;
  p.seed = 9;
  return eng.parallelize(dias::workload::generate_text_corpus("t", p).rows, kPartitions);
}

std::vector<std::size_t> map_partitions_run(const Engine& eng) {
  for (const auto& s : eng.stage_log()) {
    if (s.kind == EngineStageKind::kMap) return s.executed_partition_ids;
  }
  return {};
}

mixbench::SpillAccount spill_account(const Engine& eng) {
  mixbench::SpillAccount a;
  for (const auto& s : eng.stage_log()) {
    if (s.kind == EngineStageKind::kShuffleWrite) {
      a.segments_written += s.shuffle_spill_segments;
      a.bytes_written += s.shuffle_spill_bytes;
    } else if (s.kind == EngineStageKind::kReduce) {
      a.segments_read += s.shuffle_restored_segments;
      a.bytes_read += s.shuffle_restored_bytes;
    }
  }
  return a;
}

std::vector<dias::workload::Edge> graph() {
  dias::workload::GraphParams gp;
  gp.scale = 9;
  gp.edges = 8 * 512;
  gp.seed = 4;
  return dias::workload::generate_rmat_graph(gp);
}

TEST(WordCountCheck, DroppedRunPassesAndOffByOneFails) {
  Engine eng(engine_options());
  const auto rows = corpus(eng);
  const mixbench::WordCountOracle oracle(rows);
  auto result = dias::analytics::word_count(eng, rows, 8, kTheta);
  const auto executed = map_partitions_run(eng);
  ASSERT_EQ(executed.size(), 12u);  // ceil(16 * 0.7)
  EXPECT_EQ(oracle.check(result.counts, executed, kTheta), "");

  auto corrupted = result.counts;
  ++corrupted.begin()->second;
  EXPECT_NE(oracle.check(corrupted, executed, kTheta), "");
}

TEST(WordCountCheck, RowFromDroppedPartitionFails) {
  Engine eng(engine_options());
  const auto rows = corpus(eng);
  const mixbench::WordCountOracle oracle(rows);
  auto result = dias::analytics::word_count(eng, rows, 8, kTheta);
  const auto executed = map_partitions_run(eng);
  std::size_t dropped = 0;
  while (std::find(executed.begin(), executed.end(), dropped) != executed.end()) ++dropped;
  ASSERT_LT(dropped, kPartitions);

  auto corrupted = result.counts;
  const std::string body = dias::workload::extract_post_body(rows.partition(dropped).front());
  for (const auto& word : dias::workload::tokenize(body)) ++corrupted[word];
  EXPECT_NE(oracle.check(corrupted, executed, kTheta), "");
  // Claiming the dropped partition ran breaks the partition count instead.
  auto widened = executed;
  widened.push_back(dropped);
  EXPECT_NE(oracle.check(result.counts, widened, kTheta), "");
}

TEST(WordCountCheck, ExactRunPassesAndTopWordsGiveTheLibraryError) {
  Engine eng(engine_options());
  const auto rows = corpus(eng);
  const mixbench::WordCountOracle oracle(rows);
  std::vector<std::size_t> all(kPartitions);
  for (std::size_t p = 0; p < kPartitions; ++p) all[p] = p;
  const auto exact = dias::analytics::word_count(eng, rows, 8, 0.0);
  EXPECT_EQ(oracle.check(exact.counts, all, 0.0), "");
  EXPECT_EQ(oracle.top_words().size(), 200u);

  const auto dropped = dias::analytics::word_count(eng, rows, 8, kTheta);
  const auto estimate = dropped.rescaled_counts();
  const double whole = dias::analytics::word_count_error(
      dias::analytics::exact_word_count(rows.collect()), estimate, 200);
  EXPECT_DOUBLE_EQ(dias::analytics::word_count_error(oracle.top_words(), estimate, 200), whole);
  EXPECT_GT(whole, 0.0);
}

TEST(RankCheck, DroppedRunPassesAndExcessMassFails) {
  Engine eng(engine_options());
  const auto edges = graph();
  const auto data = eng.parallelize(edges, 8);
  dias::analytics::PageRankOptions po;
  po.partitions = 8;
  po.stage_drop_ratio = kTheta;
  const auto ranks = dias::analytics::page_rank(eng, data, po).ranks;
  EXPECT_EQ(mixbench::check_rank_bounds(ranks, po.damping), "");

  auto heavy = ranks;
  double mass = 0.0;
  for (const auto& [v, r] : heavy) mass += r;
  heavy.begin()->second += 1.0 - mass + 1e-9;  // total mass just above 1
  EXPECT_NE(mixbench::check_rank_bounds(heavy, po.damping), "");

  auto low = ranks;
  low.begin()->second = 0.0;  // below the teleport floor
  EXPECT_NE(mixbench::check_rank_bounds(low, po.damping), "");
}

TEST(RankCheck, ExactRunMatchesPowerIteration) {
  Engine eng(engine_options());
  const auto edges = graph();
  dias::analytics::PageRankOptions po;
  po.partitions = 8;
  const auto ranks = dias::analytics::page_rank(eng, eng.parallelize(edges, 8), po).ranks;
  const auto reference = mixbench::reference_page_rank(edges, po.iterations, po.damping);
  EXPECT_LE(mixbench::relative_l1(reference, ranks), 1e-9);
  auto shifted = ranks;
  shifted.begin()->second *= 1.001;
  EXPECT_GT(mixbench::relative_l1(reference, shifted), 1e-9);
}

TEST(TriangleCheck, OneTooHighFails) {
  Engine eng(engine_options());
  const auto edges = graph();
  const std::uint64_t exact = dias::workload::exact_triangle_count(edges);
  const auto got = dias::analytics::triangle_count(eng, eng.parallelize(edges, 8), 0.0);
  EXPECT_EQ(mixbench::check_triangles(got.triangles, exact), "");
  EXPECT_NE(mixbench::check_triangles(got.triangles + 1, exact), "");
}

TEST(SpillCheck, SpilledRunPassesAndRunWithoutSpillFails) {
  const auto root = std::filesystem::current_path() / "checks-test-spill";
  {
    dias::storage::BlockStoreOptions so;
    so.root = root;
    dias::storage::BlockStore store(so);
    dias::storage::BlockStoreSpill spill(store, "spill");
    Engine eng(engine_options());
    const auto rows = corpus(eng);
    dias::engine::ShuffleOptions shuffle;
    shuffle.memory_budget_bytes = 16 * 1024;
    shuffle.spill = &spill;
    dias::analytics::word_count(eng, rows, 8, kTheta, shuffle);
    const auto spilled = spill_account(eng);
    EXPECT_EQ(mixbench::check_spilled(spilled), "");

    auto short_read = spilled;
    --short_read.bytes_read;
    EXPECT_NE(mixbench::check_spilled(short_read), "");

    dias::analytics::word_count(eng, rows, 8, kTheta);  // unbounded: nothing spills
    EXPECT_NE(mixbench::check_spilled(spill_account(eng)), "");
  }
  std::filesystem::remove_all(root);
}

}  // namespace

// Mixed-priority benchmark (see README.md).
//
// Two priority classes share one DiasDispatcher, one SprintGovernor and one
// Engine. The low class is a closed-loop batch backlog: a fixed number of
// jobs is always outstanding and each is resubmitted when it completes.
// The high class is an open-loop Poisson stream, timed from the moment each
// job was due. Host slowdowns then scale the figures instead of growing a
// queue. One generator thread (main) submits every job, a checker thread
// checks every result, and the job bodies run on the dispatcher thread.
//
//   mixbench --workload <text_mixed|graph_mixed|text_spill> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>] [--spill-root <dir>]
//            [--source-id <id>] [--baseline 1]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end with --trace 0, per-layer with --trace 1). A
// "health" line before it records the host's state during the run.
#include <fcntl.h>
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/page_rank.hpp"
#include "analytics/triangle_count.hpp"
#include "analytics/word_count.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "core/dispatcher.hpp"
#include "engine/engine.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "runtime/sprint_governor.hpp"
#include "storage/block_store.hpp"
#include "storage/spill_store.hpp"
#include "workload/graph_gen.hpp"
#include "workload/text_corpus.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using dias::core::DiasDispatcher;
using dias::engine::EngineStageKind;
using dias::engine::StageInfo;

// Set during static initialisation, before main: set-up is timed cold
// from here.
const Clock::time_point kProcessStart = Clock::now();

// ---- configuration (README "Inputs") ---------------------------------------
constexpr std::size_t kBaseWorkers = 2;
constexpr std::size_t kReserveWorkers = 1;
constexpr std::size_t kLowPosts = 8000;
constexpr std::size_t kHighPosts = 2000;
constexpr std::size_t kVocabulary = 20000;
constexpr std::size_t kDriftSegments = 8;
constexpr std::size_t kLowPartitions = 64;
constexpr std::size_t kHighPartitions = 16;
constexpr std::size_t kReducePartitions = 4;
constexpr int kGraphScale = 13;
constexpr std::size_t kGraphPartitions = 32;
constexpr int kPageRankIterations = 10;
constexpr double kDamping = 0.85;
constexpr double kThetaLow = 0.3;
constexpr std::size_t kLowBacklog = 2;
constexpr double kHighRatePerS = 5.0;
constexpr std::size_t kSpillBudgetBytes = 256 * 1024;
constexpr std::size_t kAccuracyTopK = 200;
constexpr auto kRssSamplePeriod = std::chrono::milliseconds(1);

// Dispatcher classes: the higher index is served first.
constexpr std::size_t kLow = 0;
constexpr std::size_t kHigh = 1;

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool baseline = false;
  fs::path out_dir = "mixbench/out";
  fs::path spill_root;  // empty: out_dir
  std::string source_id = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--baseline") {
      args.baseline = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--spill-root") {
      args.spill_root = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload != "text_mixed" && args.workload != "graph_mixed" &&
      args.workload != "text_spill") {
    throw std::invalid_argument("--workload must be text_mixed, graph_mixed or text_spill");
  }
  if (!(args.seconds >= 1.0 && args.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in [1, 600]");
  }
  return args;
}

// ---- host health -----------------------------------------------------------
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

CpuTimes process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec; };
  return {tv(ru.ru_utime), tv(ru.ru_stime)};
}

// CPU time of one running thread of this process (user + system).
double thread_cpu_s(std::thread& thread) {
  clockid_t id{};
  timespec ts{};
  if (pthread_getcpuclockid(thread.native_handle(), &id) != 0 || clock_gettime(id, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Host-wide steal time (all CPUs) from /proc/stat, in seconds; -1 when the
// file cannot be read.
double steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1.0;
  for (double& x : v) {
    if (!(in >> x)) return -1.0;
  }
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Time of a fixed serial integer loop: a host-speed probe that does not
// depend on the program under test.
volatile std::uint64_t probe_sink = 0;

double host_probe_s() {
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 30'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  probe_sink = x;
  return seconds(Clock::now() - t0);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return v.empty() ? 0.0 : acc / static_cast<double>(v.size());
}

// ---- per-job capture -------------------------------------------------------
// Per-layer figures of one job, read from its stage log and the pool,
// spill and storage counters (traced runs only).
struct JobTrace {
  double analytics_s = 0.0;
  std::size_t stages = 0;
  double map_s = 0.0;           // kMap + kShuffleMap
  double shuffle_write_s = 0.0;
  double merge_s = 0.0;         // kReduce
  double result_s = 0.0;
  double stage_s = 0.0;
  double gap_s = 0.0;           // sum of (stage duration - longest task)
  std::size_t tasks_run = 0;
  std::size_t tasks_dropped = 0;
  std::size_t shuffle_records_in = 0;
  std::size_t shuffle_records_out = 0;
  std::size_t shuffle_bytes = 0;
  std::size_t shuffle_flushes = 0;
  double merge_skew_sum = 0.0;
  std::size_t merges = 0;
  std::uint64_t pool_tasks = 0;
  dias::engine::SpillStats spill;
  dias::storage::IoStats io;
};

struct Completion {
  std::size_t id = 0;
  std::size_t cls = kLow;
  Clock::time_point done;
  std::string error;  // non-empty: the job body threw
  CpuTimes cpu;       // job-path CPU while the job ran
  dias::analytics::WordCountResult words;
  dias::analytics::RankVector ranks;
  std::uint64_t triangles = 0;
  std::vector<std::size_t> executed;  // partitions the word-count map stage ran
  mixbench::SpillAccount spill;
  JobTrace trace;
};

struct JobInfo {
  std::size_t cls = kLow;
  Clock::time_point due;
  Clock::time_point done;
  double submit_s = 0.0;
  CpuTimes cpu;
  bool completed = false;
};

// Checks completed jobs on a thread of its own, so the generator is never
// late because of a check. The engine uses fewer threads than the host has
// CPUs, which leaves the checker a CPU; its CPU time is subtracted from
// cpu_s_per_job. Checks left over when the window closes run after it.
class Checker {
 public:
  explicit Checker(std::function<void(const Completion&)> check)
      : check_(std::move(check)), thread_([this] { loop(); }) {}
  ~Checker() { finish(); }
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  void push(Completion&& c) {
    {
      std::lock_guard lock(mu_);
      queue_.push_back(std::move(c));
      max_depth_ = std::max(max_depth_, queue_.size());
    }
    cv_.notify_one();
  }
  // Checks everything queued, then joins the thread.
  void finish() {
    {
      std::lock_guard lock(mu_);
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }
  // CPU time the checker thread used so far; call before finish().
  double cpu_s() { return thread_cpu_s(thread_); }
  std::size_t max_depth() {
    std::lock_guard lock(mu_);
    return max_depth_;
  }

 private:
  void loop() {
    for (;;) {
      Completion c;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;
        c = std::move(queue_.front());
        queue_.pop_front();
      }
      check_(c);
    }
  }

  std::function<void(const Completion&)> check_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Completion> queue_;
  std::size_t max_depth_ = 0;
  bool stopping_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

// Samples the process's resident set size (/proc/self/statm) every
// millisecond on a thread of its own, from construction until stop(): the
// peak resident memory of the timed window. ru_maxrss would instead be the
// peak over the whole process, set-up included.
class RssSampler {
 public:
  RssSampler() : fd_(::open("/proc/self/statm", O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) throw std::runtime_error("cannot open /proc/self/statm");
    peak_bytes_ = sample();
    thread_ = std::thread([this] { loop(); });
  }
  ~RssSampler() {
    stop();
    ::close(fd_);
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void stop() {
    {
      std::lock_guard lock(mu_);
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }
  // CPU time the sampler thread used so far; call before stop().
  double cpu_s() { return thread_cpu_s(thread_); }
  // Valid after stop().
  double peak_mb() const { return static_cast<double>(peak_bytes_) / 1e6; }

 private:
  std::size_t sample() const {
    char buf[128];
    const ssize_t n = ::pread(fd_, buf, sizeof(buf) - 1, 0);
    if (n <= 0) return 0;
    buf[n] = '\0';
    unsigned long size = 0;
    unsigned long resident = 0;
    if (std::sscanf(buf, "%lu %lu", &size, &resident) != 2) return 0;
    return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  }
  void loop() {
    std::unique_lock lock(mu_);
    while (!cv_.wait_for(lock, kRssSamplePeriod, [this] { return stopping_; })) {
      peak_bytes_ = std::max(peak_bytes_, sample());
    }
    peak_bytes_ = std::max(peak_bytes_, sample());
  }

  const int fd_;
  std::size_t peak_bytes_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result object: the last line of stdout.
std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  dias::obs::JsonWriter w;
  w.begin_object();
  w.field("correct", correct);
  w.field("attempted", std::uint64_t{attempted});
  w.field("failed", std::uint64_t{failed});
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

// ---- the benchmark ---------------------------------------------------------
class Bench {
 public:
  explicit Bench(const Args& args);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Runs the timed window and prints the health line and the result line.
  int run();
  // Closed-loop runs of each job type on a one-worker engine, no dispatcher.
  int run_baseline();

 private:
  bool graph() const { return args_.workload == "graph_mixed"; }
  bool spilling() const { return args_.workload == "text_spill"; }

  Completion run_job(std::size_t cls, double theta);
  void body(std::size_t id, std::size_t cls, double theta);
  void submit(std::size_t cls, Clock::time_point due);
  void take_completions(std::deque<Completion>& out);
  void check(const Completion& c);
  void build_references();
  CpuTimes job_path_cpu();

  Args args_;
  double setup_s_ = 0.0;

  // Inputs (partitioned once; shared read-only by every job).
  std::optional<dias::engine::Dataset<std::string>> low_rows_;
  std::optional<dias::engine::Dataset<std::string>> high_rows_;
  std::vector<dias::workload::Edge> edge_list_;
  std::optional<dias::engine::Dataset<dias::workload::Edge>> edges_;

  // References (not part of set-up time).
  std::optional<mixbench::WordCountOracle> low_oracle_;
  std::optional<mixbench::WordCountOracle> high_oracle_;
  std::vector<std::size_t> all_high_partitions_;
  dias::analytics::RankVector exact_ranks_;
  std::uint64_t exact_triangles_ = 0;

  // System under test. Declaration order is destruction order reversed:
  // the dispatcher (whose thread runs job bodies) goes first.
  std::unique_ptr<dias::obs::Tracer> tracer_;
  fs::path spill_dir_;
  std::unique_ptr<dias::storage::BlockStore> store_;
  std::unique_ptr<dias::storage::BlockStoreSpill> spill_;
  std::unique_ptr<dias::engine::Engine> engine_;
  std::unique_ptr<dias::runtime::SprintGovernor> governor_;
  std::unique_ptr<DiasDispatcher> dispatcher_;

  // Generator state (main thread only).
  std::vector<JobInfo> jobs_;
  // Check results: written by whichever thread runs check(), read by main
  // once the checker has finished.
  std::vector<std::string> failures_;
  std::size_t failed_jobs_ = 0;
  std::vector<double> low_accuracy_;
  std::vector<JobTrace> traces_;
  // The benchmark's own threads, during the timed window only.
  Checker* checker_ = nullptr;
  RssSampler* rss_ = nullptr;
  // Id of the first job of the timed window; warm-up jobs come before.
  std::size_t window_first_id_ = std::numeric_limits<std::size_t>::max();

  // Completions handed from the dispatcher thread to the generator.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Completion> done_;
};

Bench::Bench(const Args& args) : args_(args) {
  const std::uint64_t seed = args.seed;
  dias::engine::Engine::Options eo;
  eo.workers = args.baseline ? 1 : kBaseWorkers;
  eo.reserve_workers = args.baseline ? 0 : kReserveWorkers;
  eo.seed = seed * 7919 + 11;
  engine_ = std::make_unique<dias::engine::Engine>(eo);

  if (graph()) {
    dias::workload::GraphParams gp;
    gp.scale = kGraphScale;
    gp.edges = 8 * (std::size_t{1} << kGraphScale);
    gp.seed = seed * 7919 + 3;
    edge_list_ = dias::workload::generate_rmat_graph(gp);
    edges_.emplace(engine_->parallelize(edge_list_, kGraphPartitions));
  } else {
    dias::workload::TextCorpusParams low;
    low.posts = kLowPosts;
    low.vocabulary = kVocabulary;
    low.drift_segments = kDriftSegments;
    low.seed = seed * 7919 + 1;
    low_rows_.emplace(engine_->parallelize(
        dias::workload::generate_text_corpus("batch", low).rows, kLowPartitions));
    dias::workload::TextCorpusParams high;
    high.posts = kHighPosts;
    high.vocabulary = kVocabulary;
    high.seed = seed * 7919 + 2;
    high_rows_.emplace(engine_->parallelize(
        dias::workload::generate_text_corpus("interactive", high).rows, kHighPartitions));
  }

  if (spilling()) {
    spill_dir_ = (args.spill_root.empty() ? args.out_dir : args.spill_root) /
                 ("mixbench-spill-" + std::to_string(getpid()));
    dias::storage::BlockStoreOptions so;
    so.root = spill_dir_;
    store_ = std::make_unique<dias::storage::BlockStore>(so);
    spill_ = std::make_unique<dias::storage::BlockStoreSpill>(*store_, "spill");
  }

  if (!args.baseline) {
    dias::runtime::SprintGovernorConfig gc;
    gc.boost_workers = kReserveWorkers;
    // Tk: the low class never sprints, the high class from job start.
    gc.timeout_s = {std::numeric_limits<double>::infinity(), 0.0};
    governor_ = std::make_unique<dias::runtime::SprintGovernor>(gc, engine_->pool());
    dispatcher_ = std::make_unique<DiasDispatcher>(std::vector<double>{kThetaLow, 0.0});
    dispatcher_->attach_sprint_governor(governor_.get());
    if (args.trace) {
      tracer_ = std::make_unique<dias::obs::Tracer>();
      engine_->attach_observability(nullptr, tracer_.get());
      dispatcher_->attach_observability(nullptr, tracer_.get());
      governor_->attach_observability(nullptr, tracer_.get());
    }
  }
  setup_s_ = seconds(Clock::now() - kProcessStart);
  build_references();
}

Bench::~Bench() {
  dispatcher_.reset();
  governor_.reset();
  engine_.reset();
  spill_.reset();
  store_.reset();
  if (!spill_dir_.empty()) {
    std::error_code ec;
    fs::remove_all(spill_dir_, ec);
  }
}

void Bench::build_references() {
  if (graph()) {
    exact_triangles_ = dias::workload::exact_triangle_count(edge_list_);
    // Once, outside the timed window: an exact PageRank on the engine must
    // match the benchmark's own power iteration.
    dias::analytics::PageRankOptions po;
    po.iterations = kPageRankIterations;
    po.damping = kDamping;
    po.partitions = kGraphPartitions;
    exact_ranks_ = dias::analytics::page_rank(*engine_, *edges_, po).ranks;
    const double l1 = mixbench::relative_l1(
        mixbench::reference_page_rank(edge_list_, kPageRankIterations, kDamping), exact_ranks_);
    if (!(l1 <= 1e-9)) {
      failures_.push_back("exact PageRank differs from the power iteration by relative L1 " +
                          std::to_string(l1));
    }
  } else {
    low_oracle_.emplace(*low_rows_, kAccuracyTopK);
    high_oracle_.emplace(*high_rows_, kAccuracyTopK);
    for (std::size_t p = 0; p < kHighPartitions; ++p) all_high_partitions_.push_back(p);
  }
}

Completion Bench::run_job(std::size_t cls, double theta) {
  Completion c;
  c.cls = cls;
  dias::engine::Engine& eng = *engine_;
  const bool traced = args_.trace;
  std::uint64_t pool0 = 0;
  dias::engine::SpillStats spill0;
  dias::storage::IoStats io0;
  if (traced) {
    pool0 = eng.pool().tasks_executed();
    if (spill_) spill0 = spill_->stats();
    if (store_) io0 = store_->io_stats();
  }
  dias::obs::Tracer::SpanId span = 0;
  if (tracer_) span = tracer_->begin_span("bench.analytics", {{"class", std::uint64_t{cls}}});
  const auto t0 = Clock::now();
  if (graph()) {
    if (cls == kLow) {
      dias::analytics::PageRankOptions po;
      po.iterations = kPageRankIterations;
      po.damping = kDamping;
      po.stage_drop_ratio = theta;
      po.partitions = kGraphPartitions;
      c.ranks = dias::analytics::page_rank(eng, *edges_, po).ranks;
    } else {
      c.triangles = dias::analytics::triangle_count(eng, *edges_, theta).triangles;
    }
  } else {
    dias::engine::ShuffleOptions shuffle;
    if (cls == kLow && spill_) {
      shuffle.memory_budget_bytes = kSpillBudgetBytes;
      shuffle.spill = spill_.get();
    }
    c.words = dias::analytics::word_count(eng, cls == kLow ? *low_rows_ : *high_rows_,
                                          kReducePartitions, theta, shuffle);
  }
  const auto t1 = Clock::now();
  if (tracer_) tracer_->end_span(span);

  JobTrace& t = c.trace;
  for (const StageInfo& s : eng.stage_log()) {
    if (s.kind == EngineStageKind::kMap && s.name == "wordcount/map") {
      c.executed = s.executed_partition_ids;
    }
    if (s.kind == EngineStageKind::kShuffleWrite) {
      c.spill.segments_written += s.shuffle_spill_segments;
      c.spill.bytes_written += s.shuffle_spill_bytes;
    } else if (s.kind == EngineStageKind::kReduce) {
      c.spill.segments_read += s.shuffle_restored_segments;
      c.spill.bytes_read += s.shuffle_restored_bytes;
    }
    if (!traced) continue;
    ++t.stages;
    switch (s.kind) {
      case EngineStageKind::kMap:
      case EngineStageKind::kShuffleMap: t.map_s += s.duration_s; break;
      case EngineStageKind::kShuffleWrite:
        t.shuffle_write_s += s.duration_s;
        t.shuffle_records_in += s.shuffle_records_in;
        t.shuffle_records_out += s.shuffle_records_out;
        t.shuffle_bytes += s.shuffle_bytes;
        t.shuffle_flushes += s.shuffle_flushes;
        break;
      case EngineStageKind::kReduce:
        t.merge_s += s.duration_s;
        t.merge_skew_sum += s.shuffle_merge_skew;
        ++t.merges;
        break;
      case EngineStageKind::kResult: t.result_s += s.duration_s; break;
    }
    t.stage_s += s.duration_s;
    double longest = 0.0;
    for (const double task : s.task_times_s) longest = std::max(longest, task);
    t.gap_s += s.duration_s - longest;
    t.tasks_run += s.executed_partitions;
    t.tasks_dropped += s.total_partitions - s.executed_partitions;
  }
  if (traced) {
    t.analytics_s = seconds(t1 - t0);
    t.pool_tasks = eng.pool().tasks_executed() - pool0;
    if (spill_) {
      const auto s1 = spill_->stats();
      t.spill.segments_written = s1.segments_written - spill0.segments_written;
      t.spill.bytes_written = s1.bytes_written - spill0.bytes_written;
      t.spill.bytes_read = s1.bytes_read - spill0.bytes_read;
    }
    if (store_) {
      const auto s1 = store_->io_stats();
      t.io.blocks_written = s1.blocks_written - io0.blocks_written;
      t.io.bytes_read = s1.bytes_read - io0.bytes_read;
    }
  }
  return c;
}

// Process CPU less the benchmark's own helper threads: the checker runs
// in user space, the RSS sampler mostly in the kernel reading /proc. The
// dispatcher runs one job at a time, so the difference across a job body
// is that job's CPU on the engine, dispatcher and generator threads.
CpuTimes Bench::job_path_cpu() {
  CpuTimes t = process_cpu();
  if (checker_ != nullptr) t.user_s -= checker_->cpu_s();
  if (rss_ != nullptr) t.sys_s -= rss_->cpu_s();
  return t;
}

void Bench::body(std::size_t id, std::size_t cls, double theta) {
  dias::obs::Tracer::SpanId span = 0;
  if (tracer_) span = tracer_->begin_span("bench.job", {{"id", std::uint64_t{id}}});
  Completion c;
  const CpuTimes cpu0 = job_path_cpu();
  try {
    c = run_job(cls, theta);
  } catch (const std::exception& e) {
    c.error = e.what();
  }
  const CpuTimes cpu1 = job_path_cpu();
  c.cpu = {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
  c.id = id;
  c.cls = cls;
  if (tracer_) tracer_->end_span(span);
  c.done = Clock::now();
  const bool threw = !c.error.empty();
  const std::string error = c.error;
  {
    std::lock_guard lock(mu_);
    done_.push_back(std::move(c));
  }
  cv_.notify_one();
  // The dispatcher records the job as failed.
  if (threw) throw std::runtime_error(error);
}

void Bench::submit(std::size_t cls, Clock::time_point due) {
  const std::size_t id = jobs_.size();
  JobInfo job;
  job.cls = cls;
  job.due = due;
  jobs_.push_back(job);
  dias::obs::Tracer::SpanId span = 0;
  if (tracer_) span = tracer_->begin_span("bench.submit", {{"id", std::uint64_t{id}}});
  const auto t0 = Clock::now();
  dispatcher_->submit(cls, DiasDispatcher::ContextJobFn(
                               [this, id, cls](const DiasDispatcher::JobContext& ctx) {
                                 body(id, cls, ctx.theta);
                               }));
  jobs_[id].submit_s = seconds(Clock::now() - t0);
  if (tracer_) tracer_->end_span(span);
}

void Bench::take_completions(std::deque<Completion>& out) {
  std::lock_guard lock(mu_);
  while (!done_.empty()) {
    out.push_back(std::move(done_.front()));
    done_.pop_front();
  }
}

void Bench::check(const Completion& c) {
  std::string why;
  if (!c.error.empty()) {
    if (c.id >= window_first_id_) ++failed_jobs_;
    failures_.push_back("job " + std::to_string(c.id) + " failed: " + c.error);
  } else if (graph()) {
    if (c.cls == kLow) {
      why = mixbench::check_rank_bounds(c.ranks, kDamping);
      if (why.empty()) {
        low_accuracy_.push_back(dias::analytics::rank_error_percent(exact_ranks_, c.ranks));
      }
    } else {
      why = mixbench::check_triangles(c.triangles, exact_triangles_);
    }
  } else if (c.cls == kLow) {
    why = low_oracle_->check(c.words.counts, c.executed, kThetaLow);
    if (why.empty() && spilling()) why = mixbench::check_spilled(c.spill);
    if (why.empty()) {
      low_accuracy_.push_back(dias::analytics::word_count_error(
          low_oracle_->top_words(), c.words.rescaled_counts(), kAccuracyTopK));
    }
  } else {
    why = high_oracle_->check(c.words.counts, all_high_partitions_, 0.0);
  }
  if (!why.empty()) {
    failures_.push_back(std::string(c.cls == kLow ? "low" : "high") + " job " +
                        std::to_string(c.id) + ": " + why);
  }
  if (args_.trace && c.id >= window_first_id_) traces_.push_back(c.trace);
}

int Bench::run() {
  // Warm-up, outside the window: one job of each class through the full
  // path, so lazy allocation and first-touch costs are paid here.
  submit(kLow, Clock::now());
  submit(kHigh, Clock::now());
  dispatcher_->drain();
  {
    std::deque<Completion> warm;
    take_completions(warm);
    for (const auto& c : warm) {
      jobs_[c.id].completed = true;
      check(c);
    }
  }
  const double probe_s = host_probe_s();
  if (tracer_) tracer_->clear();

  // High-class arrivals: a Poisson process conditioned on its count, i.e.
  // round(rate * seconds) arrival times drawn uniformly over the window.
  dias::Rng rng(args_.seed * 7919 + 5);
  const auto n_high = static_cast<std::size_t>(std::llround(kHighRatePerS * args_.seconds));
  std::vector<double> offsets(n_high);
  for (double& o : offsets) o = rng.uniform() * args_.seconds;
  std::sort(offsets.begin(), offsets.end());

  window_first_id_ = jobs_.size();
  Checker checker([this](const Completion& c) { check(c); });
  RssSampler rss;
  checker_ = &checker;
  rss_ = &rss;
  const double steal0 = steal_s();
  const CpuTimes cpu0 = job_path_cpu();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(args_.seconds));
  std::vector<Clock::time_point> due(n_high);
  for (std::size_t i = 0; i < n_high; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offsets[i]));
  }
  for (std::size_t i = 0; i < kLowBacklog; ++i) submit(kLow, start);

  std::vector<double> lateness;
  std::size_t next_high = 0;
  std::deque<Completion> batch;
  const auto collect = [&](bool in_window) {
    take_completions(batch);
    for (auto& c : batch) {
      jobs_[c.id].done = c.done;
      jobs_[c.id].cpu = c.cpu;
      jobs_[c.id].completed = true;
      // Closed loop: a low job completing inside the window is replaced.
      if (in_window && c.cls == kLow && Clock::now() < end) submit(kLow, Clock::now());
      checker.push(std::move(c));
    }
    batch.clear();
  };
  for (;;) {
    auto now = Clock::now();
    while (next_high < n_high && due[next_high] <= now) {
      lateness.push_back(seconds(now - due[next_high]));
      submit(kHigh, due[next_high]);
      ++next_high;
      now = Clock::now();
    }
    collect(true);
    if (next_high == n_high && now >= end) break;
    std::unique_lock lock(mu_);
    cv_.wait_until(lock, next_high < n_high ? due[next_high] : end,
                   [this] { return !done_.empty(); });
  }
  const auto records = dispatcher_->drain();
  const CpuTimes cpu1 = job_path_cpu();
  checker_ = nullptr;
  rss_ = nullptr;
  rss.stop();
  const double cpu_s = cpu1.user_s - cpu0.user_s + cpu1.sys_s - cpu0.sys_s;
  const double rss_mb = rss.peak_mb();
  const double steal = steal_s() - steal0;
  collect(false);
  const std::size_t max_check_backlog = checker.max_depth();
  checker.finish();

  // ---- end-to-end figures ----
  std::vector<double> high_resp;
  std::vector<double> low_done;
  std::size_t window_jobs = 0;
  CpuTimes class_cpu[2];
  std::size_t class_jobs[2] = {0, 0};
  std::vector<double> class_user_cpu[2];
  for (std::size_t id = window_first_id_; id < jobs_.size(); ++id) {
    const JobInfo& job = jobs_[id];
    ++window_jobs;
    if (!job.completed) continue;
    class_cpu[job.cls].user_s += job.cpu.user_s;
    class_cpu[job.cls].sys_s += job.cpu.sys_s;
    ++class_jobs[job.cls];
    class_user_cpu[job.cls].push_back(job.cpu.user_s);
    if (job.cls == kHigh) {
      high_resp.push_back(seconds(job.done - job.due));
    } else if (job.done <= end) {
      low_done.push_back(seconds(job.done - start));
    }
  }
  std::sort(low_done.begin(), low_done.end());
  // Completions per second between the first and the last low-class
  // completion in the window: no partial job at either edge.
  const double low_rate =
      low_done.size() >= 2 ? static_cast<double>(low_done.size() - 1) /
                                 (low_done.back() - low_done.front())
                           : 0.0;
  if (low_done.size() < 2) failures_.push_back("fewer than two low-class jobs completed");
  const double high_p50 = quantile(high_resp, 0.5);

  std::vector<Metric> metrics;
  const auto add = [&metrics](std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };
  if (!args_.trace) {
    add("setup_s", setup_s_, "s");
    add("high_resp_p50_s", high_p50, "s");
    add("high_resp_p90_s", quantile(high_resp, 0.9), "s");
    add("low_jobs_per_s", low_rate, "jobs/s");
    add("cpu_s_per_job", cpu_s / static_cast<double>(window_jobs), "s");
    for (const std::size_t cls : {kLow, kHigh}) {
      const std::string name = cls == kLow ? "low" : "high";
      const auto n = static_cast<double>(std::max<std::size_t>(1, class_jobs[cls]));
      add(name + "_cpu_s_per_job", (class_cpu[cls].user_s + class_cpu[cls].sys_s) / n, "s");
      // The median job: a burst of host steal inflates the CPU charged to
      // the few jobs it overlaps, which moves the mean but not the median.
      add(name + "_job_cpu_user_p50_s", quantile(class_user_cpu[cls], 0.5), "s");
    }
    add("peak_rss_mb", rss_mb, "MB");
    add("low_accuracy_loss_pct", mean(low_accuracy_), "%");
  } else {
    // ---- per-layer figures, over every job of the window ----
    std::vector<double> queue_high;
    std::vector<double> handoff;
    std::vector<double> sprint_delay;
    double sprint_s = 0.0;
    std::size_t high_jobs = 0;
    std::vector<const DiasDispatcher::JobRecord*> by_start;
    for (const auto& r : records) by_start.push_back(&r);
    std::sort(by_start.begin(), by_start.end(),
              [](const auto* a, const auto* b) { return a->start_s < b->start_s; });
    for (std::size_t i = 0; i < by_start.size(); ++i) {
      const auto& r = *by_start[i];
      if (r.priority == kHigh) {
        ++high_jobs;
        queue_high.push_back(r.queueing_s());
        sprint_s += r.sprint_s();
        if (!r.sprint_intervals.empty()) {
          sprint_delay.push_back(r.sprint_intervals.front().begin_s - r.start_s);
        }
      }
      // Hand-off: the previous job's completion to this job's start, when
      // this job was already queued (otherwise the gap is idle time).
      if (i > 0 && r.arrival_s <= by_start[i - 1]->completion_s) {
        handoff.push_back(r.start_s - by_start[i - 1]->completion_s);
      }
    }
    std::vector<double> submit_s;
    for (std::size_t id = window_first_id_; id < jobs_.size(); ++id) {
      submit_s.push_back(jobs_[id].submit_s);
    }
    JobTrace sum;
    double analytics_self_s = 0.0;
    for (const JobTrace& t : traces_) {
      sum.stages += t.stages;
      sum.map_s += t.map_s;
      sum.shuffle_write_s += t.shuffle_write_s;
      sum.merge_s += t.merge_s;
      sum.result_s += t.result_s;
      sum.gap_s += t.gap_s;
      sum.tasks_run += t.tasks_run;
      sum.tasks_dropped += t.tasks_dropped;
      sum.shuffle_records_in += t.shuffle_records_in;
      sum.shuffle_records_out += t.shuffle_records_out;
      sum.shuffle_bytes += t.shuffle_bytes;
      sum.shuffle_flushes += t.shuffle_flushes;
      sum.merge_skew_sum += t.merge_skew_sum;
      sum.merges += t.merges;
      sum.pool_tasks += t.pool_tasks;
      sum.spill.segments_written += t.spill.segments_written;
      sum.spill.bytes_written += t.spill.bytes_written;
      sum.spill.bytes_read += t.spill.bytes_read;
      sum.io.blocks_written += t.io.blocks_written;
      sum.io.bytes_read += t.io.bytes_read;
      analytics_self_s += t.analytics_s - t.stage_s;
    }
    const double n = std::max<double>(1.0, static_cast<double>(traces_.size()));
    const auto per_job = [n](double x) { return x / n; };
    const auto per_job_n = [n](std::size_t x) { return static_cast<double>(x) / n; };
    add("dispatcher.queue_p50_s.high", quantile(queue_high, 0.5), "s");
    add("dispatcher.handoff_p50_s", quantile(handoff, 0.5), "s");
    add("dispatcher.submit_p50_s", quantile(submit_s, 0.5), "s");
    add("runtime.sprint_delay_p50_s", quantile(sprint_delay, 0.5), "s");
    add("runtime.sprint_s_per_high_job",
                sprint_s / std::max<double>(1.0, static_cast<double>(high_jobs)), "s");
    add("engine.stages_per_job", per_job_n(sum.stages), "count");
    add("engine.map_s_per_job", per_job(sum.map_s), "s");
    add("engine.shuffle_write_s_per_job", per_job(sum.shuffle_write_s), "s");
    add("engine.merge_s_per_job", per_job(sum.merge_s), "s");
    add("engine.result_s_per_job", per_job(sum.result_s), "s");
    add("engine.stage_gap_s_per_job", per_job(sum.gap_s), "s");
    add("engine.tasks_run_per_job", per_job_n(sum.tasks_run), "count");
    add("engine.tasks_dropped_per_job", per_job_n(sum.tasks_dropped), "count");
    add("pool.tasks_executed_per_job", per_job_n(sum.pool_tasks), "count");
    add("shuffle.records_in_per_job", per_job_n(sum.shuffle_records_in), "count");
    add("shuffle.records_out_per_job", per_job_n(sum.shuffle_records_out), "count");
    add("shuffle.bytes_per_job", per_job_n(sum.shuffle_bytes), "bytes");
    add("shuffle.flushes_per_job", per_job_n(sum.shuffle_flushes), "count");
    add("shuffle.merge_skew",
                sum.merges == 0 ? 0.0 : sum.merge_skew_sum / static_cast<double>(sum.merges),
                "ratio");
    add("spill.segments_per_job", per_job_n(sum.spill.segments_written), "count");
    add("spill.bytes_written_per_job", per_job_n(sum.spill.bytes_written), "bytes");
    add("spill.bytes_read_per_job", per_job_n(sum.spill.bytes_read), "bytes");
    add("storage.blocks_written_per_job", per_job_n(sum.io.blocks_written), "count");
    add("storage.bytes_read_per_job", per_job_n(sum.io.bytes_read), "bytes");
    add("analytics.self_s_per_job", per_job(analytics_self_s), "s");
    // End-to-end figures of the traced run, to compare with an untraced
    // run of the same seed: the difference is the tracing overhead.
    add("traced.low_jobs_per_s", low_rate, "jobs/s");
    add("traced.high_resp_p50_s", high_p50, "s");

    std::error_code ec;
    fs::create_directories(args_.out_dir, ec);
    const fs::path trace_path = args_.out_dir / ("trace-" + args_.workload + ".jsonl");
    std::ofstream out(trace_path);
    tracer_->write_jsonl(out);
    std::cerr << "trace written to " << trace_path.string() << "\n";
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  dias::obs::JsonWriter health;
  health.begin_object();
  health.field("workload", args_.workload);
  health.field("seed", std::uint64_t{args_.seed});
  health.field("nproc", std::int64_t{nproc});
  health.field("engine_threads", std::uint64_t{kBaseWorkers + kReserveWorkers});
  health.field("build_type", MIXBENCH_BUILD_TYPE);
  health.field("source", args_.source_id);
  health.field("host_probe_s", probe_s);
  health.field("steal_s", steal);
  health.field("generator_lateness_p50_s", quantile(lateness, 0.5));
  health.field("generator_worst_lateness_s", quantile(lateness, 1.0));
  health.field("check_backlog_max", std::uint64_t{max_check_backlog});
  health.field("high_jobs", std::uint64_t{high_resp.size()});
  health.field("low_jobs_in_window", std::uint64_t{low_done.size()});
  health.field("low_jobs_per_s", low_rate);
  health.field("high_resp_p90_s", quantile(high_resp, 0.9));
  health.field("spill_root", spill_dir_.empty() ? std::string("none") : spill_dir_.string());
  health.end_object();
  std::cout << "health " << health.str() << "\n";

  for (const auto& f : failures_) std::cerr << "CHECK FAILED: " << f << "\n";
  std::cout << result_json(failures_.empty(), window_jobs, failed_jobs_, metrics) << std::endl;
  return 0;
}

int Bench::run_baseline() {
  // Each job type back to back for half the window on one worker.
  std::vector<Metric> metrics;
  window_first_id_ = 0;
  std::size_t baseline_jobs = 0;
  for (const std::size_t cls : {kLow, kHigh}) {
    const double theta = cls == kLow ? kThetaLow : 0.0;
    std::vector<double> times;
    const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(args_.seconds / 2));
    while (Clock::now() < stop || times.empty()) {
      const auto t0 = Clock::now();
      Completion c = run_job(cls, theta);
      times.push_back(seconds(Clock::now() - t0));
      c.id = times.size();
      check(c);
    }
    const std::string name = cls == kLow ? "low" : "high";
    metrics.push_back({name + "_job_p50_s", quantile(times, 0.5), "s"});
    metrics.push_back({name + "_jobs", static_cast<double>(times.size()), "count"});
    baseline_jobs += times.size();
  }
  for (const auto& f : failures_) std::cerr << "CHECK FAILED: " << f << "\n";
  std::cout << result_json(failures_.empty(), baseline_jobs, failed_jobs_, metrics) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mixbench: " << e.what() << "\n";
    return 2;
  }
  try {
    Bench bench(args);
    return args.baseline ? bench.run_baseline() : bench.run();
  } catch (const std::exception& e) {
    std::cerr << "mixbench: " << e.what() << "\n";
    return 1;
  }
}

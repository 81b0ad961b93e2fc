// Serving benchmark for the rigpm query daemon.
//
// One process starts the daemon in-process (EngineCatalog over a snapshot
// file + QueryServer on a Unix socket, 2 workers), drives one workload at
// it from client threads, checks every answer against an independently
// loaded engine, and prints every metric by name with its unit and sample
// count. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run, --trace 1).
//
// Layers are measured from outside the daemon. A traced run serves one
// untraced window and then one traced window of the same length. In the
// traced window each client also times its own calls into the public
// functions of every layer the daemon runs for that request (ParsePattern,
// CanonicalEncoding, ResultCache::Lookup on a standalone mirror cache,
// QueryResponse::Serialize/Deserialize), and the churn writer re-executes
// the refresh and compaction steps (CollectDeltaOps + ApplyDeltaOps,
// GmEngine construction, SaveEngineSnapshot) on its own copy of the graph.
// Engine phase times come from the phase_timings of answers that were
// computed, never of cache hits. The throughput gap between the two
// windows is the tracing overhead.
//
// Usage (normally through perfbench/run.py, which builds this binary):
//   perfbench_serve --workload cold_sim --seed 1 --seconds 10 --trace 0
//                   --run-dir DIR [--trace-out FILE]
// The binary chdirs into DIR, an empty directory, and writes every file
// other than the trace there.

#include <malloc.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util/datasets.h"
#include "engine/gm_engine.h"
#include "query/pattern_parser.h"
#include "query/query_templates.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "storage/delta_log.h"
#include "storage/snapshot.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace rigpm;
namespace srv = rigpm::server;

namespace {

// ------------------------------------------------------------ constants

constexpr uint64_t kLimit = 100000;    // enumeration cap of every request
constexpr uint32_t kDaemonWorkers = 2;
/// The daemon and the load generator share the first this many CPUs the
/// process may run on, from the first setup to the end of the window. On a
/// shared 4-vCPU host, unpinned, where the scheduler happens to place the
/// client and daemon threads moves the churn readers' throughput by a
/// quarter from one run to the next.
constexpr int kServeCpus = 2;
constexpr uint32_t kConnections = 2;   // churn's closed-loop readers
constexpr int kSetupRepeats = 61;      // setups per run; the median counts
/// Load runs this long before the measured window and is not booked: the
/// first second of a window otherwise answers up to half as many requests
/// as the rest. Churn warms up longer (kChurnWarmupMs), with its writes: its
/// readers' throughput climbs by a quarter over the first write rounds.
constexpr double kWarmupMs = 1000.0;
constexpr double kChurnWarmupMs = 5000.0;
constexpr int kWarmupWindow = -1;  // LoadContext::WindowAt during warm-up
/// The traced parts of a request may exceed its round trip by this share
/// before the accounting check fails the run.
constexpr double kAccountingTolerance = 0.05;
/// Churn's query_p50_ms and query_p99_ms are medians of per-second
/// percentiles when each second they draw on holds at least this many
/// answers (ten beyond each p99), and whole-window percentiles otherwise. At
/// ~35k answers a second the p99 of a single second swings by 3x with
/// scheduling hiccups; their median does not.
constexpr uint64_t kMinSliceAnswers = 1000;
/// A cold workload serves a fixed set of this many distinct keys in passes
/// on one closed-loop connection, each pass on a freshly started daemon, so
/// every request misses the cache and every pass does the same work. (On a
/// shared 4-vCPU host two concurrent engine evaluations swing throughput by
/// a quarter from one run to the next with identical keys.) Each key's
/// latency is then its fastest answer in the window (ReportEndToEnd). An
/// ever-new key stream instead made each second's work depend on which
/// queries it drew, and a whole run's figures on which stretch of the
/// host's load it met: cold_enum's throughput spread by a quarter between
/// runs of the same code. A pass takes 1.5 to 3 s on a shared 4-vCPU host.
constexpr size_t kColdKeys = 150;
constexpr uint64_t kDatasetSeed = 7;  // generator seed of every graph
const char* const kTenant = "g";
const char* const kSocket = "serve.sock";
const char* const kSnapshot = "base.snap";
const char* const kDelta = "base.delta";

// Churn writer schedule.
constexpr double kRoundPeriodMs = 1000.0;
constexpr size_t kAddsPerRound = 64;
constexpr size_t kDeleteLagRounds = 2;  // round r deletes round r-2's adds
constexpr size_t kCompactEvery = 4;

constexpr std::array<const char*, 6> kPhaseNames = {
    "Reduce", "Prefilter", "Simulate", "BuildRig", "Order", "Enumerate"};
using PhaseArray = std::array<double, kPhaseNames.size()>;

// ------------------------------------------------------------- utilities

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - epoch).count();
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return SplitMix(SplitMix(seed) ^ salt);
}

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

constexpr double kMiB = 1024.0 * 1024.0;

// Memory the process holds: heap bytes in use (every malloc arena plus
// mmapped chunks) and resident file-backed pages (the snapshot mapping).
// Unlike the resident set, this does not depend on how the allocator's
// free pages happen to be fragmented when the window ends: on churn the
// resident set varies by a fifth from run to run while the heap in use
// repeats to a tenth of a megabyte. The resident set is printed beside it.
struct Memory {
  double held_mb = 0.0;
  double rss_mb = 0.0;
};

Memory MeasureMemory(bool trim) {
  if (trim) ::malloc_trim(0);
  const struct mallinfo2 mi = ::mallinfo2();
  Memory m;
  m.held_mb = static_cast<double>(mi.uordblks + mi.hblkhd) / kMiB;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return m;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      m.rss_mb = std::strtol(line + 6, nullptr, 10) / 1024.0;
    } else if (std::strncmp(line, "RssFile:", 8) == 0) {
      m.held_mb += std::strtol(line + 8, nullptr, 10) / 1024.0;
    }
  }
  std::fclose(f);
  return m;
}

/// Share of all CPU time the hypervisor stole between two readings of
/// /proc/stat (0 when unavailable). Printed with every run: a window that
/// lost a fifth of its CPU to a neighbour reads several times slower at the
/// tail, and the number says so.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealShare(const CpuTimes& from, const CpuTimes& to) {
  const uint64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) / total : 0.0;
}

/// Latency histogram with 128 linear sub-buckets per power of two of
/// nanoseconds (under 0.8% relative bucket width). Fixed memory, so the
/// load generator's footprint does not grow with throughput, and
/// percentiles interpolate inside their bucket.
class Histogram {
 public:
  void Add(double ms) {
    const double ns = std::clamp(ms * 1e6, 0.0, static_cast<double>(kMaxNs));
    ++counts_[Index(static_cast<uint64_t>(ns))];
    ++total_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  uint64_t count() const { return total_; }

  double PercentileMs(double p) const {
    if (total_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(total_ - 1);
    uint64_t below = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (rank < static_cast<double>(below + counts_[i])) {
        const double frac =
            (rank - static_cast<double>(below) + 0.5) / counts_[i];
        const double lo = static_cast<double>(Lower(i));
        const double hi = static_cast<double>(Lower(i + 1));
        return (lo + (hi - lo) * frac) / 1e6;
      }
      below += counts_[i];
    }
    return static_cast<double>(kMaxNs) / 1e6;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = 1ull << kSubBits;
  static constexpr int kMaxBits = 36;  // ~68 seconds
  static constexpr uint64_t kMaxNs = (1ull << kMaxBits) - 1;

  static size_t Index(uint64_t ns) {
    if (ns < kSub) return static_cast<size_t>(ns);
    const int shift = (63 - __builtin_clzll(ns)) - kSubBits;
    return static_cast<size_t>((shift + 1) * kSub + (ns >> shift) - kSub);
  }
  static uint64_t Lower(size_t index) {
    if (index < kSub) return index;
    const int shift = static_cast<int>(index / kSub) - 1;
    return (index % kSub + kSub) << shift;
  }

  std::vector<uint64_t> counts_ =
      std::vector<uint64_t>((kMaxBits - kSubBits + 1) * kSub);
  uint64_t total_ = 0;
};

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

// ------------------------------------------------------------- tracing

/// One timed call of the benchmark into a layer's public function. Spans of
/// one request share `request`; `parent` names the span that caused it.
struct Span {
  uint64_t request = 0;
  const char* name = "";
  const char* parent = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Total duration and count of every span with one name.
struct SpanStat {
  const char* name = "";
  int64_t total_ns = 0;
  uint64_t count = 0;
};

/// Per-thread in-memory span buffer, merged and written out at the end. It
/// keeps the first kMaxSpansPerThread spans whole and every span in the
/// per-name totals the per-layer metrics are computed from.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  template <typename Fn>
  auto Time(uint64_t request, const char* name, const char* parent, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Close(request, name, parent, t0);
    } else {
      auto out = fn();
      Close(request, name, parent, t0);
      return out;
    }
  }

  void Close(uint64_t request, const char* name, const char* parent,
             Clock::time_point t0) {
    const Span span{request, name, parent, Ns(t0), Ns(Clock::now())};
    SpanStat* stat = nullptr;
    for (SpanStat& st : stats_) {
      if (std::strcmp(st.name, name) == 0) stat = &st;
    }
    if (stat == nullptr) stat = &stats_.emplace_back(SpanStat{name, 0, 0});
    stat->total_ns += span.end_ns - span.start_ns;
    ++stat->count;
    if (spans_.size() < kMaxSpansPerThread) spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<SpanStat>& stats() const { return stats_; }

 private:
  static constexpr size_t kMaxSpansPerThread = 20000;

  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<SpanStat> stats_;
};

/// Mean duration of the spans called `name`, in units of `ns_per_unit`.
struct SpanMean {
  double mean = 0.0;
  uint64_t count = 0;
};

SpanMean MeanOf(const std::vector<SpanStat>& stats, const char* name,
                double ns_per_unit) {
  SpanMean m;
  int64_t total = 0;
  for (const SpanStat& st : stats) {
    if (std::strcmp(st.name, name) != 0) continue;
    total += st.total_ns;
    m.count += st.count;
  }
  if (m.count > 0) {
    m.mean = static_cast<double>(total) / ns_per_unit /
             static_cast<double>(m.count);
  }
  return m;
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  for (const Span& sp : spans) {
    std::fprintf(f,
                 "{\"request\": %llu, \"span\": \"%s\", \"parent\": \"%s\", "
                 "\"start_us\": %.3f, \"dur_us\": %.3f}\n",
                 static_cast<unsigned long long>(sp.request), sp.name,
                 sp.parent, sp.start_ns / 1e3,
                 (sp.end_ns - sp.start_ns) / 1e3);
  }
  std::fclose(f);
}

// ------------------------------------------------------------ workloads

struct WorkloadSpec {
  std::string name;
  std::string dataset;  // DatasetRegistry() shape
  double scale = 0.1;
  size_t num_keys = kColdKeys;  // distinct query texts
  bool churn = false;
  bool cold = false;  // served in passes, every request a cache miss
  double warmup_ms = kWarmupMs;
  /// HQ templates the queries instantiate (empty = all twenty).
  std::vector<std::string> templates;
};

std::optional<WorkloadSpec> SpecFor(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "cold_sim") {
    // ep-shaped (power-law, 20 labels), ~7.6k nodes / 51k edges.
    w.dataset = "ep";
    w.scale = 0.1;
    w.cold = true;
  } else if (name == "cold_enum") {
    // bs-shaped (web, 5 labels), ~1k nodes / 11k edges: half the size the
    // workload was first sketched at. HQ9, HQ10, HQ12, HQ13, HQ14, HQ17 and
    // HQ18 are left out: on this shape a few of their instances scan
    // millions of candidates (up to 2 s each), so one of them would be
    // most of a pass.
    w.dataset = "bs";
    w.scale = 0.0015;
    w.cold = true;
    w.templates = {"HQ0", "HQ1", "HQ2", "HQ3",  "HQ4",  "HQ5", "HQ6",
                   "HQ7", "HQ8", "HQ11", "HQ15", "HQ16", "HQ19"};
  } else if (name == "churn") {
    // ep-shaped at ~38k nodes / 254k edges, served from snapshot + delta
    // log. The 8 keys instantiate the four cheapest templates on this
    // shape (11 to 60 ms cold), so the misses each refresh causes stay a
    // small share of the readers' time.
    w.dataset = "ep";
    w.scale = 0.5;
    w.num_keys = 8;
    w.churn = true;
    w.warmup_ms = kChurnWarmupMs;
    w.templates = {"HQ6", "HQ8", "HQ11", "HQ19"};
  } else {
    return std::nullopt;
  }
  return w;
}

// Distinct hybrid instantiations of the given HQ templates: round-robin
// over the templates, node labels drawn from the more frequent half of the
// graph's alphabet (at least three labels), deduplicated by the canonical
// encoding the daemon's cache keys on.
std::vector<std::string> DistinctQueries(const Graph& g,
                                         const std::vector<std::string>& names,
                                         size_t count, uint64_t seed) {
  std::vector<const QueryTemplate*> templates;
  for (const QueryTemplate& t : HQueryTemplates()) {
    if (names.empty() ||
        std::find(names.begin(), names.end(), t.name) != names.end()) {
      templates.push_back(&t);
    }
  }
  std::vector<LabelId> labels(g.NumLabels());
  for (LabelId a = 0; a < g.NumLabels(); ++a) labels[a] = a;
  std::sort(labels.begin(), labels.end(), [&](LabelId a, LabelId b) {
    return g.LabelCount(a) != g.LabelCount(b)
               ? g.LabelCount(a) > g.LabelCount(b)
               : a < b;
  });
  const size_t pool = std::min<size_t>(
      labels.size(), std::max<size_t>(3, labels.size() / 2));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> pick(0, pool - 1);
  std::set<std::string> seen;
  std::vector<std::string> out;
  out.reserve(count);
  size_t stale = 0;  // consecutive duplicate draws
  for (size_t i = 0; out.size() < count && stale < 10000; ++i) {
    const QueryTemplate& tpl = *templates[i % templates.size()];
    std::vector<LabelId> node_labels(tpl.num_nodes);
    for (LabelId& l : node_labels) l = labels[pick(rng)];
    std::vector<QueryEdge> edges;
    for (size_t e = 0; e < tpl.edges.size(); ++e) {
      edges.push_back({tpl.edges[e].first, tpl.edges[e].second,
                       tpl.hybrid_kinds[e]});
    }
    PatternQuery q =
        PatternQuery::FromParts(std::move(node_labels), std::move(edges));
    const std::vector<uint8_t> enc = q.CanonicalEncoding();
    if (!seen.emplace(enc.begin(), enc.end()).second) {
      ++stale;
      continue;
    }
    stale = 0;
    out.push_back(PatternToString(q));
  }
  return out;
}

// The result-cache key the daemon builds for a one-pattern request
// (QueryServer::HandleQuery): canonical bytes plus the result options.
std::string CacheKey(const std::vector<uint8_t>& encoding) {
  ByteSink kb;
  kb.WriteU8('P');
  kb.WriteU64(encoding.size());
  kb.WriteRaw(encoding.data(), encoding.size());
  kb.WriteU64(kLimit);
  kb.WriteU8(1);
  kb.WriteU8(1);
  kb.WriteU8(1);
  kb.WriteU32(0);
  return std::string(reinterpret_cast<const char*>(kb.data().data()),
                     kb.size());
}

srv::QueryRequest MakeRequest(const std::string& text, uint64_t limit) {
  srv::QueryRequest req;
  req.patterns = {text};
  req.limit = limit;
  return req;
}

// ---------------------------------------------------------------- daemon

struct Daemon {
  std::shared_ptr<srv::EngineCatalog> catalog;
  std::unique_ptr<srv::QueryServer> server;

  ~Daemon() {
    if (server != nullptr) server->Stop();
  }
};

srv::EngineSource SourceFor(bool with_delta) {
  srv::EngineSource source;
  source.snapshot_path = kSnapshot;
  if (with_delta) source.delta_path = kDelta;
  source.io_mode = SnapshotIoMode::kMmap;
  source.delta_io = SnapshotIoMode::kRead;
  return source;
}

// Registers a fresh catalog, then times QueryServer::Start to the first OK
// answer of `probe` (the lazy snapshot open happens inside that window).
std::unique_ptr<Daemon> StartDaemon(bool with_delta, const std::string& probe,
                                    double* setup_s, std::string* error) {
  auto d = std::make_unique<Daemon>();
  d->catalog = std::make_shared<srv::EngineCatalog>();
  if (!d->catalog->Register(kTenant, SourceFor(with_delta), error)) {
    return nullptr;
  }
  srv::ServerConfig config;
  config.unix_path = kSocket;
  config.num_workers = kDaemonWorkers;
  config.maintenance_interval_ms = 0;
  d->server = std::make_unique<srv::QueryServer>(d->catalog, config);
  const Clock::time_point t0 = Clock::now();
  if (!d->server->Start(error)) return nullptr;
  srv::QueryClient client;
  if (!client.ConnectUnix(kSocket, error)) return nullptr;
  auto resp = client.Query(MakeRequest(probe, 1), error);
  if (!resp.has_value() || resp->status != srv::StatusCode::kOk) {
    if (resp.has_value()) *error = "setup probe failed: " + resp->error;
    return nullptr;
  }
  *setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return d;
}

// -------------------------------------------------------- load generation

/// Shared inputs of the client threads. A run has an untimed warm-up
/// (negative times), a measured window and, when traced, a traced window of
/// the same length right after it.
struct LoadContext {
  Clock::time_point epoch;  // start of the measured window
  double warmup_ms = 0.0;
  double measured_end_ms = 0.0;  // end of the measured window
  double end_ms = 0.0;           // end of the last window
  bool traced_run = false;
  const std::vector<std::string>* texts = nullptr;
  srv::ResultCache* mirror = nullptr;  // standalone cache (traced window)
  std::atomic<uint64_t>* next_request = nullptr;
  /// Odd while the churn writer is inside a refresh or compaction window;
  /// bumped at each window's start and end.
  std::atomic<uint64_t>* write_epoch = nullptr;

  double NowMs() const { return MsSince(epoch, Clock::now()); }
  int WindowAt(double ms) const {
    if (ms < 0.0) return kWarmupWindow;
    return traced_run && ms >= measured_end_ms ? 1 : 0;
  }
  double WindowEnd(int window) const {
    return window == 0 ? measured_end_ms : end_ms;
  }
};

/// The first sighting of one engine evaluation: a cache hit repeats the
/// phase timings of the compute it reuses byte for byte, so an answer whose
/// (key, timings) pair was seen before is a hit and counts no engine time.
struct Compute {
  PhaseArray phases{};
  double start_ms = 0.0;
  double latency_ms = 0.0;
  int window = 0;
};
using ComputeKey = std::pair<uint32_t, uint64_t>;  // key, timings digest

/// What one client thread observed; merged across threads at the end.
struct ClientLog {
  Histogram latency[2];        // by window
  std::vector<Histogram> seconds;  // measured window, by second of start
  std::vector<uint64_t> completed_by_second;  // measured window, by end
  uint64_t completed[2] = {};  // answered before their window ended
  double rtt_ms[2] = {};       // summed round trips, by window
  uint64_t answered[2] = {};
  Histogram stall;  // measured window: reads overlapping a write window
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Distinct (key, count, hit_limit) answers, checked against the oracle
  /// (not kept for churn, whose answers legitimately change per refresh).
  std::set<std::tuple<uint32_t, uint64_t, bool>> answers;
  std::map<ComputeKey, Compute> computes;
  std::map<uint32_t, double> key_ms;  // round trip by key (cold passes)

  void MergeFrom(const ClientLog& l) {
    for (int w = 0; w < 2; ++w) {
      latency[w].Merge(l.latency[w]);
      completed[w] += l.completed[w];
      rtt_ms[w] += l.rtt_ms[w];
      answered[w] += l.answered[w];
    }
    stall.Merge(l.stall);
    if (seconds.size() < l.seconds.size()) seconds.resize(l.seconds.size());
    for (size_t i = 0; i < l.seconds.size(); ++i) {
      seconds[i].Merge(l.seconds[i]);
    }
    if (completed_by_second.size() < l.completed_by_second.size()) {
      completed_by_second.resize(l.completed_by_second.size());
    }
    for (size_t i = 0; i < l.completed_by_second.size(); ++i) {
      completed_by_second[i] += l.completed_by_second[i];
    }
    attempted += l.attempted;
    failed += l.failed;
    answers.insert(l.answers.begin(), l.answers.end());
    for (const auto& [key, c] : l.computes) {
      auto [it, fresh] = computes.try_emplace(key, c);
      if (!fresh && c.start_ms < it->second.start_ms) it->second = c;
    }
  }
};

uint64_t PhaseDigest(const srv::QueryResultWire& r) {
  uint64_t h = r.phase_timings.size();
  for (const srv::PhaseTimingWire& pt : r.phase_timings) {
    uint64_t bits = 0;
    std::memcpy(&bits, &pt.ms, sizeof(bits));
    h = SplitMix(h ^ bits);
  }
  return h;
}

/// Books one answered (or failed) request into `log`.
void Record(const LoadContext& lc, ClientLog* log, bool keep_answers,
            uint32_t key, Clock::time_point t0, Clock::time_point t1,
            int window, bool stalled, const srv::QueryResponse* resp) {
  ++log->attempted;
  if (resp == nullptr || resp->status != srv::StatusCode::kOk ||
      resp->results.size() != 1) {
    ++log->failed;
    return;
  }
  const double start = MsSince(lc.epoch, t0);
  const double end = MsSince(lc.epoch, t1);
  const double ms = end - start;
  if (window != kWarmupWindow) {
    log->latency[window].Add(ms);
    if (window == 0) {
      const size_t second = static_cast<size_t>(start / 1000.0);
      if (log->seconds.size() <= second) log->seconds.resize(second + 1);
      log->seconds[second].Add(ms);
    }
    log->rtt_ms[window] += ms;
    ++log->answered[window];
    if (end <= lc.WindowEnd(window)) {
      ++log->completed[window];
      if (window == 0) {
        const size_t second = static_cast<size_t>(end / 1000.0);
        if (log->completed_by_second.size() <= second) {
          log->completed_by_second.resize(second + 1);
        }
        ++log->completed_by_second[second];
      }
    }
    if (stalled && window == 0) log->stall.Add(ms);
  }
  const srv::QueryResultWire& r = resp->results[0];
  if (keep_answers) log->answers.emplace(key, r.num_occurrences, r.hit_limit);
  if (keep_answers) log->key_ms[key] = ms;
  if (r.phase_timings.empty()) return;
  auto [it, fresh] = log->computes.try_emplace({key, PhaseDigest(r)});
  if (fresh || start < it->second.start_ms) {
    Compute& c = it->second;
    c.phases.fill(0.0);
    for (const srv::PhaseTimingWire& pt : r.phase_timings) {
      for (size_t i = 0; i < kPhaseNames.size(); ++i) {
        if (pt.name == kPhaseNames[i]) c.phases[i] += pt.ms;
      }
    }
    c.start_ms = start;
    c.latency_ms = ms;
    c.window = window;
  }
}

/// The traced client's calls into the query and cache layers for one
/// request, made before it is sent. Returns the mirror-cache key on a
/// mirror miss (to be filled once the answer arrives), else "".
std::string ProbeBeforeSend(const LoadContext& lc, Tracer& tracer,
                            uint64_t request, const std::string& text) {
  auto q = tracer.Time(request, "query.parse", "request",
                       [&] { return ParsePattern(text); });
  if (!q.has_value()) return "";
  auto enc = tracer.Time(request, "query.canon", "request",
                         [&] { return q->CanonicalEncoding(); });
  std::string key = CacheKey(enc);
  auto hit = tracer.Time(request, "cache.lookup", "request",
                         [&] { return lc.mirror->Lookup(key); });
  return hit == nullptr ? key : "";
}

/// The traced client's calls into the protocol layer for one answer, plus
/// filling the mirror cache after a mirror miss.
void ProbeAfterReceive(const LoadContext& lc, Tracer& tracer, uint64_t request,
                       const srv::QueryResponse& resp,
                       const std::string& miss_key) {
  ByteSink sink;
  tracer.Time(request, "protocol.encode", "request",
              [&] { resp.Serialize(sink); });
  tracer.Time(request, "protocol.decode", "request", [&] {
    ByteSource src(sink.data().data(), sink.size());
    srv::ReadMessageType(src);
    return srv::QueryResponse::Deserialize(src).results.size();
  });
  if (!miss_key.empty()) {
    lc.mirror->GetOrCompute(miss_key, [&] {
      return std::make_shared<const srv::QueryResponse>(resp);
    });
  }
}

/// Closed loop: one request in flight; the next key comes from `next_key`
/// (nullopt ends the loop).
void ClosedLoopClient(const LoadContext& lc, bool keep_answers,
                      const std::function<std::optional<uint32_t>()>& next_key,
                      ClientLog* log, Tracer* tracer) {
  srv::QueryClient client;
  std::string error;
  if (!client.ConnectUnix(kSocket, &error)) {
    ++log->attempted;
    ++log->failed;
    return;
  }
  while (lc.NowMs() < lc.end_ms) {
    const std::optional<uint32_t> key = next_key();
    if (!key.has_value()) break;
    const std::string& text = (*lc.texts)[*key];
    const uint64_t request = lc.next_request->fetch_add(1);
    const int window = lc.WindowAt(lc.NowMs());
    std::string miss_key;
    if (window == 1) miss_key = ProbeBeforeSend(lc, *tracer, request, text);
    const uint64_t e0 = lc.write_epoch->load();
    const Clock::time_point t0 = Clock::now();
    auto resp = client.Query(MakeRequest(text, kLimit), &error);
    const Clock::time_point t1 = Clock::now();
    const bool stalled = (e0 & 1) != 0 || lc.write_epoch->load() != e0;
    Record(lc, log, keep_answers, *key, t0, t1, window, stalled,
           resp.has_value() ? &*resp : nullptr);
    if (!resp.has_value()) return;  // the connection is gone
    if (window == 1) {
      tracer->Close(request, "request", "", t0);
      ProbeAfterReceive(lc, *tracer, request, *resp, miss_key);
    }
  }
}

/// Result-cache counters summed over a window. The daemon's counters are
/// per engine generation (a refresh starts a fresh cache), so a window that
/// spans refreshes is summed generation by generation.
struct CacheTally {
  uint64_t hits = 0, misses = 0, waits = 0, evictions = 0;
  /// Event-loop counters: per daemon, not per generation, so churn takes
  /// them from the window's two ends instead.
  uint64_t flushes = 0, frames = 0;

  void Add(const srv::StatsResponse& from, const srv::StatsResponse& to) {
    hits += to.cache_hits - from.cache_hits;
    misses += to.cache_misses - from.cache_misses;
    waits += to.cache_singleflight_waits - from.cache_singleflight_waits;
    evictions += to.cache_evictions - from.cache_evictions;
    flushes += to.flushes - from.flushes;
    frames += to.frames_flushed - from.frames_flushed;
  }
  uint64_t lookups() const { return hits + misses + waits; }
  double hit_ratio() const {
    return lookups() > 0 ? static_cast<double>(hits) / lookups() : 0.0;
  }
};

// ------------------------------------------------------------ the run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string run_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--run-dir") {
      a->run_dir = value;
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && !a->run_dir.empty();
}

class Bench {
 public:
  Bench(Args args, WorkloadSpec spec)
      : args_(std::move(args)), spec_(std::move(spec)) {}

  int Run();

 private:
  struct Window {
    double from_ms = 0.0;
    double to_ms = 0.0;
  };
  /// One cold pass whose answers all fell in one window.
  struct Pass {
    int window = 0;
    double ms = 0.0;  // connect to the last answer
  };

  bool Prepare();
  void PrepareWrites(const Graph& g);
  bool Setup();
  void Serve();
  void ColdPasses(const LoadContext& lc, ClientLog* log, Tracer* tracer);
  /// Throughput of a window's fastest pass (answers per second), the
  /// client's own work included.
  double PassQps(int window) const;
  void ChurnWriter(const LoadContext& lc, Tracer* tracer);
  void VerifyServed();
  void VerifyChurn();
  void Guards();
  void ReportEndToEnd();
  void ReportLayers();
  void ReportChurnLatency();
  void Add(std::string name, double value, std::string unit,
           uint64_t samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void WriterFailed(const std::string& why) {
    std::fprintf(stderr, "churn writer: %s\n", why.c_str());
    ++writer_failures_;
  }
  void Fail(const std::string& why) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    correct_ = false;
  }

  Args args_;
  WorkloadSpec spec_;
  bool correct_ = true;
  std::vector<Metric> metrics_;

  // Preparation.
  std::vector<std::string> texts_;
  std::string probe_;
  uint32_t num_nodes_ = 0;
  uint64_t base_checksum_ = 0;
  uint64_t snapshot_bytes_ = 0;
  std::vector<std::vector<DeltaOp>> rounds_;  // churn write batches
  std::unique_ptr<Graph> shadow_graph_;       // traced churn: replay target

  // Serving.
  std::unique_ptr<Daemon> daemon_;
  std::vector<double> setup_s_;
  std::vector<double> open_ms_, load_ms_;  // traced: standalone opens
  ClientLog log_;                           // merged over client threads
  std::vector<Span> spans_;
  std::vector<SpanStat> span_stats_;
  Memory memory_;
  srv::StatsResponse stats_mid_, stats_end_;
  std::vector<double> steal_by_second_;  // measured window
  std::vector<Pass> passes_;             // cold: whole passes
  uint64_t cold_hits_ = 0;               // cold: daemon cache hits, all passes
  CacheTally pass_tally_;                // cold: the traced window's passes
  std::vector<double> best_ms_;  // cold: each key's fastest measured answer

  // Churn writer.
  size_t rounds_done_ = 0;
  uint64_t writer_failures_ = 0;
  std::vector<Window> refresh_windows_;  // AppendOps return -> kRefresh answer
  std::vector<Window> compact_windows_;
  std::vector<double> append_ms_, compact_ms_, compact_mb_;
  std::vector<double> replay_ms_, index_ms_, snapshot_write_ms_;
  std::vector<double> traced_refresh_ms_;
  uint64_t log_bytes_ = 0, log_ops_ = 0;
  CacheTally traced_cache_;  // summed per generation over the traced window
  srv::StatsResponse generation_start_;  // stats after the last refresh
  bool cache_tally_started_ = false;

  // Oracle.
  std::vector<GmResult> oracle_;
  uint64_t mismatches_ = 0;
};

bool Bench::Prepare() {
  const DatasetSpec& ds = DatasetByName(spec_.dataset);
  // The graph is the workload's fixed dataset; the seed draws the traffic
  // (the cold workloads' key order, churn's keys, key draws and write
  // batches). Graphs of this size differ enough from one generator seed to
  // the next (hub degrees) to move throughput by a fifth, which would hide
  // a change's effect behind the seed's. The cold key sets are fixed too:
  // 150 queries drawn anew each run would move throughput by a twentieth.
  Graph g = MakeDataset(ds, spec_.scale, kDatasetSeed);
  num_nodes_ = g.NumNodes();
  std::printf("graph: %s\n", g.Summary().c_str());

  texts_ = DistinctQueries(
      g, spec_.templates, spec_.num_keys,
      DeriveSeed(spec_.cold ? kDatasetSeed : args_.seed, 2));
  if (spec_.cold) {
    std::mt19937_64 rng(DeriveSeed(args_.seed, 4));
    std::shuffle(texts_.begin(), texts_.end(), rng);
  }
  std::printf("keys: %zu distinct queries\n", texts_.size());
  // Setup probe: a one-edge query at limit 1, never a workload key.
  probe_ = "(a:0)->(b:0)";

  std::string error;
  {
    GmEngine engine(g);
    if (!SaveEngineSnapshot(engine, kSnapshot, &error)) {
      Fail("cannot write snapshot: " + error);
      return false;
    }
  }
  auto info = InspectSnapshot(kSnapshot, &error);
  if (!info.has_value()) {
    Fail("cannot inspect snapshot: " + error);
    return false;
  }
  base_checksum_ = info->stored_checksum;
  snapshot_bytes_ = info->file_size;
  if (!spec_.churn) return true;

  auto writer =
      DeltaWriter::Open(kDelta, base_checksum_, num_nodes_, &error);
  if (writer == nullptr) {
    Fail("cannot create delta log: " + error);
    return false;
  }
  PrepareWrites(g);
  if (args_.trace) {
    LoadOptions options;
    options.io_mode = SnapshotIoMode::kMmap;
    auto warm = LoadEngineSnapshot(kSnapshot, options, &error);
    if (!warm.has_value()) {
      Fail("cannot load shadow graph: " + error);
      return false;
    }
    warm->engine.reset();
    shadow_graph_ = std::move(warm->graph);
  }
  return true;
}

// The churn writer's batches, one per round for as many rounds as the run
// can reach: kAddsPerRound fresh edges (absent from the base and from every
// live add) in, and the edges added kDeleteLagRounds earlier out, so the
// graph size stays stationary and no base edge is ever deleted.
void Bench::PrepareWrites(const Graph& g) {
  const double run_ms =
      spec_.warmup_ms + 1000.0 * args_.seconds * (args_.trace ? 2 : 1);
  const size_t max_rounds = static_cast<size_t>(run_ms / kRoundPeriodMs) + 1;
  std::vector<std::vector<std::pair<NodeId, NodeId>>> added;
  std::set<std::pair<NodeId, NodeId>> live;
  std::mt19937_64 rng(DeriveSeed(args_.seed, 3));
  std::uniform_int_distribution<NodeId> node(0, g.NumNodes() - 1);
  for (size_t round = 0; round < max_rounds; ++round) {
    std::vector<DeltaOp> ops;
    std::vector<std::pair<NodeId, NodeId>> fresh;
    while (fresh.size() < kAddsPerRound) {
      std::pair<NodeId, NodeId> e{node(rng), node(rng)};
      if (e.first == e.second || g.HasEdge(e.first, e.second) ||
          !live.insert(e).second) {
        continue;
      }
      fresh.push_back(e);
      ops.push_back({e.first, e.second, DeltaOpKind::kAdd});
    }
    added.push_back(std::move(fresh));
    if (round >= kDeleteLagRounds) {
      for (const auto& e : added[round - kDeleteLagRounds]) {
        live.erase(e);
        ops.push_back({e.first, e.second, DeltaOpKind::kDelete});
      }
    }
    rounds_.push_back(std::move(ops));
  }
}

bool Bench::Setup() {
  std::string error;
  for (int i = 0; i < kSetupRepeats; ++i) {
    daemon_.reset();
    double s = 0.0;
    daemon_ = StartDaemon(spec_.churn, probe_, &s, &error);
    if (daemon_ == nullptr) {
      Fail("daemon setup failed: " + error);
      return false;
    }
    setup_s_.push_back(s);
  }
  if (!args_.trace) return true;
  // The storage and catalog layers of the open, timed from outside.
  for (int i = 0; i < kSetupRepeats; ++i) {
    LoadOptions options;
    options.io_mode = SnapshotIoMode::kMmap;
    Clock::time_point t0 = Clock::now();
    auto warm = LoadEngineSnapshot(kSnapshot, options, &error);
    load_ms_.push_back(MsSince(t0, Clock::now()));
    if (!warm.has_value()) {
      Fail("snapshot load failed: " + error);
      return false;
    }
    srv::EngineCatalog catalog;
    catalog.Register(kTenant, SourceFor(spec_.churn), &error);
    t0 = Clock::now();
    auto state = catalog.Acquire(kTenant, &error);
    open_ms_.push_back(MsSince(t0, Clock::now()));
    if (state == nullptr) {
      Fail("catalog open failed: " + error);
      return false;
    }
  }
  return true;
}

void Bench::ChurnWriter(const LoadContext& lc, Tracer* tracer) {
  std::string error;
  srv::QueryClient admin;
  if (!admin.ConnectUnix(kSocket, &error)) {
    WriterFailed(error);
    return;
  }
  std::string delta_path = kDelta;
  auto writer = DeltaWriter::Open(delta_path, base_checksum_, 0, &error);
  if (writer == nullptr) {
    WriterFailed(error);
    return;
  }
  // Traced re-execution state: the benchmark's own copy of the served
  // graph, advanced with the same replay the daemon's refresh runs.
  std::unique_ptr<Graph> shadow_graph = std::move(shadow_graph_);
  std::unique_ptr<GmEngine> shadow_engine;
  uint64_t shadow_seqno = 0;

  for (size_t round = 0;; ++round) {
    const double due =
        static_cast<double>(round) * kRoundPeriodMs - lc.warmup_ms;
    if (due >= lc.end_ms) break;
    const double now = lc.NowMs();
    if (now < due) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(due - now));
    }
    const bool traced = lc.WindowAt(due) == 1;
    if (round >= rounds_.size()) {
      WriterFailed("ran out of prepared write rounds");
      return;
    }
    const std::vector<DeltaOp>& ops = rounds_[round];
    rounds_done_ = round + 1;

    const uint64_t size_before = FileBytes(delta_path);
    Clock::time_point t0 = Clock::now();
    const bool appended = writer->AppendOps(ops, &error);
    Clock::time_point t1 = Clock::now();
    if (!appended) {
      WriterFailed(error);
      return;
    }
    append_ms_.push_back(MsSince(t0, t1));
    log_bytes_ += FileBytes(delta_path) - size_before;
    log_ops_ += ops.size();

    if (traced) {
      auto pre = admin.Stats(&error);
      if (!pre.has_value()) {
        WriterFailed(error);
        return;
      }
      if (cache_tally_started_) traced_cache_.Add(generation_start_, *pre);
      cache_tally_started_ = true;
      t1 = Clock::now();
    }
    lc.write_epoch->fetch_add(1);
    auto refreshed = admin.Refresh(&error);
    const Clock::time_point t2 = Clock::now();
    lc.write_epoch->fetch_add(1);
    if (!refreshed.has_value() ||
        refreshed->status != srv::StatusCode::kOk ||
        refreshed->records_applied != 1) {
      WriterFailed(refreshed.has_value()
                       ? "refresh applied " +
                             std::to_string(refreshed->records_applied) +
                             " record(s): " + refreshed->error
                       : error);
      return;
    }
    refresh_windows_.push_back({MsSince(lc.epoch, t1), MsSince(lc.epoch, t2)});

    if (traced) {
      auto post = admin.Stats(&error);
      if (!post.has_value()) {
        WriterFailed(error);
        return;
      }
      generation_start_ = *post;
      traced_refresh_ms_.push_back(MsSince(t1, t2));
      // The refresh's replay and index rebuild, re-executed on the
      // benchmark's own copy of the graph.
      std::vector<DeltaOp> replay_ops;
      ReplayStats rs;
      t0 = Clock::now();
      DeltaReader reader(delta_path, SnapshotIoMode::kRead);
      if (!CollectDeltaOps(reader, num_nodes_, shadow_seqno, &replay_ops, &rs,
                           &error)) {
        WriterFailed(error);
        return;
      }
      auto merged = std::make_unique<Graph>(
          ApplyDeltaOps(*shadow_graph, replay_ops));
      tracer->Close(round, "storage.replay", "refresh", t0);
      replay_ms_.push_back(MsSince(t0, Clock::now()));
      shadow_seqno = rs.last_seqno;
      shadow_engine.reset();
      shadow_graph = std::move(merged);
      t0 = Clock::now();
      shadow_engine = std::make_unique<GmEngine>(*shadow_graph);
      tracer->Close(round, "reach.index_build", "refresh", t0);
      index_ms_.push_back(MsSince(t0, Clock::now()));
    }

    if ((round + 1) % kCompactEvery != 0) continue;
    writer.reset();  // Compact fences appenders with the writer's flock
    lc.write_epoch->fetch_add(1);
    t0 = Clock::now();
    const srv::CatalogCompactionResult c = daemon_->catalog->Compact(kTenant);
    t1 = Clock::now();
    lc.write_epoch->fetch_add(1);
    if (!c.ok || c.skipped) {
      WriterFailed(c.skipped ? "compaction skipped" : c.error);
      return;
    }
    compact_ms_.push_back(MsSince(t0, t1));
    compact_windows_.push_back({MsSince(lc.epoch, t0), MsSince(lc.epoch, t1)});
    compact_mb_.push_back(static_cast<double>(FileBytes(c.snapshot_path) +
                                              FileBytes(c.delta_path)) /
                          kMiB);
    delta_path = c.delta_path;
    shadow_seqno = 0;
    auto info = InspectSnapshot(c.snapshot_path, &error);
    if (info.has_value()) {
      writer = DeltaWriter::Open(delta_path, info->stored_checksum, 0, &error);
    }
    if (writer == nullptr) {
      WriterFailed(error);
      return;
    }
    if (traced && shadow_engine != nullptr) {
      t0 = Clock::now();
      const bool saved =
          SaveEngineSnapshot(*shadow_engine, "probe.snap", &error);
      tracer->Close(round, "storage.snapshot_write", "compact", t0);
      snapshot_write_ms_.push_back(MsSince(t0, Clock::now()));
      ::unlink("probe.snap");
      if (!saved) {
        WriterFailed(error);
        return;
      }
    }
  }
}

// Cold workloads: the key set, pass after pass, each pass on a freshly
// started daemon. A pass whose answers all fall in one window counts in it.
void Bench::ColdPasses(const LoadContext& lc, ClientLog* log,
                       Tracer* tracer) {
  std::string error;
  while (lc.NowMs() < lc.end_ms) {
    daemon_.reset();
    double setup_s = 0.0;
    daemon_ = StartDaemon(false, probe_, &setup_s, &error);
    if (daemon_ == nullptr) {
      Fail("daemon restart failed: " + error);
      return;
    }
    ClientLog pass;
    uint32_t next = 0;
    const Clock::time_point t0 = Clock::now();
    ClosedLoopClient(
        lc, true,
        [&]() -> std::optional<uint32_t> {
          if (next >= texts_.size()) return std::nullopt;
          return next++;
        },
        &pass, tracer);
    const double ms = MsSince(t0, Clock::now());
    srv::QueryClient admin;
    std::optional<srv::StatsResponse> stats;
    if (admin.ConnectUnix(kSocket, &error)) stats = admin.Stats(&error);
    if (!stats.has_value()) {
      Fail("stats request failed: " + error);
      return;
    }
    stats_end_ = *stats;
    cold_hits_ += stats->cache_hits;
    for (int w = 0; w < 2; ++w) {
      if (pass.answered[w] != texts_.size()) continue;
      passes_.push_back({w, ms});
      if (w == 1) pass_tally_.Add(srv::StatsResponse{}, *stats);
    }
    if (pass.answered[0] == texts_.size()) {
      best_ms_.resize(texts_.size(), INFINITY);
      for (const auto& [key, m] : pass.key_ms) {
        best_ms_[key] = std::min(best_ms_[key], m);
      }
      // A daemon that has answered every key once.
      memory_ = MeasureMemory(false);
    }
    log->MergeFrom(pass);
    if (pass.failed > 0) return;
  }
}

double Bench::PassQps(int window) const {
  std::vector<double> ms;
  for (const Pass& p : passes_) {
    if (p.window == window) ms.push_back(p.ms);
  }
  return ms.empty() ? 0.0 : 1000.0 * texts_.size() / Percentile(ms, 0);
}

void Bench::Serve() {
  std::string error;
  // The cold passes restart the daemon; they read its stats themselves.
  srv::QueryClient admin;
  if (!spec_.cold && !admin.ConnectUnix(kSocket, &error)) {
    Fail("admin connect failed: " + error);
    return;
  }
  srv::ResultCache mirror(srv::kDefaultResultCacheBytes);
  auto stats_now = [&](srv::StatsResponse* out) {
    auto s = admin.Stats(&error);
    if (s.has_value()) {
      *out = *s;
    } else {
      Fail("stats request failed: " + error);
    }
  };

  LoadContext lc;
  lc.epoch = Clock::now() +
             std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(spec_.warmup_ms));
  lc.warmup_ms = spec_.warmup_ms;
  lc.measured_end_ms = 1000.0 * args_.seconds;
  lc.end_ms = lc.measured_end_ms * (args_.trace ? 2 : 1);
  lc.traced_run = args_.trace;
  lc.texts = &texts_;
  lc.mirror = &mirror;
  std::atomic<uint64_t> next_request{0};
  std::atomic<uint64_t> write_epoch{0};
  lc.next_request = &next_request;
  lc.write_epoch = &write_epoch;

  std::vector<ClientLog> logs(kConnections);
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (uint32_t c = 0; c <= kConnections; ++c) {
    tracers.push_back(std::make_unique<Tracer>(lc.epoch));
  }
  std::vector<std::thread> threads;
  if (spec_.cold) {
    threads.emplace_back([&] { ColdPasses(lc, &logs[0], tracers[0].get()); });
  }
  for (uint32_t c = 0; c < (spec_.cold ? 0 : kConnections); ++c) {
    threads.emplace_back([&, c] {
      // Zipfian draws over the fixed key set, one seeded stream per client.
      std::vector<double> w(texts_.size());
      for (size_t i = 0; i < w.size(); ++i) w[i] = 1.0 / (i + 1.0);
      std::discrete_distribution<uint32_t> zipf(w.begin(), w.end());
      std::mt19937_64 rng(DeriveSeed(args_.seed, 10 + c));
      ClosedLoopClient(
          lc, false, [&]() -> std::optional<uint32_t> { return zipf(rng); },
          &logs[c], tracers[c].get());
    });
  }
  std::thread writer;
  if (spec_.churn) {
    writer = std::thread([&] { ChurnWriter(lc, tracers.back().get()); });
  }
  std::this_thread::sleep_until(lc.epoch);
  const CpuTimes cpu_before = ReadCpuTimes();
  // The hypervisor's steal, second by second over the measured window.
  CpuTimes last = cpu_before;
  for (int second = 1; second <= args_.seconds; ++second) {
    std::this_thread::sleep_until(lc.epoch + std::chrono::seconds(second));
    const CpuTimes now = ReadCpuTimes();
    steal_by_second_.push_back(StealShare(last, now));
    last = now;
  }
  if (args_.trace && !spec_.cold) stats_now(&stats_mid_);
  for (std::thread& t : threads) t.join();
  if (writer.joinable()) writer.join();
  if (!spec_.cold) memory_ = MeasureMemory(true);
  std::printf("info: %.1f%% of CPU time stolen by the hypervisor during the "
              "window\n",
              100.0 * StealShare(cpu_before, ReadCpuTimes()));
  if (!spec_.cold) stats_now(&stats_end_);

  for (const ClientLog& l : logs) log_.MergeFrom(l);
  for (const auto& t : tracers) {
    spans_.insert(spans_.end(), t->spans().begin(), t->spans().end());
    span_stats_.insert(span_stats_.end(), t->stats().begin(),
                       t->stats().end());
  }
}

// Cold workloads: every distinct served answer against
// GmEngine::Evaluate on an independently loaded copy of the snapshot.
void Bench::VerifyServed() {
  std::string error;
  LoadOptions options;
  options.io_mode = SnapshotIoMode::kRead;
  auto warm = LoadEngineSnapshot(kSnapshot, options, &error);
  if (!warm.has_value()) {
    Fail("oracle load failed: " + error);
    return;
  }
  uint32_t num_keys = 0;
  for (const auto& a : log_.answers) {
    num_keys = std::max(num_keys, std::get<0>(a) + 1);
  }
  std::vector<PatternQuery> queries;
  for (uint32_t k = 0; k < num_keys; ++k) {
    queries.push_back(*ParsePattern(texts_[k]));
  }
  GmOptions opts;
  opts.limit = kLimit;
  opts.num_threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  oracle_ = warm->engine->EvaluateBatch(std::span<const PatternQuery>(queries),
                                        opts);
  for (const auto& [key, count, hit_limit] : log_.answers) {
    if (count != oracle_[key].num_occurrences ||
        hit_limit != oracle_[key].hit_limit) {
      ++mismatches_;
    }
  }
}

// Churn, quiesced: every key's served count against a cold
// LoadEngineSnapshot of the base with every written batch overlaid from an
// independent delta log.
void Bench::VerifyChurn() {
  std::string error;
  const std::string oracle_log = "oracle.delta";
  {
    DeltaWriterOptions wopts;
    wopts.fsync_each_append = false;
    auto w = DeltaWriter::Open(oracle_log, base_checksum_, num_nodes_, &error,
                               wopts);
    if (w == nullptr) {
      Fail("oracle log: " + error);
      return;
    }
    for (size_t r = 0; r < rounds_done_; ++r) {
      if (!w->AppendOps(rounds_[r], &error)) {
        Fail("oracle log append: " + error);
        return;
      }
    }
  }
  LoadOptions options;
  options.io_mode = SnapshotIoMode::kRead;
  options.delta_path = oracle_log;
  auto warm = LoadEngineSnapshot(kSnapshot, options, &error);
  if (!warm.has_value()) {
    Fail("oracle load failed: " + error);
    return;
  }
  std::vector<PatternQuery> queries;
  for (const std::string& t : texts_) queries.push_back(*ParsePattern(t));
  GmOptions opts;
  opts.limit = kLimit;
  opts.num_threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  oracle_ = warm->engine->EvaluateBatch(std::span<const PatternQuery>(queries),
                                        opts);
  srv::QueryClient client;
  if (!client.ConnectUnix(kSocket, &error)) {
    Fail("verify connect: " + error);
    return;
  }
  for (uint32_t k = 0; k < texts_.size(); ++k) {
    auto resp = client.Query(MakeRequest(texts_[k], kLimit), &error);
    if (!resp.has_value() || resp->status != srv::StatusCode::kOk ||
        resp->results.size() != 1 ||
        resp->results[0].num_occurrences != oracle_[k].num_occurrences ||
        resp->results[0].hit_limit != oracle_[k].hit_limit) {
      ++mismatches_;
    }
  }
}

void Bench::Guards() {
  if (mismatches_ > 0) {
    Fail(std::to_string(mismatches_) + " answer(s) differ from the oracle");
  }
  if (writer_failures_ > 0) Fail("churn writer failed");
  if (!spec_.cold) return;
  if (cold_hits_ != 0) {
    Fail("cold workload saw " + std::to_string(cold_hits_) + " cache hit(s)");
  }
  for (int w = 0; w < (args_.trace ? 2 : 1); ++w) {
    if (PassQps(w) == 0.0) {
      Fail("no whole pass over the keys fit in a window; run longer");
    }
  }
}

// The mean of the middle half of `v` (the interquartile mean).
double MiddleHalfMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t drop = v.size() / 4;
  double sum = 0.0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / (v.size() - 2 * drop);
}

// Cold workloads: every key is answered once per pass, and each key's
// latency is its fastest answer over the measured window's passes. The host
// only ever adds time to an answer (a neighbour's load, a descheduled
// vCPU), and on a shared host it adds a tenth to a third to whole runs
// while steal reads zero; the fastest of a dozen or more answers to a query
// on a fresh daemon repeats within a few percent. qps is the key count
// over the sum of those latencies (one connection, one request in flight),
// query_p50_ms and query_p99_ms their percentiles across the keys. Every
// pass is printed beside them.
//
// Churn: throughput and the latencies are taken over the half of the
// window's seconds in which the hypervisor stole the least CPU: on a shared
// host a second with a few percent of steal doubles the p99 of a
// sub-millisecond round trip and can halve throughput, and which seconds
// get stolen is not the program's doing. Throughput is the mean of the
// middle half of those seconds' answer counts; p50 and p99 are medians of
// their per-second percentiles when each holds kMinSliceAnswers answers,
// and cover the whole window otherwise.
void Bench::ReportEndToEnd() {
  const Histogram& lat = log_.latency[0];
  Add("setup_s", Percentile(setup_s_, 50), "s", setup_s_.size());
  if (spec_.cold) {
    std::vector<double> ms;
    for (const Pass& p : passes_) {
      if (p.window == 0) ms.push_back(p.ms);
    }
    double sum = 0.0;
    for (double m : best_ms_) sum += m;
    const uint64_t n = ms.size() * texts_.size();
    Add("qps", sum > 0.0 ? 1000.0 * best_ms_.size() / sum : 0.0, "1/s", n);
    Add("query_p50_ms", Percentile(best_ms_, 50), "ms", n);
    Add("query_p99_ms", Percentile(best_ms_, 99), "ms", n);
    Add("mem_mb", memory_.held_mb, "MB", 1);
    std::printf("info: %zu whole pass(es) of %zu keys in the window, the "
                "fastest at %.6g/s; window p50 %.6g ms, window p99 %.6g ms; "
                "pass ms:",
                ms.size(), texts_.size(), PassQps(0), lat.PercentileMs(50),
                lat.PercentileMs(99));
    for (double m : ms) std::printf(" %.1f", m);
    std::printf("\ninfo: resident set %.3f MB after the last whole pass\n",
                memory_.rss_mb);
    return;
  }
  steal_by_second_.resize(args_.seconds, 0.0);  // short if serving failed
  std::vector<size_t> calm(steal_by_second_.size());
  for (size_t i = 0; i < calm.size(); ++i) calm[i] = i;
  std::stable_sort(calm.begin(), calm.end(), [&](size_t a, size_t b) {
    return steal_by_second_[a] < steal_by_second_[b];
  });
  calm.resize((calm.size() + 1) / 2);
  std::vector<double> per_second, second_p50, second_p99;
  bool dense = true;
  for (size_t i : calm) {
    per_second.push_back(i < log_.completed_by_second.size()
                             ? static_cast<double>(log_.completed_by_second[i])
                             : 0.0);
    const bool seen = i < log_.seconds.size();
    dense &= seen && log_.seconds[i].count() >= kMinSliceAnswers;
    if (seen) {
      second_p50.push_back(log_.seconds[i].PercentileMs(50));
      second_p99.push_back(log_.seconds[i].PercentileMs(99));
    }
  }
  Add("qps", MiddleHalfMean(per_second), "1/s", log_.completed[0]);
  Add("query_p50_ms",
      dense ? Percentile(second_p50, 50) : lat.PercentileMs(50), "ms",
      lat.count());
  Add("query_p99_ms",
      dense ? Percentile(second_p99, 50) : lat.PercentileMs(99), "ms",
      lat.count());
  Add("mem_mb", memory_.held_mb, "MB", 1);
  std::printf("info: qps%s over the %zu least-stolen of %d seconds "
              "(steal %.1f%% to %.1f%%); window mean %.6g/s, window p50 "
              "%.6g ms, window p99 %.6g ms\n",
              dense ? ", p50 and p99" : "", calm.size(), args_.seconds,
              100.0 * steal_by_second_[calm.front()],
              100.0 * steal_by_second_[calm.back()],
              log_.completed[0] / (args_.seconds * 1.0), lat.PercentileMs(50),
              lat.PercentileMs(99));
  std::printf("info: answers by second:");
  for (uint64_t n : log_.completed_by_second) {
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf("\ninfo: resident set %.3f MB at the end of the window\n",
              memory_.rss_mb);
}

void Bench::ReportLayers() {
  const double qps0 =
      spec_.cold ? PassQps(0) : log_.completed[0] / (args_.seconds * 1.0);
  const double qps1 =
      spec_.cold ? PassQps(1) : log_.completed[1] / (args_.seconds * 1.0);
  Add("trace.overhead_pct", qps0 > 0 ? 100.0 * (qps0 - qps1) / qps0 : 0.0,
      "%", log_.completed[1]);
  if (spec_.cold) {
    std::printf("info: pass ms by window:");
    for (const Pass& p : passes_) std::printf(" %d:%.1f", p.window, p.ms);
    std::printf("\n");
  }

  // Engine phases of the answers computed in the traced window.
  PhaseArray phase_sum{};
  std::vector<double> miss_latency;
  for (const auto& [key, c] : log_.computes) {
    if (c.window != 1) continue;
    miss_latency.push_back(c.latency_ms);
    for (size_t i = 0; i < phase_sum.size(); ++i) phase_sum[i] += c.phases[i];
  }
  const uint64_t evaluations = miss_latency.size();
  const char* const phase_metric[] = {
      "engine.reduce_ms",    "engine.prefilter_ms", "engine.simulate_ms",
      "engine.build_rig_ms", "engine.order_ms",     "engine.enumerate_ms"};
  double engine_total = 0.0;
  for (size_t i = 0; i < phase_sum.size(); ++i) {
    engine_total += phase_sum[i];
    Add(phase_metric[i], evaluations > 0 ? phase_sum[i] / evaluations : 0.0,
        "ms", evaluations);
  }
  Add("engine.evaluations", static_cast<double>(evaluations), "count",
      evaluations);
  Add("cache.miss_p50_ms", Percentile(miss_latency, 50), "ms", evaluations);

  // Exact per-query counts of the oracle's evaluations of the served keys.
  double pair_checks = 0, pruned = 0, rig_nodes = 0, rig_edges = 0,
         expand = 0, inter = 0, scanned = 0, occ = 0, empty = 0, limit = 0;
  for (const GmResult& r : oracle_) {
    pair_checks += r.rig_stats.sim.pair_checks;
    pruned += r.rig_stats.sim.pruned_nodes;
    rig_nodes += r.rig_nodes;
    rig_edges += r.rig_edges;
    expand += r.rig_stats.expand_pair_checks;
    inter += r.mjoin_stats.intersections;
    scanned += r.mjoin_stats.candidates_scanned;
    occ += r.mjoin_stats.occurrences;
    empty += r.empty_rig_shortcut ? 1 : 0;
    limit += r.hit_limit ? 1 : 0;
  }
  const uint64_t n = oracle_.size();
  const double dn = n > 0 ? static_cast<double>(n) : 1.0;
  Add("engine.empty_rig_share", empty / dn, "ratio", n);
  Add("engine.hit_limit_share", limit / dn, "ratio", n);
  Add("sim.pair_checks", pair_checks / dn, "count", n);
  Add("sim.pruned_nodes", pruned / dn, "count", n);
  Add("rig.nodes", rig_nodes / dn, "count", n);
  Add("rig.edges", rig_edges / dn, "count", n);
  Add("rig.expand_pair_checks", expand / dn, "count", n);
  Add("enumerate.intersections", inter / dn, "count", n);
  Add("enumerate.candidates_scanned", scanned / dn, "count", n);
  Add("enumerate.occurrences", occ / dn, "count", n);
  Add("enumerate.yield", scanned > 0 ? occ / scanned : 0.0, "ratio", n);

  // Client-side re-executions of the daemon's per-request layers.
  const SpanMean parse = MeanOf(span_stats_, "query.parse", 1e3);
  const SpanMean canon = MeanOf(span_stats_, "query.canon", 1e3);
  const SpanMean lookup = MeanOf(span_stats_, "cache.lookup", 1e3);
  const SpanMean encode = MeanOf(span_stats_, "protocol.encode", 1e3);
  const SpanMean decode = MeanOf(span_stats_, "protocol.decode", 1e3);
  Add("query.parse_us", parse.mean, "us", parse.count);
  Add("query.canon_us", canon.mean, "us", canon.count);
  Add("cache.lookup_us", lookup.mean, "us", lookup.count);
  Add("protocol.encode_us", encode.mean, "us", encode.count);
  Add("protocol.decode_us", decode.mean, "us", decode.count);

  // Cache and event-loop counters of the traced window (StatsResponse).
  CacheTally cache;
  if (spec_.churn) {
    cache = traced_cache_;
    if (cache_tally_started_) cache.Add(generation_start_, stats_end_);
    cache.flushes = stats_end_.flushes - stats_mid_.flushes;
    cache.frames = stats_end_.frames_flushed - stats_mid_.frames_flushed;
  } else {
    cache = pass_tally_;
  }
  Add("cache.hit_ratio", cache.hit_ratio(), "ratio", cache.lookups());
  Add("cache.evictions", static_cast<double>(cache.evictions), "count",
      cache.lookups());
  Add("cache.singleflight_waits", static_cast<double>(cache.waits), "count",
      cache.lookups());
  Add("cache.bytes_mb", stats_end_.cache_bytes_used / kMiB, "MB", 1);
  Add("server.frames_per_flush",
      cache.flushes > 0 ? static_cast<double>(cache.frames) / cache.flushes
                        : 0.0,
      "ratio", cache.flushes);

  // Accounting: the parts above against the client round trip; the rest is
  // the serving stack the benchmark cannot see into.
  const uint64_t answered = log_.answered[1];
  const double rtt = answered > 0 ? log_.rtt_ms[1] / answered : 0.0;
  const double parts =
      (answered > 0 ? engine_total / answered : 0.0) +
      (parse.mean + canon.mean + lookup.mean + encode.mean + decode.mean) /
          1e3;
  Add("server.rtt_mean_ms", rtt, "ms", answered);
  Add("server.residual_ms", rtt - parts, "ms", answered);
  if (answered > 0 && parts > rtt * (1.0 + kAccountingTolerance)) {
    Fail("accounting: the traced parts exceed the round trip by more than " +
         std::to_string(kAccountingTolerance * 100) + "%");
  }

  // Catalog, storage and reach.
  Add("catalog.open_ms", Percentile(open_ms_, 50), "ms", open_ms_.size());
  Add("storage.snapshot_load_ms", Percentile(load_ms_, 50), "ms",
      load_ms_.size());
  Add("storage.snapshot_mb", snapshot_bytes_ / kMiB, "MB", 1);
  Add("storage.append_ms", Mean(append_ms_), "ms", append_ms_.size());
  Add("storage.replay_ms", Mean(replay_ms_), "ms", replay_ms_.size());
  Add("reach.index_build_ms", Mean(index_ms_), "ms", index_ms_.size());
  Add("server.refresh_residual_ms",
      traced_refresh_ms_.empty() ? 0.0
                                 : Mean(traced_refresh_ms_) -
                                       Mean(replay_ms_) - Mean(index_ms_),
      "ms", traced_refresh_ms_.size());
  Add("storage.snapshot_write_ms", Mean(snapshot_write_ms_), "ms",
      snapshot_write_ms_.size());
  Add("catalog.compact_ms", Mean(compact_ms_), "ms", compact_ms_.size());
  Add("storage.compact_mb_written", Mean(compact_mb_), "MB",
      compact_mb_.size());
  Add("storage.log_bytes_per_op",
      log_ops_ > 0 ? static_cast<double>(log_bytes_) / log_ops_ : 0.0, "B",
      log_ops_);
}

// The write-side latencies of churn over the measured window: the
// write-to-visible delay of each round (AppendOps returning to the kRefresh
// answer), and the p99 of reads that overlap a refresh or a compaction.
// Per-layer metrics of a traced run (zero on the read-only workloads),
// printed lines otherwise.
void Bench::ReportChurnLatency() {
  std::vector<double> refresh;
  for (const Window& w : refresh_windows_) {
    if (w.from_ms >= 0.0 && w.from_ms < 1000.0 * args_.seconds) {
      refresh.push_back(w.to_ms - w.from_ms);
    }
  }
  const double refresh_p50 = Percentile(refresh, 50);
  const double stall_p99 = log_.stall.PercentileMs(99);
  if (args_.trace) {
    Add("refresh_p50_ms", refresh_p50, "ms", refresh.size());
    Add("stall_p99_ms", stall_p99, "ms", log_.stall.count());
  } else if (spec_.churn) {
    std::printf("metric refresh_p50_ms %.6g ms n=%zu\n", refresh_p50,
                refresh.size());
    std::printf("metric stall_p99_ms %.6g ms n=%llu\n", stall_p99,
                static_cast<unsigned long long>(log_.stall.count()));
  }
}

// Restricts the calling thread, and every thread it starts from now on, to
// the first `count` CPUs of `allowed`; returns them as a list.
std::string PinToFirstCpus(const cpu_set_t& allowed, int count) {
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int cpu = 0; cpu < CPU_SETSIZE && count > 0; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    list += (list.empty() ? "" : ",") + std::to_string(cpu);
    --count;
  }
  if (list.empty() || ::sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return "unpinned";
  }
  return list;
}

int Bench::Run() {
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d nproc=%u "
              "build=%s daemon_workers=%u connections=%u limit=%llu\n",
              spec_.name.c_str(), static_cast<unsigned long long>(args_.seed),
              args_.seconds, args_.trace ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              kDaemonWorkers, spec_.cold ? 1 : kConnections,
              static_cast<unsigned long long>(kLimit));
  if (!Prepare()) return 1;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ::sched_getaffinity(0, sizeof(allowed), &allowed);
  std::printf("serving cpus: %s\n",
              PinToFirstCpus(allowed, kServeCpus).c_str());
  if (!Setup()) return 1;
  Serve();
  // The oracle below may use every CPU; the daemon's threads stay pinned.
  ::sched_setaffinity(0, sizeof(allowed), &allowed);
  // Readers and writer have stopped: the daemon is quiesced.
  if (spec_.churn) VerifyChurn();
  daemon_.reset();
  if (!spec_.churn) VerifyServed();
  Guards();

  const uint64_t attempted = log_.attempted + rounds_done_;
  const uint64_t failed = log_.failed + writer_failures_;
  std::printf("samples: %llu request(s), %llu failed, %llu oracle "
              "mismatch(es), %zu write round(s), %zu compaction(s)\n",
              static_cast<unsigned long long>(log_.attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatches_), rounds_done_,
              compact_ms_.size());
  std::printf("metric fail_ratio %.6f ratio n=%llu\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<unsigned long long>(attempted));
  if (args_.trace) {
    ReportLayers();
    WriteTrace(args_.trace_out, spans_);
  } else {
    ReportEndToEnd();
  }
  ReportChurnLatency();

  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    std::printf("metric %s %.6g %s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_serve --workload NAME --seed N --seconds S "
                 "--trace 0|1 --run-dir DIR [--trace-out FILE]\n");
    return 2;
  }
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "refusing to time an assert-enabled or sanitizer build\n");
  return 2;
#endif
  auto spec = SpecFor(args.workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (::chdir(args.run_dir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter run dir %s\n", args.run_dir.c_str());
    return 2;
  }
  Bench bench(std::move(args), *spec);
  return bench.Run();
}

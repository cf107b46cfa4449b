// serve_hot, serve_hot_local and serve_churn: one client thread in a
// closed loop. serve_hot goes over one loopback connection to an in-process
// PlanServer; serve_hot_local and serve_churn call the OptimizerService in
// process (README.md says why).

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "cost/recost.h"
#include "plangen/persistent_cache.h"
#include "plangen/plan_serde.h"
#include "plangen/plan_validator.h"
#include "plangen/session.h"

#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

using eadp::OptimizeResult;
using eadp::Query;

constexpr int kHotShapes = 64;
constexpr int kChurnShapes = 512;
constexpr size_t kChurnL1Capacity = 64;
constexpr double kChurnDriftTolerance = 0.2;
constexpr int kChurnSetStatsEvery = 16;
constexpr uint64_t kChurnStride = 193;  // coprime to kChurnShapes
// SetStats rescales a relation's original cardinality by a factor in this
// band, so statistics wander instead of drifting away.
constexpr double kChurnScaleMin = 0.7;
constexpr double kChurnScaleMax = 1.4;
// Serve workloads replay the DP layers on every request planned fresh and
// on every kDpReplayEvery-th request besides.
constexpr uint32_t kDpReplayEvery = 64;
// Workloads that send no SetStats replay a no-op one (the relation's
// current cardinality) on every kNoOpSetStatsEvery-th request.
constexpr uint32_t kNoOpSetStatsEvery = 16;

struct ServeConfig {
  bool churn = false;
  /// Requests go over the loopback server; otherwise the client calls the
  /// OptimizerService in process, on its own thread.
  bool over_tcp = true;
  std::vector<CorpusEntry> shapes;
  eadp::ServiceOptions service;
  double zipf_theta = 1.0;
  int setup_reps = 1;  ///< behind the setup_s median
  /// Requests whose per-layer counts the traced run compares.
  int count_window = 0;
};

struct Request {
  int shape = 0;
  bool set_stats = false;
  int relation = 0;
  double cardinality = 0;
};

/// serve_churn's statistics writes: which shape, relation and factor each
/// SetStats uses. Fixed like the working set and continued across the
/// streams of one run: the run seed drives the reads only. Drawn per seed,
/// the writes decided how much re-planning a run did (qps spread 0.35
/// over ten seeds); the shape steps through the working set with a fixed
/// stride, so every stretch of the window rescales a like mix of shapes.
class SetStatsSchedule {
 public:
  explicit SetStatsSchedule(const std::vector<Query>& originals)
      : originals_(originals), rng_(kSetStatsSeed) {}

  Request Next() {
    Request r;
    r.set_stats = true;
    r.shape = static_cast<int>((++issued_ * kChurnStride) % originals_.size());
    const eadp::Catalog& catalog =
        originals_[static_cast<size_t>(r.shape)].catalog();
    r.relation =
        static_cast<int>(rng_.UniformInt(0, catalog.num_relations() - 1));
    double scale = std::exp(rng_.UniformDouble(std::log(kChurnScaleMin),
                                               std::log(kChurnScaleMax)));
    r.cardinality = std::floor(catalog.relation(r.relation).cardinality * scale);
    return r;
  }

 private:
  static constexpr uint64_t kSetStatsSeed = 0x5365745374617473ull;
  const std::vector<Query>& originals_;
  eadp::Rng rng_;
  uint64_t issued_ = 0;
};

/// The seeded request stream: Zipf-popular shapes and, when a schedule is
/// given, a SetStats from it as every 16th request.
class RequestStream {
 public:
  RequestStream(const ServeConfig& config, uint64_t seed,
                SetStatsSchedule* writes)
      : zipf_(static_cast<int>(config.shapes.size()), config.zipf_theta),
        rng_(seed),
        writes_(writes) {}

  Request Next() {
    if (writes_ != nullptr && ++issued_ % kChurnSetStatsEvery == 0) {
      return writes_->Next();
    }
    Request r;
    r.shape = zipf_.Pick(rng_.UniformDouble());
    return r;
  }

 private:
  Zipf zipf_;
  eadp::Rng rng_;
  SetStatsSchedule* writes_;  ///< null: reads only
  uint64_t issued_ = 0;
};

/// Latencies of the timed window, and its peak RSS per one-second slice.
/// qps and the percentiles are taken over the whole window: serve_churn's
/// cost sits in re-plans that cluster within seconds, so per-slice figures
/// moved by ±40% while whole windows of different seeds did the same work.
/// The peak RSS is the median of the slice peaks, so one transient
/// allocation does not set it. Latencies are kept as a histogram of whole
/// nanoseconds (the clocks' resolution) below 1 ms and one by one above,
/// so the percentiles are exact and the client's memory does not grow with
/// the request rate.
class Window {
 public:
  explicit Window(double window_s)
      : histogram_(kHistogramNs, 0),
        slice_busy_s_(static_cast<size_t>(std::max(1.0, std::floor(window_s))), 0.0),
        slice_requests_(slice_busy_s_.size(), 0),
        slice_peak_mb_(slice_busy_s_.size(), 0.0) {
    TakePeakRssMb();
  }

  void Add(double window_offset_s, double latency_s) {
    size_t slice = std::min(static_cast<size_t>(std::max(0.0, window_offset_s)),
                            slice_busy_s_.size() - 1);
    if (slice != current_) {
      slice_peak_mb_[current_] = TakePeakRssMb();
      current_ = slice;
    }
    int64_t ns = std::max<int64_t>(0, std::llround(latency_s * 1e9));
    if (ns < static_cast<int64_t>(kHistogramNs)) {
      ++histogram_[static_cast<size_t>(ns)];
    } else {
      long_ns_.push_back(ns);
    }
    ++samples_;
    busy_s_ += latency_s;
    slice_busy_s_[slice] += latency_s;
    ++slice_requests_[slice];
  }

  /// Call once, when the window has ended.
  Timing Finish() {
    slice_peak_mb_[current_] = TakePeakRssMb();
    std::vector<double> slice_qps, slice_peak;
    for (size_t i = 0; i <= current_; ++i) {
      slice_qps.push_back(slice_busy_s_[i] > 0 ? slice_requests_[i] / slice_busy_s_[i] : 0);
      slice_peak.push_back(slice_peak_mb_[i]);
    }
    std::sort(long_ns_.begin(), long_ns_.end());
    Timing t;
    t.qps = busy_s_ > 0 ? static_cast<double>(samples_) / busy_s_ : 0;
    t.p50_ms = PercentileMs(0.50);
    t.p99_ms = PercentileMs(0.99);
    t.peak_rss_mb = Median(slice_peak);
    t.samples = samples_;
    t.meta = ",\"slice_qps\":" + JsonArray(slice_qps) +
             ",\"slice_peak_rss_mb\":" + JsonArray(slice_peak);
    return t;
  }

 private:
  static constexpr size_t kHistogramNs = 1000000;

  /// Nearest-rank percentile, as Percentile() in common.h; 0 if empty.
  double PercentileMs(double q) const {
    if (samples_ == 0) return 0;
    uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(samples_))), 1,
        samples_);
    uint64_t seen = 0;
    for (size_t ns = 0; ns < histogram_.size(); ++ns) {
      seen += histogram_[ns];
      if (seen >= rank) return static_cast<double>(ns) / 1e6;
    }
    return static_cast<double>(long_ns_[rank - seen - 1]) / 1e6;
  }

  std::vector<uint32_t> histogram_;  ///< requests per latency in ns
  std::vector<int64_t> long_ns_;     ///< latencies of 1 ms and more
  uint64_t samples_ = 0;
  double busy_s_ = 0;
  std::vector<double> slice_busy_s_;
  std::vector<double> slice_requests_;
  std::vector<double> slice_peak_mb_;
  size_t current_ = 0;
};

/// One run of a serve workload.
class ServeRun {
 public:
  ServeRun(const Args& args, const ServeConfig& config)
      : args_(args), config_(config) {
    for (const CorpusEntry& e : config.shapes) {
      originals_.push_back(Materialize(e.spec));
      current_.push_back(Materialize(e.spec));
    }
    version_.assign(config.shapes.size(), 0);
    set_log_.resize(config.shapes.size());
  }

  Outcome Run() {
    if (SetUp()) {
      if (args_.trace) {
        RunTraced();
      } else {
        RunUntraced();
      }
    }
    return std::move(out_);
  }

 private:
  struct Served {
    int shape;
    int version;
    double cost;  ///< served cost under the statistics in force
    bool replan_avoided;
    auto operator<=>(const Served&) const = default;
  };

  const std::string& Spec(int shape) const {
    return config_.shapes[static_cast<size_t>(shape)].spec;
  }

  SetStatsSchedule* Writes() { return config_.churn ? &writes_ : nullptr; }

  /// A response as it arrived: the wire frames, or the service's result.
  struct Response {
    std::string blob, stats_json;
    OptimizeResult result;
  };

  /// The timed part of one Optimize request to `stack`: the socket
  /// exchange (the blob is decoded later, outside the latency sample) or
  /// the in-process service call.
  bool Exchange(ServeStack* stack, int shape, Response* resp) {
    if (stack->client) {
      return ServeRequest(stack->client.get(), Spec(shape), &resp->blob,
                          &resp->stats_json, &error_);
    }
    eadp::ServiceStatus st =
        stack->service->Optimize(kSession, Spec(shape), &resp->result);
    if (!st.ok()) error_ = st.message;
    return st.ok();
  }

  /// Encoded plan size of a response (the blob, or what encoding it gives).
  static size_t BlobBytes(const Response& resp, const OptimizeResult& r) {
    return resp.blob.empty() ? eadp::EncodePlan(r).size() : resp.blob.size();
  }

  /// Starts `stack` and brings it to the timed window's steady state: a
  /// cold fill of every shape and, for serve_churn, the L2 settle.
  bool SetUpStack(const std::string& l2_dir, bool with_server,
                  ServeStack* stack) {
    eadp::ServiceOptions options = config_.service;
    if (!l2_dir.empty()) {
      std::filesystem::remove_all(l2_dir);
      std::filesystem::create_directories(l2_dir);
      options.persistent_dir = l2_dir;
    }
    auto fill = [&] {
      for (int s = 0; s < static_cast<int>(config_.shapes.size()); ++s) {
        Response resp;
        if (!Exchange(stack, s, &resp)) return false;
      }
      return true;
    };
    if (!stack->Start(options, with_server, &error_) || !fill()) return false;
    if (!config_.churn) return true;

    // Settle the L2 read path. The fill wrote the working set into the
    // active segment, which serves by pread until it rolls over at 8 MiB
    // and is sealed (then mmap). Sealing it now, under a fresh active
    // segment, keeps run length from changing the read path: records
    // written before serve by mmap, records re-planned after by pread, and
    // no run appends enough to roll the new segment over.
    stack->Stop();
    {
      eadp::PersistentCacheOptions seal;
      seal.directory = l2_dir;
      seal.max_segment_bytes = 1;  // the next append rolls a fresh segment
      seal.write_behind = false;
      std::unique_ptr<eadp::PersistentPlanCache> l2 =
          eadp::PersistentPlanCache::Open(seal, &error_);
      if (!l2) return false;
      Query sentinel = Materialize("gen chain 3 default 1 :");
      l2->Put(eadp::PlanCacheKeySplit(sentinel, DefaultKnobs()).structural,
              eadp::PlannerSession().Optimize(sentinel));
      l2->Flush();
    }
    return stack->Start(options, with_server, &error_) && fill();
  }

  bool SetUp() {
    // Repeated for the setup_s median; the last stack is the measured one.
    const std::string l2_dir = config_.churn ? args_.scratch + "/l2" : "";
    for (int rep = 0; rep < (args_.trace ? 1 : config_.setup_reps); ++rep) {
      stack_.Stop();
      Clock::time_point t0 = Clock::now();
      if (!SetUpStack(l2_dir, config_.over_tcp, &stack_)) {
        out_.Fail("setup: " + error_);
        return false;
      }
      setup_s_.push_back(Seconds(t0, Clock::now()));
    }
    // What the earlier repetitions freed is not the measured server's:
    // without this, the window's RSS carried 0.5-0.8 GB of their leftovers,
    // in amounts that varied from run to run.
    TrimHeap();
    // Traced runs replay stateful layers against a mirror service that gets
    // the same set-up and request sequence directly, so the replays see the
    // same cache state without touching the measured stack. When the
    // measured stack is called in process, the mirror also gets a server,
    // to replay each request over the socket.
    if (args_.trace &&
        !SetUpStack(config_.churn ? args_.scratch + "/mirror-l2" : "",
                    !config_.over_tcp, &mirror_)) {
      out_.Fail("mirror setup: " + error_);
      return false;
    }
    if (!config_.churn) return true;

    // Drift warm-up, untimed and outside setup_s: one full rotation of
    // SetStats over the working set, so the window starts with drifted
    // statistics and re-planned records on disk instead of moving toward
    // that state while it is measured.
    RequestStream warm(config_, args_.seed * 7919 + 5, Writes());
    for (int i = 0; i < kChurnShapes * kChurnSetStatsEvery; ++i) {
      Request req = warm.Next();
      if (req.set_stats) {
        if (!SendSetStats(req)) return false;
        TrackSetStats(req);
        MirrorSetStats(req);
        continue;
      }
      Response resp;
      if (!Exchange(&stack_, req.shape, &resp)) {
        out_.Fail("warm-up: " + error_);
        return false;
      }
      MirrorOptimize(req.shape);
    }
    return true;
  }

  /// Sends a SetStats to the measured stack (the timed part).
  bool SendSetStats(const Request& req) {
    eadp::SetStatsRequest set{kSession, Spec(req.shape),
                              static_cast<uint32_t>(req.relation),
                              req.cardinality};
    if (stack_.client) {
      eadp::ErrorResponse err;
      if (!stack_.client->SetStats(set, &err)) {
        out_.Fail("SetStats: " + err.message);
        return false;
      }
    } else if (eadp::ServiceStatus st = stack_.service->SetStats(set);
               !st.ok()) {
      out_.Fail("SetStats: " + st.message);
      return false;
    }
    return true;
  }

  /// Applies a sent SetStats to the client's copy of the query and logs it
  /// for the reference check (untimed).
  void TrackSetStats(const Request& req) {
    size_t s = static_cast<size_t>(req.shape);
    ApplySetStats(&current_[s], req.relation, req.cardinality);
    ++version_[s];
    set_log_[s].push_back(req);
  }

  void MirrorSetStats(const Request& req) {
    if (!mirror_.service) return;
    mirror_.service->SetStats({kSession, Spec(req.shape),
                               static_cast<uint32_t>(req.relation),
                               req.cardinality});
  }

  void MirrorOptimize(int shape) {
    if (!mirror_.service) return;
    OptimizeResult m;
    mirror_.service->Optimize(kSession, Spec(shape), &m);
  }

  /// Opens one response (decoding the frames) and checks it against the
  /// client's mirror of the statistics (untimed). Records it for the
  /// reference check.
  bool Check(int shape, Response* resp, OptimizeResult* r) {
    if (resp->blob.empty()) {
      *r = std::move(resp->result);
    } else if (eadp::DecodePlan(resp->blob, r)) {
      ReadDriftOutcome(resp->stats_json, &r->stats);
    }
    if (r->plan == nullptr) {
      out_.Fail("undecodable or empty plan: " + Spec(shape));
      return false;
    }
    const Query& q = current_[static_cast<size_t>(shape)];
    const int version = version_[static_cast<size_t>(shape)];
    double cost = r->plan->cost;
    if (r->stats.replan_avoided) {
      eadp::RecostResult rc = eadp::RecostPlan(r->plan, q);
      if (!rc.ok || !SameBits(rc.cost, r->stats.recosted_cost)) {
        out_.Fail("recosted cost differs from RecostPlan: " + Spec(shape));
        return false;
      }
      cost = r->stats.recosted_cost;
    }
    uint64_t bits;
    std::memcpy(&bits, &cost, sizeof bits);
    if (validated_.insert({shape, version, bits}).second) {
      std::vector<std::string> problems = eadp::ValidatePlan(r->plan, q);
      if (!problems.empty()) {
        out_.Fail("ValidatePlan: " + Spec(shape) + ": " + problems.front());
        return false;
      }
    }
    ++served_[{shape, version, cost, r->stats.replan_avoided}];
    return true;
  }

  /// Plans every served (shape, statistics version) uncached, rebuilding
  /// each version from the SetStats log, and checks the served costs.
  /// Returns the number of failed requests; fills the DPhyp ratio sums.
  uint64_t VerifyServed(double* ratio_log_sum, uint64_t* ratio_n) {
    std::map<std::pair<int, int>, std::pair<double, double>> refs;  // opt, lazy
    for (const auto& [s, n] : served_) refs[{s.shape, s.version}] = {0, 0};
    auto it = refs.begin();
    for (int shape = 0; shape < static_cast<int>(config_.shapes.size());
         ++shape) {
      Query q = Materialize(Spec(shape));
      int applied = 0;
      for (; it != refs.end() && it->first.first == shape; ++it) {
        for (; applied < it->first.second; ++applied) {
          const Request& l = set_log_[static_cast<size_t>(shape)]
                                     [static_cast<size_t>(applied)];
          ApplySetStats(&q, l.relation, l.cardinality);
        }
        OptimizeResult ref = eadp::PlannerSession().Optimize(q);
        it->second.first = ref.plan ? ref.plan->cost : -1;
        it->second.second =
            HasDphypReference(config_.shapes[static_cast<size_t>(shape)])
                ? DphypCost(q)
                : 0;
      }
    }
    uint64_t failures = 0;
    for (const auto& [s, n] : served_) {
      auto [ref, lazy] = refs[{s.shape, s.version}];
      // A plan served inside the drift band must lie within the tolerance
      // of the fresh optimum; exact-DP shapes only, since GOO/IDP plans are
      // not optima to bound against (their recost is checked in Check).
      const CorpusEntry& e = config_.shapes[static_cast<size_t>(s.shape)];
      bool ok = !s.replan_avoided ? SameBits(s.cost, ref)
                : e.num_relations > kExactRelations
                    ? true
                    : s.cost >= ref * (1 - 1e-9) &&
                          s.cost <= ref * (1 + config_.service.drift_tolerance) *
                                        (1 + 1e-9);
      if (!ok) {
        failures += n;
        char detail[160];
        std::snprintf(detail, sizeof(detail),
                      " (version %d, served %.17g, reference %.17g, %s)",
                      s.version, s.cost, ref,
                      s.replan_avoided ? "recosted" : "planned");
        out_.Fail("served cost differs from the uncached reference: " +
                  e.spec + detail);
        continue;
      }
      if (lazy > 0) {
        *ratio_log_sum += static_cast<double>(n) * std::log(s.cost / lazy);
        *ratio_n += n;
      }
    }
    return failures;
  }

  void RunUntraced() {
    RequestStream stream(config_, args_.seed * 7919 + 17, Writes());
    uint64_t response_failures = 0;
    long long steal0 = StealTicks();
    Window window(args_.seconds);
    Clock::time_point start = Clock::now();
    // The latency clock. In process the service runs on this thread, so a
    // request costs this thread's CPU time, which leaves out host steal;
    // over the socket the server's threads do the work, so wall time.
    auto now = [&] {
      return config_.over_tcp ? Seconds(start, Clock::now())
                              : ThreadCpuSeconds();
    };
    while (Seconds(start, Clock::now()) < args_.seconds) {
      Request req = stream.Next();
      ++out_.attempted;
      double offset = Seconds(start, Clock::now());
      double a = now();
      if (req.set_stats) {
        bool ok = SendSetStats(req);
        double b = now();
        if (!ok) {
          ++response_failures;
          continue;
        }
        window.Add(offset, b - a);
        TrackSetStats(req);
        continue;
      }
      Response resp;
      bool ok = Exchange(&stack_, req.shape, &resp);
      double b = now();
      if (!ok) {
        ++response_failures;
        out_.Fail(error_);
        continue;
      }
      window.Add(offset, b - a);
      OptimizeResult r;
      if (!Check(req.shape, &resp, &r)) ++response_failures;
    }
    Timing timing = window.Finish();
    long long window_steal = StealTicks() - steal0;
    CacheCounters c = ReadCacheCounters(&stack_);

    double ratio_log_sum = 0;
    uint64_t ratio_n = 0;
    out_.failed = response_failures + VerifyServed(&ratio_log_sum, &ratio_n);
    auto u = [](uint64_t v) { return std::to_string(v); };
    timing.meta +=
        ",\"window_steal_ticks\":" + std::to_string(window_steal) +
        ",\"l1_hits\":" + u(c.l1.hits) + ",\"l1_misses\":" + u(c.l1.misses) +
        ",\"l1_evictions\":" + u(c.l1.evictions) +
        ",\"drift_hits\":" + u(c.l1.drift_hits) +
        ",\"replans_avoided\":" + u(c.l1.replans_avoided) +
        ",\"refreshes\":" + u(c.l1.refreshes) + ",\"l2_hits\":" + u(c.l2.hits) +
        ",\"l2_pread_serves\":" + u(c.l2.pread_serves) +
        ",\"l2_mmap_serves\":" + u(c.l2.mmap_serves) +
        ",\"l2_bytes_on_disk\":" + u(c.l2.bytes_on_disk) +
        ",\"l2_segments\":" + u(c.l2.segments);
    EndToEnd(timing, ratio_log_sum, ratio_n, setup_s_, &out_);
  }

  void RunTraced() {
    const uint64_t stream_seed = args_.seed * 7919 + 17;
    // Untraced count window: the tracing-overhead baseline and the first
    // count set.
    Counts counts[2];
    std::vector<double> untraced_us;
    RequestStream first(config_, stream_seed, Writes());
    for (int i = 0; i < config_.count_window; ++i) {
      Request req = first.Next();
      ++out_.attempted;
      if (req.set_stats) {
        if (SendSetStats(req)) {
          TrackSetStats(req);
        } else {
          ++out_.failed;
        }
        MirrorSetStats(req);
        continue;
      }
      Response resp;
      int64_t a = NowNs();
      bool ok = Exchange(&stack_, req.shape, &resp);
      untraced_us.push_back(static_cast<double>(NowNs() - a) / 1e3);
      OptimizeResult r;
      if (!ok || !Check(req.shape, &resp, &r)) {
        ++out_.failed;
        continue;
      }
      counts[0].Add(r, BlobBytes(resp, r));
      MirrorOptimize(req.shape);
    }

    // Traced segment: the same stream again from its seed, the count
    // window and then on until --seconds have passed.
    CacheCounters before = ReadCacheCounters(&stack_);
    CacheCounters after;
    LayerLog log;
    std::vector<double> traced_us;
    RequestStream second(config_, stream_seed, Writes());
    Clock::time_point start = Clock::now();
    uint32_t request = 0;
    for (; static_cast<int>(request) < config_.count_window ||
           Seconds(start, Clock::now()) < args_.seconds;
         ++request) {
      if (static_cast<int>(request) == config_.count_window) {
        after = ReadCacheCounters(&stack_);
      }
      Request req = second.Next();
      ++out_.attempted;
      int root = log.tracer.Begin("request", -1, request);
      if (req.set_stats) {
        int64_t a = NowNs();
        bool sent = SendSetStats(req);
        log.tracer.Add("request.setstats", a, NowNs(), root, request);
        if (sent) {
          ScopedSpan verify(&log.tracer, "bench.verify", root, request);
          TrackSetStats(req);
        } else {
          ++out_.failed;
        }
        {
          ScopedSpan replay(&log.tracer, "server.setstats", root, request);
          MirrorSetStats(req);
        }
        log.tracer.End(root);
        continue;
      }
      Response resp;
      int64_t a = NowNs();
      bool ok = Exchange(&stack_, req.shape, &resp);
      int64_t b = NowNs();
      log.tracer.Add(config_.over_tcp ? "server.roundtrip" : "request.service",
                     a, b, root, request);
      traced_us.push_back(static_cast<double>(b - a) / 1e3);
      if (config_.over_tcp) {
        log.response_bytes.push_back(
            static_cast<double>(ResponseBytes(resp.blob, resp.stats_json)));
      }
      // The client's own checks and count bookkeeping: a span of their own,
      // so the request span's self time is what no span accounts for.
      OptimizeResult r;
      bool checked;
      {
        ScopedSpan verify(&log.tracer, "bench.verify", root, request);
        checked = ok && Check(req.shape, &resp, &r);
        if (checked && static_cast<int>(request) < config_.count_window) {
          counts[1].Add(r, BlobBytes(resp, r));
        }
      }
      if (!checked) {
        ++out_.failed;
        log.tracer.End(root);
        continue;
      }
      ReplayInput in;
      in.request = request;
      in.parent = root;
      in.entry = &config_.shapes[static_cast<size_t>(req.shape)];
      in.query = &current_[static_cast<size_t>(req.shape)];
      in.result = &r;
      // In process, the replay sends the request over the mirror's socket.
      in.roundtrip_us = config_.over_tcp ? static_cast<double>(b - a) / 1e3 : -1;
      if (!config_.churn &&
          request % kNoOpSetStatsEvery == kNoOpSetStatsEvery - 1) {
        in.is_set_stats = true;
        in.set_stats = {kSession, in.entry->spec, 0,
                        in.query->catalog().relation(0).cardinality};
      }
      ReplayServing(in, &mirror_, &log);
      if (r.stats.cache_tier == 0 || request % kDpReplayEvery == 0) {
        ReplayPlanner(in, -1, &log);
      }
      log.tracer.End(root);
    }
    if (static_cast<int>(request) <= config_.count_window) {
      after = ReadCacheCounters(&stack_);
    }

    double ratio_log_sum = 0;
    uint64_t ratio_n = 0;
    out_.failed += VerifyServed(&ratio_log_sum, &ratio_n);
    // serve_churn's counts move with L2 write-behind timing (when a fresh
    // record becomes visible), so it reports them with their spread.
    if (!config_.churn && !(counts[0] == counts[1])) {
      out_.Fail("per-layer counts differ between two runs of the stream: " +
                counts[0].Json() + " vs " + counts[1].Json());
    }
    out_.metrics = LayerMetrics(log, counts[1], before, after,
                                Median(traced_us) - Median(untraced_us));
    PrintSelfTimeTable(log.tracer);
    log.tracer.WriteJsonl(args_.scratch + "/spans.jsonl");
    out_.meta += ",\"counts\":" + counts[1].Json() +
                 ",\"count_spread\":" + CountSpreadJson(counts[0], counts[1]) +
                 ",\"traced_requests\":" + std::to_string(request);
  }

  const Args& args_;
  const ServeConfig& config_;
  Outcome out_;
  std::string error_;
  std::vector<double> setup_s_;
  std::vector<Query> originals_;
  // Client-side mirror of the session's statistics: one query per shape,
  // its version bumped by each SetStats sent, and the SetStats log that
  // rebuilds any version for the untimed reference plans.
  std::vector<Query> current_;
  SetStatsSchedule writes_{originals_};
  std::vector<int> version_;
  std::vector<std::vector<Request>> set_log_;
  /// Every served (shape, version, cost, drift outcome), with its count.
  std::map<Served, uint64_t> served_;
  std::set<std::tuple<int, int, uint64_t>> validated_;
  ServeStack stack_;
  ServeStack mirror_;
};

ServeConfig HotConfig(bool over_tcp) {
  ServeConfig config;
  config.over_tcp = over_tcp;
  config.shapes = HotWorkingSet(kHotShapes);
  config.service.pool_threads = 1;
  config.zipf_theta = 1.0;
  config.setup_reps = 7;
  config.count_window = 4096;
  return config;
}

}  // namespace

Outcome RunServeHot(const Args& args) {
  return ServeRun(args, HotConfig(/*over_tcp=*/true)).Run();
}

Outcome RunServeHotLocal(const Args& args) {
  return ServeRun(args, HotConfig(/*over_tcp=*/false)).Run();
}

Outcome RunServeChurn(const Args& args) {
  ServeConfig config;
  config.churn = true;
  config.over_tcp = false;
  config.shapes = ChurnWorkingSet(kChurnShapes);
  config.service.pool_threads = 1;
  config.service.cache_capacity = kChurnL1Capacity;
  config.service.drift_tolerance = kChurnDriftTolerance;
  config.zipf_theta = 0.5;
  config.setup_reps = 3;
  config.count_window = 2048;
  return ServeRun(args, config).Run();
}

}  // namespace perfbench

#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/tranad_detector.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "net/client.h"
#include "net/server.h"
#include "replay.h"
#include "report.h"
#include "serve/shard_router.h"
#include "serve_load.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"
#include "trace.h"

namespace perfbench {
namespace {

using tranad::Tensor;
using tranad::TimeSeries;
using tranad::TranADDetector;

struct WorkloadSpec {
  std::string name;
  tranad::SyntheticConfig data;
  std::string pot_profile;  // PotParamsForDataset name
  tranad::TranADConfig model;
  tranad::TrainOptions train;
  int setups = 3;  // set-ups per untraced run; setup_s is their median
  // Length of one measured round; an untraced run has --seconds /
  // round_seconds rounds (at least three).
  double round_seconds = 4.0;
  // Pins the whole process (server and load) to the first `cpus` CPUs;
  // 0 leaves it unpinned. On one CPU every hand-off between the threads of
  // a request is a context switch on a CPU that is already running, never
  // the wake-up of a halted vCPU, whose cost varies with how busy the host
  // is.
  int64_t cpus = 0;
  // Shares of --seconds for the measured phases.
  double train_share = 0.0;  // extra fits after set-up
  double score_share = 0.1;  // offline ScoreSeries
  int64_t score_rows = 0;    // rows of the test split scored; 0 = all
  double open_share = 0.45;
  double closed_share = 0.45;
  // The fleet.
  int64_t streams = 1;
  // Stream s calibrates on test rows [s * spacing, s * spacing + calib_len)
  // -- its recent history -- and then streams the rows that follow, so the
  // served rows come from the same regime as its calibration.
  int64_t calib_len = 64;
  int64_t spacing = 16;
  int64_t max_steps = 4000;  // rows per stream before the split wraps
  bool socket = false;
  int64_t shards = 1;
  int64_t workers = 1;
  int64_t max_batch = 32;
  int64_t max_wait_us = 200;
  OpenLoopSpec open;
  ClosedLoopSpec closed;
  int64_t kernel_batch = 32;  // batch the tensor kernels are replayed at
  std::vector<int64_t> verify;  // streams replayed sequentially
};

// Paper hyperparameters (TranADConfig defaults: K = 10, one encoder layer,
// one head per dimension) at the SMAP dimensionality m = 25. Synchronous
// bursts fill batches of 32, so the batched forward dominates; the net layer
// is bypassed. Its fits (batch 32) are the trainer workload.
WorkloadSpec FleetBurst() {
  WorkloadSpec w;
  w.name = "fleet_burst";
  w.data = tranad::SmapConfig(1.0);
  w.data.dims = 25;
  w.data.train_len = 400;
  w.pot_profile = "SMAP";
  w.train.max_epochs = 1;
  w.round_seconds = 7.5;
  w.train_share = 0.15;
  w.score_share = 0.15;
  w.score_rows = 256;
  w.open_share = 0.3;
  w.closed_share = 0.4;
  w.streams = 128;
  w.calib_len = 120;
  w.spacing = 8;
  w.max_steps = 2000;
  w.shards = 2;
  w.workers = 1;
  // Two sampling phases per tick: each burst of 64 rows gives each shard
  // about one full batch, and a 1 ms formation wait lets the burst land
  // before the batch forms. With every stream in one burst the latency
  // median fell between the first and second batch of a shard and moved
  // with how the burst happened to split.
  w.max_wait_us = 1000;
  w.open.tick_ms = 75.0;
  w.open.phases = 2;
  w.closed.callers = 1;
  w.closed.depth = 256;
  w.kernel_batch = 32;
  w.verify = {0, 41, 86, 127};
  return w;
}

// Univariate streams over one loopback connection: batches stay at 1-4
// rows, so framing, syscalls, admission, batcher wake-ups, ordered
// completion and per-op bookkeeping dominate, not attention arithmetic.
WorkloadSpec SocketTrickle() {
  WorkloadSpec w;
  w.name = "socket_trickle";
  w.data = tranad::NabConfig(1.0);
  w.data.train_len = 800;
  w.data.trend = 0.0;
  w.pot_profile = "NAB";
  w.train.max_epochs = 2;
  w.train_share = 0.1;
  w.score_share = 0.15;
  w.score_rows = 1024;
  w.open_share = 0.35;
  w.closed_share = 0.4;
  w.streams = 16;
  w.calib_len = 600;
  w.socket = true;
  w.shards = 1;
  w.workers = 2;
  w.cpus = 1;
  w.open.poisson = true;
  w.open.rate_per_s = 1000.0;
  w.open.spin_ns = 0;
  w.closed.callers = 4;
  w.closed.depth = 1;
  w.kernel_batch = 1;
  w.verify = {0, 5, 10, 15};
  return w;
}

WorkloadSpec SpecFor(const std::string& name, double seconds) {
  WorkloadSpec w = name == "fleet_burst" ? FleetBurst() : SocketTrickle();
  // A fixed epoch count: early stopping never trips.
  w.train.early_stop_patience = w.train.max_epochs + 1;
  w.data.test_len = w.calib_len + (w.streams - 1) * w.spacing + w.max_steps;
  w.open.seconds = seconds * w.open_share;
  w.closed.seconds = seconds * w.closed_share;
  return w;
}

// Pins the calling thread to the next CPU in turn for its lifetime, then
// restores the thread's mask. Each vCPU of this host switches, every few
// seconds, between two speeds about 1.5x apart for this memory-bound code,
// independently of the others; a single-threaded phase that the scheduler
// keeps on one vCPU measures that vCPU's spells, one that visits every CPU
// in turn measures their average. No thread may be created while pinned:
// it would inherit the one-CPU mask.
class RotatingPin {
 public:
  RotatingPin() {
    static std::atomic<int64_t> next{0};
    const int64_t cores =
        std::max<int64_t>(1, std::thread::hardware_concurrency());
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(static_cast<int>(next.fetch_add(1) % cores), &one);
    pinned_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
              sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~RotatingPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  RotatingPin(const RotatingPin&) = delete;
  RotatingPin& operator=(const RotatingPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

bool FiniteFit(const tranad::TrainStats& stats) {
  for (double v : stats.train_losses) {
    if (!std::isfinite(v)) return false;
  }
  for (double v : stats.val_losses) {
    if (!std::isfinite(v)) return false;
  }
  return stats.skipped_non_finite == 0;
}

// One set-up: data, fit, fleet start and every stream's calibration.
struct Fleet {
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    if (client) client->Close();
    if (server) server->Stop();
    if (router) router->Stop();
  }

  tranad::Dataset data;
  std::unique_ptr<TranADDetector> detector;
  std::unique_ptr<TracingDetector> tracer;
  std::unique_ptr<tranad::serve::ShardRouter> router;
  std::unique_ptr<tranad::net::NetServer> server;
  std::unique_ptr<tranad::net::NetClient> client;
  std::vector<TimeSeries> calibration;
  TimeSeries scored;  // what the offline phase scores
  double setup_s = 0.0;
  double fit_s = 0.0;
  double calibrate_s = 0.0;
  int64_t streams_failed = 0;
};

// Registers and calibrates every stream (closing it first when `reopen`);
// returns how many failed. In-process streams are registered from one thread
// per core, as an operator bringing up a fleet would; the client's RPCs are
// one at a time.
int64_t OpenStreams(const WorkloadSpec& spec, Fleet& f, bool reopen) {
  const int64_t threads =
      spec.socket ? 1
                  : static_cast<int64_t>(std::thread::hardware_concurrency());
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> creators;
  for (int64_t t = 0; t < threads; ++t) {
    creators.emplace_back([&, t] {
      for (int64_t s = t; s < spec.streams; s += threads) {
        const TimeSeries& cal = f.calibration[static_cast<size_t>(s)];
        tranad::Status st;
        if (reopen) {
          st = spec.socket ? f.client->CloseStream(StreamKey(s))
                           : f.router->CloseStream(StreamKey(s));
        }
        if (st.ok()) {
          st = spec.socket ? f.client->CreateStream(StreamKey(s), cal.values)
                           : f.router->CreateStream(StreamKey(s), cal);
        }
        if (!st.ok()) failed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : creators) t.join();
  return failed.load();
}

std::unique_ptr<Fleet> BuildFleet(const WorkloadSpec& spec, uint64_t seed,
                                  bool traced, RequestLog* log) {
  auto f = std::make_unique<Fleet>();
  const int64_t t0 = NowNs();
  tranad::SyntheticConfig data = spec.data;
  data.seed = seed;
  f->data = tranad::GenerateSynthetic(data);
  f->scored.name = "scored";
  f->scored.values =
      spec.score_rows > 0 && spec.score_rows < f->data.test.length()
          ? tranad::SliceAxis(f->data.test.values, 0, 0, spec.score_rows)
          : f->data.test.values;
  f->detector = std::make_unique<TranADDetector>(spec.model, spec.train);
  {
    RotatingPin pin;
    const int64_t tf = NowNs();
    f->detector->Fit(f->data.train);
    f->fit_s = static_cast<double>(NowNs() - tf) / 1e9;
  }

  tranad::ServableDetector* served = f->detector.get();
  if (traced) {
    f->tracer = std::make_unique<TracingDetector>(served);
    served = f->tracer.get();
  }
  tranad::serve::ShardRouterOptions options;
  options.num_shards = spec.shards;
  options.shard.num_workers = spec.workers;
  options.shard.max_batch = spec.max_batch;
  options.shard.max_wait_us = spec.max_wait_us;
  options.shard.pot = tranad::PotParamsForDataset(spec.pot_profile);
  f->router = std::make_unique<tranad::serve::ShardRouter>(served, options);
  if (spec.socket) {
    f->server = std::make_unique<tranad::net::NetServer>(f->router.get());
    f->client = std::make_unique<tranad::net::NetClient>();
    f->client->set_verdict_handler(
        [log](const tranad::net::WireVerdict& v) { log->CompleteWire(v); });
    if (!f->server->Start().ok() ||
        !f->client->Connect("127.0.0.1", f->server->port()).ok()) {
      f->streams_failed = spec.streams;
      return f;
    }
  }

  const int64_t tc = NowNs();
  for (int64_t s = 0; s < spec.streams; ++s) {
    TimeSeries cal;
    cal.name = "calibration";
    cal.values = tranad::SliceAxis(f->data.test.values, 0, s * spec.spacing,
                                   spec.calib_len);
    f->calibration.push_back(std::move(cal));
  }
  f->streams_failed = OpenStreams(spec, *f, false);
  f->calibrate_s = static_cast<double>(NowNs() - tc) / 1e9;
  f->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return f;
}

bool SameFloatBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

std::vector<int64_t> HistDelta(const tranad::serve::ServeStatsSnapshot& a,
                               const tranad::serve::ServeStatsSnapshot& b) {
  std::vector<int64_t> d = b.latency_hist;
  for (size_t i = 0; i < d.size() && i < a.latency_hist.size(); ++i) {
    d[i] -= a.latency_hist[i];
  }
  return d;
}

// ---- Traced-run attribution ---------------------------------------------

// Links each request of a phase to the batch that scored it: batches in
// formation order take, row by row, the earliest request already sent whose
// raw row has the same bits.
std::vector<int64_t> LinkRequests(const RequestLog& log, const PhaseRange& r,
                                  const std::vector<BatchRecord>& batches) {
  std::vector<int64_t> batch_of(static_cast<size_t>(r.end - r.begin), -1);
  std::vector<int64_t> order;
  for (int64_t i = r.begin; i < r.end; ++i) {
    if (log.slot(i).state.load() != SlotState::kRefused) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return log.slot(a).send_ns < log.slot(b).send_ns;
  });
  std::vector<size_t> formed(batches.size());
  std::iota(formed.begin(), formed.end(), 0);
  std::sort(formed.begin(), formed.end(), [&](size_t a, size_t b) {
    return batches[a].norm_start_ns < batches[b].norm_start_ns;
  });
  std::unordered_map<uint64_t, std::deque<int64_t>> waiting;
  size_t next = 0;
  for (size_t bi : formed) {
    const BatchRecord& b = batches[bi];
    while (next < order.size() &&
           log.slot(order[next]).send_ns <= b.norm_start_ns) {
      waiting[log.slot(order[next]).row_hash].push_back(order[next]);
      ++next;
    }
    for (uint64_t h : b.row_hashes) {
      auto it = waiting.find(h);
      if (it == waiting.end() || it->second.empty()) continue;
      batch_of[static_cast<size_t>(it->second.front() - r.begin)] =
          static_cast<int64_t>(bi);
      it->second.pop_front();
    }
  }
  return batch_of;
}

// When each batch's completion started. In-process, that is the batch's
// first verdict callback. Over the socket the callbacks are the server's,
// so it is inferred from the ordered-completion rule: a batch completes
// after it is scored and after the batch its engine formed before it.
std::vector<int64_t> CompletionStarts(const RequestLog& log,
                                      const PhaseRange& r,
                                      const std::vector<BatchRecord>& batches,
                                      const std::vector<int64_t>& batch_of,
                                      bool engine_callbacks,
                                      std::vector<int64_t>* last_callback) {
  std::vector<int64_t> start(batches.size(), 0);
  last_callback->assign(batches.size(), 0);
  if (engine_callbacks) {
    for (int64_t i = r.begin; i < r.end; ++i) {
      const int64_t b = batch_of[static_cast<size_t>(i - r.begin)];
      const RequestSlot& s = log.slot(i);
      if (b < 0 || s.state.load() != SlotState::kOk) continue;
      int64_t& first = start[static_cast<size_t>(b)];
      if (first == 0 || s.verdict_ns < first) first = s.verdict_ns;
      int64_t& last = (*last_callback)[static_cast<size_t>(b)];
      last = std::max(last, s.verdict_ns);
    }
    return start;
  }
  std::unordered_map<uint64_t, int64_t> done;  // per engine
  std::vector<size_t> formed(batches.size());
  std::iota(formed.begin(), formed.end(), 0);
  std::sort(formed.begin(), formed.end(), [&](size_t a, size_t b) {
    return batches[a].norm_start_ns < batches[b].norm_start_ns;
  });
  for (size_t bi : formed) {
    const BatchRecord& b = batches[bi];
    if (b.score_end_ns == 0) continue;
    int64_t& prev = done[b.batcher];
    start[bi] = std::max(b.score_end_ns, prev);
    prev = start[bi];
  }
  return start;
}

struct TraceInputs {
  const RequestLog* log = nullptr;
  PhaseRange open;
  std::vector<BatchRecord> open_batches;
  PhaseRange closed;
  std::vector<BatchRecord> closed_batches;
  bool engine_callbacks = true;
  int64_t total_workers = 1;
  tranad::serve::ServeStatsSnapshot open0, open1, closed0, closed1;
  tranad::ArenaStats arena0, arena1;
};

void AddServeTraceMetrics(const TraceInputs& in, Report* report,
                          std::vector<Span>* spans) {
  const RequestLog& log = *in.log;
  const bool cb = in.engine_callbacks;
  std::vector<double> admit_us, queue_ms, dispatch_ms, completion_ms;
  std::vector<double> normalize_us;
  auto walk = [&](const PhaseRange& r, const std::vector<BatchRecord>& batches,
                  bool stage_stats, std::vector<double>* per_obs_us,
                  double* busy_ns, int64_t* rows) {
    const std::vector<int64_t> batch_of = LinkRequests(log, r, batches);
    std::vector<int64_t> last_cb;
    const std::vector<int64_t> comp =
        CompletionStarts(log, r, batches, batch_of, cb, &last_cb);
    for (size_t bi = 0; bi < batches.size(); ++bi) {
      const BatchRecord& b = batches[bi];
      normalize_us.push_back(
          static_cast<double>(b.norm_end_ns - b.norm_start_ns) / 1e3);
      if (b.score_end_ns == 0) continue;
      *busy_ns += static_cast<double>(b.score_end_ns - b.score_start_ns);
      *rows += b.rows;
      if (cb && b.rows >= 2 && last_cb[bi] > comp[bi]) {
        per_obs_us->push_back(static_cast<double>(last_cb[bi] - comp[bi]) /
                              1e3 / static_cast<double>(b.rows - 1));
      }
    }
    for (int64_t i = r.begin; i < r.end; ++i) {
      const int64_t bi = batch_of[static_cast<size_t>(i - r.begin)];
      const RequestSlot& s = log.slot(i);
      if (bi < 0 || s.state.load() != SlotState::kOk) continue;
      const BatchRecord& b = batches[static_cast<size_t>(bi)];
      if (b.score_end_ns == 0) continue;
      const int64_t c = comp[static_cast<size_t>(bi)];
      if (stage_stats) {
        if (cb) admit_us.push_back(static_cast<double>(s.sent_ns - s.send_ns) / 1e3);
        queue_ms.push_back(static_cast<double>(b.norm_start_ns - s.sent_ns) / 1e6);
        dispatch_ms.push_back(
            static_cast<double>(b.score_start_ns - b.norm_start_ns) / 1e6);
        completion_ms.push_back(static_cast<double>(c - b.score_end_ns) / 1e6);
      }
      const int64_t id = i;
      const int64_t root = r.name == "open_loop" ? s.sched_ns : s.send_ns;
      spans->push_back({id, "request", nullptr, root, s.verdict_ns});
      spans->push_back({id, cb ? "serve.admit" : "net.client_submit",
                        "request", s.send_ns, s.sent_ns});
      spans->push_back(
          {id, "serve.queue_wait", "request", s.sent_ns, b.norm_start_ns});
      spans->push_back({id, "serve.dispatch_wait", "request", b.norm_start_ns,
                        b.score_start_ns});
      spans->push_back({id, "core.normalize", "serve.dispatch_wait",
                        b.norm_start_ns, b.norm_end_ns});
      spans->push_back({id, "core.score_windows", "request", b.score_start_ns,
                        b.score_end_ns});
      spans->push_back(
          {id, "serve.completion_wait", "request", b.score_end_ns, c});
      spans->push_back({id, cb ? "serve.callback" : "net.verdict_return",
                        "request", c, s.verdict_ns});
    }
  };

  std::vector<double> open_per_obs, closed_per_obs;
  double open_busy = 0.0, closed_busy = 0.0;
  int64_t open_rows = 0, closed_rows = 0;
  walk(in.open, in.open_batches, true, &open_per_obs, &open_busy, &open_rows);
  walk(in.closed, in.closed_batches, false, &closed_per_obs, &closed_busy,
       &closed_rows);

  int64_t closed_batches = 0;
  for (const BatchRecord& b : in.closed_batches) {
    if (b.score_end_ns != 0) ++closed_batches;
  }
  const double wall_ns =
      static_cast<double>(in.closed.stop_ns - in.closed.start_ns);
  const std::vector<int64_t> closed_hist = HistDelta(in.closed0, in.closed1);

  report->Add("serve.admit_us_p50", Quantile(admit_us, 0.5), "us");
  report->Add("serve.admit_us_p99", Quantile(admit_us, 0.99), "us");
  report->Add("serve.queue_wait_ms_p50", Quantile(queue_ms, 0.5), "ms");
  report->Add("serve.queue_wait_ms_p99", Quantile(queue_ms, 0.99), "ms");
  report->Add("serve.dispatch_wait_ms_p50", Quantile(dispatch_ms, 0.5), "ms");
  report->Add("serve.dispatch_wait_ms_p99", Quantile(dispatch_ms, 0.99), "ms");
  report->Add("serve.completion_wait_ms_p50", Quantile(completion_ms, 0.5),
              "ms");
  report->Add("serve.completion_wait_ms_p99", Quantile(completion_ms, 0.99),
              "ms");
  report->Add("serve.completion_us_per_obs", Median(closed_per_obs), "us");
  report->Add("serve.batch_size_mean",
              closed_batches > 0 ? static_cast<double>(closed_rows) /
                                       static_cast<double>(closed_batches)
                                 : 0.0,
              "count");
  report->Add("serve.batches", static_cast<double>(closed_batches), "count");
  report->Add("serve.worker_busy_frac",
              closed_busy / (wall_ns * static_cast<double>(in.total_workers)),
              "frac");
  report->Add("serve.engine_latency_ms_p50",
              tranad::serve::LatencyHistPercentileMs(closed_hist, 0.5), "ms");
  report->Add("serve.engine_latency_ms_p99",
              tranad::serve::LatencyHistPercentileMs(closed_hist, 0.99), "ms");
  report->Add("core.normalize_us_per_batch", Median(normalize_us), "us");

  const int64_t allocs = (in.arena1.hits + in.arena1.misses) -
                         (in.arena0.hits + in.arena0.misses);
  const int64_t misses = in.arena1.misses - in.arena0.misses;
  report->Add("tensor.arena_allocs_per_window",
              closed_rows > 0 ? static_cast<double>(allocs) /
                                    static_cast<double>(closed_rows)
                              : 0.0,
              "count");
  report->Add("tensor.arena_miss_ratio",
              allocs > 0 ? static_cast<double>(misses) /
                               static_cast<double>(allocs)
                         : 0.0,
              "frac");
  report->Add("tensor.arena_peak_live_mb",
              static_cast<double>(in.arena1.bytes_peak_live) / 1048576.0,
              "MiB");
}

// ---- The run -------------------------------------------------------------

void RecordConfig(const RunArgs& args, const WorkloadSpec& spec,
                  Report* report) {
  namespace k = tranad::kernels;
  report->Config("workload", spec.name);
  report->Config("seed", static_cast<int64_t>(args.seed));
  report->Config("seconds", std::to_string(args.seconds));
  report->Config("trace", args.trace ? 1 : 0);
  report->Config("build_type", PERFBENCH_BUILD_TYPE);
  report->Config("commit", args.commit);
  report->Config("source_digest", args.source_digest);
  report->Config("host_nproc",
                 static_cast<int64_t>(std::thread::hardware_concurrency()));
  report->Config("kernel_mode", k::KernelModeName());
  report->Config("kernel_isa", k::KernelIsaName());
  report->Config("kernel_lanes", static_cast<int64_t>(k::KernelLanes()));
  report->Config("compute_pool", tranad::NumComputeThreads());
  report->Config("pinned_cpus", spec.cpus);
  report->Config("dims", spec.data.dims);
  report->Config("window", spec.model.window);
  report->Config("epochs_per_fit", spec.train.max_epochs);
  report->Config("scored_rows", spec.score_rows);
  report->Config("train_batch", spec.train.batch_size);
  report->Config("streams", spec.streams);
  report->Config("transport", spec.socket ? "loopback NetClient/NetServer"
                                          : "in-process ShardRouter");
  report->Config("shards", spec.shards);
  report->Config("workers", spec.workers);
  report->Config("max_batch", spec.max_batch);
  report->Config("max_wait_us", spec.max_wait_us);
  report->Config("open_loop",
                 spec.open.poisson
                     ? "poisson " + std::to_string(spec.open.rate_per_s) +
                           " obs/s"
                     : "tick " + std::to_string(spec.open.tick_ms) +
                           " ms x " + std::to_string(spec.streams) +
                           " streams in " + std::to_string(spec.open.phases) +
                           " phases");
  report->Config("closed_loop", std::to_string(spec.closed.callers) +
                                    " callers x " +
                                    std::to_string(spec.closed.depth) +
                                    " in flight");
}

int64_t OpenLoopCount(const WorkloadSpec& spec) {
  if (spec.open.poisson) {
    return static_cast<int64_t>(spec.open.rate_per_s * spec.open.seconds * 1.5) +
           1000;
  }
  return (static_cast<int64_t>(spec.open.seconds * 1e3 / spec.open.tick_ms) +
          1) *
         spec.streams;
}

// What the run's metrics are computed from. Rates are totals over the whole
// run -- work done over the time it took -- not medians of per-call rates:
// this host's vCPUs switch, every few seconds, between two speeds about
// 1.5x apart, so a median of per-call rates jumps between the two modes as
// the share of slow time crosses one half, while the total moves with it
// in proportion. The per-call rates are kept as notes.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> epochs_per_s;
  std::vector<double> seconds_per_epoch;
  std::vector<double> windows_per_s;
  double epochs = 0.0, fit_s = 0.0;
  double windows = 0.0, score_s = 0.0;
};

void RecordFit(const tranad::TrainStats& stats, double wall_s,
               Samples* samples, Phase* fits) {
  samples->epochs_per_s.push_back(static_cast<double>(stats.epochs_run) /
                                  wall_s);
  samples->epochs += static_cast<double>(stats.epochs_run);
  samples->fit_s += wall_s;
  samples->seconds_per_epoch.push_back(stats.seconds_per_epoch);
  ++fits->sent;
  (FiniteFit(stats) ? fits->ok : fits->failed) += 1;
}

// Sets up `spec.setups` times (once when traced) and keeps the last fleet.
std::unique_ptr<Fleet> SetUp(const WorkloadSpec& spec, const RunArgs& args,
                             RequestLog* log, Samples* samples, Phase* fits,
                             Report* report) {
  Phase creates{"create_stream"};
  std::unique_ptr<Fleet> fleet;
  const int setups = args.trace ? 1 : spec.setups;
  for (int i = 0; i < setups; ++i) {
    fleet.reset();
    fleet = BuildFleet(spec, args.seed, args.trace, log);
    samples->setup_s.push_back(fleet->setup_s);
    RecordFit(fleet->detector->train_stats(), fleet->fit_s, samples, fits);
    creates.sent += spec.streams;
    creates.ok += spec.streams - fleet->streams_failed;
    creates.failed += fleet->streams_failed;
  }
  report->AddPhase(creates);
  return fleet;
}

// More fits with the same fixed epoch count, for `seconds` (at least one).
void FitAgain(const WorkloadSpec& spec, const Fleet& fleet, double seconds,
              Samples* samples, Phase* fits) {
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    TranADDetector extra(spec.model, spec.train);
    RotatingPin pin;
    const int64_t t0 = NowNs();
    extra.Fit(fleet.data.train);
    RecordFit(extra.train_stats(), static_cast<double>(NowNs() - t0) / 1e9,
              samples, fits);
  } while (NowNs() < stop);
}

// Offline ScoreSeries (the `tranad_cli score` path) over the scored part of
// the test split, repeated for `seconds` (at least once); returns the last
// scores.
Tensor ScoreOffline(const Fleet& fleet, double seconds, Samples* samples,
                    Phase* score) {
  Tensor scores;
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    RotatingPin pin;
    const int64_t t0 = NowNs();
    scores = fleet.detector->ScoreSeries(fleet.scored);
    const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    const auto windows = static_cast<double>(fleet.scored.length());
    samples->windows_per_s.push_back(windows / wall_s);
    samples->windows += windows;
    samples->score_s += wall_s;
    ++score->sent;
    ++score->ok;
  } while (NowNs() < stop);
  return scores;
}

// ScoreSeries must equal per-window ScoreWindows on a sample of windows.
void CheckScoreSeries(const TranADDetector& detector, const Tensor& windows,
                      const Tensor& series_scores, uint64_t seed,
                      Report* report) {
  const int64_t m = detector.dims();
  Phase check{"score_check"};
  tranad::Rng pick(seed ^ 0x5C0DEULL);
  for (int i = 0; i < 8; ++i) {
    const int64_t w = static_cast<int64_t>(
        pick.UniformInt(static_cast<uint64_t>(windows.size(0))));
    const Tensor one = detector.ScoreWindows(tranad::SliceAxis(windows, 0, w, 1));
    ++check.sent;
    if (SameFloatBits(one.data(), series_scores.data() + w * m, m)) {
      ++check.ok;
    } else {
      ++report->mismatches;
    }
  }
  report->AddPhase(check);
}

// The core and nn replays, and the cross-check of the forward split against
// the ROADMAP re-anchor (measured at m = 25, B = 32: context encoder about a
// third of the forward, window encoder about two thirds, and the attention
// split below).
void AddLayerMetrics(const WorkloadSpec& spec, const Fleet& fleet,
                     const Tensor& test_windows, const Samples& samples,
                     Report* report) {
  const TranADDetector& detector = *fleet.detector;
  const tranad::TranADConfig& config = detector.model()->config();
  ReplayScoreWindows(detector, test_windows, 1, report);
  ReplayScoreWindows(detector, test_windows, 32, report);
  report->Add("core.calibrate_ms_per_stream",
              fleet.calibrate_s * 1e3 / static_cast<double>(spec.streams),
              "ms");
  report->Add("core.fit_s", fleet.fit_s, "s");
  report->Add("core.score_series_us_per_window",
              samples.score_s * 1e6 / samples.windows, "us");

  ReplayModelLayers(config, 1, report);
  const std::vector<double> layers = ReplayModelLayers(config, 32, report);
  const std::vector<double> attn = ReplayAttention(config, 32, report);
  ReplayKernels(config, spec.kernel_batch, report);

  constexpr double kTolerance = 0.10;  // absolute share
  const double forward = std::accumulate(layers.begin(), layers.end(), 0.0);
  std::vector<double> shares = {layers[1] / forward, layers[2] / forward};
  std::vector<double> anchor = {1.0 / 3.0, 2.0 / 3.0};
  const double attn_total = std::accumulate(attn.begin(), attn.end(), 0.0);
  for (double t : attn) shares.push_back(t / attn_total);
  for (double a : {0.26, 0.085, 0.12, 0.26, 0.155, 0.03, 0.09}) {
    anchor.push_back(a);
  }
  double worst = 0.0;
  for (size_t i = 0; i < shares.size(); ++i) {
    worst = std::max(worst, std::fabs(shares[i] - anchor[i]));
  }
  report->Samples(
      "split.b32.context/window|qkv/heads/qk/softmax/av/merge/out", shares);
  report->Note("split.max_abs_deviation_from_anchor", std::to_string(worst));
  report->Note("split.check",
               std::string(worst <= kTolerance ? "reproduces" : "differs from") +
                   " the m=25 B=32 anchor within 0.10 (dims=" +
                   std::to_string(config.dims) + ")");
}

// Each verified stream's POT, initialized as its session was, over the
// scores that stream was served.
void AddPotMetrics(const WorkloadSpec& spec, const Fleet& fleet,
                   const RequestLog& log, Report* report) {
  std::vector<std::vector<double>> calibration_scores, served_scores;
  for (int64_t s : spec.verify) {
    calibration_scores.push_back(tranad::DetectionScores(
        fleet.detector->ScoreSeries(fleet.calibration[static_cast<size_t>(s)])));
    served_scores.emplace_back();
    for (int64_t i = 0; i < log.size(); ++i) {
      const RequestSlot& slot = log.slot(i);
      if (slot.stream == s && slot.state.load() == SlotState::kOk) {
        served_scores.back().push_back(slot.score);
      }
    }
  }
  ReplayPot(tranad::PotParamsForDataset(spec.pot_profile), calibration_scores,
            served_scores, report);
}

}  // namespace

bool IsKnownWorkload(const std::string& name) {
  return name == "fleet_burst" || name == "socket_trickle";
}

int RunWorkload(const RunArgs& args) {
  const WorkloadSpec spec = SpecFor(args.workload, args.seconds);
  const int64_t cores =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  if (spec.cpus > 0) {
    // Before any thread exists, so every thread inherits the mask.
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int64_t c = 0; c < std::min(spec.cpus, cores); ++c) CPU_SET(c, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) {
      std::perror("perfbench: sched_setaffinity");
      return 1;
    }
  }
  // A one-lane compute pool keeps each worker's forward inline, so the
  // engine's workers are the only parallelism and no op waits on a
  // descheduled pool thread; fits and offline scoring run on it too.
  tranad::SetNumComputeThreads(1);
  const int64_t m = spec.data.dims;
  Report report;
  RecordConfig(args, spec, &report);

  const int64_t closed_loops = args.trace ? 2 : 1;
  const int64_t capacity =
      OpenLoopCount(spec) +
      closed_loops * static_cast<int64_t>(spec.closed.seconds * 40000.0) + 1024;
  RequestLog log(capacity, m, spec.streams, spec.closed.callers, spec.verify);

  Samples samples;
  Phase fits{"fit"}, score{"score_series"};
  std::unique_ptr<Fleet> fleet =
      SetUp(spec, args, &log, &samples, &fits, &report);
  TranADDetector& detector = *fleet->detector;

  StreamRows rows;
  rows.test = &fleet->data.test;
  for (int64_t s = 0; s < spec.streams; ++s) {
    rows.offset.push_back(s * spec.spacing + spec.calib_len);
  }
  std::unique_ptr<Transport> transport;
  if (spec.socket) {
    transport = std::make_unique<SocketTransport>(fleet->client.get(), m);
  } else {
    transport = std::make_unique<RouterTransport>(fleet->router.get(), &log, m);
  }
  LoadDriver driver(&log, transport.get(), &rows, spec.streams, m, args.seed);
  TracingDetector* tracer = fleet->tracer.get();
  tranad::serve::ShardRouter& router = *fleet->router;
  TraceInputs trace;
  trace.log = &log;
  trace.engine_callbacks = transport->engine_callbacks();
  trace.total_workers = spec.shards * spec.workers;

  // The measured part runs in rounds -- fits, offline scoring, open loop,
  // closed loop -- so every phase samples the host's slow and fast spells
  // across the whole run. A traced run has one round whose closed loop runs
  // once disarmed and once armed.
  const int rounds =
      args.trace ? 1
                 : std::max(3, static_cast<int>(std::lround(
                                   args.seconds / spec.round_seconds)));
  const double share_s = args.seconds / rounds;
  OpenLoopSpec open_spec = spec.open;
  open_spec.seconds /= rounds;
  ClosedLoopSpec closed_spec = spec.closed;
  closed_spec.seconds /= rounds;
  closed_spec.warmup_seconds = std::min(0.5, 0.1 * closed_spec.seconds);
  std::vector<PhaseRange> opens, closeds;
  Tensor series_scores;
  Phase reopens{"reopen_stream"};
  double reopen_s = 0.0;
  for (int r = 0; r < rounds; ++r) {
    // Every round after the first closes and recalibrates every stream and
    // serves its rows from the first again, so each round starts from the
    // same stream state. Otherwise each stream's POT tail refits over every
    // peak it has seen, completion slows through the run, and how much it
    // slows depends on how fast the earlier rounds ran.
    if (r > 0) {
      const int64_t t0 = NowNs();
      const int64_t failed = OpenStreams(spec, *fleet, true);
      reopen_s += static_cast<double>(NowNs() - t0) / 1e9;
      reopens.sent += spec.streams;
      reopens.ok += spec.streams - failed;
      reopens.failed += failed;
      driver.Restart();
    }
    FitAgain(spec, *fleet, share_s * spec.train_share, &samples, &fits);
    series_scores =
        ScoreOffline(*fleet, share_s * spec.score_share, &samples, &score);
    trace.open0 = router.stats();
    if (tracer) tracer->Arm(true);
    opens.push_back(driver.RunOpenLoop("open_loop", open_spec));
    if (tracer) {
      tracer->Arm(false);
      trace.open_batches = tracer->TakeBatches();
    }
    trace.open1 = router.stats();
    closeds.push_back(driver.RunClosedLoop("closed_loop", closed_spec));
  }
  trace.open = opens.back();
  if (tracer) {
    trace.closed0 = router.stats();
    trace.arena0 = tranad::TensorArena::Global().stats();
    tracer->Arm(true);
    trace.closed = driver.RunClosedLoop("closed_loop_traced", closed_spec);
    tracer->Arm(false);
    trace.arena1 = tranad::TensorArena::Global().stats();
    trace.closed1 = router.stats();
    trace.closed_batches = tracer->TakeBatches();
  }
  report.AddPhase(reopens);
  report.AddPhase(fits);
  report.AddPhase(score);
  report.Note("reopen_s", std::to_string(reopen_s));
  const Tensor test_windows = tranad::MakeWindows(
      detector.NormalizeForScoring(fleet->scored.values), spec.model.window);
  CheckScoreSeries(detector, test_windows, series_scores, args.seed, &report);

  // Open-loop percentiles over every round's requests pooled, and
  // closed-loop capacity as Ok verdicts over measured time summed over
  // rounds; the per-round figures are kept as notes.
  std::vector<double> p50s, p99s, capacities;
  PhaseStats pooled;
  double open_wall_ms = 0.0;
  int64_t capacity_ok = 0, capacity_ns = 0;
  Phase open_phase{"open_loop"}, closed_phase{"closed_loop"};
  for (int r = 0; r < rounds; ++r) {
    const PhaseRange& o = opens[static_cast<size_t>(r)];
    const PhaseStats st = CollectPhase(log, o, true);
    const double wall_ms = static_cast<double>(o.stop_ns - o.start_ns) / 1e6;
    p50s.push_back(LatencyPercentile(st, 0.5, wall_ms));
    p99s.push_back(LatencyPercentile(st, 0.99, wall_ms));
    pooled.latency_ms.insert(pooled.latency_ms.end(), st.latency_ms.begin(),
                             st.latency_ms.end());
    open_wall_ms += wall_ms;
    open_phase.sent += st.sent;
    open_phase.ok += st.ok;
    open_phase.failed += st.failed;
    const PhaseRange& c = closeds[static_cast<size_t>(r)];
    const PhaseStats ct = CollectPhase(log, c, false);
    capacities.push_back(CapacityPerSecond(log, c, 0.25));
    capacity_ok += OkInWindow(log, c);
    capacity_ns += c.stop_ns - c.measure_from_ns;
    closed_phase.sent += ct.sent;
    closed_phase.ok += ct.ok;
    closed_phase.failed += ct.failed;
  }
  report.AddPhase(open_phase);
  report.AddPhase(closed_phase);
  if (tracer) {
    const PhaseStats t = CollectPhase(log, trace.closed, false);
    report.AddPhase({trace.closed.name, t.sent, t.ok, t.failed});
  }
  report.Note("open_loop_p99_tail_samples",
              std::to_string(open_phase.sent / 100));
  // Every verdict of the verified streams must equal a sequential replay.
  int64_t checked = 0;
  const int64_t mismatched = VerifyAgainstReplay(
      log, rows, &detector, tranad::PotParamsForDataset(spec.pot_profile),
      fleet->calibration, spec.verify, !spec.socket, &checked);
  report.AddPhase({"verify_replay", checked, checked - mismatched, 0});
  report.mismatches += mismatched;

  report.Samples("samples.setup_s", samples.setup_s);
  report.Samples("samples.train_epochs_per_s", samples.epochs_per_s);
  report.Samples("samples.score_windows_per_s", samples.windows_per_s);
  report.Samples("samples.verdict_p50_ms", p50s);
  report.Samples("samples.verdict_p99_ms", p99s);
  report.Samples("samples.capacity_obs_per_s", capacities);
  if (!args.trace) {
    report.Add("setup_s", Median(samples.setup_s), "s");
    report.Add("verdict_p50_ms", LatencyPercentile(pooled, 0.5, open_wall_ms),
               "ms");
    // Reported, not gated: see perfbench/README.md (host stalls).
    report.Note("verdict_p99_ms",
                std::to_string(LatencyPercentile(pooled, 0.99, open_wall_ms)));
    report.Add("capacity_obs_per_s",
               static_cast<double>(capacity_ok) * 1e9 /
                   static_cast<double>(capacity_ns),
               "obs/s");
    report.Add("train_epochs_per_s", samples.epochs / samples.fit_s, "1/s");
    report.Add("score_windows_per_s", samples.windows / samples.score_s,
               "1/s");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    const PhaseStats open_stats = CollectPhase(log, trace.open, true);
    const double open_wall_ms =
        static_cast<double>(trace.open.stop_ns - trace.open.start_ns) / 1e6;
    std::vector<Span> spans;
    AddServeTraceMetrics(trace, &report, &spans);
    AddLayerMetrics(spec, *fleet, test_windows, samples, &report);
    if (spec.socket) {
      const PhaseStats round_trip = CollectPhase(log, trace.open, false);
      report.Add("net.client_submit_us_p50",
                 Quantile(open_stats.submit_us, 0.5), "us");
      report.Add("net.client_submit_us_p99",
                 Quantile(open_stats.submit_us, 0.99), "us");
      report.Add("net.wire_overhead_ms_p50",
                 LatencyPercentile(round_trip, 0.5, open_wall_ms) -
                     tranad::serve::LatencyHistPercentileMs(
                         HistDelta(trace.open0, trace.open1), 0.5),
                 "ms");
    } else {  // no wire on the in-process workloads
      report.Add("net.client_submit_us_p50", 0.0, "us");
      report.Add("net.client_submit_us_p99", 0.0, "us");
      report.Add("net.wire_overhead_ms_p50", 0.0, "ms");
    }
    ReplayCodec(m, &report);
    AddPotMetrics(spec, *fleet, log, &report);
    report.Add("train.seconds_per_epoch", Median(samples.seconds_per_epoch),
               "s");
    ReplayTrainStep(
        detector.model()->config(),
        tranad::MakeWindows(
            detector.NormalizeForScoring(fleet->data.train.values),
            spec.model.window),
        spec.train.batch_size, &report);
    report.Add("bench.gen_lag_ms_p99", Quantile(open_stats.gen_lag_ms, 0.99),
               "ms");
    const double capacity_traced = CapacityPerSecond(log, trace.closed, 0.25);
    report.Add("bench.trace_overhead_frac",
               capacities[0] > 0 ? 1.0 - capacity_traced / capacities[0] : 0.0,
               "frac");
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/" + spec.name + ".spans.jsonl";
      report.Note("spans", WriteSpans(path, spans) ? path : "write failed");
    }
  }
  fleet.reset();

  const std::string detail = report.DetailJson();
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "%s\n", detail.c_str());
      std::fclose(f);
    }
  }
  std::printf("perfbench-detail %s\n", detail.c_str());
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

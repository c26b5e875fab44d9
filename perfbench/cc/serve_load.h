// Load generation against a serving fleet: per-request records, the
// in-process and socket transports, the open-loop (scheduled) and
// closed-loop (fixed in-flight window) phases, and the sequential replay
// that checks every verdict of a stream subset bit for bit.
#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/online_detector.h"
#include "data/time_series.h"
#include "eval/pot.h"
#include "net/client.h"
#include "serve/shard_router.h"

namespace perfbench {

enum class SlotState : uint8_t { kPending, kOk, kRefused, kFailedVerdict };

struct RequestSlot {
  int32_t stream = 0;
  int32_t caller = 0;
  int64_t step = 0;
  int64_t sched_ns = 0;    // when it was due to be sent
  int64_t send_ns = 0;     // Submit call entered
  int64_t sent_ns = 0;     // Submit call returned
  int64_t verdict_ns = 0;  // verdict received
  uint64_t row_hash = 0;
  double score = 0.0;
  double threshold = 0.0;
  int64_t dim_offset = -1;  // into RequestLog::dim_pool, verified streams only
  bool anomalous = false;
  std::atomic<SlotState> state{SlotState::kPending};
};

// Preallocated request records; verdict callbacks only store into slots.
class RequestLog {
 public:
  RequestLog(int64_t capacity, int64_t dims, int64_t streams,
             int64_t num_callers, std::vector<int64_t> verify_streams);

  int64_t capacity() const { return capacity_; }
  int64_t size() const { return next_.load(std::memory_order_acquire); }
  // Claims the next slot; -1 when the log is full.
  int64_t Claim(int32_t stream, int32_t caller, int64_t step);
  RequestSlot& slot(int64_t i) { return slots_[static_cast<size_t>(i)]; }
  const RequestSlot& slot(int64_t i) const {
    return slots_[static_cast<size_t>(i)];
  }
  // Dim scores of a verified request; nullptr when none were recorded.
  const float* dims_of(int64_t i) const {
    if (slots_[static_cast<size_t>(i)].dim_offset < 0) return nullptr;
    return dim_pool_.data() + slots_[static_cast<size_t>(i)].dim_offset;
  }

  void Complete(int64_t i, const tranad::OnlineVerdict& v);
  void CompleteWire(const tranad::net::WireVerdict& v);
  void Refuse(int64_t i);
  // Completed requests of one caller (verdicts and refusals).
  int64_t done(int32_t caller) const {
    return done_[static_cast<size_t>(caller)]->n.load(
        std::memory_order_acquire);
  }
  // Blocks until done(caller) != seen or the timeout passes.
  void WaitDone(int32_t caller, int64_t seen, int64_t timeout_ms) const;

 private:
  void Finish(int64_t i);

  int64_t capacity_;
  int64_t dims_;
  std::vector<RequestSlot> slots_;
  std::vector<float> dim_pool_;
  std::vector<char> verify_;  // per stream
  std::atomic<int64_t> next_{0};
  std::atomic<int64_t> next_dim_{0};
  struct DoneCounter {
    std::atomic<int64_t> n{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  std::vector<std::unique_ptr<DoneCounter>> done_;
};

// Where requests go. Send() returns the admission status.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual tranad::Status Send(int64_t idx, uint64_t key, const float* row) = 0;
  // True when verdict_ns is the engine's callback time (in-process).
  virtual bool engine_callbacks() const = 0;
};

class RouterTransport : public Transport {
 public:
  RouterTransport(tranad::serve::ShardRouter* router, RequestLog* log,
                  int64_t dims)
      : router_(router), log_(log), dims_(dims) {}
  tranad::Status Send(int64_t idx, uint64_t key, const float* row) override;
  bool engine_callbacks() const override { return true; }

 private:
  tranad::serve::ShardRouter* router_;
  RequestLog* log_;
  int64_t dims_;
};

class SocketTransport : public Transport {
 public:
  SocketTransport(tranad::net::NetClient* client, int64_t dims)
      : client_(client), dims_(dims) {}
  tranad::Status Send(int64_t idx, uint64_t key, const float* row) override {
    return client_->Submit(key, static_cast<uint64_t>(idx), row, dims_);
  }
  bool engine_callbacks() const override { return false; }

 private:
  tranad::net::NetClient* client_;
  int64_t dims_;
};

// Row source: stream s, step t reads test row (offset[s] + t) mod length.
struct StreamRows {
  const tranad::TimeSeries* test = nullptr;
  std::vector<int64_t> offset;
  const float* row(int64_t s, int64_t t) const;
};

inline uint64_t StreamKey(int64_t s) { return 1000 + static_cast<uint64_t>(s); }

struct OpenLoopSpec {
  bool poisson = false;
  double tick_ms = 0.0;       // fixed tick: every stream sends once per tick
  // Sampling phases within a tick: stream s sends at tick offset
  // (s % phases) * tick_ms / phases, so each burst holds streams / phases
  // rows.
  int64_t phases = 1;
  double rate_per_s = 0.0;    // poisson: aggregate arrival rate
  double seconds = 0.0;
  // The generator sleeps until this long before each arrival, then spins,
  // so its wake-up jitter does not show up as verdict latency. 0 on a
  // process pinned to one CPU, where a spinning generator would hold the
  // CPU the server needs.
  int64_t spin_ns = 100000;
};

struct ClosedLoopSpec {
  int64_t callers = 1;  // caller threads; stream s belongs to s % callers
  int64_t depth = 1;    // outstanding requests per caller
  double seconds = 0.0;
  double warmup_seconds = 0.0;  // excluded from the capacity window
};

// [begin, end) slot range of one phase plus its wall-clock window.
struct PhaseRange {
  std::string name;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t start_ns = 0;
  int64_t stop_ns = 0;
  int64_t measure_from_ns = 0;
};

class LoadDriver {
 public:
  LoadDriver(RequestLog* log, Transport* transport, const StreamRows* rows,
             int64_t streams, int64_t dims, uint64_t seed);

  // Every stream's next row becomes its first again (after its stream was
  // reopened with the same calibration).
  void Restart();
  PhaseRange RunOpenLoop(const std::string& name, const OpenLoopSpec& spec);
  PhaseRange RunClosedLoop(const std::string& name, const ClosedLoopSpec& spec);

 private:
  int64_t SendOne(int64_t stream, int32_t caller, int64_t sched_ns);
  void AwaitRange(int64_t begin, int64_t end, int64_t timeout_ms);

  RequestLog* log_;
  Transport* transport_;
  const StreamRows* rows_;
  int64_t streams_;
  int64_t dims_;
  uint64_t seed_;
  uint64_t open_loops_ = 0;  // varies the arrival draw between phases
  std::vector<int64_t> next_step_;  // per stream
};

struct PhaseStats {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;  // failures count as missing (+inf)
  std::vector<double> gen_lag_ms;
  std::vector<double> submit_us;
};

// Latency from the scheduled send time when `from_schedule`, else from the
// Submit call; failed or unanswered requests read +inf.
PhaseStats CollectPhase(const RequestLog& log, const PhaseRange& range,
                        bool from_schedule);
// Percentile that treats +inf as missing the limit; a percentile landing on
// a failure reads as the phase's wall time.
double LatencyPercentile(const PhaseStats& stats, double q, double wall_ms);
// Ok verdicts per second: median over equal slices of the measured window.
double CapacityPerSecond(const RequestLog& log, const PhaseRange& range,
                         double slice_s);

// Ok verdicts received inside the phase's measured window
// [measure_from_ns, stop_ns).
int64_t OkInWindow(const RequestLog& log, const PhaseRange& range);

// Replays the verified streams through a sequential WindowedOnlineDetector
// (same calibration, same admitted observations in the same order) and
// counts verdicts that differ in any bit. For socket verdicts dim_scores are
// not on the wire; with m = 1 the single dim score equals the score.
int64_t VerifyAgainstReplay(const RequestLog& log, const StreamRows& rows,
                            tranad::ServableDetector* detector,
                            const tranad::PotParams& pot,
                            const std::vector<tranad::TimeSeries>& calibration,
                            const std::vector<int64_t>& verify_streams,
                            bool has_dim_scores, int64_t* checked);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_

#include "serve_load.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "common/rng.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

using tranad::OnlineVerdict;
using tranad::Status;
using tranad::Tensor;

RequestLog::RequestLog(int64_t capacity, int64_t dims, int64_t streams,
                       int64_t num_callers, std::vector<int64_t> verify_streams)
    : capacity_(capacity), dims_(dims), slots_(static_cast<size_t>(capacity)) {
  int64_t max_stream = 0;
  for (int64_t s : verify_streams) max_stream = std::max(max_stream, s);
  verify_.assign(static_cast<size_t>(max_stream + 1), 0);
  for (int64_t s : verify_streams) verify_[static_cast<size_t>(s)] = 1;
  // Verified streams take their share of the traffic (round-robin or
  // uniform arrivals); the pool holds twice that share.
  const int64_t share =
      capacity * static_cast<int64_t>(verify_streams.size()) * 2 /
          std::max<int64_t>(streams, 1) +
      4096;
  dim_pool_.assign(static_cast<size_t>(std::min(share, capacity) * dims),
                   0.0f);
  for (int64_t c = 0; c < num_callers; ++c) {
    done_.push_back(std::make_unique<DoneCounter>());
  }
}

int64_t RequestLog::Claim(int32_t stream, int32_t caller, int64_t step) {
  const int64_t i = next_.fetch_add(1, std::memory_order_acq_rel);
  if (i >= capacity_) {
    next_.fetch_sub(1, std::memory_order_acq_rel);
    return -1;
  }
  RequestSlot& s = slots_[static_cast<size_t>(i)];
  s.stream = stream;
  s.caller = caller;
  s.step = step;
  s.dim_offset = -1;
  if (static_cast<size_t>(stream) < verify_.size() &&
      verify_[static_cast<size_t>(stream)]) {
    const int64_t off = next_dim_.fetch_add(dims_, std::memory_order_relaxed);
    if (off + dims_ <= static_cast<int64_t>(dim_pool_.size())) {
      s.dim_offset = off;
    }
  }
  return i;
}

void RequestLog::Finish(int64_t i) {
  DoneCounter& d = *done_[static_cast<size_t>(slots_[static_cast<size_t>(i)]
                                                  .caller)];
  d.n.fetch_add(1, std::memory_order_acq_rel);
  { std::lock_guard<std::mutex> lock(d.mu); }
  d.cv.notify_all();
}

void RequestLog::Complete(int64_t i, const OnlineVerdict& v) {
  RequestSlot& s = slots_[static_cast<size_t>(i)];
  s.verdict_ns = NowNs();
  if (v.status.ok()) {
    s.score = v.score;
    s.threshold = v.threshold;
    s.anomalous = v.anomalous;
    if (s.dim_offset >= 0) {
      std::memcpy(dim_pool_.data() + s.dim_offset, v.dim_scores.data(),
                  static_cast<size_t>(dims_) * sizeof(float));
    }
    s.state.store(SlotState::kOk, std::memory_order_release);
  } else {
    s.state.store(SlotState::kFailedVerdict, std::memory_order_release);
  }
  Finish(i);
}

void RequestLog::CompleteWire(const tranad::net::WireVerdict& v) {
  const int64_t i = static_cast<int64_t>(v.tag);
  if (i < 0 || i >= size()) return;  // not ours: counted as missing
  RequestSlot& s = slots_[static_cast<size_t>(i)];
  s.verdict_ns = NowNs();
  if (v.status.ok()) {
    s.score = v.score;
    s.threshold = v.threshold;
    s.anomalous = v.anomalous;
    s.state.store(SlotState::kOk, std::memory_order_release);
  } else {
    s.state.store(SlotState::kFailedVerdict, std::memory_order_release);
  }
  Finish(i);
}

void RequestLog::Refuse(int64_t i) {
  slots_[static_cast<size_t>(i)].state.store(SlotState::kRefused,
                                             std::memory_order_release);
  Finish(i);
}

void RequestLog::WaitDone(int32_t caller, int64_t seen,
                          int64_t timeout_ms) const {
  DoneCounter& d = *done_[static_cast<size_t>(caller)];
  std::unique_lock<std::mutex> lock(d.mu);
  d.cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return d.n.load(std::memory_order_acquire) != seen;
  });
}

Status RouterTransport::Send(int64_t idx, uint64_t key, const float* row) {
  Tensor obs({dims_});
  std::copy(row, row + dims_, obs.data());
  RequestLog* log = log_;
  return router_->Submit(
      key, obs,
      [log, idx](tranad::serve::StreamId, int64_t, const OnlineVerdict& v) {
        log->Complete(idx, v);
      });
}

const float* StreamRows::row(int64_t s, int64_t t) const {
  const int64_t len = test->length();
  const int64_t m = test->dims();
  return test->values.data() +
         ((offset[static_cast<size_t>(s)] + t) % len) * m;
}

LoadDriver::LoadDriver(RequestLog* log, Transport* transport,
                       const StreamRows* rows, int64_t streams, int64_t dims,
                       uint64_t seed)
    : log_(log),
      transport_(transport),
      rows_(rows),
      streams_(streams),
      dims_(dims),
      seed_(seed),
      next_step_(static_cast<size_t>(streams), 0) {}

void LoadDriver::Restart() {
  std::fill(next_step_.begin(), next_step_.end(), 0);
}

int64_t LoadDriver::SendOne(int64_t stream, int32_t caller, int64_t sched_ns) {
  const int64_t step = next_step_[static_cast<size_t>(stream)];
  const int64_t idx =
      log_->Claim(static_cast<int32_t>(stream), caller, step);
  if (idx < 0) return -1;
  ++next_step_[static_cast<size_t>(stream)];
  RequestSlot& slot = log_->slot(idx);
  const float* row = rows_->row(stream, step);
  slot.row_hash = HashFloats(row, dims_);
  slot.sched_ns = sched_ns;
  slot.send_ns = NowNs();
  const Status status = transport_->Send(idx, StreamKey(stream), row);
  slot.sent_ns = NowNs();
  if (!status.ok()) log_->Refuse(idx);
  return idx;
}

void LoadDriver::AwaitRange(int64_t begin, int64_t end, int64_t timeout_ms) {
  const int64_t deadline = NowNs() + timeout_ms * 1000000;
  int64_t cursor = begin;
  while (cursor < end && NowNs() < deadline) {
    if (log_->slot(cursor).state.load(std::memory_order_acquire) !=
        SlotState::kPending) {
      ++cursor;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

PhaseRange LoadDriver::RunOpenLoop(const std::string& name,
                                   const OpenLoopSpec& spec) {
  // The whole arrival schedule is drawn before the phase starts, so the
  // generator only sleeps and sends.
  std::vector<std::pair<int64_t, int64_t>> schedule;  // (offset ns, stream)
  const int64_t span_ns = static_cast<int64_t>(spec.seconds * 1e9);
  if (spec.poisson) {
    tranad::Rng rng(seed_ ^ (0x0A11CEULL + open_loops_));
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.Uniform()) / spec.rate_per_s;
      const int64_t off = static_cast<int64_t>(t * 1e9);
      if (off >= span_ns) break;
      schedule.emplace_back(
          off, static_cast<int64_t>(rng.UniformInt(
                   static_cast<uint64_t>(streams_))));
    }
  } else {
    const int64_t tick_ns = static_cast<int64_t>(spec.tick_ms * 1e6);
    const int64_t phases = std::max<int64_t>(1, spec.phases);
    for (int64_t off = 0; off < span_ns; off += tick_ns) {
      for (int64_t p = 0; p < phases; ++p) {
        for (int64_t s = p; s < streams_; s += phases) {
          schedule.emplace_back(off + p * tick_ns / phases, s);
        }
      }
    }
  }
  ++open_loops_;
  PhaseRange range;
  range.name = name;
  range.begin = log_->size();
  range.start_ns = NowNs() + 1000000;
  range.measure_from_ns = range.start_ns;
  range.stop_ns = range.start_ns + span_ns;
  for (const auto& [off, stream] : schedule) {
    const int64_t due = range.start_ns + off;
    if (NowNs() < due - spec.spin_ns) {
      std::this_thread::sleep_until(TimePointOf(due - spec.spin_ns));
    }
    while (NowNs() < due) {
    }
    if (SendOne(stream, 0, due) < 0) break;
  }
  range.end = log_->size();
  AwaitRange(range.begin, range.end, 30000);
  return range;
}

PhaseRange LoadDriver::RunClosedLoop(const std::string& name,
                                     const ClosedLoopSpec& spec) {
  PhaseRange range;
  range.name = name;
  range.begin = log_->size();
  range.start_ns = NowNs();
  range.measure_from_ns =
      range.start_ns + static_cast<int64_t>(spec.warmup_seconds * 1e9);
  range.stop_ns = range.start_ns + static_cast<int64_t>(spec.seconds * 1e9);
  std::vector<std::thread> callers;
  for (int64_t c = 0; c < spec.callers; ++c) {
    callers.emplace_back([this, &spec, &range, c] {
      const auto caller = static_cast<int32_t>(c);
      std::vector<int64_t> mine;
      for (int64_t s = c; s < streams_; s += spec.callers) mine.push_back(s);
      if (mine.empty()) return;
      const int64_t base = log_->done(caller);
      int64_t sent = 0;
      size_t rr = 0;
      bool full = false;
      while (!full && NowNs() < range.stop_ns) {
        while (sent - (log_->done(caller) - base) < spec.depth &&
               NowNs() < range.stop_ns) {
          if (SendOne(mine[rr++ % mine.size()], caller, NowNs()) < 0) {
            full = true;
            break;
          }
          ++sent;
        }
        const int64_t seen = log_->done(caller);
        if (sent - (seen - base) >= spec.depth) {
          log_->WaitDone(caller, seen, 50);
        }
      }
      // Drain this caller's outstanding requests.
      const int64_t deadline = NowNs() + 30000000000LL;
      while (log_->done(caller) - base < sent && NowNs() < deadline) {
        log_->WaitDone(caller, log_->done(caller), 50);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  range.end = log_->size();
  return range;
}

PhaseStats CollectPhase(const RequestLog& log, const PhaseRange& range,
                        bool from_schedule) {
  PhaseStats st;
  const double inf = std::numeric_limits<double>::infinity();
  for (int64_t i = range.begin; i < range.end; ++i) {
    const RequestSlot& s = log.slot(i);
    ++st.sent;
    st.gen_lag_ms.push_back(static_cast<double>(s.send_ns - s.sched_ns) / 1e6);
    st.submit_us.push_back(static_cast<double>(s.sent_ns - s.send_ns) / 1e3);
    if (s.state.load(std::memory_order_acquire) == SlotState::kOk) {
      ++st.ok;
      const int64_t from = from_schedule ? s.sched_ns : s.send_ns;
      st.latency_ms.push_back(static_cast<double>(s.verdict_ns - from) / 1e6);
    } else {
      ++st.failed;
      st.latency_ms.push_back(inf);
    }
  }
  return st;
}

double LatencyPercentile(const PhaseStats& stats, double q, double wall_ms) {
  if (stats.latency_ms.empty()) return wall_ms;
  std::vector<double> v = stats.latency_ms;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  if (!std::isfinite(v[hi])) return wall_ms;
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double CapacityPerSecond(const RequestLog& log, const PhaseRange& range,
                         double slice_s) {
  const int64_t window = range.stop_ns - range.measure_from_ns;
  const int64_t slice_ns = static_cast<int64_t>(slice_s * 1e9);
  const int64_t slices = std::max<int64_t>(1, window / slice_ns);
  std::vector<double> counts(static_cast<size_t>(slices), 0.0);
  for (int64_t i = range.begin; i < range.end; ++i) {
    const RequestSlot& s = log.slot(i);
    if (s.state.load(std::memory_order_acquire) != SlotState::kOk) continue;
    const int64_t at = s.verdict_ns - range.measure_from_ns;
    if (at < 0) continue;
    const int64_t k = at / slice_ns;
    if (k < slices) counts[static_cast<size_t>(k)] += 1.0;
  }
  for (double& c : counts) c /= slice_s;
  return Median(counts);
}

int64_t OkInWindow(const RequestLog& log, const PhaseRange& range) {
  int64_t n = 0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const RequestSlot& s = log.slot(i);
    if (s.state.load(std::memory_order_acquire) == SlotState::kOk &&
        s.verdict_ns >= range.measure_from_ns && s.verdict_ns < range.stop_ns) {
      ++n;
    }
  }
  return n;
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

}  // namespace

int64_t VerifyAgainstReplay(const RequestLog& log, const StreamRows& rows,
                            tranad::ServableDetector* detector,
                            const tranad::PotParams& pot,
                            const std::vector<tranad::TimeSeries>& calibration,
                            const std::vector<int64_t>& verify_streams,
                            bool has_dim_scores, int64_t* checked) {
  const int64_t m = detector->dims();
  int64_t mismatches = 0;
  *checked = 0;
  for (int64_t s : verify_streams) {
    // A step that does not follow the previous one starts a reopened
    // stream: the replay recalibrates, as the fleet did.
    std::unique_ptr<tranad::WindowedOnlineDetector> online;
    int64_t last_step = -1;
    Tensor row({m});
    for (int64_t i = 0; i < log.size(); ++i) {
      const RequestSlot& slot = log.slot(i);
      if (slot.stream != s) continue;
      if (slot.step <= last_step) online.reset();
      last_step = slot.step;
      if (!online) {
        online = std::make_unique<tranad::WindowedOnlineDetector>(detector, pot);
        if (!online->Calibrate(calibration[static_cast<size_t>(s)]).ok()) {
          ++mismatches;
          break;
        }
      }
      const SlotState state = slot.state.load(std::memory_order_acquire);
      // A refused observation never entered the stream; anything admitted
      // did, whether or not its verdict arrived.
      if (state == SlotState::kRefused) continue;
      const float* raw = rows.row(s, slot.step);
      std::copy(raw, raw + m, row.data());
      const OnlineVerdict want = online->Observe(row);
      if (state != SlotState::kOk) continue;  // already counted as failed
      ++*checked;
      bool same = SameBits(want.score, slot.score) &&
                  SameBits(want.threshold, slot.threshold) &&
                  want.anomalous == slot.anomalous;
      if (has_dim_scores) {
        const float* got = log.dims_of(i);
        same = same && got != nullptr && SameBits(want.dim_scores.data(), got, m);
      } else if (m == 1) {
        const auto got = static_cast<float>(slot.score);
        same = same && SameBits(want.dim_scores.data(), &got, 1);
      }
      if (!same) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace perfbench

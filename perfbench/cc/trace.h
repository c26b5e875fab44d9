// Tracing from outside the program: a ServableDetector decorator that
// stamps every micro-batch the serving engine forms and scores, and the
// span records the traced run writes when it ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/servable_detector.h"

namespace perfbench {

// FNV-1a over the bytes of n floats, chained from `h`.
uint64_t HashFloats(const float* v, int64_t n,
                    uint64_t h = 1469598103934665603ULL);

// One micro-batch as seen at the detector seam. The engine calls
// NormalizeForScoring on its batcher thread when it forms a batch and
// ScoreWindows on a worker thread; the two calls are linked by a hash of
// the normalized rows, which reappear as the last row of each window.
struct BatchRecord {
  int64_t rows = 0;
  uint64_t batcher = 0;       // batcher thread, i.e. which engine formed it
  int64_t norm_start_ns = 0;  // batch formed (NormalizeForScoring entry)
  int64_t norm_end_ns = 0;
  int64_t score_start_ns = 0;  // ScoreWindows entry (0: never scored)
  int64_t score_end_ns = 0;
  uint64_t key = 0;               // hash of the normalized rows
  std::vector<uint64_t> row_hashes;  // raw rows, in batch order
};

class TracingDetector : public tranad::ServableDetector {
 public:
  explicit TracingDetector(tranad::ServableDetector* inner) : inner_(inner) {}

  // Records batches only while armed; disarmed, each call costs one relaxed
  // load on top of the forwarded call.
  void Arm(bool on) { armed_.store(on, std::memory_order_relaxed); }
  // Returns the batches recorded so far (in formation order) and clears.
  std::vector<BatchRecord> TakeBatches();

  std::string method() const override { return inner_->method(); }
  int64_t window() const override { return inner_->window(); }
  int64_t dims() const override { return inner_->dims(); }
  tranad::Tensor NormalizeForScoring(const tranad::Tensor& raw) const override;
  tranad::Tensor ScoreWindows(const tranad::Tensor& windows) const override;
  tranad::Tensor ScoreSeries(const tranad::TimeSeries& series) const override {
    return inner_->ScoreSeries(series);
  }
  void FreezeForInference() override { inner_->FreezeForInference(); }

 private:
  tranad::ServableDetector* inner_;
  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  mutable std::vector<BatchRecord> batches_;
  // key -> indices of formed batches not yet scored, oldest first.
  mutable std::unordered_map<uint64_t, std::vector<size_t>> unscored_;
};

struct Span {
  int64_t id = 0;  // request id, shared by all spans of one request
  const char* name = "";
  const char* parent = nullptr;  // nullptr for the root span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Writes spans as JSON lines; returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

#include "trace.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "report.h"

namespace perfbench {

uint64_t HashFloats(const float* v, int64_t n, uint64_t h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v);
  const size_t len = static_cast<size_t>(n) * sizeof(float);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<BatchRecord> TracingDetector::TakeBatches() {
  std::lock_guard<std::mutex> lock(mu_);
  unscored_.clear();
  return std::move(batches_);
}

tranad::Tensor TracingDetector::NormalizeForScoring(
    const tranad::Tensor& raw) const {
  if (!armed_.load(std::memory_order_relaxed)) {
    return inner_->NormalizeForScoring(raw);
  }
  const int64_t start = NowNs();
  tranad::Tensor out = inner_->NormalizeForScoring(raw);
  const int64_t end = NowNs();
  const int64_t b = raw.ndim() == 2 ? raw.size(0) : 1;
  const int64_t m = raw.numel() / b;
  BatchRecord rec;
  rec.rows = b;
  rec.batcher = std::hash<std::thread::id>()(std::this_thread::get_id());
  rec.norm_start_ns = start;
  rec.norm_end_ns = end;
  rec.key = HashFloats(out.data(), out.numel());
  rec.row_hashes.reserve(static_cast<size_t>(b));
  for (int64_t i = 0; i < b; ++i) {
    rec.row_hashes.push_back(HashFloats(raw.data() + i * m, m));
  }
  std::lock_guard<std::mutex> lock(mu_);
  unscored_[rec.key].push_back(batches_.size());
  batches_.push_back(std::move(rec));
  return out;
}

tranad::Tensor TracingDetector::ScoreWindows(
    const tranad::Tensor& windows) const {
  if (!armed_.load(std::memory_order_relaxed)) {
    return inner_->ScoreWindows(windows);
  }
  const int64_t start = NowNs();
  const int64_t b = windows.size(0);
  const int64_t k = windows.size(1);
  const int64_t m = windows.size(2);
  uint64_t key = 1469598103934665603ULL;
  for (int64_t i = 0; i < b; ++i) {
    key = HashFloats(windows.data() + (i * k + k - 1) * m, m, key);
  }
  tranad::Tensor out = inner_->ScoreWindows(windows);
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = unscored_.find(key);
  if (it != unscored_.end() && !it->second.empty()) {
    BatchRecord& rec = batches_[it->second.front()];
    it->second.erase(it->second.begin());
    rec.score_start_ns = start;
    rec.score_end_ns = end;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\": %lld, \"name\": \"%s\", \"parent\": %s%s%s, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                 static_cast<long long>(s.id), s.name,
                 s.parent ? "\"" : "", s.parent ? s.parent : "null",
                 s.parent ? "\"" : "", static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

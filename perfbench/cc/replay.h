// Per-layer replays for the traced run. Each replays one layer through its
// public API at the shapes the workload actually ran and adds the layer's
// metrics to the report. Times are medians over repeated calls.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "core/servable_detector.h"
#include "core/tranad_model.h"
#include "eval/pot.h"
#include "report.h"

namespace perfbench {

// core.score_us_per_window.b<batch>: ScoreWindows on `batch` real windows.
void ReplayScoreWindows(const tranad::ServableDetector& detector,
                        const tranad::Tensor& windows, int64_t batch,
                        Report* report);

// nn.{pos_encoding,context_encoder,window_encoder,decoders}_us.b<batch>:
// the modules of one two-phase forward, per window. Returns the four
// per-window times in that order.
std::vector<double> ReplayModelLayers(const tranad::TranADConfig& config,
                                      int64_t batch, Report* report);

// nn.attn.*_us: one masked MultiHeadAttention call split into its ag::
// ops, per window at `batch`. Returns the seven per-window times in order.
std::vector<double> ReplayAttention(const tranad::TranADConfig& config,
                                    int64_t batch, Report* report);

// tensor.{matmul,softmax,layernorm}_{ns,gflop_per_s,gb_per_s} at the
// workload's batch. The FLOPs and bytes behind the rates are computed from
// tensor sizes, not measured; they are recorded as notes.
void ReplayKernels(const tranad::TranADConfig& config, int64_t batch,
                   Report* report);

// net.frame_codec_ns and net.bytes_per_obs for one submit + verdict frame.
void ReplayCodec(int64_t dims, Report* report);

// eval.pot_observe_ns: StreamingPot::Observe, one POT per stream
// initialized on calibration[i], over the scores stream i was served.
void ReplayPot(const tranad::PotParams& params,
               const std::vector<std::vector<double>>& calibration,
               const std::vector<std::vector<double>>& scores,
               Report* report);

// train.{forward,backward,optimizer}_ms_per_batch and
// train.arena_allocs_per_batch: adversarial training steps at `batch`.
void ReplayTrainStep(const tranad::TranADConfig& config,
                     const tranad::Tensor& windows, int64_t batch,
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_

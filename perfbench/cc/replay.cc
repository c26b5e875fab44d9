#include "replay.h"

#include <cmath>
#include <string>

#include "net/wire.h"
#include "nn/attention.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/positional_encoding.h"
#include "nn/transformer.h"
#include "tensor/arena.h"
#include "tensor/autograd_ops.h"
#include "tensor/tensor_ops.h"

namespace perfbench {

using tranad::Rng;
using tranad::Tensor;
using tranad::TranADConfig;
using tranad::Variable;
namespace ag = tranad::ag;

namespace {

// Median wall time of fn() in ns, after one warm-up call; at least
// `min_iters` calls, then more while the budget lasts.
template <typename Fn>
double MedianNs(Fn&& fn, int min_iters = 5, int64_t budget_ns = 40000000) {
  fn();
  std::vector<double> samples;
  const int64_t stop = NowNs() + budget_ns;
  while (static_cast<int>(samples.size()) < min_iters ||
         (NowNs() < stop && samples.size() < 20000)) {
    const int64_t start = NowNs();
    fn();
    samples.push_back(static_cast<double>(NowNs() - start));
  }
  return Median(samples);
}

int64_t Heads(const TranADConfig& c) {
  return c.num_heads > 0 ? c.num_heads : c.dims;
}

int64_t ArenaAllocs() {
  const tranad::ArenaStats s = tranad::TensorArena::Global().stats();
  return s.hits + s.misses;
}

std::string BatchSuffix(int64_t batch) { return ".b" + std::to_string(batch); }

}  // namespace

void ReplayScoreWindows(const tranad::ServableDetector& detector,
                        const Tensor& windows, int64_t batch, Report* report) {
  const int64_t b = std::min(batch, windows.size(0));
  const Tensor slice = tranad::SliceAxis(windows, 0, 0, b);
  const double ns = MedianNs([&] { (void)detector.ScoreWindows(slice); });
  report->Add("core.score_us_per_window" + BatchSuffix(batch),
              ns / 1e3 / static_cast<double>(b), "us");
}

std::vector<double> ReplayModelLayers(const TranADConfig& config,
                                      int64_t batch, Report* report) {
  const int64_t m = config.dims;
  const int64_t k = config.window;
  const int64_t d = 2 * m;
  const int64_t heads = Heads(config);
  Rng rng(config.seed);
  tranad::nn::PositionalEncoding pos(d, std::max(config.max_len, k),
                                     config.dropout);
  tranad::nn::TransformerEncoder context_encoder(
      config.num_layers, d, heads, config.d_ff, config.dropout, &rng);
  tranad::nn::WindowEncoderLayer window_encoder(d, heads, config.d_ff,
                                                config.dropout, &rng);
  tranad::nn::FeedForward decoder1(d, config.d_ff, m, config.dropout, &rng);
  tranad::nn::FeedForward decoder2(d, config.d_ff, m, config.dropout, &rng);
  pos.SetTraining(false);
  context_encoder.SetTraining(false);
  window_encoder.SetTraining(false);
  decoder1.SetTraining(false);
  decoder2.SetTraining(false);

  tranad::NoGradGuard no_grad;
  const Variable window(Tensor::Rand({batch, k, m}, &rng));
  const Variable focus(Tensor::Zeros({batch, k, m}));
  const Variable scaled = ag::MulScalar(
      ag::Concat({window, focus}, -1), std::sqrt(static_cast<float>(m)));
  Variable encoded = pos.Forward(scaled, nullptr);
  Variable context = context_encoder.Forward(encoded, nullptr);
  Variable latent =
      window_encoder.Forward(encoded, context, nullptr, !config.bidirectional);
  const Variable last =
      ag::Reshape(ag::SliceAxis(latent, 1, k - 1, 1), {batch, d});

  // One two-phase forward encodes twice and decodes once per decoder.
  const double per = 1e3 * static_cast<double>(batch);
  const double t_pos =
      2.0 * MedianNs([&] { encoded = pos.Forward(scaled, nullptr); }) / per;
  const double t_ctx =
      2.0 * MedianNs([&] { context = context_encoder.Forward(encoded, nullptr); }) /
      per;
  const double t_win = 2.0 *
                       MedianNs([&] {
                         latent = window_encoder.Forward(
                             encoded, context, nullptr, !config.bidirectional);
                       }) /
                       per;
  const double t_dec = MedianNs([&] {
                         (void)ag::Sigmoid(decoder1.Forward(last, nullptr));
                         (void)ag::Sigmoid(decoder2.Forward(last, nullptr));
                       }) /
                       per;
  const std::string sfx = BatchSuffix(batch);
  report->Add("nn.pos_encoding_us" + sfx, t_pos, "us");
  report->Add("nn.context_encoder_us" + sfx, t_ctx, "us");
  report->Add("nn.window_encoder_us" + sfx, t_win, "us");
  report->Add("nn.decoders_us" + sfx, t_dec, "us");
  return {t_pos, t_ctx, t_win, t_dec};
}

std::vector<double> ReplayAttention(const TranADConfig& config, int64_t batch,
                                    Report* report) {
  const int64_t k = config.window;
  const int64_t d = 2 * config.dims;
  const int64_t h = Heads(config);
  const int64_t hd = d / h;
  Rng rng(config.seed ^ 0xA77EULL);
  tranad::nn::Linear wq(d, d, &rng), wk(d, d, &rng), wv(d, d, &rng),
      wo(d, d, &rng);
  const Tensor mask = tranad::nn::CausalMask(k);
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  tranad::NoGradGuard no_grad;
  const Variable x(Tensor::Rand({batch, k, d}, &rng));
  Variable q, kk, v, qh, kh, vh, logits, weights, ctx, merged;
  // MultiHeadAttention::Forward, one step at a time.
  auto split = [&](const Variable& t) {
    return ag::Reshape(ag::SwapAxes12(ag::Reshape(t, {batch, k, h, hd})),
                       {batch * h, k, hd});
  };
  auto proj = [&] {
    q = wq.Forward(x);
    kk = wk.Forward(x);
    v = wv.Forward(x);
  };
  auto heads = [&] {
    qh = split(q);
    kh = split(kk);
    vh = split(v);
  };
  auto qk = [&] {
    logits = ag::MulScalar(ag::MatMul(qh, ag::TransposeLast2(kh)), scale);
  };
  auto softmax = [&] {
    weights = ag::SoftmaxLastDim(ag::Add(logits, Variable(mask)));
  };
  auto av = [&] { ctx = ag::MatMul(weights, vh); };
  auto merge = [&] {
    merged = ag::Reshape(
        ag::SwapAxes12(ag::Reshape(ctx, {batch, h, k, hd})), {batch, k, d});
  };
  auto out = [&] { (void)wo.Forward(merged); };

  const double per = 1e3 * static_cast<double>(batch);
  const std::vector<double> t = {
      MedianNs(proj) / per,    MedianNs(heads) / per, MedianNs(qk) / per,
      MedianNs(softmax) / per, MedianNs(av) / per,    MedianNs(merge) / per,
      MedianNs(out) / per};
  const char* names[] = {"qkv_proj", "head_split", "qk", "mask_softmax",
                         "av",       "merge",      "out_proj"};
  for (size_t i = 0; i < t.size(); ++i) {
    report->Add(std::string("nn.attn.") + names[i] + "_us", t[i], "us");
  }
  return t;
}

namespace {

// Adds <name>_ns and the rates it implies for the computed work and bytes.
void AddKernel(const std::string& name, double ns, double flop, double bytes,
               Report* report) {
  report->Add("tensor." + name + "_ns", ns, "ns");
  report->Add("tensor." + name + "_gflop_per_s", flop / ns, "GFLOP/s");
  report->Add("tensor." + name + "_gb_per_s", bytes / ns, "GB/s");
  report->Note("tensor." + name + "_flop", std::to_string(flop));
  report->Note("tensor." + name + "_bytes", std::to_string(bytes));
}

}  // namespace

void ReplayKernels(const TranADConfig& config, int64_t batch, Report* report) {
  const int64_t k = config.window;
  const int64_t d = 2 * config.dims;
  const int64_t h = Heads(config);
  Rng rng(config.seed ^ 0x4E12ULL);

  // The Q/K/V/output projection: [B*K, d] x [d, d].
  const Tensor a = Tensor::Rand({batch * k, d}, &rng);
  const Tensor w = Tensor::Rand({d, d}, &rng);
  const double rows = static_cast<double>(batch * k);
  AddKernel("matmul", MedianNs([&] { (void)tranad::MatMul(a, w); }),
            2.0 * rows * d * d, 4.0 * (2.0 * rows * d + d * d), report);

  // Attention weights: [B*h, K, K], rows of length K. Counted as max,
  // subtract, exp, sum and divide per element, one read and one write.
  const Tensor logits = Tensor::Rand({batch * h, k, k}, &rng);
  const double n_soft = static_cast<double>(logits.numel());
  AddKernel("softmax",
            MedianNs([&] { (void)tranad::SoftmaxLastDim(logits); }),
            5.0 * n_soft, 8.0 * n_soft, report);

  // Residual LayerNorm over [B, K, d] with gain and bias. Counted as mean,
  // variance (2), normalize (2) and affine (2), rounded up to 8 per element.
  const Tensor x = Tensor::Rand({batch, k, d}, &rng);
  const Tensor gain = Tensor::Ones({d});
  const Tensor bias = Tensor::Zeros({d});
  const double n_ln = static_cast<double>(x.numel());
  AddKernel("layernorm", MedianNs([&] {
              (void)tranad::LayerNormAffineLastDim(x, gain, bias, 1e-5f);
            }),
            8.0 * n_ln, 8.0 * n_ln + 8.0 * d, report);
}

void ReplayCodec(int64_t dims, Report* report) {
  namespace net = tranad::net;
  net::WireSubmit submit;
  submit.stream_key = 1000;
  submit.tag = 42;
  submit.values.assign(static_cast<size_t>(dims), 0.5f);
  net::WireVerdict verdict;
  verdict.stream_key = 1000;
  verdict.tag = 42;
  verdict.seq = 7;
  verdict.score = 0.25;
  verdict.threshold = 0.5;
  std::vector<uint8_t> bytes;
  submit.EncodeTo(&bytes);
  verdict.EncodeTo(&bytes);
  report->Add("net.bytes_per_obs", static_cast<double>(bytes.size()), "B");

  net::FrameReader reader;
  net::WireSubmit got_submit;
  net::WireVerdict got_verdict;
  bool ok = true;
  const double ns = MedianNs([&] {
    bytes.clear();
    submit.EncodeTo(&bytes);
    verdict.EncodeTo(&bytes);
    ok = ok && reader.Feed(bytes.data(), bytes.size()).ok();
    net::FrameView view;
    bool got = false;
    ok = ok && reader.Next(&view, &got).ok() && got &&
         net::WireSubmit::Decode(view, &got_submit).ok();
    ok = ok && reader.Next(&view, &got).ok() && got &&
         net::WireVerdict::Decode(view, &got_verdict).ok();
  });
  report->Add("net.frame_codec_ns", ok ? ns : 0.0, "ns");
}

void ReplayPot(const tranad::PotParams& params,
               const std::vector<std::vector<double>>& calibration,
               const std::vector<std::vector<double>>& scores,
               Report* report) {
  int64_t observed = 0;
  int64_t elapsed = 0;
  int64_t peaks = 0;
  for (size_t i = 0; i < calibration.size() && i < scores.size(); ++i) {
    tranad::StreamingPot pot(params);
    if (!pot.Initialize(calibration[i]).ok()) continue;
    const int64_t peaks0 = pot.num_peaks();
    const int64_t start = NowNs();
    for (double score : scores[i]) (void)pot.Observe(score);
    elapsed += NowNs() - start;
    observed += static_cast<int64_t>(scores[i].size());
    peaks += pot.num_peaks() - peaks0;
  }
  // Every new peak refits the tail model.
  report->Add("eval.pot_refits_per_obs",
              observed > 0 ? static_cast<double>(peaks) /
                                 static_cast<double>(observed)
                           : 0.0,
              "frac");
  report->Add("eval.pot_observe_ns",
              observed > 0 ? static_cast<double>(elapsed) /
                                 static_cast<double>(observed)
                           : 0.0,
              "ns");
}

void ReplayTrainStep(const TranADConfig& config, const Tensor& windows,
                     int64_t batch, Report* report) {
  tranad::TranADModel model(config);
  tranad::nn::AdamW opt(model.Parameters(), 0.01f);
  const int64_t b = std::min(batch, windows.size(0));
  const int64_t k = windows.size(1);
  const int64_t m = windows.size(2);
  const Tensor data = tranad::SliceAxis(windows, 0, 0, b);
  const Tensor target =
      tranad::SliceAxis(data, 1, k - 1, 1).Reshape({b, m});
  const float w = 0.8f;
  std::vector<double> fwd, bwd, step, allocs;
  for (int i = 0; i < 6; ++i) {
    tranad::ArenaDrainScope drain;
    const int64_t a0 = ArenaAllocs();
    const int64_t t0 = NowNs();
    const Variable window(data);
    auto [o1, o2] = model.ForwardPhase1(window);
    const Variable rec1 = ag::MseLoss(o1, target);
    const Variable rec2 = ag::MseLoss(o2, target);
    const Variable focus = ag::SquaredDiff(o1, Variable(target));
    const Variable o2hat = model.ForwardPhase2(window, focus);
    const Variable adv = ag::MseLossVar(o2hat, Variable(target));
    Variable l1 = ag::Add(ag::MulScalar(rec1, w), ag::MulScalar(adv, 1 - w));
    Variable l2 = ag::Sub(ag::MulScalar(rec2, w), ag::MulScalar(adv, 1 - w));
    const int64_t t1 = NowNs();
    model.ZeroGrad();
    l1.Backward();
    l1.ClearTapeGradients();
    l2.ClearTapeGradients();
    l2.Backward();
    const int64_t t2 = NowNs();
    opt.ClipGradNorm(5.0f);
    opt.Step();
    const int64_t t3 = NowNs();
    if (i == 0) continue;  // warm-up
    fwd.push_back(static_cast<double>(t1 - t0) / 1e6);
    bwd.push_back(static_cast<double>(t2 - t1) / 1e6);
    step.push_back(static_cast<double>(t3 - t2) / 1e6);
    allocs.push_back(static_cast<double>(ArenaAllocs() - a0));
  }
  report->Add("train.forward_ms_per_batch", Median(fwd), "ms");
  report->Add("train.backward_ms_per_batch", Median(bwd), "ms");
  report->Add("train.optimizer_ms_per_batch", Median(step), "ms");
  report->Add("train.arena_allocs_per_batch", Median(allocs), "count");
}

}  // namespace perfbench

#pragma once

/// \file ttconv.h
/// TTConv2d — the paper's primary contribution. A K x K convolution factored
/// into four TT sub-convolutions, executed in one of three pipelines:
///
///  - STT (Fig. 1b): sequential chain w1 -> w2 -> w3 -> w4. Stride-s layers
///    place stride (s,1) on the vertical core and (1,s) on the horizontal
///    core so the chain composes to a stride-s convolution.
///  - PTT (Fig. 1c, Eq. 5): w2 and w3 both consume the w1 output and run in
///    parallel (two pool tasks — the CPU analog of the paper's GPU streams);
///    their sum feeds w4. The effective kernel is the K x K cross (no
///    corners). Stride-s layers stride both branches by (s,s).
///  - HTT (Fig. 2): a per-timestep schedule; "full" steps run the PTT path,
///    "half" steps skip the strips and run w1 -> w4 only (with the stride
///    moved onto w4 so output shapes agree across steps).
///
/// All three are one pipeline, tt_forward / tt_backward, over caller-supplied
/// buffers on the shared conv lowering (tensor/im2col.h); HTT runs each
/// timestep on views of the w1 output. TTConv2d runs it over arena tensors,
/// and the inference engine's exact TT op over planned workspace, both sized
/// by plan_tt from the layer's Options alone, so exact serving reproduces
/// the training forward by construction.
///
/// Merged inference kernels (Algorithm 1 lines 20-22) are exposed via
/// merged_kernel() / merged_half_kernel(); see also merge_network() in
/// factorize.h.

#include "nn/conv2d.h"
#include "nn/module.h"
#include "tt/tt_cores.h"

namespace ttsnn {

enum class TTMode { kSTT, kPTT, kHTT };

std::string tt_mode_name(TTMode mode);

class TTConv2d : public Module {
 public:
  struct Options {
    int64_t in_channels = 0;
    int64_t out_channels = 0;
    int64_t kernel = 3;
    int64_t stride = 1;
    int64_t rank = 0;
    TTMode mode = TTMode::kPTT;
    /// HTT schedule: full_step[t] == true runs the full (PTT) path at step t.
    /// Empty means "all steps full". Ignored for STT/PTT.
    std::vector<bool> full_step;
    /// Run the PTT/HTT strip branches on two threads.
    bool parallel_branches = true;
  };

  /// Randomly initialized cores (Kaiming fan-in per sub-convolution).
  TTConv2d(Options opts, Rng& rng);
  /// Cores from a TT-SVD of a pretrained dense weight (Algorithm 1 line 4).
  TTConv2d(Options opts, const TTCores& cores);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void describe(ShapeState& s, std::vector<LayerDesc>& out) const override;
  void clear_cache() override;
  std::string name() const override { return "TTConv2d"; }

  const Options& options() const { return opts_; }
  /// Snapshot of the current core weights.
  TTCores cores() const;
  /// Merged dense kernel for spike-based inference: full K x K for STT,
  /// cross-shaped for PTT/HTT full steps (Eq. 6).
  Tensor merged_kernel() const;
  /// Merged pointwise kernel for HTT half steps.
  Tensor merged_half_kernel() const;
  /// Fraction of timesteps executing the full path (1.0 unless HTT).
  double full_step_fraction() const;

  Parameter& w1() { return w1_; }
  Parameter& w2() { return w2_; }
  Parameter& w3() { return w3_; }
  Parameter& w4() { return w4_; }
  const Parameter& w1() const { return w1_; }
  const Parameter& w2() const { return w2_; }
  const Parameter& w3() const { return w3_; }
  const Parameter& w4() const { return w4_; }

 private:
  Options opts_;
  Parameter w1_, w2_, w3_, w4_;

  // Training caches; an eval forward keeps none.
  Tensor in_x_;  // layer input
  Tensor o1_;    // w1 output
  Tensor o2_;    // STT: w2 output; PTT/HTT: the full steps' strip sums
  Tensor o3_;    // STT: w3 output
};

// ---- The TT pipeline, shared by TTConv2d and the engine's exact op ---------

/// One core of a TT layer. kW4Half is w4 as an HTT half step runs it:
/// straight on the w1 output, with the layer stride moved onto it.
enum class TTCore { kW1, kW2, kW3, kW4, kW4Half };

/// Conv options of `core` in a layer with options `o`: w1 (1x1) C -> r,
/// w2 (K x 1) and w3 (1 x K) r -> r, w4 (1x1) r -> O. STT strides w2 by
/// (s, 1) and w3 by (1, s); PTT and HTT stride both strips by (s, s).
Conv2d::Options tt_core_options(const TTConv2d::Options& o, TTCore core);

/// The dense K x K, stride-s conv the layer factorizes: the geometry of its
/// merged kernel, and a conv with the layer's output shape.
Conv2d::Options tt_dense_options(const TTConv2d::Options& o);

/// One TT layer's pipeline at one input shape [..., C, H, W]: every core's
/// geometry and the floats of every buffer. HTT reads the input as [T, N, C,
/// H, W], one step per timestep; STT and PTT run it as one full step.
struct TTPlan {
  int64_t steps = 1;  ///< T for HTT, else 1
  int64_t batch = 0;  ///< images per step
  std::vector<int64_t> full, half;  ///< steps on each path, ascending
  int64_t strip_steps = 0;  ///< full steps each strip buffer (o2 to d4) holds
  ConvGeometry g1, g2, g3, g4, g4_half;
  Shape out;         ///< the layer's output shape
  int64_t o1 = 0;    ///< w1 output, every step
  int64_t o2 = 0;    ///< w2 output; PTT/HTT: the strip sum w4 reads
  int64_t o3 = 0;    ///< w3 output
  int64_t d3 = 0;    ///< backward: the grad at w3's input
  int64_t d4 = 0;    ///< backward: the grad at a full step's w4 input
  int64_t col = 0;   ///< largest column matrix of any core (0: all pointwise)
};

/// Plans the layer over input shape `in`. With `step_strips` the strip
/// buffers hold one timestep, which the full steps take in turn (the
/// engine); otherwise every full step (training, whose backward reads every
/// full step's strip sum).
TTPlan plan_tt(const TTConv2d::Options& o, const Shape& in, bool step_strips);

/// The cores' f32 weights [out, in, kh, kw], and their dW accumulators.
struct TTWeights {
  const float *w1 = nullptr, *w2 = nullptr, *w3 = nullptr, *w4 = nullptr;
};
struct TTWeightGrads {
  float *w1 = nullptr, *w2 = nullptr, *w3 = nullptr, *w4 = nullptr;
};

/// The pipeline's buffers, sized by TTPlan. tt_forward writes o1, o2 and o3
/// before it reads them. tt_backward reads them and accumulates into dx
/// (sized like the input), do1, d3 and d4, which must arrive zeroed. col[1]
/// and dcol[1] serve the w3 strip when the strips run in parallel.
struct TTBuffers {
  float *o1 = nullptr, *o2 = nullptr, *o3 = nullptr;
  float *dx = nullptr, *do1 = nullptr, *d3 = nullptr, *d4 = nullptr;
  float *col[2] = {}, *dcol[2] = {};
};

/// x [..., C, H, W] -> out (p.out). w1 fills o1; STT chains w2 -> o2 -> w3
/// -> o3 -> w4. PTT/HTT take the full steps p.strip_steps at a time: w2 and
/// w3 read their o1 views into o2 and o3 (two parallel_invoke tasks when
/// `parallel`), o2 += o3, and w4 writes each step's output slice from o2;
/// a half step's w4 reads its o1 view. Each image gets its own GEMM.
void tt_forward(const TTConv2d::Options& o, const TTPlan& p,
                const TTWeights& w, const float* x, const TTBuffers& b,
                bool parallel, float* out);

/// Backward of tt_forward over the o1/o2/o3 it filled, planned without
/// step_strips: adds each core's dW into `dw` and writes b.dx. w4's dW sums
/// the full steps' images in ascending order, then the half steps'; the
/// strips run as in tt_forward, each over every full step.
void tt_backward(const TTConv2d::Options& o, const TTPlan& p,
                 const TTWeights& w, const float* x, const TTBuffers& b,
                 const float* grad_out, bool parallel,
                 const TTWeightGrads& dw);

}  // namespace ttsnn

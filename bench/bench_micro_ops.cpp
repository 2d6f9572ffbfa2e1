// Micro-benchmarks for the op-level building blocks, reported both as a
// human-readable table and as BENCH_micro.json (see bench_json.h) so the
// perf trajectory is tracked PR-over-PR.
//
// Families:
//   gemm_*      — the kernels gemm() chooses between (naive = scalar row
//                 kernel / simd = AVX2 row kernel / sparse = spike plane),
//                 called directly over dense and spike-sparse operands;
//                 GFLOP/s is nominal 2mnk work, so rows divide directly into
//                 speedups. The `speedup_vs_naive` field is the headline,
//                 read at 90% spike sparsity (density 0.1) for the sparse
//                 kernel.
//   elemwise_*  — scalar vs AVX2 tiers of the axpy/mul/lif kernels.
//   dense_conv_forward, ttconv_forward/<mode>, ttconv_train_step/<mode>
//               — a dense 3x3 Conv2d forward, then TTConv2d forward and
//                 forward+backward per mode, all through the shared conv
//                 lowering (tensor/im2col.h). The TT rows report arena
//                 acquisitions per call, and the run HARD-fails if HTT's
//                 exceed PTT's.
//   infer_run/* — batch-1 Engine::run on the statically planned workspace,
//                 fresh per call and caller-reused; each row reports arena
//                 acquisitions per call alongside p50, and the run HARD-fails
//                 unless they read 2 (fresh) and 1 (reused; infer_fused/*
//                 too), so "one allocation per call" is a gate, not a
//                 comment.
//   quant/*     — typed weight planes: bf16 dequant tiers, the int8 spike-
//                 GEMM vs the f32 tiers at 90% sparsity, and the per-mode
//                 weight footprint with HARD compression gates (int8 < 0.5x
//                 f32, bf16 <= 0.55x — deterministic byte accounting, so CI
//                 fails on them directly).
//   merge/svd   — TT merge contraction, TT-SVD, VBMF rank estimation.
//   train_epoch — end-to-end epoch on the scalar SIMD tier vs the current
//                 defaults, plus a sync-vs-prefetch pair with augmentation
//                 on; every row reports the compute / data-wait wall-clock
//                 split.
//
// Flags: --out=PATH (default BENCH_micro.json), --quick (CI smoke sizing).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/bench_json.h"
#include "core/factorize.h"
#include "core/models.h"
#include "core/ttconv.h"
#include "data/synthetic_image.h"
#include "infer/analysis.h"
#include "infer/engine.h"
#include "nn/conv2d.h"
#include "snn/trainer.h"
#include "tensor/arena.h"
#include "tensor/simd.h"
#include "tensor/spike_plane.h"
#include "tt/tt_svd.h"
#include "tt/vbmf.h"

namespace ttsnn {
namespace {

/// C = op(A) * op(B) on the dense simd:: row kernel of the active level.
void dense_gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                const float* a, const float* b, float* c) {
  std::fill(c, c + m * n, 0.0F);
  if (trans_a) {
    simd::gemm_tn_rows(m, n, k, 1.0F, a, b, c);
  } else if (trans_b) {
    simd::gemm_nt_rows(m, n, k, 1.0F, a, b, c);
  } else {
    simd::gemm_nn_rows(m, n, k, 1.0F, a, b, c);
  }
}

/// C = A * op(B) on the spike-plane path for binary B, build included —
/// the work gemm() does per call when it picks that path.
void sparse_gemm(bool trans_b, int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c) {
  SpikePlane plane;
  TTSNN_CHECK(trans_b ? plane.build(b, n, k) : plane.build(b, k, n),
              "sparse_gemm: B is not a binary matrix");
  std::fill(c, c + m * n, 0.0F);
  if (trans_b) {
    spmm_nt_rows(m, n, k, 1.0F, a, plane, c);
  } else {
    spmm_nn_rows(m, n, k, 1.0F, a, plane, c);
  }
}

/// One GEMM config on each kernel gemm() can run, called directly so no
/// selection rule sits in the timed path: `naive` is the scalar row kernel,
/// `simd` the AVX2 one (AVX2 hosts only), `sparse` the spike-plane path
/// (binary B only). Emits GFLOP/s + speedup rows.
void bench_gemm(bench::Report& report, const char* op, bool trans_a,
                bool trans_b, int64_t m, int64_t n, int64_t k, float density,
                double min_seconds) {
  Rng rng(8);
  // Density < 1 makes the *B* operand a binary spike matrix (the operand the
  // conv lowering makes sparse); A stays dense like conv weights / gradients.
  Tensor a = trans_a ? Tensor::randn({k, m}, rng) : Tensor::randn({m, k}, rng);
  Tensor b;
  if (trans_b) {
    b = density < 1.0F ? Tensor::bernoulli({n, k}, rng, density)
                       : Tensor::randn({n, k}, rng);
  } else {
    b = density < 1.0F ? Tensor::bernoulli({k, n}, rng, density)
                       : Tensor::randn({k, n}, rng);
  }
  Tensor c = Tensor::zeros({m, n});
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  auto dense_at = [&](simd::Level level) {
    return [&, level] {
      simd::LevelGuard guard(level);
      dense_gemm(trans_a, trans_b, m, n, k, a.data(), b.data(), c.data());
    };
  };
  std::vector<std::pair<const char*, std::function<void()>>> kernels = {
      {"naive", dense_at(simd::Level::kScalar)}};
  if (simd::detected_level() == simd::Level::kAvx2) {
    kernels.emplace_back("simd", dense_at(simd::Level::kAvx2));
  }
  if (density < 1.0F) {
    kernels.emplace_back("sparse", [&] {
      sparse_gemm(trans_b, m, n, k, a.data(), b.data(), c.data());
    });
  }
  double naive_gflops = 0.0;
  for (const auto& [kernel, run] : kernels) {
    const bench::Timing t = bench::time_fn(run, min_seconds);
    const double gflops = flops / t.p50_s * 1e-9;
    if (naive_gflops == 0.0) naive_gflops = gflops;  // first row is naive
    char name[128];
    std::snprintf(name, sizeof(name), "%s/%lldx%lldx%lld/d%.2f/%s", op,
                  static_cast<long long>(m), static_cast<long long>(n),
                  static_cast<long long>(k), density, kernel);
    report.add(name)
        .str("op", op)
        .str("kernel", kernel)
        .num("m", static_cast<double>(m))
        .num("n", static_cast<double>(n))
        .num("k", static_cast<double>(k))
        .num("density", density)
        .num("gflops", gflops)
        .timing(t)
        .num("speedup_vs_naive", gflops / naive_gflops);
    std::printf("  %-44s %8.2f GFLOP/s  p50 %7.3f ms (%.2fx)\n", name, gflops,
                t.p50_s * 1e3, gflops / naive_gflops);
  }
}

/// Scalar-vs-AVX2 pair for one elementwise kernel.
template <typename Fn>
void bench_elemwise(bench::Report& report, const char* name, int64_t n,
                    Fn&& fn) {
  double scalar_ms = 0.0;
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (level == simd::Level::kAvx2 &&
        simd::detected_level() != simd::Level::kAvx2) {
      continue;
    }
    simd::LevelGuard guard(level);
    const bench::Timing t = bench::time_fn(fn, 0.1);
    if (level == simd::Level::kScalar) scalar_ms = t.p50_s * 1e3;
    std::string row_name =
        std::string("elemwise_") + name + "/" + simd::level_name(level);
    bench::Row& row = report.add(row_name)
                          .str("op", name)
                          .str("level", simd::level_name(level))
                          .num("numel", static_cast<double>(n))
                          .num("ns_per_elem", t.p50_s * 1e9 /
                                                  static_cast<double>(n))
                          .timing(t);
    if (scalar_ms > 0.0) {
      row.num("speedup_vs_scalar", scalar_ms / (t.p50_s * 1e3));
    }
    std::printf("  %-44s p50 %7.4f ms\n", row_name.c_str(), t.p50_s * 1e3);
  }
}

/// Arena acquisitions (hits + misses) per call of fn, counted over 32 calls
/// after one warm-up call (plan cache, arena population, workspace growth).
double arena_allocs_per_call(const std::function<void()>& fn) {
  fn();
  constexpr int kCalls = 32;
  Arena::instance().reset_stats();
  for (int i = 0; i < kCalls; ++i) fn();
  const ArenaStats calls = Arena::instance().stats();
  return static_cast<double>(calls.hits + calls.misses) / kCalls;
}

constexpr int64_t kC = 32;
constexpr int64_t kHW = 16;
constexpr int64_t kRank = 8;

Tensor make_conv_input() {
  Rng rng(1);
  return Tensor::bernoulli({4, 2, kC, kHW, kHW}, rng, 0.2F);
}

void bench_ttconv(bench::Report& report, bool quick) {
  Tensor x = make_conv_input();
  {
    Rng rng(2);
    Conv2d conv({.in_channels = kC, .out_channels = kC}, rng);
    const bench::Timing t = bench::time_fn([&] { conv.forward(x); }, 0.1);
    report.add("dense_conv_forward").timing(t);
    std::printf("  %-44s p50 %7.3f ms\n", "dense_conv_forward", t.p50_s * 1e3);
  }
  // Each row also counts the arena buffers one call takes. HTT runs PTT's
  // full path on some steps and less on the rest, so it must take no more
  // buffers than PTT does; a gathered copy of its steps fails the run.
  const TTMode modes[] = {TTMode::kSTT, TTMode::kPTT, TTMode::kHTT};
  double ptt_allocs[2] = {0.0, 0.0};  // forward, train step
  auto record = [&](const char* family, int kind, TTMode mode,
                    const std::function<void()>& fn) {
    const double allocs = arena_allocs_per_call(fn);
    const bench::Timing t = bench::time_fn(fn, 0.1);
    const std::string name = std::string(family) + tt_mode_name(mode);
    report.add(name)
        .str("mode", tt_mode_name(mode))
        .num("allocs_per_call", allocs)
        .timing(t);
    std::printf("  %-44s p50 %7.3f ms  %5.1f allocs/call\n", name.c_str(),
                t.p50_s * 1e3, allocs);
    if (mode == TTMode::kPTT) ptt_allocs[kind] = allocs;
    TTSNN_CHECK(mode != TTMode::kHTT || allocs <= ptt_allocs[kind],
                name << " takes " << allocs << " arena buffers per call, "
                     << "more than PTT's " << ptt_allocs[kind]);
  };
  for (TTMode mode : modes) {
    Rng rng(3);
    TTConv2d conv({.in_channels = kC, .out_channels = kC, .kernel = 3,
                   .stride = 1, .rank = kRank, .mode = mode,
                   .full_step = std::vector<bool>{true, true, false, false}},
                  rng);
    record("ttconv_forward/", 0, mode, [&] { conv.forward(x); });
    if (quick) continue;
    Rng grng(4);
    Tensor g = Tensor::randn({4, 2, kC, kHW, kHW}, grng);
    record("ttconv_train_step/", 1, mode, [&] {
      conv.forward(x);
      conv.backward(g);
    });
  }
}

/// Batch-1 serving latency + allocation traffic of the planned executor (one
/// packed workspace), with and without the caller reusing the workspace
/// tensor across calls — the Router dispatcher's steady state.
ModulePtr make_serving_model(Rng& rng) {
  ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 10;
  cfg.base_width = 16;
  cfg.timesteps = 4;
  ModulePtr net = make_ms_resnet18(cfg, rng);
  FactorizeOptions fopts;
  fopts.mode = TTMode::kPTT;
  fopts.use_vbmf = false;
  fopts.rank_fraction = 0.4;
  factorize_network(*net, fopts, rng);
  net->set_training(false);
  return net;
}

void bench_planned_run(bench::Report& report) {
  Rng rng(31);
  ModulePtr net = make_serving_model(rng);
  Tensor x = Tensor::bernoulli({4, 1, 3, 16, 16}, rng, 0.2F);

  const infer::Engine planned = infer::compile(*net);
  const auto plan = planned.memory_plan(x.shape());
  Tensor ws;

  // `allocs` is the arena traffic each variant must read: the result tensor,
  // plus the workspace when the caller does not keep one. A regression (a
  // kernel or conv epilogue allocating per call) fails the run itself.
  const struct {
    const char* tag;
    std::function<Tensor()> run;
    double allocs;
  } variants[] = {
      {"planned", [&] { return planned.run(x); }, 2},
      {"planned_reuse", [&] { return planned.run(x, ws); }, 1},
  };
  for (const auto& v : variants) {
    const double allocs_per_call = arena_allocs_per_call([&] { v.run(); });
    const bench::Timing t = bench::time_fn([&] { v.run(); }, 0.1);
    const std::string name = std::string("infer_run/") + v.tag;
    report.add(name)
        .str("config", v.tag)
        .num("allocs_per_call", allocs_per_call)
        .timing(t)
        .num("workspace_bytes", static_cast<double>(plan->total_floats) * 4)
        .num("unplanned_bytes",
             static_cast<double>(plan->unplanned_floats) * 4);
    std::printf("  %-44s p50 %7.3f ms  %5.1f allocs/call\n", name.c_str(),
                t.p50_s * 1e3, allocs_per_call);
    TTSNN_CHECK(allocs_per_call == v.allocs,
                name << " must read " << v.allocs << " allocs/call, got "
                     << allocs_per_call);
  }
}

int count_fused(const infer::Engine& engine) {
  int fused = 0;
  for (const infer::Op& op : engine.ops()) {
    fused += infer::is_fused(op.kind) ? 1 : 0;
  }
  return fused;
}

/// Elementwise fusion on vs off at the serving entry point: the same planned
/// executor and reused workspace, the only variable being whether the LIF /
/// residual chains run as fused plan ops (each running its parts' kernels
/// one image at a time, the intermediate staying in the op's output) or as
/// separate kConv/kAffine/kAdd/kLif ops. on/off is the merged lowering,
/// whose fused ops are all conv+lif; exact_on/exact_off is the unmerged,
/// unfolded lowering, whose fused ops are affine+lif, affine+add and add+lif.
void bench_fused_run(bench::Report& report) {
  Rng rng(31);
  ModulePtr net = make_serving_model(rng);
  Tensor x = Tensor::bernoulli({4, 1, 3, 16, 16}, rng, 0.2F);

  const infer::Engine merged_on = infer::compile(*net);
  const infer::Engine merged_off =
      infer::compile(*net, {.fuse_elementwise = false});
  const infer::Engine exact_on =
      infer::compile(*net, {.merge_tt = false, .fold_batchnorm = false});
  const infer::Engine exact_off = infer::compile(
      *net,
      {.merge_tt = false, .fold_batchnorm = false, .fuse_elementwise = false});
  Tensor ws[4];
  const struct {
    const char* tag;
    const infer::Engine* engine;
    Tensor* ws;
  } variants[] = {
      {"on", &merged_on, &ws[0]},
      {"off", &merged_off, &ws[1]},
      {"exact_on", &exact_on, &ws[2]},
      {"exact_off", &exact_off, &ws[3]},
  };
  for (const auto& v : variants) {
    const double allocs_per_call =
        arena_allocs_per_call([&] { v.engine->run(x, *v.ws); });
    const bench::Timing t =
        bench::time_fn([&] { v.engine->run(x, *v.ws); }, 0.1);
    const std::string name = std::string("infer_fused/") + v.tag;
    report.add(name)
        .str("config", v.tag)
        .num("fused_ops", static_cast<double>(count_fused(*v.engine)))
        .num("num_ops", static_cast<double>(v.engine->num_ops()))
        .num("allocs_per_call", allocs_per_call)
        .timing(t);
    std::printf("  %-44s p50 %7.3f ms  %5.1f allocs/call  %zu ops\n",
                name.c_str(), t.p50_s * 1e3, allocs_per_call,
                v.engine->num_ops());
    // Reused workspace: the result tensor is the only allocation.
    TTSNN_CHECK(allocs_per_call == 1,
                name << " must read 1 alloc/call, got " << allocs_per_call);
  }
}

/// Typed weight-plane kernels. Three row families:
///   quant/bf16_dequant/*    — bulk bf16->f32 decode, scalar vs AVX2 tier.
///   quant/gemm_int8/*       — the int8-weight x binary-spike GEMM at 90%
///                             spike sparsity (u8 conversion included)
///                             against the f32 simd and sparse tiers on the
///                             same operands. Speedups are reported, not
///                             hard-checked — timing gates flake on shared
///                             CI runners.
///   quant/weight_bytes/*    — per-mode unique weight footprint of the tiny
///                             serving models at f32 / bf16 / int8, with the
///                             HARD compression gates (int8 < 0.5x f32,
///                             bf16 <= 0.55x) enforced by TTSNN_CHECK: byte
///                             accounting is deterministic, so these are
///                             safe to fail the CI bench job on.
void bench_quant_kernels(bench::Report& report, bool quick) {
  {
    const int64_t n = 1 << 16;
    Rng rng(61);
    std::vector<uint16_t> src(static_cast<size_t>(n));
    for (auto& v : src) {
      v = bf16_from_f32(static_cast<float>(rng.index(2000) - 1000) * 0.01F);
    }
    std::vector<float> dst(static_cast<size_t>(n));
    double scalar_ms = 0.0;
    for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
      if (level == simd::Level::kAvx2 &&
          simd::detected_level() != simd::Level::kAvx2) {
        continue;
      }
      simd::LevelGuard guard(level);
      const bench::Timing t = bench::time_fn(
          [&] { simd::dequant_bf16(n, src.data(), dst.data()); }, 0.1);
      if (level == simd::Level::kScalar) scalar_ms = t.p50_s * 1e3;
      const std::string name =
          std::string("quant/bf16_dequant/") + simd::level_name(level);
      bench::Row& row =
          report.add(name)
              .str("level", simd::level_name(level))
              .num("numel", static_cast<double>(n))
              .num("ns_per_elem", t.p50_s * 1e9 / static_cast<double>(n))
              .timing(t);
      if (scalar_ms > 0.0) {
        row.num("speedup_vs_scalar", scalar_ms / (t.p50_s * 1e3));
      }
      std::printf("  %-44s p50 %7.4f ms\n", name.c_str(), t.p50_s * 1e3);
    }
  }

  // Conv-shaped int8 spike-GEMM: out_c x spatial x (in_c*k*k) at density
  // 0.10 — the PR-3 90%-sparsity operating point. The int8 row times the
  // whole replacement path (float col -> transposed u8 -> integer GEMM with
  // per-channel rescale); the f32 rows time the two kernels an f32 plan's
  // gemm call chooses between, dense row kernel and spike plane, on the
  // identical operands.
  {
    const int64_t m = 64;
    const int64_t n = quick ? 256 : 1024;
    const int64_t k = 288;
    Rng rng(62);
    Tensor w = Tensor::randn({m, k}, rng);
    Tensor col = Tensor::bernoulli({k, n}, rng, 0.1F);
    Tensor c = Tensor::zeros({m, n});
    const WeightPlane plane = WeightPlane::int8_from(w);
    std::vector<uint8_t> su8(static_cast<size_t>(k * n));
    double f32_simd_ms = 0.0;
    const struct {
      const char* tag;
      std::function<void()> run;
    } variants[] = {
        {"f32_simd",
         [&] {
           dense_gemm(false, false, m, n, k, w.data(), col.data(), c.data());
         }},
        {"f32_sparse",
         [&] {
           sparse_gemm(false, m, n, k, w.data(), col.data(), c.data());
         }},
        {"int8",
         [&] {
           simd::spikes_to_u8_t(k, n, col.data(), su8.data());
           simd::gemm_s8_wxs(m, n, k, plane.int8_data(), su8.data(),
                             plane.scales().data(), c.data());
         }},
    };
    for (const auto& v : variants) {
      const bench::Timing t = bench::time_fn(v.run, quick ? 0.05 : 0.2);
      if (std::string(v.tag) == "f32_simd") f32_simd_ms = t.p50_s * 1e3;
      char name[128];
      std::snprintf(name, sizeof(name), "quant/gemm_int8/%lldx%lldx%lld/d0.10/%s",
                    static_cast<long long>(m), static_cast<long long>(n),
                    static_cast<long long>(k), v.tag);
      bench::Row& row = report.add(name)
                            .str("kernel", v.tag)
                            .num("m", static_cast<double>(m))
                            .num("n", static_cast<double>(n))
                            .num("k", static_cast<double>(k))
                            .num("density", 0.1)
                            .timing(t);
      if (f32_simd_ms > 0.0) {
        row.num("speedup_vs_f32_simd", f32_simd_ms / (t.p50_s * 1e3));
      }
      std::printf("  %-44s p50 %7.3f ms\n", name, t.p50_s * 1e3);
    }
  }

  // Weight footprint of the tiny serving models per TT mode — the byte gate.
  // Row names track the configs/tiny_<mode>.cfg serving scenarios.
  const struct {
    TTMode mode;
    const char* tag;
  } tiny_modes[] = {{TTMode::kSTT, "stt"},
                    {TTMode::kPTT, "ptt"},
                    {TTMode::kHTT, "htt"}};
  for (const auto& tm : tiny_modes) {
    const TTMode mode = tm.mode;
    Rng rng(63);
    ModelConfig cfg;
    cfg.in_channels = 3;
    cfg.num_classes = 10;
    cfg.base_width = 8;
    cfg.timesteps = 4;
    ModulePtr net = make_ms_resnet18(cfg, rng);
    FactorizeOptions fopts;
    fopts.mode = mode;
    fopts.htt_schedule = {true, false, true, false};
    fopts.use_vbmf = false;
    fopts.rank_fraction = 0.5;
    factorize_network(*net, fopts, rng);
    net->set_training(false);
    const int64_t f32_b =
        infer::compile(*net).weight_bytes();
    const int64_t bf16_b =
        infer::compile(*net, {.weight_dtype = WeightDtype::kBf16})
            .weight_bytes();
    const int64_t int8_b =
        infer::compile(*net, {.weight_dtype = WeightDtype::kInt8})
            .weight_bytes();
    const double bf16_ratio =
        static_cast<double>(bf16_b) / static_cast<double>(f32_b);
    const double int8_ratio =
        static_cast<double>(int8_b) / static_cast<double>(f32_b);
    const std::string name =
        std::string("quant/weight_bytes/tiny_") + tm.tag;
    report.add(name)
        .str("mode", tm.tag)
        .num("f32_bytes", static_cast<double>(f32_b))
        .num("bf16_bytes", static_cast<double>(bf16_b))
        .num("int8_bytes", static_cast<double>(int8_b))
        .num("bf16_ratio", bf16_ratio)
        .num("int8_ratio", int8_ratio);
    std::printf("  %-44s f32 %lld B  bf16 %.3fx  int8 %.3fx\n", name.c_str(),
                static_cast<long long>(f32_b), bf16_ratio, int8_ratio);
    TTSNN_CHECK(int8_ratio < 0.5,
                "quant: int8 weight bytes must be < 0.5x f32 for "
                    << name << ", got " << int8_ratio);
    TTSNN_CHECK(bf16_ratio <= 0.55,
                "quant: bf16 weight bytes must be <= 0.55x f32 for "
                    << name << ", got " << bf16_ratio);
  }
}

void bench_decompositions(bench::Report& report) {
  Rng rng(6);
  Tensor dense = Tensor::randn({64, 64, 3, 3}, rng);
  {
    Rng mrng(5);
    TTConv2d conv({.in_channels = 64, .out_channels = 64, .kernel = 3,
                   .stride = 1, .rank = 24, .mode = TTMode::kPTT},
                  mrng);
    const bench::Timing t = bench::time_fn([&] { conv.merged_kernel(); }, 0.1);
    report.add("merge_ptt").timing(t);
    std::printf("  %-44s p50 %7.3f ms\n", "merge_ptt", t.p50_s * 1e3);
  }
  const bench::Timing svd = bench::time_fn([&] { tt_svd(dense, 24); }, 0.1);
  report.add("tt_svd").timing(svd);
  std::printf("  %-44s p50 %7.3f ms\n", "tt_svd", svd.p50_s * 1e3);
  const bench::Timing vbmf =
      bench::time_fn([&] { estimate_tt_rank(dense); }, 0.1);
  report.add("vbmf").timing(vbmf);
  std::printf("  %-44s p50 %7.3f ms\n", "vbmf", vbmf.p50_s * 1e3);
}

/// End-to-end training epoch on a shared model/data recipe at one SIMD
/// level: kScalar runs every simd:: kernel, dense GEMM rows included, on its
/// scalar loop. `augment` + `prefetch` exercise the DataLoader: the sync
/// (prefetch 0) vs prefetch-2 pair with augmentation on isolates how much
/// batch assembly the producer tasks hide behind the compute.
double bench_train_epoch(bench::Report& report, const char* tag,
                         simd::Level level, bool quick, bool augment = false,
                         int64_t prefetch = 2) {
  // Sized so the conv GEMMs actually reach the kernel-tier thresholds
  // (base_width 16 on 16x16 inputs); a toy-scale model measures framework
  // overhead, not kernels.
  SyntheticImageDataset data({.num_classes = 10,
                              .samples_per_class = quick ? 2 : 4,
                              .channels = 3,
                              .size = 16,
                              .seed = 99});
  Rng rng(21);
  ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 10;
  cfg.base_width = 16;
  cfg.timesteps = 4;
  ModulePtr net = make_ms_resnet18(cfg, rng);
  FactorizeOptions fopts;
  fopts.mode = TTMode::kPTT;
  fopts.use_vbmf = false;
  fopts.rank_fraction = 0.4;
  factorize_network(*net, fopts, rng);

  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 8;
  tc.timesteps = 4;
  tc.augment = augment;
  tc.augment_opts = {.max_shift = 2, .cutout_size = 4};
  tc.prefetch = prefetch;
  tc.verbose = false;
  Trainer trainer(*net, data, data, tc);

  simd::LevelGuard guard(level);
  trainer.run_epoch(0);  // warm-up: first-touch weights, arena population
  Timer t;
  EpochStats stats = trainer.run_epoch(0);
  const double seconds = t.seconds();
  report.add(std::string("train_epoch/") + tag)
      .str("config", tag)
      .num("seconds", seconds)
      .num("compute_s", stats.compute_seconds)
      .num("data_wait_s", stats.data_wait_seconds)
      .num("prefetch", static_cast<double>(prefetch))
      .num("augment", augment ? 1.0 : 0.0)
      .num("loss", stats.loss);
  std::printf("  %-44s %7.3f s (%.3f s data wait)\n",
              (std::string("train_epoch/") + tag).c_str(), seconds,
              stats.data_wait_seconds);
  return seconds;
}

}  // namespace
}  // namespace ttsnn

int main(int argc, char** argv) {
  using namespace ttsnn;
  bench::Args args = bench::Args::parse(argc, argv, "BENCH_micro.json");
  bench::Report report;
  const double gemm_secs = args.quick ? 0.05 : 0.2;

  std::printf("simd: detected=%s active=%s\n",
              simd::level_name(simd::detected_level()),
              simd::level_name(simd::active_level()));
  report.add("simd_dispatch")
      .str("detected", simd::level_name(simd::detected_level()))
      .str("active", simd::level_name(simd::active_level()));

  std::printf("== GEMM kernels ==\n");
  bench_gemm(report, "gemm_nn", false, false, 256, 256, 256, 1.0F, gemm_secs);
  if (!args.quick) {
    bench_gemm(report, "gemm_nn", false, false, 128, 512, 1024, 1.0F,
               gemm_secs);
  }
  bench_gemm(report, "gemm_tn", true, false, 256, 256, 256, 1.0F, gemm_secs);
  // Spike-sparse B: density 0.10 is the PR-3 "90% spike sparsity" target row.
  for (float density : args.quick ? std::vector<float>{0.1F}
                                  : std::vector<float>{0.3F, 0.1F, 0.03F}) {
    bench_gemm(report, "gemm_nn", false, false, 256, 256, 256, density,
               gemm_secs);
  }
  bench_gemm(report, "gemm_nt", false, true, 64, 288, 1024, 0.1F, gemm_secs);

  std::printf("== elementwise tiers ==\n");
  {
    const int64_t n = 1 << 16;
    Rng rng(11);
    Tensor x = Tensor::randn({n}, rng);
    Tensor y = Tensor::randn({n}, rng);
    bench_elemwise(report, "axpy", n,
                   [&] { simd::axpy(n, 0.5F, x.data(), y.data()); });
    // Unit-magnitude multiplier: repeated y *= x with random x drives y into
    // subnormals, which would benchmark the FPU's denormal stalls instead.
    Tensor sign = Tensor::bernoulli({n}, rng, 0.5F);
    sign.mul_scalar_(2.0F).add_scalar_(-1.0F);
    bench_elemwise(report, "mul", n,
                   [&] { simd::mul(n, sign.data(), y.data()); });
    Tensor in = Tensor::randn({n}, rng);
    Tensor u = Tensor::zeros({n});
    Tensor s = Tensor::zeros({n});
    bench_elemwise(report, "lif_step", n, [&] {
      simd::lif_step_eval(n, 0.5F, 1.0F, true, in.data(), u.data(), s.data());
    });
  }

  std::printf("== TTConv pipelines ==\n");
  bench_ttconv(report, args.quick);
  std::printf("== typed weight planes (quant tier) ==\n");
  bench_quant_kernels(report, args.quick);
  std::printf("== planned inference run (batch 1) ==\n");
  bench_planned_run(report);
  std::printf("== elementwise fusion on/off (batch 1) ==\n");
  bench_fused_run(report);
  if (!args.quick) {
    std::printf("== decompositions ==\n");
    bench_decompositions(report);
  }

  std::printf("== end-to-end training epoch ==\n");
  const simd::Level best = simd::detected_level();
  const double scalar_s =
      bench_train_epoch(report, "scalar", simd::Level::kScalar, args.quick);
  const double current_s =
      bench_train_epoch(report, "current", best, args.quick);
  report.add("train_epoch/speedup").num("speedup_vs_scalar",
                                        scalar_s / current_s);
  std::printf("  %-44s %7.2fx\n", "train_epoch speedup", scalar_s / current_s);
  // DataLoader pair: same compute, augmentation on, batch assembly on the
  // training thread (sync) vs hidden behind prefetch-2 producer tasks. On a
  // single-core host the loader falls back to sync and the pair ties.
  const double sync_aug_s = bench_train_epoch(report, "sync_augment", best,
                                              args.quick, /*augment=*/true,
                                              /*prefetch=*/0);
  const double prefetch_aug_s =
      bench_train_epoch(report, "prefetch_augment", best, args.quick,
                        /*augment=*/true, /*prefetch=*/2);
  report.add("train_epoch/prefetch_speedup")
      .num("speedup_vs_sync", sync_aug_s / prefetch_aug_s);
  std::printf("  %-44s %7.2fx\n", "train_epoch prefetch speedup",
              sync_aug_s / prefetch_aug_s);

  const ArenaStats arena = Arena::instance().stats();
  report.add("arena")
      .num("hits", static_cast<double>(arena.hits))
      .num("misses", static_cast<double>(arena.misses))
      .num("recycled", static_cast<double>(arena.recycled));

  report.write(args.out);
  return 0;
}

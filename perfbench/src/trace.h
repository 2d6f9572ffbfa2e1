#pragma once

// The benchmark's tracer: spans recorded from OUTSIDE the library, around
// the calls the benchmark makes into each layer, plus forwarding decorators
// (a Module around each leaf layer, a Dataset around the training set) that
// the benchmark installs itself. Spans are kept in memory and written as one
// Chrome trace-event file when the run ends. No span is recorded unless a
// Tracer is installed, so untraced runs pay one null check per call.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "nn/module.h"
#include "snn/dataset.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< string literal: span names are fixed
  double start = 0.0;     ///< seconds, steady clock
  double end = 0.0;
  int parent = -1;        ///< index of the enclosing span; -1 = none
  int64_t id = -1;        ///< training step or request id; -1 = none
  int tid = 0;            ///< small per-thread number, for the trace viewer

  double dur() const { return end - start; }
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or nullptr (the untraced case).
  static Tracer* current();
  /// Makes this the installed tracer; uninstall() clears it. Only the
  /// benchmark's main thread installs, before the traced phase starts.
  void install();
  static void uninstall();

  /// Opens a span on the calling thread, nested in that thread's innermost
  /// open span; returns its index for close().
  int open(const char* name, int64_t id);
  void close(int index);
  /// Adds a finished top-level span whose ends were taken elsewhere (a
  /// request resolved on another thread). Returns its index.
  int record(const char* name, double start, double end, int64_t id);

  /// Training step counter, advanced by the root decorator's forward.
  int64_t step() const;
  void next_step();

  std::vector<Span> spans() const;
  /// Writes every span as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto). Throws ttsnn::Error when the file cannot be written.
  void write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t step_ = -1;
};

/// Writes the tracer's spans to <out_dir>/trace-<workload>-<seed>.json and
/// prints where.
void write_trace(const Tracer& tracer, const Args& args);

/// RAII span around one call; no-op when no tracer is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t id = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_ = -1;
};

/// Per span name: calls, total duration and self time (duration minus the
/// part of it that child spans cover), in seconds.
struct SpanTotals {
  int64_t calls = 0;
  double total = 0.0;
  double self = 0.0;
};
std::map<std::string, SpanTotals> aggregate(const std::vector<Span>& spans);

/// Forwarding decorator: times forward/backward of the wrapped module under
/// two span names, tagged with the current training step. Parameters,
/// buffers, training mode and describe() all pass through, and the wrapped
/// module stays reachable as the only child slot, so visitors such as
/// profile_spikes still find it. The root decorator also advances the step
/// and, traced or not, keeps the start time of every forward: the
/// benchmark's own clock for per-step wall times.
class TimedModule : public ttsnn::Module {
 public:
  TimedModule(ttsnn::ModulePtr inner, const char* fwd_span,
              const char* bwd_span, bool root);

  ttsnn::Tensor forward(const ttsnn::Tensor& x) override;
  ttsnn::Tensor backward(const ttsnn::Tensor& grad_out) override;
  void collect_parameters(std::vector<ttsnn::Parameter*>& out) override;
  void collect_buffers(std::vector<ttsnn::BufferRef>& out) override;
  void describe(ttsnn::ShapeState& s,
                std::vector<ttsnn::LayerDesc>& out) const override;
  std::vector<ttsnn::ModulePtr*> child_slots() override { return {&inner_}; }
  void clear_cache() override { inner_->clear_cache(); }
  std::string name() const override { return inner_->name(); }

  /// Root decorator: start time (now_s()) of every forward so far.
  const std::vector<double>& forward_starts() const { return forward_starts_; }

 private:
  ttsnn::ModulePtr inner_;
  std::vector<double> forward_starts_;
  const char* fwd_span_;
  const char* bwd_span_;
  bool root_;
};

/// Wraps every leaf layer the per-layer metrics name — dense Conv2d,
/// TTConv2d, LIFNeuron, BatchNorm — in a TimedModule. Returns how many.
int install_leaf_timers(ttsnn::Module& root);

/// Forwarding Dataset whose get_batch (run on DataLoader producers) is a
/// "data.get_batch" span.
class TimedDataset : public ttsnn::Dataset {
 public:
  explicit TimedDataset(const ttsnn::Dataset& inner) : inner_(inner) {}
  int64_t size() const override { return inner_.size(); }
  int64_t num_classes() const override { return inner_.num_classes(); }
  int64_t channels() const override { return inner_.channels(); }
  int64_t height() const override { return inner_.height(); }
  int64_t width() const override { return inner_.width(); }
  bool is_temporal() const override { return inner_.is_temporal(); }
  ttsnn::Batch get_batch(const std::vector<int64_t>& indices,
                         int64_t timesteps) const override;

 private:
  const ttsnn::Dataset& inner_;
};

}  // namespace perfbench

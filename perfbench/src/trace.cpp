#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iomanip>

#include "core/ttconv.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/lif.h"
#include "probe.h"

namespace perfbench {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<int> g_next_tid{0};

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;
thread_local int t_tid = -1;

int this_tid() {
  if (t_tid < 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

}  // namespace

Tracer* Tracer::current() { return g_tracer.load(std::memory_order_acquire); }

void Tracer::install() { g_tracer.store(this, std::memory_order_release); }

void Tracer::uninstall() { g_tracer.store(nullptr, std::memory_order_release); }

int Tracer::open(const char* name, int64_t id) {
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.id = id;
  s.tid = this_tid();
  s.start = now_s();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(s);
  }
  t_open.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const double end = now_s();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = end;
}

int Tracer::record(const char* name, double start, double end, int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, -1, id, this_tid()});
  return static_cast<int>(spans_.size()) - 1;
}

int64_t Tracer::step() const {
  std::lock_guard<std::mutex> lock(mu_);
  return step_;
}

void Tracer::next_step() {
  std::lock_guard<std::mutex> lock(mu_);
  ++step_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  TTSNN_CHECK(out.good(), "cannot write trace file " << path);
  const double t0 = all.empty() ? 0.0 : all.front().start;
  out << "{\"traceEvents\":[\n";
  out << std::fixed << std::setprecision(3);
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << 1e6 * (s.start - t0) << ",\"dur\":" << 1e6 * s.dur()
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}}";
  }
  out << "\n]}\n";
  TTSNN_CHECK(out.good(), "failed writing trace file " << path);
}

void write_trace(const Tracer& tracer, const Args& args) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  tracer.write_chrome(path);
  std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
              path.c_str());
}

ScopedSpan::ScopedSpan(const char* name, int64_t id)
    : tracer_(Tracer::current()) {
  if (tracer_) index_ = tracer_->open(name, id);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_) tracer_->close(index_);
}

std::map<std::string, SpanTotals> aggregate(const std::vector<Span>& spans) {
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_time[static_cast<size_t>(s.parent)] += s.dur();
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.calls;
    t.total += spans[i].dur();
    t.self += spans[i].dur() - child_time[i];
  }
  return totals;
}

// ---- decorators ------------------------------------------------------------

TimedModule::TimedModule(ttsnn::ModulePtr inner, const char* fwd_span,
                         const char* bwd_span, bool root)
    : inner_(std::move(inner)),
      fwd_span_(fwd_span),
      bwd_span_(bwd_span),
      root_(root) {
  training_ = inner_->is_training();
}

ttsnn::Tensor TimedModule::forward(const ttsnn::Tensor& x) {
  Tracer* tracer = Tracer::current();
  if (root_) {
    forward_starts_.push_back(now_s());
    if (tracer) tracer->next_step();
  }
  ScopedSpan span(fwd_span_, tracer ? tracer->step() : -1);
  return inner_->forward(x);
}

ttsnn::Tensor TimedModule::backward(const ttsnn::Tensor& grad_out) {
  Tracer* tracer = Tracer::current();
  ScopedSpan span(bwd_span_, tracer ? tracer->step() : -1);
  return inner_->backward(grad_out);
}

void TimedModule::collect_parameters(std::vector<ttsnn::Parameter*>& out) {
  inner_->collect_parameters(out);
}

void TimedModule::collect_buffers(std::vector<ttsnn::BufferRef>& out) {
  inner_->collect_buffers(out);
}

void TimedModule::describe(ttsnn::ShapeState& s,
                           std::vector<ttsnn::LayerDesc>& out) const {
  inner_->describe(s, out);
}

int install_leaf_timers(ttsnn::Module& root) {
  struct Leaf {
    ttsnn::ModulePtr* slot;
    const char* fwd;
    const char* bwd;
  };
  // Collect first, wrap after: visit_module_slots descends into a replaced
  // slot's children, which would wrap each leaf again inside its decorator.
  std::vector<Leaf> leaves;
  ttsnn::visit_module_slots(root, [&](ttsnn::ModulePtr& slot) {
    ttsnn::Module* m = slot.get();
    if (dynamic_cast<ttsnn::TTConv2d*>(m)) {
      leaves.push_back({&slot, "core.ttconv.fwd", "core.ttconv.bwd"});
    } else if (dynamic_cast<ttsnn::Conv2d*>(m)) {
      leaves.push_back({&slot, "nn.conv.fwd", "nn.conv.bwd"});
    } else if (dynamic_cast<ttsnn::LIFNeuron*>(m)) {
      leaves.push_back({&slot, "nn.lif.fwd", "nn.lif.bwd"});
    } else if (dynamic_cast<ttsnn::BatchNorm*>(m)) {
      leaves.push_back({&slot, "nn.bn.fwd", "nn.bn.bwd"});
    }
  });
  for (Leaf& leaf : leaves) {
    *leaf.slot = std::make_unique<TimedModule>(std::move(*leaf.slot), leaf.fwd,
                                               leaf.bwd, /*root=*/false);
  }
  return static_cast<int>(leaves.size());
}

ttsnn::Batch TimedDataset::get_batch(const std::vector<int64_t>& indices,
                                     int64_t timesteps) const {
  ScopedSpan span("data.get_batch");
  return inner_.get_batch(indices, timesteps);
}

}  // namespace perfbench

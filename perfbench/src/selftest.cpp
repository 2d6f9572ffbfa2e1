// The benchmark's own tests (--self-test): seeded inputs replay exactly and
// change with the seed; training loss is bit-repeatable, decorators included;
// the tail rule and the self-time arithmetic hold.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench.h"
#include "recipe.h"
#include "trace.h"

namespace perfbench {

using namespace ttsnn;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool same_clips(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!bit_equal(a[i], b[i])) return false;
  }
  return true;
}

/// A small stand-in of the training workload (same code path, tiny model):
/// the mean loss of one epoch, optionally through the decorators.
double tiny_epoch_loss(uint64_t seed, bool traced) {
  Recipe r;
  r.width = 4;
  r.size = 12;
  r.classes = 4;
  r.train_per_class = 8;  // 32 clips: 2 steps of 16
  Setup s = make_setup(r, seed);
  std::unique_ptr<TimedDataset> data;
  Tracer tracer;
  if (traced) {
    install_leaf_timers(*s.model);
    s.model = std::make_unique<TimedModule>(std::move(s.model), "nn.forward",
                                            "nn.backward", /*root=*/true);
    data = std::make_unique<TimedDataset>(*s.train);
    tracer.install();
  }
  const Dataset& train = data ? static_cast<const Dataset&>(*data) : *s.train;
  Trainer trainer(*s.model, train, *s.test, train_config(r, seed));
  const double loss = trainer.run_epoch(0).loss;
  Tracer::uninstall();
  if (traced) {
    expect(aggregate(tracer.spans()).at("nn.forward").calls == 2,
           "traced epoch records one root forward span per step");
  }
  return loss;
}

}  // namespace

int run_self_test() {
  const Recipe r;
  const std::vector<size_t> order = make_request_order(1, 400, 32);
  expect(order == make_request_order(1, 400, 32), "seed 1 replays its request order");
  expect(order != make_request_order(2, 400, 32), "seed 2 draws another request order");

  auto clips = [&](uint64_t seed) {
    return make_clips(make_events(r, 8, r.size, derive_seed(seed, kServeClips)), 32,
                      r.timesteps, nullptr);
  };
  expect(same_clips(clips(1), clips(1)), "seed 1 replays its request clips bit for bit");
  expect(!same_clips(clips(1), clips(2)), "seed 2 generates other clips");

  const double l1 = tiny_epoch_loss(1, false);
  const double l1_again = tiny_epoch_loss(1, false);
  const double l1_traced = tiny_epoch_loss(1, true);
  const double l2 = tiny_epoch_loss(2, false);
  expect(std::memcmp(&l1, &l1_again, sizeof l1) == 0, "seed 1 replays its training loss bit for bit");
  expect(std::memcmp(&l1, &l1_traced, sizeof l1) == 0,
         "the tracing decorators leave the training loss bit-identical");
  expect(l1 != l2, "seed 2 trains to another loss");

  auto ramp = [](int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
  };
  const Tail t99 = supported_tail(ramp(99));
  expect(t99.q == 0.0, "99 samples support no tail (p90 would have 9 beyond)");
  const Tail t100 = supported_tail(ramp(100));
  expect(t100.q == 0.9 && t100.value == 90 && t100.beyond == 10, "100 samples: p90 with 10 beyond");
  const Tail t999 = supported_tail(ramp(999));
  expect(t999.q == 0.9 && t999.beyond == 99, "999 samples: p99 has 9 beyond, so p90");
  const Tail t1000 = supported_tail(ramp(1000));
  expect(t1000.q == 0.99 && t1000.value == 990 && t1000.beyond == 10,
         "1000 samples: p99 with 10 beyond");
  const Tail t10000 = supported_tail(ramp(10000));
  expect(t10000.q == 0.999 && t10000.beyond == 10, "10000 samples: p99.9 with 10 beyond");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median of odd and even samples");
  expect(trimmed_mean({100, 1, 2, 3, 4, 5, 6, 7, 8, -50}) == 4.5,
         "trimmed mean drops the lowest and highest 10%");

  const std::vector<Span> spans = {{"root", 0.0, 10.0, -1, 0, 0},
                                   {"leaf", 1.0, 4.0, 0, 0, 0},
                                   {"leaf", 5.0, 6.0, 0, 0, 0},
                                   {"inner", 6.0, 9.0, 0, 0, 0},
                                   {"leaf", 7.0, 8.0, 3, 0, 0}};
  const auto totals = aggregate(spans);
  expect(totals.at("root").self == 3.0 && totals.at("inner").self == 2.0 &&
             totals.at("leaf").self == 5.0 && totals.at("leaf").calls == 3,
         "self time is duration minus child spans, and the self times sum to the root");

  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "passed", g_failures);
  return g_failures ? 1 : 0;
}

}  // namespace perfbench

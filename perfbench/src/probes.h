#pragma once
// Per-layer probes: each one times public calls into a single layer of the
// program from outside, on the benchmark's corpus, and reports a median
// over a few repetitions.

#include <string>
#include <vector>

#include "perfbench/src/load.h"
#include "perfbench/src/trace.h"
#include "src/core/predictor.h"
#include "src/data/synthetic.h"
#include "src/stream/engine.h"

namespace perfbench {

/// A named per-layer value with its unit and the samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct ProbeInputs {
  const digg::data::Corpus* corpus = nullptr;
  const digg::stream::EventStream* stream = nullptr;
  const digg::core::InterestingnessPredictor* predictor = nullptr;
  const PassPlan* plan = nullptr;
  unsigned threads = 1;     // the pinned in-process pool size
  std::string scratch_dir;  // for the snapshot probe's file
};

/// Runs every in-process layer probe; appends to `out`.
void run_layer_probes(const ProbeInputs& in, Tracer& tracer,
                      std::vector<Metric>& out);

/// The StreamParams every engine of the benchmark uses: the paper's
/// checkpoints, the C4.5 hook armed with `predictor`, and the Bayes fit.
[[nodiscard]] digg::stream::StreamParams armed_params(
    const digg::core::InterestingnessPredictor* predictor, bool bayes = true);

}  // namespace perfbench

// Folds the traced pass's span events (the benchmark's own "bench" spans
// around admit / step / retire plus the program's existing obs spans) into a
// span tree, checks it, and extracts the per-layer figures that need it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Span {
  std::int64_t tid = 0;
  std::string name;
  double t0_us = 0.0, t1_us = 0.0;
  std::int64_t parent = -1;    // enclosing span; may live on another thread
  double same_thread_child_us = 0.0;
  double dur_us() const { return t1_us - t0_us; }
  double self_us() const { return dur_us() - same_thread_child_us; }
};

// Pairs B/E events per thread. A thread's outermost spans are parented to
// the innermost span of `main_tid` that encloses them in time, which is how
// TP rank threads hang under the step that spawned them.
std::vector<Span> fold_spans(const std::vector<dsinfer::obs::TraceEvent>& ev,
                             std::int64_t main_tid);

// Every span's self time is non-negative and no larger than its parent's
// duration. Returns false and sets `why` on the first violation.
bool check_span_tree(const std::vector<Span>& spans, std::string* why);

// Median duration of `name` spans issued under TP rank 0 (0 when none).
double rank0_median_us(const std::vector<Span>& spans, const std::string& name);

}  // namespace perfbench

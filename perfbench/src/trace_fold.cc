#include "trace_fold.h"

#include <algorithm>
#include <map>

#include "util/stats.h"

namespace perfbench {

using dsinfer::obs::TraceEvent;

namespace {
constexpr double kTolUs = 1.0;  // timestamp rounding across threads
}

std::vector<Span> fold_spans(const std::vector<TraceEvent>& ev,
                             std::int64_t main_tid) {
  std::vector<Span> spans;
  std::map<std::int64_t, std::vector<std::int64_t>> open;  // per-thread stack
  for (const auto& e : ev) {
    if (e.pid != dsinfer::obs::kWallPid) continue;
    auto& stack = open[e.tid];
    if (e.phase == 'B') {
      Span s;
      s.tid = e.tid;
      s.name = e.name;
      s.t0_us = e.ts_us;
      s.parent = stack.empty() ? -1 : stack.back();
      stack.push_back(static_cast<std::int64_t>(spans.size()));
      spans.push_back(std::move(s));
    } else if (e.phase == 'E' && !stack.empty()) {
      Span& s = spans[static_cast<std::size_t>(stack.back())];
      stack.pop_back();
      s.t1_us = e.ts_us;
      if (s.parent >= 0) {
        spans[static_cast<std::size_t>(s.parent)].same_thread_child_us +=
            s.dur_us();
      }
    }
  }

  // Main-thread spans in start order, for the cross-thread parent lookup.
  std::vector<std::int64_t> main_spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].tid == main_tid) main_spans.push_back(static_cast<std::int64_t>(i));
  }
  std::sort(main_spans.begin(), main_spans.end(),
            [&](std::int64_t a, std::int64_t b) {
              return spans[static_cast<std::size_t>(a)].t0_us <
                     spans[static_cast<std::size_t>(b)].t0_us;
            });
  for (auto& s : spans) {
    if (s.tid == main_tid || s.parent >= 0) continue;
    auto it = std::upper_bound(
        main_spans.begin(), main_spans.end(), s.t0_us,
        [&](double t, std::int64_t i) {
          return t < spans[static_cast<std::size_t>(i)].t0_us;
        });
    if (it == main_spans.begin()) continue;
    std::int64_t p = *(it - 1);
    while (p >= 0 && spans[static_cast<std::size_t>(p)].t1_us + kTolUs < s.t1_us) {
      p = spans[static_cast<std::size_t>(p)].parent;
    }
    s.parent = p;
  }
  return spans;
}

bool check_span_tree(const std::vector<Span>& spans, std::string* why) {
  for (const auto& s : spans) {
    if (s.self_us() < -kTolUs) {
      *why = "span '" + s.name + "' has children longer than itself";
      return false;
    }
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.self_us() > p.dur_us() + kTolUs) {
      *why = "span '" + s.name + "' self time exceeds parent '" + p.name + "'";
      return false;
    }
  }
  return true;
}

double rank0_median_us(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> d;
  for (const auto& s : spans) {
    if (s.name != name) continue;
    std::int64_t r = s.parent;
    while (r >= 0 && spans[static_cast<std::size_t>(r)].tid == s.tid &&
           spans[static_cast<std::size_t>(r)].name != "ragged tp step r0") {
      r = spans[static_cast<std::size_t>(r)].parent;
    }
    if (r >= 0 && spans[static_cast<std::size_t>(r)].name == "ragged tp step r0") {
      d.push_back(s.dur_us());
    }
  }
  std::sort(d.begin(), d.end());
  return dsinfer::percentile_sorted(d, 0.5);
}

}  // namespace perfbench

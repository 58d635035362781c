// Wall-clock serving benchmark of the functional ragged engine.
//
//   perfbench_serving --workload chat_short --seed 1 --seconds 15 --trace 0
//
// --trace 0 serves the workload untraced and reports the end-to-end metrics;
// --trace 1 serves it twice (untraced, then with spans on), replays one
// step's kernels, and reports the per-layer metrics. Both runs check the
// served tokens against InferenceEngine::generate. Human-readable lines come
// first; the last line of stdout is the JSON result. See README.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_spec.h"
#include "obs/trace.h"
#include "probes.h"
#include "serve.h"
#include "trace_fold.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace dsinfer;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kWeightSeed = 0x5eed;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool capacity = false;  // closed loop, one client per slot: find the rate
  std::string trace_file;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_val = i + 1 < argc;
    if (k == "--capacity") {
      a->capacity = true;
    } else if (k == "--workload" && has_val) {
      a->workload = argv[++i];
    } else if (k == "--seed" && has_val) {
      a->seed = std::stoull(argv[++i]);
    } else if (k == "--seconds" && has_val) {
      a->seconds = std::stod(argv[++i]);
    } else if (k == "--trace" && has_val) {
      a->trace = std::string(argv[++i]) == "1";
    } else if (k == "--trace-file" && has_val) {
      a->trace_file = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0;
}

double pct(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, q);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    if (samples > 0) {
      std::printf("  %-34s %14.4f %-6s (n=%zu)\n", name.c_str(), value,
                  unit.c_str(), samples);
    } else {
      std::printf("  %-34s %14.4f %s\n", name.c_str(), value, unit.c_str());
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  // A metric that is not a finite number fails the run and reads 0, so the
  // result stays valid JSON.
  void finish(bool correct, std::int64_t attempted, std::int64_t failed) {
    for (auto& m : metrics_) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
        m.value = 0.0;
        correct = false;
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

struct Engine {
  std::unique_ptr<core::InferenceEngine> eng;
  std::unique_ptr<core::RaggedDecoder> dec;
  void reset() {
    dec.reset();
    eng.reset();
  }
};

// Builds engine + decoder `reps` times (freeing the previous pair first) and
// returns the construction times; the last pair stays up.
std::vector<double> set_up(const Workload& w, std::int64_t reps, Engine* e) {
  std::vector<double> s;
  for (std::int64_t r = 0; r < reps; ++r) {
    e->reset();
    const auto t0 = Clock::now();
    e->eng = std::make_unique<core::InferenceEngine>(w.engine_spec(),
                                                     kWeightSeed);
    e->dec = std::make_unique<core::RaggedDecoder>(*e->eng, w.slots);
    s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return s;
}

void print_accounting(const char* pass, const ServeStats& st) {
  std::printf("%s: requests sent=%lld ok=%lld failed=%lld (refused=%lld), "
              "error_rate=%.4f\n",
              pass, static_cast<long long>(st.sent()),
              static_cast<long long>(st.ok),
              static_cast<long long>(st.failed()),
              static_cast<long long>(st.refused),
              st.sent() ? static_cast<double>(st.failed()) /
                              static_cast<double>(st.sent())
                        : 0.0);
}

// Checks shared by both modes; each failure is reported on stderr.
bool check_serving(const Workload& w, const ServeStats& st) {
  bool ok = true;
  if (!st.invariant_error.empty()) {
    std::fprintf(stderr, "invariant violated: %s\n", st.invariant_error.c_str());
    ok = false;
  }
  const double growth = st.backlog_last - st.backlog_first;
  std::printf("open-loop backlog: mean queue %.2f in the first quarter, %.2f "
              "in the last\n",
              st.backlog_first, st.backlog_last);
  if (w.open_loop && growth > static_cast<double>(w.slots)) {
    std::fprintf(stderr,
                 "growing backlog (+%.1f requests): the engine cannot sustain "
                 "%.2f req/s\n",
                 growth, w.rate_rps);
    ok = false;
  }
  if (st.ok == 0) {
    std::fprintf(stderr, "no request finished\n");
    ok = false;
  }
  return ok;
}

// Frees the served engine, then regenerates a sample with the reference.
bool check_tokens(const Workload& w, const ServeStats& st, std::uint64_t seed,
                  Engine* served) {
  served->reset();
  core::InferenceEngine ref(w.reference_spec(), kWeightSeed);
  std::string why;
  const bool ok = check_outputs(ref, w, st, seed, &why);
  std::printf("output check (%lld requests vs InferenceEngine::generate): %s\n",
              static_cast<long long>(w.check_sample), ok ? "match" : "MISMATCH");
  if (!ok) std::fprintf(stderr, "output check failed: %s\n", why.c_str());
  return ok;
}

// Per finished request, its mean gap between consecutive tokens (time per
// output token).
std::vector<double> tpot_ms(const ServeStats& st) {
  std::vector<double> out;
  for (const auto& r : st.records) {
    if (r.done_s >= 0.0 && r.out_tokens > 1) {
      out.push_back(r.itl_sum_ms / static_cast<double>(r.out_tokens - 1));
    }
  }
  return out;
}

std::int64_t total_output_tokens(const ServeStats& st) {
  std::int64_t n = 0;
  for (const auto& r : st.records) n += r.out_tokens;
  return n;
}

int run_untraced(const Workload& w, const Args& a) {
  Engine e;
  const auto setup = set_up(w, w.setup_reps, &e);
  RequestGen gen(w, a.seed);
  const ServeStats st = serve(*e.dec, w, gen, a.seconds);
  const double rss = peak_rss_mb();
  const std::size_t wbytes = layer_weight_bytes(*e.eng);
  print_accounting("serve", st);
  bool correct = check_serving(w, st);
  correct = check_tokens(w, st, a.seed, &e) && correct;

  const HostMeta meta = measure_host();
  std::printf("meta %s\n", meta_json(meta).c_str());
  if (w.cold_weights && wbytes < 4 * meta.llc_bytes) {
    std::fprintf(stderr, "weights (%zu B) are under 4x the LLC (%zu B)\n",
                 wbytes, meta.llc_bytes);
    correct = false;
  }

  std::int64_t slo_met = 0;
  for (std::size_t id = 0; id < st.records.size(); ++id) {
    const RequestRecord& r = st.records[id];
    if (r.done_s < 0.0 || r.out_tokens < 2) continue;
    const double ttft = (r.first_s - st.inputs[id].due_s) * 1e3;
    const double tpot = r.itl_sum_ms / static_cast<double>(r.out_tokens - 1);
    if (ttft <= w.slo_ttft_ms && tpot <= w.slo_itl_ms) ++slo_met;
  }
  const auto sent = static_cast<double>(st.sent());

  Report rep;
  rep.add("setup_s", pct(setup, 0.5), "s", setup.size());
  rep.add("ttft_p50_ms", pct(st.ttft_ms, 0.5), "ms", st.ttft_ms.size());
  rep.add("ttft_p90_ms", pct(st.ttft_ms, 0.9), "ms", st.ttft_ms.size());
  rep.add("itl_p50_ms", pct(st.itl_ms, 0.5), "ms", st.itl_ms.size());
  rep.add("output_tok_s", static_cast<double>(st.window_tokens) / st.seconds,
          "tok/s");
  rep.add("slo_attainment", static_cast<double>(slo_met) / sent, "ratio");
  rep.add("ok_share", static_cast<double>(st.ok) / sent, "ratio");
  rep.add("peak_rss_mb", rss, "MiB");
  rep.finish(correct, st.sent(), st.failed());
  return 0;
}

int run_traced(const Workload& w, const Args& a) {
  Engine e;
  set_up(w, 1, &e);
  const double half = a.seconds / 2.0;

  RequestGen gen_u(w, a.seed);
  const ServeStats plain = serve(*e.dec, w, gen_u, half);
  print_accounting("untraced pass", plain);

  // The same requests on a fresh decoder, with spans on.
  e.dec = std::make_unique<core::RaggedDecoder>(*e.eng, w.slots);
  auto& rec = obs::TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  const std::int64_t main_tid = rec.current_tid();
  RequestGen gen_t(w, a.seed);
  const ServeStats st = serve(*e.dec, w, gen_t, half);
  rec.set_enabled(false);
  print_accounting("traced pass", st);
  if (!a.trace_file.empty()) rec.export_file(a.trace_file);
  const std::vector<Span> spans = fold_spans(rec.snapshot(), main_tid);
  rec.clear();

  bool correct = check_serving(w, plain);
  correct = check_serving(w, st) && correct;
  std::string why;
  if (!check_span_tree(spans, &why)) {
    std::fprintf(stderr, "span tree: %s\n", why.c_str());
    correct = false;
  }

  const HostMeta meta = measure_host();
  std::printf("meta %s\n", meta_json(meta).c_str());
  ReplayShape shape;
  shape.decode_rows = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(pct(st.decode_rows, 0.5)));
  shape.prefill_rows = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(pct(st.prefill_rows, 0.5)));
  shape.decode_ctx = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(pct(st.decode_ctx, 0.5)));
  std::printf("replay shape: decode rows %lld, prefill rows %lld, decode "
              "context %lld\n",
              static_cast<long long>(shape.decode_rows),
              static_cast<long long>(shape.prefill_rows),
              static_cast<long long>(shape.decode_ctx));
  const ReplayResult k = replay_kernels(*e.eng, w, shape, meta.llc_bytes);
  if (k.gemm_op_max_gbps > meta.read_gbps) {
    std::fprintf(stderr,
                 "a replayed GeMM read %.1f GB/s, above the %.1f GB/s ceiling: "
                 "its weights were not cold\n",
                 k.gemm_op_max_gbps, meta.read_gbps);
    correct = false;
  }
  correct = check_tokens(w, st, a.seed, &e) && correct;

  const double decode_step_ms = pct(st.decode_step_ms, 0.5);
  const double replayed_ms =
      k.gemm_decode_ms + k.attention_ms + k.elementwise_us / 1e3;
  // Engine time per output token, traced over untraced.
  const double overhead =
      (st.busy_s / static_cast<double>(total_output_tokens(st))) /
          (plain.busy_s / static_cast<double>(total_output_tokens(plain))) -
      1.0;
  const double hit_rate =
      st.prompt_tokens > 0 ? static_cast<double>(st.prefix_hit_tokens) /
                                 static_cast<double>(st.prompt_tokens)
                           : 0.0;

  Report rep;
  rep.add("core.step_ms_p50", pct(st.step_ms, 0.5), "ms", st.step_ms.size());
  rep.add("core.step_ms_p99", pct(st.step_ms, 0.99), "ms", st.step_ms.size());
  rep.add("core.decode_step_ms_p50", decode_step_ms, "ms",
          st.decode_step_ms.size());
  rep.add("core.admit_ms_p50", pct(st.admit_ms, 0.5), "ms", st.admit_ms.size());
  rep.add("core.queue_wait_ms_p90", pct(st.queue_wait_ms, 0.9), "ms",
          st.queue_wait_ms.size());
  rep.add("core.rows_per_step",
          static_cast<double>(st.step_rows) /
              static_cast<double>(std::max<std::size_t>(1, st.step_ms.size())),
          "rows");
  rep.add("core.busy_share", st.busy_s / st.end_s, "ratio");
  rep.add("kv.prefix_hit_rate", hit_rate, "ratio");
  rep.add("kv.evictions", static_cast<double>(st.evictions), "count");
  rep.add("kv.cow_splits", static_cast<double>(st.cow_splits), "count");
  rep.add("kv.pages_in_use_peak", static_cast<double>(st.pages_in_use_peak),
          "pages");
  rep.add("kv.pages_committed_peak",
          static_cast<double>(st.pages_committed_peak), "pages");
  rep.add("kernels.gemm_decode_ms", k.gemm_decode_ms, "ms");
  rep.add("kernels.gemm_decode_gbps", k.gemm_decode_gbps, "GB/s");
  rep.add("kernels.gemm_decode_ceiling_frac", k.gemm_decode_gbps / meta.read_gbps,
          "ratio");
  rep.add("kernels.gemm_prefill_gflops", k.gemm_prefill_gflops, "GFLOP/s");
  rep.add("kernels.attention_ms", k.attention_ms, "ms");
  rep.add("kernels.elementwise_us", k.elementwise_us, "us");
  rep.add("kernels.replay_coverage", replayed_ms / decode_step_ms, "ratio");
  rep.add("util.parallel_for_us", k.parallel_for_us, "us");
  rep.add("parallel.device_group_run_us", k.device_group_run_us, "us");
  rep.add("comm.all_reduce_us", rank0_median_us(spans, "all_reduce_sum"), "us");
  rep.add("host.read_gbps", meta.read_gbps, "GB/s");
  rep.add("obs.trace_overhead", overhead, "ratio");
  rep.add("bench.gen_late_ms_p99", pct(st.gen_late_ms, 0.99), "ms",
          st.gen_late_ms.size());
  // Tails too unsteady across seeds to bound (README.md), from the
  // untraced pass.
  const auto plain_tpot = tpot_ms(plain);
  rep.add("e2e.itl_p99_ms", pct(plain.itl_ms, 0.99), "ms", plain.itl_ms.size());
  rep.add("e2e.tpot_p90_ms", pct(plain_tpot, 0.9), "ms", plain_tpot.size());
  rep.finish(correct, st.sent(), st.failed());
  return 0;
}

// Closed loop with one client per slot: the completed-request rate an open
// loop's fixed rate is chosen against.
int run_capacity(const Workload& base, const Args& a) {
  Workload w = base;
  w.open_loop = false;
  w.clients = w.slots;
  Engine e;
  set_up(w, 1, &e);
  RequestGen gen(w, a.seed);
  const ServeStats st = serve(*e.dec, w, gen, a.seconds);
  print_accounting("capacity", st);
  std::printf("closed-loop capacity: %.3f req/s, %.1f tok/s over %.1f s\n",
              static_cast<double>(st.ok) / st.end_s,
              static_cast<double>(total_output_tokens(st)) / st.end_s,
              st.end_s);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench_serving --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-file PATH] [--capacity]\n");
    return 2;
  }
  const perfbench::Workload* w = perfbench::find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", a.workload.c_str());
    for (const auto& n : perfbench::workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
                w->name.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);
    // Wake the pool before anything is timed.
    dsinfer::ThreadPool::global().parallel_for(
        0, 64, 1, [](std::size_t, std::size_t) {});
    if (a.capacity) return perfbench::run_capacity(*w, a);
    return a.trace ? perfbench::run_traced(*w, a) : perfbench::run_untraced(*w, a);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}

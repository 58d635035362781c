#include "serve.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>

#include "obs/trace.h"

namespace perfbench {

using namespace dsinfer;
using Clock = std::chrono::steady_clock;

namespace {

struct Live {
  std::int64_t id = -1;  // request in this slot, -1 when free
  std::int64_t seen = 0;
  double last_s = 0.0;
};

class ServeLoop {
 public:
  ServeLoop(core::RaggedDecoder& dec, const Workload& w, RequestGen& gen,
            double seconds)
      : dec_(dec), w_(w), gen_(gen), t0_(Clock::now()) {
    st_.seconds = seconds;
    // KV counters count from here, past any warm-up.
    st_.prompt_tokens = -dec.prompt_tokens();
    st_.prefix_hit_tokens = -dec.prefix_hit_tokens();
    st_.evictions = -dec.arena().evictions();
    st_.cow_splits = -dec.arena().cow_splits();
    live_.resize(static_cast<std::size_t>(dec.capacity()));
    if (w.open_loop) {
      st_.inputs = gen.open_loop_schedule(seconds);
      st_.records.resize(st_.inputs.size());
    } else {
      for (std::int64_t c = 0; c < w.clients; ++c) issue(0.0);
    }
  }

  ServeStats run() {
    double last_t = 0.0;
    for (;;) {
      const double t = now();
      track_backlog(last_t, t);
      last_t = t;
      release_due(t);
      admit_waiting();
      if (dec_.active() == 0) {
        if (waiting_.empty() && next_ >= st_.inputs.size()) break;
        // Idle until the next arrival. Spin rather than sleep: a sleeping
        // vCPU on a shared host can wake 10+ ms late, which would be the
        // generator's lateness, not the engine's.
        if (waiting_.empty()) {
          while (now() < st_.inputs[next_].due_s) std::this_thread::yield();
        }
        continue;
      }
      step();
    }
    st_.end_s = now();
    st_.prompt_tokens += dec_.prompt_tokens();
    st_.prefix_hit_tokens += dec_.prefix_hit_tokens();
    st_.evictions += dec_.arena().evictions();
    st_.cow_splits += dec_.arena().cow_splits();
    const double quarter = st_.seconds / 4.0;
    st_.backlog_first /= quarter;
    st_.backlog_last /= quarter;
    return std::move(st_);
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  // Closed loop: a client sends its next request the moment one finishes.
  void issue(double due) {
    st_.inputs.push_back(gen_.next(due));
    st_.records.emplace_back();
    waiting_.push_back(st_.inputs.size() - 1);
    ++next_;
  }

  // The generator's own lateness: how long after a request fell due (or
  // after the engine call it fell due in returned) the loop queued it. Time
  // the engine was busy counts in TTFT, not here.
  void release_due(double t) {
    if (!w_.open_loop) return;
    while (next_ < st_.inputs.size() && st_.inputs[next_].due_s <= t) {
      const double ready = std::max(st_.inputs[next_].due_s, engine_free_s_);
      st_.gen_late_ms.push_back((t - ready) * 1e3);
      waiting_.push_back(next_++);
    }
  }

  // Time-weighted queue depth over the first and last quarter of the window.
  void track_backlog(double from, double to) {
    const double q = st_.seconds / 4.0;
    const double depth = static_cast<double>(waiting_.size());
    st_.backlog_first += depth * std::max(0.0, std::min(to, q) - from);
    st_.backlog_last +=
        depth * std::max(0.0, std::min(to, st_.seconds) -
                                  std::max(from, st_.seconds - q));
  }

  // FIFO admission: the queue head waits for slots and page budget.
  void admit_waiting() {
    while (!waiting_.empty()) {
      const std::size_t id = waiting_.front();
      const Request& r = st_.inputs[id];
      const auto plen = static_cast<std::int64_t>(r.prompt.size());
      if (!dec_.fits(plen, r.max_new) ||
          (dec_.active() == 0 && !dec_.can_admit(r.prompt, r.max_new))) {
        ++st_.refused;
        waiting_.pop_front();
        continue;
      }
      if (!dec_.can_admit(r.prompt, r.max_new)) return;
      const double a0 = now();
      std::int64_t slot = -1;
      {
        DSI_TRACE_SCOPE("bench", "admit");
        slot = dec_.admit(r.prompt, r.max_new);
      }
      const double a1 = now();
      engine_free_s_ = a1;
      if (slot < 0) return;
      waiting_.pop_front();
      st_.busy_s += a1 - a0;
      st_.admit_ms.push_back((a1 - a0) * 1e3);
      st_.queue_wait_ms.push_back((a0 - r.due_s) * 1e3);
      if (dec_.last_step_prefill_rows() > 0) {
        st_.prefill_rows.push_back(
            static_cast<double>(dec_.last_step_prefill_rows()));
      }
      live_[static_cast<std::size_t>(slot)] =
          Live{static_cast<std::int64_t>(id), 0, a1};
      check_invariants();
      collect(slot, a1);
    }
  }

  void step() {
    const double s0 = now();
    {
      DSI_TRACE_SCOPE("bench", "step");
      dec_.step();
    }
    const double s1 = now();
    engine_free_s_ = s1;
    const double ms = (s1 - s0) * 1e3;
    st_.busy_s += s1 - s0;
    st_.step_ms.push_back(ms);
    const std::int64_t prefill = dec_.last_step_prefill_rows();
    const std::int64_t decode = dec_.last_step_decode_rows();
    st_.step_rows += prefill + decode;
    if (prefill > 0) {
      st_.prefill_rows.push_back(static_cast<double>(prefill));
    } else if (decode > 0) {
      st_.decode_step_ms.push_back(ms);
      st_.decode_rows.push_back(static_cast<double>(decode));
      double ctx = 0.0;
      for (std::size_t s = 0; s < live_.size(); ++s) {
        if (live_[s].id >= 0) {
          ctx += static_cast<double>(
              dec_.arena().seq_len(static_cast<std::int64_t>(s)));
        }
      }
      st_.decode_ctx.push_back(ctx / static_cast<double>(dec_.active()));
    }
    check_invariants();
    for (std::size_t s = 0; s < live_.size(); ++s) {
      if (live_[s].id >= 0) collect(static_cast<std::int64_t>(s), s1);
    }
  }

  // Timestamps the slot's new tokens at `t`; retires it once finished.
  void collect(std::int64_t slot, double t) {
    Live& l = live_[static_cast<std::size_t>(slot)];
    RequestRecord& rec = st_.records[static_cast<std::size_t>(l.id)];
    const std::int64_t g = dec_.generated(slot);
    for (; l.seen < g; ++l.seen) {
      if (l.seen == 0) {
        rec.first_s = t;
        st_.ttft_ms.push_back(
            (t - st_.inputs[static_cast<std::size_t>(l.id)].due_s) * 1e3);
      } else {
        const double itl = (t - l.last_s) * 1e3;
        st_.itl_ms.push_back(itl);
        rec.itl_sum_ms += itl;
      }
      l.last_s = t;
      if (t < st_.seconds) ++st_.window_tokens;
    }
    if (!dec_.finished(slot)) return;
    rec.done_s = t;
    rec.out_tokens = g;
    rec.tokens = dec_.tokens(slot);
    ++st_.ok;
    {
      DSI_TRACE_SCOPE("bench", "retire");
      dec_.retire(slot);
    }
    l = Live{};
    if (!w_.open_loop && t < st_.seconds) issue(t);
  }

  void check_invariants() {
    st_.pages_in_use_peak =
        std::max(st_.pages_in_use_peak, dec_.arena().pages_in_use());
    st_.pages_committed_peak =
        std::max(st_.pages_committed_peak, dec_.committed_pages());
    if (!st_.invariant_error.empty()) return;
    if (dec_.prompt_tokens() !=
        dec_.prefix_hit_tokens() + dec_.suffix_prefill_tokens()) {
      st_.invariant_error =
          "prompt_tokens != prefix_hit_tokens + suffix_prefill_tokens";
    } else if (dec_.arena().pages_in_use() > dec_.arena().total_pages()) {
      st_.invariant_error = "pages_in_use > total_pages";
    }
  }

  core::RaggedDecoder& dec_;
  const Workload& w_;
  RequestGen& gen_;
  const Clock::time_point t0_;
  ServeStats st_;
  std::deque<std::size_t> waiting_;
  std::size_t next_ = 0;  // open loop: next scheduled arrival
  double engine_free_s_ = 0.0;  // end of the last admit() / step()
  std::vector<Live> live_;
};

}  // namespace

ServeStats serve(core::RaggedDecoder& dec, const Workload& w, RequestGen& gen,
                 double seconds) {
  for (const Request& r : gen.warmup()) {
    const std::int64_t slot = dec.admit(r.prompt, r.max_new);
    while (!dec.finished(slot)) dec.step();
    dec.retire(slot);
  }
  return ServeLoop(dec, w, gen, seconds).run();
}

bool check_outputs(core::InferenceEngine& ref, const Workload& w,
                   const ServeStats& st, std::uint64_t seed, std::string* why) {
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < st.records.size(); ++i) {
    if (st.records[i].done_s >= 0.0) done.push_back(i);
  }
  if (done.empty()) {
    *why = "no request finished";
    return false;
  }
  Rng rng(seed ^ 0xc0ffee);
  std::shuffle(done.begin(), done.end(), rng.engine());
  done.resize(std::min<std::size_t>(
      done.size(), static_cast<std::size_t>(w.check_sample)));
  for (std::size_t id : done) {
    const Request& r = st.inputs[id];
    const auto res = ref.generate({r.prompt}, r.max_new);
    if (res.tokens.front() != st.records[id].tokens) {
      *why = "request " + std::to_string(id) +
             ": served tokens differ from InferenceEngine::generate";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
